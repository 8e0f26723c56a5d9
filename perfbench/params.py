"""Fixed settings of the benchmark workloads.

Kept apart from ``inputs.py`` so that a worker can read them without
importing numpy before its set-up timer starts.
"""

WORKLOADS = ("toy_algorithms", "logistic_sweep", "multi_helper")
ALGORITHMS = ("Naive", "AuxMOM", "AuxMOM_V0", "AuxMVR", "SGDm", "MVR", "GD", "FineTune")

TOY = {"delta": 1.0, "zeta": 10.0, "sigma": 1.0, "rho": 0.5,
       "eta": 0.05, "a": 0.1, "K": 10, "T": 50, "repeats": 3}
LOGISTIC = {"n": 8124, "d": 112, "groups": 16, "eta": 0.5, "a": 0.1, "T": 20,
            "batch_size": 128, "repeats": 3, "K_values": (1, 5, 10)}
MULTI = {"N": 16, "S": 4, "d": 64, "K": 10, "T": 100, "eta": 0.3, "a": 1.0,
         "curvature_gap": 0.2}
