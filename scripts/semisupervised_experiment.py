#!/usr/bin/env python3
"""Semi-supervised logistic regression: helper gradients from randomly
labeled unlabeled data accelerate training at an equal f-gradient budget.

Splits a LIBSVM dataset (or a synthetic stand-in) three ways, builds a
random-label helper on the unlabeled part, and compares AuxMOM against SGDm
at the same number of f-gradient evaluations.
"""
import argparse
from pathlib import Path

import numpy as np

from auxopt import (
    LogisticTask,
    OptimizerConfig,
    RandomToken,
    build_semisupervised,
    logistic_oracle,
    make_synthetic_classification,
    map_labels_to_pm1,
    parse_libsvm,
    run,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=None, help="LIBSVM file; synthetic if omitted")
    parser.add_argument("--eta", type=float, default=0.5)
    parser.add_argument("--a", type=float, default=0.1)
    parser.add_argument("--K", type=int, default=10)
    parser.add_argument("--T", type=int, default=40)
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.data is not None:
        features, labels = parse_libsvm(Path(args.data).read_bytes())
    else:
        features, labels = make_synthetic_classification(2000, 112, RandomToken(123))
    task = LogisticTask(features, map_labels_to_pm1(labels))

    f_task, h_task, test_task = build_semisupervised(
        task, (1 / 3, 1 / 3, 1 / 3), "random_labels", RandomToken(args.seed)
    )
    oracle = logistic_oracle(f_task, h_task, batch_size=args.batch_size)
    x0 = np.zeros(oracle.dim)

    # AuxMOM spends one f-minus-h draw per cycle; SGDm gets the same number of
    # f draws by running one step per cycle for the same T (plus m0 samples).
    aux = run(oracle, OptimizerConfig("AuxMOM", eta=args.eta, a=args.a,
                                      K=args.K, T=args.T),
              RandomToken(args.seed), x0=x0)
    sgd = run(oracle, OptimizerConfig("SGDm", eta=args.eta, a=args.a, K=1, T=args.T),
              RandomToken(args.seed), x0=x0)

    for name, traj in (("AuxMOM", aux), ("SGDm", sgd)):
        x_final = np.asarray(traj.metadata["final_x"])
        last = traj.rows[-1]
        print(f"{name:7}: f-budget={int(last.calls_f + last.calls_fmh):4d}  "
              f"train loss={f_task.loss(x_final):.4f}  "
              f"test loss={test_task.loss(x_final):.4f}")


if __name__ == "__main__":
    main()
