"""Stochastic optimization of a target f assisted by cheap gradients of a
similar helper h: bias-corrected local steps, momentum variants, multi-helper
averaging, theorem-prescribed hyperparameters, and an experiment harness."""

from types import ModuleType as _ModuleType

from .core import (
    Array,
    NoiseSpec,
    OraclePair,
    RandomToken,
    draw_gaussian_noise,
    gaussian_oracle,
    rng_from_token,
    stream_fork,
)
from .decentralized import (
    DecentralizedTrajectory,
    HelperSet,
    decentralized_cycle,
    run_decentralized,
    sample_helpers,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    build_oracle,
    load_config,
    load_config_file,
    run_experiment,
    run_sweep,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .optimizers import (
    ALGORITHMS,
    DivergenceError,
    OptimizerConfig,
    Trajectory,
    run,
)
from .problems import (
    LibsvmParseError,
    LogisticTask,
    build_semisupervised,
    logistic_oracle,
    make_quadratic_nd,
    make_synthetic_classification,
    make_toy_pair,
    map_labels_to_pm1,
    parse_libsvm,
    write_libsvm,
)
from .theory import (
    TheoryParams,
    auxmom_beta,
    auxmom_params,
    auxmvr_params,
    check_report,
    default_probe_points,
    estimate_bias,
    estimate_delta,
)

__version__ = "0.1.0"

# The public names are those imported above; the submodules they come from are not.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
