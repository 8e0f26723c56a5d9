"""Billed gradient calls equal the draws the oracles actually serve.

The paper's matched-budget comparisons rest on ``calls_f``, ``calls_h`` and
``calls_fmh``; here every oracle callable counts its own invocations and the
bills are checked against those counts.
"""
import dataclasses
from collections import Counter

import numpy as np
import pytest

from auxopt.core import NoiseSpec, RandomToken
from auxopt.decentralized import VARIANTS, HelperSet, run_decentralized
from auxopt.optimizers import ALGORITHMS, OptimizerConfig, run
from auxopt.problems import (
    LogisticTask,
    logistic_oracle,
    make_synthetic_classification,
    make_toy_pair,
    map_labels_to_pm1,
)

NOISE = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.5)


def counted(pair, counts: Counter):
    """Copy of ``pair`` whose stochastic gradients and exact grad f count calls.

    ``run`` observes its rows a window of cycles at a time, x0's row leading
    the first, with one exact grad f call on each window's stack; every other
    exact grad f call is an optimisation step (GD's).
    """
    def count(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    return dataclasses.replace(
        pair,
        grad_f=count("f", pair.grad_f),
        grad_h=count("h", pair.grad_h),
        grad_f_minus_h=count("fmh", pair.grad_f_minus_h),
        exact_grad_f=count("exact_f", pair.exact_grad_f),
    )


def logistic_pair():
    """A minibatch logistic pair whose grad_f_minus_h calls its own f and h
    gradients: each of its draws is one f-h call, not an f and an h call."""
    features, labels = make_synthetic_classification(40, 6, RandomToken(5), n_groups=3)
    labels = map_labels_to_pm1(labels)
    return logistic_oracle(LogisticTask(features, labels), LogisticTask(features, -labels),
                           batch_size=4)


@pytest.mark.parametrize("m0_mode", ["zero", "single_sample", "big_batch"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_bills_every_draw(algorithm, m0_mode):
    cfg = OptimizerConfig(algorithm, eta=0.05, a=0.3, K=3, T=6, m0_mode=m0_mode)
    for pair, x0 in ((make_toy_pair(0.5, 2.0, NOISE), np.array([1.5])),
                     (logistic_pair(), np.zeros(6))):
        counts = Counter()
        rows = run(counted(pair, counts), cfg, RandomToken(11), x0=x0).rows
        last = rows[-1]
        windows = 1  # at most 19 rows: one window
        assert (last.calls_f, last.calls_h, last.calls_fmh) == (
            counts["f"] + counts["exact_f"] - windows, counts["h"], counts["fmh"])
        assert sum(counts.values()) > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_decentralized_bills_every_draw(variant):
    counts = Counter()
    oracles = [counted(make_toy_pair(0.3, float(z), NOISE), counts) for z in range(5)]
    helpers = HelperSet(oracles=oracles, s=3)
    cfg = OptimizerConfig(variant, eta=0.05, a=0.5, K=4, T=5)
    run_decentralized(np.array([1.0]), helpers, cfg, RandomToken(3), variant=variant)
    assert counts["f"] + counts["exact_f"] == 0
    assert (helpers.calls_h, helpers.calls_fmh) == (counts["h"], counts["fmh"])
    assert counts["fmh"] == 3 * cfg.T * (1 if variant == "AuxMOM" else 2)
