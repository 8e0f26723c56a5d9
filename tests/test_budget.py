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
from auxopt.problems import make_toy_pair

NOISE = NoiseSpec(sigma_f=1.0, sigma_h=1.0, rho=0.5)


def counted(pair, counts: Counter):
    """Copy of ``pair`` whose stochastic gradients and exact grad f count calls.

    The copy has no exact grad h, so ``run`` records no observations or
    diagnostics with it: every exact grad f call left is an optimisation
    step (GD's).
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
        exact_grad_h=None,
        f_value=None,
    )


@pytest.mark.parametrize("m0_mode", ["zero", "single_sample", "big_batch"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_bills_every_draw(algorithm, m0_mode):
    counts = Counter()
    oracle = counted(make_toy_pair(0.5, 2.0, NOISE), counts)
    cfg = OptimizerConfig(algorithm, eta=0.05, a=0.3, K=3, T=6, m0_mode=m0_mode)
    last = run(oracle, cfg, RandomToken(11), x0=np.array([1.5])).rows[-1]
    assert (last.calls_f, last.calls_h, last.calls_fmh) == (
        counts["f"] + counts["exact_f"], counts["h"], counts["fmh"])
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
