"""The svd reference kappa and the gap against a 50-digit recomputation (tests/oracle.py).

Each problem must meet |kappa - kappa_50| / kappa_50 <= 4 eps / min(rel_gap, 1):
the rounding of the data alone moves kappa by about eps / rel_gap, and the
explicit K, the only other independent check, is gated below rel_gap 1e-6.
The relative gap must meet |rel_gap - rel_gap_50| <= 4 eps sigma_1 / sigma_hat_n,
the backward-stable SVD's eps sigma_1 error in both singular values over sigma_hat_n.
"""

import numpy as np
import pytest

import tlscond as tc
from conftest import pipeline, tie_problem

pytest.importorskip("mpmath")
from oracle import oracle_kappa, oracle_rel_gap  # noqa: E402

EPS = np.finfo(float).eps


def tied_weighted_problem(seed=2):
    """[A b] = U diag(3, 3, 1, 0.5) W^T (6x4): s_1 = s_2 tied, both beta_1, beta_2 nonzero."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((6, 4)))[0]
    aug = (u * [3.0, 3.0, 1.0, 0.5]) @ tc.haar_orthogonal(4, rng).T
    return tc.TlsProblem(aug[:, :3], aug[:, 3])


ORACLE_PROBLEMS = {
    "alpha_30x8_1e-2": lambda: tc.generate_ab_alpha(30, 8, 1e-2, seed=3),
    "alpha_30x8_1e-6": lambda: tc.generate_ab_alpha(30, 8, 1e-6, seed=3),
    "alpha_20x5_1e-7": lambda: tc.generate_ab_alpha(20, 5, 1e-7, seed=1),
    "alpha_15x10_1e-8": lambda: tc.generate_ab_alpha(15, 10, 1e-8, seed=1),
    "tie_5x3": tie_problem,
    "tie_weighted_6x3": tied_weighted_problem,
    "deblur_m40_seed0": lambda: tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, seed=0)),
    "deblur_m40_seed1": lambda: tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, seed=1)),
}


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_svd_kappa_matches_the_50_digit_oracle(name):
    problem = ORACLE_PROBLEMS[name]()
    bundle, solution, work = pipeline(problem)
    kappa = tc.svd_condition(work, bundle, solution).kappa_abs
    reference = oracle_kappa(problem)
    bound = 4.0 * EPS / min(solution.gap.rel_gap, 1.0)
    assert abs(kappa - reference) / reference <= bound


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_rel_gap_matches_the_50_digit_oracle(name):
    problem = ORACLE_PROBLEMS[name]()
    bundle = tc.svd_bundle(problem)
    rel_gap = tc.check_uniqueness(bundle).rel_gap
    bound = 4.0 * EPS * bundle.sigma[0] / bundle.sigma_hat[-1]
    assert abs(rel_gap - oracle_rel_gap(problem)) <= bound
