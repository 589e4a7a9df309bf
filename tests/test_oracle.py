"""The svd reference kappa and the gap against a 50-digit recomputation (tests/oracle.py).

Each problem must meet |kappa - kappa_50| / kappa_50 <= 4 eps / min(rel_gap, 1):
the rounding of the data alone moves kappa by about eps / rel_gap, and the
explicit K, the only other independent check, is gated below rel_gap 1e-6.
The relative gap must meet |rel_gap - rel_gap_50| <= 4 eps sigma_1 / sigma_hat_n,
the backward-stable SVD's eps sigma_1 error in both singular values over
sigma_hat_n, and also be within 1e-5 of rel_gap_50 relative: delta, the
distance of a secular root to the sigma_{n+1} pole, keeps the gap's leading
digits where a difference of two singular values would be rounding alone.
"""

import numpy as np
import pytest

import tlscond as tc
from conftest import pipeline, tie_problem, tied_weighted_problem

pytest.importorskip("mpmath")
from oracle import oracle_kappa, oracle_rel_gap  # noqa: E402

EPS = np.finfo(float).eps


ORACLE_PROBLEMS = {
    "alpha_30x8_1e-2": lambda: tc.generate_ab_alpha(30, 8, 1e-2, seed=3),
    "alpha_30x8_1e-6": lambda: tc.generate_ab_alpha(30, 8, 1e-6, seed=3),
    "alpha_20x5_1e-7": lambda: tc.generate_ab_alpha(20, 5, 1e-7, seed=1),
    "alpha_15x10_1e-8": lambda: tc.generate_ab_alpha(15, 10, 1e-8, seed=1),
    "alpha_60x10_1e-8": lambda: tc.generate_ab_alpha(60, 10, 1e-8, seed=2),
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
    reference = oracle_rel_gap(problem)
    bound = 4.0 * EPS * bundle.sigma[0] / bundle.sigma_hat_n
    assert abs(rel_gap - reference) <= bound
    assert abs(rel_gap - reference) <= 1e-5 * reference
