"""The svd reference kappa and the gap against a 50-digit recomputation (tests/oracle.py).

Each problem must meet |kappa - kappa_50| / kappa_50 <= 4 eps / min(rel_gap, 1):
the rounding of the data alone moves kappa by about eps / rel_gap, and the
explicit K, the only other independent check, is gated where eps sigma_hat_1^2
/ delta exceeds 1e-8.
The relative gap must meet |rel_gap - rel_gap_50| <= 4 eps sigma_1 / sigma_hat_n,
the backward-stable SVD's eps sigma_1 error in both singular values over
sigma_hat_n, and also be within 1e-5 of rel_gap_50 relative: delta, the
distance of a secular root to the sigma_{n+1} pole, keeps the gap's leading
digits where a difference of two singular values would be rounding alone.
x itself, from the same 50-digit SVD, must meet the bar of kappa, 4 eps /
min(rel_gap, 1) relative to ||x_50||, on every case.
The gap chain's |u_hat_n . b|, read off the same root, must meet
|w - w_50| <= 4 eps sigma_1, the chain's own slack, at alpha down to 1e-8.
The baboulin route, which reads A's singular vectors off the same roots, must
be no farther from kappa_50 than the svd route, plus 1e-14 relative, on every
case: the gap alone gates nothing.
"""

import functools

import numpy as np
import pytest

import tlscond as tc
from conftest import pipeline, tie_problem, tied_weighted_problem

pytest.importorskip("mpmath")
from oracle import oracle_b_weight_n, oracle_kappa, oracle_rel_gap, oracle_x  # noqa: E402

EPS = np.finfo(float).eps


ORACLE_PROBLEMS = {
    "alpha_30x8_1e-2": lambda: tc.generate_ab_alpha(30, 8, 1e-2, seed=3),
    "alpha_30x8_1e-6": lambda: tc.generate_ab_alpha(30, 8, 1e-6, seed=3),
    "alpha_20x5_1e-7": lambda: tc.generate_ab_alpha(20, 5, 1e-7, seed=1),
    "alpha_15x10_1e-8": lambda: tc.generate_ab_alpha(15, 10, 1e-8, seed=1),
    "alpha_60x10_1e-8": lambda: tc.generate_ab_alpha(60, 10, 1e-8, seed=2),
    "tie_5x3": tie_problem,
    "tie_weighted_6x3": tied_weighted_problem,
    "tie_triple_7x4": lambda: tied_weighted_problem(0, (3.0, 3.0, 3.0, 1.0, 0.5)),
    "deblur_m40_seed0": lambda: tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, seed=0)),
    "deblur_m40_seed1": lambda: tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, seed=1)),
    # 56 x 41: past core.V_ONLY_WIDTH, the few-value kernel's case
    "deblur_m56_seed1": lambda: tc.kamm_nagy_problem(tc.KammNagyConfig(m=56, seed=1)),
    # sigma_n - sigma_{n+1} = 1e-10 at unit scale: dlasd4 converges on kappa's
    # equation only once it is scaled to unit weights
    "close_30x6_1e-10": lambda: tied_weighted_problem(
        8, (3.0, 2.5, 2.0, 1.5, 1.2, 1.0, 1.0 - 1e-10), rows=30),
}


@functools.cache
def kappa_50(name):
    return oracle_kappa(ORACLE_PROBLEMS[name]())


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_svd_kappa_matches_the_50_digit_oracle(name):
    problem = ORACLE_PROBLEMS[name]()
    bundle, solution, work = pipeline(problem)
    kappa = tc.svd_condition(work, bundle, solution).kappa_abs
    reference = kappa_50(name)
    bound = 4.0 * EPS / min(solution.gap.rel_gap, 1.0)
    assert abs(kappa - reference) / reference <= bound


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_x_matches_the_50_digit_oracle(name):
    problem = ORACLE_PROBLEMS[name]()
    solution = tc.solve_tls(problem, tc.svd_bundle(problem))
    reference = np.array(oracle_x(problem))
    bound = 4.0 * EPS / min(solution.gap.rel_gap, 1.0)
    assert np.linalg.norm(solution.x - reference) <= bound * np.linalg.norm(reference)


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_baboulin_kappa_matches_the_50_digit_oracle(name):
    # measured at most 4.8e-16 farther than the svd route (tie_weighted_6x3, a merged tie)
    problem = ORACLE_PROBLEMS[name]()
    bundle, solution, work = pipeline(problem)
    reference = kappa_50(name)
    svd_error = abs(tc.svd_condition(work, bundle, solution).kappa_abs - reference) / reference
    estimate = tc.baboulin_condition(work, bundle, solution)
    assert abs(estimate.kappa_abs - reference) / reference <= svd_error + 1e-14
    assert estimate.warnings == ()


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_rel_gap_matches_the_50_digit_oracle(name):
    problem = ORACLE_PROBLEMS[name]()
    bundle = tc.svd_bundle(problem)
    rel_gap = tc.solve_tls(problem, bundle).gap.rel_gap
    reference = oracle_rel_gap(problem)
    bound = 4.0 * EPS * bundle.sigma[0] / bundle.sigma_hat_n
    assert abs(rel_gap - reference) <= bound
    assert abs(rel_gap - reference) <= 1e-5 * reference


@pytest.mark.parametrize("name", [k for k in ORACLE_PROBLEMS if k.startswith("alpha_")])
def test_b_weight_n_matches_the_50_digit_oracle(name):
    # measured within 0.05-0.6 eps sigma_1 (2e-8 relative at alpha 1e-8), as an SVD of A is
    problem = ORACLE_PROBLEMS[name]()
    bundle = tc.svd_bundle(problem)
    reference = oracle_b_weight_n(problem)
    assert abs(bundle.roots.b_weight_n() - reference) <= 4.0 * EPS * bundle.sigma[0]
    assert abs(bundle.roots.b_weight_n() - reference) <= 1e-7 * reference
