from types import SimpleNamespace

import numpy as np
import pytest

import tlscond as tc
from conftest import FixBClosedForms as FB
from conftest import pipeline
from tlscond import generators
from tlscond.bounds import kappa2_dominance
from tlscond.cli import BOUND_COLUMNS, _bound_row
from tlscond.errors import NotApplicable


def tailored_problem(sv_of_a, seed, residual=0.01):
    """Problem whose A has prescribed singular values; b nearly in range(A)."""
    rng = np.random.default_rng(seed)
    m, n = 6 * len(sv_of_a), len(sv_of_a)
    u = np.linalg.qr(rng.standard_normal((m, n)))[0]
    v = generators.haar_orthogonal(n, rng)
    a = (u * np.asarray(sv_of_a, dtype=float)) @ v.T
    b = a @ rng.standard_normal(n) + residual * rng.standard_normal(m)
    return tc.TlsProblem(a, b)


def test_simple_sandwich_fix_a(fix_a):
    _, solution, work = pipeline(fix_a)
    pair = tc.simple_sandwich(solution, work)
    assert pair.lower == pair.upper == pytest.approx(np.sqrt(5) / 3, rel=1e-14, abs=0)


def test_simple_sandwich_fix_b(fix_b):
    _, solution, work = pipeline(fix_b)
    pair = tc.simple_sandwich(solution, work)
    assert pair.lower == pytest.approx(FB.simple_lower, rel=1e-12)
    assert pair.upper == pytest.approx(FB.simple_upper, rel=1e-12)
    assert pair.upper / pair.lower == pytest.approx(1.0 / FB.alpha, rel=1e-12)


def test_simple_ratio_below_two_for_large_alpha():
    for seed in range(4):
        problem = tc.generate_ab_alpha(20, 5, 0.7, seed=seed)
        _, solution, work = pipeline(problem)
        assert solution.alpha > 0.5
        pair = tc.simple_sandwich(solution, work)
        assert pair.upper / pair.lower < 2.0


def test_sharp_sandwich_fix_b(fix_b):
    _, solution, work = pipeline(fix_b)
    pair = tc.sharp_sandwich(solution, work)
    assert pair.lower == pytest.approx(FB.sharp_lower, rel=1e-10)
    assert pair.upper == pytest.approx(FB.sharp_upper, rel=1e-10)


def test_sharp_sandwich_degenerate_x_zero(fix_a):
    _, solution, work = pipeline(fix_a)
    pair = tc.sharp_sandwich(solution, work)
    assert pair.lower == pair.upper == pytest.approx(np.sqrt(5) / 3, rel=1e-14, abs=0)


def test_sharp_sandwich_tiny_alpha_factor_four():
    problem = tc.generate_ab_alpha(15, 10, 1e-8, seed=4)
    bundle, solution, work = pipeline(problem)
    pair = tc.sharp_sandwich(solution, work)
    kappa = tc.svd_condition(work, bundle, solution).kappa_abs
    assert pair.lower <= kappa <= pair.upper
    assert pair.upper / pair.lower < 4.0


def test_kappa1_fix_a(fix_a):
    bundle, solution, _ = pipeline(fix_a)
    pair = tc.sv_bounds_kappa1(bundle, solution)
    assert pair.lower is None  # n = 1
    assert pair.upper == pytest.approx(np.sqrt(5) / 3, rel=1e-14, abs=0)


def test_kappa1_fix_b(fix_b):
    bundle, solution, _ = pipeline(fix_b)
    pair = tc.sv_bounds_kappa1(bundle, solution)
    assert pair.upper == pytest.approx(FB.kappa1_upper, rel=1e-10)


def test_kappa1_tight_for_clustered_trailing_values():
    problem = tailored_problem([5.0, 3.0, 1.0, 1.0], seed=1)
    bundle, solution, work = pipeline(problem)
    pair = tc.sv_bounds_kappa1(bundle, solution)
    assert pair.upper / pair.lower == pytest.approx(1.0, abs=1e-10)
    kappa = tc.svd_condition(work, bundle, solution).kappa_abs
    assert pair.lower <= kappa * (1 + 1e-9) and kappa <= pair.upper * (1 + 1e-9)


def test_kappa2_lower_fixtures(fix_a, fix_b):
    bundle, solution, _ = pipeline(fix_a)
    assert tc.lower_kappa2(bundle, solution).lower == pytest.approx(
        1 / np.sqrt(3), rel=1e-12
    )
    bundle, solution, _ = pipeline(fix_b)
    assert tc.lower_kappa2(bundle, solution).lower == pytest.approx(
        FB.kappa2_lower, rel=1e-10
    )


def test_kappa2_dominance_condition():
    # sigma_hat_{n-1} >= 2 sigma_hat_n forces kappa1's lower below kappa2's
    problem = tailored_problem([8.0, 1.0], seed=2)
    bundle, solution, _ = pipeline(problem)
    general, simple = kappa2_dominance(bundle)
    assert general and simple
    k1 = tc.sv_bounds_kappa1(bundle, solution)
    k2 = tc.lower_kappa2(bundle, solution)
    assert k1.lower <= k2.lower
    assert "dominates" in k2.applicability_note


def test_kappa1_upper_meets_kappa2_lower_as_residual_vanishes():
    # ratio = sqrt((1+q)/(1-q)), q = sigma_{n+1}^2/sigma_hat_n^2 -> 1 as q -> 0
    for residual, tol in [(1e-2, 1e-3), (1e-5, 1e-9)]:
        problem = tailored_problem([4.0, 2.0, 1.0], seed=3, residual=residual)
        bundle, solution, _ = pipeline(problem)
        upper1 = tc.sv_bounds_kappa1(bundle, solution).upper
        lower2 = tc.lower_kappa2(bundle, solution).lower
        q = (bundle.sigma[-1] / bundle.sigma_hat[-1]) ** 2
        assert upper1 / lower2 == pytest.approx(np.sqrt((1 + q) / (1 - q)), rel=1e-8)
        assert upper1 / lower2 == pytest.approx(1.0, abs=tol)
        assert upper1 / lower2 > 1.0


def test_upper_kappa2_rejects_large_alpha(fix_b):
    bundle, solution, _ = pipeline(fix_b)
    assert solution.alpha > 0.5
    with pytest.raises(NotApplicable):
        tc.upper_kappa2(bundle, solution)


def test_upper_kappa2_encloses_at_small_alpha():
    for seed in range(4):
        problem = tc.generate_ab_alpha(30, 8, 1e-3, seed=seed)
        bundle, solution, work = pipeline(problem)
        rho = bundle.sigma[-1] / bundle.sigma[-2]
        assert rho <= 0.99
        pair = tc.upper_kappa2(bundle, solution)
        kappa = tc.svd_condition(work, bundle, solution).kappa_abs
        assert pair.lower <= kappa * (1 + 1e-9)
        assert kappa <= pair.upper * (1 + 1e-9)


def test_kappa2_amplification_factor_value():
    # direct evaluation at rho = 0.953, consistent with the ~17.8 spread the
    # deblurring experiments show at that gap ratio
    rho = 0.953
    amp = np.sqrt((1 + 31 * rho**2) / (1 - rho**2))
    assert amp == pytest.approx(17.82, abs=0.01)


def test_bhm_fixtures(fix_a, fix_b):
    bundle, _, _ = pipeline(fix_a)
    assert tc.bhm_approx(bundle).upper == pytest.approx(2.0, rel=1e-14)
    bundle, _, _ = pipeline(fix_b)
    assert tc.bhm_approx(bundle).upper == pytest.approx(FB.bhm, rel=1e-12)


def test_bhm_blows_up_past_kappa2_upper_at_close_gap():
    problem = tc.generate_ab_alpha(50, 20, 1e-5, seed=6)
    bundle, solution, work = pipeline(problem)
    report = tc.bounds_report(problem, bundle, solution, work)
    # bhm already estimates the relative number; kappa2_upper is rescaled to it
    kappa2_upper_rel = report.pairs["kappa2_upper"].upper * report.rel_scale
    assert report.pairs["bhm"].upper / kappa2_upper_rel >= 1e2


def test_orthogonal_split_inequality():
    # A1^T A2 = 0 via complementary projectors from a Haar factor
    rng = np.random.default_rng(12)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        q = generators.haar_orthogonal(n, rng)
        a1 = q[:, :k] @ q[:, :k].T @ rng.standard_normal((n, n))
        a2 = q[:, k:] @ q[:, k:].T @ rng.standard_normal((n, n))
        assert np.linalg.norm(a1.T @ a2) <= 1e-12 * max(
            np.linalg.norm(a1), np.linalg.norm(a2)
        )
        n1, n2 = np.linalg.norm(a1, 2), np.linalg.norm(a2, 2)
        total = np.linalg.norm(a1 + a2, 2)
        assert 0.5 * (n1 + n2) <= total * (1 + 1e-12)
        assert total <= (n1 + n2) * (1 + 1e-12)


def test_beta_vector_consistency():
    for seed in range(6):
        problem = tc.generate_ab_alpha(25, 7, [0.9, 0.3, 0.05][seed % 3], seed=seed)
        bundle, solution, work = pipeline(problem)
        report = tc.bounds_report(problem, bundle, solution, work)
        assert abs(work.beta @ work.beta + solution.alpha**2 - 1.0) <= 1e-12
        assert work.alpha == pytest.approx(solution.alpha, abs=1e-13)


def test_upper_bound_dominance_chain():
    # kappa1 upper is the sharpest of the three sigma-based uppers
    for seed in range(6):
        problem = tc.generate_ab_alpha(30, 6, [0.8, 0.2, 0.02][seed % 3], seed=seed)
        bundle, solution, _ = pipeline(problem)
        scale = np.hypot(1.0, solution.norm_x)
        sig_last = bundle.sigma[-1]
        gap = (bundle.sigma_hat[-1] - sig_last) * (bundle.sigma_hat[-1] + sig_last)
        upper1 = tc.sv_bounds_kappa1(bundle, solution).upper
        mid = scale * np.sqrt(bundle.sigma_hat[0] ** 2 + sig_last**2) / gap
        loose = scale * np.sqrt(bundle.sigma[0] ** 2 + sig_last**2) / gap
        assert upper1 <= mid * (1 + 1e-12) <= loose * (1 + 1e-12)


def test_bounds_report_fix_b(fix_b):
    bundle, solution, work = pipeline(fix_b)
    report = tc.bounds_report(fix_b, bundle, solution, work)
    for family in ("simple_sandwich", "sharp_sandwich", "kappa1", "kappa2_lower"):
        assert report.sandwich_verdicts[family]
    assert "bhm" not in report.sandwich_verdicts  # heuristic, not certified
    assert report.pairs["kappa2_upper"].lower is None  # alpha > 1/2
    assert "kappa2_upper" not in report.sandwich_verdicts  # no bound, so nothing enclosed
    assert solution.gap.ratio_sigma_n == pytest.approx(FB.sig2 / np.sqrt(FB.sig1_sq), rel=1e-12)
    assert report.rel_scale == pytest.approx(np.sqrt(3) / FB.x, rel=1e-12)


def test_bounds_report_x_zero_relative_not_applicable(fix_a):
    bundle, solution, work = pipeline(fix_a)
    report = tc.bounds_report(fix_a, bundle, solution, work)
    assert report.rel_scale is None
    assert report.pairs["bhm"].upper is not None  # direct estimate, no x scaling
    # the table's relative columns read None where pair x rel_scale is undefined
    row = dict(zip(BOUND_COLUMNS, _bound_row(fix_a, bundle, solution)))
    for column in ("kappa_rel", "kappa2_lower_rel", "kappa2_upper_rel", "kappa1_upper_rel"):
        assert row[column] is None
    assert row["bhm"] == report.pairs["bhm"].upper


def test_bound_pairs_ordered():
    for seed in range(5):
        problem = tc.generate_ab_alpha(30, 8, [0.6, 0.09, 0.004][seed % 3], seed=seed)
        bundle, solution, work = pipeline(problem)
        report = tc.bounds_report(problem, bundle, solution, work)
        for pair in report.pairs.values():
            if pair.lower is not None and pair.upper is not None:
                assert pair.lower <= pair.upper * (1 + 1e-12)


def few_value_stand_ins(bundle, solution):
    """A bundle and a solution holding only what the few-value bounds may read.

    The bundle keeps n, sigma_{n+1} (every other sigma is NaN), sigma_hat_n,
    delta and roots that answer only sigma_hat_{n-1} (at(-2)) and sigma_hat_1
    (at(0)); the solution keeps ||x||, alpha and its gap record's rho =
    sigma_{n+1} / sigma_n.
    """
    sigma = np.full(bundle.n + 1, np.nan)
    sigma[-1] = bundle.sigma[-1]
    answers = {-2: bundle.roots.at(-2), 0: bundle.roots.at(0)}
    few_bundle = SimpleNamespace(
        n=bundle.n, sigma=sigma, sigma_hat_n=bundle.sigma_hat_n, delta=bundle.delta,
        roots=SimpleNamespace(at=answers.__getitem__),
    )
    gap = SimpleNamespace(ratio_sigma_n=solution.gap.ratio_sigma_n)
    return few_bundle, SimpleNamespace(norm_x=solution.norm_x, alpha=solution.alpha, gap=gap)


@pytest.mark.parametrize("make", [
    lambda: tc.generate_ab_alpha(50, 10, 0.3, seed=0),
    lambda: tc.generate_ab_alpha(200, 30, 1e-4, seed=0),
    lambda: tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=0)),
], ids=["alpha_50x10_0.3", "alpha_200x30_1e-4", "deblur_m100"])
def test_few_value_bounds_read_only_the_few_values(make):
    bundle, solution, _ = pipeline(make())
    few_bundle, few_solution = few_value_stand_ins(bundle, solution)
    assert tc.sv_bounds_kappa1(few_bundle, few_solution) == tc.sv_bounds_kappa1(bundle, solution)
    assert tc.lower_kappa2(few_bundle, few_solution) == tc.lower_kappa2(bundle, solution)
    assert tc.upper_kappa2(few_bundle, few_solution) == tc.upper_kappa2(bundle, solution)
    assert tc.bhm_approx(few_bundle) == tc.bhm_approx(bundle)
