import warnings

import numpy as np
import pytest

import tlscond as tc
from conftest import FixBClosedForms as FB
from conftest import (
    counting_factorizations,
    failed_dgeqrt,
    failed_dlasd4,
    failed_svd,
    pipeline,
    tie_problem,
    tied_weighted_problem,
    unit_normals,
    zero_noise_deblur,
)
from tlscond import core, perturb
from tlscond.errors import (
    ConvergenceError,
    DegenerateVector,
    GapFailure,
    IllConditionedGap,
    NoUniqueSolution,
    ShapeError,
    TrivialProblem,
)

EPS = np.finfo(float).eps


def seeded_problems():
    problems = []
    for i, (m, n) in enumerate([(20, 5), (20, 10), (50, 5), (50, 10)] * 3):
        alpha = [0.9, 0.5, 0.1][i % 3]
        problems.append(tc.generate_ab_alpha(m, n, alpha, seed=100 + i))
    return problems


def test_fix_a_singular_values(fix_a):
    bundle = tc.svd_bundle(fix_a)
    np.testing.assert_allclose(bundle.sigma_hat, [2.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(bundle.sigma, [2.0, 1.0], rtol=0, atol=1e-15)


def test_fix_b_singular_values(fix_b):
    bundle = tc.svd_bundle(fix_b)
    np.testing.assert_allclose(bundle.sigma**2, [FB.sig1_sq, FB.sig2_sq], rtol=1e-14)
    np.testing.assert_allclose(bundle.sigma_hat, [1.0], rtol=1e-15)


def test_bundle_defects_small():
    for problem in seeded_problems()[:4]:
        bundle = tc.svd_bundle(problem)
        assert bundle.orthonormality_defect() < 1e-12 * max(problem.m, problem.n)
        assert bundle.reconstruction_defect(problem) < 1e-12
        assert bundle.interlacing_defect() < 1e-12


def test_interlacing_every_bundle():
    for problem in seeded_problems():
        bundle = tc.svd_bundle(problem)
        assert bundle.interlacing_defect() < 1e-12


def classify(bundle):
    """The solver's gap classification of a bundle, also where solve_tls raises."""
    return core._classify_gap(bundle.sigma, bundle.sigma_hat_n, bundle.delta)


def test_gap_classification():
    _, solution, _ = pipeline(tc.TlsProblem([[2.0], [0.0]], [0.0, 1.0]))
    diag = solution.gap
    assert diag.gap_ok and diag.nontrivial
    assert diag.rel_gap == pytest.approx(0.5)
    assert diag.ratio_sigma_n <= 1.0 and diag.ratio_sigma_hat_n <= 1.0 + 1e-14

    # b in range(A): sigma_{n+1} = 0 (zero row keeps the zero exact)
    trivial = tc.TlsProblem([[1.0], [0.0]], [2.0, 0.0])
    diag = classify(tc.svd_bundle(trivial))
    assert not diag.nontrivial

    # sigma_hat_n = sigma_{n+1}: [A b] orthogonal columns of equal norm
    tied = tc.TlsProblem([[1.0], [0.0]], [0.0, 1.0])
    diag = classify(tc.svd_bundle(tied))
    assert not diag.gap_ok and diag.rel_gap == 0.0


def test_solve_fix_a(fix_a):
    _, solution, _ = pipeline(fix_a)
    np.testing.assert_allclose(solution.x, [0.0], atol=1e-15)
    np.testing.assert_allclose(solution.r, [0.0, -1.0], atol=1e-15)
    assert solution.alpha == 1.0
    assert solution.last_right_vector[-1] == pytest.approx(-1.0)


def test_solve_fix_b(fix_b):
    _, solution, _ = pipeline(fix_b)
    np.testing.assert_allclose(solution.x, [FB.x], rtol=1e-14)
    np.testing.assert_allclose(solution.r, [(np.sqrt(5) - 1) / 2, -1.0], rtol=1e-14)
    assert solution.alpha == pytest.approx(FB.alpha, rel=1e-14, abs=0)
    # sign convention: last entry of v_{n+1} is -alpha
    assert solution.last_right_vector[-1] == pytest.approx(-FB.alpha, rel=1e-14, abs=0)


def test_solve_error_paths():
    with pytest.raises(NoUniqueSolution):
        problem = tc.TlsProblem([[1.0], [0.0]], [0.0, 1.0])
        tc.solve_tls(problem, tc.svd_bundle(problem))
    with pytest.raises(TrivialProblem):
        problem = tc.TlsProblem([[1.0], [0.0]], [2.0, 0.0])
        tc.solve_tls(problem, tc.svd_bundle(problem))


def test_identities_hold_on_seeded_problems():
    for problem in seeded_problems():
        bundle, solution, _ = pipeline(problem)
        report = tc.residual_diagnostics(problem, bundle, solution)
        assert report.optimal_value <= 1e-10
        assert report.gradient <= 1e-10
        assert report.singular_vector <= 1e-10


def test_solution_formulas_agree():
    # singular-vector path vs normal-equations cross-check over 100 seeded
    # problems, conditioned on a healthy gap as the contract states
    import itertools

    configs = list(itertools.product([0.9, 0.5, 0.1], [20, 50], [5, 10]))
    checked = 0
    for i in range(100):
        alpha, m, n = configs[i % len(configs)]
        problem = tc.generate_ab_alpha(m, n, alpha, seed=700 + i)
        bundle = tc.svd_bundle(problem)
        solution = tc.solve_tls(problem, bundle)
        if solution.gap.rel_gap < 1e-3:
            continue
        diff = tc.residual_diagnostics(problem, bundle, solution).normal_eq_rel_diff
        assert diff is not None and diff <= 1e-8
        checked += 1
    assert checked >= 80  # the sweep must not be vacuous


def test_cross_check_skipped_below_gap_floor():
    problem = tc.generate_ab_alpha(15, 10, 1e-8, seed=0)
    bundle, solution, _ = pipeline(problem)
    with pytest.raises(IllConditionedGap):
        core.check_p(bundle)
    assert tc.residual_diagnostics(problem, bundle, solution).normal_eq_rel_diff is None


def test_check_p_reads_the_top_root_over_the_gap():
    # eps sigma_hat_1^2 / delta, returned where it is at most P_ROUNDING_LIMIT
    bundle, _, _ = pipeline(tc.generate_ab_alpha(50, 10, 0.3, seed=7))
    rounding = core.check_p(bundle)
    assert rounding == EPS * bundle.sigma_hat[0] ** 2 / bundle.delta
    assert 0.0 < rounding <= core.P_ROUNDING_LIMIT
    # the refusal names the quotient and the limit
    blur = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1))
    with pytest.raises(IllConditionedGap, match=r"eps sigma_hat_1\^2/delta=.* > 1e-08"):
        core.check_p(pipeline(blur)[0])


def test_gap_chain_fix_b(fix_b):
    bundle, solution, _ = pipeline(fix_b)
    report = tc.residual_diagnostics(fix_b, bundle, solution)
    assert report.gap_chain_lower == pytest.approx(FB.gap_chain_lower, rel=1e-12)
    assert report.gap_chain_mid == pytest.approx(FB.gap_chain_mid, rel=1e-12)
    assert report.gap_chain_upper == pytest.approx(FB.gap_chain_upper, rel=1e-12)
    assert report.gap_chain_holds


def test_gap_chain_not_applicable_at_x_zero(fix_a):
    bundle, solution, _ = pipeline(fix_a)
    report = tc.residual_diagnostics(fix_a, bundle, solution)
    assert report.gap_chain_holds is None
    assert report.gap_chain_lower is None and report.gap_chain_upper is None


def test_gap_chain_on_generated_problems():
    for problem in seeded_problems():
        bundle, solution, _ = pipeline(problem)
        report = tc.residual_diagnostics(problem, bundle, solution)
        assert solution.norm_x > 0
        assert report.gap_chain_holds


def direct_svds(problem):
    """The two LAPACK SVDs of the data itself, with no QR reduction."""
    return (np.linalg.svd(problem.a_matrix, full_matrices=False),
            np.linalg.svd(problem.augmented(), full_matrices=False))


# tall shapes run dgeqrt, whose R agrees with a direct SVD's factors to rounding only
@pytest.mark.parametrize(
    "shape", [(21, 10), (22, 10), (200, 30), (2000, 100), (3, 1), (60, 1), (600, 150), (4000, 40)]
)
def test_bundle_agrees_with_direct_svds(shape):
    m, n = shape
    problem = tc.generate_ab_alpha(m, n, 0.3, seed=5)
    bundle = tc.svd_bundle(problem)
    (_, sigma_hat, _), (_, sigma, vt_aug) = direct_svds(problem)
    assert bundle.u_aug.shape[0] == (n + 1 if m >= 2 * (n + 1) else m)
    # numpy's layout: the products with V11 round by it
    assert bundle.u_aug.flags.c_contiguous and bundle.v_aug.T.flags.c_contiguous
    np.testing.assert_allclose(bundle.sigma, sigma, rtol=0, atol=1e-14 * sigma[0])
    np.testing.assert_allclose(bundle.sigma_hat, sigma_hat, rtol=0, atol=1e-14 * sigma[0])
    x_direct = -vt_aug[-1, :-1] / vt_aug[-1, -1]
    x = tc.solve_tls(problem, bundle).x
    assert np.linalg.norm(x - x_direct) <= 1e-12 * np.linalg.norm(x_direct)
    # tall: Q rebuilt by the bundle's own dgeqrt and applied by dgemqrt (up to 9.3 eps)
    assert bundle.reconstruction_defect(problem) < 64 * EPS


def test_deblur_bundle_is_the_direct_svds():
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1))
    bundle = tc.svd_bundle(problem)
    _, (u_aug, sigma, vt_aug) = direct_svds(problem)
    sigma_hat = np.linalg.svd(problem.a_matrix, compute_uv=False)
    assert bundle.rows.shape == (problem.m, problem.n + 1)
    for got, want in [(bundle.u_aug, u_aug), (bundle.sigma, sigma), (bundle.v_aug, vt_aug.T)]:
        np.testing.assert_array_equal(got, want)
    # sigma_hat are secular roots, not an SVD of A: equal to rounding
    np.testing.assert_allclose(bundle.sigma_hat, sigma_hat, rtol=0, atol=1e-14 * sigma[0])


@pytest.mark.parametrize("shape", [(60, 1), (200, 30), (2000, 100), (4000, 40), (600, 150)])
def test_bundle_rows_are_the_householder_r(shape):
    # dgeqrt's R against dgeqrf's (numpy's qr): rounding apart, same diagonal signs
    problem = tc.generate_ab_alpha(*shape, 0.3, seed=5)
    aug = problem.augmented()
    r_ref = np.linalg.qr(aug, mode="r")
    rows = tc.svd_bundle(problem).rows
    assert np.abs(rows - r_ref).max() <= 10 * EPS * np.linalg.norm(aug)
    np.testing.assert_array_equal(np.sign(np.diag(rows)), np.sign(np.diag(r_ref)))


def test_a_failed_qr_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(core, "dgeqrt", failed_dgeqrt)
    with pytest.raises(ConvergenceError, match=r"dgeqrt failed \(info=-2\)"):
        tc.svd_bundle(tc.generate_ab_alpha(200, 30, 0.3, seed=4))


B_WEIGHT_CASES = {
    "alpha_200x30": lambda: tc.generate_ab_alpha(200, 30, 0.3, seed=5),
    "alpha_2000x100_1e-4": lambda: tc.generate_ab_alpha(2000, 100, 1e-4, seed=5),
    "deblur_100": lambda: tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=0)),
}


@pytest.mark.parametrize("name", B_WEIGHT_CASES)
def test_b_weight_n_matches_an_svd_of_a(name):
    # measured 6e-15, 1.4e-12 and 1e-9 apart: the deblurring u_hat_n sits in a cluster
    problem = B_WEIGHT_CASES[name]()
    bundle = tc.svd_bundle(problem)
    u_hat = np.linalg.svd(problem.a_matrix, full_matrices=False)[0]
    expected = abs(u_hat[:, -1] @ problem.b_vector)
    assert bundle.roots.b_weight_n() == pytest.approx(expected, rel=1e-8)


def test_b_weight_n_is_zero_where_b_has_no_weight(fix_a):
    # x = 0: every weight deflates, and sigma_hat_n = sigma_n carries none of b
    bundle = tc.svd_bundle(fix_a)
    assert bundle.delta > 0.0
    assert bundle.roots.b_weight_n() == 0.0
    # delta = 0: [A b] = I, so sigma_hat_n = sigma_{n+1}
    bundle = tc.svd_bundle(tc.TlsProblem([[1.0], [0.0]], [0.0, 1.0]))
    assert bundle.delta == 0.0
    assert bundle.roots.b_weight_n() == 0.0


@pytest.mark.parametrize("shape", [(50, 10), (200, 30), (2000, 100), (4000, 40)])
def test_gap_chain_lower_in_reduced_basis(shape):
    problem = tc.generate_ab_alpha(*shape, 0.3, seed=2)
    bundle, solution, _ = pipeline(problem)
    report = tc.residual_diagnostics(problem, bundle, solution)
    u_hat = np.linalg.svd(problem.a_matrix, full_matrices=False)[0]
    expected = abs(u_hat[:, -1] @ problem.b_vector) / (2.0 * solution.norm_x)
    assert report.gap_chain_lower == pytest.approx(expected, rel=1e-10)
    assert report.gap_chain_holds


def test_only_tall_bundles_and_reconstruction_run_a_qr(monkeypatch):
    tall = tc.generate_ab_alpha(200, 30, 0.3, seed=4)
    blur = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1))
    calls = counting_factorizations(monkeypatch)

    def qr_calls():
        return sum(name in ("dgeqrt", "qr") for name, _ in calls)

    for problem, bundle_qr, bundle_calls in [
        (tall, 1, [("dgeqrt", (200, 31)), ("svd", (31, 31))]),
        (blur, 0, [("svd", (100, 85))]),
    ]:
        calls.clear()
        bundle = tc.svd_bundle(problem)
        assert calls == bundle_calls  # one SVD, after one QR when tall
        solution = tc.solve_tls(problem, bundle)
        work = tc.build_spectral_work(problem, bundle, solution)
        tc.svd_condition(work, bundle, solution)
        tc.bounds_report(problem, bundle, solution, work)
        tc.residual_diagnostics(problem, bundle, solution)
        bundle.orthonormality_defect()
        bundle.interlacing_defect()
        assert qr_calls() == bundle_qr
        bundle.reconstruction_defect(problem)
        assert qr_calls() == 2 * bundle_qr



def counting_roots(monkeypatch):
    """Patch core's secular kernel, dlasd4, to log the index of every root it solves."""
    roots = []
    dlasd4 = core.dlasd4

    def counting(i, *args):
        roots.append(i)
        return dlasd4(i, *args)

    monkeypatch.setattr(core, "dlasd4", counting)
    return roots


def test_secular_roots_are_solved_only_where_read(monkeypatch):
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=1)
    roots = counting_roots(monkeypatch)
    bundle = tc.svd_bundle(problem)
    solution = tc.solve_tls(problem, bundle)
    assert roots == [9]  # sigma_hat_n and delta, nothing else
    # each perturbed re-solve of the lab's stacked path takes one root as well
    direction = unit_normals(50, 10, np.random.default_rng(3))
    steps = [(t, False) for t in (1e-3, 1e-5, 1e-7)]
    before = len(roots)
    perturb._ratios(problem, solution, perturb._copying(direction), steps)
    assert roots[before:] == [9, 9, 9]
    roots.clear()
    bundle, solution, work = pipeline(problem)
    assert roots == [9]
    # kappa's secular equation runs on the same kernel, one top root
    work.top_left
    assert roots == [9, 9]
    # svd kappa and every bound: sigma_hat_{n-1} (kappa1, dominance) and sigma_hat_1 (BHM)
    del roots[1:]
    tc.svd_condition(work, bundle, solution)
    tc.bounds_report(problem, bundle, solution, work)
    assert sorted(roots) == [0, 8, 9]
    # the full sweep only through sigma_hat, reusing the cached roots
    np.testing.assert_allclose(bundle.sigma_hat, np.linalg.svd(problem.a_matrix, compute_uv=False),
                               rtol=0, atol=1e-14 * bundle.sigma[0])
    assert sorted(roots) == list(range(10))
    # every reader of a bundle shares one dlasd4 call per root: the gap chain's
    # b_weight_n, baboulin's pole_distances, the bounds and sigma_hat re-solve none
    roots.clear()
    bundle, solution, work = pipeline(problem)
    tc.residual_diagnostics(problem, bundle, solution)
    tc.svd_condition(work, bundle, solution)
    tc.baboulin_condition(work, bundle, solution)
    tc.bounds_report(problem, bundle, solution, work)
    bundle.sigma_hat
    # each sigma_hat root once, and kappa's equation once, at its top root n - 1
    assert sorted(roots) == [*range(10), 9]


def test_a_failed_secular_root_raises_convergence_error(monkeypatch):
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=1)
    bundle, solution, work = pipeline(problem)
    monkeypatch.setattr(core, "dlasd4", failed_dlasd4)
    with pytest.raises(ConvergenceError, match="info=1"):
        tc.svd_bundle(problem)
    with pytest.raises(ConvergenceError, match="info=1"):
        tc.svd_condition(work, bundle, solution)


def test_a_failed_svd_raises_convergence_error(monkeypatch):
    tall = tc.generate_ab_alpha(200, 30, 0.3, seed=4)
    blur = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1))
    monkeypatch.setattr(np.linalg, "svd", failed_svd)
    for problem in (tall, blur):
        with pytest.raises(ConvergenceError, match=r"dgesdd failed \(SVD did not converge\)"):
            tc.svd_bundle(problem)


GAP_CHAIN_CASES = {
    # the lower end meets the gap to about 8 digits, within the rounding of eps sigma_1
    **{f"deblur_{m}_s{seed}": (lambda m=m, seed=seed: tc.kamm_nagy_problem(
        tc.KammNagyConfig(m=m, seed=seed))) for m in (100, 300, 500) for seed in (0, 1)},
    # the gap is below eps sigma_1
    "alpha_15x10_1e-8": lambda: tc.generate_ab_alpha(15, 10, 1e-8, seed=0),
    "alpha_60x10_1e-8": lambda: tc.generate_ab_alpha(60, 10, 1e-8, seed=0),
}


@pytest.mark.parametrize("name", GAP_CHAIN_CASES)
def test_gap_chain_holds_within_rounding(name):
    problem = GAP_CHAIN_CASES[name]()
    bundle = tc.svd_bundle(problem)
    report = tc.residual_diagnostics(problem, bundle, tc.solve_tls(problem, bundle))
    assert report.gap_chain_holds


def test_gap_chain_slack_is_negligible_at_a_clear_gap():
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=0)
    bundle = tc.svd_bundle(problem)
    report = tc.residual_diagnostics(problem, bundle, tc.solve_tls(problem, bundle))
    assert 4.0 * EPS * bundle.sigma[0] < 1e-12 * report.gap_chain_mid
    assert report.gap_chain_holds


def x_zero_problem():
    """A^T b = 0: x = 0, so v = e_{n+1}, every other weight is zero and sigma_hat = sigma[:n]."""
    return tc.TlsProblem(np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0], [0.0, 0.0]]),
                         np.array([0.0, 0.0, 1.0, 0.0]))


DEFLATION_CASES = {
    # name: (problem, error solve_tls raises or None)
    "tie_5x3": (tie_problem, None),
    "tie_5x3_weighted": (lambda: tie_problem((0.3, 0.2, 1.0, 1.0, 0.5)), None),
    "tie_weighted_6x3": (tied_weighted_problem, None),
    "x_zero": (x_zero_problem, None),
    "n1_fix_b": (lambda: tc.TlsProblem([[1.0], [0.0]], [1.0, 1.0]), None),
    "n1_60x1": (lambda: tc.generate_ab_alpha(60, 1, 0.3, seed=2), None),
    "m_n_plus_1": (lambda: tc.generate_ab_alpha(6, 5, 0.3, seed=2), None),
    "orthogonal_2x1": (lambda: tc.TlsProblem([[1.0], [0.0]], [0.0, 1.0]), NoUniqueSolution),
    "orthogonal_5x3": (lambda: tc.TlsProblem(2.0 * np.eye(5)[:, :3], 2.0 * np.eye(5)[:, 3]),
                       NoUniqueSolution),
    "b_in_range_2x1": (lambda: tc.TlsProblem([[1.0], [0.0]], [2.0, 0.0]), TrivialProblem),
    "b_in_range_4x2": (lambda: tc.TlsProblem(np.eye(4)[:, :2] * [3.0, 2.0], [1.0, 2.0, 0.0, 0.0]),
                       TrivialProblem),
}


@pytest.mark.parametrize("name", DEFLATION_CASES)
def test_deflated_secular_spectrum(name):
    make, error = DEFLATION_CASES[name]
    problem = make()
    bundle = tc.svd_bundle(problem)
    sigma_hat = np.linalg.svd(problem.a_matrix, compute_uv=False)
    np.testing.assert_allclose(bundle.sigma_hat, sigma_hat, rtol=0, atol=1e-14 * bundle.sigma[0])
    assert bundle.sigma_hat_n == bundle.sigma_hat[-1]
    # the gap decision of an SVD of A
    assert classify(bundle).gap_ok == (bundle.sigma[-1] < sigma_hat[-1])
    if error is None:
        tc.solve_tls(problem, bundle)
    else:
        with pytest.raises(error):
            tc.solve_tls(problem, bundle)


def test_x_zero_deflates_to_the_leading_singular_values():
    bundle = tc.svd_bundle(x_zero_problem())
    np.testing.assert_array_equal(bundle.sigma_hat, bundle.sigma[:-1])
    sigma_n, sigma_last = bundle.sigma[-2:]
    assert bundle.delta == pytest.approx((sigma_n - sigma_last) * (sigma_n + sigma_last), rel=1e-15, abs=0)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("scale", [1e-2, 1e-4, 1e-8, 1e-84])
def test_sigma_hat_when_b_outweighs_a(n, scale):
    # ||b|| >> ||A||: sigma_hat^2 sit far below sigma_1^2, where the unshifted
    # secular equation Sigma^2 - w w^T loses them against its zero root (at
    # scale 1e-2 by 600 eps sigma_1); the form centred on sigma_{n+1} keeps
    # them to the SVD's eps sigma_1, and at 1e-84 stays in dlaed4's range
    rng = np.random.default_rng(n)
    for _ in range(10):
        problem = tc.TlsProblem(scale * rng.standard_normal((n + 4, n)), rng.standard_normal(n + 4))
        bundle = tc.svd_bundle(problem)
        sigma_hat = np.linalg.svd(problem.a_matrix, compute_uv=False)
        atol = 32 * EPS * bundle.sigma[0]
        np.testing.assert_allclose(bundle.sigma_hat, sigma_hat, rtol=0, atol=atol)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_a_scale_whose_square_overflows_is_refused(scale):
    # fix_b scaled: sigma_1^2, and so delta, is past float64's range
    problem = tc.TlsProblem([[scale], [0.0]], [scale, scale])
    with pytest.raises(ShapeError, match="overflows float64"):
        tc.svd_bundle(problem)
    # and so is a perturbed re-solve of fix_b that takes it there
    with pytest.raises(ShapeError, match="overflows float64"):
        tc.monte_carlo_validate(tc.TlsProblem([[1.0], [0.0]], [1.0, 1.0]), trials=1, t=scale)


def scaled_alpha_problem():
    """A 30x8 alpha problem scaled to sigma_1 = 0.5 _SCALE_LIMIT, and the problem itself."""
    problem = tc.generate_ab_alpha(30, 8, 0.3, seed=1)
    c = 0.5 * core._SCALE_LIMIT / tc.svd_bundle(problem).sigma[0]
    return tc.TlsProblem(c * problem.a_matrix, c * problem.b_vector), problem


def test_a_scale_below_the_overflow_limit_still_solves():
    scale = 1e150
    problem = tc.TlsProblem([[scale], [0.0]], [scale, scale])
    bundle = tc.svd_bundle(problem)
    solution = tc.solve_tls(problem, bundle)
    np.testing.assert_allclose(solution.x, [FB.x], rtol=1e-15)
    assert bundle.delta == pytest.approx((FB.sigma_hat - FB.sig2_sq) * scale**2, rel=1e-14)
    # the identity residuals are formed on the data scaled by 1/sigma_1
    for problem, unscaled in [(problem, tc.TlsProblem([[1.0], [0.0]], [1.0, 1.0])),
                              scaled_alpha_problem()]:
        bundle = tc.svd_bundle(problem)
        assert bundle.sigma[0] <= 0.5 * core._SCALE_LIMIT * (1 + 1e-14)
        solution = tc.solve_tls(problem, bundle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = tc.residual_diagnostics(problem, bundle, solution)
        values = [report.optimal_value, report.gradient, report.singular_vector,
                  report.normal_eq_rel_diff]
        assert np.isfinite(values).all() and max(values) <= 1e-13
        assert report.gap_chain_holds
        # the quotients do not depend on scale
        small = tc.svd_bundle(unscaled)
        reference = tc.residual_diagnostics(unscaled, small, tc.solve_tls(unscaled, small))
        assert report.gap_chain_lower / report.gap_chain_upper == pytest.approx(
            reference.gap_chain_lower / reference.gap_chain_upper, rel=1e-12, abs=0)


def test_tiny_weight_of_the_last_pole_still_decides_the_gap():
    # zero-noise deblurring: b = ones is orthogonal to the u_hat_n of A's
    # symmetric kernel, so the exact gap is 0 and alpha ~ 1e-17. sigma_{n+1}'s
    # weight is not deflated: delta, of its square's order, is a rounding-level
    # positive gap (as an SVD of A reads it), and the solver refuses the
    # vanishing last entry of v_{n+1}, so the generator refuses the problem
    problem = zero_noise_deblur()
    bundle = tc.svd_bundle(problem)
    assert 0.0 < bundle.delta < 1e-30 * bundle.sigma[0] ** 2
    assert classify(bundle).gap_ok and classify(bundle).nontrivial
    with pytest.raises(DegenerateVector):
        tc.solve_tls(problem, bundle)
    with pytest.raises(GapFailure):
        tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, gamma=0.0, seed=1))


def test_a_run_of_tied_poles_is_walked_without_recursion():
    # [A b] = 2 I: every sigma ties, so each sigma_{n+1} pole in turn is out of
    # the centred form's range; n is past Python's recursion limit per pole
    n = 600
    problem = tc.TlsProblem(2.0 * np.eye(n + 1)[:, :n], 2.0 * np.eye(n + 1)[:, n])
    bundle = tc.svd_bundle(problem)
    assert bundle.delta == 0.0
    np.testing.assert_allclose(bundle.sigma_hat, 2.0, rtol=1e-15)
    assert bundle.roots.at(0)[1] == 0.0
    with pytest.raises(NoUniqueSolution):
        tc.solve_tls(problem, bundle)
