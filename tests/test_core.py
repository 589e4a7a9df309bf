import inspect
import re
import sys
import warnings

import numpy as np
import pytest

import tlscond as tc
from scipy.linalg import cython_lapack
from conftest import FixBClosedForms as FB
from conftest import (
    counting_factorizations,
    dense_copies,
    failed_dgeqrt,
    failed_dlasd4,
    failed_dstein,
    failed_singular_values,
    failed_svd,
    interlacing_defect,
    lab_ratios,
    pipeline,
    sigma_hat_of,
    signed_v,
    tie_problem,
    tied_weighted_problem,
    unit_normals,
    zero_noise_deblur,
)
from tlscond import core, generators
from tlscond.errors import (
    ConvergenceError,
    DegenerateVector,
    GapFailure,
    IllConditionedGap,
    NoUniqueSolution,
    ShapeError,
    TlsCondError,
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
    np.testing.assert_allclose(sigma_hat_of(bundle), [2.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(bundle.sigma, [2.0, 1.0], rtol=0, atol=1e-15)


def test_fix_b_singular_values(fix_b):
    bundle = tc.svd_bundle(fix_b)
    np.testing.assert_allclose(bundle.sigma**2, [FB.sig1_sq, FB.sig2_sq], rtol=1e-14)
    np.testing.assert_allclose(sigma_hat_of(bundle), [1.0], rtol=1e-15)


def orthonormality_defect(bundle):
    """Frobenius deviation of the right factor V of [A b] from orthonormal."""
    v = signed_v(bundle)
    return np.linalg.norm(v.T @ v - np.eye(bundle.n + 1))


def gram_defect(problem, bundle):
    """||W^T W - Sigma^2||_F / sigma_1^2 for W = [A b] V: the SVD checked without U.

    With V orthonormal this is 0 exactly when [A b]^T [A b] = V Sigma^2 V^T,
    so W's columns are the sigma_i u_i.
    """
    w = problem.augmented() @ signed_v(bundle)
    return np.linalg.norm(w.T @ w - np.diag(bundle.sigma**2)) / bundle.sigma[0] ** 2


def test_bundle_defects_small():
    for problem in seeded_problems()[:4]:
        bundle = tc.svd_bundle(problem)
        assert orthonormality_defect(bundle) < 1e-12 * max(problem.m, problem.n)
        assert gram_defect(problem, bundle) < 1e-12
        assert interlacing_defect(bundle) < 1e-12


def test_interlacing_every_bundle():
    for problem in seeded_problems():
        bundle = tc.svd_bundle(problem)
        assert interlacing_defect(bundle) < 1e-12


def check_gap(bundle):
    """The solver's gap rule on a bundle, also where solve_tls raises after it."""
    return core.check_gap(bundle.sigma, bundle.sigma_hat_n, bundle.delta)


def test_gap_classification():
    _, solution, _ = pipeline(tc.TlsProblem([[2.0], [0.0]], [0.0, 1.0]))
    diag = solution.gap
    assert diag.rel_gap == pytest.approx(0.5)
    assert diag.ratio_sigma_n <= 1.0 and diag.ratio_sigma_hat_n <= 1.0 + 1e-14

    # b in range(A): sigma_{n+1} = 0 (zero row keeps the zero exact); the gap
    # holds, and the solver refuses the trivial problem after it
    trivial = tc.TlsProblem([[1.0], [0.0]], [2.0, 0.0])
    bundle = tc.svd_bundle(trivial)
    check_gap(bundle)
    with pytest.raises(TrivialProblem):
        tc.solve_tls(trivial, bundle)

    # sigma_hat_n = sigma_{n+1}: [A b] orthogonal columns of equal norm
    tied = tc.TlsProblem([[1.0], [0.0]], [0.0, 1.0])
    bundle = tc.svd_bundle(tied)
    assert bundle.delta == 0.0
    with pytest.raises(NoUniqueSolution, match=r"sigma_\{n\+1\}=1.000000e\+00 >= sigma_hat_n"):
        check_gap(bundle)


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
    assert rounding == EPS * sigma_hat_of(bundle)[0] ** 2 / bundle.delta
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
    assert bundle.rows.shape[0] == (n + 1 if m >= 2 * (n + 1) else m)
    # numpy's layout: the products with V11 round by it
    assert core.right_factor(bundle.rows).flags.c_contiguous
    np.testing.assert_allclose(bundle.sigma, sigma, rtol=0, atol=1e-14 * sigma[0])
    np.testing.assert_allclose(sigma_hat_of(bundle), sigma_hat, rtol=0, atol=1e-14 * sigma[0])
    x_direct = -vt_aug[-1, :-1] / vt_aug[-1, -1]
    x = tc.solve_tls(problem, bundle).x
    assert np.linalg.norm(x - x_direct) <= 1e-12 * np.linalg.norm(x_direct)
    # V and sigma against [A b] itself, with no U (up to 52 eps)
    assert gram_defect(problem, bundle) < 256 * EPS


def test_deblur_bundle_is_the_direct_svds():
    # n + 1 = 85 is past V_ONLY_WIDTH: the bundle factors [b A] for sigma, b's
    # row of V and v_{n+1} alone, so x agrees with numpy's dgesdd on [A b]
    # only within the oracle bar 4 eps / rel_gap (5.6e-8 here): both are that
    # close to the exact x, 8.0e-10 apart, and numpy's x is 8.5e-10 off a
    # 30-digit x, the bundle's 4.6e-11
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1))
    assert problem.n + 1 >= core.V_ONLY_WIDTH
    bundle = tc.svd_bundle(problem)
    _, (_, sigma, vt_aug) = direct_svds(problem)
    sigma_hat = np.linalg.svd(problem.a_matrix, compute_uv=False)
    assert bundle.rows.shape == (problem.m, problem.n + 1)
    np.testing.assert_allclose(bundle.sigma, sigma, rtol=0, atol=1e-14 * sigma[0])
    x_direct = -vt_aug[-1, :-1] / vt_aug[-1, -1]
    solution = tc.solve_tls(problem, bundle)
    bar = 4.0 * EPS / min(solution.gap.rel_gap, 1.0)
    assert np.linalg.norm(solution.x - x_direct) <= bar * np.linalg.norm(x_direct)
    # sigma_hat are secular roots, not an SVD of A: equal to rounding
    np.testing.assert_allclose(sigma_hat_of(bundle), sigma_hat, rtol=0, atol=1e-14 * sigma[0])
    # the whole V, formed on request, in numpy's layout; signed as the few
    # values are, it gives them to rounding
    assert core.right_factor(bundle.rows).flags.c_contiguous
    v = signed_v(bundle)
    np.testing.assert_allclose(v[-1], bundle.b_row, rtol=0, atol=1e-13)
    np.testing.assert_allclose(v[:, -1], bundle.v_last, rtol=0, atol=1e-11)


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


def test_only_tall_bundles_run_a_qr(monkeypatch):
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
        orthonormality_defect(bundle)
        interlacing_defect(bundle)
        gram_defect(problem, bundle)  # reads [A b] itself: no Q is rebuilt
        assert qr_calls() == bundle_qr



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
    lab_ratios(problem, direction, steps)
    assert roots[before:] == [9] + [9, 9, 9]  # lab_ratios' own bundle, then the re-solves
    roots.clear()
    bundle, solution, work = pipeline(problem)
    assert roots == [9]
    # kappa's secular equation runs on the same kernel, one top root
    work.top_norm
    assert roots == [9, 9]
    # svd kappa and every bound: sigma_hat_{n-1} (kappa1, dominance) and sigma_hat_1 (BHM)
    del roots[1:]
    tc.svd_condition(work, bundle, solution)
    tc.bounds_report(problem, bundle, solution, work)
    assert sorted(roots) == [0, 8, 9]
    # the full sweep only through sigma_hat, reusing the cached roots
    np.testing.assert_allclose(sigma_hat_of(bundle),
                               np.linalg.svd(problem.a_matrix, compute_uv=False),
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
    sigma_hat_of(bundle)
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
    # the tall bundle's 31-wide R goes through numpy's dgesdd, the 85-wide
    # deblurring block through few_value_svd: dgebrd, dlasda, dstebz, dstein
    monkeypatch.setattr(np.linalg, "svd", failed_svd)
    with pytest.raises(ConvergenceError, match=r"dgesdd failed \(SVD did not converge\)"):
        tc.svd_bundle(tall)
    for name, failed in [("dlasda", failed_singular_values), ("dstein", failed_dstein)]:
        with monkeypatch.context() as patch:
            patch.setattr(core, name, failed)
            with pytest.raises(ConvergenceError, match=rf"{name} failed \(info=1\)"):
                tc.svd_bundle(blur)
    # the whole V, formed by numpy's dgesdd at every width where the lab reads it
    bundle = tc.svd_bundle(blur)
    solution = tc.solve_tls(blur, bundle)
    with pytest.raises(ConvergenceError, match=r"dgesdd failed \(SVD did not converge\)"):
        tc.worst_direction(bundle, blur, solution)


@pytest.mark.parametrize("shape", [(40, 40), (57, 41), (100, 85)])
def test_the_wide_bundle_forms_the_direct_v_on_demand(shape):
    a = np.random.default_rng(7).standard_normal(shape)
    bundle = tc.svd_bundle(tc.TlsProblem(a[:, :-1], a[:, -1]))
    _, sigma_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
    np.testing.assert_allclose(bundle.sigma, sigma_ref, rtol=0,
                               atol=4 * shape[1] * EPS * sigma_ref[0])
    vt = core.right_factor(bundle.rows)
    # each row of V^T to rounding (the spectrum is simple), up to its sign
    np.testing.assert_allclose(np.abs(np.sum(vt * vt_ref, axis=1)), 1.0, rtol=0, atol=1e-10)
    # and with the signs of the few values: V's last row and last column
    v = signed_v(bundle)
    np.testing.assert_allclose(v[-1], bundle.b_row, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v[:, -1], bundle.v_last, rtol=0, atol=1e-12)
    # a stack of wide blocks: each block's values are those of its own call
    own = core.block_svd(a)
    np.testing.assert_allclose(np.abs(own[1]), np.abs(vt_ref[:, -1]), rtol=0, atol=1e-12)
    assert abs(own[2] @ vt_ref[-1]) == pytest.approx(1.0, abs=1e-12)
    assert own[2][-1] * own[1][-1] >= 0.0
    stacked = core.block_svd(np.stack([2.0 * a, a]))
    for values, own_values in zip(stacked, own):
        np.testing.assert_array_equal(values[1], own_values)


def test_a_wide_bundle_keeps_one_dense_copy():
    # rows, the Fortran copy of [A b]; dgebrd's copy lives only inside the
    # factorization (2.04 copies when the bundle kept it)
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=500, seed=0))
    bundle, _, kept = dense_copies(lambda: tc.svd_bundle(problem), problem.m, problem.n + 1)
    assert kept <= 1.1
    assert bundle.rows.shape == (problem.m, problem.n + 1) and not bundle.rows.flags.writeable


@pytest.mark.parametrize("shape", [(50, 11), (50, 45)])
def test_block_svd_scales_a_block_by_a_power_of_two_exactly(shape):
    # every block is factored scaled into [1/2, 1), narrow (numpy's dgesdd)
    # and wide (few_value_svd) alike: the values of the unscaled block, bit
    # for bit, sigma scaled, alone and in a stack
    a = np.random.default_rng(3).standard_normal(shape)
    sigma, b_row, v_last = core.block_svd(a)
    for exponent in (-600, 500):
        scaled = np.ldexp(a, exponent)
        for values in (core.block_svd(scaled),
                       [part[1] for part in core.block_svd(np.stack([a, scaled]))]):
            np.testing.assert_array_equal(values[0], np.ldexp(sigma, exponent))
            np.testing.assert_array_equal(values[1], b_row)
            np.testing.assert_array_equal(values[2], v_last)
    with pytest.raises(ShapeError, match="entries must be finite"):
        core.block_svd(np.where(a > 2.5, np.nan, a))


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
    np.testing.assert_allclose(sigma_hat_of(bundle), sigma_hat, rtol=0,
                               atol=1e-14 * bundle.sigma[0])
    assert bundle.sigma_hat_n == sigma_hat_of(bundle)[-1]
    # the gap decision of an SVD of A
    if bundle.sigma[-1] < sigma_hat[-1]:
        check_gap(bundle)
    else:
        with pytest.raises(NoUniqueSolution):
            check_gap(bundle)
    if error is None:
        tc.solve_tls(problem, bundle)
    else:
        with pytest.raises(error):
            tc.solve_tls(problem, bundle)


def test_x_zero_deflates_to_the_leading_singular_values():
    bundle = tc.svd_bundle(x_zero_problem())
    np.testing.assert_array_equal(sigma_hat_of(bundle), bundle.sigma[:-1])
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
        np.testing.assert_allclose(sigma_hat_of(bundle), sigma_hat, rtol=0, atol=atol)


@pytest.mark.parametrize("scale", [1e160, 1e300, 1.7e308])
def test_a_scale_whose_square_overflows_is_refused(scale):
    # fix_b scaled: sigma_1^2, and so delta, is past float64's range
    problem = tc.TlsProblem([[scale], [0.0]], [scale, scale])
    with pytest.raises(ShapeError, match="overflows float64"):
        tc.svd_bundle(problem)
    # and so is a perturbed re-solve of fix_b that takes it there
    with pytest.raises(ShapeError, match="overflows float64"):
        tc.monte_carlo_validate(tc.TlsProblem([[1.0], [0.0]], [1.0, 1.0]), trials=1, t=scale)


@pytest.mark.parametrize("m, seed, k", [(60, 1, -490), (40, 0, -520), (40, 0, -530)])
def test_a_gap_whose_square_underflows_is_refused(m, seed, k):
    # the scaled gap holds, but delta = sigma_hat_n^2 - sigma_{n+1}^2 is below the
    # smallest normal float, where kappa's equation overflows, the gap reads 0
    # or rel_gap's denominator underflows to 0
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=m, seed=seed))
    scaled = tc.TlsProblem(np.ldexp(problem.a_matrix, k), np.ldexp(problem.b_vector, k))
    with pytest.raises(ShapeError, match="underflows float64"):
        tc.svd_bundle(scaled)


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
    check_gap(bundle)
    assert bundle.sigma[-1] > 0.0
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
    np.testing.assert_allclose(sigma_hat_of(bundle), 2.0, rtol=1e-15)
    assert bundle.roots.at(0)[1] == 0.0
    with pytest.raises(NoUniqueSolution):
        tc.solve_tls(problem, bundle)


def full_svd_calls(monkeypatch):
    """Patch core.full_svd to log (the name of its caller, the V^T it returns) per call."""
    calls = []
    kernel = core.full_svd

    def logging(rows):
        sigma, vt = kernel(rows)
        calls.append((sys._getframe(1).f_code.co_name, vt))
        return sigma, vt

    monkeypatch.setattr(core, "full_svd", logging)
    return calls


def test_the_pipeline_forms_no_v(monkeypatch):
    # the solver, every kappa route, the bounds and the checks read sigma,
    # b's row of V and v_{n+1} alone: no full_svd runs after the bundle
    calls = full_svd_calls(monkeypatch)
    for shape in [(30, 8), (80, 45)]:  # below and past V_ONLY_WIDTH
        problem = tc.generate_ab_alpha(*shape, 0.3, seed=2)
        bundle = tc.svd_bundle(problem)
        calls.clear()
        solution = tc.solve_tls(problem, bundle)
        work = tc.build_spectral_work(problem, bundle, solution)
        tc.svd_condition(work, bundle, solution)
        tc.bounds_report(problem, bundle, solution, work)
        tc.residual_diagnostics(problem, bundle, solution)
        tc.baboulin_condition(work, bundle, solution)
        tc.cholesky_condition(work, problem, bundle, solution)
        tc.kron_condition(tc.build_k_matrix(problem, bundle, solution), problem, solution)
        assert calls == []
        # the lab's worst direction forms V once per validate, for the base
        # problem; its re-solves go through block_svd, as svd_bundle does,
        # and form no V
        tc.monte_carlo_validate(problem, trials=5)
        callers = [name for name, _ in calls]
        assert callers.count("right_factor") == 1
        assert set(callers) <= {"right_factor", "block_svd"}


@pytest.mark.parametrize("shape", [(30, 8), (200, 30), (25, 20)])
def test_a_narrow_right_factor_is_the_vt_of_the_bundles_own_call(monkeypatch, shape):
    # below V_ONLY_WIDTH, right_factor repeats block_svd's dgesdd call on the
    # same scaled rows: the same bits, b_row and v_last included
    problem = tc.generate_ab_alpha(*shape, 0.3, seed=1)
    assert problem.n + 1 < core.V_ONLY_WIDTH
    calls = full_svd_calls(monkeypatch)
    bundle = tc.svd_bundle(problem)
    vt = core.right_factor(bundle.rows)
    (_, own), (_, again) = calls
    assert vt.flags.c_contiguous
    assert vt.tobytes() == own.tobytes() == again.tobytes()
    assert bundle.b_row.tobytes() == own[:, -1].tobytes()
    assert bundle.v_last.tobytes() == own[-1].tobytes()


def wide_edge_problems():
    """60 x 44 problems with a degenerate b or A, and one with tied sigma."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((60, 44)), rng.standard_normal(60)
    q = np.linalg.qr(a)[0]
    sigma = np.linspace(3.0, 1.0, 45)
    sigma[5], sigma[-1] = sigma[6], 0.5 * sigma[-2]  # sigma_6 = sigma_7
    u = np.linalg.qr(rng.standard_normal((60, 45)))[0]
    tied = (u * sigma) @ generators.haar_orthogonal(45, rng).T
    return {
        "b = 0": (a, np.zeros(60)),
        "A^T b = 0": (a, 0.1 * (b - q @ (q.T @ b))),
        "b in range(A)": (a, a @ rng.standard_normal(44)),
        "repeated column": (np.column_stack([a[:, :-1], a[:, 0]]), b),
        "tied sigma": (tied[:, :-1], tied[:, -1]),
    }


@pytest.mark.parametrize("name", ["b = 0", "A^T b = 0", "b in range(A)", "repeated column",
                                  "tied sigma"])
def test_wide_edge_shapes_give_the_narrow_x_or_a_typed_error(name, monkeypatch):
    problem = tc.TlsProblem(*wide_edge_problems()[name])
    aug = problem.augmented()

    def solved():
        bundle = tc.svd_bundle(problem)
        # v_{n+1} is a unit right singular vector at sigma_{n+1}, solvable or not
        assert np.linalg.norm(bundle.v_last) == pytest.approx(1.0, abs=1e-14)
        residual = np.linalg.norm(aug @ bundle.v_last) - bundle.sigma[-1]
        assert abs(residual) <= 64 * EPS * bundle.sigma[0]
        try:
            return tc.solve_tls(problem, bundle).x
        except TlsCondError as exc:
            return exc

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = solved()
        monkeypatch.setattr(core, "V_ONLY_WIDTH", problem.n + 2)  # numpy's narrow route
        narrow = solved()
    if isinstance(wide, Exception):
        # typed refusals: TrivialProblem at b = 0 (sigma_{n+1} is 0 exactly here,
        # not in dgesdd; solve_tls refuses b = 0 on both routes), DegenerateVector
        # on both routes for the repeated column
        return
    assert not isinstance(narrow, Exception)
    assert np.linalg.norm(wide - narrow) <= 1e-12 * max(1.0, np.linalg.norm(narrow))


def test_a_split_tridiagonal_takes_v_from_the_whole_factor(monkeypatch):
    # b = 0: B's first diagonal entry is 0, so the Golub-Kahan tridiagonal
    # splits and its eigenvalue k+1 is the other zero, whose vector has no
    # v-half; v_{n+1} comes from full_svd of the same scaled block: e_{n+1}
    a = wide_edge_problems()["b = 0"][0]
    calls = full_svd_calls(monkeypatch)
    sigma, b_row, v_last = core.block_svd(np.column_stack([a, np.zeros(60)]))
    assert [name for name, _ in calls] == ["few_value_svd"]
    assert sigma[-1] == 0.0
    np.testing.assert_allclose(np.abs(v_last), np.eye(45)[-1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(60, 44), (45, 44), (200, 50)])
def test_b_zero_is_a_trivial_problem_on_both_width_routes(shape, monkeypatch):
    # few_value_svd (the wide route; on R past the QR crossover at 200x50)
    # gives sigma_{n+1} = 0 exactly, numpy's dgesdd about eps sigma_1: the
    # solver refuses b = 0 on both
    problem = tc.TlsProblem(np.random.default_rng(0).standard_normal(shape), np.zeros(shape[0]))
    assert problem.n + 1 >= core.V_ONLY_WIDTH
    assert tc.svd_bundle(problem).sigma[-1] == 0.0
    with pytest.raises(TrivialProblem):
        tc.solve_tls(problem, tc.svd_bundle(problem))
    monkeypatch.setattr(core, "V_ONLY_WIDTH", problem.n + 2)  # numpy's narrow route
    with pytest.raises(TrivialProblem):
        tc.solve_tls(problem, tc.svd_bundle(problem))


def deblur_block(m):
    return tc.kamm_nagy_problem(tc.KammNagyConfig(m=m, seed=1)).augmented()


def tall_row_block(m, n, alpha):
    return core.row_block(np.asfortranarray(tc.generate_ab_alpha(m, n, alpha, seed=1).augmented()))


FIRST_ROW_BLOCKS = {
    "deblur_m100": lambda: deblur_block(100),
    "deblur_m300": lambda: deblur_block(300),
    "deblur_m500": lambda: deblur_block(500),
    "alpha_2000x100_1e-2": lambda: tall_row_block(2000, 100, 1e-2),
    "alpha_2000x100_1e-8": lambda: tall_row_block(2000, 100, 1e-8),
    # sigma_44 = sigma_45 exactly, as in the tied-gap FOUND of CHANGES.md
    "tied_60x45": lambda: tied_weighted_problem(0, np.append(np.linspace(3.0, 1.0, 44), 1.0),
                                                60).augmented(),
    "tied_inside_60x45": lambda: np.column_stack(wide_edge_problems()["tied sigma"]),
    "zero_noise_deblur_m100": lambda: zero_noise_deblur(100).augmented(),
    "v_only_width": lambda: np.random.default_rng(5).standard_normal((57, core.V_ONLY_WIDTH)),
    "b = 0": lambda: np.column_stack([wide_edge_problems()["b = 0"][0], np.zeros(60)]),
}


@pytest.mark.parametrize("name", FIRST_ROW_BLOCKS)
def test_first_row_is_b_row_of_the_whole_v(name):
    # dlasda's sigma and b's row of V against V from numpy's dgesdd of the
    # same scaled block (measured: sigma within 12 eps sigma_1, on
    # tied_inside_60x45; b's weight within 4.1e-13, on alpha_2000x100_1e-2)
    block = FIRST_ROW_BLOCKS[name]()
    exponent = int(core._scale_exponent(block))
    sigma, b_row = core.Bidiagonal(block, exponent).first_row()
    sigma_ref, vt = core.full_svd(np.ldexp(block, exponent))
    assert (np.diff(sigma) <= 0.0).all()
    np.testing.assert_allclose(sigma, sigma_ref, rtol=0, atol=16 * EPS * sigma_ref[0])
    # tied values share b's weight only as a group: compare it per cluster
    cluster = np.concatenate([[0], np.cumsum(-np.diff(sigma_ref) > 1e-10 * sigma_ref[0])])
    weight = lambda row: np.sqrt(np.bincount(cluster, row * row))
    np.testing.assert_allclose(weight(b_row), weight(vt[:, -1]), rtol=0, atol=1e-12)


def test_the_few_value_kernel_is_past_dlasdas_leaf_size():
    # dlasda leaves VF, b's row of V, in its work only for more than SMLSIZ
    # rows; at b = 0 it takes k - 1 rows
    assert core.V_ONLY_WIDTH > core.SMLSIZ + 1


def test_every_routine_core_binds_is_exported_by_cython_lapack():
    bound = set(re.findall(r'_cython_lapack\("(\w+)"', inspect.getsource(core)))
    assert {"dgebrd", "dlasda", "dormbr"} <= bound
    assert bound <= set(cython_lapack.__pyx_capi__), bound - set(cython_lapack.__pyx_capi__)
