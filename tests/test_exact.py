import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import tlscond as tc
from conftest import FixBClosedForms as FB
from conftest import (
    counting_factorizations,
    k_of,
    pipeline,
    signed_v,
    tie_problem,
    tied_weighted_problem,
)
from tlscond import core, exact
from tlscond.cli import main
from tlscond.errors import IllConditionedGap, NotApplicable, ShapeError, TrivialProblem

EPS = np.finfo(float).eps


def fd_jacobian(problem, step=1e-7):
    """Central-difference Jacobian of the solution map, column by column.

    Independent oracle for the first-order map: each of the m(n+1) stacked
    data coordinates is perturbed through the full SVD solver.
    """
    m, n = problem.m, problem.n
    aug = problem.augmented()
    scale = step * np.linalg.norm(aug)
    cols = []
    for j in range(m * (n + 1)):
        bumped = np.zeros(m * (n + 1))
        bumped[j] = scale
        delta = bumped.reshape((m, n + 1), order="F")
        plus = tc.TlsProblem(aug[:, :n] + delta[:, :n], aug[:, n] + delta[:, n])
        minus = tc.TlsProblem(aug[:, :n] - delta[:, :n], aug[:, n] - delta[:, n])
        x_plus = tc.solve_tls(plus, tc.svd_bundle(plus)).x
        x_minus = tc.solve_tls(minus, tc.svd_bundle(minus)).x
        cols.append((x_plus - x_minus) / (2.0 * scale))
    return np.column_stack(cols)


def test_fix_a_k_matrix_exact(fix_a):
    k_matrix = k_of(fix_a)
    np.testing.assert_allclose(
        k_matrix, [[0.0, 1.0 / 3.0, 2.0 / 3.0, 0.0]], rtol=0, atol=1e-14
    )
    assert np.linalg.norm(k_matrix, 2) == pytest.approx(np.sqrt(5) / 3, rel=1e-14, abs=0)


def test_k_matrix_shape():
    problem = tc.generate_ab_alpha(5, 3, 0.5, seed=2)
    assert k_of(problem).shape == (3, 20)


def test_k_matrix_against_finite_differences(fix_b):
    np.testing.assert_allclose(k_of(fix_b), fd_jacobian(fix_b), rtol=0, atol=1e-6)

    problem = tc.generate_ab_alpha(8, 3, 0.4, seed=5)
    fd = fd_jacobian(problem)
    assert np.linalg.norm(k_of(problem) - fd) <= 1e-5 * np.linalg.norm(fd)


def test_fix_a_all_formulas(fix_a):
    bundle, solution, work = pipeline(fix_a)
    expected = np.sqrt(5) / 3
    for estimate in (
        tc.kron_condition(tc.build_k_matrix(fix_a, bundle, solution), fix_a, solution),
        tc.cholesky_condition(work, fix_a, bundle, solution),
        tc.svd_condition(work, bundle, solution),
        tc.baboulin_condition(work, bundle, solution),
    ):
        assert estimate.kappa_abs == pytest.approx(expected, rel=1e-12)
        assert estimate.kappa_rel is None  # x = 0


def test_fix_b_formulas_closed_form(fix_b):
    bundle, solution, work = pipeline(fix_b)
    estimates = {
        "kronecker": tc.kron_condition(
            tc.build_k_matrix(fix_b, bundle, solution), fix_b, solution
        ),
        "cholesky": tc.cholesky_condition(work, fix_b, bundle, solution),
        "svd": tc.svd_condition(work, bundle, solution),
        "baboulin": tc.baboulin_condition(work, bundle, solution),
    }
    for estimate in estimates.values():
        assert estimate.kappa_abs == pytest.approx(FB.kappa, rel=1e-10)
        assert estimate.kappa_rel == pytest.approx(FB.kappa_rel, rel=1e-10)


def test_work_invariants():
    for seed, alpha in [(1, 0.9), (2, 0.3), (3, 0.05)]:
        problem = tc.generate_ab_alpha(30, 8, alpha, seed=seed)
        _, _, work = pipeline(problem)
        assert np.all(np.diff(work.s_diag) >= 0) and work.s_diag[0] > 0
        assert np.all(work.lambda_diag > 0)


def test_cross_formula_agreement_seeded():
    # spans the larger shapes the module contract names (up to m=100, n=20)
    for seed in range(9):
        m, n = [(20, 5), (50, 10), (100, 20)][seed % 3]
        problem = tc.generate_ab_alpha(m, n, [0.9, 0.5, 0.1][seed % 3], seed=seed)
        bundle, solution, work = pipeline(problem)
        k_matrix = tc.build_k_matrix(problem, bundle, solution)
        values = [
            tc.kron_condition(k_matrix, problem, solution).kappa_abs,
            tc.cholesky_condition(work, problem, bundle, solution).kappa_abs,
            tc.svd_condition(work, bundle, solution).kappa_abs,
            tc.baboulin_condition(work, bundle, solution).kappa_abs,
        ]
        assert (max(values) - min(values)) <= 1e-8 * min(values)
        # kron_condition's Gram eigenvalue is ||K||_2 to rounding
        assert values[0] == pytest.approx(np.linalg.norm(k_matrix, 2), rel=1e-13)


def test_svd_condition_vs_explicit_inverse():
    # moderate alphas: V11 well conditioned, dense inversion is trustworthy
    for seed in range(4):
        problem = tc.generate_ab_alpha(40, 12, [0.9, 0.5, 0.2, 0.1][seed], seed=seed)
        bundle, solution, work = pipeline(problem)
        kappa = tc.svd_condition(work, bundle, solution).kappa_abs
        explicit = np.hypot(1.0, solution.norm_x) * np.linalg.norm(
            np.linalg.inv(signed_v(bundle)[:-1, :-1]).T @ np.diag(work.s_diag), 2
        )
        assert kappa == pytest.approx(explicit, rel=1e-10)


def ungated_baboulin(work, bundle, solution):
    """baboulin_condition with every Python warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return tc.baboulin_condition(work, bundle, solution)


def test_degenerate_gap_behavior():
    problem = tc.generate_ab_alpha(15, 10, 1e-8, seed=1)
    bundle, solution, work = pipeline(problem)
    with pytest.raises(IllConditionedGap):
        tc.cholesky_condition(work, problem, bundle, solution)
    estimate = tc.svd_condition(work, bundle, solution)
    assert np.isfinite(estimate.kappa_abs) and estimate.kappa_abs > 0
    assert estimate.warnings == ()
    # baboulin reads every difference off a secular root: no gate (measured 6.3e-16 apart)
    baboulin = ungated_baboulin(work, bundle, solution)
    assert baboulin.warnings == ()
    assert baboulin.kappa_abs == pytest.approx(estimate.kappa_abs, rel=1e-14, abs=0)


@pytest.mark.parametrize("shape", [(4000, 40), (2000, 100), (90, 44)])
def test_baboulin_meets_the_svd_route_on_wide_blocks(shape):
    # alpha = 1e-8 past V_ONLY_WIDTH: the roots read b_row and x reads v_last,
    # from dbdsqr and dstein, which share V's corner entry alpha; the two
    # routes agree to rounding (measured 6.3e-15) only if it is one value
    problem = tc.generate_ab_alpha(*shape, 1e-8, seed=0)
    assert problem.n + 1 >= core.V_ONLY_WIDTH
    bundle, solution, work = pipeline(problem)
    assert bundle.b_row[-1] == bundle.v_last[-1]
    estimate = tc.svd_condition(work, bundle, solution)
    baboulin = ungated_baboulin(work, bundle, solution)
    assert baboulin.kappa_abs == pytest.approx(estimate.kappa_abs, rel=1e-13, abs=0)


def test_p_routes_answer_within_the_rounding_limit():
    # alpha = 1e-2: rel_gap 4.0e-5 once drew a warning, but eps sigma_hat_1^2 /
    # delta is 1.9e-10, inside the limit: cholesky and K answer, with no
    # warning, within 1e-8 of the svd route
    problem = tc.generate_ab_alpha(50, 10, 1e-2, seed=3)
    bundle, solution, work = pipeline(problem)
    assert 1e-6 <= solution.gap.rel_gap < 1e-3
    assert core.check_p(bundle) <= core.P_ROUNDING_LIMIT
    reference = tc.svd_condition(work, bundle, solution).kappa_abs
    cholesky = tc.cholesky_condition(work, problem, bundle, solution)
    kron = tc.kron_condition(tc.build_k_matrix(problem, bundle, solution), problem, solution)
    for estimate in (cholesky, kron):
        assert estimate.warnings == ()
        assert estimate.kappa_abs == pytest.approx(reference, rel=1e-8, abs=0)
    baboulin = ungated_baboulin(work, bundle, solution)
    assert baboulin.warnings == ()
    assert baboulin.kappa_abs == pytest.approx(reference, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "config",
    [tc.KammNagyConfig(m=300, seed=916631015), tc.KammNagyConfig(m=60, seed=2)],
    ids=["deblur_m300_seed916631015", "deblur_m60_seed2"],
)
def test_p_routes_refuse_what_rel_gap_let_through(config):
    # rel_gap 1.6e-6 and 1.0e-5, above the old hard limit of 1e-6: cholesky
    # answered 8.0e-8 and 2.1e-7 off the svd route (K 3.0e-7 at m=60), with
    # only a warning. eps sigma_hat_1^2 / delta is 4.4e-5 and 3.2e-6
    problem = tc.kamm_nagy_problem(config)
    bundle, solution, work = pipeline(problem)
    assert solution.gap.rel_gap >= 1e-6
    with pytest.raises(IllConditionedGap):
        tc.cholesky_condition(work, problem, bundle, solution)
    with pytest.raises(IllConditionedGap):
        tc.build_k_matrix(problem, bundle, solution)
    assert tc.residual_diagnostics(problem, bundle, solution).normal_eq_rel_diff is None


@pytest.mark.parametrize(
    "make, kappa",
    [
        (lambda: tc.TlsProblem([[2.0], [0.0]], [0.0, 1.0]), np.sqrt(5) / 3),
        (lambda: tc.TlsProblem([[1.0], [0.0]], [1.0, 1.0]), FB.kappa),
        (lambda: tc.TlsProblem([[1e150], [0.0]], [1e150, 1e150]), FB.kappa / 1e150),
    ],
    ids=["fix_a", "fix_b", "fix_b_1e150"],
)
def test_baboulin_on_the_closed_forms(make, kappa):
    # at x = 0 every weight is dropped, so each row is a deflated pole's; the
    # absolute kappa scales as 1/c with the data
    problem = make()
    bundle, solution, work = pipeline(problem)
    svd_error = abs(tc.svd_condition(work, bundle, solution).kappa_abs - kappa) / kappa
    estimate = ungated_baboulin(work, bundle, solution)
    assert abs(estimate.kappa_abs - kappa) / kappa <= svd_error + 1e-14


@pytest.mark.parametrize(
    "problem",
    [
        tc.generate_ab_alpha(15, 10, 1e-8, seed=1),
        tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1)),
        tie_problem(),
        tied_weighted_problem(0, (3.0, 3.0, 3.0, 1.0, 0.5)),
    ],
    ids=["alpha_1e-8", "deblur_m100", "tie_dropped", "tie_triple_merged"],
)
def test_baboulin_factors_nothing(problem, monkeypatch):
    bundle, solution, work = pipeline(problem)
    calls = counting_factorizations(monkeypatch)
    estimate = ungated_baboulin(work, bundle, solution)
    assert calls == []
    reference = tc.svd_condition(work, bundle, solution).kappa_abs
    assert estimate.kappa_abs == pytest.approx(reference, rel=1e-14, abs=0)


def test_deflated_rows_are_orthonormal_and_orthogonal_to_v():
    # a triple tie with live weights merges into one pole: two deflated rows
    problem = tied_weighted_problem(0, (3.0, 3.0, 3.0, 1.0, 0.5))
    bundle = tc.svd_bundle(problem)
    gap, rows = bundle.roots.deflated_rows()
    assert gap == pytest.approx([9.0 - 0.25] * 2, rel=1e-14, abs=0)
    np.testing.assert_allclose(rows @ rows.T, np.eye(2), rtol=0, atol=4 * EPS)
    np.testing.assert_allclose(rows @ signed_v(bundle)[-1, :-1], 0.0, rtol=0, atol=4 * EPS)


def counting_gated_p(monkeypatch):
    """Log the bundle of each core.gated_p call, from core and from exact, which imports it."""
    calls = []
    gated_p = core.gated_p

    def counting(bundle):
        calls.append(bundle)
        return gated_p(bundle)

    for owner in (core, exact):
        monkeypatch.setattr(owner, "gated_p", counting)
    return calls


@pytest.mark.parametrize(
    "problem, gated",
    [
        (tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1)), True),
        (tc.kamm_nagy_problem(tc.KammNagyConfig(m=300, seed=916631015)), True),
        (tc.generate_ab_alpha(50, 10, 1e-2, seed=3), False),
    ],
    ids=["deblur_m100", "deblur_m300_seed916631015", "alpha_1e-2"],
)
def test_cross_check_skipped_exactly_where_p_routes_gate(problem, gated, monkeypatch):
    # one core.check_p decides both the solver's normal-equations check and the P gate,
    # and one core.gated_p forms (or refuses) P for each of its three readers
    bundle, solution, work = pipeline(problem)
    calls = counting_gated_p(monkeypatch)
    report = tc.residual_diagnostics(problem, bundle, solution)
    assert (report.normal_eq_rel_diff is None) == gated
    for route in (lambda: tc.cholesky_condition(work, problem, bundle, solution),
                  lambda: tc.build_k_matrix(problem, bundle, solution)):
        if gated:
            with pytest.raises(IllConditionedGap):
                route()
        else:
            route()
    assert len(calls) == 3 and all(called is bundle for called in calls)


@pytest.mark.parametrize("alpha", [0.3, 1e-2, 1e-4])
@pytest.mark.parametrize("shape", [(200, 30), (400, 20), (2000, 100), (4000, 40)])
def test_gram_products_read_the_bundle_rows(shape, alpha):
    # R_A^T R_A and R_A^T Q^T b against A^T A and A^T b: a bundle whose rows are
    # [A b] itself gives the A^T A forms. Both round to eps cond(P) (measured up
    # to 0.28 of it, seeds 0-7), and at alpha 1e-4 both forms are gated, where
    # eps sigma_hat_1^2 / delta exceeds core.P_ROUNDING_LIMIT
    problem = tc.generate_ab_alpha(*shape, alpha, seed=3)
    bundle, solution, work = pipeline(problem)
    assert bundle.rows.shape[0] == problem.n + 1
    direct = dataclasses.replace(bundle, rows=problem.augmented())
    cond_p = (bundle.roots.at(0)[0] ** 2 - bundle.sigma[-1] ** 2) / bundle.delta
    tol = max(1e-10, EPS * cond_p)
    reports = [tc.residual_diagnostics(problem, b, solution) for b in (bundle, direct)]
    if EPS * bundle.roots.at(0)[0] ** 2 / bundle.delta > core.P_ROUNDING_LIMIT:
        assert reports[0].normal_eq_rel_diff is reports[1].normal_eq_rel_diff is None
        for b in (bundle, direct):
            with pytest.raises(IllConditionedGap):
                tc.cholesky_condition(work, problem, b, solution)
        return
    assert abs(reports[0].normal_eq_rel_diff - reports[1].normal_eq_rel_diff) <= tol
    kappas = [tc.cholesky_condition(work, problem, b, solution).kappa_abs for b in (bundle, direct)]
    assert kappas[0] == pytest.approx(kappas[1], rel=tol)
    if problem.m ** 2 * (problem.n + 1) <= 2**24:
        k_rows, k_ata = (tc.build_k_matrix(problem, b, solution) for b in (bundle, direct))
        assert np.linalg.norm(k_rows - k_ata) <= tol * np.linalg.norm(k_ata)


def test_kron_gated_on_deblur_gap():
    # eps sigma_hat_1^2 / delta 2.2e-2: P is numerically singular, so K is off by 3.6e-3
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1))
    bundle, solution, _ = pipeline(problem)
    assert EPS * bundle.roots.at(0)[0] ** 2 / bundle.delta > core.P_ROUNDING_LIMIT
    with pytest.raises(IllConditionedGap):
        tc.kron_condition(tc.build_k_matrix(problem, bundle, solution), problem, solution)


def test_build_k_refuses_oversized_before_allocating():
    # K's n * m(n+1) = 100 * 202000 = 20.2M entries, above K_MAX_ENTRIES (2^24)
    problem = tc.generate_ab_alpha(2000, 100, 0.5, seed=0)
    bundle, solution, _ = pipeline(problem)
    tracemalloc.start()
    try:
        with pytest.raises(NotApplicable):
            tc.build_k_matrix(problem, bundle, solution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_build_k_admits_a_k_within_the_cap():
    # K's n * m(n+1) = 50 * 30600 = 1.53M entries, below K_MAX_ENTRIES (2^24)
    problem = tc.generate_ab_alpha(600, 50, 0.5, seed=0)
    bundle, solution, work = pipeline(problem)
    k_matrix = tc.build_k_matrix(problem, bundle, solution)
    assert k_matrix.shape == (50, 600 * 51)
    kron = tc.kron_condition(k_matrix, problem, solution)
    svd = tc.svd_condition(work, bundle, solution)
    assert kron.kappa_abs == pytest.approx(svd.kappa_abs, rel=1e-12, abs=0)
    assert kron.kappa_rel == pytest.approx(svd.kappa_rel, rel=1e-12, abs=0)


def dense_reference_k(problem, bundle, solution):
    """K written out literally: with g(x) = kron([x; -1], I_m), the m x m(n+1)
    array the Kronecker form avoids, K = P^{-1} (2 A^T r^ r^T g(x) - A^T g(x) - [I_n (x) r^T, 0])."""
    m, n = problem.m, problem.n
    a, r = problem.a_matrix, solution.r
    p = a.T @ a - bundle.sigma[-1] ** 2 * np.eye(n)
    g_of_x = np.kron(np.append(solution.x, -1.0), np.eye(m))
    r_unit = r / np.linalg.norm(r)
    rhs = (
        2.0 * np.outer(a.T @ r_unit, r_unit @ g_of_x)
        - a.T @ g_of_x
        - np.hstack([np.kron(np.eye(n), r), np.zeros((n, m))])
    )
    return np.linalg.solve(p, rhs)


@pytest.mark.parametrize(
    "problem",
    [
        *[pytest.param((m, n, alpha, seed), id=f"{m}x{n}-a{alpha}-s{seed}")
          for m, n in [(20, 5), (50, 10), (100, 20)] for alpha in (0.9, 0.3) for seed in range(3)],
        pytest.param((60, 1, 0.3, 0), id="60x1"),
        pytest.param((4, 3, 0.3, 0), id="4x3"),
        "fix_a",
        "fix_b",
    ],
)
def test_build_k_matches_dense_reference(problem, request):
    if isinstance(problem, str):
        problem = request.getfixturevalue(problem)
    else:
        m, n, alpha, seed = problem
        problem = tc.generate_ab_alpha(m, n, alpha, seed=seed)
    bundle, solution, _ = pipeline(problem)
    k_matrix = tc.build_k_matrix(problem, bundle, solution)
    reference = dense_reference_k(problem, bundle, solution)
    assert k_matrix.shape == reference.shape == (problem.n, problem.m * (problem.n + 1))
    assert np.abs(k_matrix - reference).max() <= 1e-12 * np.abs(reference).max()


def test_build_k_peak_memory_is_a_small_multiple_of_k():
    # a dense g(x), m x m(n+1), is m/n = 6.7x K by itself, so building it breaks this bound
    problem = tc.generate_ab_alpha(200, 30, 0.3, seed=0)
    bundle, solution, _ = pipeline(problem)
    tracemalloc.start()
    try:
        k_matrix = tc.build_k_matrix(problem, bundle, solution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * k_matrix.nbytes


def test_kron_condition_of_zero_k_is_zero(fix_b):
    _, solution, _ = pipeline(fix_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        estimate = tc.kron_condition(np.zeros((1, 4)), fix_b, solution)
    assert estimate.kappa_abs == 0.0 and estimate.kappa_rel == 0.0


def recording_svd(monkeypatch):
    """Patch np.linalg.svd to log (calling function, matrix shape, vectors wanted)."""
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


def test_no_svd_runs_after_the_bundle(monkeypatch):
    problem = tc.generate_ab_alpha(30, 8, 0.3, seed=4)
    bundle = tc.svd_bundle(problem)
    solution = tc.solve_tls(problem, bundle)
    calls = recording_svd(monkeypatch)
    work = tc.build_spectral_work(problem, bundle, solution)
    k_matrix = tc.build_k_matrix(problem, bundle, solution)
    tc.kron_condition(k_matrix, problem, solution)
    kappa = tc.svd_condition(work, bundle, solution)
    report = tc.bounds_report(problem, bundle, solution, work)
    tc.lower_kappa2(bundle, solution)
    tc.upper_kappa2(bundle, solution)
    tc.cholesky_condition(work, problem, bundle, solution)
    # the comparison route reads A's vectors off the bundle's secular roots too
    tc.baboulin_condition(work, bundle, solution)
    assert calls == []
    assert report.kappa_reference == kappa.kappa_abs
    # only the lab's worst direction reads the whole V: one dgesdd of the
    # bundle's 9 x 9 R, through core.right_factor
    tc.worst_direction(bundle, problem, solution)
    assert calls == [("full_svd", (9, 9), True)]


def test_nothing_computes_a_singular_vectors(monkeypatch, tmp_path, capsys):
    path = tmp_path / "p.csv"
    tc.save_problem(tc.generate_ab_alpha(20, 5, 0.3, seed=4), path)
    problem = tc.load_problem(path)
    calls = recording_svd(monkeypatch)
    bundle, solution, work = pipeline(problem)
    tc.residual_diagnostics(problem, bundle, solution)
    tc.baboulin_condition(work, bundle, solution)
    tc.monte_carlo_validate(problem, trials=5, seed=1)
    for command in (["solve"], ["cond", "--method", "all"], ["bounds"],
                    ["validate", "--trials", "5", "--seed", "1"]):
        assert main([*command, "--input", str(path)]) == 0
    capsys.readouterr()
    # the gap chain's |u_hat_n . b| and baboulin's rows are secular quantities
    # of the bundle, and A's values are its roots: no SVD of A (or of a stack of them)
    assert calls and [shape for _, shape, _ in calls if shape[-1] == problem.n] == []


@pytest.mark.parametrize(
    "b, kappa",
    [((0.0, 0.0, 1.0, 1.0, 0.0), 0.4134708463138713), ((0.3, 0.2, 1.0, 1.0, 0.5), 0.4332949876768149)],
    ids=["weightless_top_pole", "weighted"],
)
def test_tied_poles_and_zero_weights(b, kappa):
    # sigma = (3.18, 3, 3, 0.94): the secular equation must deflate before
    # dlasd4, and at the first b the weightless top pole is the answer
    problem = tie_problem(b)
    bundle, solution, work = pipeline(problem)
    estimate = tc.svd_condition(work, bundle, solution)
    k_matrix = tc.build_k_matrix(problem, bundle, solution)
    assert estimate.kappa_abs == pytest.approx(
        tc.kron_condition(k_matrix, problem, solution).kappa_abs, rel=1e-14
    )
    assert estimate.kappa_abs == pytest.approx(kappa, rel=1e-14)
    assert all(tc.bounds_report(problem, bundle, solution, work).sandwich_verdicts.values())


def test_build_k_rejects_trivial(fix_a):
    bundle, solution, _ = pipeline(fix_a)
    zeroed = dataclasses.replace(bundle, sigma=np.array([2.0, 0.0]))
    with pytest.raises(TrivialProblem):
        tc.build_k_matrix(fix_a, zeroed, solution)


def v11_singular_values(bundle):
    n = bundle.n
    return np.linalg.svd(signed_v(bundle)[:n, :n], compute_uv=False)


def test_v11_spectrum_fix_b(fix_b):
    bundle, _, work = pipeline(fix_b)
    sv = v11_singular_values(bundle)
    # n = 1: the single singular value is alpha, so the block's condition
    # number collapses to 1
    assert sv.shape == (1,)
    assert sv[-1] == pytest.approx(FB.alpha, rel=1e-12)
    assert work.alpha == pytest.approx(FB.alpha, rel=1e-12)


def test_v11_spectrum_structure_seeded():
    for seed in range(5):
        problem = tc.generate_ab_alpha(30, 6, [0.8, 0.4, 0.1, 0.03, 0.6][seed], seed=seed)
        bundle, solution, work = pipeline(problem)
        sv = v11_singular_values(bundle)
        np.testing.assert_allclose(sv[:-1], 1.0, atol=1e-10)
        assert sv[-1] == pytest.approx(solution.alpha, abs=1e-10)
        assert work.alpha == pytest.approx(solution.alpha, abs=1e-13)
        expected = np.hypot(1.0, solution.norm_x)
        assert sv[0] / sv[-1] == pytest.approx(expected, rel=1e-8)
        # beta / ||beta|| is V11's right singular vector for alpha
        v11 = signed_v(bundle)[:-1, :-1]
        v_bar = work.beta / np.linalg.norm(work.beta)
        assert np.linalg.norm(v11 @ v_bar) == pytest.approx(sv[-1], rel=1e-10)
        y = solution.last_right_vector[: problem.n]
        np.testing.assert_allclose(v11 @ work.beta, work.alpha * y, atol=1e-14)


def test_scale_invariance():
    problem = tc.generate_ab_alpha(25, 6, 0.45, seed=9)
    bundle, solution, work = pipeline(problem)
    base = tc.svd_condition(work, bundle, solution)
    for c in (10.0, 0.125):
        scaled = tc.TlsProblem(c * problem.a_matrix, c * problem.b_vector)
        s_bundle, s_solution, s_work = pipeline(scaled)
        estimate = tc.svd_condition(s_work, s_bundle, s_solution)
        assert estimate.kappa_abs == pytest.approx(base.kappa_abs / c, rel=1e-10)
        assert estimate.kappa_rel == pytest.approx(base.kappa_rel, rel=1e-10)

    # block_svd factors every block scaled into [1/2, 1) and kappa's secular
    # equation is scaled to unit weights, so a power of two changes no bit of
    # x or kappa_rel and scales kappa_abs exactly, on narrow blocks (40x25,
    # and the 11x11 and 13x13 R: numpy's dgesdd) and wide ones (60x45,
    # 100x51: few_value_svd), or the bundle refuses the data: there delta
    # underflows
    problems = {
        "deblur 40": tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, seed=0)),
        "deblur 60": tc.kamm_nagy_problem(tc.KammNagyConfig(m=60, seed=1)),
        "alpha 50x10": tc.generate_ab_alpha(50, 10, 1e-2, 3),
        "alpha 29x12": tc.generate_ab_alpha(29, 12, 1e-4, 5),
        "alpha 100x50": tc.generate_ab_alpha(100, 50, 1e-3, 2),
    }
    refused, gated = set(), set()
    for name, problem in problems.items():
        bundle, solution, work = pipeline(problem)
        base = tc.svd_condition(work, bundle, solution)
        for k in range(-500, 501, 10):
            scaled = tc.TlsProblem(np.ldexp(problem.a_matrix, k), np.ldexp(problem.b_vector, k))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    s_bundle, s_solution, s_work = pipeline(scaled)
                except ShapeError as exc:
                    assert "underflows float64" in str(exc)
                    refused.add((name, k))
                    continue
                estimate = tc.svd_condition(s_work, s_bundle, s_solution)
                # the normal-equations cross-check forms P unscaled: entries up to
                # sigma_1^2 at 2^500, down to about 2^-1000 at 2^-500
                diff = tc.residual_diagnostics(scaled, s_bundle, s_solution).normal_eq_rel_diff
            try:
                core.check_p(s_bundle)
            except IllConditionedGap:
                gated.add((name, k))
                assert diff is None
            else:
                assert diff <= 1e-10
            np.testing.assert_array_equal(s_solution.x, solution.x)
            assert estimate.kappa_rel == base.kappa_rel
            assert estimate.kappa_abs == math.ldexp(base.kappa_abs, -k)
    assert refused == {("deblur 40", -490), ("deblur 40", -500), ("deblur 60", -490),
                       ("deblur 60", -500), ("alpha 29x12", -500)}
    # check_p's quotient does not depend on scale: alpha 50x10 passes at every k
    assert {name for name, _ in gated} == set(problems) - {"alpha 50x10"}
    assert len(gated) == 399


def test_every_route_and_the_lab_read_a_problem_at_the_scale_limit():
    # a Gaussian 80x40 [A b] scaled to sigma_1 = (1 - 1e-4) core._SCALE_LIMIT
    # passes svd_bundle, but ||sigma||^2 and ||A||_F^2 overflow: ||[A b]||_F is
    # taken with the largest entry's power of two out first, so every route
    # reads the unscaled kappa_rel and the lab's default step is finite; below
    # the limit that norm is bitwise the plain one
    aug = np.random.default_rng(0).standard_normal((80, 40))
    factor = (1.0 - 1e-4) * core._SCALE_LIMIT / np.linalg.svd(aug, compute_uv=False)[0]
    kappas = []
    for scale in (1.0, factor):
        problem = tc.TlsProblem(scale * aug[:, :-1], scale * aug[:, -1])
        bundle, solution, work = pipeline(problem)
        if scale == 1.0:
            assert work.aug_frobenius == np.linalg.norm(bundle.sigma)
            assert exact._frobenius(problem.a_matrix, problem.b_vector) == np.hypot(
                np.linalg.norm(problem.a_matrix), np.linalg.norm(problem.b_vector))
        kappas.append([
            tc.svd_condition(work, bundle, solution).kappa_rel,
            tc.cholesky_condition(work, problem, bundle, solution).kappa_rel,
            tc.baboulin_condition(work, bundle, solution).kappa_rel,
            tc.kron_condition(tc.build_k_matrix(problem, bundle, solution), problem,
                              solution).kappa_rel,
        ])
        summary = tc.monte_carlo_validate(problem, trials=20, seed=1)
        assert summary.sound and summary.attained
    np.testing.assert_allclose(kappas[1], kappas[0], rtol=1e-10)
    np.testing.assert_allclose(kappas[0], kappas[0][0], rtol=1e-8)
