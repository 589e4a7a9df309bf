import numpy as np
import pytest

import tlscond as tc
from conftest import FixBClosedForms as FB
from conftest import pipeline
from tlscond.errors import NoUniqueSolution, TrivialProblem


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


def test_check_uniqueness_classification():
    diag = tc.check_uniqueness(tc.svd_bundle(tc.TlsProblem([[2.0], [0.0]], [0.0, 1.0])))
    assert diag.gap_ok and diag.nontrivial
    assert diag.rel_gap == pytest.approx(0.5)
    assert diag.ratio_sigma_n <= 1.0 and diag.ratio_sigma_hat_n <= 1.0 + 1e-14

    # b in range(A): sigma_{n+1} = 0 (zero row keeps the zero exact)
    trivial = tc.TlsProblem([[1.0], [0.0]], [2.0, 0.0])
    diag = tc.check_uniqueness(tc.svd_bundle(trivial))
    assert not diag.nontrivial

    # sigma_hat_n = sigma_{n+1}: [A b] orthogonal columns of equal norm
    tied = tc.TlsProblem([[1.0], [0.0]], [0.0, 1.0])
    diag = tc.check_uniqueness(tc.svd_bundle(tied))
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
    assert solution.alpha == pytest.approx(FB.alpha, rel=1e-14)
    # sign convention: last entry of v_{n+1} is -alpha
    assert solution.last_right_vector[-1] == pytest.approx(-FB.alpha, rel=1e-14)


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
        ids = tc.residual_diagnostics(problem, bundle, solution).identities
        assert ids.optimal_value <= 1e-10
        assert ids.gradient <= 1e-10
        assert ids.singular_vector <= 1e-10


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
        if tc.check_uniqueness(bundle).rel_gap < 1e-3:
            continue
        solution = tc.solve_tls(problem, bundle)
        assert solution.gap == tc.check_uniqueness(bundle)
        diff = tc.residual_diagnostics(problem, bundle, solution).normal_eq_rel_diff
        assert diff is not None and diff <= 1e-8
        checked += 1
    assert checked >= 80  # the sweep must not be vacuous


def test_cross_check_skipped_below_gap_floor():
    problem = tc.generate_ab_alpha(15, 10, 1e-8, seed=0)
    bundle = tc.svd_bundle(problem)
    assert tc.check_uniqueness(bundle).rel_gap < 1e-6
    solution = tc.solve_tls(problem, bundle)
    assert tc.residual_diagnostics(problem, bundle, solution).normal_eq_rel_diff is None


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


@pytest.mark.parametrize("shape", [(21, 10), (22, 10), (200, 30), (2000, 100), (3, 1), (60, 1)])
def test_bundle_agrees_with_direct_svds(shape):
    m, n = shape
    problem = tc.generate_ab_alpha(m, n, 0.3, seed=5)
    bundle = tc.svd_bundle(problem)
    (_, sigma_hat, _), (_, sigma, vt_aug) = direct_svds(problem)
    assert bundle.u_aug.shape[0] == (n + 1 if m >= 2 * (n + 1) else m)
    np.testing.assert_allclose(bundle.sigma, sigma, rtol=0, atol=1e-14 * sigma[0])
    np.testing.assert_allclose(bundle.sigma_hat, sigma_hat, rtol=0, atol=1e-14 * sigma[0])
    x_direct = -vt_aug[-1, :-1] / vt_aug[-1, -1]
    x = tc.solve_tls(problem, bundle).x
    assert np.linalg.norm(x - x_direct) <= 1e-12 * np.linalg.norm(x_direct)


def test_deblur_bundle_is_the_direct_svds():
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1))
    bundle = tc.svd_bundle(problem)
    _, (u_aug, sigma, vt_aug) = direct_svds(problem)
    sigma_hat = np.linalg.svd(problem.a_matrix, compute_uv=False)
    assert bundle.rows.shape == (problem.m, problem.n + 1)
    for got, want in [(bundle.sigma_hat, sigma_hat), (bundle.u_aug, u_aug),
                      (bundle.sigma, sigma), (bundle.v_aug, vt_aug.T)]:
        np.testing.assert_array_equal(got, want)


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
    calls = {"svd": 0, "qr": 0}
    svd, qr = np.linalg.svd, np.linalg.qr

    def counting(name, kernel):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
    monkeypatch.setattr(np.linalg, "qr", counting("qr", qr))
    for problem, qr_calls in [(tall, 1), (blur, 0)]:
        calls.update(svd=0, qr=0)
        bundle = tc.svd_bundle(problem)
        assert calls == {"svd": 2, "qr": qr_calls}
        solution = tc.solve_tls(problem, bundle)
        work = tc.build_spectral_work(problem, bundle, solution)
        tc.svd_condition(work, bundle, solution)
        tc.bounds_report(problem, bundle, solution, work)
        tc.residual_diagnostics(problem, bundle, solution)
        bundle.orthonormality_defect()
        bundle.interlacing_defect()
        assert calls["qr"] == qr_calls
        bundle.reconstruction_defect(problem)
        assert calls["qr"] == 2 * qr_calls
