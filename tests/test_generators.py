import numpy as np
import pytest
import scipy.linalg

import tlscond as tc
from conftest import (
    counting_factorizations,
    dense_copies,
    pipeline,
    sigma_hat_of,
    signed_v,
    zero_noise_deblur,
)
from tlscond import generators
from tlscond.errors import GapFailure, InvalidAlpha, ShapeError
from tlscond.generators import _banded_toeplitz_norm

EPS = np.finfo(float).eps


def test_haar_one_by_one():
    values = {float(generators.haar_orthogonal(1, seed)[0, 0]) for seed in range(20)}
    assert values <= {1.0, -1.0}
    assert len(values) == 2  # both signs occur


def test_haar_deterministic():
    q1 = generators.haar_orthogonal(5, 42)
    q2 = generators.haar_orthogonal(5, 42)
    np.testing.assert_array_equal(q1, q2)
    assert not np.array_equal(q1, generators.haar_orthogonal(5, 43))


def test_haar_orthogonality():
    q = generators.haar_orthogonal(50, 7)
    assert np.linalg.norm(q.T @ q - np.eye(50)) <= 1e-12


def test_generate_v_two_by_two():
    v_tilde = np.array([[1.0]])
    v = generators.generate_v(1, v_tilde, 0.5, seed=0)
    assert v[1, 1] == -0.5
    assert abs(v[0, 0]) == pytest.approx(0.5, rel=1e-15)
    assert abs(v[0, 1]) == pytest.approx(np.sqrt(0.75), rel=1e-15)
    assert abs(v[1, 0]) == pytest.approx(np.sqrt(0.75), rel=1e-15)
    assert np.linalg.norm(v.T @ v - np.eye(2)) <= 1e-15


@pytest.mark.parametrize("n,alpha", [(1, 0.5), (4, 0.3), (9, 1e-6)])
def test_generate_v_orthogonal_with_exact_corner(n, alpha):
    v = generators.generate_v(n, generators.haar_orthogonal(n, 3), alpha, seed=4)
    assert v.shape == (n + 1, n + 1)
    assert v[-1, -1] == -alpha  # exact by construction
    assert np.linalg.norm(v.T @ v - np.eye(n + 1)) <= 1e-13 * (n + 1)
    sv = np.linalg.svd(v[:n, :n], compute_uv=False)
    np.testing.assert_allclose(sv[:-1], 1.0, atol=1e-12)
    assert sv[-1] == pytest.approx(alpha, abs=1e-12 + 1e-8 * alpha)


def test_generate_v_matches_block_structure():
    # border blocks must be sqrt(1-a^2) times the singular pair of V11 for its
    # smallest singular value
    n, alpha = 6, 0.37
    v = generators.generate_v(n, generators.haar_orthogonal(n, 11), alpha, seed=12)
    u, sv, vh = np.linalg.svd(v[:n, :n])
    border = np.sqrt(1.0 - alpha**2)
    u_n, v_n = u[:, -1], vh[-1, :]
    if np.sign(u_n @ v[:n, -1]) < 0:  # SVD pair sign is joint
        u_n, v_n = -u_n, -v_n
    np.testing.assert_allclose(v[:n, -1], border * u_n, atol=1e-14)
    np.testing.assert_allclose(v[-1, :n], border * v_n, atol=1e-14)
    assert sv[-1] == pytest.approx(alpha, abs=1e-14)


def test_generate_v_rejects_bad_alpha():
    v_tilde = generators.haar_orthogonal(3, 0)
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidAlpha):
            generators.generate_v(3, v_tilde, alpha, seed=1)


# m >= 2(n+1) factors B through its R; m < 2(n+1) takes the SVD of B itself;
# 80x45 and 100x45 run numpy's dgesdd past core.V_ONLY_WIDTH on B and on R
KERNEL_ROUTE_SHAPES = [(20, 6), (60, 10), (15, 10), (80, 45), (100, 45)]


def test_generate_ab_alpha_recovers_alpha():
    for m, n in KERNEL_ROUTE_SHAPES:
        problem = tc.generate_ab_alpha(m, n, 0.9, seed=8)
        bundle, solution, _ = pipeline(problem)
        assert abs(signed_v(bundle)[-1, -1]) == pytest.approx(0.9, abs=1e-10)
        assert solution.alpha == pytest.approx(0.9, rel=1e-10)


@pytest.mark.parametrize("m,n", KERNEL_ROUTE_SHAPES)
def test_generate_ab_alpha_factors_only_row_blocks(monkeypatch, m, n):
    calls = counting_factorizations(monkeypatch)
    problem = tc.generate_ab_alpha(m, n, 0.3, seed=2)
    assert problem.a_matrix.shape == (m, n)
    # B and the accepted [A b], each as the bundle's row block: its R once m >= 2(n+1)
    k = n + 1 if m >= 2 * (n + 1) else m
    assert [shape for name, shape in calls if name == "svd"] == [(k, n + 1)] * 2


def test_generate_ab_alpha_never_forms_u(monkeypatch):
    calls = counting_factorizations(monkeypatch)
    tc.generate_ab_alpha(60, 10, 0.3, seed=2)
    # two Haar QRs, then B and the accepted [A b] each through the bundle's
    # kernels: the SVD sees only the 11 x 11 R, so no 60-row factor is built
    assert calls == [("qr", (10, 10))] * 2 + [("dgeqrt", (60, 11)), ("svd", (11, 11))] * 2


def test_generate_ab_alpha_tiny_alpha_v11_condition():
    problem = tc.generate_ab_alpha(15, 10, 1e-8, seed=0)
    bundle, solution, _ = pipeline(problem)
    sv = np.linalg.svd(signed_v(bundle)[:-1, :-1], compute_uv=False)
    assert sv[0] / sv[-1] == pytest.approx(1e8, rel=1e-6)
    assert np.hypot(1.0, solution.norm_x) == pytest.approx(1e8, rel=1e-6)
    diag = solution.gap
    assert 1.0 - diag.ratio_sigma_hat_n <= 1e-8  # gap collapses
    # the true rel_gap is 7.0e-16, below what a difference of two singular
    # values resolves: judge it against the 50-digit value, not a fixed floor
    pytest.importorskip("mpmath")
    from oracle import oracle_rel_gap

    bound = 4.0 * np.finfo(float).eps * bundle.sigma[0] / sigma_hat_of(bundle)[-1]
    assert abs(diag.rel_gap - oracle_rel_gap(problem)) <= bound


def test_generate_ab_alpha_deterministic():
    p1 = tc.generate_ab_alpha(12, 4, 0.42, seed=77)
    p2 = tc.generate_ab_alpha(12, 4, 0.42, seed=77)
    np.testing.assert_array_equal(p1.augmented(), p2.augmented())


def test_generate_ab_alpha_validation():
    with pytest.raises(ShapeError):
        tc.generate_ab_alpha(5, 5, 0.5, seed=0)
    with pytest.raises(ShapeError):
        tc.generate_ab_alpha(3, 3, 0.5, seed=0)
    with pytest.raises(InvalidAlpha):
        tc.generate_ab_alpha(10, 3, 0.0, seed=0)
    with pytest.raises(InvalidAlpha):
        tc.generate_ab_alpha(10, 3, 2.0, seed=0)


def test_gap_shrinks_with_alpha():
    # median absolute gap decreases monotonically through the alpha ladder
    medians = []
    for alpha in (1e-2, 1e-3, 1e-5, 1e-7):
        gaps = []
        for seed in range(10):
            problem = tc.generate_ab_alpha(20, 6, alpha, seed=300 + seed)
            bundle = tc.svd_bundle(problem)
            gaps.append(float(sigma_hat_of(bundle)[-1] - bundle.sigma[-1]))
        medians.append(float(np.median(gaps)))
    assert all(a > b for a, b in zip(medians, medians[1:]))


def test_kernel_column_shape_and_symmetry():
    m, omega, spread = 20, 8, 1.25
    col = generators.gaussian_kernel_column(m, omega, spread)
    peak = 1.0 / np.sqrt(2 * np.pi * spread**2)
    assert col[omega] == pytest.approx(peak, rel=1e-15)  # i = omega + 1
    assert col.argmax() == omega
    for i in range(1, 2 * omega + 2):  # entries i and 2*omega + 2 - i match
        assert col[i - 1] == pytest.approx(col[2 * omega + 1 - i], rel=1e-15)
    np.testing.assert_array_equal(col[2 * omega + 1:], 0.0)
    with pytest.raises(ShapeError):
        generators.gaussian_kernel_column(16, 8, spread)


def test_kamm_nagy_zero_noise_is_exact():
    problem = zero_noise_deblur(m=40, omega=8, spread=1.25)
    kernel = generators.gaussian_kernel_column(40, 8, 1.25)
    assert problem.n == 24
    np.testing.assert_array_equal(problem.a_matrix[:, 0], kernel)
    np.testing.assert_array_equal(problem.b_vector, np.ones(40))
    # Toeplitz: constant diagonals, zero above the main diagonal
    for j in range(1, problem.n):
        np.testing.assert_array_equal(problem.a_matrix[j:, j], kernel[: 40 - j])
        np.testing.assert_array_equal(problem.a_matrix[:j, j], 0.0)
    # b = ones has no unique TLS fit (solve_tls raises DegenerateVector), so the
    # generator, which accepts exactly what solve_tls solves, refuses it
    for m in (40, 100):
        with pytest.raises(GapFailure):
            tc.kamm_nagy_problem(tc.KammNagyConfig(m=m, omega=8, spread=1.25, gamma=0.0, seed=1))
    # at omega = 2 the fit is unique: the general draw, its noise scaled by 0,
    # gives the noiseless data bit for bit
    solvable = tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, omega=2, gamma=0.0, seed=3))
    noiseless = zero_noise_deblur(m=40, omega=2)
    assert solvable.augmented().tobytes() == noiseless.augmented().tobytes()


def lower_toeplitz(column, n):
    """The dense m x n lower-banded Toeplitz matrix with first column ``column``."""
    first_row = np.zeros(n)
    first_row[0] = column[0]
    return scipy.linalg.toeplitz(column, first_row)


def test_kamm_nagy_noise_scaling_and_structure():
    for m in (60, 300):
        config = tc.KammNagyConfig(m=m, omega=8, spread=1.25, gamma=1e-3, seed=5)
        problem = tc.kamm_nagy_problem(config)
        # independent reconstruction of the noiseless Toeplitz operator, and dense norms
        t_bar = lower_toeplitz(generators.gaussian_kernel_column(m, 8, 1.25), config.n)
        e_mat = problem.a_matrix - t_bar
        e_vec = problem.b_vector - np.ones(m)
        t_norm = np.linalg.norm(t_bar, 2)
        # abs=0, or approx's default abs=1e-12 binds at 1e-9 relative. Rounding
        # A = Tbar + E at ulp(Tbar) leaves up to 5e-14 in the recovered ||E||
        # at gamma = 1e-3 (m = 60 and 300, seeds 0-29), so 1e-13 is the floor
        assert np.linalg.norm(e_mat, 2) / t_norm == pytest.approx(1e-3, rel=1e-13, abs=0)
        assert np.linalg.norm(e_vec) == pytest.approx(
            1e-3 * np.linalg.norm(np.ones(m)), rel=1e-13, abs=0
        )
        assert np.all((e_mat != 0) <= (t_bar != 0))  # support containment


def rayleigh_norm_50_digits(matrix, vector):
    """||M v|| / ||v|| at 50 digits from the exact binary entries of M and v.

    A Rayleigh quotient is accurate to second order in the error of v, so with
    v a double-precision top right singular vector it is ||M|| to far below eps.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        rows = {}
        for i, j in zip(*np.nonzero(matrix)):
            rows[i] = rows.get(i, 0) + mpmath.mpf(matrix[i, j]) * mpmath.mpf(vector[j])
        top = mpmath.fsum(value**2 for value in rows.values())
        bottom = mpmath.fsum(mpmath.mpf(value) ** 2 for value in vector)
        return float(mpmath.sqrt(top / bottom))


@pytest.mark.parametrize("m,omega", [(17, 8), (3, 1), (20, 1), (100, 8), (300, 8), (500, 8)])
def test_banded_norm_matches_the_dense_norm(m, omega):
    n = m - 2 * omega
    noise = np.zeros(m)
    noise[: 2 * omega + 1] = np.random.default_rng(0).standard_normal(2 * omega + 1)
    for column in (generators.gaussian_kernel_column(m, omega, 1.25), noise):
        matrix = lower_toeplitz(column, n)
        norm = _banded_toeplitz_norm(column, n)
        # the sigma-only dgesdd behind np.linalg.norm(., 2) is itself up to
        # 12 eps off the sharp value here (m = 20 to 500, 20 noise seeds)
        dense = np.linalg.norm(matrix, 2)
        assert abs(norm - dense) <= 16 * EPS * dense
        top_vector = np.linalg.svd(matrix)[2][0]
        exact = rayleigh_norm_50_digits(matrix, top_vector)
        assert abs(norm - exact) <= 4 * EPS * exact


def test_kamm_nagy_draw_runs_only_its_bundle(monkeypatch):
    calls = counting_factorizations(monkeypatch)
    matrix_norms = []
    dense_norm = np.linalg.norm

    def recording_norm(x, ord=None, *args, **kwargs):
        if np.ndim(x) == 2 and ord == 2:
            matrix_norms.append(np.shape(x))
        return dense_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=0))
    # m = n + 2 omega routes the bundle to a direct SVD: one per attempt,
    # and m=100, seed 0 is accepted at the first attempt
    assert calls == [("svd", (100, 85))]
    assert matrix_norms == []


@pytest.mark.parametrize(
    "m,seed,omega,spread",
    [(60, 5, 8, 1.25), (100, 0, 8, 1.25), (300, 1, 8, 1.25), (100, 0, 4, 1.25), (100, 0, 8, 2.0)],
    ids=["60-5", "100-0", "300-1", "100-0-omega4", "100-0-spread2"],
)
def test_kamm_nagy_problem_is_the_dense_toeplitz_sum(m, seed, omega, spread):
    # the first attempt rebuilt densely, as Tbar + E and ones + e from the
    # same stream: the in-place sums over Tbar's strided view give its bits.
    # The last two cases differ from (100, 0) in one key of the ||Tbar|| cache
    config = tc.KammNagyConfig(m=m, omega=omega, spread=spread, seed=seed)
    n, support = config.n, 2 * config.omega + 1
    rng = np.random.default_rng(seed)
    kernel = generators.gaussian_kernel_column(m, config.omega, config.spread)
    noise_col = np.zeros(m)
    noise_col[:support] = rng.standard_normal(support)
    e_mat = lower_toeplitz(noise_col, n)
    e_mat *= config.gamma * _banded_toeplitz_norm(kernel, n) / _banded_toeplitz_norm(noise_col, n)
    e_vec = rng.standard_normal(m)
    e_vec *= config.gamma * np.linalg.norm(np.ones(m)) / np.linalg.norm(e_vec)
    problem = tc.kamm_nagy_problem(config)
    assert problem.a_matrix.tobytes() == (lower_toeplitz(kernel, n) + e_mat).tobytes()
    assert problem.b_vector.tobytes() == (np.ones(m) + e_vec).tobytes()
    assert problem.a_matrix.flags.c_contiguous and not problem.a_matrix.flags.writeable


def test_a_warm_kernel_norm_gives_the_cold_draw():
    # ||Tbar|| is cached per (m, omega, spread): a seed drawn after other
    # seeds of its config is the seed drawn with the cache cold, bit for bit
    generators._kernel_norm.cache_clear()
    config = tc.KammNagyConfig(m=100, seed=5)
    cold = tc.kamm_nagy_problem(config).augmented().tobytes()
    for seed in (1, 2):
        tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=seed))
    assert tc.kamm_nagy_problem(config).augmented().tobytes() == cold


def test_a_warm_draw_solves_one_banded_eigenproblem(monkeypatch):
    calls = []
    eigvals_banded = scipy.linalg.eigvals_banded

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvals_banded(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", counting)
    generators._kernel_norm.cache_clear()
    # m=100, seeds 0 and 3 are accepted at their first attempt: ||Tbar|| and
    # ||E|| cold, then ||E|| alone, each on the 17-lag band of the 84 x 84 Gram
    tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=0))
    assert calls == [(17, 84)] * 2
    tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=3))
    assert calls == [(17, 84)] * 3


def test_kamm_nagy_draw_peaks_at_three_dense_copies():
    # A (the noise Toeplitz, with Tbar added in place), then the bundle's
    # Fortran copy and dgebrd's: 6.3 copies when Tbar, E and their sum were
    # dense and TlsProblem copied the sum
    config = tc.KammNagyConfig(m=300, seed=0)
    _, peak, _ = dense_copies(lambda: tc.kamm_nagy_problem(config), 300, config.n + 1)
    assert peak <= 3.5


def test_generate_ab_alpha_peaks_below_two_and_a_half_copies():
    # B and its product with W V^T, split into A and b; then the bundle's copy
    # of [A b] beside A: 4.3 copies when B and the product outlived the split
    _, peak, _ = dense_copies(lambda: tc.generate_ab_alpha(2000, 100, 1e-2, 1), 2000, 101)
    assert peak <= 2.5


def test_kamm_nagy_gap_regime_at_m_100():
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=3))
    diag = pipeline(problem)[1].gap
    assert 0.9 <= diag.ratio_sigma_n < 1.0
    assert diag.ratio_sigma_hat_n > 1.0 - 1e-5


def test_config_validation():
    assert tc.KammNagyConfig(m=17, omega=8).n == 1  # boundary is allowed
    with pytest.raises(ShapeError):
        tc.KammNagyConfig(m=16, omega=8)  # n = 0 is not
    with pytest.raises(ShapeError, match="omega must be >= 1, got 0"):
        tc.KammNagyConfig(m=40, omega=0)
    with pytest.raises(ShapeError):
        tc.KammNagyConfig(m=40, omega=8, spread=-1.0)
    with pytest.raises(ShapeError):
        tc.KammNagyConfig(m=40, omega=8, gamma=-0.1)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ShapeError, match="spread must be finite"):
            tc.KammNagyConfig(m=40, omega=8, spread=bad)
        with pytest.raises(ShapeError, match="gamma must be finite"):
            tc.KammNagyConfig(m=40, omega=8, gamma=bad)
    # a spread whose square underflows would give a NaN kernel peak
    with pytest.raises(ShapeError, match="too small"):
        tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, omega=8, spread=1e-200))


@pytest.mark.parametrize("field, value", [
    ("m", 100.0), ("m", True), ("omega", 8.0), ("omega", True), ("seed", 1.5), ("seed", -1),
    ("seed", False), ("seed", None),
])
def test_a_deblur_config_refuses_a_field_that_is_not_an_integer(field, value):
    # numpy raised TypeError from inside the draw for a float m, omega or seed
    with pytest.raises(ShapeError, match=f"^{field} must be "):
        tc.KammNagyConfig(**{"m": 100, field: value})


def test_a_deblur_config_takes_numpy_integers():
    config = tc.KammNagyConfig(m=np.int64(60), omega=np.int32(8), seed=np.uint32(1))
    np.testing.assert_array_equal(
        tc.kamm_nagy_problem(config).augmented(),
        tc.kamm_nagy_problem(tc.KammNagyConfig(m=60, seed=1)).augmented())
