import ctypes
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import tlscond as tc
from tlscond import core, generators, perturb

# A certificate that covers no step: the lab checks every re-solve's gap.
NO_STEP_COVERED = perturb._GapCertificate(gap=0.0, slack=0.0, sigma_hat_n=1.0, required=math.inf)


@pytest.fixture
def fix_a():
    # x = 0 case: A^T b vanishes, alpha = 1
    return tc.TlsProblem([[2.0], [0.0]], [0.0, 1.0], label="fix_a")


@pytest.fixture
def fix_b():
    # golden-ratio solution, alpha slightly above 1/2
    return tc.TlsProblem([[1.0], [0.0]], [1.0, 1.0], label="fix_b")


def pipeline(problem):
    """(bundle, solution, work) for a solvable problem."""
    bundle = tc.svd_bundle(problem)
    solution = tc.solve_tls(problem, bundle)
    return bundle, solution, tc.build_spectral_work(problem, bundle, solution)


def tie_problem(b=(0.0, 0.0, 1.0, 1.0, 0.0)):
    """A = 3 [I_3; 0]: s_2 = s_3 tie; at the default b also beta_2 = beta_3 = 0."""
    return tc.TlsProblem(3.0 * np.vstack([np.eye(3), np.zeros((2, 3))]), np.array(b))


def tied_weighted_problem(seed=2, sigma=(3.0, 3.0, 1.0, 0.5), rows=None):
    """[A b] = U diag(sigma) W^T (rows x k, rows = k+2 by default): by default
    6x4 with s_1 = s_2 tied, both beta_1, beta_2 nonzero."""
    k = len(sigma)
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((rows or k + 2, k)))[0]
    aug = (u * np.asarray(sigma)) @ generators.haar_orthogonal(k, rng).T
    return tc.TlsProblem(aug[:, :-1], aug[:, -1])


def zero_noise_deblur(m=40, omega=8, spread=1.25):
    """The noiseless deblurring data [Tbar ones]: kamm_nagy_problem at gamma = 0, or its refusal."""
    kernel = generators.gaussian_kernel_column(m, omega, spread)
    first_row = np.zeros(m - 2 * omega)
    first_row[0] = kernel[0]
    return tc.TlsProblem(scipy.linalg.toeplitz(kernel, first_row), np.ones(m))


def failed_dlasd4(i, d, z, rho=1.0):
    """What LAPACK dlasd4 returns when it does not converge: info=1 and a NaN root."""
    return np.full(len(d), np.nan), np.nan, np.full(len(d), np.nan), 1


def failed_dgeqrt(nb, a, overwrite_a=0):
    """What LAPACK dgeqrt returns for an illegal argument: info=-i for argument i."""
    return a, np.zeros((nb, min(a.shape))), -2


def failed_svd(a, *args, **kwargs):
    """What np.linalg.svd raises when dgesdd's bidiagonal iteration fails."""
    raise np.linalg.LinAlgError("SVD did not converge")


def failed_singular_values(*args):
    """What LAPACK dlasda reports when a singular value fails to converge:
    info=1, written through its last argument, an address (core.Bidiagonal
    calls it through ctypes)."""
    ctypes.c_int.from_address(args[-1]).value = 1


def failed_dstein(d, e, w, iblock, isplit):
    """What LAPACK dstein returns when inverse iteration fails for one vector:
    info=1, the number of vectors that did not converge."""
    return np.full((len(d), len(w)), np.nan), 1


def refuse_line_by_line(monkeypatch):
    """Make the line-by-line problem readers fail, so a load that succeeds took
    the plain-decimal path."""

    def refuse(path):
        raise AssertionError(f"the line-by-line reader ran on {path}")

    monkeypatch.setattr("tlscond.problem._read_csv_lines", refuse)
    monkeypatch.setattr("tlscond.problem._read_mm_lines", refuse)


def counting_factorizations(monkeypatch):
    """Log (kernel, shape) of every QR and SVD: core's dgeqrt and
    few_value_svd, and numpy.linalg's.

    The bundle calls dgeqrt, and for its SVD few_value_svd or np.linalg.svd,
    each logged as "svd"; the alpha generator's draw goes through
    np.linalg.svd at every width; the perturbation lab reduces each tall
    stack narrower than perturb.STACKED_QR_WIDTH by one np.linalg.qr, and
    others by dgeqrt block by block; the other readers call numpy. For dgeqrt the
    logged shape is that of the factored array, its second argument; a
    stacked np.linalg.svd or np.linalg.qr logs the shape of its stack, and
    few_value_svd each block's.
    """
    calls = []

    def counting(name, kernel):
        def wrapped(*args, **kwargs):
            calls.append((name, np.shape(args[1] if name == "dgeqrt" else args[0])))
            return kernel(*args, **kwargs)
        return wrapped

    for owner, attribute, name in [(core, "dgeqrt", "dgeqrt"), (np.linalg, "qr", "qr"),
                                   (np.linalg, "svd", "svd"), (core, "few_value_svd", "svd")]:
        monkeypatch.setattr(owner, attribute, counting(name, getattr(owner, attribute)))
    return calls


def dense_copies(call, m, k):
    """(result, peak, kept) of call() under tracemalloc, in units of one m x k
    float64 array: the peak while it ran, and what was still allocated when
    it returned, its result included. call runs once untraced first, so lazy
    imports and caches are not counted."""
    call()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / (8 * m * k), kept / (8 * m * k)


def unit_normals(m, n, rng):
    """A uniform unit direction z = [vec(dA); db]: m(n+1) normals of rng over their norm."""
    z = rng.standard_normal(m * (n + 1))
    return z / np.linalg.norm(z)


def perturbed(problem, z, t):
    """The problem [A + t dA, b + t db] for the direction z = [vec(dA); db]."""
    m, n = problem.m, problem.n
    return tc.TlsProblem(problem.a_matrix + t * z[: m * n].reshape((m, n), order="F"),
                         problem.b_vector + t * z[m * n :])


def signed_v(bundle):
    """The right factor V of [A b], from core.right_factor, with each singular
    vector signed so that V's last row and last column are the bundle's b_row
    and v_last to rounding."""
    vt = core.right_factor(bundle.rows)
    signs = np.where(vt[:, -1] * bundle.b_row < 0.0, -1.0, 1.0)
    signs[-1] = math.copysign(1.0, vt[-1] @ bundle.v_last)
    return (vt * signs[:, None]).T


def sigma_hat_of(bundle):
    """(n,) every singular value of A, descending: the bundle's n secular
    roots, each solved where first read and then cached."""
    return np.array([bundle.roots.at(i)[0] for i in range(bundle.n)])


def interlacing_defect(bundle):
    """Worst violation of sigma_i >= sigma_hat_i >= sigma_{i+1}, scaled by sigma_1."""
    sigma_hat = sigma_hat_of(bundle)
    upper = np.max(sigma_hat - bundle.sigma[:-1], initial=0.0)
    lower = np.max(bundle.sigma[1:] - sigma_hat, initial=0.0)
    return max(upper, lower) / max(bundle.sigma[0], 1e-300)


def k_of(problem):
    """The explicit first-order map K of a solvable problem."""
    bundle, solution, _ = pipeline(problem)
    return tc.build_k_matrix(problem, bundle, solution)


def householder_q(problem, trans="T"):
    """A function applying Q^T (or Q, for trans "N") to an m x k array, for
    the bundle's own QR [A b] = Q [R_0; 0] (core.householder_qr, LAPACK
    dgeqrt, then dgemqrt)."""
    m, n = problem.m, problem.n
    aug = np.empty((m, n + 1), order="F")
    aug[:, :n], aug[:, n] = problem.a_matrix, problem.b_vector
    reflectors, factors = core.householder_qr(aug)

    def apply(c):
        c, info = scipy.linalg.lapack.dgemqrt(reflectors, factors, np.asfortranarray(c),
                                              side="L", trans=trans)
        assert info == 0
        return c

    return apply


def tall(problem):
    """Whether the lab re-solves the problem in its row-block space (m >= 2(n+1))."""
    return core.block_rows(problem.m, problem.n + 1) < problem.m


def lab_direction(problem, z):
    """The unit direction z = [vec(dA); db] in the lab's space (perturb._lab_space):
    [dA db] itself below the crossover; past it, Q^T [dA db] through the
    bundle's Householder QR, with its bottom m-n-1 rows reduced to their R."""
    m, k = problem.m, problem.n + 1
    direction = z.reshape((m, k), order="F")
    if not tall(problem):
        return direction
    reduced = householder_q(problem)(direction)
    return np.vstack([reduced[:k], np.linalg.qr(reduced[k:], mode="r")])


def copying_each(problem, directions):
    """A fill for perturb._resolves that copies in the unit directions z =
    [vec(dA); db] in turn, each reduced to the lab's space."""
    reduced = (lab_direction(problem, z) for z in directions)

    def fill(stack):
        for slot in stack:
            np.copyto(slot, next(reduced))

    return fill


def lab_ratios(problem, z, steps, certificate=NO_STEP_COVERED):
    """The lab's observed ratios along one unit direction z = [vec(dA); db],
    reduced to its space, at each (t, optional) step."""
    bundle = tc.svd_bundle(problem)
    solution = tc.solve_tls(problem, bundle)
    return perturb._ratios(perturb._lab_space(problem, bundle), solution,
                           copying_each(problem, [z] * len(steps)), steps, certificate)


def remainders(problem, z, steps):
    """|ratio - ||K z||| at each step t along the unit direction z, each step
    required, with K the explicit first-order map."""
    predicted = np.linalg.norm(k_of(problem) @ z)
    observed = lab_ratios(problem, z, [(t, False) for t in steps])
    return [abs(ratio - predicted) for ratio in observed]


def rounding_bar(problem):
    """4 eps kappa_rel ||x|| = 4 eps kappa ||[A b]||_F of a solvable problem:
    how far a re-solve in the row-block space may be from solve_tls on the
    rebuilt problem. kappa ||[A b]||_F does not depend on the scale of [A b],
    so it is read with the largest entry scaled into [1/2, 1), where
    ||[A b]||_F^2 cannot overflow."""
    exponent = np.frexp(np.max(np.abs(problem.augmented())))[1]
    scaled = tc.TlsProblem(np.ldexp(problem.a_matrix, -exponent),
                           np.ldexp(problem.b_vector, -exponent))
    bundle, solution, work = pipeline(scaled)
    kappa = tc.svd_condition(work, bundle, solution).kappa_abs
    return 4.0 * np.finfo(float).eps * kappa * work.aug_frobenius


class FixBClosedForms:
    """Hand-derived exact values for the golden-ratio fixture."""

    x = (1.0 + np.sqrt(5.0)) / 2.0
    sig1_sq = (3.0 + np.sqrt(5.0)) / 2.0
    sig2_sq = (3.0 - np.sqrt(5.0)) / 2.0
    sig2 = np.sqrt(sig2_sq)
    sigma_hat = 1.0
    alpha = 1.0 / np.sqrt(1.0 + x**2)
    s1 = np.sqrt(3.0 / 5.0)
    kappa = (1.0 + x**2) * s1                      # alpha^{-2} s_1 (n = 1)
    kappa_rel = kappa * np.sqrt(3.0) / x
    kappa1_upper = np.sqrt(1.0 + x**2) * np.sqrt(1.0 + sig2_sq) / (1.0 - sig2_sq)
    kappa2_lower = np.sqrt(1.0 + x**2) / np.sqrt(1.0 - sig2_sq)
    bhm = 1.0 / (1.0 - sig2)
    simple_lower = np.sqrt(1.0 + x**2) * s1
    simple_upper = kappa
    sharp_lower = 0.5 * (1.0 + x**2) * s1
    sharp_upper = (1.0 + x**2) * s1 + np.sqrt(1.0 + x**2) * s1
    gap_chain_lower = 1.0 / (2.0 * x)
    gap_chain_mid = 1.0 - sig2
    gap_chain_upper = np.sqrt(2.0) / x
