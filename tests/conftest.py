import numpy as np
import pytest
import scipy.linalg

import tlscond as tc
from tlscond import core, generators


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


def tied_weighted_problem(seed=2, sigma=(3.0, 3.0, 1.0, 0.5)):
    """[A b] = U diag(sigma) W^T ((k+2) x k): by default 6x4 with s_1 = s_2 tied,
    both beta_1, beta_2 nonzero."""
    k = len(sigma)
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((k + 2, k)))[0]
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


def refuse_line_by_line(monkeypatch):
    """Make the line-by-line problem readers fail, so a load that succeeds took
    the plain-decimal path."""

    def refuse(path):
        raise AssertionError(f"the line-by-line reader ran on {path}")

    monkeypatch.setattr("tlscond.problem._read_csv_lines", refuse)
    monkeypatch.setattr("tlscond.problem._read_mm_lines", refuse)


def counting_factorizations(monkeypatch):
    """Log (kernel, shape) of every QR and SVD: core's dgeqrt and numpy.linalg's.

    The bundle calls dgeqrt and np.linalg.svd; the other readers call numpy.
    For dgeqrt the logged shape is that of the factored array, its second
    argument; a stacked SVD logs the shape of its stack.
    """
    calls = []

    def counting(name, kernel):
        def wrapped(*args, **kwargs):
            calls.append((name, np.shape(args[1] if name == "dgeqrt" else args[0])))
            return kernel(*args, **kwargs)
        return wrapped

    for owner, name in [(core, "dgeqrt"), (np.linalg, "qr"), (np.linalg, "svd")]:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


def unit_normals(m, n, rng):
    """A uniform unit direction z = [vec(dA); db]: m(n+1) normals of rng over their norm."""
    z = rng.standard_normal(m * (n + 1))
    return z / np.linalg.norm(z)


def perturbed(problem, z, t):
    """The problem [A + t dA, b + t db] for the direction z = [vec(dA); db]."""
    m, n = problem.m, problem.n
    return tc.TlsProblem(problem.a_matrix + t * z[: m * n].reshape((m, n), order="F"),
                         problem.b_vector + t * z[m * n :])


def k_of(problem):
    """The explicit first-order map K of a solvable problem."""
    bundle, solution, _ = pipeline(problem)
    return tc.build_k_matrix(problem, bundle, solution)


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
