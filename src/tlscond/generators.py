"""Test-problem construction.

Two families:

* alpha-controlled instances: [A b] = U Sigma V^T where U, Sigma come from
  the thin SVD of a uniform(0,1) matrix and V is assembled so that its
  (n+1, n+1) entry is exactly -alpha. The induced solution then satisfies
  sqrt(1 + ||x||^2) = 1/alpha, and shrinking alpha drives sigma_hat_n and
  sigma_{n+1} together, i.e. toward ill conditioning.
* a 1-D deblurring setup: a banded Toeplitz convolution matrix from a
  Gaussian kernel, an all-ones right-hand side, and structured noise scaled
  to a prescribed spectral-norm level.

All randomness goes through numpy's seedable Generator (PCG64); identical
seeds reproduce problems bitwise within one build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import check_uniqueness, svd_bundle
from .errors import GapFailure, InvalidAlpha, ShapeError
from .problem import TlsProblem

RETRY_CAP = 10


@dataclass(frozen=True)
class KammNagyConfig:
    """Parameters of the deblurring instance.

    ``spread`` is the Gaussian kernel width (a separate knob from the target
    alpha of the other family); ``gamma`` is the relative noise level.
    """

    m: int
    omega: int = 8
    spread: float = 1.25
    gamma: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.omega < 1:
            raise ShapeError(f"omega must be >= 1, got {self.omega}")
        if self.m - 2 * self.omega < 1:
            raise ShapeError(f"m - 2*omega = {self.m - 2 * self.omega} < 1")
        if self.spread <= 0:
            raise ShapeError(f"spread must be positive, got {self.spread}")
        if self.gamma < 0:
            raise ShapeError(f"gamma must be nonnegative, got {self.gamma}")

    @property
    def n(self) -> int:
        return self.m - 2 * self.omega


def haar_orthogonal(n: int, seed) -> np.ndarray:
    """Haar-distributed random orthogonal n x n matrix.

    QR of a standard-normal matrix with the R-diagonal signs folded into Q,
    which removes the sign bias of raw QR. ``seed`` may be an int or an
    existing numpy Generator (passed through).
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * np.where(d != 0.0, np.sign(d), 1.0)


def generate_v(n: int, v_tilde: np.ndarray, alpha: float, seed) -> np.ndarray:
    """Orthogonal (n+1) x (n+1) matrix with (n+1, n+1) entry exactly -alpha.

    The leading block is built as U[:, :n-1] Vt[:, :n-1]^T + alpha u_n vt_n^T
    from a fresh random orthogonal U, and the border carries the matching
    sqrt(1 - alpha^2) blocks, so the block's singular values are
    (1, ..., 1, alpha) by construction.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha={alpha} outside (0, 1)")
    u = haar_orthogonal(n, seed)
    v11 = u[:, : n - 1] @ v_tilde[:, : n - 1].T + alpha * np.outer(u[:, -1], v_tilde[:, -1])
    border = np.sqrt(1.0 - alpha**2)
    return np.block(
        [
            [v11, border * u[:, -1:]],
            [border * v_tilde[:, -1:].T, np.array([[-alpha]])],
        ]
    )


def _gap_ok(problem: TlsProblem) -> bool:
    """The solver's own test: the generators and solve_tls read the same delta."""
    return check_uniqueness(svd_bundle(problem)).solvable


def generate_ab_alpha(m: int, n: int, alpha: float, seed) -> TlsProblem:
    """Random problem whose right singular factor has last entry -alpha."""
    if not m > n >= 1:
        raise ShapeError(f"need m > n >= 1, got m={m}, n={n}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha={alpha} outside (0, 1)")
    rng = np.random.default_rng(seed)
    for _ in range(RETRY_CAP):
        v_tilde = haar_orthogonal(n, rng)
        v = generate_v(n, v_tilde, alpha, rng)
        b = rng.random((m, n + 1))
        u, sig, _ = np.linalg.svd(b, full_matrices=False)
        aug = (u * sig) @ v.T
        problem = TlsProblem(
            aug[:, :-1],
            aug[:, -1],
            label=f"alpha_controlled(m={m},n={n},alpha={alpha:g},seed={seed})",
        )
        if _gap_ok(problem):
            return problem
    raise GapFailure(f"no solvable instance after {RETRY_CAP} draws (alpha={alpha:g})")


def gaussian_kernel_column(m: int, omega: int, spread: float) -> np.ndarray:
    """First column of the convolution matrix: a truncated Gaussian bump.

    Entry i (1-based) is exp(-(omega - i + 1)^2 / (2 spread^2)) / sqrt(2 pi
    spread^2) for i <= 2 omega + 1 and zero beyond, so the peak sits at
    i = omega + 1 and entries i and 2 omega + 2 - i match.
    """
    if m < 2 * omega + 1:
        raise ShapeError(f"need m >= 2*omega + 1, got m={m}, omega={omega}")
    i = np.arange(1, m + 1, dtype=float)
    offsets = omega - i + 1
    column = np.exp(-(offsets**2) / (2.0 * spread**2)) / np.sqrt(2.0 * np.pi * spread**2)
    column[i > 2 * omega + 1] = 0.0
    return column


def kamm_nagy_problem(config: KammNagyConfig) -> TlsProblem:
    """Deblurring instance: A = Tbar + E, b = ones + e.

    E is a random Toeplitz matrix with the same sparsity structure as Tbar
    (its generating column is drawn on the kernel support only) and e a random
    vector; both use standard-normal entries rescaled so that the spectral
    norm of E is gamma ||Tbar|| and ||e|| = gamma ||ones||.
    """
    rng = np.random.default_rng(config.seed)
    kernel = gaussian_kernel_column(config.m, config.omega, config.spread)
    first_row = np.zeros(config.n)
    first_row[0] = kernel[0]
    t_bar = scipy.linalg.toeplitz(kernel, first_row)
    g_bar = np.ones(config.m)
    # gamma ||Tbar||, one dense 2-norm for every draw (none at gamma = 0)
    e_scale = config.gamma * np.linalg.norm(t_bar, 2) if config.gamma != 0.0 else 0.0

    for _ in range(RETRY_CAP):
        if config.gamma == 0.0:
            a = t_bar
            b_vec = g_bar
        else:
            noise_col = np.zeros(config.m)
            support = 2 * config.omega + 1
            noise_col[:support] = rng.standard_normal(support)
            noise_row = np.zeros(config.n)
            noise_row[0] = noise_col[0]
            e_mat = scipy.linalg.toeplitz(noise_col, noise_row)
            e_mat *= e_scale / np.linalg.norm(e_mat, 2)
            e_vec = rng.standard_normal(config.m)
            e_vec *= config.gamma * np.linalg.norm(g_bar) / np.linalg.norm(e_vec)
            a = t_bar + e_mat
            b_vec = g_bar + e_vec
        problem = TlsProblem(
            a,
            b_vec,
            label=(
                f"kamm_nagy(m={config.m},omega={config.omega},"
                f"spread={config.spread:g},gamma={config.gamma:g},seed={config.seed})"
            ),
        )
        if _gap_ok(problem):
            return problem
        if config.gamma == 0.0:
            break  # deterministic; retrying cannot help
    raise GapFailure(f"no solvable deblurring instance after {RETRY_CAP} draws")
