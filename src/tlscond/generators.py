"""Test-problem construction.

Two families:

* alpha-controlled instances: [A b] = U Sigma V^T where U, Sigma come from
  the thin SVD B = U Sigma W^T of a uniform(0,1) m x (n+1) matrix B and V is
  assembled so that its (n+1, n+1) entry is exactly -alpha. The induced
  solution then satisfies sqrt(1 + ||x||^2) = 1/alpha, and shrinking alpha
  drives sigma_hat_n and sigma_{n+1} together, i.e. toward ill conditioning.
  U is never formed: U Sigma = B W, so [A b] = B (W V^T), with W from
  the bundle's own row block (core.row_block, dgeqrt to R once m >= 2(n+1))
  and numpy's dgesdd of that small block at every width (core.full_svd,
  which returns sigma and all of W^T, and no U). A draw, its acceptance
  bundle included, took 7.5 ms at 4000x40 and 15.2 ms at 2000x100, against
  11.9 and 24.1 ms from a thin SVD that forms U (medians of 25 interleaved
  draws at alpha = 1e-2, one BLAS thread, a 2-vCPU VM; CHANGES.md, "The
  alpha generator factors its random draw through the bundle's kernel").
  On the square R of a tall draw numpy's dgesdd runs the same LAPACK steps
  as the whole-V kernel it replaced there, bit for bit. B and the product
  are dropped once A and b are split off, before the acceptance bundle, so
  a draw peaks at 2.3 m x (n+1) arrays (tracemalloc, 2000x100).
* a 1-D deblurring setup: a banded Toeplitz convolution matrix from a
  Gaussian kernel, an all-ones right-hand side, and structured noise scaled
  to a prescribed spectral-norm level. Both spectral norms come from the
  n x n banded Gram matrix of the generating column (LAPACK dsbevx, O(n^2
  omega)), so a draw does no O(m^3) work apart from its acceptance bundle.
  ||Tbar|| is solved once per (m, omega, spread) per process and ||E|| once
  per draw attempt: a warm draw took 11.1 and 40.3 ms at m = 300 and 500,
  against 12.4 and 45.3 ms with ||Tbar|| solved again (medians of 25
  interleaved draws, one BLAS thread, a 2-vCPU VM).
  Tbar is never dense: it is read through a read-only strided Toeplitz view
  of the kernel, added into the scaled noise Toeplitz in place, and the
  problem adopts that array. A draw peaks at 3.2 m x (n+1) arrays
  (tracemalloc, m=500): A, then the bundle's copy of [A b] and dgebrd's.

All randomness goes through numpy's seedable Generator (PCG64); identical
seeds reproduce problems bitwise within one build.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .core import SvdBundle, TlsSolution, full_svd, row_block, solve_tls, svd_bundle
from .errors import (
    DegenerateVector,
    GapFailure,
    InvalidAlpha,
    NoUniqueSolution,
    ShapeError,
    TrivialProblem,
)
from .problem import TlsProblem

RETRY_CAP = 10

# an accepted draw with the bundle and solution that accepted it
Draw = tuple[TlsProblem, SvdBundle, TlsSolution]


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
        for name in ("m", "omega", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ShapeError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ShapeError(f"seed must be >= 0, got {self.seed}")
        for name in ("spread", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ShapeError(f"{name} must be finite, got {getattr(self, name)}")
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


def _accepted(problem: TlsProblem) -> Draw | None:
    """The solver's own test: a draw is accepted exactly when solve_tls takes it.

    Returns the draw with its bundle and solution, which the table reuses, or None.
    """
    bundle = svd_bundle(problem)
    try:
        return problem, bundle, solve_tls(problem, bundle)
    except (NoUniqueSolution, TrivialProblem, DegenerateVector):
        return None


def generate_ab_alpha(m: int, n: int, alpha: float, seed) -> TlsProblem:
    """Random problem whose right singular factor has last entry -alpha."""
    return _alpha_draw(m, n, alpha, seed)[0]


def _alpha_draw(m: int, n: int, alpha: float, seed) -> Draw:
    """generate_ab_alpha's problem, with its bundle and solution."""
    if not m > n >= 1:
        raise ShapeError(f"need m > n >= 1, got m={m}, n={n}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha={alpha} outside (0, 1)")
    rng = np.random.default_rng(seed)
    for _ in range(RETRY_CAP):
        v_tilde = haar_orthogonal(n, rng)
        v = generate_v(n, v_tilde, alpha, rng)
        b = rng.random((m, n + 1))
        # U Sigma = B W for B = U Sigma W^T, so U is never formed
        vt_b = full_svd(row_block(np.array(b, order="F")))[1]
        aug = b @ (vt_b.T @ v.T)
        del b  # at most two m x (n+1) arrays at once, and none kept past the split
        a_part, b_part = np.ascontiguousarray(aug[:, :-1]), aug[:, -1].copy()
        del aug
        problem = TlsProblem._adopt(
            a_part, b_part, label=f"alpha_controlled(m={m},n={n},alpha={alpha:g},seed={seed})")
        draw = _accepted(problem)
        if draw is not None:
            return draw
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
    with np.errstate(divide="ignore", invalid="ignore"):  # checked just below
        column = np.exp(-(offsets**2) / (2.0 * spread**2)) / np.sqrt(2.0 * np.pi * spread**2)
    column[i > 2 * omega + 1] = 0.0
    if not np.isfinite(column).all():  # spread^2 underflows to 0
        raise ShapeError(f"spread={spread:g} is too small for a finite kernel")
    return column


def _banded_toeplitz_norm(column: np.ndarray, n: int) -> float:
    """Spectral norm of the m x n lower-banded Toeplitz matrix with first column ``column``.

    The support is the first len(column) - n + 1 entries h, so every column of
    the matrix holds the whole of h, and its Gram matrix is the n x n symmetric
    banded Toeplitz matrix of h's autocorrelation. The norm is the square root
    of that matrix's top eigenvalue, from LAPACK dsbevx in O(n^2 omega).
    """
    support = len(column) - n + 1
    h = column[:support]
    width = min(support, n)  # lags 0 .. width - 1 lie inside the n x n Gram matrix
    lags = np.correlate(h, h, "full")[support - 1 : support - 1 + width]
    band = np.repeat(lags[:, None], n, axis=1)  # lower band storage, one lag per row
    top = scipy.linalg.eigvals_banded(band, lower=True, select="i", select_range=(n - 1, n - 1))
    return math.sqrt(max(float(top[0]), 0.0))


@lru_cache(maxsize=16)
def _kernel_norm(m: int, omega: int, spread: float) -> float:
    """||Tbar||, which depends on (m, omega, spread) only: one banded
    eigen-solve per configuration per process, shared by every seed."""
    return _banded_toeplitz_norm(gaussian_kernel_column(m, omega, spread), m - 2 * omega)


def _lower_toeplitz_view(column: np.ndarray, n: int) -> np.ndarray:
    """The m x n Toeplitz matrix with first column ``column`` and first row
    (column[0], 0, ..., 0), as a read-only strided view of one m + n - 1
    vector: what scipy.linalg.toeplitz builds before it copies."""
    m = len(column)
    vals = np.concatenate((column[::-1], np.zeros(n - 1)))
    step = vals.strides[0]
    return np.lib.stride_tricks.as_strided(
        vals[m - 1 :], shape=(m, n), strides=(-step, step), writeable=False)


def kamm_nagy_problem(config: KammNagyConfig) -> TlsProblem:
    """Deblurring instance: A = Tbar + E, b = ones + e, summed as E + Tbar and
    e + ones in place, which are the same doubles.

    E is a random Toeplitz matrix with the same sparsity structure as Tbar
    (its generating column is drawn on the kernel support only) and e a random
    vector; both use standard-normal entries rescaled so that the spectral
    norm of E is gamma ||Tbar|| and ||e|| = gamma ||ones||. Both spectral
    norms are read from the banded Gram matrix of the generating column, not
    from a dense SVD.
    """
    return _kamm_nagy_draw(config)[0]


def _kamm_nagy_draw(config: KammNagyConfig) -> Draw:
    """kamm_nagy_problem's problem, with its bundle and solution."""
    rng = np.random.default_rng(config.seed)
    kernel = gaussian_kernel_column(config.m, config.omega, config.spread)
    t_bar = _lower_toeplitz_view(kernel, config.n)
    g_bar = np.ones(config.m)
    # gamma ||Tbar||, ||Tbar|| cached per (m, omega, spread); at gamma = 0 the
    # noise is scaled by exactly 0, and adding it leaves Tbar and ones unchanged
    e_scale = config.gamma * _kernel_norm(config.m, config.omega, config.spread)

    for _ in range(RETRY_CAP):
        noise_col = np.zeros(config.m)
        support = 2 * config.omega + 1
        noise_col[:support] = rng.standard_normal(support)
        noise_row = np.zeros(config.n)
        noise_row[0] = noise_col[0]
        a = scipy.linalg.toeplitz(noise_col, noise_row)  # E, then A = Tbar + E in place
        a *= e_scale / _banded_toeplitz_norm(noise_col, config.n)
        a += t_bar
        b_vec = rng.standard_normal(config.m)  # e, then b = ones + e in place
        b_vec *= config.gamma * np.linalg.norm(g_bar) / np.linalg.norm(b_vec)
        b_vec += g_bar
        problem = TlsProblem._adopt(
            a,
            b_vec,
            label=(
                f"kamm_nagy(m={config.m},omega={config.omega},"
                f"spread={config.spread:g},gamma={config.gamma:g},seed={config.seed})"
            ),
        )
        draw = _accepted(problem)
        if draw is not None:
            return draw
        if config.gamma == 0.0:  # deterministic; retrying cannot help
            raise GapFailure("the zero-noise deblurring instance is not solvable")
    raise GapFailure(f"no solvable deblurring instance after {RETRY_CAP} draws")
