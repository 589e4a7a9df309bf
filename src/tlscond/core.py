"""One SVD per problem, A's singular values from it, gap diagnostics, the TLS solver.

The bundle is one thin SVD of [A b], of one row block: [A b], or once
m >= 2(n+1) (LAPACK's QR-first crossover) the (n+1) x (n+1) R of one
Householder QR [A b] = Q R, A = Q R[:, :n] (Chan's R-SVD). Q is never formed:
the left factor is in that block's row basis. A is not factored. As
A^T A = V1 Sigma^2 V1^T with V1 the first n rows of V and V1^T V1 = I - v v^T
(v the last row of V), the squared singular values of A are the nonzero
eigenvalues of Sigma^2 - (Sigma v)(Sigma v)^T: the roots of a downdating
secular equation (Gu & Eisenstat, SIMAX 1995), which LAPACK dlaed4 solves one
root at a time in O(n) (SigmaHatRoots). Roots are solved only where read:
sigma_hat_n and the gap delta = sigma_hat_n^2 - sigma_{n+1}^2 with the bundle,
sigma_hat_1 and sigma_hat_{n-1} when a bound asks, the whole sigma_hat lazily.
delta is read off the root in a form centred on the sigma_{n+1} pole, so it is
accurate even where sigma_hat_n and sigma_{n+1} agree to the last bit, and it
is never rebuilt as a difference of two singular values. A's singular vectors
have two readers, the baboulin comparison route and the gap chain of
residual_diagnostics; each computes them from rows[:, :n] when called.

The solver takes the trailing right singular vector of [A b], sign-normalized
so its last entry is -alpha with alpha = 1/sqrt(1 + ||x||^2), and reads the
solution off it; its checks are residual_diagnostics' work. The gap is
classified once from delta, kept as TlsSolution.gap, and judged by the one
policy here: below a relative gap of HARD_GAP_LIMIT, P = A^T A -
sigma_{n+1}^2 I is numerically singular, so the normal-equations cross-check
P^{-1} A^T b is skipped and GapDiagnostics.gate refuses the P-based routes;
below WARN_GAP_LIMIT the gate warns.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cython_lapack

from .errors import (
    ConvergenceError,
    DegenerateVector,
    IllConditionedGap,
    NoUniqueSolution,
    TrivialProblem,
)
from .problem import TlsProblem

HARD_GAP_LIMIT = 1e-6
WARN_GAP_LIMIT = 1e-3


def _load_dlaed4():
    """LAPACK dlaed4 from scipy.linalg.cython_lapack's capsule, as a ctypes function.

    scipy.linalg.lapack has no wrapper for it. Its 8 arguments, scalars
    included, are passed as raw addresses.
    """
    capsule = cython_lapack.__pyx_capi__["dlaed4"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 8)(address)


_DLAED4 = _load_dlaed4()
_EPS = float(np.finfo(float).eps)
# the range kept clear of overflow and underflow in SigmaHatRoots' secular form
_NEGLIGIBLE = math.sqrt(float(np.finfo(float).tiny) / _EPS)


def _dlaed4(k: int, i: int, poles_at: int, z_at: int, rho: float) -> float:
    """Root i (0-based, ascending) of the secular equation of diag(d) + rho z z^T.

    d (ascending, distinct) and the unit z (no zero entry) are k doubles at
    addresses poles_at and z_at.
    """
    delta = (ctypes.c_double * k)()  # dlaed4's workspace
    scalars = (ctypes.c_double * 2)(rho, 0.0)  # rho, root
    ints = (ctypes.c_int * 3)(k, i + 1, 0)  # n, i (1-based), info
    at, int_at = ctypes.addressof(scalars), ctypes.addressof(ints)
    _DLAED4(int_at, int_at + 4, poles_at, z_at, ctypes.addressof(delta), at, at + 8, int_at + 8)
    if ints[2] != 0:
        raise ConvergenceError(f"dlaed4 failed (info={ints[2]})")
    return scalars[1]


def deflate(
    poles: np.ndarray, weights: np.ndarray, relative: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Deflate the secular equation of diag(d^2) + w w^T for ascending poles d > 0.

    LAPACK's secular solvers need strictly ascending poles and nonzero
    weights. Weights below tol are dropped, and a pole within tol of the
    next live one hands its weight to it by a rotation. tol is 8 eps max(d,
    ||w||), the backward-stable criterion that suits a top root, or with
    relative 8 eps d_j for each pole, which keeps every root's relative
    accuracy. Returns the deflated weights z, zero at every deflated pole
    (each such d^2 is itself an eigenvalue; z is weights itself when nothing
    deflates), and rep, the pole each weight was merged into.
    """
    if relative:
        tol = 8.0 * _EPS * poles
    else:
        tol = np.full(len(poles), 8.0 * _EPS * max(poles[-1], math.sqrt(weights @ weights)))
    rep = np.arange(len(weights))
    if (np.abs(weights) > tol).all() and (poles[1:] - poles[:-1] > tol[1:]).all():
        return weights, rep
    z = np.where(np.abs(weights) > tol, weights, 0.0)
    live = np.flatnonzero(z)
    for t in np.flatnonzero(np.diff(poles[live]) <= tol[live[1:]]):
        prev, k = live[t], live[t + 1]
        z[k], z[prev] = np.hypot(z[k], z[prev]), 0.0
        rep[rep == prev] = k
    return z, rep


class SigmaHatRoots:
    """A's singular values from the singular values and last row v of V of [A b].

    A^T A = V1 Sigma^2 V1^T with V1 the first n rows of V, and V1^T V1 =
    I - v v^T, so the sigma_hat^2 are the nonzero eigenvalues of Sigma^2 -
    (Sigma v)(Sigma v)^T: the n roots of g(lam) = sum_j v_j^2 / (sigma_j^2 - lam),
    one between each pair of adjacent sigma_j^2 (its downdating secular
    equation with the zero root divided out). Shifted and inverted at the
    sigma_{n+1} pole, lam = sigma_{n+1}^2 + Delta_n / mu with Delta_j =
    sigma_j^2 - sigma_{n+1}^2, g = 0 is the secular equation of diag(q) + w w^T,
    q_j = Delta_n / Delta_j in (0, 1] ascending and w_j = (v_j / alpha) sqrt(q_j),
    alpha = |v_{n+1}|: LAPACK dlaed4's form. Its ascending root r gives
    sigma_hat_{r+1}, and Delta_n / mu is that value's gap to sigma_{n+1}: so
    delta = sigma_hat_n^2 - sigma_{n+1}^2 comes from the top root, never from a
    difference, and no root has to pass near the zero eigenvalue. Everything is
    scaled by 1/sigma_1.

    Deflation runs on that form, pole by pole (relative): a deflated pole's
    sigma_j is itself a sigma_hat. Where the form is out of range (alpha or
    Delta_n zero, or ||w||^2 past 1/_NEGLIGIBLE, so that delta would be below
    _NEGLIGIBLE Delta_n), sigma_hat_n = sigma_{n+1}, delta = 0, and the others
    are the roots of the same equation without the sigma_{n+1} pole, its
    weight merged into sigma_n's.
    """

    def __init__(self, sigma: np.ndarray, v_last: np.ndarray):
        self._sigma, self._v_last = sigma, v_last
        self._scale = float(sigma[0]) if sigma[0] > 0 else 1.0
        head, last = sigma[:-1] / self._scale, float(sigma[-1]) / self._scale
        self._gaps = (head - last) * (head + last)  # Delta_j / sigma_1^2, descending
        self._last2 = last * last
        self._cache: dict[int, tuple[float, float]] = {}
        self._live = None  # None: every pole is live
        self._rest: SigmaHatRoots | None = None  # the equation without sigma_{n+1}
        alpha, self._gap_n = abs(float(v_last[-1])), float(self._gaps[-1])
        self._usable = alpha > _NEGLIGIBLE and self._gap_n > 0.0
        if not self._usable:
            return
        poles = self._gap_n / self._gaps
        root_poles = np.sqrt(poles)
        weights = v_last[:-1] * (root_poles / alpha)  # each below 1/_NEGLIGIBLE
        self._rho = float(weights @ weights)
        self._usable = self._rho < 1.0 / _NEGLIGIBLE
        if not self._usable:
            return
        z, _ = deflate(root_poles, weights, relative=True)
        if z is not weights and not z.all():
            self._live = np.flatnonzero(z)
            z, poles = z[self._live], poles[self._live]
            self._rho = float(z @ z)
        k = len(z)
        # the poles and the unit z side by side, for dlaed4 to read by address
        self._buffer = (ctypes.c_double * (2 * k))()
        self._at = ctypes.addressof(self._buffer)
        if k:
            poles_z = np.frombuffer(self._buffer)
            poles_z[:k] = poles
            np.divide(z, math.sqrt(self._rho), out=poles_z[k:])

    def at(self, i: int) -> tuple[float, float]:
        """(sigma_hat_{i+1}, sigma_hat_{i+1}^2 - sigma_{n+1}^2) for a 0-based (or negative) i."""
        i %= len(self._sigma) - 1
        if i not in self._cache:
            if not self._usable:
                self._cache[i] = self._without_last_pole(i)
            elif self._live is None:
                self._cache[i] = self._root(i)
            else:
                self._cache[i] = self._deflated_at(i)
        return self._cache[i]

    def _root(self, r: int) -> tuple[float, float]:
        k = len(self._buffer) // 2
        gap = self._gap_n / _dlaed4(k, r, self._at, self._at + 8 * k, self._rho)
        return math.sqrt(self._last2 + gap) * self._scale, gap * self._scale**2

    def _pole(self, j: int) -> tuple[float, float]:
        return float(self._sigma[j]), float(self._gaps[j]) * self._scale**2

    def _deflated_at(self, i: int) -> tuple[float, float]:
        """Entry i when some pole is deflated, from at most one root.

        Live root r lies between the live poles L[r] and L[r+1] (the last
        root between L[-1] and sigma_{n+1}), as does every deflated pole in
        between: together they fill positions L[r] up to L[r+1] (up to n for
        the last). Deflated poles above L[0] fill the positions before it.
        """
        live = self._live
        r = int(np.searchsorted(live, i, side="right")) - 1
        if r < 0:
            return self._pole(i)
        end = live[r + 1] if r + 1 < len(live) else len(self._sigma) - 1
        block = [self._pole(j) for j in range(live[r] + 1, end)] + [self._root(r)]
        block.sort(key=lambda entry: -entry[0])
        return block[i - live[r]]

    def _without_last_pole(self, i: int) -> tuple[float, float]:
        """Entry i when the sigma_{n+1} pole is out of range: it is sigma_hat_n.

        The others come from the equation without that pole; a loop, not a
        recursion, walks down a run of such poles (all of [A b]'s singular
        values tied, say). Each step adds its Delta_n to the gap.
        """
        node, below = self, 0.0
        while not node._usable:
            if i == len(node._sigma) - 2:
                return float(node._sigma[-1]), below
            if node._rest is None:
                v_rest = node._v_last[:-1].copy()
                v_rest[-1] = np.hypot(v_rest[-1], node._v_last[-1])
                node._rest = SigmaHatRoots(node._sigma[:-1], v_rest)
            below += node._gap_n * node._scale**2
            node = node._rest
        hat, gap = node.at(i)
        return hat, gap + below

    def values(self) -> np.ndarray:
        """Every sigma_hat, descending: one root per value."""
        return np.array([self.at(i)[0] for i in range(len(self._sigma) - 1)])


@dataclass(frozen=True)
class SvdBundle:
    """The thin SVD of [A b] (plain quantities) and A's smallest singular value (hatted)."""

    rows: np.ndarray       # (k, n+1): [A b] (k = m) or its R factor (k = n+1)
    sigma: np.ndarray      # (n+1,) singular values of [A b], descending
    u_aug: np.ndarray      # (k, n+1), left factor of [A b] in the row basis of rows
    v_aug: np.ndarray      # (n+1, n+1)
    sigma_hat_n: float     # smallest singular value of A
    delta: float           # sigma_hat_n^2 - sigma_{n+1}^2, from a secular root, not a difference
    roots: SigmaHatRoots = field(repr=False, compare=False)  # every other sigma_hat, on request

    @property
    def n(self) -> int:
        return self.sigma.shape[0] - 1

    @cached_property
    def sigma_hat(self) -> np.ndarray:
        """(n,) every singular value of A, descending (n roots: for checks and tests)."""
        return self.roots.values()

    def orthonormality_defect(self) -> float:
        """Max Frobenius deviation of the two factors of [A b] from orthonormal columns."""
        return max(
            np.linalg.norm(f.T @ f - np.eye(f.shape[1])) for f in (self.u_aug, self.v_aug)
        )

    def reconstruction_defect(self, problem: TlsProblem) -> float:
        """Relative Frobenius residual of the SVD of [A b] (rebuilds Q when rows is R)."""
        aug = problem.augmented()
        aug_fit = self.u_aug * self.sigma @ self.v_aug.T
        if self.rows.shape[0] < aug.shape[0]:
            aug_fit = np.linalg.qr(aug)[0] @ aug_fit
        return float(np.linalg.norm(aug_fit - aug) / max(np.linalg.norm(aug), 1e-300))

    def interlacing_defect(self) -> float:
        """Worst violation of sigma_i >= sigma_hat_i >= sigma_{i+1}, scaled by sigma_1."""
        upper = np.max(self.sigma_hat - self.sigma[:-1], initial=0.0)
        lower = np.max(self.sigma[1:] - self.sigma_hat, initial=0.0)
        return max(upper, lower) / max(self.sigma[0], 1e-300)


@dataclass(frozen=True)
class GapDiagnostics:
    """Existence/uniqueness classification of a bundle."""

    gap_ok: bool            # delta > 0, i.e. sigma_{n+1} < sigma_hat_n
    nontrivial: bool        # sigma_{n+1} > 0
    rel_gap: float          # (sigma_hat_n - sigma_{n+1}) / sigma_hat_n, from delta
    ratio_sigma_n: float    # sigma_{n+1} / sigma_n
    ratio_sigma_hat_n: float  # sigma_{n+1} / sigma_hat_n = 1 - rel_gap

    @property
    def solvable(self) -> bool:
        return self.gap_ok and self.nontrivial

    def gate(self, what: str) -> tuple[str, ...]:
        """Gate of the P-based routes: raise below HARD_GAP_LIMIT, warn below WARN_GAP_LIMIT."""
        if self.rel_gap < HARD_GAP_LIMIT:
            raise IllConditionedGap(
                f"rel_gap={self.rel_gap:.3e} < {HARD_GAP_LIMIT}: {what} is numerically singular"
            )
        if self.rel_gap < WARN_GAP_LIMIT:
            return (f"rel_gap={self.rel_gap:.3e} < {WARN_GAP_LIMIT}: {what} nearly singular",)
        return ()


@dataclass(frozen=True)
class IdentityResiduals:
    """Scaled residuals of the three solution identities.

    optimal_value:   | ||r||^2/(1+||x||^2) - sigma_{n+1}^2 | / sigma_{n+1}^2
    gradient:        || A^T r - sigma_{n+1}^2 x || / (sigma_{n+1}^2 max(1, ||x||))
    singular_vector: || v_{n+1} - alpha [x; -1] ||  (after sign normalization)
    """

    optimal_value: float
    gradient: float
    singular_vector: float


@dataclass(frozen=True)
class TlsSolution:
    x: np.ndarray                 # (n,)
    r: np.ndarray                 # (m,), r = A x - b
    alpha: float                  # 1/sqrt(1 + ||x||^2), in (0, 1]
    last_right_vector: np.ndarray  # v_{n+1}, sign-normalized so last entry = -alpha
    gap: GapDiagnostics           # check_uniqueness of the bundle, decided once

    @property
    def norm_x(self) -> float:
        return float(np.linalg.norm(self.x))


@dataclass(frozen=True)
class ResidualReport:
    identities: IdentityResiduals
    normal_eq_rel_diff: float | None  # None below HARD_GAP_LIMIT, where P is singular
    gap_chain_lower: float | None  # |u_hat_n . b| / (2 ||x||)
    gap_chain_mid: float | None    # sigma_hat_n - sigma_{n+1}, from delta
    gap_chain_upper: float | None  # ||b|| / ||x||
    gap_chain_holds: bool | None   # None when x = 0 (chain not applicable)


def svd_bundle(problem: TlsProblem) -> SvdBundle:
    """The thin SVD of [A b], descending, via its R when m >= 2(n+1); sigma_hat_n and delta."""
    rows = problem.augmented()
    try:
        if problem.m >= 2 * (problem.n + 1):
            rows = np.linalg.qr(rows, mode="r")
        u_aug, sigma, vt_aug = np.linalg.svd(rows, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed: {exc}") from exc
    roots = SigmaHatRoots(sigma, vt_aug[:, -1])  # v: the last row of V
    sigma_hat_n, delta = roots.at(-1)
    return SvdBundle(rows, sigma, u_aug, vt_aug.T, sigma_hat_n, delta, roots)


def check_uniqueness(bundle: SvdBundle) -> GapDiagnostics:
    """Classify the gap condition 0 < sigma_{n+1} < sigma_hat_n from delta."""
    sig_hat_n, delta = bundle.sigma_hat_n, bundle.delta
    sig_last = float(bundle.sigma[-1])
    sig_n = float(bundle.sigma[-2])
    rel_gap = delta / (sig_hat_n * (sig_hat_n + sig_last)) if sig_hat_n > 0 else 0.0
    return GapDiagnostics(
        gap_ok=delta > 0.0,
        nontrivial=sig_last > 0.0,
        rel_gap=rel_gap,
        ratio_sigma_n=sig_last / sig_n if sig_n > 0 else 0.0,
        ratio_sigma_hat_n=1.0 - rel_gap if sig_hat_n > 0 else 0.0,
    )


def solve_tls(problem: TlsProblem, bundle: SvdBundle) -> TlsSolution:
    """Solve the TLS problem from its trailing right singular vector.

    Raises NoUniqueSolution when the gap fails, TrivialProblem when
    sigma_{n+1} = 0, and DegenerateVector when the vector's last entry is
    numerically zero despite a valid gap (an upstream SVD failure).
    """
    diag = check_uniqueness(bundle)
    if not diag.gap_ok:
        raise NoUniqueSolution(
            f"sigma_{{n+1}}={bundle.sigma[-1]:.6e} >= sigma_hat_n={bundle.sigma_hat_n:.6e}"
        )
    if not diag.nontrivial:
        raise TrivialProblem("sigma_{n+1} = 0: b in range(A), take [E r] = 0")

    v_last = bundle.v_aug[:, -1].copy()
    if abs(v_last[-1]) <= 1e-14:
        raise DegenerateVector("v_{n+1}(n+1) ~ 0 contradicts the gap condition")
    if v_last[-1] > 0:
        v_last = -v_last

    x = -v_last[:-1] / v_last[-1]
    alpha = 1.0 / np.hypot(1.0, np.linalg.norm(x))
    r = problem.a_matrix @ x - problem.b_vector
    return TlsSolution(x=x, r=r, alpha=float(alpha), last_right_vector=v_last, gap=diag)


def residual_diagnostics(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> ResidualReport:
    """Identity residuals, the normal-equations cross-check and the gap chain.

    The cross-check P^{-1} A^T b runs only at relative gap >= HARD_GAP_LIMIT.
    The chain |u_hat_n . b| / (2||x||) <= sigma_hat_n - sigma_{n+1} <= ||b||/||x||
    is only defined for x != 0; for x = 0 its entries are None. Its u_hat_n
    comes from an SVD of A run here, as the bundle holds A's singular values only.
    """
    a, x, r, alpha = problem.a_matrix, solution.x, solution.r, solution.alpha
    sig2 = float(bundle.sigma[-1]) ** 2
    norm_x = solution.norm_x
    identities = IdentityResiduals(
        optimal_value=float(abs(r @ r / (1.0 + norm_x**2) - sig2) / sig2),
        gradient=float(np.linalg.norm(a.T @ r - sig2 * x) / (sig2 * max(1.0, norm_x))),
        singular_vector=float(np.linalg.norm(
            solution.last_right_vector - alpha * np.concatenate([x, [-1.0]])
        )),
    )
    normal_eq_rel_diff = None
    if solution.gap.rel_gap >= HARD_GAP_LIMIT:
        p = a.T @ a - bundle.sigma[-1] ** 2 * np.eye(problem.n)
        x_ne = np.linalg.solve(p, a.T @ problem.b_vector)
        normal_eq_rel_diff = float(np.linalg.norm(x_ne - x) / max(1.0, norm_x))
    if norm_x == 0.0:
        return ResidualReport(identities, normal_eq_rel_diff, None, None, None, None)
    # rows[:, -1] is b, or Q^T b on the QR route: either way u_hat_n . b
    u_hat = np.linalg.svd(bundle.rows[:, : problem.n], full_matrices=False)[0]
    lower = abs(u_hat[:, -1] @ bundle.rows[:, -1]) / (2.0 * norm_x)
    mid = bundle.delta / (bundle.sigma_hat_n + float(bundle.sigma[-1]))
    upper = float(np.linalg.norm(problem.b_vector)) / norm_x
    slack = 1e-12
    holds = lower <= mid * (1 + slack) + 1e-300 and mid <= upper * (1 + slack)
    return ResidualReport(identities, normal_eq_rel_diff, float(lower), mid, upper, bool(holds))
