"""One SVD per problem, A's singular values from it, gap diagnostics, the TLS solver.

The bundle is one thin SVD of [A b], of one row block: [A b], or once
m >= 2(n+1) (LAPACK's QR-first crossover) the (n+1) x (n+1) R of one
Householder QR [A b] = Q R, A = Q R[:, :n] (Chan's R-SVD). block_rows is the
one owner of that crossover rule: row_block and the perturbation lab's
stacked re-solves both ask it. The QR is LAPACK dgeqrt through
scipy.linalg.lapack on one Fortran-ordered [A b], the recursive level-3 QR of
Elmroth & Gustavson (IBM J. Res. Dev. 44, 2000), in row_block; the SVD of
that block is block_svd, numpy's dgesdd, which takes one block or a stack of
them. The alpha generator and the lab run the same two kernels (the lab
calls row_block's householder_qr itself and copies R into its stack). Q is
never formed: the left factor is in that block's row basis.
Every later Gram product reads rows[:, :n], A itself or its R_A, so on tall
problems A^T A costs O(n^3), not O(mn^2). A is not factored. As
A^T A = V1 Sigma^2 V1^T with V1 the first n rows of V and V1^T V1 = I - v v^T
(v the last row of V), the squared singular values of A are the nonzero
eigenvalues of Sigma^2 - (Sigma v)(Sigma v)^T: the roots of a downdating
secular equation (Gu & Eisenstat, SIMAX 1995), which LAPACK dlasd4 solves one
root at a time in O(n) (SigmaHatRoots, through secular_root, the one secular
kernel, which exact's kappa equation shares). Each root is solved once per
bundle, where it is first read, and every later reader takes dlasd4's cached
output: sigma_hat_n and the gap delta = sigma_hat_n^2 - sigma_{n+1}^2 with the
bundle, sigma_hat_1 and sigma_hat_{n-1} when a bound asks, the whole sigma_hat lazily.
delta is read off the root in a form centred on the sigma_{n+1} pole, so it is
accurate even where sigma_hat_n and sigma_{n+1} agree to the last bit, and it
is never rebuilt as a difference of two singular values. The distances of a
root to every pole, and |u_hat_i . b|, come from that root in O(n)
(SigmaHatRoots.pole_distances): the gap chain reads them at the top root
(b_weight_n), and the baboulin comparison route at every root, with the rows
of the deflated poles (deflated_rows), for A's right singular vectors in
closed form. So block_svd is the package's one SVD, and A is never factored.

The solver takes the trailing right singular vector of [A b], sign-normalized
so its last entry is -alpha with alpha = 1/sqrt(1 + ||x||^2), and reads the
solution off it. Its acceptance rules are accept_trailing_vector, which the
lab's stacked re-solves call too; its checks are residual_diagnostics' work.
The gap is classified once from delta and kept as TlsSolution.gap. Every
computation that forms P = A^T A - sigma_{n+1}^2 I (the normal-equations
cross-check here, exact's cholesky route and explicit K) passes one gate,
check_p: it refuses P once eps sigma_hat_1^2 / delta, the rounding of forming
P relative to its smallest eigenvalue, exceeds P_ROUNDING_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgemqrt, dgeqrt, dlasd4

from .errors import (
    ConvergenceError,
    DegenerateVector,
    IllConditionedGap,
    NoUniqueSolution,
    ShapeError,
    TrivialProblem,
)
from .problem import TlsProblem

_EPS = float(np.finfo(float).eps)
# the range kept clear of overflow and underflow in SigmaHatRoots' secular form
_NEGLIGIBLE = math.sqrt(float(np.finfo(float).tiny) / _EPS)
# the largest sigma_1 for which 4 sigma_1^2 is finite: every squared gap, and
# the rel_gap denominator sigma_hat_n (sigma_hat_n + sigma_{n+1}), is at most 2 sigma_1^2
_SCALE_LIMIT = math.sqrt(float(np.finfo(float).max) / 4)
# check_p refuses P where eps sigma_hat_1^2 / delta exceeds this
P_ROUNDING_LIMIT = 1e-8


def secular_root(
    i: int, poles: np.ndarray, z: np.ndarray, rho: float = 1.0
) -> tuple[float, np.ndarray, np.ndarray]:
    """Root i (0-based, ascending) of the secular equation of diag(d^2) + rho z z^T.

    LAPACK dlasd4 on ascending distinct poles d >= 0 and a unit z with no zero
    entry; the one secular kernel of the package. Returns (root, delta, work):
    root^2 is the eigenvalue, and delta * work = d^2 - root^2 without
    cancellation.
    """
    delta, root, work, info = dlasd4(i, poles, z, rho)
    if info != 0:
        raise ConvergenceError(f"dlasd4 failed (info={info})")
    return root, delta, work


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
    alpha = |v_{n+1}|. secular_root solves it as dlasd4's diag(d^2) + z z^T
    with d = sqrt(q) / ||w|| and z = w / ||w||, scaled once here so that dlasd4
    sees rho = 1 (it fails far above the poles): its ascending root r gives
    mu = ||w||^2 root^2 and sigma_hat_{r+1}, and Delta_n / mu is that value's
    gap to sigma_{n+1}: so delta = sigma_hat_n^2 - sigma_{n+1}^2 comes from the
    top root, never from a difference, and no root has to pass near the zero
    eigenvalue. Everything is scaled by 1/sigma_1.

    Deflation runs on that form, pole by pole (relative): a deflated pole's
    sigma_j is itself a sigma_hat. Where the form is out of range (alpha or
    Delta_n zero, or ||w||^2 past 1/_NEGLIGIBLE, so that delta would be below
    _NEGLIGIBLE Delta_n), sigma_hat_n = sigma_{n+1}, delta = 0, and the others
    are the roots of the same equation without the sigma_{n+1} pole, its
    weight merged into sigma_n's. The squared gaps are returned unscaled, so a
    sigma_1 past _SCALE_LIMIT (about 6.7e153), whose square would overflow,
    raises ShapeError.
    """

    def __init__(self, sigma: np.ndarray, v_last: np.ndarray):
        self._sigma, self._v_last = sigma, v_last
        self._scale = float(sigma[0]) if sigma[0] > 0 else 1.0
        if self._scale > _SCALE_LIMIT:
            raise ShapeError(
                f"sigma_1={self._scale:.3e}: its square overflows float64 (limit "
                f"{_SCALE_LIMIT:.3e}); rescale the data"
            )
        head, last = sigma[:-1] / self._scale, float(sigma[-1]) / self._scale
        self._gaps = (head - last) * (head + last)  # Delta_j / sigma_1^2, descending
        self._last2 = last * last
        self._solved: dict[int, tuple] = {}  # live root r: dlasd4's (root, delta, work)
        self._live = None  # None: every pole is live
        self._rest: SigmaHatRoots | None = None  # the equation without sigma_{n+1}
        alpha, self._gap_n = abs(float(v_last[-1])), float(self._gaps[-1])
        self._usable = alpha > _NEGLIGIBLE and self._gap_n > 0.0
        if not self._usable:
            return
        root_poles = np.sqrt(self._gap_n / self._gaps)
        weights = v_last[:-1] * (root_poles / alpha)  # each below 1/_NEGLIGIBLE
        self._rho = float(weights @ weights)
        self._usable = self._rho < 1.0 / _NEGLIGIBLE
        if not self._usable:
            return
        z, self._rep = deflate(root_poles, weights, relative=True)
        if z is not weights and not z.all():
            self._live = np.flatnonzero(z)
            z, root_poles = z[self._live], root_poles[self._live]
        self._rho = float(z @ z)
        norm = math.sqrt(self._rho) or 1.0  # z is empty when every weight deflated
        self._poles, self._z = root_poles / norm, z / norm

    def at(self, i: int) -> tuple[float, float]:
        """(sigma_hat_{i+1}, sigma_hat_{i+1}^2 - sigma_{n+1}^2) for a 0-based (or negative) i."""
        i %= len(self._sigma) - 1
        if not self._usable:
            return self._without_last_pole(i)
        return self._root(i) if self._live is None else self._deflated_at(i)

    def _solve(self, r: int) -> tuple:
        """dlasd4's (root, delta, work) at live root r, solved once per bundle."""
        if r not in self._solved:
            self._solved[r] = secular_root(r, self._poles, self._z)
        return self._solved[r]

    def _gap(self, root):
        """Delta_n / mu, mu = ||w||^2 root^2: sigma_hat^2 - sigma_{n+1}^2 over sigma_1^2."""
        return self._gap_n / (root * root * self._rho)

    def _root(self, r: int) -> tuple[float, float]:
        gap = self._gap(self._solve(r)[0])
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

    def pole_distances(self, roots=None) -> tuple[np.ndarray, np.ndarray]:
        """(dist, weight) at the given live roots (the r-th largest sigma_hat
        that is not a deflated pole), all by default, in O(n) each.

        dist[k, j] = sigma_j^2 - sigma_hat^2, j <= n+1, without cancellation:
        -Delta_j (d_j^2 - root^2) / root^2 from dlasd4's delta * work (a merged
        pole takes its partner's, a dropped weight's is inf), -gap at sigma_{n+1}.
        weight[k] = |u_hat . b| = 1 / ||y||, y = (Sigma^2 - sigma_hat^2 I)^{-1}
        Sigma v: b = U Sigma v, u_hat = U y / ||y||, and y . Sigma v = 1.
        """
        roots = range(len(self._poles)) if roots is None else roots
        root, delta, work = np.empty(len(roots)), *np.empty((2, len(roots), len(self._poles)))
        for k, r in enumerate(roots):
            root[k], delta[k], work[k] = self._solve(r)
        live = slice(None) if self._live is None else self._live
        dist = np.full((len(roots), len(self._gaps)), np.inf)
        dist[:, live] = -self._gaps[live] * (delta * work) / (root * root)[:, None]
        dist = np.append(dist[:, self._rep], -self._gap(root)[:, None], axis=1)
        weight = 1.0 / np.linalg.norm(self._sigma / self._scale * self._v_last / dist, axis=1)
        return dist * self._scale**2, weight * self._scale

    def deflated_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(gap, rows) at each sigma_hat that is a deflated pole sigma_j.

        rows[k] = vhat^T V11 for A's right singular vector vhat = V1 Sigma c /
        ||V1 Sigma c||, c an eigenvector of Sigma^2 - (Sigma v)(Sigma v)^T at
        sigma_j^2. A dropped weight has c = e_j, so its row is (I - v v^T)[j, :n]
        / sqrt(1 - v_j^2). A tie group G merged into one pole has each unit c in
        R^G orthogonal to v as a row: here every row but the last of the
        Householder reflector that maps v_G to -+e_last.
        """
        n, v, own = len(self._sigma) - 1, self._v_last, np.arange(len(self._rep))
        if self._live is None:
            return np.empty(0), np.empty((0, n))
        poles = [np.setdiff1d(own[self._rep == own], self._live)]  # the dropped weights
        rows = [(np.eye(n)[poles[0]] - np.outer(v[poles[0]], v[:n]))
                / np.sqrt(1.0 - v[poles[0]] ** 2)[:, None]]
        for k in np.unique(self._rep[self._rep != own]):
            group = np.flatnonzero(self._rep == k)
            w = v[group] / np.linalg.norm(v[group])
            w[-1] += math.copysign(1.0, w[-1])
            poles.append(group[:-1])
            rows.append(np.zeros((len(group) - 1, n)))
            rows[-1][:, group] = np.eye(len(group))[:-1] - np.outer(w[:-1], w) * (2.0 / (w @ w))
        return self._gaps[np.concatenate(poles)] * self._scale**2, np.vstack(rows)

    def b_weight_n(self) -> float:
        """|u_hat_n . b|, the weight of b on A's last left singular vector, in O(n).

        pole_distances at the top root, whose gap is delta itself, read from the
        same cached root, unless sigma_hat_n is a deflated pole. A deflated pole
        carries no weight of b, so there the weight is 0, as it is at delta = 0.
        Where sigma_hat_n is tied, u_hat_n is not unique, and neither is this
        weight.
        """
        delta = self.at(-1)[1]
        if delta == 0.0 or not len(self._poles):
            return 0.0  # delta = 0, or every weight deflated (sigma_hat_n = sigma_n)
        dist, weight = self.pole_distances([len(self._poles) - 1])
        return float(weight[0]) if -dist[0, -1] == delta else 0.0


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
        return np.array([self.roots.at(i)[0] for i in range(self.n)])

    def orthonormality_defect(self) -> float:
        """Max Frobenius deviation of the two factors of [A b] from orthonormal columns."""
        return max(
            np.linalg.norm(f.T @ f - np.eye(f.shape[1])) for f in (self.u_aug, self.v_aug)
        )

    def reconstruction_defect(self, problem: TlsProblem) -> float:
        """Relative Frobenius residual of the SVD of [A b].

        When rows is R, Q is rebuilt by the bundle's own kernel: dgeqrt of a
        fresh copy of [A b], applied to [U Sigma V^T; 0] by dgemqrt.
        """
        aug = problem.augmented()
        aug_fit = self.u_aug * self.sigma @ self.v_aug.T
        if self.rows.shape[0] < aug.shape[0]:
            qr, t = householder_qr(np.array(aug, order="F"))
            padded = np.zeros(aug.shape, order="F")
            padded[: self.rows.shape[0]] = aug_fit
            aug_fit, info = dgemqrt(qr, t, padded, overwrite_c=1)
            if info != 0:
                raise ConvergenceError(f"dgemqrt failed (info={info})")
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


@dataclass(frozen=True)
class TlsSolution:
    x: np.ndarray                 # (n,)
    r: np.ndarray                 # (m,), r = A x - b
    alpha: float                  # 1/sqrt(1 + ||x||^2), in (0, 1]
    last_right_vector: np.ndarray  # v_{n+1}, sign-normalized so last entry = -alpha
    gap: GapDiagnostics           # the bundle's gap, classified once by the solver

    @property
    def norm_x(self) -> float:
        return float(np.linalg.norm(self.x))


@dataclass(frozen=True)
class ResidualReport:
    """Scaled residuals of the three solution identities, the cross-check and the gap chain.

    optimal_value:   | ||r||^2/(1+||x||^2) - sigma_{n+1}^2 | / sigma_{n+1}^2
    gradient:        || A^T r - sigma_{n+1}^2 x || / (sigma_{n+1}^2 max(1, ||x||))
    singular_vector: || v_{n+1} - alpha [x; -1] ||  (after sign normalization)
    """

    optimal_value: float
    gradient: float
    singular_vector: float
    normal_eq_rel_diff: float | None  # None where check_p refuses P
    gap_chain_lower: float | None  # |u_hat_n . b| / (2 ||x||)
    gap_chain_mid: float | None    # sigma_hat_n - sigma_{n+1}, from delta
    gap_chain_upper: float | None  # ||b|| / ||x||
    gap_chain_holds: bool | None   # None when x = 0 (chain not applicable)


def householder_qr(aug: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK dgeqrt of a Fortran-ordered m x (n+1) array, overwriting it.

    Returns the array (R on and above the diagonal, the reflectors below) and
    the block reflector factors T. One fixed block size, min(32, n+1).
    """
    qr, t, info = dgeqrt(min(32, aug.shape[1]), aug, overwrite_a=1)
    if info != 0:
        raise ConvergenceError(f"dgeqrt failed (info={info})")
    return qr, t


def block_rows(m: int, k: int) -> int:
    """The rows of the row block of an m x k array: k once m >= 2k (LAPACK's
    QR-first crossover, where the block is R), else m (the array itself)."""
    return k if m >= 2 * k else m


def row_block(aug: np.ndarray) -> np.ndarray:
    """The row block of a Fortran-ordered m x k array: aug = Q rows.

    rows is aug itself, or past block_rows' crossover the k x k R of one
    dgeqrt (block size min(32, k), no workspace query), which overwrites aug.
    A tall R agrees with the R of dgeqrf (numpy's qr) to rounding, with the
    same diagonal signs, not bit for bit.
    """
    m, k = aug.shape
    return aug if block_rows(m, k) == m else np.triu(householder_qr(aug)[0][:k])


def block_svd(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, sigma, vt), the thin SVD of one block or of a stack of blocks.

    numpy's dgesdd, one call for the whole stack; it works on its own copy of
    each block, so rows stays intact, and returns C-contiguous factors. Each
    block's factors are bitwise those of its own call. u is in the row basis
    of rows and is never applied back to m rows.
    """
    try:
        return np.linalg.svd(rows, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dgesdd failed ({exc})") from exc


def svd_bundle(problem: TlsProblem) -> SvdBundle:
    """The thin SVD of [A b], descending, via its R when m >= 2(n+1); sigma_hat_n and delta.

    block_svd of the row_block of one private Fortran-ordered copy of [A b].
    """
    m, n = problem.m, problem.n
    aug = np.empty((m, n + 1), order="F")
    aug[:, :n], aug[:, n] = problem.a_matrix, problem.b_vector
    rows = row_block(aug)
    u_aug, sigma, vt_aug = block_svd(rows)
    roots = SigmaHatRoots(sigma, vt_aug[:, -1])  # v: the last row of V
    sigma_hat_n, delta = roots.at(-1)
    return SvdBundle(rows, sigma, u_aug, vt_aug.T, sigma_hat_n, delta, roots)


def _classify_gap(sigma: np.ndarray, sig_hat_n: float, delta: float) -> GapDiagnostics:
    sig_last = float(sigma[-1])
    sig_n = float(sigma[-2])
    rel_gap = delta / (sig_hat_n * (sig_hat_n + sig_last)) if sig_hat_n > 0 else 0.0
    return GapDiagnostics(
        gap_ok=delta > 0.0,
        nontrivial=sig_last > 0.0,
        rel_gap=rel_gap,
        ratio_sigma_n=sig_last / sig_n if sig_n > 0 else 0.0,
        ratio_sigma_hat_n=1.0 - rel_gap if sig_hat_n > 0 else 0.0,
    )


def accept_trailing_vector(
    sigma: np.ndarray, v_last: np.ndarray, sig_hat_n: float, delta: float
) -> tuple[GapDiagnostics, np.ndarray]:
    """The solver's rules on one SVD of [A b]: its gap, and v_{n+1} with its sign fixed.

    Raises NoUniqueSolution when the gap fails, TrivialProblem when
    sigma_{n+1} = 0, and DegenerateVector when the vector's last entry is
    numerically zero despite a valid gap (an upstream SVD failure). Returns
    a copy of v_last (V's last column) negated where needed so that its last
    entry is -alpha.
    """
    diag = _classify_gap(sigma, sig_hat_n, delta)
    if not diag.gap_ok:
        raise NoUniqueSolution(f"sigma_{{n+1}}={sigma[-1]:.6e} >= sigma_hat_n={sig_hat_n:.6e}")
    if not diag.nontrivial:
        raise TrivialProblem("sigma_{n+1} = 0: b in range(A), take [E r] = 0")
    if abs(v_last[-1]) <= 1e-14:
        raise DegenerateVector("v_{n+1}(n+1) ~ 0 contradicts the gap condition")
    return diag, -v_last if v_last[-1] > 0 else v_last.copy()


def solve_tls(problem: TlsProblem, bundle: SvdBundle) -> TlsSolution:
    """Solve the TLS problem from its trailing right singular vector.

    The checks and the sign are accept_trailing_vector's: NoUniqueSolution,
    TrivialProblem or DegenerateVector.
    """
    diag, v_last = accept_trailing_vector(
        bundle.sigma, bundle.v_aug[:, -1], bundle.sigma_hat_n, bundle.delta
    )
    x = -v_last[:-1] / v_last[-1]
    alpha = 1.0 / np.hypot(1.0, np.linalg.norm(x))
    r = problem.a_matrix @ x - problem.b_vector
    return TlsSolution(x=x, r=r, alpha=float(alpha), last_right_vector=v_last, gap=diag)


def check_p(bundle: SvdBundle) -> float:
    """eps sigma_hat_1^2 / delta, the one gate of every computation that forms P.

    Forming P = A^T A - sigma_{n+1}^2 I rounds it by about eps ||A^T A|| =
    eps sigma_hat_1^2, and its smallest eigenvalue is delta: the quotient is
    P's relative rounding, eps cond(P) where sigma_{n+1} << sigma_hat_1.
    Raises IllConditionedGap above P_ROUNDING_LIMIT, where a solve against P
    has lost the digits that an agreement to 1e-8 needs; on alpha and
    deblurring problems the cholesky route and the explicit K were off the
    svd route by at most 0.6 times the quotient. sigma_hat_1 is the bundle's
    top secular root, solved here once per bundle if no bound has read it.
    """
    rounding = _EPS * bundle.roots.at(0)[0] ** 2 / bundle.delta
    if rounding > P_ROUNDING_LIMIT:
        raise IllConditionedGap(f"eps sigma_hat_1^2/delta={rounding:.3e} > "
                                f"{P_ROUNDING_LIMIT:g}: P is numerically singular")
    return rounding


def residual_diagnostics(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> ResidualReport:
    """Identity residuals, the normal-equations cross-check and the gap chain.

    The cross-check P^{-1} A^T b runs only where check_p accepts P.
    The chain |u_hat_n . b| / (2||x||) <= sigma_hat_n - sigma_{n+1} <= ||b||/||x||
    is only defined for x != 0; for x = 0 its entries are None. Its
    |u_hat_n . b| is the bundle's SigmaHatRoots.b_weight_n, O(n) from the root
    that gives delta: no SVD of A runs here. The cross-check's Gram products
    read rows: P = R_A^T R_A - sigma_{n+1}^2 I and A^T b = R_A^T (Q^T b) on the
    QR route, where rows[:, -1] holds Q^T b.
    The identities and the cross-check run on the data scaled by 1/sigma_1,
    as their quotients do not depend on scale, so no product overflows below
    the bundle's sigma_1 limit.
    Each inequality is judged with an absolute slack of 4 eps sigma_1, the
    rounding of both ends: on the deblurring problems the lower end meets the
    gap to about eight digits, and near alpha = 1e-8 the gap is below eps sigma_1.
    """
    x, alpha, norm_x = solution.x, solution.alpha, solution.norm_x
    scale = float(bundle.sigma[0])  # > 0: sigma_{n+1} > 0 for a solution
    r, sig2 = solution.r / scale, (float(bundle.sigma[-1]) / scale) ** 2
    identities = (
        float(abs(r @ r / (1.0 + norm_x**2) - sig2) / sig2),
        float(np.linalg.norm(problem.a_matrix.T @ r / scale - sig2 * x)
              / (sig2 * max(1.0, norm_x))),
        float(np.linalg.norm(solution.last_right_vector - alpha * np.concatenate([x, [-1.0]]))),
    )
    try:
        check_p(bundle)
        rows = bundle.rows / scale
        r_a = rows[:, : problem.n]
        p = r_a.T @ r_a - sig2 * np.eye(problem.n)
        x_ne = np.linalg.solve(p, r_a.T @ rows[:, -1])
        normal_eq_rel_diff = float(np.linalg.norm(x_ne - x) / max(1.0, norm_x))
    except IllConditionedGap:
        normal_eq_rel_diff = None
    if norm_x == 0.0:
        return ResidualReport(*identities, normal_eq_rel_diff, None, None, None, None)
    lower = bundle.roots.b_weight_n() / (2.0 * norm_x)
    mid = bundle.delta / (bundle.sigma_hat_n + float(bundle.sigma[-1]))
    upper = scale * float(np.linalg.norm(problem.b_vector / scale)) / norm_x
    # the backward error of the SVD of [A b] and of the root that gives delta
    slack = 4.0 * _EPS * float(bundle.sigma[0])
    holds = lower <= mid + slack and mid <= upper + slack
    return ResidualReport(*identities, normal_eq_rel_diff, float(lower), mid, upper, bool(holds))
