"""One SVD per problem, A's singular values from it, gap diagnostics, the TLS solver.

The bundle is what the paper's formulas read of the SVD of [A b]: its
singular values sigma, b_row, b's row of the right factor V (the last
entries of the right singular vectors), and v_{n+1}, V's last column. They
come from one row block: [A b], or once m >= 2(n+1) (LAPACK's QR-first
crossover) the (n+1) x (n+1) R of one Householder QR [A b] = Q R, A = Q
R[:, :n] (Chan's R-SVD). block_rows is the one owner of that crossover rule:
row_block and the perturbation lab's stacked re-solves both ask it. The QR
is LAPACK dgeqrt through scipy.linalg.lapack on one Fortran-ordered [A b],
the recursive level-3 QR of Elmroth & Gustavson (IBM J. Res. Dev. 44, 2000),
in row_block; the SVD of that block is block_svd, the one door through which
the bundle and the lab's stacks are factored. It takes one block or a stack
of them, refuses entries that are not finite, scales each block by the power
of two that puts its largest entry in [1/2, 1), which is exact, and scales
sigma back: every result but sigma is bitwise the same for the block times
any power of two that neither overflows nor underflows. A block at least
V_ONLY_WIDTH wide goes through few_value_svd: dgebrd bidiagonalizes [b, the
other columns] (Golub-Kahan started from b, so b's row of V is the first row
of the bidiagonal's own V_B), dbdsqr gives sigma and that row with one VT
column in O(n^2), and v_{n+1} is the Golub-Kahan tridiagonal's eigenvector at
+sigma_{n+1} (dstebz, dstein; O(n)) through one dormbr column. A narrower
block goes through numpy's dgesdd (full_svd), whose U is dropped and whose
V^T gives both. The C entry points of dgebrd, dbdsqr and dormbr are called
through scipy.linalg.cython_lapack and ctypes. The rule reads the width
alone, so a block factored in a stack gets the bits of its own call.
The bundle holds no whole V. right_factor forms V^T of a row block by
full_svd at every width: numpy's dgesdd of the block, scaled by block_svd's
power of two, with dgesdd's signs. Its one reader is the perturbation lab's
worst direction, on the bundle's read-only rows; below V_ONLY_WIDTH it is
block_svd's own call, bitwise the V^T that gave b_row and v_last. The alpha
generator takes the whole V of its random draw from full_svd too. The lab's
tall stacks of 2(n+1)-row sums narrower than perturb.STACKED_QR_WIDTH are
reduced to R by one stacked numpy QR (dgeqrf block by block); wider ones,
and its worst direction's, by householder_qr, a block at a time, with R
copied into its stack. Neither Q nor any left singular factor is kept.
Every later Gram product reads rows[:, :n], A itself or its R_A, so on tall
problems A^T A costs O(n^3), not O(mn^2). A is not factored. As
A^T A = V1 Sigma^2 V1^T with V1 the first n rows of V and V1^T V1 = I - v v^T
(v the last row of V), the squared singular values of A are the nonzero
eigenvalues of Sigma^2 - (Sigma v)(Sigma v)^T: the roots of a downdating
secular equation (Gu & Eisenstat, SIMAX 1995), which LAPACK dlasd4 solves one
root at a time in O(n) (SigmaHatRoots, through SecularEquation, dlasd4's one
front end, which deflates, scales and solves exact's kappa equation too;
scaled to unit weights, no root depends on the scale of [A b]). Each root is
solved once per bundle, where it is first read, and every later reader takes
dlasd4's cached output: sigma_hat_n and the gap delta = sigma_hat_n^2 -
sigma_{n+1}^2 with the bundle, sigma_hat_1 and sigma_hat_{n-1} when a bound
asks, any other root through roots.at.
delta is read off the root in a form centred on the sigma_{n+1} pole, so it is
accurate even where sigma_hat_n and sigma_{n+1} agree to the last bit, and it
is never rebuilt as a difference of two singular values. The distances of a
root to every pole, and |u_hat_i . b|, come from that root in O(n)
(SigmaHatRoots.pole_distances): the gap chain reads them at the top root
(b_weight_n), and the baboulin comparison route at every root, with the rows
of the deflated poles (deflated_rows), for A's right singular vectors in
closed form. So block_svd is the package's one SVD of a row block (full_svd,
its narrow kernel, gives the whole V through right_factor where the lab reads
it), and A is never factored.

The solver takes the trailing right singular vector of [A b], sign-normalized
so its last entry is -alpha with alpha = 1/sqrt(1 + ||x||^2), and reads the
solution off it. Each of its rules has one owner: check_gap refuses delta <= 0
and classifies the gap (kept as TlsSolution.gap), and trailing_vector's rules
do not read the gap. solve_tls calls both; the lab's stacked re-solves call
both, or trailing_vector alone on a step whose gap Weyl's inequality has
certified. P = A^T A - sigma_{n+1}^2 I is formed in one function, gated_p,
for every computation that reads it (the normal-equations cross-check here,
exact's cholesky route and explicit K). It passes one gate first, check_p:
P is refused once eps sigma_hat_1^2 / delta, the rounding of forming P
relative to its smallest eigenvalue, exceeds P_ROUNDING_LIMIT.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgeqrt, dlasd4, dstebz, dstein

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
_TINY = float(np.finfo(float).tiny)
_NEGLIGIBLE = math.sqrt(_TINY / _EPS)
# the largest sigma_1 for which 4 sigma_1^2 is finite: every squared gap, and
# the rel_gap denominator sigma_hat_n (sigma_hat_n + sigma_{n+1}), is at most 2 sigma_1^2
_SCALE_LIMIT = math.sqrt(float(np.finfo(float).max) / 4)
# check_p refuses P where eps sigma_hat_1^2 / delta exceeds this
P_ROUNDING_LIMIT = 1e-8


def _check_info(name: str, info) -> None:
    """ConvergenceError naming the LAPACK routine whose info is not 0."""
    if info != 0:
        raise ConvergenceError(f"{name} failed (info={info})")


class SecularEquation:
    """The secular equation of diag(d^2) + w w^T on ascending poles d >= 0.

    The package's one front end to LAPACK dlasd4, which needs strictly
    ascending poles and nonzero weights. Deflation runs pole by pole, with
    tol_j = 8 eps d_j, which keeps every root's relative accuracy: a weight
    within tol_j of 0 is dropped, and a pole within tol_k of the next live
    pole d_k hands its weight to it by a rotation. Each deflated d_j^2 is
    itself an eigenvalue. live lists the poles that keep a weight (None
    where every pole does), rep the pole each weight was merged into. The
    live equation is scaled to unit weights, poles d / norm and z / norm with
    norm = ||z||, so that dlasd4 sees rho = 1: it fails far above the poles.
    Each live root is solved once, where it is first read.
    """

    def __init__(self, poles: np.ndarray, weights: np.ndarray):
        tol = 8.0 * _EPS * poles
        self.rep, self.live, z = np.arange(len(weights)), None, weights
        if not ((np.abs(weights) > tol).all() and (poles[1:] - poles[:-1] > tol[1:]).all()):
            z = np.where(np.abs(weights) > tol, weights, 0.0)
            live = np.flatnonzero(z)
            for t in np.flatnonzero(np.diff(poles[live]) <= tol[live[1:]]):
                prev, k = live[t], live[t + 1]
                z[k], z[prev] = np.hypot(z[k], z[prev]), 0.0
                self.rep[self.rep == prev] = k
            self.live = np.flatnonzero(z)  # some weight is 0: dropped or merged
            z, poles = z[self.live], poles[self.live]
        self.rho = float(z @ z)
        self.norm = math.sqrt(self.rho) or 1.0  # z is empty when every weight deflated
        self.poles, self._z = poles / self.norm, z / self.norm
        self._solved: dict[int, tuple] = {}

    def solve(self, r: int) -> tuple[float, np.ndarray, np.ndarray]:
        """(root, delta, work) at live root r (0-based, ascending) of the scaled
        equation: root^2 is its eigenvalue, and delta * work = poles^2 - root^2
        without cancellation."""
        if r not in self._solved:
            delta, root, work, info = dlasd4(r, self.poles, self._z, 1.0)
            _check_info("dlasd4", info)
            self._solved[r] = root, delta, work
        return self._solved[r]

    def spread(self, values: np.ndarray) -> np.ndarray:
        """values over the live poles (last axis) at every pole: a merged pole
        takes its partner's, a dropped weight inf."""
        if self.live is None:
            return values
        out = np.full(values.shape[:-1] + (len(self.rep),), np.inf)
        out[..., self.live] = values
        return out[..., self.rep]


class SigmaHatRoots:
    """A's singular values from the singular values of [A b] and V's last row v, b's row.

    A^T A = V1 Sigma^2 V1^T with V1 the first n rows of V, and V1^T V1 =
    I - v v^T, so the sigma_hat^2 are the nonzero eigenvalues of Sigma^2 -
    (Sigma v)(Sigma v)^T: the n roots of g(lam) = sum_j v_j^2 / (sigma_j^2 - lam),
    one between each pair of adjacent sigma_j^2 (its downdating secular
    equation with the zero root divided out). Shifted and inverted at the
    sigma_{n+1} pole, lam = sigma_{n+1}^2 + Delta_n / mu with Delta_j =
    sigma_j^2 - sigma_{n+1}^2, g = 0 is the secular equation of diag(q) + w w^T,
    q_j = Delta_n / Delta_j in (0, 1] ascending and w_j = (v_j / alpha) sqrt(q_j),
    alpha = |v_{n+1}|, a SecularEquation on poles sqrt(q) and weights w, which
    deflates it and scales it to ||z|| = 1: its ascending root r gives
    mu = ||z||^2 root^2 and sigma_hat_{r+1}, and Delta_n / mu is that value's
    gap to sigma_{n+1}: so delta = sigma_hat_n^2 - sigma_{n+1}^2 comes from the
    top root, never from a difference, and no root has to pass near the zero
    eigenvalue. Everything is scaled by 1/sigma_1.

    A deflated pole's sigma_j is itself a sigma_hat. Where the form is out of
    range (alpha or Delta_n zero, or ||w||^2 past 1/_NEGLIGIBLE, so that delta
    would be below _NEGLIGIBLE Delta_n), sigma_hat_n = sigma_{n+1}, delta = 0,
    and the others are the roots of the same equation without the
    sigma_{n+1} pole, its weight merged into sigma_n's. The squared gaps are
    returned unscaled: block_svd has refused a sigma_1 whose square would
    overflow, and a positive scaled gap whose unscaled value falls below the
    smallest normal float, _TINY, raises ShapeError.
    """

    def __init__(self, sigma: np.ndarray, b_row: np.ndarray):
        self._sigma, self._b_row = sigma, b_row
        self._scale = float(sigma[0]) or 1.0  # the scale of the secular form
        head, last = sigma[:-1] / self._scale, float(sigma[-1]) / self._scale
        self._gaps = (head - last) * (head + last)  # Delta_j / sigma_1^2, descending
        self._last2 = last * last
        self._rest: SigmaHatRoots | None = None  # the equation without sigma_{n+1}
        alpha, self._gap_n = abs(float(b_row[-1])), float(self._gaps[-1])
        self._usable = alpha > _NEGLIGIBLE and self._gap_n > 0.0
        if not self._usable:
            return
        root_poles = np.sqrt(self._gap_n / self._gaps)
        weights = b_row[:-1] * (root_poles / alpha)  # each below 1/_NEGLIGIBLE
        self._usable = float(weights @ weights) < 1.0 / _NEGLIGIBLE
        if self._usable:
            self._eq = SecularEquation(root_poles, weights)

    def at(self, i: int) -> tuple[float, float]:
        """(sigma_hat_{i+1}, sigma_hat_{i+1}^2 - sigma_{n+1}^2) for a 0-based (or negative) i."""
        i %= len(self._sigma) - 1
        if not self._usable:
            return self._without_last_pole(i)
        hat, gap = self._root(i) if self._eq.live is None else self._deflated_at(i)
        squared = gap * self._scale**2
        if squared < _TINY and gap > 0.0:
            raise ShapeError(f"sigma_hat^2 - sigma_{{n+1}}^2={gap:.3e} sigma_1^2 at sigma_1="
                             f"{self._scale:.3e} underflows float64 (limit {_TINY:.3e}); "
                             "rescale the data")
        return hat, squared

    def _gap(self, root):
        """Delta_n / mu, mu = ||z||^2 root^2: sigma_hat^2 - sigma_{n+1}^2 over sigma_1^2."""
        return self._gap_n / (root * root * self._eq.rho)

    def _root(self, r: int) -> tuple[float, float]:
        """(sigma_hat, its scaled gap) at live root r."""
        gap = self._gap(self._eq.solve(r)[0])
        return math.sqrt(self._last2 + gap) * self._scale, gap

    def _pole(self, j: int) -> tuple[float, float]:
        return float(self._sigma[j]), float(self._gaps[j])

    def _deflated_at(self, i: int) -> tuple[float, float]:
        """Entry i when some pole is deflated, from at most one root.

        Live root r lies between the live poles L[r] and L[r+1] (the last
        root between L[-1] and sigma_{n+1}), as does every deflated pole in
        between: together they fill positions L[r] up to L[r+1] (up to n for
        the last). Deflated poles above L[0] fill the positions before it.
        """
        live = self._eq.live
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
                v_rest = node._b_row[:-1].copy()
                v_rest[-1] = np.hypot(v_rest[-1], node._b_row[-1])
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
        eq = self._eq
        roots = range(len(eq.poles)) if roots is None else roots
        root, delta, work = np.empty(len(roots)), *np.empty((2, len(roots), len(eq.poles)))
        for k, r in enumerate(roots):
            root[k], delta[k], work[k] = eq.solve(r)
        live = slice(None) if eq.live is None else eq.live
        dist = eq.spread(-self._gaps[live] * (delta * work) / (root * root)[:, None])
        dist = np.append(dist, -self._gap(root)[:, None], axis=1)
        weight = 1.0 / np.linalg.norm(self._sigma / self._scale * self._b_row / dist, axis=1)
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
        n, v, rep, live = len(self._sigma) - 1, self._b_row, self._eq.rep, self._eq.live
        own = np.arange(len(rep))
        if live is None:
            return np.empty(0), np.empty((0, n))
        poles = [np.setdiff1d(own[rep == own], live)]  # the dropped weights
        rows = [(np.eye(n)[poles[0]] - np.outer(v[poles[0]], v[:n]))
                / np.sqrt(1.0 - v[poles[0]] ** 2)[:, None]]
        for k in np.unique(rep[rep != own]):
            group = np.flatnonzero(rep == k)
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
        if delta == 0.0 or not len(self._eq.poles):
            return 0.0  # delta = 0, or every weight deflated (sigma_hat_n = sigma_n)
        dist, weight = self.pole_distances([len(self._eq.poles) - 1])
        return float(weight[0]) if -dist[0, -1] == delta else 0.0


@dataclass(frozen=True)
class SvdBundle:
    """The singular values of [A b], b's row of its right factor V and its
    last right singular vector (plain quantities), and A's smallest singular
    value (hatted). No whole V: right_factor forms it from rows where it is
    read."""

    rows: np.ndarray       # (k, n+1): [A b] (k = m) or its R factor (k = n+1), read-only
    sigma: np.ndarray      # (n+1,) singular values of [A b], descending
    b_row: np.ndarray      # (n+1,) V's last row: b's entry of each right singular vector
    v_last: np.ndarray     # (n+1,) v_{n+1}, V's last column; its last entry has b_row's sign
    sigma_hat_n: float     # smallest singular value of A
    delta: float           # sigma_hat_n^2 - sigma_{n+1}^2, from a secular root, not a difference
    roots: SigmaHatRoots = field(repr=False, compare=False)  # every other sigma_hat, on request

    @property
    def n(self) -> int:
        return self.sigma.shape[0] - 1

    @property
    def abs_gap(self) -> float:
        """sigma_hat_n - sigma_{n+1}, read from delta, never as a difference."""
        return self.delta / (self.sigma_hat_n + float(self.sigma[-1]))



@dataclass(frozen=True)
class GapDiagnostics:
    """The gap of a bundle that check_gap accepted: delta > 0."""

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
    _check_info("dgeqrt", info)
    return qr, t


def block_rows(m: int, k: int) -> int:
    """The rows of the row block of an m x k array: k once m >= 2k (LAPACK's
    QR-first crossover, where the block is R), else m (the array itself)."""
    return k if m >= 2 * k else m


# The narrowest block that block_svd factors through few_value_svd, one block
# at a time; narrower blocks, one or a stack, go through numpy's dgesdd in
# one call. Set from the per-block cost of each route on a stack of 32
# random k x k and 1.4k x k blocks (medians of 5 x 21 runs, one BLAS thread,
# a 2-vCPU VM). All of V from the bidiagonal (dgebrd, its divide-and-conquer
# SVD, dormbr) against numpy's stacked call: k = 11, 69 and 72 against 39 and
# 42 us; k = 21, 105 and 122 against 85 and 120 us; k = 31, 165 and 231
# against 160 and 255 us; k = 41, 327 and 312 against 360 and 349 us; k = 61,
# 855 and 897 against 977 and 1060 us. few_value_svd costs 207 and 309 us at
# k = 31 against numpy's 159 and 157, 271 and 296 at k = 41 against 285 and
# 340, and 1290 and 1580 at k = 101 against 1779 and 1962. Of its 245 us at
# 41 x 41 (best of 2000 calls), dgebrd with its set-up takes 61, dbdsqr's
# rotations 114 and the tridiagonal's vector 66 (dstebz alone 33).
V_ONLY_WIDTH = 40


def row_block(aug: np.ndarray) -> np.ndarray:
    """The row block of a Fortran-ordered m x k array: aug = Q rows.

    rows is aug itself, or past block_rows' crossover the k x k R of one
    dgeqrt (block size min(32, k), no workspace query), which overwrites aug.
    A tall R agrees with the R of dgeqrf (numpy's qr) to rounding, with the
    same diagonal signs, not bit for bit.
    """
    m, k = aug.shape
    return aug if block_rows(m, k) == m else np.triu(householder_qr(aug)[0][:k])


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _cython_lapack(name: str, nargs: int):
    """The C entry point of one LAPACK routine that scipy.linalg.cython_lapack
    exports, callable through ctypes with no compiler. Every argument is a
    pointer, as Fortran takes it: an address, bytes for a character, or None
    for an array the call does not reference; the last is info's."""
    capsule = cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


dgebrd = _cython_lapack("dgebrd", 11)
dbdsqr = _cython_lapack("dbdsqr", 15)
dormbr = _cython_lapack("dormbr", 14)


@lru_cache(maxsize=64)
def _brd_lwork(m: int, k: int) -> int:
    """The work length of dgebrd on an m x k block and of last_vector's
    one-column dormbr('P', 'L', 'N'): the larger of their optimal lwork (their
    workspace queries)."""
    ints, optimal = np.array([m, k, -1, 0, 1], dtype=np.intc), np.zeros(2)
    m_, k_, query, info, one = _addresses(ints, range(5))  # m, k, lwork = -1, info, 1
    out = optimal.ctypes.data  # no array is referenced; each query writes its lwork here
    dgebrd(m_, k_, out, m_, out, out, out, out, out, query, info)
    _check_info("dgebrd", ints[3])
    dormbr(b"P", b"L", b"N", k_, one, k_, out, m_, out, out, k_, out + optimal.itemsize,
           query, info)
    _check_info("dormbr", ints[3])
    return max(map(int, optimal))


def _addresses(array: np.ndarray, offsets) -> list[int]:
    """The addresses of the given entries of a contiguous array."""
    base = array.ctypes.data
    return [base + array.itemsize * i for i in offsets]


class Bidiagonal:
    """One m x k block, m >= k, reduced by LAPACK dgebrd: [b, the other columns] = Q B P^T.

    B is upper bidiagonal, its diagonal d and superdiagonal e; P stays as
    dgebrd's reflectors (above the superdiagonal of a, factors taup); Q is
    not kept. The block is factored as a Fortran copy with its last column,
    b, moved to the front, and scaled by 2^exponent, which is exact: P's
    reflectors leave column 1 alone, so b's row of V is the first row of B's
    own right factor (Golub-Kahan bidiagonalization started from b, the TLS
    core reduction of Paige & Strakos, SIMAX 27, 2006). The singular values
    it gives are those of the scaled copy. Raises ConvergenceError naming
    the routine whose info is not 0.
    """

    def __init__(self, block: np.ndarray, exponent: int):
        m, k = block.shape
        if m < k:
            raise ShapeError(f"need m >= k, got a {m} x {k} block")
        self.a = np.empty((m, k), order="F")  # dgebrd overwrites it with its reflectors
        self.a[:, 0], self.a[:, 1:] = block[:, -1], block[:, :-1]
        np.ldexp(self.a, exponent, out=self.a)
        self.lwork = _brd_lwork(m, k)
        self._ints = np.array([m, k, self.lwork, 0], dtype=np.intc)  # m, k, lwork, info
        self._taus = np.empty(2 * k)  # tauq, then taup
        self.d, self.e = np.empty(k), np.empty(k - 1)
        m_, k_, lwork_, info = self._args()
        tauq, taup = _addresses(self._taus, (0, k))
        work = np.empty(self.lwork)
        dgebrd(m_, k_, self.a.ctypes.data, m_, self.d.ctypes.data, self.e.ctypes.data, tauq,
               taup, work.ctypes.data, lwork_, info)
        _check_info("dgebrd", self._ints[3])

    def _args(self) -> list[int]:
        """The addresses of m, k, lwork and info, as Fortran takes them."""
        return _addresses(self._ints, range(4))

    def first_row(self) -> tuple[np.ndarray, np.ndarray]:
        """(sigma, the first row of B's right factor), sigma descending, in O(k^2).

        LAPACK dbdsqr('U') on copies of d and e, with one column of VT, e_1: it
        applies its rotations to that column alone (Demmel & Kahan, SISC 11,
        1990), and sorts and signs it with sigma.
        """
        k = len(self.d)
        buf = np.zeros(7 * k)  # d, e, the column of VT, the work
        buf[:k], buf[k : 2 * k - 1], buf[2 * k] = self.d, self.e, 1.0
        ints = np.array([1, 0], dtype=np.intc)
        one, zero = _addresses(ints, range(2))
        m_, k_, _, info = self._args()
        d, e, vt, work = _addresses(buf, (0, k, 2 * k, 3 * k))
        dbdsqr(b"U", k_, one, zero, zero, d, e, vt, k_, None, one, None, one, work, info)
        _check_info("dbdsqr", self._ints[3])
        return buf[:k], buf[2 * k : 3 * k]

    def last_vector(self) -> np.ndarray | None:
        """The right singular vector at sigma_k, in O(k) and one dormbr column, or None.

        B's vector is the v-half (odd entries) of the eigenvector of the 2k x
        2k Golub-Kahan tridiagonal (zero diagonal, off-diagonal d_1, e_1, d_2,
        ..., d_k) at +sigma_k, its eigenvalue k+1 in ascending order: LAPACK
        dstebz finds that eigenvalue by bisection and dstein its vector by
        inverse iteration. Mixed with the vector at -sigma_k, the v-half keeps
        its direction and loses norm; where it holds less than 1/4 of the
        vector (the tridiagonal splits at sigma_k = 0, say, and the eigenvalue
        falls on the other zero), None. Otherwise the normalized v-half goes
        through dormbr('P', 'L', 'N'): v = P v_B.
        """
        k = len(self.d)
        zero, off = np.zeros(2 * k), np.empty(2 * k - 1)
        off[0::2], off[1::2] = self.d, self.e
        _, w, iblock, isplit, info = dstebz(zero, off, 3, 0.0, 0.0, k + 1, k + 1, 0.0, b"B")
        _check_info("dstebz", info)
        z, info = dstein(zero, off, w[:1], iblock, isplit)
        _check_info("dstein", info)
        v = z[0::2, 0]
        norm2 = float(v @ v)
        if not norm2 >= 0.25:  # NaN included
            return None
        v = v / math.sqrt(norm2)
        m_, k_, lwork_, info = self._args()
        one, work = np.array([1], dtype=np.intc), np.empty(self.lwork)
        dormbr(b"P", b"L", b"N", k_, one.ctypes.data, k_, self.a.ctypes.data, m_,
               _addresses(self._taus, (k,))[0], v.ctypes.data, k_, work.ctypes.data, lwork_, info)
        _check_info("dormbr", self._ints[3])
        return v

def few_value_svd(block: np.ndarray, exponent: int):
    """(sigma, b_row, v_last) of one m x k block, m >= k, b its last column.

    The Bidiagonal of [b, the other columns] times 2^exponent: sigma (of the
    scaled block) and b_row, b's row of V (one entry per singular vector),
    from its first_row, and v_last, the right singular vector at sigma_k in
    the block's own column order, from its last_vector, or where that returns
    None (b = 0, say) from full_svd of the scaled block. The two share V's
    corner entry, b's entry of v_last (alpha, up to its sign): v_last takes
    b_row's sign there, and b_row takes v_last's value, which dbdsqr and
    dstein round differently (by about eps absolute, 1e-8 of alpha at alpha =
    1e-8). Where all of V costs O(k^3), this costs O(k^2) past dgebrd.
    """
    bidiagonal = Bidiagonal(block, exponent)
    sigma, b_row = bidiagonal.first_row()
    v = bidiagonal.last_vector()
    if v is None:
        v_last = full_svd(np.ldexp(block, exponent))[1][-1]
    else:
        v_last = np.append(v[1:], v[0])  # b's entry back to last
    if v_last[-1] * b_row[-1] < 0.0:
        v_last = -v_last
    b_row[-1] = v_last[-1]  # V's corner, alpha: one value for the roots, x and kappa
    return sigma, b_row, v_last


def full_svd(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, vt) of one block or a stack through numpy's dgesdd, U dropped.

    block_svd's kernel below V_ONLY_WIDTH, and the kernel of the whole V at
    every width: right_factor and the alpha generator's draw. Raises
    ConvergenceError.
    """
    try:
        return np.linalg.svd(rows, full_matrices=False)[1:]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dgesdd failed ({exc})") from exc


def right_factor(rows: np.ndarray) -> np.ndarray:
    """V^T of one row block, through full_svd of rows scaled as block_svd
    scales them; no left factor is kept. The rows of V^T keep dgesdd's signs.
    Below V_ONLY_WIDTH this is bitwise the V^T that gave block_svd's b_row and
    v_last. Raises ShapeError for entries that are not finite and
    ConvergenceError."""
    return full_svd(np.ldexp(rows, _scale_exponent(rows)))[1]


def _scale_exponent(rows: np.ndarray) -> np.ndarray:
    """Per block, the exponent of the power of two that puts its largest entry
    in [1/2, 1): scaling by it is exact. Raises ShapeError for entries that
    are not finite, on which numpy's dgesdd may never return."""
    # max |rows| per block, with no |rows| temporary: a NaN reaches either end
    top = np.maximum(np.max(rows, axis=(-2, -1)), -np.min(rows, axis=(-2, -1)))
    if not np.isfinite(top).all():
        raise ShapeError("entries must be finite")
    return -np.frexp(top)[1]


def block_svd(rows: np.ndarray):
    """(sigma, b_row, v_last) of one block or of a stack of blocks, without U.

    sigma descending, b_row V's last row (the entries of the last column, b,
    in each right singular vector) and v_last V's last column (the right
    singular vector at the smallest sigma). Each block is factored scaled by
    the power of two that puts its largest entry in [1/2, 1)
    (_scale_exponent), which is exact, and its sigma is scaled back, so every
    value but sigma is bitwise that of the block times any power of two that
    neither overflows nor underflows. Blocks at least V_ONLY_WIDTH wide go
    through few_value_svd one at a time, which scales its own copy; narrower
    ones through numpy's dgesdd (full_svd), one call for the whole stack,
    whose V^T gives both. rows is not changed. Each block of a stack gets
    bitwise the values of its own call: the route depends on the width alone.
    Raises ShapeError for entries that are not finite and for a sigma_1 past
    _SCALE_LIMIT (about 6.7e153), where the squared gaps would overflow, and
    ConvergenceError when LAPACK fails.
    """
    exponent = _scale_exponent(rows)
    if rows.shape[-1] < V_ONLY_WIDTH:
        sigma, vt = full_svd(np.ldexp(rows, exponent[..., None, None]))
        b_row, v_last = vt[..., :, -1], vt[..., -1, :]
    elif rows.ndim == 2:
        sigma, b_row, v_last = few_value_svd(rows, exponent)
    else:
        each = zip(*map(few_value_svd, rows, exponent))
        sigma, b_row, v_last = (np.array(part) for part in each)
    with np.errstate(over="ignore"):  # an infinite sigma_1 is refused just below
        sigma = np.ldexp(sigma, -exponent[..., None])
    scale = float(np.max(sigma[..., 0], initial=0.0))
    if scale > _SCALE_LIMIT:
        raise ShapeError(f"sigma_1={scale:.3e}: its square overflows float64 (limit "
                         f"{_SCALE_LIMIT:.3e}); rescale the data")
    return sigma, b_row, v_last


def svd_bundle(problem: TlsProblem) -> SvdBundle:
    """sigma, b's row of V and v_{n+1} of [A b], via its R when m >= 2(n+1); sigma_hat_n and delta.

    block_svd's values of the row_block of one private Fortran-ordered copy
    of [A b], kept read-only as rows, from which right_factor forms the whole
    V where the lab reads it.
    """
    m, n = problem.m, problem.n
    aug = np.empty((m, n + 1), order="F")
    aug[:, :n], aug[:, n] = problem.a_matrix, problem.b_vector
    rows = row_block(aug)
    rows.setflags(write=False)  # right_factor factors it again where the lab reads V
    sigma, b_row, v_last = block_svd(rows)
    roots = SigmaHatRoots(sigma, b_row)
    sigma_hat_n, delta = roots.at(-1)
    return SvdBundle(rows, sigma, b_row, v_last, sigma_hat_n, delta, roots)


def check_gap(sigma: np.ndarray, sig_hat_n: float, delta: float) -> GapDiagnostics:
    """The solver's gap rule on one SVD of [A b]: its GapDiagnostics where delta > 0.

    Raises NoUniqueSolution otherwise. delta > 0 puts sigma_hat_n, and so
    sigma_n, above sigma_{n+1} >= 0, so no quotient here divides by 0.
    """
    if not delta > 0.0:
        raise NoUniqueSolution(f"sigma_{{n+1}}={sigma[-1]:.6e} >= sigma_hat_n={sig_hat_n:.6e}")
    sig_last = float(sigma[-1])
    rel_gap = delta / (sig_hat_n * (sig_hat_n + sig_last))
    return GapDiagnostics(rel_gap=rel_gap, ratio_sigma_n=sig_last / float(sigma[-2]),
                          ratio_sigma_hat_n=1.0 - rel_gap)


def trailing_vector(sigma: np.ndarray, v_last: np.ndarray) -> np.ndarray:
    """The solver's rules that do not read the gap: v_{n+1} with its sign fixed.

    Raises TrivialProblem when sigma_{n+1} = 0, and DegenerateVector when the
    vector's last entry is numerically zero despite a valid gap (an upstream
    SVD failure). Returns a copy of v_last (V's last column) negated where
    needed so that its last entry is -alpha. solve_tls calls it once
    check_gap has passed; the lab calls it alone where Weyl's inequality has
    certified the gap.
    """
    if not float(sigma[-1]) > 0.0:
        raise TrivialProblem("sigma_{n+1} = 0: b in range(A), take [E r] = 0")
    if abs(v_last[-1]) <= 1e-14:
        raise DegenerateVector("v_{n+1}(n+1) ~ 0 contradicts the gap condition")
    return -v_last if v_last[-1] > 0 else v_last.copy()


def solve_tls(problem: TlsProblem, bundle: SvdBundle) -> TlsSolution:
    """Solve the TLS problem from its trailing right singular vector.

    The checks are check_gap's (NoUniqueSolution), then trailing_vector's
    (TrivialProblem or DegenerateVector), which also fixes the sign.
    """
    diag = check_gap(bundle.sigma, bundle.sigma_hat_n, bundle.delta)
    v_last = trailing_vector(bundle.sigma, bundle.v_last)
    x = -v_last[:-1] / v_last[-1]
    alpha = 1.0 / np.hypot(1.0, np.linalg.norm(x))
    r = problem.a_matrix @ x - problem.b_vector
    return TlsSolution(x=x, r=r, alpha=float(alpha), last_right_vector=v_last, gap=diag)


def check_p(bundle: SvdBundle) -> float:
    """eps sigma_hat_1^2 / delta, the gate gated_p passes before it forms P.

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


def gated_p(bundle: SvdBundle) -> tuple[np.ndarray, np.ndarray]:
    """(A^T A, P) with P = A^T A - sigma_{n+1}^2 I, once check_p has accepted P.

    The one place that forms them: A^T A is R_A^T R_A from the bundle's
    rows[:, :n], A itself or its R_A, in O(n^3) on the QR route. Raises
    check_p's IllConditionedGap before anything is formed. Every entry is at
    most sigma_1^2, which block_svd keeps below a quarter of the largest float.
    """
    check_p(bundle)
    n = bundle.n
    r_a = bundle.rows[:, :n]
    ata = r_a.T @ r_a
    return ata, ata - float(bundle.sigma[-1]) ** 2 * np.eye(n)


def residual_diagnostics(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> ResidualReport:
    """Identity residuals, the normal-equations cross-check and the gap chain.

    The cross-check solves P x = A^T b with gated_p's P, and is None where
    check_p refuses P. A^T b = R_A^T (Q^T b) on the QR route, where
    rows[:, -1] holds Q^T b.
    The chain |u_hat_n . b| / (2||x||) <= sigma_hat_n - sigma_{n+1} <= ||b||/||x||
    is only defined for x != 0; for x = 0 its entries are None. Its
    |u_hat_n . b| is the bundle's SigmaHatRoots.b_weight_n, O(n) from the root
    that gives delta: no SVD of A runs here.
    The identities run on the data scaled by 1/sigma_1, as their quotients do
    not depend on scale, so no product overflows below the bundle's sigma_1
    limit; the cross-check's entries are at most sigma_1^2 unscaled.
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
        _, p = gated_p(bundle)
    except IllConditionedGap:
        normal_eq_rel_diff = None
    else:
        x_ne = np.linalg.solve(p, bundle.rows[:, : problem.n].T @ bundle.rows[:, -1])
        normal_eq_rel_diff = float(np.linalg.norm(x_ne - x) / max(1.0, norm_x))
    if norm_x == 0.0:
        return ResidualReport(*identities, normal_eq_rel_diff, None, None, None, None)
    lower = bundle.roots.b_weight_n() / (2.0 * norm_x)
    mid = bundle.abs_gap
    upper = scale * float(np.linalg.norm(problem.b_vector / scale)) / norm_x
    # the backward error of the SVD of [A b] and of the root that gives delta
    slack = 4.0 * _EPS * float(bundle.sigma[0])
    holds = lower <= mid + slack and mid <= upper + slack
    return ResidualReport(*identities, normal_eq_rel_diff, float(lower), mid, upper, bool(holds))
