"""Exact TLS condition numbers by four independent formulas.

All formulas target the absolute condition number of the map from the
stacked data (vec A, b) to the solution x; the relative number rescales by
||[A b]||_F / ||x||. The four routes:

* kronecker: spectral norm of the explicit first-order map K, the plain
  n x m(n+1) array from build_k_matrix acting on [vec(dA); db] with
  column-stacked vec. K is assembled from its Kronecker factors: P is
  solved against n+m+1 columns, and ||K|| is read from the n x n K K^T.
* cholesky: sqrt(1+||x||^2) * ||P^{-1} L|| with P = A^T A - sigma_{n+1}^2 I
  and L L^T the Cholesky factorization of
  C = A^T A + sigma_{n+1}^2 I - 2 sigma_{n+1}^2 x x^T / (1+||x||^2).
* svd: sqrt(1+||x||^2) * ||V11^{-T} S|| with V11 the leading n x n block of
  the right singular factor of [A b] and S diagonal with entries
  s_i = sqrt(sigma_i^2 + sigma_{n+1}^2) / (sigma_i^2 - sigma_{n+1}^2).
* baboulin: sqrt(1+||x||^2) * ||Dhat [Vhat^T 0] V [D 0]^T||, a comparison
  formula in A's singular values and right singular vectors, both read in
  closed form off the bundle's secular roots (core.SigmaHatRoots): no SVD of
  A runs.

The svd route is the reference: it stays accurate when sigma_hat_n and
sigma_{n+1} nearly coincide, where the P-based routes break down. Those
(cholesky, and kronecker through build_k_matrix) take A^T A and P from
core.gated_p, the one place that forms them (from the bundle's rows[:, :n]:
A itself, or on the QR route its R_A, where R_A^T R_A costs O(n^3), not
O(mn^2)), behind the one gate on P, core.check_p: IllConditionedGap once
eps sigma_hat_1^2 / delta exceeds core.P_ROUNDING_LIMIT. baboulin takes
every difference from a secular root, not from P, so it needs no gate.

Each problem is factored once, by the bundle's SVD of [A b]: ExactFormulaWork
reads V11 through closed forms in V's last row (the bundle's b_row) and in
v_{n+1}, whose sign solve_tls fixes, and ||V11^{-T} S|| is the top root of a
secular equation (LAPACK dlasd4 through core.SecularEquation, the front end
of the bundle's roots too; O(n)), so kappa_rel does not depend on the scale
of [A b]. It feeds the svd formula and the two sandwiches. Only the
perturbation lab's worst direction reads V11 itself: it forms the whole V
through core.right_factor and reads V11, y, beta and alpha from that one V.
Every Gram-matrix norm (kron, cholesky, baboulin) is the square root of the
top eigenvalue alone, from LAPACK dsyevr.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.linalg

from .core import SecularEquation, SvdBundle, TlsSolution, gated_p
from .errors import FactorizationError, NotApplicable, TrivialProblem
from .problem import TlsProblem

K_MAX_ENTRIES = 2**24  # build_k_matrix refuses a K of more than this many entries, n * m(n+1)


def _secular_top(diag: np.ndarray, beta: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """(||V11^{-T} D||, q) for D = diag(diag): the top root of the secular
    equation of D^2 + (D beta)(D beta)^T / alpha^2, and its unit eigenvector.

    The equation runs in alpha-scaled form (poles alpha d, weights D beta),
    which stays in range for tiny alpha, through core.SecularEquation, the
    bundle's own front end: it drops negligible weights (beta = 0 at x = 0,
    where the value is max d exactly), merges tied poles and scales the rest
    to unit weights, so the result does not depend on the scale of [A b]. A
    weightless pole above the root is then the top eigenvalue itself.
    """
    order = np.argsort(diag, kind="stable")
    poles, weights = alpha * diag[order], (diag * beta)[order]
    equation = SecularEquation(poles, weights)
    root, q = 0.0, None
    if len(equation.poles):
        root, delta, work = equation.solve(len(equation.poles) - 1)
        root *= equation.norm
        q = weights / equation.spread(delta * work)  # dropped weights get q_j = 0
    if poles[-1] > root:
        root, q = poles[-1], np.eye(len(poles))[-1]
    return float(root / alpha), (q / np.linalg.norm(q))[np.argsort(order)]


@dataclass(frozen=True)
class ExactFormulaWork:
    """Shared spectral parts for the condition formulas; no factorization.

    With v_{n+1} the solver's last right vector (solve_tls fixes its sign so
    its last entry is -alpha), V = [[V11, y], [beta^T, -alpha]] is
    orthogonal, so V11 beta = alpha y, V11^T V11 = I - beta beta^T and
    V11^{-1} = V11^T + beta y^T / alpha. Hence ||V11^{-T} S||^2 =
    lambda_max(S^2 + (S beta)(S beta)^T / alpha^2), the secular equation of
    the reference kappa: top_norm reads s, beta and alpha alone, so y (the
    leading n entries of v_{n+1}) is not stored. V11 itself is formed only
    by the perturbation lab's worst direction.
    """

    beta: np.ndarray              # (n,) V[n, :n], the first n entries of V's last row
    alpha: float                  # -(last entry of v_{n+1}), > 0
    s_diag: np.ndarray            # (n,) ascending weights s_i
    lambda_diag: np.ndarray       # (n,) sigma_i^2 - sigma_{n+1}^2
    aug_frobenius: float          # ||[A b]||_F

    @cached_property
    def top_norm(self) -> float:
        """||V11^{-T} S||, the spectral factor of the reference kappa."""
        return _secular_top(self.s_diag, self.beta, self.alpha)[0]


@dataclass(frozen=True)
class ConditionEstimate:
    kappa_abs: float
    kappa_rel: float | None       # None when x = 0
    warnings: tuple[str, ...] = ()  # always (): a route answers or raises; bench/ reads it


def _gram_norm(gram: np.ndarray) -> float:
    """||M|| from a Gram matrix of M: sqrt of its top eigenvalue, clamped at 0.

    LAPACK dsyevr finds the top eigenvalue alone.
    """
    n = len(gram)
    top = scipy.linalg.eigh(gram, eigvals_only=True, subset_by_index=(n - 1, n - 1))[0]
    return float(np.sqrt(max(top, 0.0)))


def _frobenius(*parts: np.ndarray) -> float:
    """The Frobenius norm of the parts side by side (||[A b]||_F of A and b).

    Every part is divided by the power of two of the largest entry of them
    all first, which is exact, so no square overflows: np.linalg.norm of
    [A b] near core's scale limit would. Where it would not, the result is
    bitwise that plain norm (np.hypot of the parts' norms).
    """
    exponent = max(int(np.frexp(np.max(np.abs(part), initial=0.0))[1]) for part in parts)
    norms = [np.linalg.norm(np.ldexp(part, -exponent)) for part in parts]
    return float(np.ldexp(reduce(np.hypot, norms), exponent))


def _relative(kappa_abs: float, aug_norm: float, solution: TlsSolution) -> float | None:
    norm_x = solution.norm_x
    if norm_x == 0.0:
        return None
    return kappa_abs * aug_norm / norm_x


def build_spectral_work(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> ExactFormulaWork:
    """Assemble the parts the svd formula, the sandwiches and the lab read (cheap for large m).

    alpha comes from solution.last_right_vector, whose sign solve_tls
    fixed; beta is the bundle's b_row, V's last row as the SVD returned it.
    Neither reads the whole V.
    """
    n = problem.n
    sig_last = float(bundle.sigma[-1])
    sig2 = sig_last**2

    # Differences of squares in factored form: sigma_i - sigma_{n+1} > 0 is
    # guaranteed by the gap check, while sigma_i**2 - sig2 can round to zero.
    head = bundle.sigma[:-1]
    lam = (head - sig_last) * (head + sig_last)
    return ExactFormulaWork(
        beta=bundle.b_row[:n].copy(),  # contiguous: a strided row takes another BLAS dot kernel
        alpha=float(-solution.last_right_vector[n]),
        s_diag=np.sqrt(head**2 + sig2) / lam,
        lambda_diag=lam,
        aug_frobenius=_frobenius(bundle.sigma),  # ||[A b]||_F = ||sigma||
    )


def build_k_matrix(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> np.ndarray:
    """The explicit first-order map K, an n x m(n+1) array.

    Column layout: the first m*n columns act on vec(dA) with columns stacked
    first, the trailing m columns act on db. With x~ = [x; -1] and
    r^ = r / ||r||, K has Kronecker form

        K = 2 (P^{-1} A^T r^)(x~ (x) r^)^T - x~^T (x) (P^{-1} A^T) - [P^{-1} (x) r^T, 0],

    so P^{-1} is applied to the n+m+1 columns [A^T r^, A^T, I_n] only and K is
    filled block by block, the only n x m(n+1) array built. K solves against
    P = A^T A - sigma_{n+1}^2 I explicitly (not through V11), core.gated_p's
    P, so it stays an independent oracle for the svd route. gated_p's gate
    runs first, and K is then refused with NotApplicable before it is
    allocated when its own n * m(n+1) entries exceed K_MAX_ENTRIES.
    """
    m, n = problem.m, problem.n
    if bundle.sigma[-1] == 0.0:
        raise TrivialProblem("r = 0: the first-order map is not defined")
    _, p = gated_p(bundle)
    if n * m * (n + 1) > K_MAX_ENTRIES:
        raise NotApplicable(
            f"K: the oracle is limited to n*m(n+1) <= {K_MAX_ENTRIES} (2^24) entries; "
            f"{m}x{n} gives {n * m * (n + 1)}"
        )
    a, r = problem.a_matrix, solution.r
    x_tilde = np.append(solution.x, -1.0)

    r_unit = r / np.linalg.norm(r)
    solved = np.linalg.solve(p, np.hstack([(a.T @ r_unit)[:, None], a.T, np.eye(n)]))
    p_inv_at_r, p_inv_at, p_inv = solved[:, 0], solved[:, 1 : m + 1], solved[:, m + 1 :]

    # block j (columns j*m .. j*m+m-1) is x~_j (2 P^{-1}A^T r^ r^T - P^{-1}A^T) - [j < n] P^{-1}e_j r^T
    k_blocks = x_tilde[:, None] * (2.0 * np.outer(p_inv_at_r, r_unit) - p_inv_at)[:, None, :]
    k_blocks[:, :n, :] -= p_inv[:, :, None] * r
    return k_blocks.reshape(n, (n + 1) * m)


def kron_condition(
    k_matrix: np.ndarray, problem: TlsProblem, solution: TlsSolution
) -> ConditionEstimate:
    """kappa = ||K|| for the K of build_k_matrix.

    ||K|| is the square root of the top eigenvalue of the n x n Gram matrix
    K K^T, clamped at 0, not an SVD of the wide K. K solves against P, and
    build_k_matrix has already gated it. The relative scale ||[A b]||_F is
    taken from the data.
    """
    kappa = _gram_norm(k_matrix @ k_matrix.T)
    aug_norm = _frobenius(problem.a_matrix, problem.b_vector)
    return ConditionEstimate(kappa, _relative(kappa, aug_norm, solution))


def cholesky_condition(
    work: ExactFormulaWork,
    problem: TlsProblem,
    bundle: SvdBundle,
    solution: TlsSolution,
) -> ConditionEstimate:
    """kappa = sqrt(1+||x||^2) ||P^{-1} L|| via triangular solves against P.

    ||P^{-1} L|| is the square root of the top eigenvalue of its n x n Gram
    matrix, clamped at 0, as in kron_condition: no SVD. A^T A and P are
    core.gated_p's, which raises IllConditionedGap where core.check_p
    refuses P: there P's rounding could leave the result more than 1e-8 off.
    C and the Cholesky factors are formed only once the gate has passed.
    """
    ata, p = gated_p(bundle)
    n = problem.n
    x = solution.x
    sig2 = float(bundle.sigma[-1]) ** 2
    c = ata + sig2 * np.eye(n) - (2.0 * sig2 / (1.0 + x @ x)) * np.outer(x, x)
    try:
        l_factor = scipy.linalg.cholesky(c, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError("C lost positive definiteness numerically") from exc
    try:
        p_factor = scipy.linalg.cholesky(p, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(f"P lost positive definiteness: {exc}") from exc
    y = scipy.linalg.solve_triangular(p_factor, l_factor, lower=True)
    y = scipy.linalg.solve_triangular(p_factor.T, y, lower=False)
    kappa = float(np.hypot(1.0, solution.norm_x) * _gram_norm(y.T @ y))
    return ConditionEstimate(kappa, _relative(kappa, work.aug_frobenius, solution))


def svd_condition(
    work: ExactFormulaWork, bundle: SvdBundle, solution: TlsSolution
) -> ConditionEstimate:
    """kappa = sqrt(1+||x||^2) ||V11^{-T} S||, the reference formula.

    ||V11^{-T} S|| is the top secular root of the work (P is never formed or
    inverted), so the result stays reliable for arbitrarily small gaps.
    """
    kappa = float(np.hypot(1.0, solution.norm_x) * work.top_norm)
    return ConditionEstimate(kappa, _relative(kappa, work.aug_frobenius, solution))


def baboulin_condition(
    work: ExactFormulaWork, bundle: SvdBundle, solution: TlsSolution
) -> ConditionEstimate:
    """Comparison formula of Baboulin & Gratton (SIMAX 32, 2011), from the bundle's roots.

    kappa = sqrt(1+||x||^2) ||Dhat (Vhat^T V11) D||, Dhat_i = 1/(sigma_hat_i^2 -
    sigma_{n+1}^2), D_j = sqrt(sigma_j^2 + sigma_{n+1}^2). With v the last row
    of V, A's right singular vectors are vhat_i = V1 Sigma y_i / (sigma_hat_i
    ||y_i||), y_i = (Sigma^2 - sigma_hat_i^2 I)^{-1} Sigma v; as V1^T V1 = I -
    v v^T and y_i . Sigma v = 1, (Vhat^T V11)_ij = sigma_hat_i v_j |u_hat_i . b|
    / (sigma_j^2 - sigma_hat_i^2), all read off SigmaHatRoots.pole_distances
    and work.beta (v's first n entries); a sigma_hat that is a deflated pole
    takes its row from deflated_rows. No SVD of A and no gate: every
    difference comes from a secular root, so the route is as accurate as the
    svd route at any gap. The norm is read from the n x n Gram matrix, as in
    the cholesky route.
    """
    n, sig2 = bundle.n, float(bundle.sigma[-1]) ** 2
    dist, weight = bundle.roots.pole_distances()
    gap = -dist[:, -1]
    rows = (np.sqrt(sig2 + gap) * weight)[:, None] * work.beta / dist[:, :n]
    tied_gap, tied_rows = bundle.roots.deflated_rows()
    d_b = np.sqrt(bundle.sigma[:-1] ** 2 + sig2)
    core = np.vstack([rows, tied_rows]) / np.append(gap, tied_gap)[:, None] * d_b
    kappa = float(np.hypot(1.0, solution.norm_x) * _gram_norm(core.T @ core))
    return ConditionEstimate(kappa, _relative(kappa, work.aug_frobenius, solution))
