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

A^T A is formed, where a route needs it, from the bundle's rows[:, :n]: A
itself, or on the QR route its R_A, where R_A^T R_A costs O(n^3), not O(mn^2).

The svd route is the reference: it stays accurate when sigma_hat_n and
sigma_{n+1} nearly coincide, where the P-based routes break down. Those
(cholesky, and kronecker through build_k_matrix) pass core.check_p, the one
gate on P: IllConditionedGap once eps sigma_hat_1^2 / delta exceeds
core.P_ROUNDING_LIMIT. baboulin takes every difference from a secular root,
not from P, so it needs no gate.

Each problem is factored once, by the bundle's SVD of [A b]: ExactFormulaWork
reads V11 through closed forms in V's last row and in v_{n+1}, whose sign
solve_tls fixes, and ||V11^{-T} S|| is the top root of a secular equation
(LAPACK dlasd4 through core.secular_root, the kernel of the bundle's roots
too; O(n)). It feeds the svd formula, the two sandwiches and the
perturbation lab's map K z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .core import SvdBundle, TlsSolution, check_p, deflate, secular_root
from .errors import FactorizationError, NotApplicable, TrivialProblem
from .problem import TlsProblem

K_MAX_ENTRIES = 2**24  # build_k_matrix refuses a K of more than this many entries, n * m(n+1)


def _secular_top(diag: np.ndarray, beta: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """(||V11^{-T} D||, q) for D = diag(diag): the top root of the secular
    equation of D^2 + (D beta)(D beta)^T / alpha^2, and its unit eigenvector.

    dlasd4 runs in alpha-scaled form (poles alpha d, weights D beta), which
    stays in range for tiny alpha. core.deflate, shared with the bundle's
    secular roots, drops negligible weights (beta = 0 at x = 0, where the
    value is max d exactly) and merges tied poles; a weightless pole above
    the root is then the top eigenvalue itself.
    """
    order = np.argsort(diag, kind="stable")
    poles, weights = alpha * diag[order], (diag * beta)[order]
    z, rep = deflate(poles, weights)
    live = np.flatnonzero(z)
    root, q = 0.0, None
    if len(live):
        rho = float(np.linalg.norm(z[live]))
        root, delta, work = secular_root(len(live) - 1, poles[live], z[live] / rho, rho**2)
        dist = np.full(len(z), np.inf)  # dropped weights get q_j = 0
        dist[live] = delta * work  # pole^2 - root^2 without cancellation
        q = weights / dist[rep]
    if poles[-1] > root:
        root, q = poles[-1], np.eye(len(z))[-1]
    return float(root / alpha), (q / np.linalg.norm(q))[np.argsort(order)]


@dataclass(frozen=True)
class ExactFormulaWork:
    """Shared spectral parts for the condition formulas; no factorization.

    With v_{n+1} the solver's last right vector (solve_tls fixes its sign so
    its last entry is -alpha), V = [[V11, y], [beta^T, -alpha]] is
    orthogonal, so V11 beta = alpha y, V11^T V11 = I - beta beta^T and
    V11^{-1} = V11^T + beta y^T / alpha. Hence ||V11^{-T} S||^2 =
    lambda_max(S^2 + (S beta)(S beta)^T / alpha^2), the secular equation of
    the reference kappa.
    """

    v11: np.ndarray               # (n, n) view of V's leading block
    y: np.ndarray                 # (n,) leading entries of v_{n+1}
    beta: np.ndarray              # (n,) V[n, :n], the first n entries of V's last row
    alpha: float                  # -(last entry of v_{n+1}), > 0
    s_diag: np.ndarray            # (n,) ascending weights s_i
    lambda_diag: np.ndarray       # (n,) sigma_i^2 - sigma_{n+1}^2
    aug_frobenius: float          # ||[A b]||_F

    def _v11_inv_t(self, v: np.ndarray) -> np.ndarray:
        return self.v11 @ v + self.y * (self.beta @ v / self.alpha)

    def apply_p_inv(self, v: np.ndarray) -> np.ndarray:
        """P^{-1} v = V11^{-T} Lambda^{-1} V11^{-1} v in O(n^2); P is never formed or gated."""
        w = self.v11.T @ v + self.beta * (self.y @ v / self.alpha)
        return self._v11_inv_t(w / self.lambda_diag)

    @cached_property
    def top_left(self) -> tuple[float, np.ndarray]:
        """||V11^{-T} S||, the spectral factor of the reference kappa, and the
        unit top left singular vector V11^{-T} S q of V11^{-T} S."""
        norm, q = _secular_top(self.s_diag, self.beta, self.alpha)
        u = self._v11_inv_t(self.s_diag * q)
        return norm, u / np.linalg.norm(u)


@dataclass(frozen=True)
class ConditionEstimate:
    kappa_abs: float
    kappa_rel: float | None       # None when x = 0
    warnings: tuple[str, ...] = ()  # always (): a route answers or raises; bench/ reads it


def _gram_norm(gram: np.ndarray) -> float:
    """||M|| from a Gram matrix of M: sqrt of its top eigenvalue, clamped at 0."""
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def _relative(kappa_abs: float, aug_norm: float, solution: TlsSolution) -> float | None:
    norm_x = solution.norm_x
    if norm_x == 0.0:
        return None
    return kappa_abs * aug_norm / norm_x


def build_spectral_work(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> ExactFormulaWork:
    """Assemble the parts the svd formula, the sandwiches and the lab read (cheap for large m).

    y and alpha come from solution.last_right_vector, whose sign solve_tls
    fixed; beta is V's last row as the SVD returned it.
    """
    n = problem.n
    v = bundle.v_aug
    v_last = solution.last_right_vector
    sig_last = float(bundle.sigma[-1])
    sig2 = sig_last**2

    # Differences of squares in factored form: sigma_i - sigma_{n+1} > 0 is
    # guaranteed by the gap check, while sigma_i**2 - sig2 can round to zero.
    head = bundle.sigma[:-1]
    lam = (head - sig_last) * (head + sig_last)
    return ExactFormulaWork(
        v11=v[:n, :n],
        y=v_last[:n],
        beta=v[n, :n].copy(),  # contiguous: a strided row takes another BLAS dot kernel
        alpha=float(-v_last[n]),
        s_diag=np.sqrt(head**2 + sig2) / lam,
        lambda_diag=lam,
        aug_frobenius=float(np.linalg.norm(bundle.sigma)),  # ||[A b]||_F
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
    P = A^T A - sigma_{n+1}^2 I explicitly (not through V11; its A^T A is
    R_A^T R_A from bundle.rows on the QR route), so it stays an
    independent oracle for the svd route. It passes core.check_p first, and
    is then refused with NotApplicable before anything is allocated when K's
    own n * m(n+1) entries exceed K_MAX_ENTRIES.
    """
    m, n = problem.m, problem.n
    if bundle.sigma[-1] == 0.0:
        raise TrivialProblem("r = 0: the first-order map is not defined")
    check_p(bundle)
    if n * m * (n + 1) > K_MAX_ENTRIES:
        raise NotApplicable(
            f"K: the oracle is limited to n*m(n+1) <= {K_MAX_ENTRIES} (2^24) entries; "
            f"{m}x{n} gives {n * m * (n + 1)}"
        )
    a, r_a = problem.a_matrix, bundle.rows[:, :n]
    r = solution.r
    x_tilde = np.append(solution.x, -1.0)

    p = r_a.T @ r_a - bundle.sigma[-1] ** 2 * np.eye(n)
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
    aug_norm = float(np.hypot(np.linalg.norm(problem.a_matrix), np.linalg.norm(problem.b_vector)))
    return ConditionEstimate(kappa, _relative(kappa, aug_norm, solution))


def cholesky_condition(
    work: ExactFormulaWork,
    problem: TlsProblem,
    bundle: SvdBundle,
    solution: TlsSolution,
) -> ConditionEstimate:
    """kappa = sqrt(1+||x||^2) ||P^{-1} L|| via triangular solves against P.

    ||P^{-1} L|| is the square root of the top eigenvalue of its n x n Gram
    matrix, clamped at 0, as in kron_condition: no SVD. Raises
    IllConditionedGap where core.check_p refuses P: there P's rounding
    could leave the result more than 1e-8 off. P, C and their Cholesky
    factors are formed only once the gate has passed.
    """
    check_p(bundle)
    n = problem.n
    r_a = bundle.rows[:, :n]  # A, or its R_A: R_A^T R_A = A^T A in O(n^3)
    x = solution.x
    sig2 = float(bundle.sigma[-1]) ** 2
    ata = r_a.T @ r_a
    p = ata - sig2 * np.eye(n)
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
    kappa = float(np.hypot(1.0, solution.norm_x) * work.top_left[0])
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
