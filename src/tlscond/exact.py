"""Exact TLS condition numbers by four independent formulas.

All formulas target the absolute condition number of the map from the
stacked data (vec A, b) to the solution x; the relative number rescales by
||[A b]||_F / ||x||. The four routes:

* kronecker: spectral norm of the explicit first-order map K, the plain
  n x m(n+1) array from build_k_matrix acting on [vec(dA); db] with
  column-stacked vec.
* cholesky: sqrt(1+||x||^2) * ||P^{-1} L|| with P = A^T A - sigma_{n+1}^2 I
  and L L^T the Cholesky factorization of
  C = A^T A + sigma_{n+1}^2 I - 2 sigma_{n+1}^2 x x^T / (1+||x||^2).
* svd: sqrt(1+||x||^2) * ||V11^{-T} S|| with V11 the leading n x n block of
  the right singular factor of [A b] and S diagonal with entries
  s_i = sqrt(sigma_i^2 + sigma_{n+1}^2) / (sigma_i^2 - sigma_{n+1}^2).
* baboulin: sqrt(1+||x|^2) * ||Dhat [Vhat^T 0] V [D 0]^T||, a comparison
  formula that also needs the SVD of A; it runs that SVD itself, once its
  gate has passed, as the bundle holds A's singular values only.

The svd route is the reference: it stays accurate when sigma_hat_n and
sigma_{n+1} nearly coincide, where the P-based routes break down. Those
(kronecker, cholesky and baboulin) and build_k_matrix pass through
solution.gap.gate, the one gap policy of core: IllConditionedGap below
relative gap 1e-6, a warning below 1e-3.

Each problem is factored once, by the bundle's SVD of [A b]: ExactFormulaWork
reads V11 through closed forms in the last row and column of V, and
||V11^{-T} D|| is the top root of a secular equation (LAPACK dlasd4, O(n)).
It feeds the svd formula, the bounds and the perturbation lab's map K z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dlasd4

from .core import SvdBundle, TlsSolution, deflate
from .errors import ConvergenceError, FactorizationError, NotApplicable, TrivialProblem
from .problem import TlsProblem

K_MAX_ENTRIES = 2**24  # cap on g_of_x (m x m(n+1)), build_k_matrix's largest temporary


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
        delta, root, work, info = dlasd4(len(live) - 1, poles[live], z[live] / rho, rho**2)
        if info != 0:
            raise ConvergenceError(f"dlasd4 failed (info={info})")
        dist = np.full(len(z), np.inf)  # dropped weights get q_j = 0
        dist[live] = delta * work  # pole^2 - root^2 without cancellation
        q = weights / dist[rep]
    if poles[-1] > root:
        root, q = poles[-1], np.eye(len(z))[-1]
    return float(root / alpha), (q / np.linalg.norm(q))[np.argsort(order)]


@dataclass(frozen=True)
class ExactFormulaWork:
    """Shared spectral parts for the condition formulas; no factorization.

    With V's last row flipped so its corner is -alpha, V = [[V11, y],
    [beta^T, -alpha]] is orthogonal, so V11 beta = alpha y, V11^T V11 =
    I - beta beta^T and V11^{-1} = V11^T + beta y^T / alpha. Hence
    ||V11^{-T} D||^2 = lambda_max(D^2 + (D beta)(D beta)^T / alpha^2) for
    diagonal D: the reference kappa (D = S) and the kappa2 bounds
    (D = Lambda^{-1/2}) read the same secular equation from the same data.
    """

    v11: np.ndarray               # (n, n) view of V's leading block
    y: np.ndarray                 # (n,) V[:n, n]
    beta: np.ndarray              # (n,) first n entries of the flipped last row
    alpha: float                  # -V[n, n] after the flip, > 0
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

    @cached_property
    def v11_inv_t_lambda_norm(self) -> float:
        """||V11^{-T} Lambda^{-1/2}|| = sqrt(||P^{-1}||), as P = V11 Lambda V11^T."""
        return _secular_top(1.0 / np.sqrt(self.lambda_diag), self.beta, self.alpha)[0]


@dataclass(frozen=True)
class ConditionEstimate:
    kappa_abs: float
    kappa_rel: float | None       # None when x = 0
    method: str                   # kronecker | cholesky | svd | baboulin
    warnings: tuple[str, ...] = ()


def _relative(kappa_abs: float, aug_norm: float, solution: TlsSolution) -> float | None:
    norm_x = solution.norm_x
    if norm_x == 0.0:
        return None
    return kappa_abs * aug_norm / norm_x


def build_spectral_work(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> ExactFormulaWork:
    """Assemble the spectral parts every formula and bound reads (cheap for large m)."""
    n = problem.n
    v = bundle.v_aug
    sign = -1.0 if v[n, n] > 0 else 1.0  # flip the last row so its corner is -alpha
    sig_last = float(bundle.sigma[-1])
    sig2 = sig_last**2

    # Differences of squares in factored form: sigma_i - sigma_{n+1} > 0 is
    # guaranteed by the gap check, while sigma_i**2 - sig2 can round to zero.
    head = bundle.sigma[:-1]
    lam = (head - sig_last) * (head + sig_last)
    return ExactFormulaWork(
        v11=v[:n, :n],
        y=v[:n, n],
        beta=sign * v[n, :n],
        alpha=float(-sign * v[n, n]),
        s_diag=np.sqrt(head**2 + sig2) / lam,
        lambda_diag=lam,
        aug_frobenius=float(np.linalg.norm(bundle.sigma)),  # ||[A b]||_F
    )


def build_k_matrix(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> np.ndarray:
    """The explicit first-order map K, an n x m(n+1) array.

    Column layout: the first m*n columns act on vec(dA) with columns stacked
    first, the trailing m columns act on db. K solves against P explicitly
    (not through V11), so it stays an independent oracle for the svd route.
    It is capped at K_MAX_ENTRIES and gap-gated before any dense temporary.
    """
    m, n = problem.m, problem.n
    if m * m * (n + 1) > K_MAX_ENTRIES:
        raise NotApplicable(f"K: g_of_x needs {m * m * (n + 1)} > {K_MAX_ENTRIES} entries")
    if bundle.sigma[-1] == 0.0:
        raise TrivialProblem("r = 0: the first-order map is not defined")
    solution.gap.gate("P")
    a = problem.a_matrix
    r = solution.r
    x = solution.x

    p = a.T @ a - bundle.sigma[-1] ** 2 * np.eye(n)
    g_of_x = np.kron(np.concatenate([x, [-1.0]]), np.eye(m))
    r_unit = r / np.linalg.norm(r)
    rhs = (
        2.0 * np.outer(a.T @ r_unit, r_unit @ g_of_x)
        - a.T @ g_of_x
        - np.hstack([np.kron(np.eye(n), r), np.zeros((n, m))])
    )
    return np.linalg.solve(p, rhs)


def kron_condition(
    k_matrix: np.ndarray, problem: TlsProblem, solution: TlsSolution
) -> ConditionEstimate:
    """kappa = ||K|| for the K of build_k_matrix.

    K solves against P, so the route is gated like the cholesky route. The
    relative scale ||[A b]||_F is taken from the data.
    """
    warnings = solution.gap.gate("P")
    kappa = float(np.linalg.norm(k_matrix, 2))
    aug_norm = float(np.hypot(np.linalg.norm(problem.a_matrix), np.linalg.norm(problem.b_vector)))
    return ConditionEstimate(kappa, _relative(kappa, aug_norm, solution), "kronecker", warnings)


def cholesky_condition(
    work: ExactFormulaWork,
    problem: TlsProblem,
    bundle: SvdBundle,
    solution: TlsSolution,
) -> ConditionEstimate:
    """kappa = sqrt(1+||x||^2) ||P^{-1} L|| via triangular solves against P.

    Raises IllConditionedGap below relative gap 1e-6, where P is numerically
    singular and the result would be meaningless. P, C and their Cholesky
    factors are formed only once the gate has passed.
    """
    warnings = solution.gap.gate("P")
    n = problem.n
    a = problem.a_matrix
    x = solution.x
    sig2 = float(bundle.sigma[-1]) ** 2
    ata = a.T @ a
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
    kappa = float(np.hypot(1.0, solution.norm_x) * np.linalg.norm(y, 2))
    rel = _relative(kappa, work.aug_frobenius, solution)
    return ConditionEstimate(kappa, rel, "cholesky", warnings)


def svd_condition(
    work: ExactFormulaWork, bundle: SvdBundle, solution: TlsSolution
) -> ConditionEstimate:
    """kappa = sqrt(1+||x||^2) ||V11^{-T} S||, the reference formula.

    ||V11^{-T} S|| is the top secular root of the work (P is never formed or
    inverted), so the result stays reliable for arbitrarily small gaps and
    shares its rounding profile with the kappa2 bounds, which read the same
    root equation with another diagonal.
    """
    kappa = float(np.hypot(1.0, solution.norm_x) * work.top_left[0])
    return ConditionEstimate(kappa, _relative(kappa, work.aug_frobenius, solution), "svd")


def baboulin_condition(
    work: ExactFormulaWork, bundle: SvdBundle, solution: TlsSolution
) -> ConditionEstimate:
    """Comparison formula using both SVDs.

    kappa = sqrt(1+||x||^2) ||Dhat [Vhat^T 0] V [D 0]^T||. The Dhat entries
    blow up as sigma_hat_n -> sigma_{n+1}, so the same gap gates apply as for
    the cholesky route. sigma_hat and Vhat come from one SVD of A, run only
    once the gate has passed.
    """
    warnings = solution.gap.gate("Dhat")
    n = bundle.n
    _, sigma_hat, vt_hat = np.linalg.svd(bundle.rows[:, :n], full_matrices=False)
    sig_last = float(bundle.sigma[-1])
    d_hat = 1.0 / ((sigma_hat - sig_last) * (sigma_hat + sig_last))
    d_b = np.sqrt(bundle.sigma[:-1] ** 2 + sig_last**2)
    zeros = np.zeros((n, 1))
    left = np.hstack([vt_hat, zeros])
    right = np.hstack([np.diag(d_b), zeros]).T
    core = d_hat[:, None] * (left @ bundle.v_aug @ right)
    kappa = float(np.hypot(1.0, solution.norm_x) * np.linalg.norm(core, 2))
    rel = _relative(kappa, work.aug_frobenius, solution)
    return ConditionEstimate(kappa, rel, "baboulin", warnings)

