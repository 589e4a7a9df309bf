"""Exact TLS condition numbers by four independent formulas.

All formulas target the absolute condition number of the map from the
stacked data (vec A, b) to the solution x; the relative number rescales by
||[A b]||_F / ||x||. The four routes:

* kronecker: spectral norm of the explicit first-order map K, an
  n x m(n+1) matrix acting on [vec(dA); db] with column-stacked vec.
* cholesky: sqrt(1+||x||^2) * ||P^{-1} L|| with P = A^T A - sigma_{n+1}^2 I
  and L L^T the Cholesky factorization of
  C = A^T A + sigma_{n+1}^2 I - 2 sigma_{n+1}^2 x x^T / (1+||x||^2).
* svd: sqrt(1+||x||^2) * ||V11^{-T} S|| with V11 the leading n x n block of
  the right singular factor of [A b] and S diagonal with entries
  s_i = sqrt(sigma_i^2 + sigma_{n+1}^2) / (sigma_i^2 - sigma_{n+1}^2).
* baboulin: sqrt(1+||x|^2) * ||Dhat [Vhat^T 0] V [D 0]^T||, a comparison
  formula that also needs the SVD of A.

The svd route is the reference: it stays accurate when sigma_hat_n and
sigma_{n+1} nearly coincide, where the P-based routes break down. Those
(kronecker, cholesky and baboulin) are gated at relative gap 1e-6 (hard
IllConditionedGap) and 1e-3 (warning).

Each problem is factored once: the SVD of V11 in ExactFormulaWork feeds the
svd formula and the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .core import GapDiagnostics, SvdBundle, TlsSolution, check_uniqueness
from .errors import (
    FactorizationError,
    IllConditionedGap,
    SingularBlock,
    TrivialProblem,
)
from .problem import TlsProblem

HARD_GAP_LIMIT = 1e-6
WARN_GAP_LIMIT = 1e-3


@dataclass(frozen=True)
class ExactFormulaWork:
    """Shared spectral parts for the condition formulas.

    v11_svd is the one factorization: the SVD of the leading n x n block
    V11 of the right singular factor of [A b]. The reference formula and
    the gap-sensitive bounds all apply V11^{-T} through it, so that their
    rounding errors cancel in enclosure comparisons. k_matrix is None until
    build_k_matrix fills it in.
    """

    k_matrix: np.ndarray | None   # (n, m(n+1)) first-order map
    v11_svd: tuple                # (u_bar, sv, vh): v11 = u_bar @ diag(sv) @ vh
    s_diag: np.ndarray            # (n,) ascending weights s_i
    d_hat: np.ndarray             # (n,) 1 / (sigma_hat_i^2 - sigma_{n+1}^2)
    d_b: np.ndarray               # (n,) sqrt(sigma_i^2 + sigma_{n+1}^2)
    lambda_diag: np.ndarray       # (n,) sigma_i^2 - sigma_{n+1}^2
    gap: GapDiagnostics           # check_uniqueness of the bundle
    aug_frobenius: float          # ||[A b]||_F

    def apply_v11_inv_t(self, diag: np.ndarray) -> np.ndarray:
        """V11^{-T} diag(d) up to an orthogonal left factor.

        V11^{-T} = u_bar diag(1/sv) vh, so dropping u_bar leaves the n x n
        matrix (vh * d) / sv[:, None] with the same singular values as the
        target.
        """
        _, sv, vh = self.v11_svd
        return (vh * diag) / sv[:, None]

    @cached_property
    def v11_inv_t_s_norm(self) -> float:
        """||V11^{-T} S||, the spectral factor of the reference kappa."""
        return float(np.linalg.norm(self.apply_v11_inv_t(self.s_diag), 2))

    @cached_property
    def v11_inv_t_lambda_norm(self) -> float:
        """||V11^{-T} Lambda^{-1/2}|| = sqrt(||P^{-1}||), as P = V11 Lambda V11^T."""
        t_diag = 1.0 / np.sqrt(self.lambda_diag)
        return float(np.linalg.norm(self.apply_v11_inv_t(t_diag), 2))


@dataclass(frozen=True)
class ConditionEstimate:
    kappa_abs: float
    kappa_rel: float | None       # None when x = 0
    method: str                   # kronecker | cholesky | svd | baboulin
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class V11Analysis:
    singular_values: np.ndarray   # descending; expected (1, ..., 1, alpha)
    kappa_v11: float              # expected sqrt(1 + ||x||^2)
    alpha_from_v11: float         # smallest singular value


def aug_frobenius(bundle: SvdBundle) -> float:
    """||[A b]||_F from the singular values."""
    return float(np.linalg.norm(bundle.sigma))


def _relative(kappa_abs: float, work: ExactFormulaWork, solution: TlsSolution) -> float | None:
    norm_x = solution.norm_x
    if norm_x == 0.0:
        return None
    return kappa_abs * work.aug_frobenius / norm_x


def _gap_gate(work: ExactFormulaWork, what: str) -> tuple[str, ...]:
    """Gate of the P-based routes: raise below HARD_GAP_LIMIT, warn below WARN_GAP_LIMIT."""
    rel_gap = work.gap.rel_gap
    if rel_gap < HARD_GAP_LIMIT:
        raise IllConditionedGap(
            f"rel_gap={rel_gap:.3e} < {HARD_GAP_LIMIT}: {what} is numerically singular"
        )
    if rel_gap < WARN_GAP_LIMIT:
        return (f"rel_gap={rel_gap:.3e} < {WARN_GAP_LIMIT}: {what} nearly singular",)
    return ()


def build_spectral_work(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> ExactFormulaWork:
    """Assemble the spectral parts every formula and bound reads (cheap for large m)."""
    n = problem.n
    sig_last = float(bundle.sigma[-1])
    sig2 = sig_last**2

    # Differences of squares in factored form: sigma_i - sigma_{n+1} > 0 is
    # guaranteed by the gap check, while sigma_i**2 - sig2 can round to zero.
    head = bundle.sigma[:-1]
    lam = (head - sig_last) * (head + sig_last)
    s_diag = np.sqrt(head**2 + sig2) / lam
    d_hat = 1.0 / ((bundle.sigma_hat - sig_last) * (bundle.sigma_hat + sig_last))
    d_b = np.sqrt(head**2 + sig2)

    return ExactFormulaWork(
        k_matrix=None,
        v11_svd=np.linalg.svd(bundle.v_aug[:n, :n]),
        s_diag=s_diag,
        d_hat=d_hat,
        d_b=d_b,
        lambda_diag=lam,
        gap=check_uniqueness(bundle),
        aug_frobenius=aug_frobenius(bundle),
    )


def build_k_matrix(
    problem: TlsProblem, bundle: SvdBundle, solution: TlsSolution
) -> ExactFormulaWork:
    """Assemble the explicit first-order map K on top of the spectral parts.

    Column layout: the first m*n columns act on vec(dA) with columns stacked
    first, the trailing m columns act on db. K solves against P explicitly
    (not through V11), so it stays an independent oracle for the svd route.
    """
    if bundle.sigma[-1] == 0.0:
        raise TrivialProblem("r = 0: the first-order map is not defined")
    work = build_spectral_work(problem, bundle, solution)
    m, n = problem.m, problem.n
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
    return replace(work, k_matrix=np.linalg.solve(p, rhs))


def kron_condition(
    work: ExactFormulaWork, problem: TlsProblem, solution: TlsSolution
) -> ConditionEstimate:
    """kappa = ||K|| via the explicit Kronecker-form map.

    K solves against P, so the route is gated like the cholesky route.
    """
    if work.k_matrix is None:
        raise ValueError("K not assembled; use build_k_matrix")
    warnings = _gap_gate(work, "P")
    kappa = float(np.linalg.norm(work.k_matrix, 2))
    return ConditionEstimate(kappa, _relative(kappa, work, solution), "kronecker", warnings)


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
    warnings = _gap_gate(work, "P")
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
    return ConditionEstimate(kappa, _relative(kappa, work, solution), "cholesky", warnings)


def svd_condition(
    work: ExactFormulaWork, bundle: SvdBundle, solution: TlsSolution
) -> ConditionEstimate:
    """kappa = sqrt(1+||x||^2) ||V11^{-T} S||, the reference formula.

    V11^{-T} is applied through the SVD of the n x n block (P is never
    formed or inverted), so the result stays reliable for arbitrarily small
    gaps and shares its rounding profile with the sandwich bounds, which are
    built from the same decomposition.
    """
    sv = work.v11_svd[1]
    if sv[-1] <= 0.0 or not np.isfinite(sv[-1]):
        raise SingularBlock("V11 numerically singular: smallest singular value is 0")
    kappa = float(np.hypot(1.0, solution.norm_x) * work.v11_inv_t_s_norm)
    return ConditionEstimate(kappa, _relative(kappa, work, solution), "svd")


def baboulin_condition(
    work: ExactFormulaWork, bundle: SvdBundle, solution: TlsSolution
) -> ConditionEstimate:
    """Comparison formula using both SVDs.

    kappa = sqrt(1+||x||^2) ||Dhat [Vhat^T 0] V [D 0]^T||. The Dhat entries
    blow up as sigma_hat_n -> sigma_{n+1}, so the same gap gates apply as for
    the cholesky route.
    """
    warnings = _gap_gate(work, "Dhat")
    n = bundle.n
    zeros = np.zeros((n, 1))
    left = np.hstack([bundle.v_hat.T, zeros])
    right = np.hstack([np.diag(work.d_b), zeros]).T
    core = work.d_hat[:, None] * (left @ bundle.v_aug @ right)
    kappa = float(np.hypot(1.0, solution.norm_x) * np.linalg.norm(core, 2))
    return ConditionEstimate(kappa, _relative(kappa, work, solution), "baboulin", warnings)


def v11_spectrum(work: ExactFormulaWork) -> V11Analysis:
    """Singular values of the leading n x n block of V: (1, ..., 1, alpha)."""
    sv = work.v11_svd[1].copy()
    return V11Analysis(
        singular_values=sv,
        kappa_v11=float(sv[0] / sv[-1]),
        alpha_from_v11=float(sv[-1]),
    )
