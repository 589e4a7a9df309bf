"""Thin SVDs, solvability diagnostics, and the TLS solver.

The bundle holds the singular values of A and the thin SVD of [A b], both of
one row block: [A b], or once m >= 2(n+1) (LAPACK's QR-first crossover) the
(n+1) x (n+1) R of one Householder QR [A b] = Q R, A = Q R[:, :n] (Chan's
R-SVD). Q is never formed: the left factors are in that block's row basis.
A's singular vectors are not in the bundle; their two readers, the baboulin
comparison route and the gap chain of residual_diagnostics, compute them from
rows[:, :n] when called.

The solver takes the trailing right singular vector of [A b], sign-normalized
so its last entry is -alpha with alpha = 1/sqrt(1 + ||x||^2), and reads the
solution off it; its checks are residual_diagnostics' work. The gap
sigma_hat_n - sigma_{n+1} is classified once, kept as TlsSolution.gap, and
judged by the one policy here: below a relative gap of HARD_GAP_LIMIT,
P = A^T A - sigma_{n+1}^2 I is numerically singular, so the normal-equations
cross-check P^{-1} A^T b is skipped and GapDiagnostics.gate refuses the
P-based routes; below WARN_GAP_LIMIT the gate warns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class SvdBundle:
    """Singular values of A (hatted) and the thin SVD of [A b] (plain quantities)."""

    rows: np.ndarray       # (k, n+1): [A b] (k = m) or its R factor (k = n+1)
    sigma_hat: np.ndarray  # (n,) singular values of A, descending
    sigma: np.ndarray      # (n+1,) singular values of [A b], descending
    u_aug: np.ndarray      # (k, n+1), left factor of [A b] in the row basis of rows
    v_aug: np.ndarray      # (n+1, n+1)

    @property
    def n(self) -> int:
        return self.sigma_hat.shape[0]

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

    gap_ok: bool            # sigma_{n+1} < sigma_hat_n
    nontrivial: bool        # sigma_{n+1} > 0
    rel_gap: float          # (sigma_hat_n - sigma_{n+1}) / sigma_hat_n
    ratio_sigma_n: float    # sigma_{n+1} / sigma_n
    ratio_sigma_hat_n: float  # sigma_{n+1} / sigma_hat_n

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
    gap_chain_mid: float | None    # sigma_hat_n - sigma_{n+1}
    gap_chain_upper: float | None  # ||b|| / ||x||
    gap_chain_holds: bool | None   # None when x = 0 (chain not applicable)


def svd_bundle(problem: TlsProblem) -> SvdBundle:
    """sigma_hat and the thin SVD of [A b], descending, via the R of [A b] when m >= 2(n+1)."""
    rows = problem.augmented()
    try:
        if problem.m >= 2 * (problem.n + 1):
            rows = np.linalg.qr(rows, mode="r")
        sigma_hat = np.linalg.svd(rows[:, : problem.n], compute_uv=False)
        u_aug, sigma, vt_aug = np.linalg.svd(rows, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed: {exc}") from exc
    return SvdBundle(rows, sigma_hat, sigma, u_aug, vt_aug.T)


def check_uniqueness(bundle: SvdBundle) -> GapDiagnostics:
    """Classify the gap condition 0 < sigma_{n+1} < sigma_hat_n."""
    sig_hat_n = float(bundle.sigma_hat[-1])
    sig_last = float(bundle.sigma[-1])
    sig_n = float(bundle.sigma[-2])
    return GapDiagnostics(
        gap_ok=sig_last < sig_hat_n,
        nontrivial=sig_last > 0.0,
        rel_gap=(sig_hat_n - sig_last) / sig_hat_n if sig_hat_n > 0 else 0.0,
        ratio_sigma_n=sig_last / sig_n if sig_n > 0 else 0.0,
        ratio_sigma_hat_n=sig_last / sig_hat_n if sig_hat_n > 0 else 0.0,
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
            f"sigma_{{n+1}}={bundle.sigma[-1]:.6e} >= sigma_hat_n={bundle.sigma_hat[-1]:.6e}"
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
    mid = float(bundle.sigma_hat[-1] - bundle.sigma[-1])
    upper = float(np.linalg.norm(problem.b_vector)) / norm_x
    slack = 1e-12
    holds = lower <= mid * (1 + slack) + 1e-300 and mid <= upper * (1 + slack)
    return ResidualReport(identities, normal_eq_rel_diff, float(lower), mid, upper, bool(holds))
