"""Two-sided bounds on the TLS condition number.

Five families, all cheap relative to the exact formulas:

* simple_sandwich: s_n/alpha <= kappa <= s_n/alpha^2. Ratio alpha^{-1} < 2
  whenever alpha > 1/2.
* sharp_sandwich: refines the sandwich with the first n entries beta of
  V's last row; the enclosure ratio is below 4 whenever alpha <= 1/2, so
  together the two sandwiches pin kappa within a factor 4 for every x != 0.
* kappa1: sqrt(1+||x||^2) sqrt(sigma_hat_j^2 + sigma_{n+1}^2) /
  (sigma_hat_j^2 - sigma_{n+1}^2) with j = n-1 (lower, needs n >= 2) and
  j = n (upper).
* kappa2_lower: sqrt(1+||x||^2) / sqrt(sigma_hat_n^2 - sigma_{n+1}^2).
* kappa2_upper: multiplies kappa2_lower by sqrt((1+31 rho^2)/(1-rho^2)),
  rho = sigma_{n+1}/sigma_n; requires alpha <= 1/2.

The BHM quotient sigma_hat_1/(sigma_hat_n - sigma_{n+1}) is carried along as
a point estimate of the relative condition number; it certifies nothing and
is excluded from the sandwich verdicts.

The few-value families (kappa1, kappa2, the dominance test and BHM) read
only sigma_hat_{n-1}, sigma_hat_n, sigma_n, sigma_{n+1}, delta, sigma_hat_1,
||x|| and alpha; their gaps sigma_hat_j^2 - sigma_{n+1}^2 are the bundle's
secular-root distances to the sigma_{n+1} pole (delta for j = n), never
differences of two computed singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SvdBundle, TlsSolution
from .errors import NotApplicable
from .exact import ExactFormulaWork, svd_condition
from .problem import TlsProblem

VERDICT_SLACK = 1e-9  # floating-point slack; the inequalities are strict


@dataclass(frozen=True)
class BoundPair:
    lower: float | None
    upper: float | None
    family: str
    applicability_note: str = ""


@dataclass(frozen=True)
class BoundsReport:
    kappa_reference: float           # svd-formula kappa, the canonical value
    pairs: dict                      # family -> BoundPair (absolute scale)
    beta: np.ndarray                 # first n entries of the last row of V
    alpha: float
    rho: float                       # sigma_{n+1} / sigma_n
    rel_scale: float | None          # ||[A b]||_F / ||x||, None when x = 0
    sandwich_verdicts: dict          # family -> bool, certified families only
    sharpness_ratios: dict           # family -> upper/lower or None

    def relative_pairs(self) -> dict:
        """Bounds rescaled to the relative condition number.

        The BHM entry is kept as-is: the quotient already estimates the
        relative number directly.
        """
        out = {}
        for family, pair in self.pairs.items():
            if family == "bhm":
                out[family] = pair
                continue
            if self.rel_scale is None:
                out[family] = BoundPair(None, None, family, "x = 0: relative form undefined")
                continue
            out[family] = BoundPair(
                None if pair.lower is None else pair.lower * self.rel_scale,
                None if pair.upper is None else pair.upper * self.rel_scale,
                family,
                pair.applicability_note,
            )
        return out


def simple_sandwich(solution: TlsSolution, work: ExactFormulaWork) -> BoundPair:
    """s_n/alpha <= kappa <= s_n/alpha^2; collapses to equality at alpha = 1."""
    s_n = float(work.s_diag[-1])
    alpha = solution.alpha
    return BoundPair(s_n / alpha, s_n / alpha**2, "simple_sandwich")


def sharp_sandwich(solution: TlsSolution, work: ExactFormulaWork) -> BoundPair:
    """Sandwich from the last row of V; enclosure ratio < 4 when alpha <= 1/2.

    With beta_i the leading entries of that row,

        lower = (1/2) (a^{-2} ||beta o s|| / sqrt(1-a^2)
                       + a^{-1} s_n sqrt(1-a^2-beta_n^2) / sqrt(1-a^2))
        upper = a^{-2} ||beta o s|| / sqrt(1-a^2) + a^{-1} s_n.

    beta / ||beta|| (= beta / sqrt(1-alpha^2)) is the right singular vector
    of V11 for its smallest singular value alpha; both are read from the
    work.

    At x = 0 the general expressions are 0/0 (beta vanishes identically); all
    singular values of V11 are then 1 and kappa equals s_n exactly, so the
    degenerate pair (s_n, s_n) is returned.
    """
    s = work.s_diag
    s_n = float(s[-1])
    if solution.norm_x == 0.0:
        return BoundPair(s_n, s_n, "sharp_sandwich", "x = 0: exact value s_n")

    v_bar_n = work.beta / np.linalg.norm(work.beta)
    a1_norm = float(np.linalg.norm(v_bar_n * s)) / work.alpha
    tail = np.sqrt(max(1.0 - v_bar_n[-1] ** 2, 0.0))
    scale = np.hypot(1.0, solution.norm_x)
    lower = 0.5 * scale * (a1_norm + tail * s_n)
    upper = scale * (a1_norm + s_n)
    note = "ratio < 4 certified (alpha <= 1/2)" if solution.alpha <= 0.5 else ""
    return BoundPair(float(lower), float(upper), "sharp_sandwich", note)


def sv_bounds_kappa1(bundle: SvdBundle, solution: TlsSolution) -> BoundPair:
    """Bounds from sigma_hat_{n-1} (lower, n >= 2 only) and sigma_hat_n (upper)."""
    sig_last = float(bundle.sigma[-1])
    scale = np.hypot(1.0, solution.norm_x)

    def bound(sig_hat_j: float, gap: float) -> float:
        return float(scale * np.sqrt(sig_hat_j**2 + sig_last**2) / gap)

    upper = bound(bundle.sigma_hat_n, bundle.delta)
    if bundle.n >= 2:
        return BoundPair(bound(*bundle.roots.at(-2)), upper, "kappa1")
    return BoundPair(None, upper, "kappa1", "n = 1: no sigma_hat_{n-1} for the lower bound")


def kappa2_dominance(bundle: SvdBundle) -> tuple[bool, bool]:
    """(general, simple) sufficient conditions for kappa1 lower <= kappa2 lower.

    General: sigma_hat_{n-1} >= sigma_{n+1} + sqrt(sigma_hat_n^2 - sigma_{n+1}^2).
    Simple:  sigma_hat_{n-1} >= 2 sigma_hat_n.
    Both are False for n = 1.
    """
    if bundle.n < 2:
        return False, False
    sig_last = float(bundle.sigma[-1])
    sig_hat_prev = bundle.roots.at(-2)[0]
    root = np.sqrt(max(bundle.delta, 0.0))
    return bool(sig_hat_prev >= sig_last + root), bool(sig_hat_prev >= 2.0 * bundle.sigma_hat_n)


def lower_kappa2(bundle: SvdBundle, solution: TlsSolution) -> BoundPair:
    """sqrt(1+||x||^2) / sqrt(sigma_hat_n^2 - sigma_{n+1}^2) as a lower bound, from delta."""
    value = float(np.hypot(1.0, solution.norm_x) / np.sqrt(bundle.delta))
    general, simple = kappa2_dominance(bundle)
    note = "dominates kappa1 lower" if general else ""
    if simple:
        note = "dominates kappa1 lower (sigma_hat_{n-1} >= 2 sigma_hat_n)"
    return BoundPair(value, None, "kappa2_lower", note)


def upper_kappa2(bundle: SvdBundle, solution: TlsSolution) -> BoundPair:
    """Amplifies the kappa2 lower bound by sqrt((1+31 rho^2)/(1-rho^2)).

    Only certified for alpha <= 1/2; raises NotApplicable otherwise.
    """
    alpha = solution.alpha
    if alpha > 0.5:
        raise NotApplicable(f"alpha={alpha:.4f} > 1/2: upper bound not certified")
    rho = float(bundle.sigma[-1] / bundle.sigma[-2])
    amp = float(np.sqrt((1.0 + 31.0 * rho**2) / ((1.0 - rho) * (1.0 + rho))))
    base = lower_kappa2(bundle, solution)
    return BoundPair(base.lower, base.lower * amp, "kappa2_upper", f"rho={rho:.4f}")


def bhm_approx(bundle: SvdBundle) -> BoundPair:
    """sigma_hat_1 / (sigma_hat_n - sigma_{n+1}), a heuristic point estimate.

    The denominator is read from delta as delta / (sigma_hat_n + sigma_{n+1}).
    """
    gap = bundle.delta / (bundle.sigma_hat_n + float(bundle.sigma[-1]))
    value = float(bundle.roots.at(0)[0] / gap)
    return BoundPair(None, value, "bhm", "heuristic, no bound guarantee")


def bounds_report(
    problem: TlsProblem,
    bundle: SvdBundle,
    solution: TlsSolution,
    work: ExactFormulaWork,
) -> BoundsReport:
    """Evaluate every applicable family and compare against the svd kappa."""
    kappa_ref = svd_condition(work, bundle, solution).kappa_abs
    pairs = {
        "simple_sandwich": simple_sandwich(solution, work),
        "sharp_sandwich": sharp_sandwich(solution, work),
        "kappa1": sv_bounds_kappa1(bundle, solution),
        "kappa2_lower": lower_kappa2(bundle, solution),
    }
    try:
        pairs["kappa2_upper"] = upper_kappa2(bundle, solution)
    except NotApplicable as exc:
        pairs["kappa2_upper"] = BoundPair(None, None, "kappa2_upper", str(exc))
    pairs["bhm"] = bhm_approx(bundle)

    verdicts = {}
    ratios = {}
    for family, pair in pairs.items():
        if family != "bhm":
            ok_lower = pair.lower is None or pair.lower <= kappa_ref * (1.0 + VERDICT_SLACK)
            ok_upper = pair.upper is None or kappa_ref <= pair.upper * (1.0 + VERDICT_SLACK)
            verdicts[family] = bool(ok_lower and ok_upper)
        if pair.lower is not None and pair.upper is not None and pair.lower > 0:
            ratios[family] = float(pair.upper / pair.lower)
        else:
            ratios[family] = None

    norm_x = solution.norm_x
    return BoundsReport(
        kappa_reference=float(kappa_ref),
        pairs=pairs,
        beta=work.beta,
        alpha=solution.alpha,
        rho=float(bundle.sigma[-1] / bundle.sigma[-2]),
        rel_scale=work.aug_frobenius / norm_x if norm_x > 0 else None,
        sandwich_verdicts=verdicts,
        sharpness_ratios=ratios,
    )
