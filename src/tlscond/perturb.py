"""Empirical validation of the first-order perturbation theory.

A perturbation direction is a unit-Frobenius pair (dA, db). For a step t the
observed sensitivity is ||x(A + t dA, b + t db) - x(A, b)|| / t, where the
perturbed problem is re-solved from scratch through the SVD solver so the
measurement is independent of the formulas under test. As t -> 0 the ratio
approaches ||K z|| for the stacked direction z, is maximized over unit z by
the condition number, and attains it along K^T u for K's top left singular
vector u. K is never formed: K z and K^T u cost O(mn) through the closed-form
V11^{-1} of ExactFormulaWork, and u is V11^{-T} S q for the eigenvector q
that the work's secular equation gives in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import solve_tls, svd_bundle
from .errors import NoUniqueSolution, PerturbationTooLarge, TrivialProblem
from .exact import ExactFormulaWork, build_spectral_work, svd_condition
from .problem import TlsProblem

# Perturbed relative gap must keep this fraction of the base gap.
GAP_PERSISTENCE = 1e-3
# Steps below this multiple of ||[A b]||_F measure rounding, not the map.
CLEAN_STEP_FLOOR = 1e-12
# Relative tolerance of the sound and attained verdicts against kappa.
VALIDATION_TOLERANCE = 1e-3

VALIDATION_COLUMNS = (
    "label",
    "kappa",
    "max_ratio",
    "worst_direction_ratio",
    "trials",
    "step",
    "sound",
    "attained",
)


@dataclass(frozen=True)
class PerturbationDirection:
    """A pair (dA, db) with unit stacked Frobenius norm."""

    delta_a: np.ndarray
    delta_b: np.ndarray

    @classmethod
    def normalized(cls, delta_a, delta_b) -> "PerturbationDirection":
        delta_a = np.asarray(delta_a, dtype=float)
        delta_b = np.asarray(delta_b, dtype=float)
        scale = np.sqrt(np.linalg.norm(delta_a) ** 2 + np.linalg.norm(delta_b) ** 2)
        if scale == 0.0:
            raise ValueError("zero direction")
        return cls(delta_a / scale, delta_b / scale)

    def stacked(self) -> np.ndarray:
        """[vec(dA); db] with column-stacked vec, matching K's column order."""
        return np.concatenate([self.delta_a.ravel(order="F"), self.delta_b])

    def frobenius(self) -> float:
        return float(np.sqrt(np.linalg.norm(self.delta_a) ** 2
                             + np.linalg.norm(self.delta_b) ** 2))


@dataclass(frozen=True)
class ConvergencePoint:
    t: float
    ratio: float
    remainder: float   # |ratio - ||K z|||
    clean: bool        # above the rounding floor, usable for the slope fit


@dataclass(frozen=True)
class ValidationSummary:
    kappa_reference: float
    max_observed_ratio: float | None   # None when trials = 0
    worst_direction_ratio: float
    trials: int
    step: float
    convergence_slopes: tuple          # (t, remainder) pairs along the worst direction

    @property
    def sound(self) -> bool:
        """No observed ratio exceeds kappa within VALIDATION_TOLERANCE."""
        bound = self.kappa_reference * (1.0 + VALIDATION_TOLERANCE)
        observed = self.worst_direction_ratio
        if self.max_observed_ratio is not None:
            observed = max(observed, self.max_observed_ratio)
        return observed <= bound

    @property
    def attained(self) -> bool:
        """The worst direction reaches kappa within VALIDATION_TOLERANCE."""
        return self.worst_direction_ratio >= self.kappa_reference * (1.0 - VALIDATION_TOLERANCE)

    def report_row(self, label: str) -> dict:
        """Flatten into a row keyed by VALIDATION_COLUMNS for a ReportDocument."""
        return {
            "label": label,
            "kappa": self.kappa_reference,
            "max_ratio": self.max_observed_ratio,
            "worst_direction_ratio": self.worst_direction_ratio,
            "trials": float(self.trials),
            "step": self.step,
            "sound": 1.0 if self.sound else 0.0,
            "attained": 1.0 if self.attained else 0.0,
        }


def random_direction(m: int, n: int, rng) -> PerturbationDirection:
    """Uniform direction on the unit Frobenius sphere of stacked pairs."""
    rng = np.random.default_rng(rng)
    return PerturbationDirection.normalized(
        rng.standard_normal((m, n)), rng.standard_normal(m)
    )


def _k_apply(work: ExactFormulaWork, problem: TlsProblem, solution, direction) -> np.ndarray:
    """K [vec(dA); db] = P^{-1}(2 (A^T r^)(r^ . g) - A^T g - dA^T r) with g = dA x - db."""
    a, r, da = problem.a_matrix, solution.r, direction.delta_a
    r_unit = r / np.linalg.norm(r)
    g = da @ solution.x - direction.delta_b
    return work.apply_p_inv(2.0 * (a.T @ r_unit) * (r_unit @ g) - a.T @ g - da.T @ r)


def first_order_prediction(
    work: ExactFormulaWork,
    problem: TlsProblem,
    solution,
    direction: PerturbationDirection,
    t: float,
) -> np.ndarray:
    """x + t K [vec(dA); db], the linearized solution at step t."""
    return solution.x + t * _k_apply(work, problem, solution, direction)


def _solve(problem: TlsProblem):
    bundle = svd_bundle(problem)
    solution = solve_tls(problem, bundle)
    return bundle, solution, build_spectral_work(problem, bundle, solution)


def _perturbed_ratio(problem, base_solution, direction, t):
    perturbed = TlsProblem(
        problem.a_matrix + t * direction.delta_a,
        problem.b_vector + t * direction.delta_b,
        label=problem.label + "+perturbation",
    )
    try:
        pert_solution = solve_tls(perturbed, svd_bundle(perturbed))
    except (NoUniqueSolution, TrivialProblem) as exc:
        raise PerturbationTooLarge(f"gap lost at t={t:.3e}") from exc
    base_gap, pert_gap = base_solution.gap.rel_gap, pert_solution.gap.rel_gap
    if pert_gap < GAP_PERSISTENCE * base_gap:
        raise PerturbationTooLarge(f"rel_gap collapsed from {base_gap:.3e} to {pert_gap:.3e}")
    return float(np.linalg.norm(pert_solution.x - base_solution.x) / t)


def perturbation_ratio(problem: TlsProblem, direction: PerturbationDirection, t: float) -> float:
    """||x_perturbed - x|| / t with the perturbed problem solved exactly."""
    if t <= 0:
        raise ValueError("step t must be positive")
    return _perturbed_ratio(problem, solve_tls(problem, svd_bundle(problem)), direction, t)


def worst_direction(
    work: ExactFormulaWork, problem: TlsProblem, solution
) -> PerturbationDirection:
    """Unit direction attaining ||K||: K^T u / kappa for K's top left singular vector u.

    With w = P^{-1} u and y = 2 (r^ . A w) r^ - A w, K^T u = (y x^T - r w^T, -y).
    """
    w = work.apply_p_inv(work.top_left[1])
    a_w, r = problem.a_matrix @ w, solution.r
    r_unit = r / np.linalg.norm(r)
    y = 2.0 * (r_unit @ a_w) * r_unit - a_w
    return PerturbationDirection.normalized(np.outer(y, solution.x) - np.outer(r, w), -y)


def convergence_study(problem: TlsProblem, direction: PerturbationDirection, t_list):
    """Observed ratio and first-order remainder across decreasing steps.

    remainder(t) = |ratio(t) - ||K z|||, which decays linearly in t until
    rounding dominates; points with t below the floor are flagged not-clean
    and left out of slope fits.
    """
    _, base_solution, work = _solve(problem)
    predicted = float(np.linalg.norm(_k_apply(work, problem, base_solution, direction)))
    floor = CLEAN_STEP_FLOOR * work.aug_frobenius
    points = []
    for t in t_list:
        ratio = _perturbed_ratio(problem, base_solution, direction, t)
        points.append(
            ConvergencePoint(
                t=float(t),
                ratio=ratio,
                remainder=abs(ratio - predicted),
                clean=t >= floor,
            )
        )
    return points


def remainder_slope(points) -> float:
    """Least-squares log-log slope of remainder vs t over the clean points."""
    ts = [p.t for p in points if p.clean and p.remainder > 0.0]
    rs = [p.remainder for p in points if p.clean and p.remainder > 0.0]
    if len(ts) < 2:
        return float("nan")
    return float(np.polyfit(np.log(ts), np.log(rs), 1)[0])


def monte_carlo_validate(
    problem: TlsProblem,
    trials: int,
    t: float | None = None,
    seed: int = 0,
) -> ValidationSummary:
    """Random-direction soundness sweep plus the worst-direction probe.

    Each trial derives its own generator from (seed, trial index), so the
    summary does not depend on execution order. The default step is
    1e-8 ||[A b]||_F, balancing the Taylor remainder against rounding.
    """
    bundle, base_solution, work = _solve(problem)
    if t is None:
        t = 1e-8 * work.aug_frobenius

    ratios = []
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        direction = random_direction(problem.m, problem.n, rng)
        ratios.append(_perturbed_ratio(problem, base_solution, direction, t))

    worst = worst_direction(work, problem, base_solution)
    worst_ratio = _perturbed_ratio(problem, base_solution, worst, t)

    predicted = float(np.linalg.norm(_k_apply(work, problem, base_solution, worst)))
    slopes = []
    for factor in (1e3, 1e2, 1e1):
        try:
            ratio = _perturbed_ratio(problem, base_solution, worst, factor * t)
        except PerturbationTooLarge:
            continue
        slopes.append((factor * t, abs(ratio - predicted)))

    return ValidationSummary(
        kappa_reference=svd_condition(work, bundle, base_solution).kappa_abs,
        max_observed_ratio=max(ratios) if ratios else None,
        worst_direction_ratio=worst_ratio,
        trials=trials,
        step=float(t),
        convergence_slopes=tuple(slopes),
    )
