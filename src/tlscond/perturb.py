"""Empirical validation of the first-order perturbation theory.

A perturbation direction is a unit-Frobenius pair (dA, db). For a step t the
observed sensitivity is ||x(A + t dA, b + t db) - x(A, b)|| / t, where the
perturbed problem is re-solved from scratch through the SVD solver so the
measurement is independent of the formulas under test. Every re-solve goes
through one path, _resolves: each step's unit direction is written in stacked
order [vec(dA); db] straight into one reused Fortran buffer, where it is scaled
by t and [A b] is added; past the bundle's crossover (core.block_rows, m >=
2(n+1)) the buffer is reduced to its R by the bundle's kernel
(core.householder_qr), whose triangle is copied into its slot of the stack.
The blocks of a stack of at most STACK_BYTES are factored by one
core.block_svd call, and each step then passes solve_tls's own checks
(core.accept_trailing_vector) in step order. A random direction is the next
m(n+1) standard normals of one generator, drawn into that buffer and divided
by their norm; a fixed one is copied in. Only x and the relative gap are
read; no residual is formed. As t -> 0 the ratio
approaches ||K z|| for the stacked direction z, is maximized over unit z by
the condition number, and attains it along K^T u for K's top left singular
vector u. K is never formed: K z and K^T u cost O(mn) through the closed-form
V11^{-1} of ExactFormulaWork, and u is V11^{-T} S q for the eigenvector q
that the work's secular equation gives in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SigmaHatRoots,
    accept_trailing_vector,
    block_rows,
    block_svd,
    householder_qr,
    solve_tls,
    svd_bundle,
)
from .errors import (
    ConvergenceError,
    NoUniqueSolution,
    PerturbationTooLarge,
    ShapeError,
    TlsCondError,
    TrivialProblem,
)
from .exact import ExactFormulaWork, build_spectral_work, svd_condition
from .problem import TlsProblem

# Perturbed relative gap must keep this fraction of the base gap.
GAP_PERSISTENCE = 1e-3
# Steps below this multiple of ||[A b]||_F measure rounding, not the map.
CLEAN_STEP_FLOOR = 1e-12
# Relative tolerance of the sound and attained verdicts against kappa.
VALIDATION_TOLERANCE = 1e-3
# Bytes of one stack of re-solves (row blocks and their SVD factors): the
# lab's memory does not grow with its number of trials.
STACK_BYTES = 2**22

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


def random_direction(m: int, n: int, rng) -> PerturbationDirection:
    """Uniform direction on the unit Frobenius sphere of stacked pairs.

    The next m(n+1) standard normals of rng in stacked order [vec(dA); db]
    (vec column-major), divided by their norm: exactly one trial's draw in
    monte_carlo_validate.
    """
    z = np.empty(m * (n + 1))
    _unit_normals(np.random.default_rng(rng), z)
    return PerturbationDirection(z[: m * n].reshape((m, n), order="F"), z[m * n :])


def _unit_normals(rng, z: np.ndarray) -> None:
    """Overwrite z with the next len(z) standard normals of rng, divided by their norm."""
    rng.standard_normal(out=z)
    z /= np.linalg.norm(z)


def _copying(vector):
    """A fill for _resolves that writes vector, one stacked unit direction, at every step."""
    return lambda z: np.copyto(z, vector)


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


def _ratios(problem: TlsProblem, base_solution, fill, steps) -> list:
    """||x(A + t dA, b + t db) - x|| / t for each step (t, optional), in order.

    fill writes one step's unit direction, as _resolves takes it. A lost or
    collapsed gap raises PerturbationTooLarge, or gives None for an optional step.
    """
    ratios = []
    base_gap = base_solution.gap.rel_gap
    resolves = _resolves(problem, fill, [t for t, _ in steps])
    for (t, optional), resolved in zip(steps, resolves):
        try:
            if isinstance(resolved, TlsCondError):
                raise PerturbationTooLarge(f"gap lost at t={t:.3e}") from resolved
            x, gap = resolved
            if gap.rel_gap < GAP_PERSISTENCE * base_gap:
                raise PerturbationTooLarge(
                    f"rel_gap collapsed from {base_gap:.3e} to {gap.rel_gap:.3e}")
            ratios.append(float(np.linalg.norm(x - base_solution.x) / t))
        except PerturbationTooLarge:
            if not optional:
                raise
            ratios.append(None)
    return ratios


def _along(work: ExactFormulaWork, problem: TlsProblem, base_solution, direction, steps) -> list:
    """(ratio, remainder) for each step (t, optional) along one fixed direction z.

    remainder = |ratio - ||K z|||. As in _ratios, an optional step that loses
    the gap gives None.
    """
    predicted = float(np.linalg.norm(_k_apply(work, problem, base_solution, direction)))
    fill = _copying(direction.stacked())
    return [
        None if ratio is None else (ratio, abs(ratio - predicted))
        for ratio in _ratios(problem, base_solution, fill, steps)
    ]


def _resolves(problem: TlsProblem, fill, ts):
    """Per step t, solve_tls's (x, gap) on [A + t dA, b + t db], or what it raises.

    The NoUniqueSolution or TrivialProblem of a lost gap is yielded, not
    raised; DegenerateVector is raised. fill(z) writes one step's unit
    direction into the contiguous z of length m(n+1), in stacked order
    [vec(dA); db]; it is called once per step, in step order, one stack at a
    time, and each step is yielded before the next stack is filled. z is the
    Fortran-ordered [dA db] itself, so t z + [vec(A); b] is formed in place.
    The re-solves are bitwise those of solve_tls on svd_bundle of
    the perturbed problem: the same sums, the same crossover
    (core.block_rows), the same kernels (the R of core.row_block, with its
    +0.0 below the diagonal) and the same checks (core.accept_trailing_vector).
    """
    if not ts:
        return
    m, n = problem.m, problem.n
    k = block_rows(m, n + 1)
    per_stack = max(1, STACK_BYTES // (8 * (n + 1) * (2 * k + n + 1)))  # block, u and vt
    # each block Fortran-ordered; zeros stay below an R's diagonal, and below
    # the QR crossover the data goes straight in
    blocks = np.zeros((min(per_stack, len(ts)), n + 1, k)).transpose(0, 2, 1)
    ab = problem.augmented().ravel(order="F")  # [vec(A); b], in z's order
    aug = upper = None
    if k < m:  # the QR's scratch and R's triangle
        aug, upper = np.empty((m, n + 1), order="F"), ~np.tri(k, k, -1, dtype=bool)
    for start in range(0, len(ts), len(blocks)):
        stack = blocks[: len(ts) - start]
        for block, t in zip(stack, ts[start : start + len(stack)]):
            target = block if aug is None else aug
            z = target.T.reshape(-1)  # a view: target is Fortran-ordered
            fill(z)
            z *= t
            z += ab
            if aug is not None:
                np.copyto(block, householder_qr(aug)[0][:k], where=upper)
        for sigma, vt in _factored(stack):
            sig_hat_n, delta = SigmaHatRoots(sigma, vt[:, -1]).at(-1)
            try:
                gap, v_last = accept_trailing_vector(sigma, vt[-1], sig_hat_n, delta)
            except (NoUniqueSolution, TrivialProblem) as exc:
                yield exc
                continue
            yield -v_last[:-1] / v_last[-1], gap


def _factored(blocks):
    """(sigma, vt) per block: one block_svd of the stack, or block by block.

    A stack whose SVD fails or meets data that is not finite is re-run one
    block at a time, lazily, so the failing step raises in its turn: data
    that is not finite raises ShapeError, as TlsProblem does.
    """
    try:
        _, sigmas, vts = block_svd(blocks)
        if np.isfinite(sigmas).all():
            yield from zip(sigmas, vts)
            return
    except ConvergenceError:
        pass
    for block in blocks:
        if not np.isfinite(block).all():
            raise ShapeError("entries must be finite")
        _, sigma, vt = block_svd(block)
        yield sigma, vt


def _check_step(t: float) -> None:
    """Raise ValueError unless the step t is positive and finite."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"step t must be positive and finite, got {t}")


def perturbation_ratio(problem: TlsProblem, direction: PerturbationDirection, t: float) -> float:
    """||x_perturbed - x|| / t with the perturbed problem solved exactly."""
    _check_step(t)
    base_solution = solve_tls(problem, svd_bundle(problem))
    return _ratios(problem, base_solution, _copying(direction.stacked()), [(t, False)])[0]


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
    and left out of slope fits. Raises ValueError for a step that is not
    positive and finite.
    """
    t_list = tuple(t_list)
    for t in t_list:
        _check_step(t)
    _, base_solution, work = _solve(problem)
    floor = CLEAN_STEP_FLOOR * work.aug_frobenius
    probes = _along(work, problem, base_solution, direction, [(t, False) for t in t_list])
    return [
        ConvergencePoint(t=float(t), ratio=ratio, remainder=remainder, clean=t >= floor)
        for t, (ratio, remainder) in zip(t_list, probes)
    ]


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

    One generator, np.random.default_rng(seed), feeds the trials in order:
    trial i's direction is the (i+1)-th random_direction(m, n, rng) of it,
    drawn straight into the re-solve's buffer. So the first k trials are the
    same for any trials >= k, and the summary does not depend on the stack
    size. The default step is 1e-8 ||[A b]||_F, balancing the Taylor
    remainder against rounding. Raises ValueError for trials < 0 or a step
    that is not positive and finite.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if t is not None:
        _check_step(t)
    bundle, base_solution, work = _solve(problem)
    if t is None:
        t = 1e-8 * work.aug_frobenius

    draw = functools.partial(_unit_normals, np.random.default_rng(seed))
    ratios = _ratios(problem, base_solution, draw, [(t, False)] * trials)

    # the worst direction at t, then three larger steps that may each lose the gap
    worst = worst_direction(work, problem, base_solution)
    steps = [(t, False)] + [(factor * t, True) for factor in (1e3, 1e2, 1e1)]
    (worst_ratio, _), *probes = _along(work, problem, base_solution, worst, steps)
    slopes = [
        (step, probe[1]) for (step, _), probe in zip(steps[1:], probes) if probe is not None
    ]

    return ValidationSummary(
        kappa_reference=svd_condition(work, bundle, base_solution).kappa_abs,
        max_observed_ratio=max(ratios) if ratios else None,
        worst_direction_ratio=worst_ratio,
        trials=trials,
        step=float(t),
        convergence_slopes=tuple(slopes),
    )
