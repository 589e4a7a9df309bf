"""Empirical validation of the first-order perturbation theory.

A perturbation direction is one unit vector z = [vec(dA); db] (vec
column-major), in the column order of the first-order map K. For a step t the
observed sensitivity is ||x(A + t dA, b + t db) - x(A, b)|| / t, where the
perturbed problem is re-solved from scratch through the SVD solver so the
measurement is independent of the formulas under test. Every re-solve goes
through one path, _resolves, in the lab's space (_lab_space). Below the
bundle's crossover (core.block_rows, m < 2(n+1)) that is [A b] itself, a
direction is [dA db], and a re-solve is bitwise solve_tls(svd_bundle(p)) of
the rebuilt problem p. Past it, with [A b] = Q [R_0; 0] and R_0 the bundle's
rows, a direction is Q^T [dA db] = [Y_1; Y_2] with Y_2 reduced to its R,
T_2: [R_0 + t Y_1; t T_2] has the rebuilt problem's singular values and
right singular vectors, so x agrees with the rebuilt problem's to rounding
(within 4 eps kappa_rel ||x|| on the tested problems), and no m-row array,
QR or draw is made past the base bundle: a trial costs the same at any m.
Each step's direction is scaled by t and the base is added: below the
crossover in a reused stack of Fortran buffers, past it in a scratch stack
of 2(n+1)-row sums, which one stacked Householder QR (numpy's qr, LAPACK
dgeqrf block by block) reduces to their R while the blocks are narrower
than STACKED_QR_WIDTH. Wider sums, and the worst direction's at every
width, are reduced one at a time by the bundle's kernel
(core.householder_qr), whose triangle is copied into its slot of the
stack. The blocks of a stack of at most STACK_BYTES are factored by one
core.block_svd call (each block scaled by a power of two, then numpy's
stacked dgesdd below core.V_ONLY_WIDTH, core.few_value_svd block by block
from there on, as svd_bundle factors one block), which gives sigma, b's row
of V and v_{n+1} alone and refuses a sigma_1 whose square overflows, and
each step then passes solve_tls's own checks (core.check_gap, then
core.trailing_vector) in step order. Most steps' gap is known before the
re-solve: by Weyl's inequality a unit direction moves every singular value
of [A b] and of A by at most t, so where (g - 2t - s) / (sigma_hat_n + t),
with g = sigma_hat_n - sigma_{n+1} and s a rounding slack, keeps
GAP_PERSISTENCE of the base rel_gap (_GapCertificate), the step builds no
SigmaHatRoots, solves no secular root and skips core.check_gap, passing only
core.trailing_vector. A random trial is uniform on the unit sphere of the
whole space: below the crossover the next m(n+1) standard normals of one
generator over their norm; past it [Y_1; T_2] over its norm, Y_1 standard
normal and T_2 by Bartlett's decomposition (_gaussian_blocks), which has
the law of the reduced Q^T Z for a Gaussian Z. Only x and the relative gap
are read; no residual is formed. As t -> 0 the ratio approaches ||K z||, is
maximized over unit z by the condition number kappa, and attains it along
K^T u for K's top left singular vector u, where ||K z|| = kappa: the
remainders along the worst direction are |ratio - kappa|. K is never
formed: worst_direction forms the whole V once, through core.right_factor,
reads V11, y, beta and alpha from it, and applies V11^{-1} = V11^T + beta
y^T / alpha; u is V11^{-T} S q for the eigenvector q that the secular
equation of kappa gives in closed form, and K^T u costs O(mn). Past the
crossover the lab forms that direction's Q^T [dA db] from R_0 alone
(_worst_in_rows), in O(n^2). A step below CLEAN_STEP_FLOOR ||[A b]||_F is
refused: there the ratio measures rounding, not K.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SigmaHatRoots,
    SvdBundle,
    block_rows,
    block_svd,
    check_gap,
    householder_qr,
    right_factor,
    solve_tls,
    svd_bundle,
    trailing_vector,
)
from .errors import (
    ConvergenceError,
    NoUniqueSolution,
    NotApplicable,
    PerturbationTooLarge,
    ShapeError,
    TlsCondError,
    TrivialProblem,
)
from .exact import ExactFormulaWork, _secular_top, build_spectral_work, svd_condition
from .problem import TlsProblem

# Perturbed relative gap must keep this fraction of the base gap.
GAP_PERSISTENCE = 1e-3
# Steps below this multiple of ||[A b]||_F measure rounding, not the map.
CLEAN_STEP_FLOOR = 1e-12
# Relative tolerance of the sound and attained verdicts against kappa.
VALIDATION_TOLERANCE = 1e-3
# Bytes of one stack of re-solves at its peak (row blocks and their SVD
# factors, with the u that numpy forms below core.V_ONLY_WIDTH; past the QR
# crossover the sums and numpy's copy of them at the QR): the lab's memory
# does not grow with its number of trials.
STACK_BYTES = 2**22
# The narrowest tall trial block that the lab reduces one block at a time
# (core.householder_qr, dgeqrt); narrower stacks go through one numpy qr,
# whose dgeqrf runs unblocked below 128 columns. Per block of a stack of
# 2k x k sums, the bottom half upper triangular, one call against one dgeqrt
# and copy each (medians of 6 alternating runs, each the median of 21
# calls; a 2-vCPU VM, one BLAS thread): k = 11, 2.4 against 10.6 us; 31, 13
# against 32; 61, 61 against 84; 81, 120 against 132; 86, 153 against 152;
# 91, 169 against 164; 96, 202 against 181; 101, 236 against 201; 121, 385
# against 284. On two BLAS threads numpy's call took 149 against 175 us at
# k = 86, and 430 against 451 at 91, where both run threaded kernels.
STACKED_QR_WIDTH = 86
# Weyl's certificate allows rounding of this many eps ||[A b]||_F: at most 2
# for forming t z + [A b] (t < ||[A b]||_F there), and a few each for the
# backward errors of the base bundle's and the re-solve's QR and SVD.
_WEYL_SLACK = 16.0
_EPS = float(np.finfo(float).eps)

@dataclass(frozen=True)
class ValidationSummary:
    kappa_reference: float
    max_observed_ratio: float | None   # None when trials = 0
    worst_direction_ratio: float
    trials: int
    step: float
    convergence_slopes: tuple          # (t, |ratio - kappa|) pairs along the worst direction
    certified_trials: int              # random trials whose gap Weyl's inequality certified
    gap: float                         # g = sigma_hat_n - sigma_{n+1} of [A b], from delta
    gap_shift: float                   # 2t + s: the most a step, with rounding, moves g

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


@dataclass(frozen=True)
class _GapCertificate:
    """Weyl's inequality on the base gap: the steps that cannot lose it.

    A unit z gives ||t [dA db]||_2 <= t, so a step moves every singular value
    of [A b] and of A by at most t (Stewart & Sun, Matrix Perturbation Theory,
    1990, IV.4): sigma_hat_n falls and sigma_{n+1} rises by at most t each, and
    the perturbed rel_gap is at least (g - 2t - s) / (sigma_hat_n + t).
    """

    gap: float          # g = sigma_hat_n - sigma_{n+1}, from delta
    slack: float        # s = _WEYL_SLACK eps ||[A b]||_F
    sigma_hat_n: float
    required: float     # GAP_PERSISTENCE times the base rel_gap

    @classmethod
    def of(cls, bundle, base_solution, work: ExactFormulaWork) -> _GapCertificate:
        """The certificate of one base problem, from its bundle, solution and work."""
        return cls(
            gap=bundle.abs_gap,
            slack=_WEYL_SLACK * _EPS * work.aug_frobenius,
            sigma_hat_n=bundle.sigma_hat_n,
            required=GAP_PERSISTENCE * base_solution.gap.rel_gap,
        )

    def covers(self, t: float) -> bool:
        """Whether every unit direction keeps rel_gap >= required at step t."""
        return (self.gap - 2.0 * t - self.slack) / (self.sigma_hat_n + t) >= self.required


def _lab_space(problem: TlsProblem, bundle: SvdBundle) -> np.ndarray:
    """The Fortran-ordered array that the lab's directions perturb.

    Below the bundle's crossover (core.block_rows) it is [A b] itself, the
    bundle's read-only rows, and a direction is [dA db]. Past it, with
    [A b] = Q [R_0; 0] and R_0 the bundle's rows, it is [R_0; 0] with 2(n+1)
    rows, and a direction is Q^T [dA db] with its bottom m-n-1 rows reduced
    to their (n+1) x (n+1) R: both give the perturbed problem's singular
    values and right singular vectors.
    """
    rows, k = bundle.rows, problem.n + 1
    if block_rows(problem.m, k) == problem.m:
        return rows
    base = np.zeros((2 * k, k), order="F")
    base[:k] = rows
    return base


def _unit_normals(rng, directions: np.ndarray) -> None:
    """Overwrite each direction of the stack with the next p(n+1) standard
    normals of rng, in stacked order [vec(dA); db], divided by their norm."""
    for direction in directions:
        z = direction.T.reshape(-1)  # a view: each direction is Fortran-ordered
        rng.standard_normal(out=z)
        z /= np.linalg.norm(z)


def _gaussian_blocks(normals, chis, m: int, directions: np.ndarray) -> None:
    """Overwrite each Fortran-ordered 2(n+1) x (n+1) direction of the stack
    with [Y_1; T_2]: Q^T Z for a Gaussian m x (n+1) Z, its bottom rows Y_2
    reduced to their R.

    Each direction takes the next 2(n+1)^2 standard normals of the normals
    generator, column by column, all in one call; then T_2's entries below
    the diagonal are zeroed and its diagonal entry i is the root of the next
    chi-square of chis, with m-n-1-i degrees of freedom (Bartlett's
    decomposition of Y_2^T Y_2 = T_2^T T_2; Muirhead, Aspects of
    Multivariate Statistical Theory, 1982, Thm 3.2.14). So Y_1 and T_2's
    strict upper triangle are standard normal, and direction i is the i-th
    run of each generator whatever the stack's size. Not normalized.
    """
    count, _, k = directions.shape
    normals.standard_normal(out=directions.transpose(0, 2, 1))  # contiguous: Fortran blocks
    bottom = directions[:, k:]
    below, diagonal = np.tril_indices(k, -1), np.arange(k)
    bottom[:, below[0], below[1]] = 0.0
    bottom[:, diagonal, diagonal] = np.sqrt(chis.chisquare(m - k - diagonal, (count, k)))


def _trials(problem: TlsProblem, seed: int):
    """The fill of monte_carlo_validate's random trials: uniform unit
    directions in the lab's space (_lab_space), from one seed.

    Below the crossover each is m(n+1) normals of np.random.default_rng(seed)
    over their norm (_unit_normals); past it, [Y_1; T_2] over its norm
    (_gaussian_blocks) from the two generators of SeedSequence(seed).spawn(2),
    equal in distribution to the reduced Q^T Z / ||Z||_F, as ||Z||_F =
    ||[Y_1; T_2]||_F.
    """
    if block_rows(problem.m, problem.n + 1) == problem.m:
        return functools.partial(_unit_normals, np.random.default_rng(seed))
    normals, chis = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))

    def fill(directions):
        _gaussian_blocks(normals, chis, problem.m, directions)
        # each direction's Frobenius norm, with no temporary the size of the stack
        directions /= np.sqrt(np.einsum("ijk,ijk->i", directions, directions))[:, None, None]

    return fill


def _copying(direction):
    """A fill for _resolves that copies one fixed unit direction into every step."""
    return lambda directions: np.copyto(directions, direction)


def _ratios(base: np.ndarray, base_solution, fill, steps, certificate,
            stacked_qr: bool = True) -> list:
    """||x(A + t dA, b + t db) - x|| / t for each step (t, optional), in order.

    base is _lab_space's array and fill writes the steps' unit directions
    in its space, as _resolves takes them, with stacked_qr. A lost or
    collapsed gap raises PerturbationTooLarge, or gives None for an optional
    step. A step that certificate, a _GapCertificate, covers is not checked
    for it.
    """
    ratios = []
    base_gap = base_solution.gap.rel_gap
    resolves = _resolves(base, fill, [t for t, _ in steps], certificate, stacked_qr)
    for (t, optional), resolved in zip(steps, resolves):
        try:
            if isinstance(resolved, TlsCondError):
                raise PerturbationTooLarge(f"gap lost at t={t:.3e}") from resolved
            x, gap = resolved
            if gap is not None and gap.rel_gap < GAP_PERSISTENCE * base_gap:
                raise PerturbationTooLarge(
                    f"rel_gap collapsed from {base_gap:.3e} to {gap.rel_gap:.3e}")
            ratios.append(float(np.linalg.norm(x - base_solution.x) / t))
        except PerturbationTooLarge:
            if not optional:
                raise
            ratios.append(None)
    return ratios


def _resolves(base: np.ndarray, fill, ts, certificate, stacked_qr: bool = True):
    """Per step t, solve_tls's (x, gap) on base + t d, or what it raises.

    base is _lab_space's p x (n+1) array. The NoUniqueSolution or
    TrivialProblem of a lost gap is yielded, not raised; DegenerateVector is
    raised. fill(directions) overwrites a stack of p x (n+1) Fortran-ordered
    directions with its steps' unit directions; it is called once per stack,
    in step order, and each step is yielded before the next stack is filled.
    Each stack's blocks are base + t d, reduced to their R when p >= 2(n+1)
    (core.block_rows: the row-block space of a tall problem) by
    _perturbed_blocks, in one stacked QR if stacked_qr and they are narrower
    than STACKED_QR_WIDTH. The checks are solve_tls's, in its order
    (core.check_gap, then core.trailing_vector). So on [A b] itself the
    re-solves are bitwise those of solve_tls on svd_bundle of the perturbed
    problem; in the row-block space they agree with them to rounding. A step
    that the certificate (a _GapCertificate) covers builds no SigmaHatRoots
    and skips check_gap: it passes trailing_vector alone, and yields the same
    x with gap None; block_svd has refused its sigma_1 where it would
    overflow, as for svd_bundle.
    """
    if not ts:
        return
    p, width = base.shape
    k = block_rows(p, width)
    # bytes per step at a stack's peak: its block, u and vt, or past the
    # crossover, at the QR, its sum and numpy's copy of it (p rows each)
    per_stack = max(1, STACK_BYTES // (8 * width * max(2 * k + width, 2 * p)))
    # below the crossover the steps are written straight into one reused stack
    blocks = np.empty((min(per_stack, len(ts)), width, p)).transpose(0, 2, 1) if k == p else None
    for start in range(0, len(ts), per_stack):
        steps = ts[start : start + per_stack]
        stack = _perturbed_blocks(base, fill, steps, blocks, stacked_qr)
        for (sigma, b_row, v_last), t in zip(_factored(stack), steps):
            try:
                gap = (None if certificate.covers(t)
                       else check_gap(sigma, *SigmaHatRoots(sigma, b_row).at(-1)))
                v_last = trailing_vector(sigma, v_last)
            except (NoUniqueSolution, TrivialProblem) as exc:
                yield exc
                continue
            yield -v_last[:-1] / v_last[-1], gap


def _perturbed_blocks(base: np.ndarray, fill, steps, blocks, stacked_qr: bool) -> np.ndarray:
    """The stack of base + t d, for each step t and its unit direction d from fill.

    Below the crossover the sums are written into the first len(steps)
    blocks of blocks, a reused stack, and returned; past it blocks is None.
    There the sums are a scratch stack, and a new stack of their R is
    returned (+0.0 below the diagonal, as core.row_block). If stacked_qr and
    the blocks are narrower than STACKED_QR_WIDTH, one stacked Householder
    QR, numpy's qr (LAPACK dgeqrf block by block; each block gets the bits of
    its own call), reduces them all: mode "raw" returns numpy's factored copy
    of the sums, each block transposed (R^T on and below its diagonal), so
    the sums are freed before R is taken from it, Fortran-ordered, and no
    more is held at once than the sums and that copy. Otherwise
    core.householder_qr reduces each sum in place, and its triangle is
    copied into its slot. Entries that are not finite stay so through either
    QR, and block_svd refuses them.
    """
    p, width = base.shape
    tall = blocks is None
    sums = np.empty((len(steps), width, p)).transpose(0, 2, 1) if tall else blocks[: len(steps)]
    fill(sums)
    sums *= np.array(steps)[:, None, None]
    sums += base
    if not tall:
        return sums
    if stacked_qr and width < STACKED_QR_WIDTH:
        factored = np.linalg.qr(sums, mode="raw")[0]
        del sums
        return np.tril(factored[:, :, :width]).transpose(0, 2, 1)
    reduced = np.zeros((len(steps), width, width)).transpose(0, 2, 1)
    upper = ~np.tri(width, width, -1, dtype=bool)
    for block, direction in zip(reduced, sums):
        np.copyto(block, householder_qr(direction)[0][:width], where=upper)
    return reduced


def _factored(blocks):
    """(sigma, b_row, v_last) per block: one block_svd of the stack, or block by block.

    A stack whose SVD fails, that holds data that is not finite or whose
    sigma_1 overflows when squared, is re-run one block at a time, lazily, so
    the failing step raises in its turn: data that is not finite raises
    ShapeError, as TlsProblem does.
    """
    try:
        factored = block_svd(blocks)
    except (ConvergenceError, ShapeError):
        yield from (block_svd(block) for block in blocks)
        return
    yield from zip(*factored)


def _worst_w(bundle: SvdBundle, work: ExactFormulaWork) -> np.ndarray:
    """w = P^{-1} u for K's top left singular vector u, as worst_direction forms it."""
    n = bundle.n
    vt = right_factor(bundle.rows)
    v_last = trailing_vector(bundle.sigma, vt[-1])
    v11, y, alpha = vt[:n, :n].T, v_last[:n], float(-v_last[n])
    beta = vt[:n, -1].copy()  # contiguous: a strided row takes another BLAS dot kernel

    def v11_inv_t(v):
        return v11 @ v + y * (beta @ v / alpha)

    u = v11_inv_t(work.s_diag * _secular_top(work.s_diag, beta, alpha)[1])
    u = u / np.linalg.norm(u)
    return v11_inv_t((v11.T @ u + beta * (y @ u / alpha)) / work.lambda_diag)


def worst_direction(bundle: SvdBundle, problem: TlsProblem, solution) -> np.ndarray:
    """Unit z = [vec(dA); db] attaining ||K||: K^T u / kappa for K's top left singular vector u.

    V11, y, beta and alpha are read from one V, core.right_factor of the
    bundle's rows, with v_{n+1} signed by core.trailing_vector, so the closed
    form V11^{-T} = V11 + y beta^T / alpha holds to V's own rounding. u is
    V11^{-T} S q for the top eigenvector q of the secular equation of s, beta
    and alpha (exact._secular_top), and w = P^{-1} u = V11^{-T} Lambda^{-1}
    V11^{-1} u, with s and Lambda from build_spectral_work. With g = 2 (r^ .
    A w) r^ - A w, K^T u = (g x^T - r w^T, -g). Raises ConvergenceError.
    """
    w = _worst_w(bundle, build_spectral_work(problem, bundle, solution))
    a_w, r = problem.a_matrix @ w, solution.r
    r_unit = r / np.linalg.norm(r)
    g = 2.0 * (r_unit @ a_w) * r_unit - a_w
    delta_a = np.outer(g, solution.x) - np.outer(r, w)
    scale = np.sqrt(np.linalg.norm(delta_a) ** 2 + np.linalg.norm(g) ** 2)
    return np.concatenate([delta_a.ravel(order="F"), -g]) / scale


def _worst_in_rows(rows: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Q^T [dA db] of worst_direction's z from R_0 = rows alone, [A b] = Q [R_0; 0].

    r = [A b] x~ (x~ = [x; -1]) and A w lie in range([A b]), so Q_1^T r =
    R_0 x~, Q_1^T A w = R_0[:, :n] w and the bottom block is zero: the
    direction g x~^T - r [w; 0]^T is formed in the (n+1) x (n+1) top block,
    over its Frobenius norm, with no m-row array.
    """
    x_tilde = np.append(x, -1.0)
    r, a_w = rows @ x_tilde, rows[:, :-1] @ w
    r_unit = r / np.linalg.norm(r)
    g = 2.0 * (r_unit @ a_w) * r_unit - a_w
    top = np.outer(g, x_tilde) - np.outer(r, np.append(w, 0.0))
    return top / np.linalg.norm(top)


def monte_carlo_validate(
    problem: TlsProblem,
    trials: int,
    t: float | None = None,
    seed: int = 0,
) -> ValidationSummary:
    """Random-direction soundness sweep plus the worst-direction probe.

    The trials are uniform unit directions drawn in order (_trials): below
    the QR crossover trial i is the i-th run of m(n+1) standard normals of
    np.random.default_rng(seed), drawn straight into the re-solve's buffer
    and divided by their norm; past it, the i-th run of 2(n+1)^2 normals
    and of n+1 chi-squares of the two generators of
    np.random.SeedSequence(seed).spawn(2), as the row-block direction
    [Y_1; T_2]. So the first k trials are the same for any trials >= k, and
    the summary does not depend on the stack size. The default step is 1e-8
    ||[A b]||_F, balancing the Taylor remainder against rounding. All trials
    share one step, so Weyl's certificate covers all of them or none
    (certified_trials), and each of the worst direction's four steps is
    judged on its own; a covered step solves no secular root and gives the
    same ratio. Raises ValueError for trials < 0 or a step that is not
    positive and finite, and NotApplicable for a step below CLEAN_STEP_FLOOR
    ||[A b]||_F.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if t is not None and not (math.isfinite(t) and t > 0):
        raise ValueError(f"step t must be positive and finite, got {t}")
    bundle = svd_bundle(problem)
    base_solution = solve_tls(problem, bundle)
    work = build_spectral_work(problem, bundle, base_solution)
    floor = CLEAN_STEP_FLOOR * work.aug_frobenius
    if t is None:
        t = 1e-8 * work.aug_frobenius
    elif t < floor:
        raise NotApplicable(
            f"step t={t:.3e} is below the clean-step floor {floor:.3e} "
            f"(CLEAN_STEP_FLOOR * ||[A b]||_F), where the ratios measure rounding")

    certificate = _GapCertificate.of(bundle, base_solution, work)
    base = _lab_space(problem, bundle)
    ratios = _ratios(base, base_solution, _trials(problem, seed), [(t, False)] * trials,
                     certificate)

    # the worst direction at t, then three larger steps that may each lose the gap;
    # along it ||K z|| = ||K|| = kappa, so each remainder is |ratio - kappa|
    kappa = svd_condition(work, bundle, base_solution).kappa_abs
    if base is bundle.rows:  # [A b] itself, below the crossover
        worst = worst_direction(bundle, problem, base_solution).reshape(base.shape, order="F")
    else:
        worst = np.zeros_like(base)
        worst[: problem.n + 1] = _worst_in_rows(bundle.rows, base_solution.x,
                                                _worst_w(bundle, work))
    steps = [(t, False)] + [(factor * t, True) for factor in (1e3, 1e2, 1e1)]
    # its sums go through the bundle's dgeqrt one at a time, at every width:
    # near the clean-step floor the ratio carries a few 1e-4 kappa of
    # rounding, and the kernel moves it (alpha 20x5, alpha 0.5, seed 3 at the
    # floor: 1.0008 kappa through dgeqrt, 1.0015 through numpy's dgeqrf)
    worst_ratio, *probes = _ratios(base, base_solution, _copying(worst), steps, certificate,
                                   stacked_qr=False)
    slopes = [(step, abs(ratio - kappa))
              for (step, _), ratio in zip(steps[1:], probes) if ratio is not None]

    return ValidationSummary(
        kappa_reference=kappa,
        max_observed_ratio=max(ratios) if ratios else None,
        worst_direction_ratio=worst_ratio,
        trials=trials,
        step=float(t),
        convergence_slopes=tuple(slopes),
        certified_trials=trials if certificate.covers(t) else 0,
        gap=certificate.gap,
        gap_shift=2.0 * t + certificate.slack,
    )
