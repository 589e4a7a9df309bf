import dataclasses
import tracemalloc

import numpy as np
import pytest

import tlscond as tc
from conftest import counting_factorizations, k_of, perturbed, pipeline, unit_normals
from tlscond import perturb
from tlscond.errors import (
    NoUniqueSolution,
    NotApplicable,
    PerturbationTooLarge,
    ShapeError,
    TrivialProblem,
)


def stacked(delta_a, delta_b):
    """The unit direction z = [vec(dA); db] along (dA, db), vec column-major (K's column order)."""
    z = np.concatenate([np.ravel(delta_a, order="F"), delta_b])
    return z / np.linalg.norm(z)


def unit_direction(m, n, entry=None, b_entry=None):
    """The stacked unit direction that bumps one entry of A or of b."""
    da = np.zeros((m, n))
    db = np.zeros(m)
    if entry is not None:
        da[entry] = 1.0
    if b_entry is not None:
        db[b_entry] = 1.0
    return stacked(da, db)


def ratios(problem, z, steps):
    """The lab's observed ratios along one fixed direction z, each step required."""
    solution = tc.solve_tls(problem, tc.svd_bundle(problem))
    return perturb._ratios(problem, solution, perturb._copying(z), [(t, False) for t in steps])


@pytest.fixture(
    params=["fix_a", "fix_b", (6, 5, 0.4, 3), (50, 10, 0.3, 1)],
    ids=["fix_a", "fix_b", "alpha_6x5", "alpha_50x10"],
)
def problem(request):
    """Problems small enough for the explicit K oracle."""
    if isinstance(request.param, str):
        return request.getfixturevalue(request.param)
    m, n, alpha, seed = request.param
    return tc.generate_ab_alpha(m, n, alpha, seed=seed)


def test_prediction_fix_a(problem):
    # the first-order change of x along z is K z, applied without forming K
    bundle, solution, work = pipeline(problem)
    k = tc.build_k_matrix(problem, bundle, solution)
    z = unit_normals(problem.m, problem.n, np.random.default_rng(4))
    k_z = perturb._k_apply(work, problem, solution, z)
    assert np.linalg.norm(k_z - k @ z) <= 1e-12 * np.linalg.norm(k @ z)
    if problem.label != "fix_a":
        return
    # pure b-perturbation along e2: the matching K column is zero
    k_z = perturb._k_apply(work, problem, solution, unit_direction(2, 1, b_entry=1))
    np.testing.assert_allclose(k_z, [0.0], atol=1e-14)
    # unit bump of A's (2,1) entry moves x by t/3
    k_z = perturb._k_apply(work, problem, solution, unit_direction(2, 1, entry=(1, 0)))
    np.testing.assert_allclose(k_z, [1.0 / 3.0], rtol=1e-12)


def test_perturbation_ratio_fix_a(fix_a):
    [ratio] = ratios(fix_a, unit_direction(2, 1, entry=(1, 0)), [1e-8])
    assert ratio == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_ratio_tends_to_directional_derivative():
    problem = tc.generate_ab_alpha(20, 5, 0.5, seed=21)
    z = unit_normals(20, 5, np.random.default_rng(2))
    predicted = np.linalg.norm(k_of(problem) @ z)
    # t balances the Taylor remainder O(t) against rounding O(eps/t)
    ratio, closer, far = ratios(problem, z, [1e-7, 1e-8, 1e-4])
    assert ratio == pytest.approx(predicted, rel=1e-4)
    assert abs(closer - predicted) < abs(far - predicted)


def test_worst_direction_fix_a(problem):
    bundle, solution, work = pipeline(problem)
    k = tc.build_k_matrix(problem, bundle, solution)
    z = tc.worst_direction(work, problem, solution)
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-14)
    attained = np.linalg.norm(k @ z)
    assert attained == pytest.approx(np.linalg.norm(k, 2), rel=1e-10)
    if problem.label != "fix_a":
        return
    # top right singular vector of (1/3)[0 1 2 0], sign-insensitive: [vec(dA); db]
    np.testing.assert_allclose(
        np.abs(z), [0.0, 1 / np.sqrt(5), 2 / np.sqrt(5), 0.0], atol=1e-14
    )
    [ratio] = ratios(problem, z, [1e-8])
    assert ratio == pytest.approx(np.sqrt(5) / 3, rel=1e-3)


def test_worst_direction_on_deblur():
    # deblur m=300 (n=284): K would have 24M entries and P is gated, yet the
    # map through V11 attains the svd reference along the worst direction
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=300, seed=1))
    bundle, solution, work = pipeline(problem)
    z = tc.worst_direction(work, problem, solution)
    kappa = tc.svd_condition(work, bundle, solution).kappa_abs
    k_z = perturb._k_apply(work, problem, solution, z)
    assert np.linalg.norm(k_z) == pytest.approx(kappa, rel=1e-8)


def test_worst_direction_ignores_the_signs_of_v():
    # solve_tls fixes the sign of v_{n+1}, and u = V11^{-T} S q keeps its sign
    # when any of v_1..v_n changes sign, so the direction is the same for
    # every sign choice of the SVD (here v_1, v_3, .., v_{n+1} negated)
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=1)
    bundle = tc.svd_bundle(problem)
    signs = np.where(np.arange(11) % 2 == 0, -1.0, 1.0)
    flipped = dataclasses.replace(bundle, u_aug=bundle.u_aug * signs, v_aug=bundle.v_aug * signs)
    directions = []
    for each in (bundle, flipped):
        solution = tc.solve_tls(problem, each)
        work = tc.build_spectral_work(problem, each, solution)
        directions.append(tc.worst_direction(work, problem, solution))
    np.testing.assert_allclose(directions[0], directions[1], rtol=0, atol=1e-15)


def test_monte_carlo_never_forms_k():
    # the explicit K of this problem has 1.24M entries and its SVD's right
    # factor 38M; the map through V11 needs O(mn)
    problem = tc.generate_ab_alpha(200, 30, 0.3, seed=0)
    tracemalloc.start()
    try:
        summary = tc.monte_carlo_validate(problem, trials=5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.sound and summary.attained
    assert peak < 16 * 2**20


def test_perturbation_too_large(fix_a, fix_b):
    # driving A's first column toward zero erases the gap
    with pytest.raises(PerturbationTooLarge):
        ratios(fix_a, stacked([[-1.0], [0.0]], [0.0, 0.0]), [1.0])
    # b + t db = (1, 0) lies in range(A): sigma_{n+1} = 0 exactly
    with pytest.raises(PerturbationTooLarge):
        ratios(fix_b, stacked([[0.0], [0.0]], [0.0, -1.0]), [1.0])


def remainders(problem, z, steps):
    """|ratio - ||K z||| at each step along z."""
    _, solution, work = pipeline(problem)
    return [remainder for _, remainder in
            perturb._along(work, problem, solution, z, [(t, False) for t in steps])]


def test_convergence_first_order():
    problem = tc.generate_ab_alpha(20, 5, 0.5, seed=3)
    z = unit_normals(20, 5, np.random.default_rng(11))
    steps = [1e-4, 1e-5, 1e-6]
    points = remainders(problem, z, steps)
    # remainder decays ~10x per decade
    assert points[1] == pytest.approx(points[0] / 10, rel=0.3)
    assert points[2] == pytest.approx(points[1] / 10, rel=0.3)
    slope = np.polyfit(np.log(steps), np.log(points), 1)[0]
    assert 0.8 <= slope <= 1.2

    halved = remainders(problem, z, [2e-5, 1e-5])
    assert halved[1] == pytest.approx(halved[0] / 2, rel=0.2)


def test_a_step_below_the_clean_floor_is_not_applicable():
    # at 1e-13 ||[A b]||_F the worst direction reads 1.016 kappa, and at 1e-16
    # 9.3 kappa: rounding, not the map, so a correct kappa would read unsound
    problem = tc.generate_ab_alpha(20, 5, 0.5, seed=3)
    floor = perturb.CLEAN_STEP_FLOOR * pipeline(problem)[2].aug_frobenius
    for t in (0.1 * floor, 1e-4 * floor):
        with pytest.raises(NotApplicable, match=f"t={t:.3e} is below the clean-step floor "
                                                f"{floor:.3e}"):
            tc.monte_carlo_validate(problem, trials=5, t=t)
    summary = tc.monte_carlo_validate(problem, trials=5, t=floor)
    assert summary.sound and summary.attained


def test_monte_carlo_fix_b(fix_b):
    summary = tc.monte_carlo_validate(fix_b, trials=100, seed=7)
    kappa = summary.kappa_reference
    assert summary.max_observed_ratio <= kappa * 1.001
    assert summary.worst_direction_ratio >= kappa * 0.999
    assert summary.sound and summary.attained
    assert len(summary.convergence_slopes) == 3


@pytest.mark.parametrize("name", ["alpha_50x10", "alpha_200x30"])
def test_the_worst_direction_probe_is_the_convergence_study(name):
    # the summary's worst-direction ratio and slopes are the ratio and the
    # remainders along worst_direction at the same steps, bit for bit
    problem = RESOLVE_CASES[name]()
    summary = tc.monte_carlo_validate(problem, trials=5, seed=2)
    steps = [t for t, _ in summary.convergence_slopes]
    assert len(steps) == 3
    _, solution, work = pipeline(problem)
    worst = tc.worst_direction(work, problem, solution)
    (first, _), *points = perturb._along(
        work, problem, solution, worst, [(t, False) for t in [summary.step, *steps]])
    assert first == summary.worst_direction_ratio
    assert [(t, remainder) for t, (_, remainder) in zip(steps, points)] == list(
        summary.convergence_slopes)


def test_monte_carlo_trials_zero(fix_b):
    summary = tc.monte_carlo_validate(fix_b, trials=0, seed=1)
    assert summary.max_observed_ratio is None
    assert summary.worst_direction_ratio > 0
    assert summary.sound


@pytest.mark.parametrize("t", [0.0, -1e-6, np.nan, np.inf])
def test_validator_refuses_a_bad_step(fix_b, t):
    with pytest.raises(ValueError, match="positive and finite"):
        tc.monte_carlo_validate(fix_b, trials=3, t=t)


def test_monte_carlo_refuses_negative_trials(fix_b):
    with pytest.raises(ValueError, match="trials"):
        tc.monte_carlo_validate(fix_b, trials=-1)


def test_monte_carlo_deterministic(fix_b):
    s1 = tc.monte_carlo_validate(fix_b, trials=12, seed=5)
    s2 = tc.monte_carlo_validate(fix_b, trials=12, seed=5)
    assert s1 == s2


def per_trial_ratio(problem, base_solution, z, t):
    """The lab's re-solve one problem at a time, as solve_tls takes it: the reference."""
    rebuilt = perturbed(problem, z, t)
    try:
        solution = tc.solve_tls(rebuilt, tc.svd_bundle(rebuilt))
    except (NoUniqueSolution, TrivialProblem) as exc:
        raise PerturbationTooLarge(f"gap lost at t={t:.3e}") from exc
    base_gap, pert_gap = base_solution.gap.rel_gap, solution.gap.rel_gap
    if pert_gap < perturb.GAP_PERSISTENCE * base_gap:
        raise PerturbationTooLarge(f"rel_gap collapsed from {base_gap:.3e} to {pert_gap:.3e}")
    return float(np.linalg.norm(solution.x - base_solution.x) / t)


RESOLVE_CASES = {
    # both sides of the QR crossover m >= 2(n+1), and the edge shapes
    "alpha_50x10": lambda: tc.generate_ab_alpha(50, 10, 0.3, seed=1),
    "alpha_200x30": lambda: tc.generate_ab_alpha(200, 30, 0.3, seed=4),
    "deblur_60": lambda: tc.kamm_nagy_problem(tc.KammNagyConfig(m=60, seed=1)),
    "alpha_6x5": lambda: tc.generate_ab_alpha(6, 5, 0.4, seed=3),
    "alpha_40x1": lambda: tc.generate_ab_alpha(40, 1, 0.3, seed=3),
}


@pytest.mark.parametrize("name", RESOLVE_CASES)
def test_stacked_resolves_are_the_solver_bitwise(name):
    problem = RESOLVE_CASES[name]()
    rng = np.random.default_rng(8)
    directions = [unit_normals(problem.m, problem.n, rng) for _ in range(12)]
    scale = np.linalg.norm(problem.augmented())
    ts = [scale * 10.0 ** -(4 + i % 5) for i in range(12)]
    fills = iter(directions)

    def fill(z):
        np.copyto(z, next(fills))

    resolved = list(perturb._resolves(problem, fill, ts))
    assert len(resolved) == 12
    for (x, gap), z, t in zip(resolved, directions, ts):
        rebuilt = perturbed(problem, z, t)
        reference = tc.solve_tls(rebuilt, tc.svd_bundle(rebuilt))
        np.testing.assert_array_equal(x, reference.x)
        assert gap.rel_gap == reference.gap.rel_gap


@pytest.mark.parametrize("name", ["alpha_50x10", "deblur_60"])  # the QR and the direct route
def test_the_trials_are_random_directions_drawn_in_turn(name):
    # trial i is the i-th run of m(n+1) normals of default_rng(seed) in
    # stacked order, unit length, re-solved one problem at a time: the same
    # maximum, bit for bit
    problem = RESOLVE_CASES[name]()
    t = 1e-8 * np.linalg.norm(problem.augmented())
    summary = tc.monte_carlo_validate(problem, trials=12, t=t, seed=3)
    base = tc.solve_tls(problem, tc.svd_bundle(problem))
    rng = np.random.default_rng(3)
    observed = [per_trial_ratio(problem, base, unit_normals(problem.m, problem.n, rng), t)
                for _ in range(12)]
    assert summary.max_observed_ratio == max(observed)


def test_a_run_split_into_stacks_is_one_stack(monkeypatch):
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=1)
    whole = tc.monte_carlo_validate(problem, trials=10, seed=3)
    # a block, its u and its vt take 8 * 11 * 33 bytes: three to a stack
    monkeypatch.setattr(perturb, "STACK_BYTES", 3 * 8 * 11 * 33)
    calls = counting_factorizations(monkeypatch)
    split = tc.monte_carlo_validate(problem, trials=10, seed=3)
    stacks = [shape[0] for name, shape in calls if name == "svd" and len(shape) == 3]
    assert stacks == [3, 3, 3, 1] + [3, 1]  # the trials, then the worst direction's four steps
    assert split == whole


def test_a_failed_stack_is_rerun_block_by_block(monkeypatch):
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=1)
    whole = tc.monte_carlo_validate(problem, trials=10, seed=3)
    svd = np.linalg.svd

    def failing_stacks(a, *args, **kwargs):
        if np.ndim(a) == 3 and len(a) > 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_stacks)
    assert tc.monte_carlo_validate(problem, trials=10, seed=3) == whole
    # data that is not finite is refused as TlsProblem refuses it, in its turn
    blocks = np.stack([problem.augmented(), np.full((50, 11), np.inf)])
    factored = perturb._factored(blocks)
    sigma = svd(problem.augmented(), full_matrices=False)[1]
    np.testing.assert_array_equal(next(factored)[0], sigma)
    with pytest.raises(ShapeError, match="entries must be finite"):
        next(factored)


def test_a_gap_lost_mid_stack_raises_as_the_per_trial_solver():
    # trial 9 of 20, all in one stack, collapses the gap: the same error as
    # one problem at a time, drawn in turn from the validate's one generator
    problem = tc.generate_ab_alpha(10, 3, 0.05, seed=1)
    t = 0.07 * np.linalg.norm(problem.augmented())
    base = tc.solve_tls(problem, tc.svd_bundle(problem))
    rng = np.random.default_rng(1)
    with pytest.raises(PerturbationTooLarge) as expected:
        for index in range(20):
            per_trial_ratio(problem, base, unit_normals(10, 3, rng), t)
    assert index == 9
    with pytest.raises(PerturbationTooLarge) as got:
        tc.monte_carlo_validate(problem, trials=20, t=t, seed=1)
    assert str(got.value) == str(expected.value)
    # a step that loses the gap outright between two that keep it
    fix_a = tc.TlsProblem([[2.0], [0.0]], [0.0, 1.0])
    base = tc.solve_tls(fix_a, tc.svd_bundle(fix_a))
    direction = stacked([[-1.0], [0.0]], [0.0, 0.0])
    steps = [1e-3, 1.0, 1e-4]
    per_trial_ratio(fix_a, base, direction, steps[0])  # keeps the gap
    with pytest.raises(PerturbationTooLarge) as expected:
        per_trial_ratio(fix_a, base, direction, steps[1])
    with pytest.raises(PerturbationTooLarge) as got:
        ratios(fix_a, direction, steps)
    assert str(got.value) == str(expected.value) == "gap lost at t=1.000e+00"
    assert type(got.value.__cause__) is type(expected.value.__cause__) is NoUniqueSolution
    assert str(got.value.__cause__) == str(expected.value.__cause__)


def test_the_lab_memory_does_not_grow_with_trials():
    # deblur m=300 stays below the QR crossover: each block is all of [A~ b~]
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=300, seed=1))
    peaks = []
    for trials in (10, 100):
        tracemalloc.start()
        try:
            tc.monte_carlo_validate(problem, trials=trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_an_optional_step_that_loses_the_gap_gives_none(fix_b):
    # dA = -A at t = 1 zeroes A, so the gap is lost; the next step still resolves
    bundle, solution, work = pipeline(fix_b)
    direction = stacked(-fix_b.a_matrix, np.zeros(2))

    def probe(steps):
        return perturb._ratios(fix_b, solution, perturb._copying(direction), steps)

    lost, ratio = probe([(1.0, True), (1e-8, False)])
    assert lost is None
    first_order = perturb._k_apply(work, fix_b, solution, direction)
    assert ratio == pytest.approx(np.linalg.norm(first_order), rel=1e-6)  # 2.1708...
    with pytest.raises(PerturbationTooLarge, match="gap lost at t=1.000e"):
        probe([(1.0, False), (1e-8, False)])
