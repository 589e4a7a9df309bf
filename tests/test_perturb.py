import tracemalloc

import numpy as np
import pytest
import scipy.stats

import tlscond as tc
from conftest import (
    NO_STEP_COVERED,
    copying_each,
    counting_factorizations,
    failed_dstein,
    failed_singular_values,
    householder_q,
    k_of,
    lab_ratios,
    perturbed,
    pipeline,
    remainders,
    rounding_bar,
    tall,
    unit_normals,
)
from tlscond import core, perturb
from tlscond.errors import (
    ConvergenceError,
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
    return lab_ratios(problem, z, [(t, False) for t in steps])


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
    # the observed change of x along z is K z to first order, K explicit
    z = unit_normals(problem.m, problem.n, np.random.default_rng(4))
    [ratio] = ratios(problem, z, [1e-8 * pipeline(problem)[2].aug_frobenius])
    assert ratio == pytest.approx(np.linalg.norm(k_of(problem) @ z), rel=1e-6)
    if problem.label != "fix_a":
        return
    # pure b-perturbation along e2: A^T b stays 0, so x does not move
    assert ratios(problem, unit_direction(2, 1, b_entry=1), [1e-8]) == [0.0]


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
    bundle, solution, _ = pipeline(problem)
    k = tc.build_k_matrix(problem, bundle, solution)
    z = tc.worst_direction(bundle, problem, solution)
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
    # deblur m=300 (n=284): K would have 24M entries and P is gated, yet
    # along the worst direction the observed ratio tends to the svd
    # reference, its shortfall falling tenfold per decade of t (0.0137,
    # 0.00139 and 0.000139 of kappa)
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=300, seed=1))
    bundle, solution, work = pipeline(problem)
    z = tc.worst_direction(bundle, problem, solution)
    kappa = tc.svd_condition(work, bundle, solution).kappa_abs
    steps = [1e-10 * work.aug_frobenius, 1e-11 * work.aug_frobenius, 1e-12 * work.aug_frobenius]
    shortfall = [1.0 - ratio / kappa for ratio in ratios(problem, z, steps)]
    assert shortfall[1] == pytest.approx(shortfall[0] / 10, rel=0.1)
    assert shortfall[2] == pytest.approx(shortfall[1] / 10, rel=0.1)
    assert 0.0 < shortfall[2] < 1e-3


def test_worst_direction_ignores_the_signs_of_v(monkeypatch):
    # trailing_vector fixes the sign of v_{n+1}, and u = V11^{-T} S q keeps
    # its sign when any of v_1..v_n changes sign with its entry of beta, so
    # the direction is the same for every sign choice of the SVD: here
    # dgesdd's v_1, v_3, .., v_{n+1} negated
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=1)
    bundle, solution, _ = pipeline(problem)
    signs = np.where(np.arange(11) % 2 == 0, -1.0, 1.0)
    kernel = core.full_svd

    def flipped(rows):
        sigma, vt = kernel(rows)
        return sigma, vt * signs[:, None]

    vt = core.right_factor(bundle.rows)
    direction = tc.worst_direction(bundle, problem, solution)
    monkeypatch.setattr(core, "full_svd", flipped)
    np.testing.assert_array_equal(core.right_factor(bundle.rows), vt * signs[:, None])
    np.testing.assert_allclose(tc.worst_direction(bundle, problem, solution), direction,
                               rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("name", ["alpha_50x10", "alpha_200x30", "deblur_60"])
def test_the_worst_direction_probe_is_the_convergence_study(name):
    # the summary's worst-direction ratio and slopes are the ratio and the
    # remainders |ratio - kappa| along worst_direction at the same steps:
    # along it ||K z|| = ||K|| = kappa. On [A b] itself bit for bit; in the
    # row-block space of a tall problem the lab forms the direction from R_0,
    # and both agree with z reduced through the QR to rounding, 4 eps kappa_rel
    # ||x|| in x
    problem = RESOLVE_CASES[name]()
    summary = tc.monte_carlo_validate(problem, trials=5, seed=2)
    steps = [t for t, _ in summary.convergence_slopes]
    assert len(steps) == 3
    bundle, solution, _ = pipeline(problem)
    worst = tc.worst_direction(bundle, problem, solution)
    first, *points = ratios(problem, worst, [summary.step, *steps])
    bar = rounding_bar(problem) if tall(problem) else 0.0
    assert abs(first - summary.worst_direction_ratio) <= bar / summary.step
    kappa = summary.kappa_reference
    for (t, remainder), ratio in zip(summary.convergence_slopes, points):
        assert abs(remainder - abs(ratio - kappa)) <= bar / t


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


def stacked_resolves(problem, directions, ts):
    """_resolves' (x, gap) per step, with the unit directions reduced to its space."""
    base = perturb._lab_space(problem, tc.svd_bundle(problem))
    return list(perturb._resolves(base, copying_each(problem, directions), ts, NO_STEP_COVERED))


@pytest.mark.parametrize("name", ["deblur_60", "alpha_6x5"])  # below the QR crossover
def test_stacked_resolves_are_the_solver_bitwise(name):
    problem = RESOLVE_CASES[name]()
    assert not tall(problem)
    rng = np.random.default_rng(8)
    directions = [unit_normals(problem.m, problem.n, rng) for _ in range(12)]
    scale = np.linalg.norm(problem.augmented())
    ts = [scale * 10.0 ** -(4 + i % 5) for i in range(12)]
    resolved = stacked_resolves(problem, directions, ts)
    assert len(resolved) == 12
    for (x, gap), z, t in zip(resolved, directions, ts):
        rebuilt = perturbed(problem, z, t)
        reference = tc.solve_tls(rebuilt, tc.svd_bundle(rebuilt))
        np.testing.assert_array_equal(x, reference.x)
        assert gap.rel_gap == reference.gap.rel_gap


@pytest.mark.parametrize("name", ["alpha_50x10", "alpha_200x30", "alpha_40x1"])
def test_tall_stacked_resolves_are_the_solver_to_rounding(name):
    # past the crossover a step re-solves [R_0 + t Y_1; t T_2], with [Y_1; Y_2]
    # = Q^T [dA db] and T_2 the R of Y_2: the same singular values and right
    # vectors as the rebuilt problem, so the same x to rounding, 4 eps
    # kappa_rel ||x||, at steps of 1e-6 to 1e-10 ||[A b]||_F
    problem = RESOLVE_CASES[name]()
    assert tall(problem)
    rng = np.random.default_rng(8)
    directions = [unit_normals(problem.m, problem.n, rng) for _ in range(15)]
    scale = np.linalg.norm(problem.augmented())
    ts = [scale * 10.0 ** -(6 + i % 5) for i in range(15)]
    resolved = stacked_resolves(problem, directions, ts)
    assert len(resolved) == 15
    bar = rounding_bar(problem)
    for (x, gap), z, t in zip(resolved, directions, ts):
        rebuilt = perturbed(problem, z, t)
        reference = tc.solve_tls(rebuilt, tc.svd_bundle(rebuilt))
        assert np.linalg.norm(x - reference.x) <= bar
        assert gap.rel_gap == pytest.approx(reference.gap.rel_gap, rel=1e-8)


def block_trials(problem, seed, count):
    """The lab's first count random trials past the crossover as unit
    directions z = [vec(dA); db] of the whole problem: Q [Y_1; T_2; 0] over
    its norm, each drawn alone from the two streams of SeedSequence(seed)."""
    m, k = problem.m, problem.n + 1
    normals, chis = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    apply_q = householder_q(problem, trans="N")
    trials = []
    for _ in range(count):
        block = np.empty((1, k, 2 * k)).transpose(0, 2, 1)  # Fortran-ordered, as the lab's
        perturb._gaussian_blocks(normals, chis, m, block)
        whole = np.zeros((m, k))
        whole[: 2 * k] = block[0] / np.linalg.norm(block[0])
        trials.append(apply_q(whole).ravel(order="F"))
    return trials


@pytest.mark.parametrize("name", ["alpha_50x10", "deblur_60"])  # the QR and the direct route
def test_the_trials_are_random_directions_drawn_in_turn(name):
    # trial i is the i-th run of each stream, re-solved one problem at a time:
    # below the crossover m(n+1) normals of default_rng(seed) in stacked
    # order, over their norm, and the same maximum bit for bit; past it the
    # row-block draw [Y_1; T_2] taken back to the whole problem through Q,
    # and the same maximum to rounding
    problem = RESOLVE_CASES[name]()
    t = 1e-8 * np.linalg.norm(problem.augmented())
    summary = tc.monte_carlo_validate(problem, trials=12, t=t, seed=3)
    base = tc.solve_tls(problem, tc.svd_bundle(problem))
    if tall(problem):
        directions, bar = block_trials(problem, 3, 12), rounding_bar(problem)
    else:
        rng = np.random.default_rng(3)
        directions = [unit_normals(problem.m, problem.n, rng) for _ in range(12)]
        bar = 0.0
    observed = [per_trial_ratio(problem, base, z, t) for z in directions]
    assert abs(summary.max_observed_ratio - max(observed)) <= bar / t


def test_a_run_split_into_stacks_is_one_stack(monkeypatch):
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=1)
    whole = tc.monte_carlo_validate(problem, trials=10, seed=3)
    # at its QR a step's 22 x 11 sum and numpy's copy of it take 8 * 11 * 44
    # bytes: three to a stack. The worst direction's sums are reduced one at a
    # time by dgeqrt (a 2-D shape, not counted here), then factored in stacks
    monkeypatch.setattr(perturb, "STACK_BYTES", 3 * 8 * 11 * 44)
    calls = counting_factorizations(monkeypatch)
    split = tc.monte_carlo_validate(problem, trials=10, seed=3)
    stacks = [(name, shape[0]) for name, shape in calls if len(shape) == 3]
    assert stacks == ([("qr", 3), ("svd", 3)] * 3 + [("qr", 1), ("svd", 1)]  # the trials
                      + [("svd", 3), ("svd", 1)])  # the worst direction's four steps
    assert split == whole


def test_one_qr_and_one_svd_per_stack(monkeypatch):
    # past the crossover the 100 trials are one stack: one stacked QR of the
    # 22 x 11 sums, one stacked SVD of their R. The worst direction's four
    # sums are reduced by the bundle's dgeqrt, one at a time, and are one SVD
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=1)
    calls = counting_factorizations(monkeypatch)
    tc.monte_carlo_validate(problem, trials=100, seed=3)
    assert calls == [("dgeqrt", (50, 11)), ("svd", (11, 11)),  # the bundle
                     ("qr", (100, 22, 11)), ("svd", (100, 11, 11)),  # the trials
                     ("svd", (11, 11)),  # V, for the worst direction
                     *[("dgeqrt", (22, 11))] * 4, ("svd", (4, 11, 11))]


def test_wide_trial_blocks_are_reduced_one_at_a_time(monkeypatch):
    # from STACKED_QR_WIDTH columns on each trial's sum goes through dgeqrt,
    # whose R agrees with numpy's stacked one to rounding: so does every x
    problem = RESOLVE_CASES["alpha_50x10"]()
    base = perturb._lab_space(problem, tc.svd_bundle(problem))
    t = 1e-8 * np.linalg.norm(problem.augmented())
    in_one_call = list(perturb._resolves(base, perturb._trials(problem, 1), [t] * 5,
                                         NO_STEP_COVERED))
    monkeypatch.setattr(perturb, "STACKED_QR_WIDTH", problem.n + 1)
    calls = counting_factorizations(monkeypatch)
    one_at_a_time = list(perturb._resolves(base, perturb._trials(problem, 1), [t] * 5,
                                           NO_STEP_COVERED))
    assert calls == [("dgeqrt", (22, 11))] * 5 + [("svd", (5, 11, 11))]
    bar = rounding_bar(problem)
    for (x, gap), (y, other) in zip(in_one_call, one_at_a_time):
        assert np.linalg.norm(x - y) <= bar
        assert gap.rel_gap == pytest.approx(other.rel_gap, rel=1e-10)


@pytest.mark.parametrize("m, n, cap_mib", [(50, 10, 0.40), (100, 20, 1.40), (200, 30, 3.01)])
def test_the_stacked_qr_holds_no_more_than_the_stacked_svd(m, n, cap_mib):
    # the peak of one validate is its stacked SVD's: the 100 R, their scaled
    # copy, u and vt. numpy's QR copies the 100 sums, and the sums are freed
    # before R is taken from that copy, so the QR holds no more (mode "r"
    # would make R while both are held: 0.56, 1.79 and 3.80 MiB)
    problem = tc.generate_ab_alpha(m, n, 0.3, seed=2)
    tc.monte_carlo_validate(problem, trials=100, seed=5)
    tracemalloc.start()
    try:
        tc.monte_carlo_validate(problem, trials=100, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cap_mib * 2**20


def test_a_tall_stack_with_data_that_is_not_finite_raises_in_its_turn(monkeypatch):
    # one stacked QR reduces all four sums, the third of them infinite; the
    # stack's SVD refuses it, and block by block the first two steps are
    # yielded, bit for bit as in a stack of finite data, before the third raises
    problem = RESOLVE_CASES["alpha_50x10"]()
    assert tall(problem)
    base = perturb._lab_space(problem, tc.svd_bundle(problem))
    t = 1e-8 * np.linalg.norm(problem.augmented())

    def fill(directions, bad=None):
        perturb._trials(problem, 1)(directions)
        if bad is not None:
            directions[bad] = np.inf

    finite = list(perturb._resolves(base, fill, [t] * 4, NO_STEP_COVERED))
    calls = counting_factorizations(monkeypatch)
    resolved = perturb._resolves(base, lambda d: fill(d, bad=2), [t] * 4, NO_STEP_COVERED)
    for step in range(2):
        x, gap = next(resolved)
        np.testing.assert_array_equal(x, finite[step][0])
        assert gap.rel_gap == finite[step][1].rel_gap
    with pytest.raises(ShapeError, match="entries must be finite"):
        next(resolved)
    assert calls == [("qr", (4, 22, 11)), ("svd", (11, 11)), ("svd", (11, 11))]


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


def test_numpy_never_factors_data_that_is_not_finite(monkeypatch):
    # numpy's stacked dgesdd did not return within minutes on a 2 x 5 x 3
    # stack holding one inf: block_svd refuses such data before numpy sees it
    problem = tc.generate_ab_alpha(50, 10, 0.3, seed=1)
    svd = np.linalg.svd

    def finite_only(a, *args, **kwargs):
        assert np.isfinite(a).all()
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", finite_only)
    aug = problem.augmented()
    factored = perturb._factored(np.stack([aug, np.full(aug.shape, np.inf)]))
    np.testing.assert_array_equal(next(factored)[0], svd(aug, full_matrices=False)[1])
    with pytest.raises(ShapeError, match="entries must be finite"):
        next(factored)


def test_a_wide_stack_is_rerun_block_by_block(monkeypatch):
    # deblur m=60 has 45-wide blocks, past V_ONLY_WIDTH: the stack goes
    # through few_value_svd block by block, and the fallback raises as it does
    problem = RESOLVE_CASES["deblur_60"]()
    assert problem.n + 1 >= core.V_ONLY_WIDTH
    aug = problem.augmented()
    sigma = core.block_svd(aug)[0]
    # data that is not finite is refused in its turn
    factored = perturb._factored(np.stack([aug, np.full(aug.shape, np.nan)]))
    np.testing.assert_array_equal(next(factored)[0], sigma)
    with pytest.raises(ShapeError, match="entries must be finite"):
        next(factored)
    # a failed dbdsqr or dstein fails the stack, then the first block in its turn
    for name, failed in [("dbdsqr", failed_singular_values), ("dstein", failed_dstein)]:
        with monkeypatch.context() as patch:
            patch.setattr(core, name, failed)
            with pytest.raises(ConvergenceError, match=rf"{name} failed \(info=1\)"):
                next(perturb._factored(np.stack([aug, aug])))


def test_a_gap_lost_mid_stack_raises_as_the_per_trial_solver():
    # trial 9 of 20, all in one stack, collapses the gap: the same error as
    # one problem at a time, drawn in turn from the validate's one generator
    # (9 x 4 is below the QR crossover, where the re-solves are the solver's bits)
    problem = tc.generate_ab_alpha(9, 4, 0.1, seed=3)
    t = 0.1 * np.linalg.norm(problem.augmented())
    base = tc.solve_tls(problem, tc.svd_bundle(problem))
    rng = np.random.default_rng(1)
    with pytest.raises(PerturbationTooLarge) as expected:
        for index in range(20):
            per_trial_ratio(problem, base, unit_normals(9, 4, rng), t)
    assert index == 8
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
    direction = stacked(-fix_b.a_matrix, np.zeros(2))

    def probe(steps):
        return lab_ratios(fix_b, direction, steps)

    lost, ratio = probe([(1.0, True), (1e-8, False)])
    assert lost is None
    assert ratio == pytest.approx(np.linalg.norm(k_of(fix_b) @ direction), rel=1e-6)  # 2.1708...
    with pytest.raises(PerturbationTooLarge, match="gap lost at t=1.000e"):
        probe([(1.0, False), (1e-8, False)])


def certificate_of(problem):
    """(the lab's Weyl certificate, the base solution) of a solvable problem."""
    bundle, solution, work = pipeline(problem)
    return perturb._GapCertificate.of(bundle, solution, work), solution


def certified_edge(certificate):
    """The largest step the certificate covers: (g - 2t - s) / (sigma_hat_n + t) = required."""
    c = certificate
    return (c.gap - c.slack - c.required * c.sigma_hat_n) / (2.0 + c.required)


def gap_moving_directions(problem):
    """Two unit directions that move one end of the gap by the whole step t:
    u v^T of [A b]'s smallest triple raises sigma_{n+1}, and -[u_hat v_hat^T 0]
    of A's lowers sigma_hat_n."""
    m, n = problem.m, problem.n
    u, _, vt = np.linalg.svd(problem.augmented())
    u_hat, _, vt_hat = np.linalg.svd(problem.a_matrix)
    down = np.zeros((m, n + 1))
    down[:, :n] = -np.outer(u_hat[:, n - 1], vt_hat[n - 1])
    return [np.outer(u[:, n], vt[n]).ravel(order="F"), down.ravel(order="F")]


@pytest.mark.parametrize("alpha", [0.3, 1e-2, 1e-4])
@pytest.mark.parametrize("m, n", [(6, 5), (10, 3), (20, 5), (40, 1), (50, 10), (100, 20)])
def test_a_certified_step_keeps_the_gap(m, n, alpha):
    # at 0.999999 of the largest step that Weyl's inequality certifies, every
    # trial re-solved one problem at a time keeps rel_gap >= GAP_PERSISTENCE
    # times the base's (per_trial_ratio raises otherwise): random directions,
    # and the two that move one end of the gap by the whole step. The lab's
    # certified re-solves, which skip that check, give the same ratios: bit
    # for bit on [A b] itself, to rounding (4 eps kappa_rel ||x|| in x) in
    # the row-block space of a tall problem.
    for seed in (1, 2):
        problem = tc.generate_ab_alpha(m, n, alpha, seed=seed)
        certificate, base = certificate_of(problem)
        edge = certified_edge(certificate)
        t = 0.999999 * edge
        assert certificate.covers(t) and not certificate.covers(1.000001 * edge)
        rng = np.random.default_rng(seed)
        directions = [unit_normals(m, n, rng) for _ in range(8)] + gap_moving_directions(problem)
        expected = [per_trial_ratio(problem, base, z, t) for z in directions]
        got = perturb._ratios(perturb._lab_space(problem, tc.svd_bundle(problem)), base,
                              copying_each(problem, directions),
                              [(t, False)] * len(directions), certificate)
        if tall(problem):
            np.testing.assert_allclose(got, expected, rtol=0, atol=rounding_bar(problem) / t)
        else:
            assert got == expected


def counting_roots(monkeypatch):
    """Log the size of every SigmaHatRoots the lab builds (the bundle's are core's own)."""
    built = []

    class Counted(core.SigmaHatRoots):
        def __init__(self, sigma, v_last):
            built.append(len(sigma))
            super().__init__(sigma, v_last)

    monkeypatch.setattr(perturb, "SigmaHatRoots", Counted)
    return built


def test_certified_steps_solve_no_secular_root(monkeypatch):
    built = counting_roots(monkeypatch)
    # alpha 50x10 at the default step: Weyl's inequality certifies every trial
    # and all four of the worst direction's steps, so none builds a root
    problem = RESOLVE_CASES["alpha_50x10"]()
    summary = tc.monte_carlo_validate(problem, trials=100, seed=1)
    assert (summary.certified_trials, built) == (100, [])
    # deblur m=60: g / 2t is about 1.7e-4, so each trial and step builds one
    summary = tc.monte_carlo_validate(RESOLVE_CASES["deblur_60"](), trials=20, seed=1)
    assert summary.certified_trials == 0 and len(built) == 20 + 4
    assert summary.gap_shift > summary.gap
    # each of the worst direction's steps decides for itself: at 0.3 of the
    # edge, t is certified and its 1e3, 1e2 and 10 multiples are not
    built.clear()
    certificate, _ = certificate_of(problem)
    summary = tc.monte_carlo_validate(problem, trials=5, t=0.3 * certified_edge(certificate))
    assert summary.certified_trials == 5 and len(built) == 3
    assert (summary.gap, summary.gap_shift) == (
        certificate.gap, 2.0 * summary.step + certificate.slack)


def test_row_block_trials_are_whole_space_trials_in_distribution():
    # past the crossover the lab draws [Y_1; T_2] in the row block, where the
    # parent drew m(n+1) normals: the observed ratios of 400 trials of each
    # (the whole-space ones re-solved one problem at a time) pass a
    # two-sample Kolmogorov-Smirnov test
    problem = tc.generate_ab_alpha(12, 3, 0.3, seed=1)
    assert tall(problem)
    bundle = tc.svd_bundle(problem)
    base = tc.solve_tls(problem, bundle)
    t = 1e-8 * np.linalg.norm(problem.augmented())
    block = perturb._ratios(perturb._lab_space(problem, bundle), base, perturb._trials(problem, 5),
                            [(t, False)] * 400, NO_STEP_COVERED)
    rng = np.random.default_rng(6)
    whole = [per_trial_ratio(problem, base, unit_normals(12, 3, rng), t) for _ in range(400)]
    assert scipy.stats.ks_2samp(block, whole).pvalue >= 1e-3


def test_the_row_block_draw_is_bartletts():
    # (T_2)_ii^2 is chi-square with m-n-1-i degrees of freedom: mean m-n-1-i
    # and variance 2(m-n-1-i); the other entries of [Y_1; T_2] are standard
    # normal, and T_2 is upper triangular
    m, k, count = 30, 5, 4000
    normals, chis = map(np.random.default_rng, np.random.SeedSequence(11).spawn(2))
    blocks = np.full((count, k, 2 * k), np.nan).transpose(0, 2, 1)
    perturb._gaussian_blocks(normals, chis, m, blocks)
    bottom = blocks[:, k:]
    for i in range(k):
        freedom = m - k - i
        mean = np.mean(bottom[:, i, i] ** 2)
        assert abs(mean - freedom) <= 4.0 * np.sqrt(2.0 * freedom / count)
    below, upper = np.tril_indices(k, -1), np.triu_indices(k, 1)
    assert not bottom[:, below[0], below[1]].any()
    normal = np.concatenate([blocks[:, :k].ravel(), bottom[:, upper[0], upper[1]].ravel()])
    assert abs(np.mean(normal)) <= 4.0 / np.sqrt(normal.size)
    assert abs(np.var(normal) - 1.0) <= 4.0 * np.sqrt(2.0 / normal.size)


@pytest.mark.parametrize("name", ["alpha_50x10", "alpha_200x30", "alpha_40x1"])
def test_the_worst_direction_lies_in_the_row_block(name):
    # Q^T of worst_direction's [dA db] has a bottom block of rounding size,
    # and the lab's form of it from R_0 alone is its top block to the same
    # bar, 10 eps kappa_rel
    problem = RESOLVE_CASES[name]()
    m, k = problem.m, problem.n + 1
    bundle, solution, work = pipeline(problem)
    bar = 10.0 * np.finfo(float).eps * tc.svd_condition(work, bundle, solution).kappa_rel
    z = tc.worst_direction(bundle, problem, solution)
    reduced = householder_q(problem)(z.reshape((m, k), order="F"))
    top = reduced[:k]
    assert np.linalg.norm(reduced[k:]) <= bar * np.linalg.norm(top)
    in_rows = perturb._worst_in_rows(bundle.rows, solution.x, perturb._worst_w(bundle, work))
    assert np.linalg.norm(in_rows - top) <= bar * np.linalg.norm(top)
