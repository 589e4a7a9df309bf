import dataclasses
import tracemalloc

import numpy as np
import pytest

import tlscond as tc
from conftest import counting_factorizations, k_of, pipeline
from tlscond import perturb
from tlscond.errors import NoUniqueSolution, PerturbationTooLarge, ShapeError, TrivialProblem


def unit_direction(m, n, entry=None, b_entry=None):
    da = np.zeros((m, n))
    db = np.zeros(m)
    if entry is not None:
        da[entry] = 1.0
    if b_entry is not None:
        db[b_entry] = 1.0
    return tc.PerturbationDirection.normalized(da, db)


def test_direction_normalization():
    direction = tc.PerturbationDirection.normalized([[3.0], [0.0]], [0.0, 4.0])
    assert direction.frobenius() == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(direction.delta_a, [[0.6], [0.0]])
    np.testing.assert_allclose(direction.delta_b, [0.0, 0.8])
    with pytest.raises(ValueError):
        tc.PerturbationDirection.normalized([[0.0], [0.0]], [0.0, 0.0])


def test_stacked_uses_column_order():
    direction = tc.PerturbationDirection.normalized([[1.0, 3.0], [2.0, 4.0]], [5.0, 6.0])
    np.testing.assert_allclose(
        direction.stacked() * np.sqrt(91.0), [1, 2, 3, 4, 5, 6], rtol=1e-15
    )


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
    bundle, solution, work = pipeline(problem)
    k = tc.build_k_matrix(problem, bundle, solution)
    direction = tc.random_direction(problem.m, problem.n, np.random.default_rng(4))
    for t in (1e-4, 1.0):
        pred = tc.first_order_prediction(work, problem, solution, direction, t)
        expected = solution.x + t * (k @ direction.stacked())
        assert np.linalg.norm(pred - expected) <= 1e-12 * np.linalg.norm(expected)
    # zero step returns x exactly
    pred = tc.first_order_prediction(work, problem, solution, direction, 0.0)
    np.testing.assert_array_equal(pred, solution.x)
    if problem.label != "fix_a":
        return
    # pure b-perturbation along e2: the matching K column is zero
    pred = tc.first_order_prediction(
        work, problem, solution, unit_direction(2, 1, b_entry=1), 1e-6
    )
    np.testing.assert_allclose(pred, [0.0], atol=1e-20)
    # unit bump of A's (2,1) entry moves x by t/3
    pred = tc.first_order_prediction(
        work, problem, solution, unit_direction(2, 1, entry=(1, 0)), 1e-4
    )
    np.testing.assert_allclose(pred, [1e-4 / 3.0], rtol=1e-12)


def test_perturbation_ratio_fix_a(fix_a):
    ratio = tc.perturbation_ratio(fix_a, unit_direction(2, 1, entry=(1, 0)), 1e-8)
    assert ratio == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_ratio_tends_to_directional_derivative():
    problem = tc.generate_ab_alpha(20, 5, 0.5, seed=21)
    rng = np.random.default_rng(2)
    direction = tc.random_direction(20, 5, rng)
    predicted = np.linalg.norm(k_of(problem) @ direction.stacked())
    # t balances the Taylor remainder O(t) against rounding O(eps/t)
    ratio = tc.perturbation_ratio(problem, direction, 1e-7)
    assert ratio == pytest.approx(predicted, rel=1e-4)
    closer = tc.perturbation_ratio(problem, direction, 1e-8)
    assert abs(closer - predicted) < abs(
        tc.perturbation_ratio(problem, direction, 1e-4) - predicted
    )


def test_worst_direction_fix_a(problem):
    bundle, solution, work = pipeline(problem)
    k = tc.build_k_matrix(problem, bundle, solution)
    direction = tc.worst_direction(work, problem, solution)
    assert direction.frobenius() == pytest.approx(1.0, abs=1e-14)
    attained = np.linalg.norm(k @ direction.stacked())
    assert attained == pytest.approx(np.linalg.norm(k, 2), rel=1e-10)
    if problem.label != "fix_a":
        return
    # top right singular vector of (1/3)[0 1 2 0], sign-insensitive
    np.testing.assert_allclose(
        np.abs(direction.delta_a), [[0.0], [1 / np.sqrt(5)]], atol=1e-14
    )
    np.testing.assert_allclose(
        np.abs(direction.delta_b), [2 / np.sqrt(5), 0.0], atol=1e-14
    )
    ratio = tc.perturbation_ratio(problem, direction, 1e-8)
    assert ratio == pytest.approx(np.sqrt(5) / 3, rel=1e-3)


def test_worst_direction_on_deblur():
    # deblur m=300 (n=284): K would have 24M entries and P is gated, yet the
    # map through V11 attains the svd reference along the worst direction
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=300, seed=1))
    bundle, solution, work = pipeline(problem)
    direction = tc.worst_direction(work, problem, solution)
    pred = tc.first_order_prediction(work, problem, solution, direction, 1.0)
    kappa = tc.svd_condition(work, bundle, solution).kappa_abs
    assert np.linalg.norm(pred - solution.x) == pytest.approx(kappa, rel=1e-8)


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
        directions.append(tc.worst_direction(work, problem, solution).stacked())
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
    direction = tc.PerturbationDirection.normalized([[-1.0], [0.0]], [0.0, 0.0])
    with pytest.raises(PerturbationTooLarge):
        tc.perturbation_ratio(fix_a, direction, 1.0)
    # b + t db = (1, 0) lies in range(A): sigma_{n+1} = 0 exactly
    direction = tc.PerturbationDirection.normalized([[0.0], [0.0]], [0.0, -1.0])
    with pytest.raises(PerturbationTooLarge):
        tc.perturbation_ratio(fix_b, direction, 1.0)


def test_convergence_first_order():
    problem = tc.generate_ab_alpha(20, 5, 0.5, seed=3)
    rng = np.random.default_rng(11)
    direction = tc.random_direction(20, 5, rng)
    points = tc.convergence_study(problem, direction, [1e-4, 1e-5, 1e-6])
    assert all(p.clean for p in points)
    # remainder decays ~10x per decade
    assert points[1].remainder == pytest.approx(points[0].remainder / 10, rel=0.3)
    assert points[2].remainder == pytest.approx(points[1].remainder / 10, rel=0.3)
    slope = tc.remainder_slope(points)
    assert 0.8 <= slope <= 1.2

    halved = tc.convergence_study(problem, direction, [2e-5, 1e-5])
    assert halved[1].remainder == pytest.approx(halved[0].remainder / 2, rel=0.2)


def test_convergence_floor_flagged():
    problem = tc.generate_ab_alpha(20, 5, 0.5, seed=3)
    rng = np.random.default_rng(11)
    direction = tc.random_direction(20, 5, rng)
    points = tc.convergence_study(problem, direction, [1e-5, 1e-16])
    assert points[0].clean and not points[1].clean
    # the floor point is excluded from the fit, leaving too few clean points
    assert np.isnan(tc.remainder_slope(points))


def test_monte_carlo_fix_b(fix_b):
    summary = tc.monte_carlo_validate(fix_b, trials=100, seed=7)
    kappa = summary.kappa_reference
    assert summary.max_observed_ratio <= kappa * 1.001
    assert summary.worst_direction_ratio >= kappa * 0.999
    assert summary.sound and summary.attained
    assert len(summary.convergence_slopes) == 3


def test_monte_carlo_trials_zero(fix_b):
    summary = tc.monte_carlo_validate(fix_b, trials=0, seed=1)
    assert summary.max_observed_ratio is None
    assert summary.worst_direction_ratio > 0
    assert summary.sound


@pytest.mark.parametrize("t", [0.0, -1e-6, np.nan, np.inf])
def test_validator_refuses_a_bad_step(fix_b, t):
    direction = unit_direction(2, 1, entry=(0, 0))
    for call in (
        lambda: tc.monte_carlo_validate(fix_b, trials=3, t=t),
        lambda: tc.convergence_study(fix_b, direction, [1e-6, t]),
        lambda: tc.perturbation_ratio(fix_b, direction, t),
    ):
        with pytest.raises(ValueError, match="positive and finite"):
            call()


def test_monte_carlo_refuses_negative_trials(fix_b):
    with pytest.raises(ValueError, match="trials"):
        tc.monte_carlo_validate(fix_b, trials=-1)


def test_monte_carlo_deterministic(fix_b):
    s1 = tc.monte_carlo_validate(fix_b, trials=12, seed=5)
    s2 = tc.monte_carlo_validate(fix_b, trials=12, seed=5)
    assert s1 == s2


def test_summary_exports_to_report(tmp_path, fix_a, fix_b):
    from tlscond.perturb import VALIDATION_COLUMNS

    rows = [
        tc.monte_carlo_validate(p, trials=5, seed=2).report_row(p.label)
        for p in (fix_a, fix_b)
    ]
    report = tc.ReportDocument(VALIDATION_COLUMNS, rows, {"seed": 2})
    path = tmp_path / "validation.json"
    tc.save_report(report, path)
    back = tc.load_report(path)
    assert back.rows == report.rows


def per_trial_ratio(problem, base_solution, direction, t):
    """The lab's re-solve one problem at a time, as solve_tls takes it: the reference."""
    perturbed = tc.TlsProblem(problem.a_matrix + t * direction.delta_a,
                              problem.b_vector + t * direction.delta_b)
    try:
        solution = tc.solve_tls(perturbed, tc.svd_bundle(perturbed))
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
    directions = [tc.random_direction(problem.m, problem.n, rng) for _ in range(12)]
    scale = np.linalg.norm(problem.augmented())
    ts = [scale * 10.0 ** -(4 + i % 5) for i in range(12)]
    fill = perturb._copying(direction.stacked() for direction in directions)
    resolved = list(perturb._resolves(problem, fill, ts))
    assert len(resolved) == 12
    for (x, gap), direction, t in zip(resolved, directions, ts):
        perturbed = tc.TlsProblem(problem.a_matrix + t * direction.delta_a,
                                  problem.b_vector + t * direction.delta_b)
        reference = tc.solve_tls(perturbed, tc.svd_bundle(perturbed))
        np.testing.assert_array_equal(x, reference.x)
        assert gap.rel_gap == reference.gap.rel_gap


@pytest.mark.parametrize("name", ["alpha_50x10", "deblur_60"])  # the QR and the direct route
def test_the_trials_are_random_directions_drawn_in_turn(name):
    # trial i is the (i+1)-th random_direction of default_rng(seed), re-solved
    # as perturbation_ratio re-solves it: the same maximum, bit for bit
    problem = RESOLVE_CASES[name]()
    t = 1e-8 * np.linalg.norm(problem.augmented())
    summary = tc.monte_carlo_validate(problem, trials=12, t=t, seed=3)
    rng = np.random.default_rng(3)
    ratios = [tc.perturbation_ratio(problem, tc.random_direction(problem.m, problem.n, rng), t)
              for _ in range(12)]
    assert summary.max_observed_ratio == max(ratios)
    # and one trial's draw is the next m(n+1) normals in stacked order, unit length
    normals = np.random.default_rng(3).standard_normal(problem.m * (problem.n + 1))
    direction = tc.random_direction(problem.m, problem.n, 3)
    np.testing.assert_array_equal(direction.stacked(), normals / np.linalg.norm(normals))


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
            per_trial_ratio(problem, base, tc.random_direction(10, 3, rng), t)
    assert index == 9
    with pytest.raises(PerturbationTooLarge) as got:
        tc.monte_carlo_validate(problem, trials=20, t=t, seed=1)
    assert str(got.value) == str(expected.value)
    # a step that loses the gap outright between two that keep it
    fix_a = tc.TlsProblem([[2.0], [0.0]], [0.0, 1.0])
    base = tc.solve_tls(fix_a, tc.svd_bundle(fix_a))
    direction = tc.PerturbationDirection.normalized([[-1.0], [0.0]], [0.0, 0.0])
    steps = [1e-3, 1.0, 1e-4]
    per_trial_ratio(fix_a, base, direction, steps[0])  # keeps the gap
    with pytest.raises(PerturbationTooLarge) as expected:
        per_trial_ratio(fix_a, base, direction, steps[1])
    with pytest.raises(PerturbationTooLarge) as got:
        tc.convergence_study(fix_a, direction, steps)
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
