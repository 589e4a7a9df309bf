"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its measured extremes so a run of
``pytest tests/test_acceptance.py -s`` doubles as the acceptance report.
"""

import itertools
import time

import numpy as np
import pytest

import tlscond as tc
from conftest import FixBClosedForms as FB
from conftest import pipeline, remainders, signed_v, unit_normals
from tlscond import generators
from tlscond.cli import run_table_example1, run_table_example2
from tlscond.errors import IllConditionedGap

CERTIFIED = ("simple_sandwich", "sharp_sandwich", "kappa1", "kappa2_lower", "kappa2_upper")


def criterion1_problems():
    configs = list(itertools.product([0.9, 0.5, 0.1], [20, 50], [5, 10]))
    for i in range(100):
        alpha, m, n = configs[i % len(configs)]
        yield tc.generate_ab_alpha(m, n, alpha, seed=i)


def criterion3_problems():
    alphas = [1e-1, 1e-2, 1e-3, 1e-5, 1e-8]
    sizes = list(itertools.product([20, 50], [5, 10]))
    for i in range(200):
        alpha = alphas[i % len(alphas)]
        m, n = sizes[(i // len(alphas)) % len(sizes)]
        yield tc.generate_ab_alpha(m, n, alpha, seed=1000 + i)


def test_criterion_1_cross_formula_agreement():
    start = time.time()
    worst = 0.0
    for problem in criterion1_problems():
        bundle, solution, work = pipeline(problem)
        k_matrix = tc.build_k_matrix(problem, bundle, solution)
        values = [
            tc.kron_condition(k_matrix, problem, solution).kappa_abs,
            tc.cholesky_condition(work, problem, bundle, solution).kappa_abs,
            tc.svd_condition(work, bundle, solution).kappa_abs,
            tc.baboulin_condition(work, bundle, solution).kappa_abs,
        ]
        spread = (max(values) - min(values)) / min(values)
        worst = max(worst, spread)
        assert spread <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\ncriterion 1 PASS: 100 problems, worst pairwise spread {worst:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_2_v11_spectrum():
    worst_lead = worst_tail = 0.0
    for problem in criterion1_problems():
        bundle, solution, _ = pipeline(problem)
        sv = np.linalg.svd(signed_v(bundle)[:-1, :-1], compute_uv=False)
        lead = float(np.max(np.abs(sv[:-1] - 1.0), initial=0.0))
        tail = abs(sv[-1] - solution.alpha)
        worst_lead, worst_tail = max(worst_lead, lead), max(worst_tail, tail)
        assert lead <= 1e-10 and tail <= 1e-10
    worst_kv = 0.0
    for seed in range(3):
        problem = tc.generate_ab_alpha(15, 10, 1e-8, seed=seed)
        bundle, _, _ = pipeline(problem)
        sv = np.linalg.svd(signed_v(bundle)[:-1, :-1], compute_uv=False)
        kv = sv[0] / sv[-1]
        worst_kv = max(worst_kv, abs(kv - 1e8) / 1e8)
        assert kv == pytest.approx(1e8, rel=1e-6)
    print(f"\ncriterion 2 PASS: spectrum defects lead {worst_lead:.2e} / tail "
          f"{worst_tail:.2e}; kappa(V11) vs 1e8 off by {worst_kv:.2e}")


def test_criterion_3_sandwich_soundness_and_sharpness():
    worst_violation = 0.0
    worst_sharp = worst_simple = 0.0
    for problem in criterion3_problems():
        bundle, solution, work = pipeline(problem)
        report = tc.bounds_report(problem, bundle, solution, work)
        kappa = report.kappa_reference
        for family in CERTIFIED:
            pair = report.pairs[family]
            if pair.lower is not None:
                assert pair.lower <= kappa * (1 + 1e-9)
                worst_violation = max(worst_violation, pair.lower / kappa - 1.0)
            if pair.upper is not None:
                assert kappa <= pair.upper * (1 + 1e-9)
                worst_violation = max(worst_violation, kappa / pair.upper - 1.0)
        if solution.alpha <= 0.5:
            pair = report.pairs["sharp_sandwich"]
            ratio = pair.upper / pair.lower
            worst_sharp = max(worst_sharp, ratio)
            assert ratio < 4.0
        else:
            pair = report.pairs["simple_sandwich"]
            ratio = pair.upper / pair.lower
            worst_simple = max(worst_simple, ratio)
            assert ratio < 2.0
    simple_note = (
        f"simple ratio max {worst_simple:.3f}"
        if worst_simple > 0
        else "simple-ratio clause vacuous (alpha ladder is all <= 1/2)"
    )
    print(f"\ncriterion 3 PASS: 200 problems, worst enclosure slack "
          f"{worst_violation:.2e}, sharp ratio max {worst_sharp:.3f}, {simple_note}")


def test_criterion_4_degenerate_gap():
    pytest.importorskip("mpmath")
    from oracle import oracle_kappa

    outcomes, worst = [], 0.0
    for seed in range(5):
        problem = tc.generate_ab_alpha(15, 10, 1e-8, seed=seed)
        bundle, solution, work = pipeline(problem)
        estimate = tc.svd_condition(work, bundle, solution)
        assert np.isfinite(estimate.kappa_abs) and estimate.kappa_abs > 0
        try:
            cholesky = tc.cholesky_condition(work, problem, bundle, solution)
        except IllConditionedGap:
            outcomes.append("raised")
        else:  # an answer only where P's rounding allows one, and then a right one
            assert cholesky.kappa_abs == pytest.approx(estimate.kappa_abs, rel=1e-8, abs=0)
            outcomes.append("answered")
        # baboulin answers ungated, within the svd route's oracle bound
        reference = oracle_kappa(problem)
        error = abs(tc.baboulin_condition(work, bundle, solution).kappa_abs - reference)
        bound = 4.0 * np.finfo(float).eps / min(solution.gap.rel_gap, 1.0)
        assert error / reference <= bound
        worst = max(worst, error / reference / bound)
        report = tc.bounds_report(problem, bundle, solution, work)
        assert all(report.sandwich_verdicts[f] for f in CERTIFIED)
    print(f"\ncriterion 4 PASS: cholesky {outcomes.count('raised')} raised / "
          f"{outcomes.count('answered')} answered; baboulin at most {worst:.1e} of the oracle "
          f"bound; svd route finite and enclosed")


def test_criterion_5_perturbation_validation():
    start = time.time()
    problems = [
        tc.TlsProblem([[2.0], [0.0]], [0.0, 1.0], label="fix_a"),
        tc.TlsProblem([[1.0], [0.0]], [1.0, 1.0], label="fix_b"),
    ]
    k = 0
    while len(problems) < 12:
        alpha = [0.9, 0.5, 0.2][k % 3]
        m, n = [(20, 5), (50, 10)][k % 2]
        candidate = tc.generate_ab_alpha(m, n, alpha, seed=500 + k)
        if tc.solve_tls(candidate, tc.svd_bundle(candidate)).gap.rel_gap >= 1e-3:
            problems.append(candidate)
        k += 1

    worst_excess = worst_shortfall = 0.0
    slopes = []
    for problem in problems:
        summary = tc.monte_carlo_validate(problem, trials=100, seed=9)
        kappa = summary.kappa_reference
        assert summary.max_observed_ratio <= kappa * 1.001
        assert summary.worst_direction_ratio >= kappa * 0.999
        worst_excess = max(worst_excess, summary.max_observed_ratio / kappa - 1.0)
        worst_shortfall = max(
            worst_shortfall, 1.0 - summary.worst_direction_ratio / kappa
        )
        # the first-order remainder |ratio - ||K z||| along a random direction
        # decays like t
        aug_frobenius = pipeline(problem)[2].aug_frobenius
        z = unit_normals(problem.m, problem.n, np.random.default_rng([17, problem.m, problem.n]))
        steps = [1e-4 * aug_frobenius, 1e-5 * aug_frobenius, 1e-6 * aug_frobenius]
        slope = np.polyfit(np.log(steps), np.log(remainders(problem, z, steps)), 1)[0]
        slopes.append(slope)
        assert 0.8 <= slope <= 1.2
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\ncriterion 5 PASS: 12 problems x 100 trials, max ratio excess "
          f"{worst_excess:.2e}, worst-direction shortfall {worst_shortfall:.2e}, "
          f"slopes [{min(slopes):.3f}, {max(slopes):.3f}], {elapsed:.1f}s")


def test_criterion_6_hand_fixtures(fix_a, fix_b):
    bundle, solution, work = pipeline(fix_a)
    np.testing.assert_allclose(
        tc.build_k_matrix(fix_a, bundle, solution), [[0.0, 1 / 3, 2 / 3, 0.0]],
        rtol=0, atol=1e-14,
    )
    kappa_a = tc.svd_condition(work, bundle, solution).kappa_abs
    assert kappa_a == pytest.approx(np.sqrt(5) / 3, rel=1e-14, abs=0)

    bundle, solution, work = pipeline(fix_b)
    report = tc.bounds_report(fix_b, bundle, solution, work)
    checks = {
        "x": (solution.x[0], FB.x),
        "kappa": (report.kappa_reference, FB.kappa),
        "kappa_rel": (
            tc.svd_condition(work, bundle, solution).kappa_rel, FB.kappa_rel
        ),
        "kappa1_upper": (report.pairs["kappa1"].upper, FB.kappa1_upper),
        "kappa2_lower": (report.pairs["kappa2_lower"].lower, FB.kappa2_lower),
        "bhm": (report.pairs["bhm"].upper, FB.bhm),
    }
    for name, (got, expected) in checks.items():
        assert got == pytest.approx(expected, rel=1e-10), name
    print("\ncriterion 6 PASS: fixture values match closed forms to 1e-10 "
          "(K entries to 1e-14)")


def test_criterion_7_table_trends():
    start = time.time()
    report2 = run_table_example2([(200, 150)], [1e-2, 1e-3, 1e-5], seed=0)
    rows = list(report2.rows)
    ratios_hat = [row["ratio_sigma_hat_n"] for row in rows]
    assert ratios_hat[0] < ratios_hat[1] < ratios_hat[2] < 1.0
    for row in rows:
        assert row["kappa2_upper_rel"] / row["kappa_rel"] <= 1e2
    k1_over_k2 = rows[2]["kappa1_upper_rel"] / rows[2]["kappa2_upper_rel"]
    assert k1_over_k2 >= 1e2

    report1 = run_table_example1([100], seed=0)
    row = report1.rows[0]
    assert 0.9 <= row["ratio_sigma_n"] < 1.0
    deblur_ratio = row["kappa1_upper_rel"] / row["kappa2_upper_rel"]
    assert deblur_ratio >= 10.0
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\ncriterion 7 PASS: example 2 gap deficits 1-ratio "
          f"{1 - ratios_hat[0]:.1e} -> {1 - ratios_hat[2]:.1e}, upper1/upper2 "
          f"{k1_over_k2:.0f}x at alpha=1e-5; example 1 m=100 ratio "
          f"{row['ratio_sigma_n']:.3f}, {deblur_ratio:.0f}x; {elapsed:.1f}s")


def test_criterion_8_supporting_inequalities(fix_b):
    # orthogonal-split norm inequality on 100 constructed pairs
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n))
        q = generators.haar_orthogonal(n, rng)
        a1 = q[:, :k] @ (q[:, :k].T @ rng.standard_normal((n, n)))
        a2 = q[:, k:] @ (q[:, k:].T @ rng.standard_normal((n, n)))
        n1, n2 = np.linalg.norm(a1, 2), np.linalg.norm(a2, 2)
        total = np.linalg.norm(a1 + a2, 2)
        assert 0.5 * (n1 + n2) <= total * (1 + 1e-12)
        assert total <= (n1 + n2) * (1 + 1e-12)

    # generated V reproduces the bordered block structure entrywise
    for n, alpha, seed in [(3, 0.7, 1), (6, 0.2, 2), (10, 1e-4, 3)]:
        v = generators.generate_v(n, generators.haar_orthogonal(n, seed), alpha, seed=seed + 50)
        u, sv, vh = np.linalg.svd(v[:n, :n])
        border = np.sqrt(1.0 - alpha**2)
        u_n, v_n = u[:, -1], vh[-1, :]
        if u_n @ v[:n, -1] < 0:
            u_n, v_n = -u_n, -v_n
        np.testing.assert_allclose(v[:n, -1], border * u_n, atol=1e-14)
        np.testing.assert_allclose(v[-1, :n], border * v_n, atol=1e-14)
        assert v[-1, -1] == -alpha

    # gap enclosure chain on every solvable fixture with x != 0
    fixtures = [fix_b]
    fixtures += [tc.generate_ab_alpha(20, 5, a, seed=60 + i)
                 for i, a in enumerate([0.9, 0.5, 0.1, 1e-3])]
    fixtures.append(tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, seed=4)))
    checked = 0
    for problem in fixtures:
        bundle, solution, _ = pipeline(problem)
        if solution.norm_x == 0:
            continue
        diag = tc.residual_diagnostics(problem, bundle, solution)
        assert diag.gap_chain_holds
        checked += 1
    assert checked == len(fixtures)
    print(f"\ncriterion 8 PASS: split inequality x100, block structure x3, "
          f"gap chain on {checked} fixtures")
