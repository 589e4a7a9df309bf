"""Properties: every trial re-solve of the lab is solve_tls on the rebuilt problem, bit for
bit below the QR crossover and to rounding past it, and a step that Weyl's certificate covers
keeps the gap."""

import numpy as np
import pytest

import tlscond as tc
from conftest import NO_STEP_COVERED, copying_each, perturbed, rounding_bar, tall, unit_normals
from tlscond import core, perturb
from tlscond.errors import TlsCondError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
EPS = np.finfo(float).eps


def _reference(problem, z, t):
    """(x, rel_gap, sigma_hat_n) of solve_tls on [A + t dA, b + t db], or the typed error it
    raises."""
    rebuilt = perturbed(problem, z, t)
    try:
        bundle = tc.svd_bundle(rebuilt)
        solution = tc.solve_tls(rebuilt, bundle)
    except TlsCondError as exc:
        return exc
    return solution.x, solution.gap.rel_gap, bundle.sigma_hat_n


def _lab(problem, seed, ts, certificate):
    """Each step's (x, rel_gap) from _resolves, or the typed error.

    Below the crossover the directions are the lab's own random trials from
    seed; past it the m(n+1) normals of default_rng(seed), run by run,
    reduced through the QR to the lab's row-block space. A step that the
    certificate covers reads rel_gap None.
    """
    if tall(problem):
        rng = np.random.default_rng(seed)
        fill = copying_each(problem, [unit_normals(problem.m, problem.n, rng) for _ in ts])
    else:
        fill = perturb._trials(problem, seed)
    base = perturb._lab_space(problem, tc.svd_bundle(problem))
    out = []
    try:
        for resolved in perturb._resolves(base, fill, ts, certificate):
            out.append(resolved if isinstance(resolved, TlsCondError)
                       else (resolved[0], None if resolved[1] is None else resolved[1].rel_gap))
    except TlsCondError as exc:
        out.append(exc)
    return out


def _problem(n, rows, at_limit, data_seed):
    """A random [A b] with m = n+1, 2(n+1)-1 or 2(n+1) rows, and ||[A b]||_F."""
    m = {"n+1": n + 1, "below QR": 2 * (n + 1) - 1, "QR": 2 * (n + 1)}[rows]
    aug = np.random.default_rng(data_seed).standard_normal((m, n + 1))
    scale = np.linalg.norm(aug)
    if at_limit:
        # sigma_1 just below the square's overflow limit: a large enough step
        # crosses it, and both sides must refuse that re-solve alike
        factor = (1.0 - 1e-4) * core._SCALE_LIMIT / np.linalg.svd(aug, compute_uv=False)[0]
        aug, scale = aug * factor, scale * factor
    return tc.TlsProblem(aug[:, :n], aug[:, n]), scale


def _assert_each_step_is_the_reference(problem, stream_seed, ts, got):
    """Every re-solve in got is _reference's, drawn in turn from the same stream:
    bitwise below the crossover; past it x within 4 eps kappa_rel ||x||, and
    the same type of refusal."""
    # every step is re-solved, unless one raises (and so ends the run)
    assert len(got) == len(ts) or isinstance(got[-1], TlsCondError)
    bar = rounding_bar(problem) if tall(problem) else 0.0
    directions = np.random.default_rng(stream_seed)
    references = []
    for t, resolved in zip(ts, got):
        expected = _reference(problem, unit_normals(problem.m, problem.n, directions), t)
        references.append(expected)
        if isinstance(expected, TlsCondError):
            assert type(resolved) is type(expected)
            assert bar or str(resolved) == str(expected)
            continue
        assert not isinstance(resolved, TlsCondError), resolved
        assert np.linalg.norm(resolved[0] - expected[0]) <= bar
    return references


def _assert_re_solves_are_the_solver(n, rows, at_limit, data_seed, stream_seed, exponents):
    """Steps of 10^e ||[A b]||_F along one stream re-solve as solve_tls does, rel_gap included
    (past the crossover to a rounding of 16 eps ||[A b]||_F in sigma_hat_n and sigma_{n+1})."""
    problem, scale = _problem(n, rows, at_limit, data_seed)
    ts = [10.0**e * scale for e in exponents]
    got = _lab(problem, stream_seed, ts, NO_STEP_COVERED)
    references = _assert_each_step_is_the_reference(problem, stream_seed, ts, got)
    for resolved, expected in zip(got, references):
        if isinstance(expected, TlsCondError):
            continue
        if tall(problem):
            assert abs(resolved[1] - expected[1]) <= 16 * EPS * scale / expected[2]
        else:
            assert resolved[1] == expected[1]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    n=st.integers(1, 6),
    rows=st.sampled_from(["n+1", "below QR", "QR"]),  # m = n+1, 2(n+1)-1, 2(n+1)
    at_limit=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    stream_seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.floats(-10.0, -3.0), min_size=1, max_size=6),
)
def test_each_trial_re_solve_is_the_solver_on_the_rebuilt_problem(
    n, rows, at_limit, data_seed, stream_seed, exponents
):
    _assert_re_solves_are_the_solver(n, rows, at_limit, data_seed, stream_seed, exponents)


@hypothesis.settings(max_examples=12, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    n=st.integers(core.V_ONLY_WIDTH - 1, core.V_ONLY_WIDTH + 8),
    rows=st.sampled_from(["n+1", "below QR", "QR"]),
    at_limit=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    stream_seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.floats(-10.0, -3.0), min_size=1, max_size=3),
)
def test_each_wide_re_solve_is_the_solver_on_the_rebuilt_problem(
    n, rows, at_limit, data_seed, stream_seed, exponents
):
    # blocks from V_ONLY_WIDTH columns on: the few-value kernel, one block at a time
    _assert_re_solves_are_the_solver(n, rows, at_limit, data_seed, stream_seed, exponents)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    n=st.integers(1, 6),
    rows=st.sampled_from(["n+1", "below QR", "QR"]),
    at_limit=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    stream_seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(1e-6, 0.999999), min_size=1, max_size=6),
)
def test_a_certified_re_solve_keeps_the_gap(n, rows, at_limit, data_seed, stream_seed, fractions):
    # steps inside the range Weyl's inequality certifies: the lab skips the
    # gap's root and check, yet gives the solver's x, and the solver's own
    # rel_gap keeps GAP_PERSISTENCE of the base's; past the scale limit both
    # sides refuse alike
    problem, _ = _problem(n, rows, at_limit, data_seed)
    bundle = tc.svd_bundle(problem)
    base = tc.solve_tls(problem, bundle)
    certificate = perturb._GapCertificate.of(
        bundle, base, tc.build_spectral_work(problem, bundle, base))
    c = certificate
    edge = (c.gap - c.slack - c.required * c.sigma_hat_n) / (2.0 + c.required)
    hypothesis.assume(edge > 0.0)
    ts = [f * edge for f in fractions]
    assert all(certificate.covers(t) for t in ts)
    got = _lab(problem, stream_seed, ts, certificate)
    references = _assert_each_step_is_the_reference(problem, stream_seed, ts, got)
    for resolved, expected in zip(got, references):
        if not isinstance(expected, TlsCondError):
            assert resolved[1] is None
            assert expected[1] >= certificate.required
