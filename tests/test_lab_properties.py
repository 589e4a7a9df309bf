"""Property: every trial re-solve of the lab is solve_tls on the rebuilt problem, bit for bit."""

import functools

import numpy as np
import pytest

import tlscond as tc
from conftest import perturbed, unit_normals
from tlscond import core, perturb
from tlscond.errors import TlsCondError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _reference(problem, z, t):
    """(x, rel_gap) of solve_tls on [A + t dA, b + t db], or the typed error it raises."""
    rebuilt = perturbed(problem, z, t)
    try:
        solution = tc.solve_tls(rebuilt, tc.svd_bundle(rebuilt))
    except TlsCondError as exc:
        return exc
    return solution.x, solution.gap.rel_gap


def _lab(problem, seed, ts):
    """Each step's (x, rel_gap) from _resolves on one generator, or the typed error."""
    resolves = perturb._resolves(
        problem, functools.partial(perturb._unit_normals, np.random.default_rng(seed)), ts
    )
    out = []
    try:
        for resolved in resolves:
            out.append(resolved if isinstance(resolved, TlsCondError)
                       else (resolved[0], resolved[1].rel_gap))
    except TlsCondError as exc:
        out.append(exc)
    return out


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
    m = {"n+1": n + 1, "below QR": 2 * (n + 1) - 1, "QR": 2 * (n + 1)}[rows]
    aug = np.random.default_rng(data_seed).standard_normal((m, n + 1))
    scale = np.linalg.norm(aug)
    if at_limit:
        # sigma_1 just below the square's overflow limit: a large enough step
        # crosses it, and both sides must refuse that re-solve alike
        factor = (1.0 - 1e-4) * core._SCALE_LIMIT / np.linalg.svd(aug, compute_uv=False)[0]
        aug, scale = aug * factor, scale * factor
    problem = tc.TlsProblem(aug[:, :n], aug[:, n])
    ts = [10.0**e * scale for e in exponents]
    got = _lab(problem, stream_seed, ts)
    # every step is re-solved, unless one raises (and so ends the run)
    assert len(got) == len(ts) or isinstance(got[-1], TlsCondError)
    directions = np.random.default_rng(stream_seed)
    for t, resolved in zip(ts, got):
        expected = _reference(problem, unit_normals(m, n, directions), t)
        if isinstance(expected, TlsCondError):
            assert type(resolved) is type(expected) and str(resolved) == str(expected)
            continue
        assert not isinstance(resolved, TlsCondError), resolved
        np.testing.assert_array_equal(resolved[0], expected[0])
        assert resolved[1] == expected[1]
