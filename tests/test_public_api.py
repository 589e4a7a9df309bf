"""The top-level namespace and the README's library example."""

import pathlib
import re

import tlscond as tc

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_top_level_namespace_is_pinned():
    # the layer modules are package attributes once imported, but not public names
    names = {
        "BoundPair", "BoundsReport", "bhm_approx", "bounds_report", "lower_kappa2",
        "sharp_sandwich", "simple_sandwich", "sv_bounds_kappa1", "upper_kappa2",
        "GapDiagnostics", "SvdBundle", "TlsSolution",
        "residual_diagnostics", "solve_tls", "svd_bundle",
        "ConditionEstimate", "ExactFormulaWork", "baboulin_condition", "build_k_matrix",
        "build_spectral_work", "cholesky_condition", "kron_condition", "svd_condition",
        "KammNagyConfig", "generate_ab_alpha", "kamm_nagy_problem",
        "ValidationSummary", "monte_carlo_validate", "worst_direction",
        "ReportDocument", "TlsProblem", "load_problem", "load_report", "save_problem",
        "save_report",
    }
    assert sorted(tc.__all__) == sorted(names)
    star = {}
    exec("from tlscond import *", star)
    assert set(star) - {"__builtins__"} == names


def test_the_readme_library_example_runs():
    # a name the package no longer has fails here, not in a reader's hands
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["summary"].sound and namespace["summary"].attained
