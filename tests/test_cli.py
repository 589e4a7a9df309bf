import argparse
import json

import numpy as np
import pytest

import tlscond as tc
from conftest import counting_factorizations, failed_dlasd4, failed_svd, pipeline
from tlscond import core, exact
from tlscond.cli import main, run_table_example1, run_table_example2


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_problem_file(tmp_path, capsys, name="p.csv", alpha="0.3", m="20", n="5", seed="4"):
    path = tmp_path / name
    code, _, _ = run(
        ["gen", "--kind", "alpha", "--m", m, "--n", n, "--alpha", alpha,
         "--seed", seed, "--out", str(path)],
        capsys,
    )
    assert code == 0
    return path


def test_gen_solve_cond_bounds_roundtrip(tmp_path, capsys):
    path = gen_problem_file(tmp_path, capsys)

    code, out, _ = run(["solve", "--input", str(path)], capsys)
    assert code == 0
    assert "alpha=3.0" in out and "rel_gap" in out

    code, out, _ = run(["cond", "--input", str(path), "--method", "all"], capsys)
    assert code == 0
    kappas = [float(line.split("kappa_abs=")[1].split()[0])
              for line in out.splitlines() if "kappa_abs=" in line]
    assert len(kappas) == 4
    assert max(kappas) - min(kappas) <= 1e-8 * min(kappas)

    code, out, _ = run(["bounds", "--input", str(path)], capsys)
    assert code == 0
    assert "encloses" in out and "VIOLATED" not in out


def test_gen_matrixmarket_output(tmp_path, capsys):
    path = tmp_path / "p.mtx"
    code, _, _ = run(
        ["gen", "--kind", "kammnagy", "--m", "40", "--seed", "2", "--out", str(path)],
        capsys,
    )
    assert code == 0
    problem = tc.load_problem(path)
    assert problem.m == 40 and problem.n == 24


def test_gen_to_a_missing_directory_exits_2(tmp_path, capsys):
    code, _, err = run(
        ["gen", "--kind", "alpha", "--m", "10", "--n", "3", "--alpha", "0.3",
         "--seed", "1", "--out", str(tmp_path / "missing" / "p.mtx")],
        capsys,
    )
    assert code == 2 and "error" in err


def test_bounds_prints_no_verdict_for_a_family_without_a_bound(tmp_path, capsys):
    path = gen_problem_file(tmp_path, capsys, name="hi.csv", alpha="0.8", m="30", n="8",
                            seed="3")
    code, out, _ = run(["bounds", "--input", str(path)], capsys)
    assert code == 0
    lines = {line.split()[0]: line for line in out.splitlines() if "lower=" in line}
    assert lines["kappa2_upper"].split()[1:5] == ["lower=", "n/a", "upper=", "n/a"]
    assert "encloses" not in lines["kappa2_upper"] and "VIOLATED" not in out
    assert "encloses" in lines["kappa2_lower"]


@pytest.mark.parametrize("argv", [
    ["solve", "--input", "p.csv", "--format", "csv"],
    ["gen", "--kind", "alpha", "--m", "10", "--n", "3", "--alpha", "0.3", "--out", "p.txt",
     "--format", "mm"],
    ["table", "--example", "2", "--out", "t.txt", "--json"],
], ids=["solve --format", "gen --format", "table --json"])
def test_the_file_name_is_the_only_format_rule(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_validate_command(tmp_path, capsys):
    path = gen_problem_file(tmp_path, capsys)
    code, out, _ = run(
        ["validate", "--input", str(path), "--trials", "25", "--seed", "3"], capsys
    )
    assert code == 0
    assert "sound=True" in out and "attained=True" in out
    # alpha 0.3 at the default step: Weyl's inequality certifies every trial's gap
    assert "gap: 25 of 25 trials certified (g=" in out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--step", "-1", "positive and finite"),
        ("--step", "0", "positive and finite"),
        ("--step", "nan", "positive and finite"),
        ("--trials", "-1", ">= 0"),
        ("--seed", "-1", ">= 0"),
    ],
)
def test_validate_refuses_a_bad_step_or_trial_count(tmp_path, capsys, flag, value, message):
    path = gen_problem_file(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--input", str(path), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be {message}" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1e-300", "1e-13"])
def test_validate_refuses_a_step_below_the_clean_floor(tmp_path, capsys, step):
    # 1e-13 is below 1e-12 ||[A b]||_F of this problem (||[A b]||_F is about 6.2)
    path = gen_problem_file(tmp_path, capsys, alpha="0.5", seed="3")
    code, out, err = run(["validate", "--input", str(path), "--step", step], capsys)
    assert code == 4 and out == ""
    assert f"error: step t={float(step):.3e} is below the clean-step floor" in err


def test_cond_single_method(tmp_path, capsys):
    path = gen_problem_file(tmp_path, capsys)
    code, out, _ = run(["cond", "--input", str(path), "--method", "kron"], capsys)
    assert code == 0
    assert "kronecker" in out


def test_exit_code_parse_and_shape(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n4,5,6\n")  # m = 2 <= n = 2
    code, _, err = run(["solve", "--input", str(bad)], capsys)
    assert code == 2 and "error" in err

    mangled = tmp_path / "mangled.csv"
    mangled.write_text("1,x\n2,3\n")
    code, _, _ = run(["solve", "--input", str(mangled)], capsys)
    assert code == 2

    code, _, _ = run(["solve", "--input", str(tmp_path / "missing.csv")], capsys)
    assert code == 2

    negative = tmp_path / "negative.mtx"
    negative.write_text("%%MatrixMarket matrix array real general\n-2 -3\n" + "1\n" * 6)
    code, _, err = run(["solve", "--input", str(negative)], capsys)
    assert code == 2 and "negative size" in err


@pytest.mark.parametrize("name, data", [
    ("bad.csv", b"1,2\n3,\xff\n5,6\n"),
    ("bad.mtx", b"%%MatrixMarket matrix array real general\n3 2\n1\n2\n\xff\n4\n5\n6\n"),
], ids=["csv", "mtx"])
def test_exit_code_file_not_utf8(tmp_path, capsys, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    code, _, err = run(["solve", "--input", str(path)], capsys)
    assert code == 2 and err.startswith(f"error: {path}: not UTF-8 text")


def test_exit_code_invalid_alpha(tmp_path, capsys):
    code, _, _ = run(
        ["gen", "--kind", "alpha", "--m", "10", "--n", "3", "--alpha", "1.5",
         "--seed", "1", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2
    code, _, err = run(
        ["gen", "--kind", "alpha", "--m", "10", "--alpha", "0.3", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2 and "--kind alpha requires --n and --alpha" in err


@pytest.mark.parametrize("flag", ["--spread", "--gamma"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_exit_code_non_finite_deblur_parameter(tmp_path, capsys, flag, value):
    code, _, err = run(
        ["gen", "--kind", "kammnagy", "--m", "40", flag, value, "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2 and "must be finite" in err


def test_exit_code_no_unique_solution(tmp_path, capsys):
    tied = tmp_path / "tied.csv"
    tied.write_text("1,0\n0,1\n")  # sigma_hat_n = sigma_{n+1}
    code, _, _ = run(["solve", "--input", str(tied)], capsys)
    assert code == 3


def test_exit_code_ill_conditioned_gap(tmp_path, capsys):
    path = tmp_path / "degenerate.csv"
    tc.save_problem(tc.generate_ab_alpha(15, 10, 1e-8, seed=1), path)
    code, _, _ = run(["cond", "--input", str(path), "--method", "cholesky"], capsys)
    assert code == 4
    # svd route still works on the same problem
    code, out, _ = run(["cond", "--input", str(path), "--method", "svd"], capsys)
    assert code == 0 and "svd" in out
    # method=all reports the svd value but exits nonzero for the failed routes
    code, out, _ = run(["cond", "--input", str(path), "--method", "all"], capsys)
    assert code == 4
    assert "svd" in out and "failed" in out


def test_exit_code_secular_kernel_failure(tmp_path, capsys, monkeypatch):
    path = gen_problem_file(tmp_path, capsys)
    monkeypatch.setattr(core, "dlasd4", failed_dlasd4)
    code, _, err = run(["solve", "--input", str(path)], capsys)
    assert code == 5
    assert "dlasd4 failed (info=1)" in err


def test_exit_code_svd_failure(tmp_path, capsys, monkeypatch):
    path = gen_problem_file(tmp_path, capsys)
    monkeypatch.setattr(np.linalg, "svd", failed_svd)
    code, _, err = run(["solve", "--input", str(path)], capsys)
    assert code == 5
    assert "dgesdd failed (SVD did not converge)" in err


def test_exit_code_generator_gives_up(tmp_path, capsys):
    path = tmp_path / "z.csv"
    code, _, err = run(
        ["gen", "--kind", "kammnagy", "--m", "100", "--gamma", "0", "--out", str(path)], capsys
    )
    assert code == 3
    assert err == "error: the zero-noise deblurring instance is not solvable\n"
    assert not path.exists()


def scaled_deblur_file(path, k):
    """Deblurring m=40 seed 0 times 2^k, written to path."""
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=40, seed=0))
    tc.save_problem(tc.TlsProblem(np.ldexp(problem.a_matrix, k), np.ldexp(problem.b_vector, k)),
                    path)
    return path


def test_exit_code_overflowing_scale(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    tc.save_problem(tc.TlsProblem([[1e160], [0.0]], [1e160, 1e160]), path)
    code, _, err = run(["solve", "--input", str(path)], capsys)
    assert code == 2 and "overflows float64" in err
    # at 2^-520 the gap holds, but delta = sigma_hat_n^2 - sigma_{n+1}^2 underflows
    path = scaled_deblur_file(tmp_path / "tiny.csv", -520)
    code, _, err = run(["solve", "--input", str(path)], capsys)
    assert code == 2 and "underflows float64" in err


def test_a_large_power_of_two_keeps_kappa_and_its_bounds(tmp_path, capsys):
    path = scaled_deblur_file(tmp_path / "big.csv", 340)
    code, out, _ = run(["cond", "--input", str(path)], capsys)
    assert code == 0 and "kappa_rel=1.857325e+07" in out
    code, out, _ = run(["bounds", "--input", str(path)], capsys)
    assert code == 0
    lines = {line.split()[0]: line for line in out.splitlines() if "lower=" in line}
    certified = ["simple_sandwich", "sharp_sandwich", "kappa1", "kappa2_lower", "kappa2_upper"]
    assert all("encloses" in lines[name] for name in certified)


def test_table_example2_json(tmp_path, capsys):
    out_path = tmp_path / "t2.json"
    code, out, _ = run(
        ["table", "--example", "2", "--shapes", "30x10", "--alphas", "1e-2", "1e-3",
         "--seed", "5", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["metadata"]["table"] == "example2"
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["alpha"] == 0.01


def test_table_example1_csv(tmp_path, capsys):
    out_path = tmp_path / "t1.csv"
    code, _, _ = run(
        ["table", "--example", "1", "--m-list", "40", "--seed", "2",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    report = tc.load_report(out_path)
    assert report.metadata["table"] == "example1"
    assert report.rows[0]["m"] == 40.0


def test_table_rows_deterministic():
    r1 = run_table_example2([(30, 10)], [1e-2], seed=9)
    r2 = run_table_example2([(30, 10)], [1e-2], seed=9)
    assert r1.rows == r2.rows
    r3 = run_table_example1([40], seed=9, n_seeds=2)
    r4 = run_table_example1([40], seed=9, n_seeds=2)
    assert r3.rows == r4.rows


def test_table_factors_each_draw_once(monkeypatch):
    import tlscond.cli as cli_mod
    import tlscond.generators as gen_mod

    def tables():
        return (run_table_example1([40, 60], seed=3, n_seeds=2).rows,
                run_table_example2([(30, 10), (200, 30)], [1e-2], seed=4, n_seeds=2).rows)

    factored = []
    bundle = core.svd_bundle

    def counting(problem):
        factored.append(problem)
        return bundle(problem)

    for module in (cli_mod, gen_mod):
        monkeypatch.setattr(module, "svd_bundle", counting)
    rows = tables()
    # 4 rows of 2 draws, none rejected: the generator's bundle is the row's
    assert len(factored) == len({id(problem) for problem in factored}) == 8

    def factored_again(draw):
        def again(*args):
            problem = draw(*args)[0]
            fresh = bundle(problem)
            return problem, fresh, tc.solve_tls(problem, fresh)
        return again

    # the rows are those of a second bundle of every accepted draw
    monkeypatch.setattr(cli_mod, "_alpha_draw", factored_again(gen_mod._alpha_draw))
    monkeypatch.setattr(cli_mod, "_kamm_nagy_draw", factored_again(gen_mod._kamm_nagy_draw))
    assert tables() == rows


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        pytest.param("table", "--seeds", "0", "must be >= 1", id="--seeds-0-must be >= 1"),
        pytest.param("table", "--seeds", "-1", "must be >= 1", id="--seeds--1-must be >= 1"),
        pytest.param("table", "--shapes", "20x", "must be MxN", id="--shapes-20x-must be MxN"),
        pytest.param("table", "--shapes", "20x5x3", "must be MxN",
                     id="--shapes-20x5x3-must be MxN"),
        pytest.param("table", "--seed", "-1", "must be >= 0", id="--seed--1-must be >= 0"),
        pytest.param("gen", "--seed", "-1", "must be >= 0", id="gen---seed--1-must be >= 0"),
    ],
)
def test_table_refuses_a_bad_seed_count_or_shape(capsys, command, flag, value, message):
    # argparse checks a flag's value before it looks for a missing required flag
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_table_sweeps_refuse_no_draws(n_seeds):
    with pytest.raises(ValueError, match="n_seeds must be >= 1"):
        run_table_example1([40], n_seeds=n_seeds)
    with pytest.raises(ValueError, match="n_seeds must be >= 1"):
        run_table_example2([(30, 10)], [1e-2], n_seeds=n_seeds)


def test_solve_x_zero_has_no_gap_chain(tmp_path, capsys, fix_a):
    path = tmp_path / "x0.csv"
    tc.save_problem(fix_a, path)
    code, out, _ = run(["solve", "--input", str(path)], capsys)
    assert code == 0
    assert "gap enclosure chain: n/a (x = 0)" in out


def test_table_empty_m_list_gives_empty_report():
    report = run_table_example1([], seed=0)
    assert report.rows == ()


def test_failed_verdict_aborts_table(monkeypatch, capsys):
    # a row whose certified bounds fail to enclose kappa must abort the run;
    # force the condition by corrupting the verdict map
    import tlscond.cli as cli_mod

    real = cli_mod.bounds_mod.bounds_report

    def corrupted(*args, **kwargs):
        report = real(*args, **kwargs)
        verdicts = dict(report.sandwich_verdicts)
        verdicts["kappa1"] = False
        return type(report)(
            **{**report.__dict__, "sandwich_verdicts": verdicts}
        )

    monkeypatch.setattr(cli_mod.bounds_mod, "bounds_report", corrupted)
    code, _, err = run(["table", "--example", "1", "--m-list", "40"], capsys)
    assert code == 5
    assert "kappa1" in err


def test_cond_defaults_to_the_svd_route(tmp_path, capsys, monkeypatch):
    path = gen_problem_file(tmp_path, capsys)
    code, reference, _ = run(["cond", "--input", str(path), "--method", "svd"], capsys)
    assert code == 0

    def no_oracle(*args):
        raise AssertionError("the Kronecker oracle ran")

    monkeypatch.setattr(exact, "build_k_matrix", no_oracle)
    code, out, _ = run(["cond", "--input", str(path)], capsys)
    assert code == 0 and out == reference
    assert len(out.splitlines()) == 1 and out.startswith("svd ")


def test_cond_cholesky_refuses_the_deblur_m300_draw(tmp_path, capsys):
    # rel_gap 1.6e-6 passed the old hard limit, and cholesky answered 8.0e-8 off
    path = tmp_path / "g.csv"
    code, _, _ = run(["gen", "--kind", "kammnagy", "--m", "300", "--seed", "916631015",
                      "--out", str(path)], capsys)
    assert code == 0
    code, out, err = run(["cond", "--method", "cholesky", "--input", str(path)], capsys)
    assert code == 4
    assert "cholesky   failed: eps sigma_hat_1^2/delta=" in out and "> 1e-08" in err


def test_cond_all_reports_gated_kron(tmp_path, capsys):
    # deblur m=100, seed 1: eps sigma_hat_1^2 / delta 2.2e-2, above the gate of every P-based route
    path = tmp_path / "blur.csv"
    tc.save_problem(tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1)), path)
    code, out, _ = run(["cond", "--input", str(path), "--method", "all"], capsys)
    assert code == 4
    lines = {line.split()[0]: line.split()[1] for line in out.splitlines()}
    assert lines["kronecker"] == "failed:"
    assert lines["svd"].startswith("kappa_abs=")


def test_cond_baboulin_answers_below_the_gate(tmp_path, capsys):
    # deblur m=100, seed 1 (eps sigma_hat_1^2 / delta 2.2e-2): baboulin reads no P,
    # so it needs no gate
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1))
    path = tmp_path / "blur.csv"
    tc.save_problem(problem, path)
    code, out, err = run(["cond", "--input", str(path), "--method", "baboulin"], capsys)
    assert code == 0 and err == ""
    printed = out.split("kappa_abs=")[1].split()[0]
    code, out, _ = run(["cond", "--input", str(path), "--method", "all"], capsys)
    assert code == 4  # the P-based routes stay gated
    lines = {line.split()[0]: line.split()[1] for line in out.splitlines()}
    assert lines["baboulin"] == f"kappa_abs={printed}"
    bundle, solution, work = pipeline(tc.load_problem(path))
    reference = tc.svd_condition(work, bundle, solution).kappa_abs
    kappa = tc.baboulin_condition(work, bundle, solution).kappa_abs
    assert kappa == pytest.approx(reference, rel=1e-12, abs=0)
    assert float(printed) == pytest.approx(reference, rel=1e-6, abs=0)


def test_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    path = gen_problem_file(tmp_path, capsys)
    assert run(["solve", "--input", str(path)], capsys)[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_cond_all_reports_oversized_kron(tmp_path, capsys):
    # 2000x100: the explicit K (20.2M entries) is over its size cap; the other routes still run
    path = tmp_path / "big.csv"
    tc.save_problem(tc.generate_ab_alpha(2000, 100, 0.5, seed=0), path)
    code, out, _ = run(["cond", "--input", str(path), "--method", "all"], capsys)
    assert code == 4
    lines = {line.split()[0]: line.split()[1] for line in out.splitlines()}
    assert lines["kronecker"] == "failed:"
    for method in ("cholesky", "svd", "baboulin"):
        assert lines[method].startswith("kappa_abs=")


def cross_check_line(out):
    """solve's cross-check line, checked to sit between the identities and the gap chain."""
    lines = out.splitlines()
    at = [k for k, line in enumerate(lines) if line.startswith("normal-equations cross-check: ")]
    assert len(at) == 1
    assert lines[at[0] - 1].startswith("identity residuals: ")
    assert lines[at[0] + 1].startswith("gap enclosure chain: ")
    return lines[at[0]]


def test_solve_prints_the_normal_equations_cross_check(tmp_path, capsys):
    path = gen_problem_file(tmp_path, capsys)
    code, out, _ = run(["solve", "--input", str(path)], capsys)
    assert code == 0
    problem = tc.load_problem(path)
    bundle, solution, _ = pipeline(problem)
    diff = tc.residual_diagnostics(problem, bundle, solution).normal_eq_rel_diff
    assert diff is not None
    assert cross_check_line(out) == f"normal-equations cross-check: rel_diff={diff:.2e}"


def test_solve_gives_the_reason_for_no_cross_check(tmp_path, capsys):
    # deblur m=100, seed 1: eps sigma_hat_1^2 / delta is above core.P_ROUNDING_LIMIT
    path = tmp_path / "blur.mtx"
    problem = tc.kamm_nagy_problem(tc.KammNagyConfig(m=100, seed=1))
    tc.save_problem(problem, path)
    code, out, _ = run(["solve", "--input", str(path)], capsys)
    assert code == 0
    bundle = tc.svd_bundle(tc.load_problem(path))
    rounding = np.finfo(float).eps * bundle.roots.at(0)[0] ** 2 / bundle.delta
    assert cross_check_line(out) == (
        f"normal-equations cross-check: n/a (eps sigma_hat_1^2/delta={rounding:.3e} > 1e-08: "
        "P is numerically singular)"
    )


def test_solve_tall_gap_chain_ok(tmp_path, capsys):
    path = gen_problem_file(tmp_path, capsys, alpha="0.01", m="2000", n="100", seed="11")
    code, out, _ = run(["solve", "--input", str(path)], capsys)
    assert code == 0
    assert "gap enclosure chain:" in out and out.rstrip().endswith("-> ok")


def test_cond_kron_runs_only_the_bundle_svds(tmp_path, capsys, monkeypatch):
    path = gen_problem_file(tmp_path, capsys, m="60", n="8", seed="5")
    calls = counting_factorizations(monkeypatch)
    code, out, _ = run(["cond", "--input", str(path), "--method", "kron"], capsys)
    assert code == 0 and "kronecker" in out
    # [A b] through the R of one QR; A is not factored
    assert calls == [("dgeqrt", (60, 9)), ("svd", (9, 9))]
