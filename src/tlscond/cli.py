"""Command-line front end.

Subcommands: solve, cond, bounds, gen, validate, table. solve prints x, the
identity residuals, the normal-equations cross-check (n/a, with the reason,
where core.check_p refuses P) and the gap chain; validate prints how many
random trials Weyl's inequality certified to keep the gap. cond runs the svd
route unless --method names another, or all four. Human-readable output uses 3
significant digits; files written via --out keep full precision. A file's
name decides its format (see tlscond.problem). Exit codes: 0 success, 2
parse/shape/flag problems, 3 no unique solution or no solvable generated
instance, 4 not-applicable or ill-conditioned gap, 5 internal numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import bounds as bounds_mod
from . import exact
from .core import check_p, residual_diagnostics, solve_tls, svd_bundle
from .errors import (
    GapFailure,
    IllConditionedGap,
    InvalidAlpha,
    NotApplicable,
    NoUniqueSolution,
    ParseError,
    ShapeError,
    TlsCondError,
    TrivialProblem,
    VerdictFailure,
)
from .generators import (
    KammNagyConfig,
    _alpha_draw,
    _kamm_nagy_draw,
    generate_ab_alpha,
    kamm_nagy_problem,
)
from .perturb import monte_carlo_validate
from .problem import ReportDocument, load_problem, save_problem, save_report

BOUND_COLUMNS = (
    "ratio_sigma_n",
    "ratio_sigma_hat_n",
    "kappa_rel",
    "kappa2_lower_rel",
    "kappa2_upper_rel",
    "kappa1_upper_rel",
    "bhm",
)
TABLE1_COLUMNS = ("label", "m", *BOUND_COLUMNS)
TABLE2_COLUMNS = ("label", "m", "n", "alpha", *BOUND_COLUMNS)


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _bound_row(problem, bundle, solution) -> tuple:
    """One draw's BOUND_COLUMNS values, in order, on the generator's bundle."""
    work = exact.build_spectral_work(problem, bundle, solution)
    report = bounds_mod.bounds_report(problem, bundle, solution, work)
    failed = [fam for fam, ok in report.sandwich_verdicts.items() if not ok]
    if failed:
        raise VerdictFailure(
            f"{problem.label}: families {failed} fail to enclose kappa="
            f"{report.kappa_reference:.6e}"
        )
    pairs, scale = report.pairs, report.rel_scale
    absolute = (report.kappa_reference, pairs["kappa2_lower"].lower,
                pairs["kappa2_upper"].upper, pairs["kappa1"].upper)
    # rescaled to the relative number; bhm already estimates it, and no
    # relative value exists at x = 0 (scale None)
    relative = (None if scale is None or v is None else v * scale for v in absolute)
    return (solution.gap.ratio_sigma_n, solution.gap.ratio_sigma_hat_n, *relative,
            pairs["bhm"].upper)


def _sweep(table: str, columns, cases, draw, seed: int, n_seeds: int, **metadata) -> ReportDocument:
    """The table subcommand's one sweep: a row per case, medians over n_seeds draws.

    A case is (its key values, in columns' order; draw's arguments; its seed
    parts). Its k-th draw is draw(*arguments, seed) at the seed derived from
    (seed, *parts, k), and each of BOUND_COLUMNS is the median of _bound_row
    over the draws, or None where any draw's value is None.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    rows = []
    for keys, args, parts in cases:
        draws = [_bound_row(*draw(*args, _derive_seed(seed, *parts, k))) for k in range(n_seeds)]
        medians = (None if None in values else float(np.median(values)) for values in zip(*draws))
        rows.append(dict(zip(columns, (*keys, *medians))))
    metadata = {"table": table, "seed": seed, "n_seeds": n_seeds, **metadata,
                "created_at": datetime.now(timezone.utc).isoformat()}
    return ReportDocument(columns=columns, rows=tuple(rows), metadata=metadata)


def _kamm_nagy_seeded(m: int, seed: int):
    return _kamm_nagy_draw(KammNagyConfig(m=m, seed=seed))


def run_table_example1(m_list, seed: int = 0, n_seeds: int = 1) -> ReportDocument:
    """Deblurring sweep at KammNagyConfig's defaults: one row per m, medians over n_seeds draws."""
    cases = [((f"deblur_m{m}", float(m)), (m,), (idx,)) for idx, m in enumerate(m_list)]
    return _sweep("example1", TABLE1_COLUMNS, cases, _kamm_nagy_seeded, seed, n_seeds,
                  omega=KammNagyConfig.omega, spread=KammNagyConfig.spread,
                  gamma=KammNagyConfig.gamma)


def run_table_example2(
    shape_list,
    alpha_list,
    seed: int = 0,
    n_seeds: int = 1,
) -> ReportDocument:
    """Alpha-controlled sweep: one row per (shape, alpha)."""
    cases = [
        ((f"alpha_m{m}_n{n}_a{alpha:g}", float(m), float(n), float(alpha)), (m, n, alpha),
         (sidx, aidx))
        for sidx, (m, n) in enumerate(shape_list)
        for aidx, alpha in enumerate(alpha_list)
    ]
    return _sweep("example2", TABLE2_COLUMNS, cases, _alpha_draw, seed, n_seeds,
                  shapes=[list(s) for s in shape_list], alphas=list(alpha_list))


def _fmt3(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, str):
        return value
    return f"{value:.2e}"


def _print_report(report: ReportDocument) -> None:
    widths = [max(len(c), 10) for c in report.columns]
    print("  ".join(c.ljust(w) for c, w in zip(report.columns, widths)))
    for row in report.rows:
        print("  ".join(_fmt3(row[c]).ljust(w) for c, w in zip(report.columns, widths)))


def _solved(path) -> tuple:
    """(problem, bundle, solution) of the --input file: the pipeline of solve, cond and bounds."""
    problem = load_problem(path)
    bundle = svd_bundle(problem)
    return problem, bundle, solve_tls(problem, bundle)


def _cmd_solve(args) -> int:
    problem, bundle, solution = _solved(args.input)
    report = residual_diagnostics(problem, bundle, solution)
    diag = solution.gap
    print(f"m={problem.m} n={problem.n} label={problem.label}")
    print(f"alpha={solution.alpha:.6e}  ||x||={solution.norm_x:.6e}  rel_gap={diag.rel_gap:.3e}")
    if problem.n <= 10:
        print("x =", " ".join(f"{v:.12e}" for v in solution.x))
    print(
        f"identity residuals: optimal={report.optimal_value:.2e} "
        f"gradient={report.gradient:.2e} singular_vector={report.singular_vector:.2e}"
    )
    try:
        check_p(bundle)
        print(f"normal-equations cross-check: rel_diff={report.normal_eq_rel_diff:.2e}")
    except IllConditionedGap as exc:
        print(f"normal-equations cross-check: n/a ({exc})")
    if report.gap_chain_holds is None:
        print("gap enclosure chain: n/a (x = 0)")
    else:
        print(
            f"gap enclosure chain: {report.gap_chain_lower:.3e} <= {report.gap_chain_mid:.3e}"
            f" <= {report.gap_chain_upper:.3e} -> {'ok' if report.gap_chain_holds else 'VIOLATED'}"
        )
    return 0


_METHOD_ALIASES = {"kron": "kronecker"}


def _cmd_cond(args) -> int:
    problem, bundle, solution = _solved(args.input)
    methods = (
        ["kronecker", "cholesky", "svd", "baboulin"]
        if args.method == "all"
        else [_METHOD_ALIASES.get(args.method, args.method)]
    )
    work = exact.build_spectral_work(problem, bundle, solution)
    runners = {
        "kronecker": lambda: exact.kron_condition(
            exact.build_k_matrix(problem, bundle, solution), problem, solution
        ),
        "cholesky": lambda: exact.cholesky_condition(work, problem, bundle, solution),
        "svd": lambda: exact.svd_condition(work, bundle, solution),
        "baboulin": lambda: exact.baboulin_condition(work, bundle, solution),
    }
    failure = None
    for method in methods:
        try:
            est = runners[method]()
        except TlsCondError as exc:
            print(f"{method:10s} failed: {exc}")
            failure = failure or exc
            continue
        rel = "n/a" if est.kappa_rel is None else f"{est.kappa_rel:.6e}"
        print(f"{method:10s} kappa_abs={est.kappa_abs:.6e}  kappa_rel={rel}")
    if failure is not None:
        raise failure
    return 0


def _cmd_bounds(args) -> int:
    problem, bundle, solution = _solved(args.input)
    work = exact.build_spectral_work(problem, bundle, solution)
    report = bounds_mod.bounds_report(problem, bundle, solution, work)
    print(f"kappa_reference (svd formula) = {report.kappa_reference:.6e}")
    print(f"alpha={solution.alpha:.6e}  rho={solution.gap.ratio_sigma_n:.4f}")
    for family, pair in report.pairs.items():
        verdict = report.sandwich_verdicts.get(family)
        status = "" if verdict is None else ("  encloses" if verdict else "  VIOLATED")
        note = f"  ({pair.applicability_note})" if pair.applicability_note else ""
        print(
            f"{family:16s} lower={_fmt3(pair.lower):>10s} upper={_fmt3(pair.upper):>10s}"
            f"{status}{note}"
        )
    if not all(report.sandwich_verdicts.values()):
        raise VerdictFailure("a certified bound failed to enclose kappa")
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "alpha":
        if args.n is None or args.alpha is None:
            raise InvalidAlpha("--kind alpha requires --n and --alpha")
        problem = generate_ab_alpha(args.m, args.n, args.alpha, args.seed)
    else:
        config = KammNagyConfig(
            m=args.m, omega=args.omega, spread=args.spread, gamma=args.gamma, seed=args.seed
        )
        problem = kamm_nagy_problem(config)
    save_problem(problem, args.out)
    print(f"wrote {problem.label} (m={problem.m}, n={problem.n}) to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    problem = load_problem(args.input)
    summary = monte_carlo_validate(
        problem, trials=args.trials, t=args.step, seed=args.seed
    )
    print(
        f"kappa={summary.kappa_reference:.6e}  step={summary.step:.3e}  "
        f"trials={summary.trials}"
    )
    max_obs = "n/a" if summary.max_observed_ratio is None else f"{summary.max_observed_ratio:.6e}"
    print(f"max random ratio = {max_obs}")
    print(f"gap: {summary.certified_trials} of {summary.trials} trials certified "
          f"(g={summary.gap:.3e}, 2t+s={summary.gap_shift:.3e})")
    print(f"worst-direction ratio = {summary.worst_direction_ratio:.6e}")
    for t, remainder in summary.convergence_slopes:
        print(f"  t={t:.3e}  first-order remainder={remainder:.3e}")
    print(f"sound={summary.sound}  attained={summary.attained}")
    if not summary.sound:
        raise VerdictFailure("observed sensitivity exceeds the condition number")
    return 0


def _cmd_table(args) -> int:
    if args.example == 1:
        report = run_table_example1(args.m_list, seed=args.seed, n_seeds=args.seeds)
    else:
        report = run_table_example2(args.shapes, args.alphas, seed=args.seed, n_seeds=args.seeds)
    _print_report(report)
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _int_at_least(low: int):
    """An argparse type: an int of at least low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _shape(text: str) -> tuple[int, int]:
    """An argparse type: MxN, two unsigned integers."""
    m, sep, n = text.partition("x")
    if not (sep and m.isdecimal() and n.isdecimal()):
        raise argparse.ArgumentTypeError(f"must be MxN, got {text!r}")
    return int(m), int(n)


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlscond",
        description="TLS solver, exact condition numbers, bounds, and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="[A b] file: .mtx/.mm MatrixMarket, else CSV")

    p_solve = sub.add_parser("solve", help="solve the TLS problem and check identities")
    add_input(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_cond = sub.add_parser("cond", help="exact condition numbers")
    add_input(p_cond)
    p_cond.add_argument(
        "--method",
        choices=["kron", "cholesky", "svd", "baboulin", "all"],
        default="svd",
        help="route (default svd, the reference); all runs the four, the Kronecker oracle too",
    )
    p_cond.set_defaults(func=_cmd_cond)

    p_bounds = sub.add_parser("bounds", help="lower/upper bounds and verdicts")
    add_input(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_gen = sub.add_parser("gen", help="generate a test problem")
    p_gen.add_argument("--kind", choices=["alpha", "kammnagy"], required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--alpha", type=float, default=None)
    p_gen.add_argument("--omega", type=int, default=KammNagyConfig.omega)
    p_gen.add_argument("--spread", type=float, default=KammNagyConfig.spread)
    p_gen.add_argument("--gamma", type=float, default=KammNagyConfig.gamma)
    p_gen.add_argument("--seed", type=_int_at_least(0), default=0)
    p_gen.add_argument("--out", required=True, help=".mtx/.mm MatrixMarket, else CSV")
    p_gen.set_defaults(func=_cmd_gen)

    p_val = sub.add_parser("validate", help="perturbation validation")
    add_input(p_val)
    p_val.add_argument("--trials", type=_int_at_least(0), default=100)
    p_val.add_argument("--step", type=_positive_finite, default=None,
                       help="absolute step (default 1e-8 * ||[A b]||_F); one below "
                            "1e-12 * ||[A b]||_F measures rounding and is refused (exit 4)")
    p_val.add_argument("--seed", type=_int_at_least(0), default=0)
    p_val.set_defaults(func=_cmd_validate)

    p_table = sub.add_parser("table", help="reproduce the experiment table layouts")
    p_table.add_argument("--example", type=int, choices=[1, 2], required=True)
    p_table.add_argument("--seeds", type=_int_at_least(1), default=1,
                         help="median over this many draws (>= 1)")
    p_table.add_argument("--seed", type=_int_at_least(0), default=0)
    p_table.add_argument("--m-list", type=int, nargs="+", default=[100, 300, 500],
                         dest="m_list", help="example 1 sizes")
    p_table.add_argument("--shapes", type=_shape, nargs="+", default=[(200, 150)],
                         help="example 2 shapes as MxN")
    p_table.add_argument("--alphas", type=float, nargs="+", default=[1e-2, 1e-3, 1e-5],
                         help="example 2 alpha targets")
    p_table.add_argument("--out", default=None, help=".json JSON, else CSV")
    p_table.set_defaults(func=_cmd_table)
    return parser


_EXIT_CODES = (
    ((ParseError, ShapeError, InvalidAlpha, OSError), 2),
    ((NoUniqueSolution, TrivialProblem, GapFailure), 3),
    ((NotApplicable, IllConditionedGap), 4),
)


# main's one parser per process: a build costs far more than a parse
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TlsCondError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                return code
        return 5


if __name__ == "__main__":
    sys.exit(main())
