"""Seeded workloads of the tlscond benchmark: inputs, job lists and output checks.

A workload is built in two steps. ``setup(seed, workdir)`` makes every input
from the seed (problems in memory and, for cli-files, problem files on
disk); it is what ``setup_s`` times. ``jobs(inputs)`` turns the inputs into
the fixed job list of one pass. Each job is one user operation (``run``,
timed) plus a check of its outcome (``check``, untimed).

Every job calls the package through module attributes at call time
(``core.svd_bundle``, ``exact.svd_condition`` ...), so the wrappers of the
traced run see the calls.

A job that raises fails with the code ``raised.<exception class>``; only
the kappa routes turn a typed ``TlsCondError`` into a gate instead. The job
lists hold only operations that pass their checks on every seed, so any
failure makes the run incorrect. The known defects of the program are kept
apart: ``defects()`` gives, per workload, fixed inputs that show each of
them, run once per run after the measurement and reported, not counted.
"""

from __future__ import annotations

import io
import re
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tlscond import bounds, cli, core, exact, generators, perturb, problem
from tlscond.errors import GapFailure, TlsCondError

AGREE_RTOL = 1e-8        # every kappa route against the svd reference
VERDICT_SLACK = 1e-9     # certified bounds: lower <= kappa <= upper, within this
CLI_PRINT_RTOL = 1e-6    # the CLI prints kappa and alpha with 7 significant digits
VALIDATE_TRIALS = 100
DRAW_ATTEMPTS = 3        # seeds tried per input when a generator gives up

# Generator give-ups during set-up, by generator name (see ``draw``).
gave_up = Counter()


@dataclass
class Verdict:
    """Outcome of one job's check."""

    failures: list = field(default_factory=list)  # failure codes
    gated: int = 0        # kappa routes that raised a typed gate
    disagree: int = 0     # kappa routes that disagree with the svd reference
    certified: int = 0    # certified bound families checked
    enclosed: int = 0     # ... of which enclose kappa

    def fail(self, code: str) -> None:
        self.failures.append(code)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Defect:
    """A known defect of the program and a job, on fixed inputs, that shows it."""

    job: Job
    what: str


def derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def draw(make, seed):
    """``make(seed)``, the generated problem.

    A generator that finds no solvable instance within its own retry cap
    raises the typed ``GapFailure``: a gate, like those of the kappa routes,
    not a wrong output. The input is then drawn from the next seed derived
    from ``seed``, and the give-up is counted in ``gave_up``, which each run
    reports. ``defects_tall`` shows a seed on which a generator gives up.
    """
    for attempt in range(DRAW_ATTEMPTS):
        try:
            return make(derive_seed(seed, attempt) if attempt else seed)
        except GapFailure:
            gave_up[make.__name__] += 1
    raise GapFailure(f"{make.__name__}: no solvable instance from {DRAW_ATTEMPTS} seeds")


def _alpha(m, n, alpha):
    def generate_ab_alpha(seed):
        return generators.generate_ab_alpha(m, n, alpha, seed)
    return generate_ab_alpha


def _deblur(m):
    def kamm_nagy_problem(seed):
        return generators.kamm_nagy_problem(generators.KammNagyConfig(m=m, seed=seed))
    return kamm_nagy_problem


# --- the exact + bounds pipeline (tall-sweep, deblur-ladder, perturb-lab) ----

def _route(fn, *args):
    """Run one kappa route; a typed gate comes back as the exception."""
    try:
        return fn(*args)
    except TlsCondError as exc:
        return exc


def run_pipeline(prob, p_routes: bool = True, oracle: bool = False):
    """kappa by the svd route and, optionally, the P-based routes and the
    explicit Kronecker oracle, plus the bounds report."""
    bundle = core.svd_bundle(prob)
    solution = core.solve_tls(prob, bundle)
    work = exact.build_spectral_work(prob, bundle, solution)
    routes = {"svd": _route(exact.svd_condition, work, bundle, solution)}
    if p_routes:
        routes["cholesky"] = _route(exact.cholesky_condition, work, prob, bundle, solution)
        routes["baboulin"] = _route(exact.baboulin_condition, work, bundle, solution)
    report = bounds.bounds_report(prob, bundle, solution, work)
    if oracle:
        k_work = exact.build_k_matrix(prob, bundle, solution)
        routes["kronecker"] = _route(exact.kron_condition, k_work, prob, solution)
    return routes, report


def check_pipeline(outcome) -> Verdict:
    routes, report = outcome
    verdict = Verdict()
    ref = routes["svd"]
    if isinstance(ref, Exception) or not (np.isfinite(ref.kappa_abs) and ref.kappa_abs > 0):
        verdict.fail("svd.no_reference")
        return verdict
    kappa = ref.kappa_abs
    for name, est in routes.items():
        if name == "svd":
            continue
        if isinstance(est, Exception):
            verdict.gated += 1
        elif not _rel(est.kappa_abs, kappa) <= AGREE_RTOL:
            verdict.disagree += 1
            verdict.fail(f"{name}.disagree" + ("_warned" if est.warnings else ""))
    if not _rel(report.kappa_reference, kappa) <= AGREE_RTOL:
        verdict.fail("bounds.reference")
    for family, pair in report.pairs.items():
        if family == "bhm":  # a heuristic point estimate, certifies nothing
            continue
        if pair.lower is None and pair.upper is None:
            continue
        verdict.certified += 1
        ok_lower = pair.lower is None or pair.lower <= kappa * (1.0 + VERDICT_SLACK)
        ok_upper = pair.upper is None or kappa <= pair.upper * (1.0 + VERDICT_SLACK)
        if ok_lower and ok_upper:
            verdict.enclosed += 1
        else:
            verdict.fail(f"bounds.{family}.not_enclosed")
    return verdict


def _pipeline_job(label, prob, p_routes=True, oracle=False) -> Job:
    return Job(label, lambda: run_pipeline(prob, p_routes, oracle), check_pipeline)


# --- tall-sweep ------------------------------------------------------------

TALL_SHAPES = ((4000, 40), (2000, 100))
TALL_ALPHAS = (1e-2, 1e-4, 1e-8)


def setup_tall(seed, workdir):
    return [
        draw(_alpha(m, n, alpha), derive_seed(seed, i, j))
        for i, (m, n) in enumerate(TALL_SHAPES)
        for j, alpha in enumerate(TALL_ALPHAS)
    ]


def jobs_tall(problems):
    labels = [f"alpha={a:g} {m}x{n}" for m, n in TALL_SHAPES for a in TALL_ALPHAS]
    return [_pipeline_job(label, p) for label, p in zip(labels, problems)]


def defects_tall():
    return [Defect(
        Job("generate alpha=1e-08 4000x40",
            lambda: generators.generate_ab_alpha(4000, 40, 1e-8, 2319140326),
            lambda prob: Verdict()),
        "generate_ab_alpha gives up (GapFailure) after 10 draws with no solvable instance "
        "on about 1 seed in 150 at alpha=1e-8; set-up then draws the next seed")]


# --- deblur-ladder (paper Example 1) ---------------------------------------

DEBLUR_SIZES = (100, 300, 500)
DEBLUR_DRAWS = 2


def setup_deblur(seed, workdir):
    return [
        (m, draw(_deblur(m), derive_seed(seed, i, k)))
        for i, m in enumerate(DEBLUR_SIZES)
        for k in range(DEBLUR_DRAWS)
    ]


def jobs_deblur(problems):
    # The P-based routes and the Kronecker oracle are left out: on these gaps
    # they return wrong values on some seeds (see defects_deblur).
    return [_pipeline_job(f"deblur m={m} draw {k % DEBLUR_DRAWS}", prob, p_routes=False)
            for k, (m, prob) in enumerate(problems)]


def defects_deblur():
    return [
        Defect(_pipeline_job("deblur m=100 +P routes +kron",
                             generators.kamm_nagy_problem(generators.KammNagyConfig(m=100, seed=1)),
                             oracle=True),
               "kron_condition solves against P with no gap gate; on every deblur draw at "
               "m=100 it is off from the svd reference (3.5e-3)"),
        Defect(_pipeline_job("deblur m=300 +P routes",
                             generators.kamm_nagy_problem(
                                 generators.KammNagyConfig(m=300, seed=916631015))),
               "the P-based routes gate only below rel_gap 1e-6 and merely warn up to 1e-3; "
               "just above the gate they return values off the reference "
               "(about 1 deblur seed in 20)"),
    ]


# --- perturb-lab -----------------------------------------------------------

VALIDATE_LADDER = ((50, 10), (100, 20), (200, 30))
VALIDATE_ALPHA = 0.3


def setup_perturb(seed, workdir):
    return seed, [
        (f"alpha={VALIDATE_ALPHA:g} {m}x{n}",
         draw(_alpha(m, n, VALIDATE_ALPHA), derive_seed(seed, i)))
        for i, (m, n) in enumerate(VALIDATE_LADDER)
    ]


def check_validate(summary) -> Verdict:
    verdict = Verdict()
    if not summary.sound:
        verdict.fail("validate.unsound")
    if not summary.attained:
        verdict.fail("validate.unattained")
    return verdict


def _validate_job(label, prob, seed) -> Job:
    return Job(label,
               lambda: perturb.monte_carlo_validate(prob, trials=VALIDATE_TRIALS, seed=seed),
               check_validate)


def jobs_perturb(inputs):
    seed, probs = inputs
    validate = [_validate_job(f"validate {label}", prob, derive_seed(seed, 100 + i))
                for i, (label, prob) in enumerate(probs)]
    oracle = [_pipeline_job(f"kappa +kron {label}", prob, oracle=True) for label, prob in probs]
    return validate + oracle


def defects_perturb():
    return [
        Defect(_validate_job("validate deblur m=60",
                             generators.kamm_nagy_problem(generators.KammNagyConfig(m=60, seed=1)),
                             1),
               "the default step 1e-8*||[A b]||_F ignores the gap; on deblur m=60 the run is "
               "unsound, unattained or aborts, depending on the draw"),
        Defect(_validate_job("validate alpha=1e-08 50x10",
                             generators.generate_ab_alpha(50, 10, 1e-8, 1), 1),
               "monte_carlo_validate aborts with PerturbationTooLarge on the first trial "
               "that loses the gap"),
    ]


# --- cli-files -------------------------------------------------------------

CLI_SHAPE = (2000, 100)
CLI_ALPHA = 1e-2
CLI_DEBLUR_M = 300
CLI_TABLE_M = (100, 200)


@dataclass
class CliInputs:
    workdir: Path
    gen_seed: int
    table_seed: int
    tall: object      # the problem behind tall.csv / tall.mtx, and what gen rewrites
    blur: object      # the problem behind blur.csv
    ref: dict = field(default_factory=dict)  # reference values, filled by references()


def setup_cli(seed, workdir):
    gen_seed = derive_seed(seed, 0)
    m, n = CLI_SHAPE
    tall = generators.generate_ab_alpha(m, n, CLI_ALPHA, gen_seed)
    blur = generators.kamm_nagy_problem(
        generators.KammNagyConfig(m=CLI_DEBLUR_M, seed=derive_seed(seed, 1)))
    problem.save_problem(tall, workdir / "tall.csv")
    problem.save_problem(tall, workdir / "tall.mtx")
    problem.save_problem(blur, workdir / "blur.csv")
    return CliInputs(workdir, gen_seed, derive_seed(seed, 2), tall, blur)


def references(inputs: CliInputs) -> None:
    """Values the CLI output is checked against, computed through the library."""
    bundle = core.svd_bundle(inputs.tall)
    inputs.ref["alpha"] = core.solve_tls(inputs.tall, bundle).alpha
    routes, _ = run_pipeline(inputs.blur, p_routes=False)
    inputs.ref["kappa"] = routes["svd"].kappa_abs
    inputs.ref["table"] = cli.run_table_example1(list(CLI_TABLE_M), seed=inputs.table_seed).rows


def _run_cli(argv):
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def _printed(text, pattern):
    found = re.search(pattern, text)
    return float(found.group(1)) if found else None


def _check_cli(inspect):
    def check(outcome) -> Verdict:
        verdict = Verdict()
        code, text = outcome
        if code != 0:
            verdict.fail(f"cli.exit.{code}")
        else:
            inspect(text, verdict)
        return verdict
    return check


def jobs_cli(inputs: CliInputs):
    references(inputs)
    wd = inputs.workdir
    m, n = CLI_SHAPE

    def solve_ok(text, verdict):
        alpha = _printed(text, r"alpha=(\S+)")
        if alpha is None or not _rel(alpha, inputs.ref["alpha"]) <= CLI_PRINT_RTOL:
            verdict.fail("cli.solve.alpha")
        if "-> ok" not in text:
            verdict.fail("cli.solve.gap_chain")

    def bounds_ok(text, verdict):
        kappa = _printed(text, r"kappa_reference \(svd formula\) = (\S+)")
        if kappa is None or not _rel(kappa, inputs.ref["kappa"]) <= CLI_PRINT_RTOL:
            verdict.fail("cli.bounds.kappa")
        if "VIOLATED" in text:
            verdict.fail("cli.bounds.not_enclosed")

    def gen_ok(text, verdict):
        path = wd / "gen.mtx"
        reloaded = problem.load_problem(path)
        path.unlink()
        if not (np.array_equal(reloaded.a_matrix, inputs.tall.a_matrix)
                and np.array_equal(reloaded.b_vector, inputs.tall.b_vector)):
            verdict.fail("cli.gen.reload")

    def table_ok(text, verdict):
        path = wd / "table.csv"
        reloaded = problem.load_report(path)
        path.unlink()
        if reloaded.rows != inputs.ref["table"]:
            verdict.fail("cli.table.reload")

    commands = (
        ("solve tall.csv", ["solve", "--input", str(wd / "tall.csv")], solve_ok),
        ("solve tall.mtx", ["solve", "--input", str(wd / "tall.mtx")], solve_ok),
        ("bounds blur.csv", ["bounds", "--input", str(wd / "blur.csv")], bounds_ok),
        ("gen alpha to mtx",
         ["gen", "--kind", "alpha", "--m", str(m), "--n", str(n), "--alpha", repr(CLI_ALPHA),
          "--seed", str(inputs.gen_seed), "--out", str(wd / "gen.mtx")], gen_ok),
        ("table example 1 to csv",
         ["table", "--example", "1", "--m-list", *map(str, CLI_TABLE_M),
          "--seed", str(inputs.table_seed), "--out", str(wd / "table.csv")], table_ok),
    )
    return [Job(label, lambda a=argv: _run_cli(a), _check_cli(ok)) for label, argv, ok in commands]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    jobs: Callable
    defects: Callable[[], list] = list


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tall-sweep", setup_tall, jobs_tall, defects_tall),
        Workload("deblur-ladder", setup_deblur, jobs_deblur, defects_deblur),
        Workload("perturb-lab", setup_perturb, jobs_perturb, defects_perturb),
        Workload("cli-files", setup_cli, jobs_cli),
    )
}
