"""tlscond benchmark: seeded workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py                                   # all workloads, one process
    python3 bench/run.py --workload deblur-ladder --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload perturb-lab --seed 3 --seconds 20 --trace 1

Run it from the repository root; it imports the package from ``src/``. Each
workload is set up, warmed up with one unmeasured pass, then measured in
whole passes of its fixed job list until ``--seconds`` have elapsed; set-ups
of other draws and a fixed numpy probe run between the passes
(``setup_s`` is the median set-up). Every job's output is checked.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` odd passes run under the span
wrappers of ``spans.py`` and the JSON carries the per-layer metrics, taken
from those passes, plus the tracing overhead against the even, untraced
passes. After the measurement, the known defects of the program are shown
on fixed inputs and reported, outside the result line. See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: on a 2-CPU machine a second thread
# measures the scheduler (build_spectral_work on deblur m=500: 59-69 ms IQR
# at 1 thread, 98-182 ms at 2).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import tlscond  # noqa: E402
except ImportError as _exc:
    sys.exit(f"error: cannot import tlscond from {SRC}: {_exc}")
if not Path(tlscond.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: tlscond was imported from {tlscond.__file__}, not {SRC}")

from spans import Tracer, count_vector, layer_metrics, per_job  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Verdict, derive_seed  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
# setup_s is the median of all set-ups of a run. The run's own inputs are
# built once, after SETUP_BEFORE set-ups of other draws; more of those run
# after the passes, SETUP_SHARE of the pass time, at least SETUP_RUNS in all.
# Other draws (seeds derived from --seed), because how many retries a
# generator needs depends on the draw, and the median over draws does not
# swing with the seed. After the passes, because the machine's speed moves
# within a second: set-ups spread over the run see all of it, as the passes do.
SETUP_BEFORE = 2
SETUP_SHARE = 0.2
SETUP_RUNS = 7
TAIL_BEYOND = 10        # pass_tail_ms: highest percentile with this many passes beyond
PROBE_SHARE = 0.1       # after each pass, probe for this share of the pass time
# setup_s is in seconds at this probe time (the probe's median on the machine
# the benchmark was written on): the median set-up times this over the run's
# median probe. Raw set-up seconds drift with the machine's speed between
# runs as pass times do (see bench/README.md, Steadiness), and the probe
# follows that drift.
REFERENCE_PROBE_MS = 13.0
# The end-to-end metrics of BENCHMARK.json. pass_p50_rel is the median over
# passes of the pass time in units of a fixed numpy probe timed right after
# that pass: on a shared VM the speed drifts by 15-25% between processes and
# within seconds, and the ratio cancels most of it.
# pass_p50_ms, pass_tail_ms, jobs_per_s and failed_frac are printed but not
# gated: see bench/README.md.
END_TO_END = ("pass_p50_rel", "setup_s", "peak_rss_mib")


# --- provenance -------------------------------------------------------------

def _blas_threads():
    """Thread count reported by each loaded OpenBLAS, keyed by library file."""
    import ctypes

    found = {}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    found[lib.name] = fn()
                    break
    return found or {var: os.environ.get(var) for var in THREAD_VARS}


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


PROBE_INPUT = np.random.default_rng(12345).standard_normal((256, 256))


def probe_ms() -> float:
    """One run of a fixed numpy workload that does not touch the program."""
    t0 = perf_counter()
    np.linalg.svd(PROBE_INPUT @ PROBE_INPUT.T)
    return (perf_counter() - t0) * 1e3


def provenance(seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_rev": _git_rev(),
        "seed": seed,
    }


def warm_up() -> None:
    """First BLAS/LAPACK calls in a process cost about a second; pay it here."""
    a = np.random.default_rng(0).standard_normal((400, 120))
    np.linalg.svd(a, full_matrices=False)
    np.linalg.svd(a[:120], full_matrices=True)
    scipy.linalg.cholesky(a.T @ a, lower=True)
    np.linalg.solve(a.T @ a, a.T @ a[:, 0])
    np.linalg.qr(a)


# --- measurement -------------------------------------------------------------

@dataclass(slots=True)
class JobRecord:
    label: str
    seconds: float
    verdict: Verdict


def run_pass(jobs, reported=None, tracer=None):
    """Run and check each job once. Unless ``reported`` is None, print the
    traceback of a job's first exception (``reported`` holds the labels
    already printed)."""
    records = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
            tracer.active = True
        t0 = perf_counter()
        try:
            outcome, error = job.run(), None
        except Exception as exc:  # a failing job is a measured result, not a crash
            outcome, error = None, exc
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            verdict = job.check(outcome)
        else:
            verdict = Verdict()
            verdict.fail(f"raised.{type(error).__name__}")
        if error is not None and reported is not None and job.label not in reported:
            reported.add(job.label)
            print(f"job {job.label!r} raised:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
        records.append(JobRecord(job.label, seconds, verdict))
    return records


def pass_ms(records) -> float:
    """A pass's time: the sum of its jobs' timed calls, checks excluded."""
    return sum(r.seconds for r in records) * 1e3


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None, None
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload, seed, seconds, trace, workdir):
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    workloads.gave_up.clear()
    setup_times = []
    other_dir = workdir / "other-draws"
    other_dir.mkdir(exist_ok=True)

    def set_up(own):
        """Build the run's own inputs (in ``workdir``) or another draw's."""
        if tracer is not None:
            tracer.active = True
            tracer.phase = "inputs" if own else "setup"
        t0 = perf_counter()
        built = workload.setup(seed if own else derive_seed(seed, len(setup_times)),
                               workdir if own else other_dir)
        setup_times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        return built

    for _ in range(SETUP_BEFORE):
        set_up(own=False)
    inputs = set_up(own=True)
    jobs = workload.jobs(inputs)
    reported = set()
    all_records = run_pass(jobs, reported)  # warm-up, checked, not timed

    passes, traced_flags, traced_ranges, probes = [], [], [], []
    setup_budget = 0.0
    gc.collect()
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.phase = "pass"
            first = len(tracer.spans)
        records = run_pass(jobs, reported, tracer if traced else None)
        if traced:
            traced_ranges.append((first, len(tracer.spans)))
        passes.append(records)
        traced_flags.append(traced)
        all_records += records
        probe_budget_ms = PROBE_SHARE * pass_ms(records)
        probes.append([])
        while True:
            probes[-1].append(probe_ms())
            probe_budget_ms -= probes[-1][-1]
            if probe_budget_ms <= 0:
                break
        setup_budget += SETUP_SHARE * pass_ms(records) / 1e3
        while setup_budget > 0:
            set_up(own=False)
            setup_budget -= setup_times[-1]
        if perf_counter() - start >= seconds and (tracer is None or len(passes) >= 2):
            break
    while len(setup_times) < SETUP_RUNS:
        set_up(own=False)
    if tracer is not None:
        tracer.uninstall()

    pass_times = [pass_ms(recs) for recs in passes]
    setup_wall_s = statistics.median(setup_times)
    probe_median = statistics.median(sum(probes, []))
    timed = [r for recs in passes for r in recs]
    failed = [r for r in timed if r.verdict.failures]
    timed_s = sum(r.seconds for r in timed)
    tail_ms, tail_pct = tail(pass_times)
    result = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(passes),
        "attempted": len(timed),
        "failed": len(failed),
        "correct": not any(r.verdict.failures for r in all_records),
        "setup_s_all": setup_times,
        "pass_ms": pass_times,
        "probe_ms": probes,
        "e2e": {
            "setup_s": (setup_wall_s * REFERENCE_PROBE_MS / probe_median, "s"),
            "setup_wall_s": (setup_wall_s, "s"),
            "pass_p50_ms": (statistics.median(pass_times), "ms"),
            "pass_p50_rel": (statistics.median(
                t / statistics.median(p) for t, p in zip(pass_times, probes)), "probe"),
            "pass_tail_ms": (tail_ms, "ms"),
            "jobs_per_s": ((len(timed) - len(failed)) / timed_s, "1/s"),
            "failed_frac": (len(failed) / len(timed), "ratio"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        },
        "tail_percentile": tail_pct,
        "jobs": _job_summary(jobs, passes),
        "failures": sorted({(r.label, code) for r in all_records for code in r.verdict.failures}),
        "generator_gave_up": dict(workloads.gave_up),
    }
    if tracer is not None:
        result["layers"] = _traced_metrics(tracer, jobs, passes, traced_flags, traced_ranges,
                                           len(setup_times))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{workload.name}-seed{seed}.json")
    result["defects"] = show_defects(workload)
    return result


def show_defects(workload):
    """Run each known defect's job once on its fixed inputs; untimed, not counted."""
    out = []
    for defect in workload.defects():
        (record,) = run_pass([defect.job])
        out.append({"job": defect.job.label, "shows": sorted(set(record.verdict.failures)),
                    "defect": defect.what})
    return out


def _job_summary(jobs, passes):
    out = []
    for index, job in enumerate(jobs):
        times = [recs[index].seconds * 1e3 for recs in passes]
        out.append({"label": job.label, "p50_ms": statistics.median(times),
                    "failures": sorted(set(passes[0][index].verdict.failures))})
    return out


JOB_SPANS = ("core.svd_bundle", "exact.build_spectral_work", "exact.svd_condition",
             "bounds.bounds_report", "exact.build_k_matrix", "perturb.worst_direction",
             "perturb.monte_carlo_validate", "problem.load_problem", "problem.save_problem")


def _traced_metrics(tracer, jobs, passes, traced_flags, traced_ranges, setups):
    traced = [recs for recs, flag in zip(passes, traced_flags) if flag]
    untraced = [recs for recs, flag in zip(passes, traced_flags) if not flag]
    traced_ms = [pass_ms(recs) for recs in traced]
    untraced_ms = [pass_ms(recs) for recs in untraced]
    n = len(traced)
    layers = layer_metrics(tracer.spans, n, setups, sum(traced_ms))
    verdicts = [r.verdict for recs in traced for r in recs]
    certified = sum(v.certified for v in verdicts)
    layers["exact.gated"] = (sum(v.gated for v in verdicts) / n, "count")
    layers["exact.disagree"] = (sum(v.disagree for v in verdicts) / n, "count")
    layers["bounds.enclosed_ratio"] = (
        sum(v.enclosed for v in verdicts) / certified if certified else 0.0, "ratio")
    layers["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0), "%")
    vectors = [count_vector(tracer.spans[a:b]) for a, b in traced_ranges]
    by_job = per_job(tracer.spans, JOB_SPANS, n)
    return {"metrics": layers, "traced_passes": n,
            "counts_repeat": all(v == vectors[0] for v in vectors),
            "jobs": {job.label: by_job.get(i, {}) for i, job in enumerate(jobs)}}


# --- reporting --------------------------------------------------------------

def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_result(result, trace, out):
    print(f"== {result['workload']}  seed={result['seed']}  passes={result['passes']}"
          f"  jobs={result['attempted']}  correct={result['correct']}", file=out)
    e2e = result["e2e"]
    notes = {
        "setup_s": (f"median of {len(result['setup_s_all'])} set-ups, in s at a"
                    f" {REFERENCE_PROBE_MS:g} ms probe"),
        "setup_wall_s": "the same median, wall seconds",
        "pass_p50_ms": f"median of {result['passes']} passes",
        "pass_p50_rel": (f"median over passes of the pass time / median of the"
                         f" {len(sum(result['probe_ms'], []))} probes after it"),
        "pass_tail_ms": (f"p{result['tail_percentile']:.0f}, {TAIL_BEYOND} passes beyond"
                         if result["tail_percentile"] is not None
                         else f"n/a: needs more than {TAIL_BEYOND} passes"),
        "jobs_per_s": "passing jobs per second of timed wall time",
        "failed_frac": f"{result['failed']} of {result['attempted']} jobs failed",
        "peak_rss_mib": "peak resident memory of the process",
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:14s} {_fmt(value):>12s} {unit:6s} {notes[name]}", file=out)
    for job in result["jobs"]:
        flag = "  failed: " + ", ".join(job["failures"]) if job["failures"] else ""
        print(f"    job {job['label']:32s} {job['p50_ms']:10.2f} ms{flag}", file=out)
    for label, code in result["failures"]:
        print(f"    FAILED {label}: {code}", file=out)
    for name, count in result["generator_gave_up"].items():
        print(f"    set-up: {name} gave up {count} time(s); the next derived seed was drawn",
              file=out)
    for d in result["defects"]:
        shows = "shows " + ", ".join(d["shows"]) if d["shows"] else "NOT SHOWN"
        print(f"    known defect, {d['job']}: {shows}: {d['defect']}", file=out)
    if trace:
        layers = result["layers"]
        print(f"  traced passes={layers['traced_passes']}  counts repeat exactly="
              f"{layers['counts_repeat']}", file=out)
        for name, (value, unit) in layers["metrics"].items():
            print(f"  {name:34s} {_fmt(value):>12s} {unit}", file=out)
        for label, cells in layers["jobs"].items():
            print(f"    spans of {label}:", file=out)
            for name, cell in cells.items():
                print(f"      {name:32s} {cell['ms_per_call']:10.3f} ms/call"
                      f" {cell['calls_per_pass']:6g} calls/pass", file=out)


def summary_line(results, trace):
    def pick(result):
        if trace:
            return result["layers"]["metrics"]
        return {name: result["e2e"][name] for name in END_TO_END}

    if len(results) == 1:
        metrics = pick(results[0])
    else:
        metrics = {f"{r['workload']}.{name}": vu for r in results for name, vu in pick(r).items()}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full results, with provenance, as JSON")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    warm_up()
    info = provenance(args.seed)
    info["probe_start_ms"] = statistics.median(probe_ms() for _ in range(5))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    results = []
    try:
        for name in names:
            results.append(measure(WORKLOADS[name], args.seed, args.seconds, args.trace, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["probe_end_ms"] = statistics.median(probe_ms() for _ in range(5))

    for result in results:
        print_result(result, args.trace, sys.stdout)
    print("provenance " + json.dumps(info))
    if args.out is not None:
        args.out.write_text(json.dumps({"provenance": info, "results": results}, indent=1) + "\n")
    print(summary_line(results, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
