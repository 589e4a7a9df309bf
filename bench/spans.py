"""Spans for the traced run: timing wrappers interposed on module attributes.

``Tracer.install`` wraps every public function defined in a tlscond layer
module and rebinds the wrapper wherever the package holds that function,
so names one module imports from another (``tlscond.perturb.svd_bundle``,
``tlscond.bounds.svd_condition``) are covered too. It also wraps the LAPACK
entry points ``numpy.linalg.svd`` and ``scipy.linalg.cholesky``; those
kernel spans record the module that called them and are not subtracted
from their parent's self time.

A function that a layer no longer has is simply not wrapped: its metrics
read 0 calls. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "exact", "bounds", "perturb", "generators", "problem", "cli")
KERNELS = (("numpy.linalg", "svd"), ("scipy.linalg", "cholesky"))
# Spans whose peak allocation (tracemalloc, numpy arrays included) is recorded.
PEAK_SPANS = frozenset({"exact.build_k_matrix", "perturb.worst_direction"})
# Problem IO: the position of the path argument, and whether the file is read.
IO_SPANS = {
    "problem.load_problem": (0, True),
    "problem.load_report": (0, True),
    "problem.save_problem": (1, False),
    "problem.save_report": (1, False),
}
MIB = 2.0**20

NAME, START, END, PARENT, JOB, PHASE, EXTRA = range(7)


class Tracer:
    def __init__(self, package: str = "tlscond"):
        self.package = package
        self.spans = []         # [name, start, end, parent, job, phase, extra]
        self.active = False
        self.job = None
        self.phase = None
        self._stack = []
        self._patches = []      # (owner, attribute, original)

    # --- interposition ---------------------------------------------------

    def install(self) -> None:
        wrappers = {}           # id(original) -> (original, wrapper)
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        owners = [mod for name, mod in list(sys.modules.items())
                  if name == self.package or name.startswith(self.package + ".")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(owner, attr, hit[1])
        for module_name, attr in KERNELS:
            owner = importlib.import_module(module_name)
            fn = getattr(owner, attr, None)
            if fn is not None:
                self._patch(owner, attr, self._wrap(f"kernel.{attr}", fn, kernel=True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, kernel=False):
        peak = name in PEAK_SPANS
        io_arg = IO_SPANS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            extra = None
            if kernel:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                extra = caller.rsplit(".", 1)[-1] if caller.startswith(self.package) else "other"
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.job, self.phase, extra]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            measure_peak = peak and not tracemalloc.is_tracing()
            if measure_peak:
                tracemalloc.start()
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
                if measure_peak:
                    span[EXTRA] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if io_arg is not None:
                    span[EXTRA] = _file_size(args, kwargs, io_arg[0])

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "phase", "extra"],
                       "spans": self.spans}, fh)


def _file_size(args, kwargs, position):
    path = args[position] if len(args) > position else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def self_times(spans):
    """Duration minus the direct non-kernel children, per span index."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0 and not s[NAME].startswith("kernel."):
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _under(spans, index, name):
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def count_vector(spans) -> dict:
    """Calls per span name, kernels per calling layer."""
    counts = defaultdict(int)
    for s in spans:
        counts[s[NAME] if not s[NAME].startswith("kernel.") else f"{s[NAME]}@{s[EXTRA]}"] += 1
    return dict(counts)


def layer_metrics(spans, passes: int, setups: int, pass_ms: float) -> dict:
    """Per-layer metrics: per pass, except generators.*.

    ``generators.generate.ms`` is per set-up (every draw, phases "setup" and
    "inputs"); ``generators.kernel_svd.calls`` counts the SVDs of the set-up
    that built the run's own inputs (phase "inputs"), so it repeats exactly.

    A ``<layer>.<function>.ms`` metric is the function's inclusive time;
    ``perturb.monte_carlo_validate.ms`` and ``cli.main.self_ms`` are self
    time, since everything else the validator and the CLI do is measured
    by the spans below them.

    ``pass_ms`` is the traced passes' total job time; the layer shares are
    self time over it, and ``untraced`` is what no span covers (the
    benchmark's own glue and code outside the wrapped functions).
    """
    own = self_times(spans)
    ms = defaultdict(float)        # self ms per name, traced passes
    incl = defaultdict(float)      # inclusive ms per name
    calls = defaultdict(int)
    peak = defaultdict(float)
    io_bytes = {True: 0, False: 0}
    svd_calls = defaultdict(int)   # LAPACK SVDs per calling layer
    resolve_calls, resolve_ms = 0, 0.0
    gen_ms, gen_svd = 0.0, 0       # generation is set-up work
    for i, s in enumerate(spans):
        name = s[NAME]
        if s[PHASE] in ("setup", "inputs"):
            if name in ("generators.generate_ab_alpha", "generators.kamm_nagy_problem"):
                gen_ms += (s[END] - s[START]) * 1e3  # inclusive: what set-up pays
            elif name == "kernel.svd" and s[PHASE] == "inputs" and (
                    _under(spans, i, "generators.generate_ab_alpha")
                    or _under(spans, i, "generators.kamm_nagy_problem")):
                gen_svd += 1
            continue
        if s[PHASE] != "pass":
            continue
        calls[name] += 1
        ms[name] += own[i] * 1e3
        incl[name] += (s[END] - s[START]) * 1e3
        if name == "kernel.svd":
            svd_calls[s[EXTRA]] += 1
        if name in PEAK_SPANS:
            peak[name] = max(peak[name], (s[EXTRA] or 0) / MIB)
        if name in IO_SPANS:
            io_bytes[IO_SPANS[name][1]] += s[EXTRA]
        if name in ("core.svd_bundle", "core.solve_tls") and _under(
                spans, i, "perturb.monte_carlo_validate"):
            resolve_ms += (s[END] - s[START]) * 1e3
            resolve_calls += name == "core.svd_bundle"

    def per_pass(value):
        return value / passes

    out = {}
    for name in ("core.svd_bundle", "core.solve_tls", "exact.build_spectral_work",
                 "exact.build_k_matrix", "exact.svd_condition", "exact.cholesky_condition",
                 "exact.baboulin_condition", "exact.kron_condition", "bounds.bounds_report",
                 "perturb.worst_direction",
                 "problem.load_problem", "problem.save_problem", "problem.save_report"):
        out[f"{name}.ms"] = (per_pass(incl[name]), "ms")
    out["perturb.monte_carlo_validate.ms"] = (per_pass(ms["perturb.monte_carlo_validate"]), "ms")
    for name in ("core.svd_bundle", "exact.svd_condition"):
        out[f"{name}.calls"] = (per_pass(calls[name]), "count")
    for name in PEAK_SPANS:
        out[f"{name}.peak_mib"] = (peak[name], "MiB")
    out["cli.main.self_ms"] = (per_pass(ms["cli.main"]), "ms")
    out["perturb.resolve.calls"] = (per_pass(resolve_calls), "count")
    out["perturb.resolve.ms"] = (per_pass(resolve_ms), "ms")
    out["generators.generate.ms"] = (gen_ms / setups, "ms")
    out["generators.kernel_svd.calls"] = (gen_svd, "count")
    out["problem.mb_read"] = (per_pass(io_bytes[True]) / 1e6, "MB")
    out["problem.mb_written"] = (per_pass(io_bytes[False]) / 1e6, "MB")
    for layer in LAYERS:
        out[f"kernel.svd.calls.{layer}"] = (per_pass(svd_calls[layer]), "count")
    out["kernel.svd.ms"] = (per_pass(ms["kernel.svd"]), "ms")
    out["kernel.cholesky.calls"] = (per_pass(calls["kernel.cholesky"]), "count")
    covered = 0.0
    for layer in LAYERS:
        layer_ms = sum(v for k, v in ms.items() if k.split(".", 1)[0] == layer)
        covered += layer_ms
        out[f"share.{layer}"] = (100.0 * layer_ms / pass_ms, "%")
    out["share.untraced"] = (100.0 * (pass_ms - covered) / pass_ms, "%")
    return out


def per_job(spans, names, passes: int) -> dict:
    """Inclusive ms per call and calls per pass of ``names``, for each job index."""
    cells = defaultdict(lambda: [0.0, 0])
    for s in spans:
        if s[PHASE] == "pass" and s[NAME] in names:
            cell = cells[(s[JOB], s[NAME])]
            cell[0] += (s[END] - s[START]) * 1e3
            cell[1] += 1
    table = defaultdict(dict)
    for (job, name), (ms, calls) in cells.items():
        table[job][name] = {"ms_per_call": ms / calls, "calls_per_pass": calls / passes}
    return dict(table)
