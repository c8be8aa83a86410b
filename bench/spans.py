"""Per-layer spans recorded from outside the program.

Each traced public function is replaced, for the length of a traced pass, at
every place a caller looks it up: the attribute of its own module (for
intra-module calls such as ``bounds.geometric_moment``), the attribute of
every powertsp module that imported it by name (``experiments.grid_tour``,
``invariants.tsp_exact``, ``cli.beta_bounds`` ...), and any module-level
dict that holds it (``experiments.RUNNERS``, which ``cli`` reads).  The
thread pool class is swapped the same way for one that carries the current
span into worker threads, so trial spans keep their causing span.

Spans stay in memory as (id, parent, name, thread, start, end, thread CPU)
and are written out once, after the pass.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

TRACED = (
    "cli.main",
    "experiments.run_scaling",
    "experiments.run_sandwich",
    "experiments.write_report",
    "invariants.run_invariant_suite",
    "sampling.sample_binomial",
    "geometry.build_tiling",
    "geometry.cell_index_array",
    "weights.weight_matrix",
    "weights.edge_weight_pairs",
    "solvers.grid_tour",
    "solvers.two_opt",
    "solvers.tour_weight",
    "solvers.tsp_exact",
    "solvers.tsp_bruteforce",
    "bounds.beta_bounds",
    "bounds.deviation_constants",
    "bounds.geometric_moment",
)

# Functions that run once per trial, case or series: these also get latency
# percentiles.
PER_OP = (
    "sampling.sample_binomial",
    "solvers.grid_tour",
    "solvers.two_opt",
    "solvers.tsp_exact",
    "bounds.geometric_moment",
)

TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def _two_opt_weights(args, kwargs, result):
    tour = args[1] if len(args) > 1 else kwargs["tour"]
    return {"in_weight": tour.weight, "out_weight": result.weight}


# Quantities read off a call's arguments or result, for the derived metrics.
PROBES = {
    "weights.weight_matrix": lambda args, kwargs, result: {"bytes": 8 * result.shape[0] ** 2},
    "solvers.tsp_exact": lambda args, kwargs, result: {
        "table_bytes": 8 * len(result.order) * 2 ** len(result.order)},
    "solvers.two_opt": _two_opt_weights,
}


class _ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Wraps the TRACED functions between ``install`` and ``restore`` and
    turns the recorded spans into per-layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.probed: list[tuple[str, dict]] = []
        self.patch_sites: list[str] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("bench_span", default=0)
        self._undo: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, probed, ids, current = self.spans, self.probed, self._ids, self._current
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                current.reset(token)
                spans.append((sid, parent, name, threading.get_ident(), t0, t1, c1 - c0))
            if probe is not None:
                probed.append((name, probe(args, kwargs, result)))
            return result

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every powertsp module attribute, and every value of a
        module-level dict, that holds ``original`` at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "powertsp" or mod_name.startswith("powertsp.")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, attr, original))
                    namespace[attr] = replacement
                    self.patch_sites.append(f"{mod_name}.{attr}")
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = replacement
                            self.patch_sites.append(f"{mod_name}.{attr}[{key!r}]")

    def install(self) -> None:
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"powertsp.{mod_name}"), fn_name)
            self._replace_everywhere(original, self._wrap(name, original))
        self._replace_everywhere(ThreadPoolExecutor, _ContextThreadPool)

    def restore(self) -> None:
        while self._undo:
            container, key, original = self._undo.pop()
            container[key] = original

    def metrics(self) -> dict[str, float]:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, parent, _name, _thread, start, end, _cpu in self.spans:
            children[parent].append((start, end))
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        wait_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for sid, _parent, name, _thread, start, end, cpu in self.spans:
            wall = end - start
            calls[name] += 1
            self_s[name] += wall - _covered(children.get(sid, ()), start, end)
            wait_s[name] += wall - cpu  # not clamped: CPU-bound calls sum to about 0
            durations[name].append(wall)
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.wait_s"] = wait_s[name]
            if name in PER_OP:
                p50, tail, pct = _latency(durations[name])
                out[f"{name}.p50_ms"] = p50
                out[f"{name}.tail_ms"] = tail
                out[f"{name}.tail_pct"] = pct
        sums: dict[str, float] = defaultdict(float)
        for name, values in self.probed:
            for key, value in values.items():
                sums[f"{name}.{key}"] += value
        out["weights.weight_matrix.bytes"] = sums["weights.weight_matrix.bytes"]
        out["solvers.tsp_exact.table_bytes"] = sums["solvers.tsp_exact.table_bytes"]
        grid = sums["solvers.two_opt.in_weight"]
        out["solvers.two_opt.gain"] = 1.0 - sums["solvers.two_opt.out_weight"] / grid if grid else 0.0
        return out

    def write(self, path: str) -> None:
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,parent,name,thread,start_s,end_s,thread_cpu_s\n")
            for sid, parent, name, thread, start, end, cpu in self.spans:
                fh.write(f"{sid},{parent},{name},{thread},{start - origin:.9f},"
                         f"{end - origin:.9f},{cpu:.9f}\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _latency(durations: list[float]) -> tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile): the tail is the highest ladder
    percentile with at least ten calls beyond it, (0, 0) when none has."""
    if not durations:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)

    def rank(pct: float) -> int:  # nearest-rank percentile, 1-based
        return max(1, math.ceil(pct / 100.0 * n))

    p50 = ordered[rank(50.0) - 1] * 1e3
    for pct in TAIL_LADDER:
        if n - rank(pct) >= TAIL_MIN_BEYOND:
            return p50, ordered[rank(pct) - 1] * 1e3, pct
    return p50, 0.0, 0.0
