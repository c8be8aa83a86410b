"""The powertsp benchmark: one workload per call, run through
``powertsp.cli.main`` with the argv a user would type.

    python3 bench/run.py --workload scaling_2opt --seed 1 --seconds 15 --trace 0

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes one untraced pass, one traced pass that wraps
the program's public functions from outside, and, on the simulate workloads,
an informational serial pass with ``POWERTSP_THREADS=1``, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.

Each pass is a fresh process (``worker.py``), a closed loop with one client
that repeats whole ``cli.main`` invocations for at least ``--seconds`` and
at least the workload's ``min_invocations``.  Inputs derive from ``--seed``
alone; files go to ``bench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from workloads import DEFAULT_SEED, WORKLOADS

SETUP_PROBES_BEFORE = 5
SETUP_PROBES_AFTER = 4
WORKER_TIMEOUT_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("bench", "out")
# Unit of a metric, by the last dotted part of its name.
UNITS = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB", "tour_gap": "ratio",
         "calls": "count", "self_s": "s", "wait_s": "s", "p50_ms": "ms", "tail_ms": "ms",
         "tail_pct": "%", "bytes": "bytes", "table_bytes": "bytes", "gain": "ratio",
         "overhead": "ratio"}
TOUR_GAP_UNDEFINED = 1.0


class BenchError(Exception):
    pass


@dataclass
class Outcome:
    first_pass: dict  # the checked pass, which also supplies the provenance
    metrics: dict
    lines: list[str]
    attempted: int
    failed: int
    messages: list[str]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="powertsp benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker_env(threads: str | None) -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("POWERTSP_THREADS", None)
    if threads is not None:
        env["POWERTSP_THREADS"] = threads
    return env


def spawn(workload: str, seed: int, label: str, extra: list[str], *, deadline: float,
          threads: str | None = None):
    """Run one worker; returns (seconds from spawn to ready, result dict or
    None for a setup-only probe)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--label", label] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker_env(threads), text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {label} ran past the time limit")
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {label} failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    if "--setup-only" in extra:
        return ready_s, None
    return ready_s, json.loads(out.strip().splitlines()[-1])


def ops_per_s(result: dict) -> float:
    ops = result["ops_per_invocation"]
    return statistics.median(ops / inv["seconds"] for inv in result["invocations"])


def pass_seconds(result: dict) -> float:
    return sum(inv["seconds"] for inv in result["invocations"])


def digest_failures(result: dict, digest: str) -> tuple[int, int]:
    """(attempted, failed) of a pass whose outputs must equal ``digest``."""
    ops = result["ops_per_invocation"]
    bad = sum(1 for inv in result["invocations"] if inv["rc"] != 0 or inv["digest"] != digest)
    return ops * len(result["invocations"]), ops * bad


def git_rev() -> str:
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join("src", "powertsp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3") and kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def provenance(result: dict) -> dict:
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "workers": result["workers"],
        "caches": cache_sizes(),
        "loop": "closed, 1 client",
    }


def measure(args, wl, deadline: float):
    """--trace 0: setup probes, then one time-boxed, checked pass."""
    def probe(i: int) -> float:
        return spawn(wl.name, args.seed, f"probe{i}", ["--setup-only"], deadline=deadline)[0]

    # Probes before and after the measured pass, so the median spans the run.
    samples = [probe(i) for i in range(SETUP_PROBES_BEFORE)]
    ready_s, result = spawn(wl.name, args.seed, "measure",
                            ["--seconds", str(args.seconds), "--check"], deadline=deadline)
    samples.append(ready_s)
    samples += [probe(SETUP_PROBES_BEFORE + i) for i in range(SETUP_PROBES_AFTER)]
    gap = result["tour_gap"]
    metrics = {
        "ops_per_s": ops_per_s(result),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "tour_gap": gap if gap is not None else TOUR_GAP_UNDEFINED,
    }
    lines = [
        f"ops_per_s {metrics['ops_per_s']:.6g} ops/s  (op = one {wl.op_unit}; "
        f"median over {len(result['invocations'])} invocations of "
        f"{result['ops_per_invocation']} ops)",
        f"setup_s {metrics['setup_s']:.6g} s  (median of {len(samples)} fresh processes)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB  (ru_maxrss of the measured process)",
        f"tour_gap {gap:.6g} ratio  (mean tour weight / Prim MST bound)" if gap is not None else
        f"tour_gap not defined on {wl.name}: no tours reported; "
        f"carried as {TOUR_GAP_UNDEFINED} so every workload has every metric",
        f"fail_rate {result['failed'] / result['attempted']:.6g} ratio  "
        f"({result['failed']} of {result['attempted']} ops; the result's failed/attempted)",
    ]
    return Outcome(result, metrics, lines, result["attempted"], result["failed"],
                   result["messages"])


def trace_layers(args, wl, deadline: float):
    """--trace 1: untraced, traced and (simulate only) serial passes of the
    same fixed work."""
    count = ["--invocations", "1"]
    _, plain = spawn(wl.name, args.seed, "untraced", count + ["--check"], deadline=deadline)
    _, traced = spawn(wl.name, args.seed, "traced", count + ["--trace"], deadline=deadline)
    attempted, failed = plain["attempted"], plain["failed"]
    att, bad = digest_failures(traced, plain["digest"])
    attempted, failed = attempted + att, failed + bad
    messages = list(plain["messages"])
    if bad:
        messages.append("traced outputs differ from the untraced outputs")
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = pass_seconds(traced) / pass_seconds(plain) - 1.0
    metrics["pool.ops_per_s"] = ops_per_s(plain)
    metrics["pool.peak_rss_mb"] = plain["peak_rss_mb"]
    metrics["serial.ops_per_s"] = 0.0
    metrics["serial.peak_rss_mb"] = 0.0
    lines = [f"traced pass: {traced['patch_sites']} lookup sites wrapped; outputs "
             f"{'byte-identical to' if not bad else 'DIFFER from'} the untraced pass"]
    if wl.simulate:
        _, serial = spawn(wl.name, args.seed, "serial", count, threads="1", deadline=deadline)
        att, bad = digest_failures(serial, plain["digest"])
        attempted, failed = attempted + att, failed + bad
        if bad:
            messages.append("serial outputs differ from the thread-pool outputs")
        metrics["serial.ops_per_s"] = ops_per_s(serial)
        metrics["serial.peak_rss_mb"] = serial["peak_rss_mb"]
        lines.append(f"serial pass (POWERTSP_THREADS=1, informational): "
                     f"{metrics['serial.ops_per_s']:.6g} ops/s, "
                     f"{metrics['serial.peak_rss_mb']:.6g} MB; default pool "
                     f"({plain['workers']} workers): {metrics['pool.ops_per_s']:.6g} ops/s, "
                     f"{metrics['pool.peak_rss_mb']:.6g} MB")
    else:
        lines.append("serial.* reported as 0: this path runs no thread pool")
    lines.append("weights.weight_matrix.bytes and solvers.tsp_exact.table_bytes are computed "
                 "from sizes (8n^2, 8n2^n), not measured")
    return Outcome(plain, metrics, lines, attempted, failed, messages)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "powertsp", "__init__.py")):
        print("error: run from the repository root; src/powertsp is missing", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    if wl.simulate:
        with open(os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}.config.json"), "w") as fh:
            json.dump(wl.seeded_config(args.seed), fh, indent=2, sort_keys=True)
    try:
        run = trace_layers if args.trace else measure
        out = run(args, wl, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# workload {wl.name} seed {args.seed}: {wl.why}")
    print(f"# provenance {json.dumps(provenance(out.first_pass), sort_keys=True)}")
    for line in out.lines:
        print(f"# {line}")
    for message in out.messages:
        print(f"# CHECK FAILED: {message}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[-1]]}
                    for name, value in out.metrics.items()},
    }))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
