"""One fresh benchmark process: the closed-loop client of one workload.

It sets up as a user's process would (interpreter start, ``import powertsp``,
config parse, tiling build), prints ``ready``, then calls
``powertsp.cli.main`` with the workload's argv, one invocation after the
other, either until ``--seconds`` have passed and the workload's
``min_invocations`` are done, or ``--invocations`` times.
Only the ``cli.main`` call is timed.  Afterwards it records its peak resident
set, checks the outputs and prints one JSON line.

Run by ``run.py``; its working directory is the repository root and
``src`` is on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import powertsp.cli as cli
from powertsp.experiments import ExperimentConfig, thread_count
from powertsp.geometry import build_tiling

from workloads import WORKLOADS

OUT_DIR = os.path.join("bench", "out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--label", required=True, help="names this process's output files")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0, help="measure at least this long")
    p.add_argument("--invocations", type=int, default=0, help="or run exactly this many")
    p.add_argument("--trace", action="store_true", help="record per-layer spans")
    p.add_argument("--check", action="store_true", help="check the outputs afterwards")
    return p.parse_args(argv)


def setup(wl, seed: int, config_path: str):
    """What a user's process does before its first op; returns the parsed
    CLI arguments."""
    if wl.simulate:
        with open(config_path) as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
        cfg.validate()
        for n in cfg.n_list:
            build_tiling(n, cfg.a)
    return cli.build_parser().parse_args(wl.argv(seed, config_path, "unused"))


def invoke(argv: list[str], report_path: str | None):
    """One timed ``cli.main`` call: (seconds, exit code or None, output
    bytes, error)."""
    if report_path and os.path.exists(report_path):
        os.remove(report_path)
    captured = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(captured), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        rc, error = None, repr(exc)
    seconds = time.perf_counter() - t0
    if report_path:
        try:
            with open(report_path, "rb") as fh:
                output = fh.read()
        except OSError:
            output = b""
    else:
        output = captured.getvalue().encode()
    return seconds, rc, output, error


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}")
    config_path = f"{stem}.config.json"
    parsed = setup(wl, args.seed, config_path)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import spans  # imported after "ready": set-up covers only what a user's process loads

    report_path = f"{stem}-{args.label}.report.json" if wl.simulate else None
    run_argv = wl.argv(args.seed, config_path, report_path or "")
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    invocations = []
    first_output = None
    start = time.perf_counter()
    try:
        while True:
            seconds, rc, output, error = invoke(run_argv, report_path)
            if first_output is None:
                first_output = output
            invocations.append({"seconds": seconds, "rc": rc, "error": error,
                                "digest": hashlib.sha256(output).hexdigest()})
            if args.invocations:
                if len(invocations) >= args.invocations:
                    break
            elif (len(invocations) >= wl.min_invocations
                  and time.perf_counter() - start >= args.seconds):
                break
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ops_per_invocation": wl.ops_per_invocation(),
        "invocations": invocations,
        "peak_rss_mb": peak_rss_mb,
        "workers": thread_count(),
        "numpy": np.__version__,
    }
    if args.check:
        result.update(check(wl, config_path, invocations, first_output, parsed))
    if tracer:
        result["layers"] = tracer.metrics()
        result["patch_sites"] = len(tracer.patch_sites)
        tracer.write(f"{stem}-{args.label}.spans.csv")
    print(json.dumps(result))
    return 0


def check(wl, config_path: str, invocations: list[dict], first_output: bytes,
          parsed) -> dict:
    """Failed ops over the whole run: an invocation that raised, exited
    non-zero or wrote other bytes than the first fails all its ops; the
    content checks fail their ops in every remaining invocation."""
    import checks

    ops = wl.ops_per_invocation()
    reference = invocations[0]
    sound = [inv for inv in invocations
             if inv["rc"] == 0 and inv["digest"] == reference["digest"]]
    messages = [f"invocation {i}: exit {inv['rc']} {inv['error'] or ''}".rstrip()
                for i, inv in enumerate(invocations) if inv["rc"] != 0]
    if len(sound) < len(invocations) and reference["rc"] == 0:
        messages.append("outputs differ between repeats of the same seed")
    failed_each, gap = ops, None
    if reference["rc"] == 0:
        cfg = None
        if wl.simulate:
            with open(config_path) as fh:
                cfg = json.load(fh)
        try:
            failed_each, content, gap = checks.check_output(wl, cfg, first_output,
                                                            getattr(parsed, "refine_tol", 0.0))
        except (ValueError, KeyError, TypeError) as exc:
            content = [f"output unreadable: {exc!r}"]
        messages += content
    failed = ops * (len(invocations) - len(sound)) + failed_each * len(sound)
    return {"attempted": ops * len(invocations), "failed": failed,
            "messages": messages[:20], "tour_gap": gap, "digest": reference["digest"]}


if __name__ == "__main__":
    sys.exit(main())
