"""Output checks for each workload, and the certified lower bound behind
``tour_gap``.

Every check returns the number of ops of one invocation that it fails,
plus messages; the output of every invocation of a run is byte-identical,
so the content is checked once and the count applies to each invocation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

from powertsp.bounds import ModelParams, deviation_constants
from powertsp.sampling import density_from_dict, sample_binomial
from powertsp.weights import make_weight_function

from workloads import BETA_ALPHAS, VERIFY_PROPERTIES, Workload

BETA_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "beta_reference.csv")


def prim_mst_weight(points: np.ndarray, wf, alpha: float) -> float:
    """Weight of the minimum spanning tree under h^alpha: O(n^2) time, O(n)
    memory.  Deleting one edge of the optimal tour leaves a spanning tree,
    so this is a lower bound on the optimal tour for any nonnegative
    weights."""
    rest = points[1:]
    best = wf.h_pairs(np.broadcast_to(points[0], rest.shape), rest) ** alpha
    total = 0.0
    while rest.shape[0]:
        j = int(np.argmin(best))
        total += float(best[j])
        joined = rest[j]
        rest = np.delete(rest, j, axis=0)
        best = np.delete(best, j)
        if rest.shape[0]:
            np.minimum(best, wf.h_pairs(np.broadcast_to(joined, rest.shape), rest) ** alpha,
                       out=best)
    return total


def _mst_bounds(cfg: dict, rows: list[dict]) -> list[float]:
    """Regenerate each trial's points exactly as the experiment drew them and
    bound its optimal tour from below."""
    density = density_from_dict(cfg["density"])
    wf = make_weight_function(cfg["weight"]["kind"])
    bounds = []
    for row in rows:
        pts = sample_binomial(density, row["n"], cfg["seed"], stream=(row["n"], row["trial"])).points
        bounds.append(prim_mst_weight(pts, wf, cfg["alpha"]))
    return bounds


def _weights_above_bounds(cfg: dict, rows: list[dict]) -> tuple[int, list[str], float]:
    bounds = _mst_bounds(cfg, rows)
    below = [(r, b) for r, b in zip(rows, bounds) if not r["weight"] >= b]
    messages = [f"n={r['n']} trial={r['trial']}: weight {r['weight']!r} below MST bound {b!r}"
                for r, b in below]
    gap = float(np.mean([r["weight"] / b for r, b in zip(rows, bounds)]))
    return len(below), messages, gap


def check_scaling(wl: Workload, cfg: dict, output: bytes):
    report = json.loads(output)
    rows = report["rows"]
    expected = cfg["trials"] * len(cfg["n_list"])
    whole = []  # failures of the report as a whole fail every op
    if len(rows) != expected:
        whole.append(f"{len(rows)} rows, expected {expected}")
    if not math.isfinite(report["slope"]):
        whole.append(f"slope {report['slope']!r} is not finite")
    failed, below, gap = _weights_above_bounds(cfg, rows)
    return (wl.ops_per_invocation() if whole else failed), whole + below, gap


def check_sandwich(wl: Workload, cfg: dict, output: bytes):
    report = json.loads(output)
    whole = []
    if report["lower_frequency"] != 1.0:
        whole.append(f"lower_frequency {report['lower_frequency']!r} != 1.0")
    if not report["upper_frequency"] >= 0.95:
        whole.append(f"upper_frequency {report['upper_frequency']!r} < 0.95")
    density = density_from_dict(cfg["density"])
    wf = make_weight_function(cfg["weight"]["kind"])
    mp = ModelParams(eps1=density.eps1, eps2=density.eps2, alpha=cfg["alpha"], c1=wf.c1, c2=wf.c2)
    c1_const, c2_const = deviation_constants(mp, report["a_effective"])
    if (report["c1_const"], report["c2_const"]) != (c1_const, c2_const):
        whole.append(f"constants {report['c1_const']!r}, {report['c2_const']!r} differ from "
                     f"deviation_constants: {c1_const!r}, {c2_const!r}")
    failed, below, gap = _weights_above_bounds(cfg, report["rows"])
    return (wl.ops_per_invocation() if whole else failed), whole + below, gap


def check_verify(wl: Workload, output: bytes):
    lines = output.decode().splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    messages = [line for line in lines if not line.startswith("PASS ")]
    if len(lines) != VERIFY_PROPERTIES:
        messages.append(f"{len(lines)} property lines, expected {VERIFY_PROPERTIES}")
        return wl.ops_per_invocation(), messages, None
    return (VERIFY_PROPERTIES - passed) * wl.instances, messages, None


def check_beta(wl: Workload, output: bytes, refine_tol: float):
    """Every CSV value agrees with the stored reference within refine_tol
    (relative for the beta values, absolute for the optimizing A)."""
    with open(BETA_REFERENCE) as fh:
        reference = list(csv.DictReader(fh))
    rows = list(csv.DictReader(io.StringIO(output.decode())))
    if len(rows) != len(BETA_ALPHAS):
        return len(BETA_ALPHAS), [f"{len(rows)} CSV rows, expected {len(BETA_ALPHAS)}"], None
    failed, messages = 0, []
    for row, ref in zip(rows, reference):
        bad = []
        for key in ("alpha", "beta_low", "beta_up", "argA_low", "argA_up"):
            got, want = float(row[key]), float(ref[key])
            scale = max(1.0, abs(want)) if key.startswith("beta") else 1.0
            if not abs(got - want) <= refine_tol * scale:
                bad.append(key)
        if bad:
            failed += 1
            messages.append(f"alpha={row['alpha']}: {', '.join(bad)} off the reference")
    return failed, messages, None


def check_output(wl: Workload, cfg: dict | None, output: bytes, refine_tol: float):
    """(failed ops per invocation, messages, tour_gap or None)."""
    if wl.name == "scaling_2opt":
        return check_scaling(wl, cfg, output)
    if wl.name == "sandwich_grid":
        return check_sandwich(wl, cfg, output)
    if wl.name == "verify_exact":
        return check_verify(wl, output)
    return check_beta(wl, output, refine_tol)
