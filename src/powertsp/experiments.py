"""Monte Carlo drivers confronting the scaling laws and inequalities with
simulation at desk scale, plus deterministic report persistence.

Every trial draws its points from a Philox stream keyed by
(seed, n, trial), and aggregation runs in a fixed order, so a report is
byte-identical no matter how many worker threads execute the trials
(POWERTSP_THREADS, 0 = auto).  Reports embed their full config and the
solver label of every number they carry.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import ModelParams, beta_bounds, deviation_constants
from .geometry import Tiling, build_tiling
from .sampling import RNG_NAME, density_from_dict, sample_binomial
from .solvers import grid_tour, tsp_exact, two_opt
from .weights import BUILTIN_KINDS, WeightFunction, make_weight_function

THREADS_ENV = "POWERTSP_THREADS"
HEURISTICS = ("grid_tour", "grid_tour+two_opt")
ALMOST_SURE_ALPHA_LIMIT = 2.0 * (math.sqrt(2.0) - 1.0)
_REQUIRED_CONFIG_KEYS = ("weight", "alpha", "density", "n_list", "trials", "seed", "a")


class ReportIOError(OSError):
    """Report read/write failure, annotated with the offending path."""


@dataclass(frozen=True)
class SolverPolicy:
    """Exact below a size threshold, a named heuristic from there on."""

    exact_below: int = 0
    heuristic: str = "grid_tour"


@dataclass(frozen=True)
class ExperimentConfig:
    weight: dict
    alpha: float
    density: dict
    n_list: tuple[int, ...]
    trials: int
    seed: int
    a: float
    policy: SolverPolicy = SolverPolicy()
    slack: float = 0.10

    def validate(self) -> None:
        if self.weight.get("kind") not in BUILTIN_KINDS:
            raise ValueError(f"experiment configs support weight kinds {BUILTIN_KINDS}")
        if not (0.0 < self.alpha < math.inf):
            raise ValueError("alpha must be positive and finite")
        for key in ("eps1", "eps2"):
            if not math.isfinite(float(self.density.get(key, 1.0))):
                raise ValueError(f"density {key} must be finite")
        if not self.n_list:
            raise ValueError("n_list must be non-empty")
        if self.n_list[0] < 2:
            raise ValueError("instance sizes must be >= 2 (a tour needs two nodes)")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("n_list must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.a <= 0.0:
            raise ValueError("tiling parameter a must be positive")
        if self.policy.heuristic not in HEURISTICS:
            raise ValueError(f"heuristic must be one of {HEURISTICS}")
        if not (0 <= self.policy.exact_below <= 19):
            raise ValueError("exact_below must lie in 0..19 (exact solver caps at 18 nodes)")
        if self.slack < 0.0:
            raise ValueError("slack must be non-negative")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_list"] = list(self.n_list)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        missing = [key for key in _REQUIRED_CONFIG_KEYS if key not in d]
        if missing:
            raise ValueError(f"experiment config is missing key(s) {', '.join(missing)}")
        policy = d.get("policy", {})
        return cls(
            weight=dict(d["weight"]),
            alpha=float(d["alpha"]),
            density=dict(d["density"]),
            n_list=tuple(int(n) for n in d["n_list"]),
            trials=int(d["trials"]),
            seed=int(d["seed"]),
            a=float(d["a"]),
            policy=SolverPolicy(
                exact_below=int(policy.get("exact_below", 0)),
                heuristic=str(policy.get("heuristic", "grid_tour")),
            ),
            slack=float(d.get("slack", 0.10)),
        )


@dataclass(frozen=True)
class TrialRow:
    n: int
    trial: int
    weight: float
    solver: str
    seed_stream: str


@dataclass(frozen=True)
class ScalingPerN:
    n: int
    mean: float
    variance: float
    std_error: float
    normalized_mean: float
    normalized_variance: float
    solver: str
    within_window: bool


@dataclass(frozen=True)
class VariancePerN:
    n: int
    mean: float
    variance: float
    jackknife_se: float
    solver: str


@dataclass(frozen=True)
class TraceRow:
    n: int
    trial: int
    centered: float


@dataclass(frozen=True)
class UniformRatioPerN:
    n: int
    mean: float
    normalized_mean: float
    solver: str


def _rows_from(d: dict) -> list[TrialRow]:
    return [TrialRow(**r) for r in d["rows"]]


@dataclass(frozen=True)
class ScalingReport:
    config: dict
    rng: str
    per_n: list[ScalingPerN]
    slope: float
    intercept: float
    slope_half_width: float | None
    bracket_lower: float
    bracket_upper: float
    rows: list[TrialRow]
    kind: str = "scaling"

    @classmethod
    def from_dict(cls, d: dict) -> "ScalingReport":
        return cls(
            config=d["config"], rng=d["rng"],
            per_n=[ScalingPerN(**p) for p in d["per_n"]],
            slope=d["slope"], intercept=d["intercept"],
            slope_half_width=d["slope_half_width"],
            bracket_lower=d["bracket_lower"], bracket_upper=d["bracket_upper"],
            rows=_rows_from(d),
        )


@dataclass(frozen=True)
class SandwichReport:
    config: dict
    rng: str
    n: int
    a_effective: float
    c1_const: float
    c2_const: float
    lower_threshold: float
    upper_threshold: float
    lower_frequency: float
    upper_frequency: float
    solver: str
    rows: list[TrialRow]
    kind: str = "sandwich"

    @classmethod
    def from_dict(cls, d: dict) -> "SandwichReport":
        return cls(
            config=d["config"], rng=d["rng"], n=d["n"], a_effective=d["a_effective"],
            c1_const=d["c1_const"], c2_const=d["c2_const"],
            lower_threshold=d["lower_threshold"], upper_threshold=d["upper_threshold"],
            lower_frequency=d["lower_frequency"], upper_frequency=d["upper_frequency"],
            solver=d["solver"], rows=_rows_from(d),
        )


@dataclass(frozen=True)
class VarianceReport:
    config: dict
    rng: str
    per_n: list[VariancePerN]
    slope: float | None
    predicted_exponent: float | None
    informational: bool
    rows: list[TrialRow]
    kind: str = "variance"

    @classmethod
    def from_dict(cls, d: dict) -> "VarianceReport":
        return cls(
            config=d["config"], rng=d["rng"],
            per_n=[VariancePerN(**p) for p in d["per_n"]],
            slope=d["slope"], predicted_exponent=d["predicted_exponent"],
            informational=d["informational"], rows=_rows_from(d),
        )


@dataclass(frozen=True)
class ConvergenceReport:
    config: dict
    rng: str
    max_abs_centered: list[list]
    trace: list[TraceRow]
    trend_decreasing: bool | None
    hypothesis_small_alpha: bool
    rows: list[TrialRow]
    kind: str = "convergence"

    @classmethod
    def from_dict(cls, d: dict) -> "ConvergenceReport":
        return cls(
            config=d["config"], rng=d["rng"],
            max_abs_centered=[list(e) for e in d["max_abs_centered"]],
            trace=[TraceRow(**t) for t in d["trace"]],
            trend_decreasing=d["trend_decreasing"],
            hypothesis_small_alpha=d["hypothesis_small_alpha"],
            rows=_rows_from(d),
        )


@dataclass(frozen=True)
class UniformRatioReport:
    config: dict
    rng: str
    per_n: list[UniformRatioPerN]
    ratio: float
    h0: float
    bound: float
    within_bound: bool
    rows: list[TrialRow]
    kind: str = "uniform_ratio"

    @classmethod
    def from_dict(cls, d: dict) -> "UniformRatioReport":
        return cls(
            config=d["config"], rng=d["rng"],
            per_n=[UniformRatioPerN(**p) for p in d["per_n"]],
            ratio=d["ratio"], h0=d["h0"], bound=d["bound"],
            within_bound=d["within_bound"], rows=_rows_from(d),
        )


REPORT_KINDS = {
    "scaling": ScalingReport,
    "sandwich": SandwichReport,
    "variance": VarianceReport,
    "convergence": ConvergenceReport,
    "uniform_ratio": UniformRatioReport,
}


def report_from_dict(d: dict):
    kind = d.get("kind")
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    return REPORT_KINDS[kind].from_dict(d)


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if val < 0:
        raise ValueError(f"{THREADS_ENV} must be >= 0")
    return val if val > 0 else (os.cpu_count() or 1)


def _map_ordered(task, keys):
    """Apply task over keys, preserving order regardless of parallelism."""
    workers = thread_count()
    if workers <= 1 or len(keys) <= 1:
        return [task(k) for k in keys]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, keys))


def _solver_label(policy: SolverPolicy, n: int) -> str:
    return "exact" if n < policy.exact_below else policy.heuristic


def _solve_trial(cfg: ExperimentConfig, wf: WeightFunction, density, tiling: Tiling,
                 n: int, trial: int) -> TrialRow:
    pts = sample_binomial(density, n, cfg.seed, stream=(n, trial)).points
    label = _solver_label(cfg.policy, n)
    if label == "exact":
        tour = tsp_exact(pts, wf, cfg.alpha)
    else:
        tour = grid_tour(pts, wf, cfg.alpha, tiling)
        if cfg.policy.heuristic == "grid_tour+two_opt":
            tour = two_opt(pts, tour, wf, cfg.alpha)
    return TrialRow(n=n, trial=trial, weight=tour.weight, solver=label,
                    seed_stream=f"{cfg.seed}:{n}:{trial}")


def _collect(cfg: ExperimentConfig, wf: WeightFunction, density, n: int) -> list[TrialRow]:
    tiling = build_tiling(n, cfg.a)
    return _map_ordered(
        lambda trial: _solve_trial(cfg, wf, density, tiling, n, trial),
        list(range(cfg.trials)),
    )


def _prepare(cfg: ExperimentConfig):
    cfg.validate()
    wf = make_weight_function(cfg.weight["kind"])
    density = density_from_dict(cfg.density)
    return wf, density


def run_scaling(cfg: ExperimentConfig) -> ScalingReport:
    """Mean tour weight per instance size with a log-log slope fit and the
    theoretical bracket on the normalized mean."""
    wf, density = _prepare(cfg)
    if len(cfg.n_list) < 2:
        raise ValueError("the scaling slope needs at least two instance sizes")
    per_n: list[ScalingPerN] = []
    rows: list[TrialRow] = []
    for n in cfg.n_list:
        batch = _collect(cfg, wf, density, n)
        rows.extend(batch)
        w = np.array([r.weight for r in batch])
        mean = float(w.mean())
        var = float(w.var(ddof=1)) if len(w) > 1 else 0.0
        per_n.append(ScalingPerN(
            n=n, mean=mean, variance=var,
            std_error=math.sqrt(var / len(w)),
            normalized_mean=mean / n ** (1.0 - cfg.alpha / 2.0),
            normalized_variance=var / n ** (1.0 - cfg.alpha),
            solver=_solver_label(cfg.policy, n),
            within_window=build_tiling(n, cfg.a).within_window,
        ))
    x = np.log([p.n for p in per_n])
    y = np.log([p.mean for p in per_n])
    slope, intercept = np.polyfit(x, y, 1)
    half_width = None
    if len(x) > 2:
        resid = y - (slope * x + intercept)
        sxx = float(np.sum((x - x.mean()) ** 2))
        se = math.sqrt(float(np.sum(resid**2)) / (len(x) - 2) / sxx)
        half_width = 1.96 * se
    eps1, eps2 = density.eps1, density.eps2
    low, up = beta_bounds(cfg.alpha, eps1, eps2)
    return ScalingReport(
        config=cfg.to_dict(), rng=RNG_NAME, per_n=per_n,
        slope=float(slope), intercept=float(intercept), slope_half_width=half_width,
        bracket_lower=wf.c1**cfg.alpha * low.value,
        bracket_upper=wf.c2**cfg.alpha * up.value,
        rows=rows,
    )


def run_sandwich(cfg: ExperimentConfig) -> SandwichReport:
    """Per-trial frequencies of the two-sided deviation bounds on the tour
    weight at a single instance size."""
    wf, density = _prepare(cfg)
    if len(cfg.n_list) != 1:
        raise ValueError("the sandwich experiment takes exactly one instance size")
    n = cfg.n_list[0]
    tiling = build_tiling(n, cfg.a)
    a_eff = tiling.a_effective
    mp = ModelParams(eps1=density.eps1, eps2=density.eps2, alpha=cfg.alpha,
                     c1=wf.c1, c2=wf.c2)
    c1_const, c2_const = deviation_constants(mp, a_eff)
    rate = n ** (1.0 - cfg.alpha / 2.0)
    lower = c1_const * rate * (1.0 - 4.0 * math.sqrt(a_eff) / n**0.25)
    upper = c2_const * rate * (1.0 + 2.0 / n ** (1.0 / 16.0))
    rows = _collect(cfg, wf, density, n)
    w = np.array([r.weight for r in rows])
    return SandwichReport(
        config=cfg.to_dict(), rng=RNG_NAME, n=n, a_effective=a_eff,
        c1_const=c1_const, c2_const=c2_const,
        lower_threshold=lower, upper_threshold=upper,
        lower_frequency=float(np.mean(w >= lower)),
        upper_frequency=float(np.mean(w <= upper)),
        solver=_solver_label(cfg.policy, n),
        rows=rows,
    )


def run_variance(cfg: ExperimentConfig) -> VarianceReport:
    """Sample variance of the solved weight per size with jackknife standard
    errors and the log-log variance slope."""
    wf, density = _prepare(cfg)
    if cfg.trials < 100:
        raise ValueError("variance estimation needs at least 100 trials")
    per_n: list[VariancePerN] = []
    rows: list[TrialRow] = []
    for n in cfg.n_list:
        batch = _collect(cfg, wf, density, n)
        rows.extend(batch)
        w = np.array([r.weight for r in batch])
        t = len(w)
        s1, s2 = w.sum(), (w**2).sum()
        loo = (s2 - w**2 - (s1 - w) ** 2 / (t - 1)) / (t - 2)
        se = math.sqrt((t - 1) / t * float(np.sum((loo - loo.mean()) ** 2)))
        per_n.append(VariancePerN(
            n=n, mean=float(w.mean()), variance=float(w.var(ddof=1)),
            jackknife_se=se, solver=_solver_label(cfg.policy, n),
        ))
    slope = None
    if len(per_n) >= 2:
        x = np.log([p.n for p in per_n])
        y = np.log([max(p.variance, 1e-300) for p in per_n])
        slope = float(np.polyfit(x, y, 1)[0])
    predicted = 1.0 - cfg.alpha if cfg.alpha < 1.0 else None
    informational = not (cfg.alpha < 1.0 and cfg.trials >= 1000)
    return VarianceReport(
        config=cfg.to_dict(), rng=RNG_NAME, per_n=per_n, slope=slope,
        predicted_exponent=predicted, informational=informational, rows=rows,
    )


def run_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """Centered, rate-normalized weight traces per trial and size; the
    summary tracks whether the max deviation shrinks over the last sizes."""
    wf, density = _prepare(cfg)
    rows: list[TrialRow] = []
    trace: list[TraceRow] = []
    maxima: list[list] = []
    for n in cfg.n_list:
        batch = _collect(cfg, wf, density, n)
        rows.extend(batch)
        w = np.array([r.weight for r in batch])
        centered = (w - w.mean()) / n ** (1.0 - cfg.alpha / 2.0)
        trace.extend(TraceRow(n=n, trial=r.trial, centered=float(c))
                     for r, c in zip(batch, centered))
        maxima.append([n, float(np.max(np.abs(centered)))])
    trend = None
    if len(maxima) >= 3:
        last = [m[1] for m in maxima[-3:]]
        trend = last[0] > last[1] > last[2]
    return ConvergenceReport(
        config=cfg.to_dict(), rng=RNG_NAME,
        max_abs_centered=maxima, trace=trace, trend_decreasing=trend,
        hypothesis_small_alpha=cfg.alpha < ALMOST_SURE_ALPHA_LIMIT,
        rows=rows,
    )


def run_uniform_ratio(cfg: ExperimentConfig) -> UniformRatioReport:
    """Spread of the normalized mean weight across sizes against the shift
    bound h0^alpha, for uniform nodes and shift-bounded linear weights."""
    wf, density = _prepare(cfg)
    if cfg.density.get("kind") != "uniform":
        raise ValueError("the uniform-ratio experiment requires the uniform density")
    if wf.h0 is None or not wf.scale_invariant:
        raise ValueError(f"weight kind {wf.kind!r} lacks the scaling/shift properties "
                         "(declared h0 and linear scaling) this experiment needs")
    per_n: list[UniformRatioPerN] = []
    rows: list[TrialRow] = []
    for n in cfg.n_list:
        batch = _collect(cfg, wf, density, n)
        rows.extend(batch)
        w = np.array([r.weight for r in batch])
        mean = float(w.mean())
        per_n.append(UniformRatioPerN(
            n=n, mean=mean,
            normalized_mean=mean / n ** (1.0 - cfg.alpha / 2.0),
            solver=_solver_label(cfg.policy, n),
        ))
    normalized = [p.normalized_mean for p in per_n]
    ratio = max(normalized) / min(normalized)
    bound = wf.h0**cfg.alpha * (1.0 + cfg.slack)
    return UniformRatioReport(
        config=cfg.to_dict(), rng=RNG_NAME, per_n=per_n,
        ratio=ratio, h0=wf.h0, bound=bound, within_bound=ratio <= bound,
        rows=rows,
    )


RUNNERS = {
    "scaling": run_scaling,
    "sandwich": run_sandwich,
    "variance": run_variance,
    "convergence": run_convergence,
    "uniform_ratio": run_uniform_ratio,
}


def report_to_json(report) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def report_to_csv(report) -> str:
    lines = ["n,trial,weight,solver,seed_stream"]
    lines.extend(
        f"{r.n},{r.trial},{r.weight!r},{r.solver},{r.seed_stream}" for r in report.rows
    )
    return "\n".join(lines) + "\n"


def write_report(report, path: str, format: str = "json") -> None:
    """Persist a report as the full JSON document or the flat per-trial CSV."""
    if format == "json":
        payload = report_to_json(report)
    elif format == "csv":
        payload = report_to_csv(report)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ReportIOError(f"cannot write report to {path!r}: {exc}") from exc


def read_report(path: str):
    """Load a JSON report back into its dataclass form."""
    try:
        with open(path) as fh:
            return report_from_dict(json.load(fh))
    except OSError as exc:
        raise ReportIOError(f"cannot read report from {path!r}: {exc}") from exc
