"""Monte Carlo drivers confronting the scaling laws and inequalities with
simulation at desk scale, plus deterministic report persistence.

Every trial draws its points from a Philox stream keyed by
(seed, n, trial), and the trials run one after the other in the calling
thread, so a report is a byte-identical function of its config.  One
pipeline solves the trials of each instance size; each runner adds only its
own summary.  Reports embed their full config and the solver label of every
number they carry, and one decoder driven by the dataclass field types reads
configs and reports back.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from .bounds import ModelParams, beta_bounds, deviation_constants
from .geometry import Tiling, build_tiling
from .sampling import RNG_NAME, density_from_dict, sample_binomial
from .solvers import EXACT_TOUR_MAX_N, HEURISTICS, solve
from .weights import BUILTIN_KINDS, WeightFunction, make_weight_function

ALMOST_SURE_ALPHA_LIMIT = 2.0 * (math.sqrt(2.0) - 1.0)


class ReportIOError(OSError):
    """Report read/write failure, annotated with the offending path."""


def _decode(tp, value, key: str):
    """Build a value of the annotated type ``tp`` from its JSON form.

    Handles dataclasses (fields with defaults may be absent, unknown keys are
    ignored), ``X | None``, ``list[X]``, ``tuple[X, ...]``, bare ``dict`` and
    ``list``, and the scalars; ``key`` names the value in error messages.
    """
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (list, tuple):
        items = [_decode(args[0], v, f"{key}[{i}]")
                 for i, v in enumerate(_decode(list, value, key))]
        return tuple(items) if origin is tuple else items
    if is_dataclass(tp):
        value = _decode(dict, value, key)
        missing = [f.name for f in fields(tp) if f.name not in value
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            where = f" in {key}" if key else ""
            raise ValueError(f"missing key(s) {', '.join(missing)}{where}")
        hints = typing.get_type_hints(tp)
        return tp(**{f.name: _decode(hints[f.name], value[f.name],
                                     f"{key}.{f.name}" if key else f.name)
                     for f in fields(tp) if f.name in value})
    names = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
             dict: "an object", list: "a list"}
    accepted = {float: (int, float), list: (list, tuple)}.get(tp, tp)
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
        raise ValueError(f"{key or 'config'} must be {names[tp]}, got {value!r}")
    return tp(value)


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
            if not math.isfinite(_decode(float, self.density.get(key, 1.0), f"density {key}")):
                raise ValueError(f"density {key} must be finite")
        if self.density.get("k") is not None:
            _decode(int, self.density["k"], "density k")
        if not self.n_list:
            raise ValueError("n_list must be non-empty")
        if self.n_list[0] < 2:
            raise ValueError("instance sizes must be >= 2 (a tour needs two nodes)")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("n_list must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (0.0 < self.a < math.inf):
            raise ValueError(f"tiling parameter a must be positive and finite, got {self.a}")
        if self.policy.heuristic not in HEURISTICS:
            raise ValueError(f"heuristic must be one of {HEURISTICS}")
        if not (0 <= self.policy.exact_below <= EXACT_TOUR_MAX_N + 1):
            raise ValueError(f"exact_below must lie in 0..{EXACT_TOUR_MAX_N + 1} "
                             f"(exact solver caps at {EXACT_TOUR_MAX_N} nodes)")
        if not (0.0 <= self.slack < math.inf):
            raise ValueError(f"slack must be non-negative and finite, got {self.slack}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_list"] = list(self.n_list)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Decode a JSON config; a missing or wrongly typed key is a ValueError
        that names it."""
        return _decode(cls, d, "")


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


@dataclass(frozen=True)
class _Report:
    """What every report carries besides its summary."""

    config: dict
    rng: str
    rows: list[TrialRow]


@dataclass(frozen=True)
class ScalingReport(_Report):
    per_n: list[ScalingPerN]
    slope: float
    intercept: float
    slope_half_width: float | None
    bracket_lower: float
    bracket_upper: float
    kind: str = "scaling"


@dataclass(frozen=True)
class SandwichReport(_Report):
    n: int
    a_effective: float
    c1_const: float
    c2_const: float
    lower_threshold: float
    upper_threshold: float
    lower_frequency: float
    upper_frequency: float
    solver: str
    kind: str = "sandwich"


@dataclass(frozen=True)
class VarianceReport(_Report):
    per_n: list[VariancePerN]
    slope: float | None
    predicted_exponent: float | None
    informational: bool
    kind: str = "variance"


@dataclass(frozen=True)
class ConvergenceReport(_Report):
    max_abs_centered: list[list]
    trace: list[TraceRow]
    trend_decreasing: bool | None
    hypothesis_small_alpha: bool
    kind: str = "convergence"


@dataclass(frozen=True)
class UniformRatioReport(_Report):
    per_n: list[UniformRatioPerN]
    ratio: float
    h0: float
    bound: float
    within_bound: bool
    kind: str = "uniform_ratio"


REPORT_KINDS = {cls.kind: cls for cls in (ScalingReport, SandwichReport, VarianceReport,
                                          ConvergenceReport, UniformRatioReport)}


def report_from_dict(d: dict):
    if not isinstance(d, dict):
        raise ValueError(f"a report must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    return _decode(REPORT_KINDS[kind], d, "")


def thread_count() -> int:
    """Always 1: trials run one after the other in the calling thread."""
    return 1


@dataclass(frozen=True)
class _Batch:
    """The solved trials of one instance size."""

    n: int
    tiling: Tiling
    solver: str
    rows: list[TrialRow]
    weights: np.ndarray


def _run_trials(cfg: ExperimentConfig, summarize, require=None):
    """Validate the config, then solve every trial of every instance size in
    order, in the calling thread.

    ``require(wf)`` may reject the weight function before any trial runs;
    ``summarize(batch)`` is the runner's summary of one size.  Returns the
    weight function, the density, all trial rows and the summaries.
    """
    cfg.validate()
    wf = make_weight_function(cfg.weight["kind"])
    density = density_from_dict(cfg.density)
    if require is not None:
        require(wf)
    rows, per_n = [], []
    for n in cfg.n_list:
        tiling = build_tiling(n, cfg.a)
        solver = "exact" if n < cfg.policy.exact_below else cfg.policy.heuristic
        batch = []
        for trial in range(cfg.trials):
            pts = sample_binomial(density, n, cfg.seed, stream=(n, trial)).points
            tour = solve(pts, wf, cfg.alpha, solver, tiling)
            batch.append(TrialRow(n=n, trial=trial, weight=tour.weight, solver=solver,
                                  seed_stream=f"{cfg.seed}:{n}:{trial}"))
        rows.extend(batch)
        per_n.append(summarize(
            _Batch(n, tiling, solver, batch, np.array([r.weight for r in batch]))))
    return wf, density, rows, per_n


def run_scaling(cfg: ExperimentConfig) -> ScalingReport:
    """Mean tour weight per instance size with a log-log slope fit and the
    theoretical bracket on the normalized mean."""
    if len(cfg.n_list) < 2:
        raise ValueError("the scaling slope needs at least two instance sizes")

    def summarize(b: _Batch) -> ScalingPerN:
        w = b.weights
        mean = float(w.mean())
        var = float(w.var(ddof=1)) if len(w) > 1 else 0.0
        return ScalingPerN(
            n=b.n, mean=mean, variance=var,
            std_error=math.sqrt(var / len(w)),
            normalized_mean=mean / b.n ** (1.0 - cfg.alpha / 2.0),
            normalized_variance=var / b.n ** (1.0 - cfg.alpha),
            solver=b.solver,
            within_window=b.tiling.within_window,
        )

    wf, density, rows, per_n = _run_trials(cfg, summarize)
    x = np.log([p.n for p in per_n])
    y = np.log([p.mean for p in per_n])
    slope, intercept = np.polyfit(x, y, 1)
    half_width = None
    if len(x) > 2:
        resid = y - (slope * x + intercept)
        sxx = float(np.sum((x - x.mean()) ** 2))
        se = math.sqrt(float(np.sum(resid**2)) / (len(x) - 2) / sxx)
        half_width = 1.96 * se
    low, up = beta_bounds(cfg.alpha, density.eps1, density.eps2)
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
    if len(cfg.n_list) != 1:
        raise ValueError("the sandwich experiment takes exactly one instance size")
    wf, density, rows, (b,) = _run_trials(cfg, lambda batch: batch)
    n, a_eff = b.n, b.tiling.a_effective
    mp = ModelParams(eps1=density.eps1, eps2=density.eps2, alpha=cfg.alpha,
                     c1=wf.c1, c2=wf.c2)
    c1_const, c2_const = deviation_constants(mp, a_eff)
    rate = n ** (1.0 - cfg.alpha / 2.0)
    lower = c1_const * rate * (1.0 - 4.0 * math.sqrt(a_eff) / n**0.25)
    upper = c2_const * rate * (1.0 + 2.0 / n ** (1.0 / 16.0))
    return SandwichReport(
        config=cfg.to_dict(), rng=RNG_NAME, n=n, a_effective=a_eff,
        c1_const=c1_const, c2_const=c2_const,
        lower_threshold=lower, upper_threshold=upper,
        lower_frequency=float(np.mean(b.weights >= lower)),
        upper_frequency=float(np.mean(b.weights <= upper)),
        solver=b.solver,
        rows=rows,
    )


def run_variance(cfg: ExperimentConfig) -> VarianceReport:
    """Sample variance of the solved weight per size with jackknife standard
    errors and the log-log variance slope."""
    if cfg.trials < 100:
        raise ValueError("variance estimation needs at least 100 trials")

    def summarize(b: _Batch) -> VariancePerN:
        w = b.weights
        t = len(w)
        s1, s2 = w.sum(), (w**2).sum()
        loo = (s2 - w**2 - (s1 - w) ** 2 / (t - 1)) / (t - 2)
        se = math.sqrt((t - 1) / t * float(np.sum((loo - loo.mean()) ** 2)))
        return VariancePerN(
            n=b.n, mean=float(w.mean()), variance=float(w.var(ddof=1)),
            jackknife_se=se, solver=b.solver,
        )

    _, _, rows, per_n = _run_trials(cfg, summarize)
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
    trace: list[TraceRow] = []

    def summarize(b: _Batch) -> list:
        centered = (b.weights - b.weights.mean()) / b.n ** (1.0 - cfg.alpha / 2.0)
        trace.extend(TraceRow(n=b.n, trial=r.trial, centered=float(c))
                     for r, c in zip(b.rows, centered))
        return [b.n, float(np.max(np.abs(centered)))]

    _, _, rows, maxima = _run_trials(cfg, summarize)
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
    if cfg.density.get("kind") != "uniform":
        raise ValueError("the uniform-ratio experiment requires the uniform density")

    def require(wf: WeightFunction) -> None:
        if wf.h0 is None or not wf.scale_invariant:
            raise ValueError(f"weight kind {wf.kind!r} lacks the scaling/shift properties "
                             "(declared h0 and linear scaling) this experiment needs")

    def summarize(b: _Batch) -> UniformRatioPerN:
        mean = float(b.weights.mean())
        return UniformRatioPerN(n=b.n, mean=mean,
                                normalized_mean=mean / b.n ** (1.0 - cfg.alpha / 2.0),
                                solver=b.solver)

    wf, _, rows, per_n = _run_trials(cfg, summarize, require)
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


def format_report(report, format: str = "json") -> str:
    """A report as the full JSON document or the flat per-trial CSV."""
    if format == "json":
        return report_to_json(report)
    if format == "csv":
        return report_to_csv(report)
    raise ValueError(f"format must be 'json' or 'csv', got {format!r}")


def write_report(report, path: str, format: str = "json") -> None:
    """Persist a report in the form ``format_report`` gives it."""
    payload = format_report(report, format)
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
