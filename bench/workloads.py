"""The four benchmark workloads: the argv a user would type, the experiment
config each simulate workload reads, and what one op is.

Standard library only, so ``run.py`` can load it before anything of
the program is importable.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1
VERIFY_PROPERTIES = 8  # the invariant suite's property checks


@dataclass(frozen=True)
class Workload:
    name: str
    op_unit: str
    why: str
    config: dict | None = None  # experiment config, simulate workloads only
    instances: int = 0  # verify workload only
    # A timed pass runs at least this many invocations (and at least
    # --seconds), so the repeat check always has a repeat to compare.
    min_invocations: int = 2

    @property
    def simulate(self) -> bool:
        return self.config is not None

    def ops_per_invocation(self) -> int:
        if self.simulate:
            return self.config["trials"] * len(self.config["n_list"])
        if self.name == "verify_exact":
            return VERIFY_PROPERTIES * self.instances
        return len(BETA_ALPHAS)

    def seeded_config(self, seed: int) -> dict:
        return dict(self.config, seed=seed)

    def argv(self, seed: int, config_path: str, report_path: str) -> list[str]:
        if self.name == "scaling_2opt":
            return ["simulate", "scaling", "--config", config_path, "--seed", str(seed),
                    "--out", report_path]
        if self.name == "sandwich_grid":
            return ["simulate", "sandwich", "--config", config_path, "--seed", str(seed),
                    "--out", report_path]
        if self.name == "verify_exact":
            return ["verify", "--max-n", "16", "--instances", str(self.instances),
                    "--seed", str(seed)]
        return ["beta", "--curve", "--eps1", "1", "--eps2", "1"]


# `beta --curve` defaults: alpha from 0.25 to 2.0 in steps of 0.25.
BETA_ALPHAS = tuple(0.25 * k for k in range(1, 9))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scaling_2opt",
            op_unit="trial",
            why="few large trials: dense O(n^2) two_opt and weight_matrix dominate time "
                "and peak memory",
            config={
                "weight": {"kind": "radial_metric"},
                "alpha": 1.0,
                "density": {"kind": "checkerboard", "eps1": 0.5, "eps2": 1.5, "k": 4},
                "n_list": [256, 512, 1024, 2048],
                "trials": 4,
                "seed": DEFAULT_SEED,
                "a": 1.0,
                "policy": {"exact_below": 0, "heuristic": "grid_tour+two_opt"},
            },
        ),
        Workload(
            name="sandwich_grid",
            op_unit="trial",
            why="many mid-size trials, grid_tour only: no 2-opt, no dense matrix; "
                "loads sampling and the trial map",
            config={
                "weight": {"kind": "euclidean"},
                "alpha": 1.0,
                "density": {"kind": "uniform", "eps1": 1.0, "eps2": 1.0},
                "n_list": [4096],
                "trials": 16,
                "seed": DEFAULT_SEED,
                "a": 1.0,
                "policy": {"exact_below": 0, "heuristic": "grid_tour"},
            },
        ),
        Workload(
            name="verify_exact",
            op_unit="property case",
            why="Held-Karp tsp_exact up to n = 16 is nearly all the time; no sampling "
                "or tiling at scale",
            instances=24,
            # The most run-to-run noise of the four on a shared 2-core host:
            # six invocations (about 27 s) instead of four.
            min_invocations=6,
        ),
        Workload(
            name="beta_curve",
            op_unit="alpha point",
            why="only bounds runs (unseeded): geometric_moment series in the grid scan and "
                "golden-section search",
        ),
    )
}
