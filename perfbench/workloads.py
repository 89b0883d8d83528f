"""The benchmark's workloads: inputs, timed operations and their checks.

A workload is built once from the run seed (set-up), then repeated: each
repetition k draws its inputs from (seed, k) only and runs a fixed list of
operations, each a call into prismconn's public API the way a user makes it.
Calls go through module attributes (mc_sim.run_trials, cli.main, ...) so the
tracer's wrappers are picked up when installed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from prismconn import cli, geometry, linkmodels, mc_sim, pfc_analytic, validation
from prismconn.linkmodels import Mimo, PathLossParams, Siso

import checks


@dataclass
class Op:
    """One timed call, its work units and a check of its output.

    check(output) returns (failure messages, fingerprint); two runs of the
    same op on the same input must give equal fingerprints.
    """

    label: str
    call: Callable[[], object]
    work: float
    check: Callable[[object], tuple[list[str], object]]


def rep_seed(seed: int, k: int, j: int = 0) -> int:
    return int(np.random.SeedSequence([seed, k, j]).generate_state(1)[0])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_op(label: str, argv: list[str], out: Path, check_text) -> Op:
    """A CLI run writing to `out`; check_text(text) checks the written table."""

    def check(code):
        if code != 0:
            return [f"exit code {code}"], code
        data = out.read_bytes()
        return check_text(data.decode("utf-8")), _digest(data)

    return Op(label, lambda: cli.main(argv + ["--output", str(out)]), 1.0, check)


@dataclass
class McHouse:
    """Criterion 6's house sweep: run_trials at three densities."""

    seed: int
    work_dir: Path
    name = "mc_house"
    unit = "trials"
    rerun_index = 0  # re-running the rho = 0.50 config must reproduce it exactly
    RHOS = (0.50, 0.68, 0.87)
    TRIALS = 30
    pooled: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params = PathLossParams(1.0, 2.0, 3)
        self.prism = geometry.house_prism(7.0)
        self.model = Mimo(2, 2, self.params)

    def parameters(self) -> dict:
        return {
            "prism": "house", "L": 7.0, "model": "mimo 2x2", "beta": 1.0, "eta": 2.0,
            "rho": list(self.RHOS),
            "nodes": [round(r * self.prism.volume) for r in self.RHOS],
            "trials_per_call": self.TRIALS,
        }

    def ops(self, k: int) -> list[Op]:
        seed = rep_seed(self.seed, k)
        out = []
        for rho in self.RHOS:
            config = mc_sim.McConfig.from_density(
                self.prism, self.model, rho, self.TRIALS, seed
            )

            def check(est, rho=rho):
                if rho == self.RHOS[-1]:
                    self.pooled[k] = (round(est.p_fc_hat * est.trials), est.trials)
                return checks.estimate_consistent(est, self.TRIALS), est

            out.append(Op(f"run_trials rho={rho}", lambda c=config: mc_sim.run_trials(c),
                          self.TRIALS, check))
        return out

    def final_checks(self) -> list[tuple[str, list[str]]]:
        successes = sum(s for s, _ in self.pooled.values())
        trials = sum(t for _, t in self.pooled.values())
        if not trials:
            return []
        analytic = pfc_analytic.assemble(self.prism, self.params, [self.RHOS[-1]])[0]
        return [(
            f"pooled rho={self.RHOS[-1]} vs analytic",
            checks.estimate_near_analytic(successes, trials, analytic.p_fc),
        )]


@dataclass
class Field:
    """Criterion 8's square fields plus one `field --prism house` CLI run."""

    seed: int
    work_dir: Path
    name = "field"
    unit = "grid points"
    rerun_index = 2  # the CLI run: same seed must give byte-identical CSV
    SQUARES = 2
    SIDE, SQUARE_GRID, SQUARE_RHO = 10.0, 200, 1.5
    PRISM_L, PRISM_GRID, PRISM_RHO = 7.0, 24, 0.8
    SAMPLE = 12  # grid points per field checked against brute force

    def __post_init__(self):
        axis = np.linspace(0.0, self.SIDE, self.SQUARE_GRID)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        self.square_grid = np.column_stack([gx.ravel(), gy.ravel()])
        self.square_model = Siso(PathLossParams(1.0, 2.0, 2))
        self.prism = geometry.house_prism(self.PRISM_L)
        self.prism_model = Mimo(2, 2, PathLossParams(1.0, 2.0, 3))
        (x0, y0, z0), (x1, y1, z1) = self.prism.bounding_box
        g = self.PRISM_GRID
        mesh = np.meshgrid(
            np.linspace(x0, x1, g), np.linspace(y0, y1, g), np.linspace(z0, z1, g),
            indexing="ij",
        )
        box = np.column_stack([m.ravel() for m in mesh])
        self.prism_points = box[checks.inside_prism(self.prism, box)]
        self.out = self.work_dir / "field-prism.csv"

    def parameters(self) -> dict:
        return {
            "square": {"side": self.SIDE, "grid": self.SQUARE_GRID, "rho": self.SQUARE_RHO,
                       "model": "siso", "beta": 1.0, "eta": 2.0,
                       "fields_per_repetition": self.SQUARES},
            "prism": {"prism": "house", "L": self.PRISM_L, "grid": self.PRISM_GRID,
                      "rho": self.PRISM_RHO, "model": "mimo", "m": 2,
                      "inside_points": len(self.prism_points)},
        }

    def _square_op(self, k: int, j: int) -> Op:
        rng = np.random.default_rng(rep_seed(self.seed, k, j))
        count = round(self.SQUARE_RHO * self.SIDE * self.SIDE)
        nodes = rng.random((count, 2)) * self.SIDE
        sample = rng.choice(len(self.square_grid), self.SAMPLE, replace=False)
        h = lambda r: linkmodels.pair_connectedness(self.square_model, r)  # noqa: E731

        def check(values):
            fails = checks.probabilities(values, "square field")
            fails += checks.field_matches_brute_force(
                values, self.square_grid, nodes, h, sample)
            return fails, _digest(np.asarray(values).tobytes())

        return Op(f"connection_field square #{j}",
                  lambda: mc_sim.connection_field(nodes, self.square_model, self.square_grid),
                  len(self.square_grid), check)

    def _prism_op(self, k: int) -> Op:
        seed = rep_seed(self.seed, k, self.SQUARES)
        argv = ["field", "--prism", "house", "--L", repr(self.PRISM_L), "--model", "mimo",
                "--m", "2", "--rho", repr(self.PRISM_RHO), "--grid", str(self.PRISM_GRID),
                "--seed", str(seed)]
        rng = np.random.default_rng(seed)
        nodes = geometry.sample_uniform_rng(
            self.prism, round(self.PRISM_RHO * self.prism.volume), rng)
        sample = np.random.default_rng(seed).choice(
            len(self.prism_points), self.SAMPLE, replace=False)
        h = lambda r: linkmodels.pair_connectedness(self.prism_model, r)  # noqa: E731
        op = _cli_op("cli field --prism house", argv, self.out,
                     lambda text: checks.prism_field_csv(
                         text, self.prism_points, nodes, h, sample))
        op.work = len(self.prism_points)
        return op

    def ops(self, k: int) -> list[Op]:
        return [self._square_op(k, j) for j in range(self.SQUARES)] + [self._prism_op(k)]

    def final_checks(self) -> list[tuple[str, list[str]]]:
        return []


@dataclass
class Analytic:
    """CLI mass/pfc/validate runs and criterion 7's exact-oracle chain."""

    seed: int
    work_dir: Path
    name = "analytic"
    unit = "operations"
    rerun_index = 2  # the pfc CLI run
    RESAMPLES = 100_000
    EXACT_SIZES = (12, 5, 10)  # 12: largest the oracle takes; 5: brute force; 10: resampling
    CHECK_RESAMPLES = 20_000

    def __post_init__(self):
        self.prism = geometry.house_prism(3.0)
        self.model = Mimo(2, 2, PathLossParams(0.35, 2.0, 3))
        self.cli_runs = [
            ("mass simo", ["mass", "--model", "simo", "--m", "1..64", "--eta", "2,3,4"],
             lambda t: checks.mass_csv(t, 64 * 3)),
            ("mass mimo", ["mass", "--model", "mimo", "--m", "2..64", "--eta", "2,3,4"],
             lambda t: checks.mass_csv(t, 63 * 3)),
            ("pfc house", ["pfc", "--prism", "house", "--L", "7", "--rho", "0.1:1.2:0.02"],
             lambda t: checks.pfc_csv(t, 56)),
            ("validate", ["validate"],
             lambda t: checks.validate_csv(t, len(validation.CHECK_NAMES))),
        ]

    def parameters(self) -> dict:
        return {
            "cli": [argv for _, argv, _ in self.cli_runs],
            "oracle": {"prism": "house", "L": 3.0, "model": "mimo 2x2", "beta": 0.35,
                       "eta": 2.0, "exact_nodes": list(self.EXACT_SIZES),
                       "resampling_nodes": self.EXACT_SIZES[2],
                       "resamples": self.RESAMPLES},
        }

    def _h_matrix(self, pts) -> np.ndarray:
        n = len(pts)
        h = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                h[i, j] = h[j, i] = linkmodels.pair_connectedness(
                    self.model, math.dist(pts[i], pts[j]))
        return h

    def ops(self, k: int) -> list[Op]:
        ops = [
            _cli_op(f"cli {label}", argv,
                    self.work_dir / f"analytic-{label.replace(' ', '-')}.csv", check)
            for label, argv, check in self.cli_runs
        ]
        rng = np.random.default_rng(rep_seed(self.seed, k))
        big, small, mid = (geometry.sample_uniform_rng(self.prism, n, rng)
                           for n in self.EXACT_SIZES)
        resample_seed = int(rng.integers(1 << 30))
        check_seed = int(rng.integers(1 << 30))

        def check_big(p):
            est = mc_sim.edge_resampling_estimate(
                big, self.model, self.CHECK_RESAMPLES, check_seed)
            hits = round(est.p_fc_hat * self.CHECK_RESAMPLES)
            return (checks.probabilities([p], "exact probability")
                    + checks.binomial_band(hits, self.CHECK_RESAMPLES, p)), p

        def check_small(p):
            brute = validation.brute_force_connectivity_probability(self._h_matrix(small))
            return checks.close(p, brute, checks.ORACLE_TOL, "exact vs brute force"), p

        def check_mid(result):
            exact, est = result
            hits = round(est.p_fc_hat * est.trials)
            fails = checks.estimate_consistent(est, self.RESAMPLES)
            return fails + checks.binomial_band(hits, est.trials, exact), (exact, est)

        ops.append(Op("exact n=12",
                      lambda: mc_sim.exact_connectivity_probability(big, self.model),
                      1.0, check_big))
        ops.append(Op("exact n=5",
                      lambda: mc_sim.exact_connectivity_probability(small, self.model),
                      1.0, check_small))
        ops.append(Op("exact + edge resampling n=10",
                      lambda: (mc_sim.exact_connectivity_probability(mid, self.model),
                               mc_sim.edge_resampling_estimate(
                                   mid, self.model, self.RESAMPLES, resample_seed)),
                      1.0, check_mid))
        return ops

    def final_checks(self) -> list[tuple[str, list[str]]]:
        return []


WORKLOADS = {w.name: w for w in (McHouse, Field, Analytic)}
