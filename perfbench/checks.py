"""Output checks for the benchmark's operations.

Every checker returns a list of failure messages (empty when the output is
correct), so a wrong output counts as a failed operation.  Statistical
checks use a Z_BAND-sigma band: at 5 sigma the two-sided false-alarm rate
is 5.7e-7 per check, below 1e-4 per run even with a few hundred checks.
This module imports nothing from prismconn: the reference values it
compares against (scalar H, the brute-force and exact oracles) are passed
in by the workloads, so a wrong vector kernel, CSV writer or estimator
shows here.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Callable, Sequence

import numpy as np

Z_BAND = 5.0
ANALYTIC_SLACK = 0.02  # criterion 6's allowance for first-order model error
FIELD_TOL = 1e-12
MASS_REL_TOL = 1e-6
ORACLE_TOL = 1e-12


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2.0 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (center - half) / denom, (center + half) / denom


def estimate_consistent(est, trials: int) -> list[str]:
    """A McEstimate's own invariants: interval brackets the point estimate."""
    fails = []
    if est.trials != trials:
        fails.append(f"estimate reports {est.trials} trials, expected {trials}")
    if not est.ci_low <= est.p_fc_hat <= est.ci_high:
        fails.append(
            f"p_hat {est.p_fc_hat} outside its interval ({est.ci_low}, {est.ci_high})"
        )
    if not 0.0 <= est.mean_isolated:
        fails.append(f"negative mean isolated count {est.mean_isolated}")
    return fails


def estimate_near_analytic(
    successes: int, trials: int, p_analytic: float, z: float = Z_BAND
) -> list[str]:
    """Pooled MC frequency within a z-sigma Wilson band widened by the slack."""
    low, high = wilson(successes, trials, z)
    if low - ANALYTIC_SLACK <= p_analytic <= high + ANALYTIC_SLACK:
        return []
    return [
        f"analytic p_fc {p_analytic:.6f} outside the {z:g}-sigma band "
        f"({low:.6f}, {high:.6f}) +- {ANALYTIC_SLACK} of {successes}/{trials}"
    ]


def binomial_band(successes: int, trials: int, p: float, z: float = Z_BAND) -> list[str]:
    """Successes within the two-sided z-sigma binomial band around p."""
    from scipy import stats

    alpha = 2.0 * stats.norm.sf(z)
    lo = stats.binom.ppf(alpha / 2.0, trials, p)
    hi = stats.binom.ppf(1.0 - alpha / 2.0, trials, p)
    if lo <= successes <= hi:
        return []
    return [f"{successes}/{trials} outside the {z:g}-sigma band [{lo}, {hi}] of p={p}"]


def identical(first, second, what: str) -> list[str]:
    return [] if first == second else [f"{what} differs between runs of the same input"]


def probabilities(values: np.ndarray, what: str) -> list[str]:
    values = np.asarray(values, dtype=float)
    if values.size and np.isfinite(values).all() and values.min() >= 0.0 and values.max() <= 1.0:
        return []
    return [f"{what} has values outside [0, 1] or not finite"]


def brute_field(point, nodes, h: Callable[[float], float]) -> float:
    """1 - prod over nodes of (1 - H(|point - node|)), one pair at a time."""
    miss = 1.0
    for node in nodes:
        miss *= 1.0 - h(math.dist(point, node))
    return 1.0 - miss


def field_matches_brute_force(
    values, grid, nodes, h: Callable[[float], float], sample: Sequence[int],
    tol: float = FIELD_TOL,
) -> list[str]:
    fails = []
    for idx in sample:
        ref = brute_field(grid[idx], nodes, h)
        if abs(values[idx] - ref) > tol:
            fails.append(f"field at grid point {idx}: {values[idx]!r} vs brute force {ref!r}")
    return fails


def inside_prism(prism, points: np.ndarray) -> np.ndarray:
    """Vectorised half-plane test with the same arithmetic as RightPrism.contains."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    inside = (z >= 0.0) & (z <= prism.height)
    verts = prism.base_vertices
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        inside &= (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0.0
    return inside


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def prism_field_csv(
    text: str, expected_points: np.ndarray, nodes, h: Callable[[float], float],
    sample: Sequence[int],
) -> list[str]:
    """CLI field rows: one per inside grid point, in order, values checked."""
    header, rows = read_csv(text)
    if header != ["x", "y", "z", "value"]:
        return [f"unexpected field header {header}"]
    if len(rows) != len(expected_points):
        return [f"{len(rows)} field rows, expected {len(expected_points)} inside grid points"]
    table = np.array(rows, dtype=float)
    if not np.array_equal(table[:, :3], expected_points):
        return ["field rows are not the inside grid points in grid order"]
    values = table[:, 3]
    return probabilities(values, "CLI field") + field_matches_brute_force(
        values, expected_points, nodes, h, sample
    )


def mass_csv(text: str, expected_rows: int) -> list[str]:
    header, rows = read_csv(text)
    if len(rows) != expected_rows:
        return [f"{len(rows)} mass rows, expected {expected_rows}"]
    closed, quad = header.index("closed_form"), header.index("quadrature")
    fails = []
    for row in rows:
        c, q = float(row[closed]), float(row[quad])
        if not abs(c - q) <= MASS_REL_TOL * abs(q):
            fails.append(f"closed form {c!r} and quadrature {q!r} differ (row {row[:4]})")
    return fails


def pfc_csv(text: str, expected_rows: int) -> list[str]:
    header, rows = read_csv(text)
    if len(rows) != expected_rows:
        return [f"{len(rows)} pfc rows, expected {expected_rows}"]
    p_fc, p_out = header.index("p_fc"), header.index("p_out")
    fails = []
    for row in rows:
        a, b = float(row[p_fc]), float(row[p_out])
        if not (math.isfinite(a) and abs(a + b - 1.0) <= 1e-12):
            fails.append(f"p_fc {a!r} and p_out {b!r} do not sum to 1 (rho {row[0]})")
    return fails


def validate_csv(text: str, expected_checks: int) -> list[str]:
    header, rows = read_csv(text)
    if len(rows) != expected_checks:
        return [f"{len(rows)} validate rows, expected {expected_checks}"]
    return [f"validate check {r[0]} is {r[1]}: {r[2]}" for r in rows if r[1] != "PASS"]


def close(value: float, reference: float, tol: float, what: str) -> list[str]:
    if abs(value - reference) <= tol:
        return []
    return [f"{what}: {value!r} vs {reference!r} (tolerance {tol})"]


def self_times_cover_wall(self_total: float, wall: float, rel: float = 1e-9) -> list[str]:
    """Tracer arithmetic: every traced second is some span's self time."""
    if abs(self_total - wall) <= rel * max(wall, 1e-12):
        return []
    return [f"span self times sum to {self_total!r} s but traced wall is {wall!r} s"]
