"""Monte Carlo verification of full connectivity.

Trials draw a fixed number of uniform node positions in a prism, realize
each link independently with probability H(distance), and test whether the
resulting graph is one component.  Per-trial random streams are derived
from (seed, trial index) through a splittable generator, so results do not
depend on how trials are scheduled across workers.  A memoized
subset-recursion oracle gives the exact connectivity probability for small
fixed configurations, and the connection-probability field of a node set
can be evaluated on arbitrary grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import RightPrism, sample_uniform_rng
from .linkmodels import (
    ConnectionModel,
    pair_connectedness,
    pair_connectedness_many,
    support_radius,
)

__all__ = [
    "McConfig",
    "McEstimate",
    "UnionFind",
    "connection_field",
    "connectivity_check",
    "edge_resampling_estimate",
    "exact_connectivity_probability",
    "run_trial",
    "run_trials",
    "wilson_interval",
]

_EXACT_MAX_NODES = 12
# Bytes one chunk of edge resampling may use: per resample, n(n-1)/2 float64
# uniforms (about 4 n^2 bytes) plus an n x n bool adjacency.
_RESAMPLE_CHUNK_BYTES = 10_000_000

Z_95 = 1.959963984540054
Z_99 = 2.5758293035489004


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]
        self.components -= 1


def connectivity_check(n: int, edges) -> tuple[bool, int]:
    """Whether the graph on n nodes with the given edges is one component."""
    if n < 0:
        raise IndexError(f"node count must be non-negative, got {n}")
    uf = UnionFind(n)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"edge ({i}, {j}) out of range for {n} nodes")
        uf.union(i, j)
    return uf.components <= 1, uf.components


def wilson_interval(
    successes: int, trials: int, z: float = Z_95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = p_hat + z * z / (2.0 * trials)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    return (center - half) / denom, (center + half) / denom


@dataclass(frozen=True)
class McConfig:
    """A full-connectivity experiment: prism, link model, N, trials, seed."""

    prism: RightPrism
    model: ConnectionModel
    node_count: int
    trials: int
    seed: int
    poisson: bool = False

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise DomainError(f"node_count must be >= 1, got {self.node_count}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed}")

    @classmethod
    def from_density(
        cls,
        prism: RightPrism,
        model: ConnectionModel,
        rho: float,
        trials: int,
        seed: int,
        poisson: bool = False,
    ) -> "McConfig":
        if rho <= 0.0:
            raise DomainError(f"density must be positive, got {rho}")
        return cls(prism, model, round(rho * prism.volume), trials, seed, poisson)


@dataclass(frozen=True)
class McEstimate:
    """Estimated P_fc with a 95% Wilson interval and an isolation diagnostic."""

    p_fc_hat: float
    trials: int
    ci_low: float
    ci_high: float
    mean_isolated: float


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def run_trial(config: McConfig, index: int, cutoff: float | None = None) -> tuple[bool, int]:
    """One trial: returns (fully connected, number of isolated nodes).

    Depends only on (config.seed, index), never on how many other trials
    run or in what order.
    """
    rng = _trial_rng(config.seed, index)
    n = int(rng.poisson(config.node_count)) if config.poisson else config.node_count
    if n == 0:
        return True, 0
    points = sample_uniform_rng(config.prism, n, rng)
    if n == 1:
        return True, 1
    if cutoff is None:
        cutoff = support_radius(config.model)
    ii, jj = np.triu_indices(n, k=1)
    dists = np.linalg.norm(points[ii] - points[jj], axis=1)
    near = dists <= cutoff
    h = pair_connectedness_many(config.model, dists[near])
    linked = rng.random(h.size) < h
    src = ii[near][linked]
    dst = jj[near][linked]

    degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    isolated = int((degree == 0).sum())
    uf = UnionFind(n)
    for i, j in zip(src.tolist(), dst.tolist()):
        uf.union(i, j)
    return uf.components <= 1, isolated


def run_trials(config: McConfig) -> McEstimate:
    """Estimate P_fc over independent trials with a 95% Wilson interval."""
    cutoff = support_radius(config.model)
    connected = 0
    isolated_total = 0
    for t in range(config.trials):
        ok, isolated = run_trial(config, t, cutoff)
        connected += ok
        isolated_total += isolated
    low, high = wilson_interval(connected, config.trials)
    return McEstimate(
        connected / config.trials,
        config.trials,
        low,
        high,
        isolated_total / config.trials,
    )


def _link_matrix(points: np.ndarray, model: ConnectionModel) -> np.ndarray:
    n = len(points)
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            h[i, j] = h[j, i] = pair_connectedness(
                model, float(np.linalg.norm(points[i] - points[j]))
            )
    return h


def exact_connectivity_probability(points, model: ConnectionModel) -> float:
    """Exact probability the random graph on fixed positions is connected.

    Subset recursion on the component containing the lowest-index node:
    f(S) = 1 - sum over proper subsets T of S containing that node of
    f(T) * prod of (1 - H_ij) across the (T, S - T) cut; memoized over
    bitmasks, so the cost is exponential and the node count is capped.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        raise DomainError("point set must be non-empty")
    if n > _EXACT_MAX_NODES:
        raise DomainError(
            f"exact oracle supports at most {_EXACT_MAX_NODES} nodes, got {n}"
        )
    if n == 1:
        return 1.0
    q = 1.0 - _link_matrix(pts, model)

    # miss[i][mask] = prod over j in mask of (1 - H_ij)
    miss = [np.ones(1 << n) for _ in range(n)]
    for i in range(n):
        row = miss[i]
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            row[mask] = row[mask & (mask - 1)] * q[i, low]

    full = (1 << n) - 1
    f = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            f[mask] = 1.0
            continue
        anchor = mask & -mask
        prob = 1.0
        sub = (mask - 1) & mask
        while sub:
            if sub & anchor and sub != mask:
                rest = mask ^ sub
                cut = 1.0
                t = sub
                while t:
                    i = (t & -t).bit_length() - 1
                    cut *= miss[i][rest]
                    t &= t - 1
                prob -= f[sub] * cut
            sub = (sub - 1) & mask
        f[mask] = prob
    return f[full]


def edge_resampling_estimate(
    points, model: ConnectionModel, resamples: int, seed: int
) -> McEstimate:
    """Connectivity frequency over edge redraws at fixed node positions."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        raise DomainError(f"edge resampling needs at least 2 nodes, got {n}")
    if resamples < 1:
        raise DomainError(f"resamples must be >= 1, got {resamples}")
    ii, jj = np.triu_indices(n, k=1)
    h = pair_connectedness_many(model, np.linalg.norm(pts[ii] - pts[jj], axis=1))
    rng = np.random.default_rng(int(seed))

    connected = 0
    isolated_total = 0
    chunk = max(1, min(resamples, _RESAMPLE_CHUNK_BYTES // (5 * n * n)))
    done = 0
    while done < resamples:
        size = min(chunk, resamples - done)
        links = rng.random((size, h.size)) < h
        adj = np.zeros((size, n, n), dtype=bool)
        adj[:, ii, jj] = links
        adj[:, jj, ii] = links
        isolated_total += int((~adj.any(axis=2)).sum())
        reach = np.zeros((size, n, 1), dtype=bool)
        reach[:, 0] = True
        for _ in range(n - 1):
            grown = adj @ reach | reach
            if np.array_equal(grown, reach):
                break
            reach = grown
        connected += int(reach.all(axis=1).sum())
        done += size
    low, high = wilson_interval(connected, resamples)
    return McEstimate(
        connected / resamples, resamples, low, high, isolated_total / resamples
    )


def connection_field(points, model: ConnectionModel, grid_points) -> np.ndarray:
    """Probability that a node at each grid point would link to any node.

    field(x) = 1 - prod over nodes i of (1 - H(|x - r_i|)); zero when the
    node set is empty or entirely out of range.
    """
    grid = np.atleast_2d(np.asarray(grid_points, dtype=float))
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros(len(grid))
    pts = np.atleast_2d(pts)
    if pts.shape[1] != grid.shape[1]:
        raise DomainError(
            f"points are {pts.shape[1]}-dimensional but grid is {grid.shape[1]}-dimensional"
        )
    values = np.empty(len(grid))
    chunk = max(1, 2_000_000 // max(1, len(pts)))
    for start in range(0, len(grid), chunk):
        block = grid[start : start + chunk]
        d = np.linalg.norm(block[:, None, :] - pts[None, :, :], axis=2)
        h = pair_connectedness_many(model, d.ravel()).reshape(d.shape)
        values[start : start + len(block)] = 1.0 - np.prod(1.0 - h, axis=1)
    return values
