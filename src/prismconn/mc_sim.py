"""Monte Carlo verification of full connectivity.

Trials draw a fixed number of uniform node positions in a prism, realize
each link independently with probability H(distance), and test whether the
resulting graph is one component.  Per-trial random streams are derived
from (seed, trial index) through a splittable generator, so results do not
depend on how trials are scheduled across workers.  A subset-recursion
oracle, tabulated over bitmasks one subset size at a time, gives the exact
connectivity probability for small fixed configurations, and the
connection-probability field of a node set can be evaluated on arbitrary
grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import DomainError
from .geometry import RightPrism, sample_uniform_rng
from .linkmodels import ConnectionModel, pair_connectedness_many, support_radius

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
# Bytes a trial's condensed pair-distance table may take (8 per pair); the
# mask, indices and H of the pairs in range take several times more.
_PAIR_TABLE_BYTES = 100_000_000
# Grid-node pairs per block of a connection field: the distances, H and the
# MIMO H's temporaries (about six float64 arrays, 0.75 MB) stay in L2 cache.
_FIELD_BLOCK_PAIRS = 16_384

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
    """Whether the graph on n nodes with the given edges is one component.

    Returns (connected, component count).  `edges` is an (m, 2) integer
    array or any iterable of pairs; every edge is bounds-checked before the
    first union, and unions stop once one component remains.
    """
    if n < 0:
        raise IndexError(f"node count must be non-negative, got {n}")
    # An array passes by two reductions; other edges, or an array that
    # fails them, are checked one by one, which names the bad edge.
    array = isinstance(edges, np.ndarray)
    checked = array and (edges.size == 0 or bool(edges.min() >= 0 and edges.max() < n))
    edges = edges.tolist() if array else list(edges)
    if not checked:
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"edge ({i}, {j}) out of range for {n} nodes")
    uf = UnionFind(n)
    for i, j in edges:
        uf.union(i, j)
        if uf.components == 1:
            break
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
    """A full-connectivity experiment: prism, link model, N, trials, seed.

    `cutoff` is derived: the model's support radius, beyond which no pair
    is evaluated.
    """

    prism: RightPrism
    model: ConnectionModel
    node_count: int
    trials: int
    seed: int
    poisson: bool = False
    cutoff: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise DomainError(f"node_count must be >= 1, got {self.node_count}")
        table = 8 * (self.node_count * (self.node_count - 1) // 2)
        if table > _PAIR_TABLE_BYTES:
            raise DomainError(
                f"node_count {self.node_count} needs a {table / 1e6:.0f} MB pair table "
                f"per trial, more than {_PAIR_TABLE_BYTES / 1e6:.0f} MB"
            )
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed}")
        object.__setattr__(self, "cutoff", support_radius(self.model))

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


def _pair_nodes(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the pairs i < j of n nodes at condensed (`pdist`) indices k."""
    starts = np.zeros(n - 1, dtype=np.intp)  # condensed index of (i, i + 1)
    np.cumsum(np.arange(n - 1, 1, -1), out=starts[1:])
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


def _pairs(points: np.ndarray, model: ConnectionModel, cutoff: float = math.inf):
    """The pairs i < j at most `cutoff` apart, as condensed indices, with their H.

    `_pair_nodes` maps condensed indices back to (i, j). Points may be rows of
    coordinates or, on a line, bare scalars. A NaN distance is kept, so H
    rejects it instead of the pair vanishing.
    """
    dists = pdist(points.reshape(len(points), -1))
    near = np.flatnonzero(~(dists > cutoff))
    return near, pair_connectedness_many(model, dists[near])


def run_trial(config: McConfig, index: int) -> tuple[bool, int]:
    """One trial: returns (fully connected, number of isolated nodes).

    Depends only on (config.seed, index), never on how many other trials
    run or in what order.  A trial with an isolated node is decided without
    its components.
    """
    rng = _trial_rng(config.seed, index)
    n = int(rng.poisson(config.node_count)) if config.poisson else config.node_count
    if n == 0:
        return True, 0
    points = sample_uniform_rng(config.prism, n, rng)
    if n == 1:
        return True, 1
    near, h = _pairs(points, config.model, config.cutoff)
    linked = near[rng.random(h.size) < h]
    src, dst = _pair_nodes(n, linked)

    degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    isolated = n - int(np.count_nonzero(degree))
    if isolated:
        return False, isolated
    # Each node's link to its lowest lower and to its highest higher neighbour
    # nearly always join a connected graph already, at about a quarter of the
    # unions; all links decide when they do not.
    edges = np.column_stack((src, dst))
    lowest = np.unique(dst, return_index=True)[1]  # first of each dst
    highest = np.flatnonzero(np.append(src[1:] != src[:-1], True))  # src is sorted
    connected, _ = connectivity_check(n, edges[np.concatenate((lowest, highest))])
    if not connected:
        connected, _ = connectivity_check(n, edges)
    return connected, isolated


def run_trials(config: McConfig) -> McEstimate:
    """Estimate P_fc over independent trials with a 95% Wilson interval."""
    connected = 0
    isolated_total = 0
    for t in range(config.trials):
        ok, isolated = run_trial(config, t)
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


def exact_connectivity_probability(points, model: ConnectionModel) -> float:
    """Exact probability the random graph on fixed positions is connected.

    Subset recursion on the component containing the lowest-index node:
    f(S) = 1 - sum over proper subsets T of S containing that node of
    f(T) * prod of (1 - H_ij) across the (T, S - T) cut; tabulated over
    bitmasks, so the cost grows as 3^n and the node count is capped (at 12
    nodes the largest level holds 62 865 (S, T) pairs, a 3.5 MB peak).  The
    sum cancels to rounding error when the nodes cannot connect, so the
    result is clipped to [0, 1].
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
    near, h = _pairs(pts, model)
    ii, jj = _pair_nodes(n, near)
    q = np.ones((n, n))
    q[ii, jj] = q[jj, ii] = 1.0 - h

    # miss[i][mask] = prod over j in mask of (1 - H_ij), one bit at a time:
    # the masks with top bit b are those below 1 << b times 1 - H_ib.
    # popcount[mask] grows the same way.
    miss = np.ones((n, 1 << n))
    popcount = np.zeros(1 << n, dtype=np.intp)
    for b in range(n):
        miss[:, 1 << b : 2 << b] = miss[:, : 1 << b] * q[:, b : b + 1]
        popcount[1 << b : 2 << b] = popcount[: 1 << b] + 1

    # One pass per subset size L, all masks S of that size at once; f of
    # every smaller subset is final by then.  The submasks T of S holding
    # its lowest bit (the anchor) are the anchor plus a choice of S's other
    # L - 1 bits: choice j takes bit k + 1 when bit k of j is set.  Rows run
    # j = 2^(L-1) - 2 down to 0 (T = S left out), T descending, and terms
    # are taken left to right, so each f(S) is the same float sum as a
    # descending walk over submasks.
    f = np.zeros(1 << n)
    f[popcount == 1] = 1.0
    for size in range(2, n + 1):
        masks = np.flatnonzero(popcount == size)
        bits = np.nonzero(masks[:, None] >> np.arange(n) & 1)[1].reshape(-1, size)
        choice = np.arange((1 << (size - 1)) - 2, -1, -1)[:, None]
        select = choice >> np.arange(size - 1) & 1
        subs = (1 << bits[:, 0]) + select @ (1 << bits[:, 1:]).T
        rest = masks ^ subs
        cut = miss[bits[:, 0], rest]
        for k in range(1, size):
            cut *= np.where(select[:, k - 1 : k], miss[bits[:, k], rest], 1.0)
        terms = np.concatenate((np.ones((1, len(masks))), -(f[subs] * cut)))
        f[masks] = np.cumsum(terms, axis=0)[-1]
    return min(1.0, max(0.0, float(f[-1])))


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
    near, h = _pairs(pts, model)
    ii, jj = _pair_nodes(n, near)
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
    # Node-major blocks: the product over nodes multiplies whole rows, in the
    # same node order as a product along each grid point's row.
    cols = max(1, _FIELD_BLOCK_PAIRS // len(pts))
    for start in range(0, len(grid), cols):
        h = pair_connectedness_many(model, cdist(pts, grid[start : start + cols]))
        miss = np.subtract(1.0, h, out=h)
        values[start : start + miss.shape[1]] = 1.0 - np.prod(miss, axis=0)
    return values
