"""Monte Carlo verification of full connectivity.

Trials draw a fixed number of uniform node positions in a prism, realize
each link independently with probability H(distance), and test whether the
resulting graph is one component.  A trial evaluates H only where a
tabulated ceiling on H leaves its link undecided, and runs union-find only
on the roots of a forest of links.  Per-trial random streams are derived
from (seed, trial index) through a splittable generator, so results do not
depend on how trials are scheduled across workers.  A subset-recursion
oracle, tabulated over bitmasks one subset size at a time, gives the exact
connectivity probability for small fixed configurations, one or a stack of
them at a time, and the connection-probability field of a node set can be
evaluated on arbitrary grids.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import DomainError
from .geometry import RightPrism, check_integer, check_seed, sample_uniform_rng
from .linkmodels import (
    H_BLOCK,
    ConnectionModel,
    _check_distance,
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
# Uniforms per chunk of edge resampling (512 KB of float64).  Measured with
# tracemalloc, a call peaks at 0.6 to 0.8 MB from 2 to 64 nodes, mostly the
# chunk's uniforms, whose buffer then holds their shifted link bits.  From
# 257 nodes a chunk holds one resample and a block one word, and a call
# peaks at about 66 bytes per pair (2.2 MB at 258 nodes): the n x n index
# table, adjacency words and masked adjacency (16 each; the uniforms share
# the last one's buffer), H and the block's words (8 each).  By `ru_maxrss`
# a call of 600 to 1500 nodes peaked 73 bytes per pair, within a trial's
# `_BYTES_PER_PAIR`, so it takes at most `_MAX_NODES` nodes too.
_RESAMPLE_UNIFORMS = 1 << 16
# The most (S, T) entries the exact oracle tabulates at once.  Only levels
# from 11 nodes up are split; at 12 nodes a call peaks at 1.4 MB, where one
# pass over the largest level (62 865 entries) peaked at 3.5 MB.
_EXACT_BLOCK = 1 << 14
# Bytes a trial's per-pair arrays may take, and what they take per pair at
# worst: with every pair in range and undecided, and every one linked (cube
# of side 2, MIMO 2x2 at beta = 0.01, or a unit disk of radius 4), one trial
# of 1500 or 2500 nodes peaked 74 or 73 bytes per pair above its
# configuration (`ru_maxrss`): the `_PairTable` buffers (33), the pairs in
# range and the undecided ones (8 each), H of those (8), then the linked
# ones and their `pdist` indices (8 each).
_PAIR_TABLE_BYTES = 100_000_000
_BYTES_PER_PAIR = 74
# The most nodes whose pairs fit: n (n - 1) / 2 pairs at most budget / bytes.
_MAX_NODES = (1 + math.isqrt(1 + 8 * (_PAIR_TABLE_BYTES // _BYTES_PER_PAIR))) // 2
# H's ceiling over [0, cutoff] is tabulated in this many equal distance bins,
# each raised by the slack (see `_HCeiling`).
_H_BINS = 4096
_H_SLACK = 1e-9

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

    Returns (connected, component count); the count is exact whenever it is
    above one.  `edges` is an (m, 2) integer array or any iterable of pairs;
    every edge is bounds-checked before the first union, and unions stop
    once one component remains.  A trial calls it once, on the graph of its
    forest roots (`_root_graph`).
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
    """Wilson score interval for a binomial proportion, holding p_hat, within [0, 1]."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = p_hat + z * z / (2.0 * trials)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, (center - half) / denom)
    high = 1.0 if successes == trials else min(1.0, (center + half) / denom)
    return low, high


class _HCeiling:
    """An upper bound on H over [0, cutoff], tabulated in `_H_BINS` equal bins.

    Bin k spans knots k and k + 1, knot k lying at k * cutoff / `_H_BINS`.
    Its ceiling is the larger H of the two, which bounds a non-increasing H
    on the bin, plus `_H_SLACK`: H's rounding can rise by an ulp, and a
    distance within a few ulps of a knot can round into the bin on its other
    side.  A jump
    in H at a knot below the cutoff would defeat the slack; the models' one
    jump, the unit disk's, lies at the cutoff or an ulp below it.
    """

    def __init__(self, model: ConnectionModel, cutoff: float):
        knots = np.arange(_H_BINS + 1) * (cutoff / _H_BINS)
        # unchecked: the knots end at the cutoff, where `support_radius` has
        # found beta * r^eta a double
        h = model.h(knots)
        self.table = np.maximum(h[:-1], h[1:]) + _H_SLACK
        # at most the largest double, so r * scale stays finite for any
        # r <= cutoff; a smaller scale only moves r to a lower bin, whose
        # ceiling is no lower
        self.scale = min(_H_BINS / cutoff, sys.float_info.max)

    def __call__(self, r: np.ndarray, bins: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The ceiling of each distance's bin, in `out`; `bins` gets the bins.

        `r` must hold checked distances of at most the cutoff; `bins` is an
        intp array and `out` a float array of r's size.
        """
        np.multiply(r, self.scale, out=out)
        np.copyto(bins, out, casting="unsafe")  # truncates: r >= 0
        # mode="clip" maps r = cutoff to the last bin and writes straight into out
        return np.take(self.table, bins, mode="clip", out=out)


@dataclass(frozen=True)
class McConfig:
    """A full-connectivity experiment: prism, link model, N, trials, seed.

    `cutoff` and `ceiling` are derived: the model's support radius, beyond
    which no pair is evaluated, and the ceiling on H below it that decides
    most links without H.
    """

    prism: RightPrism
    model: ConnectionModel
    node_count: int
    trials: int
    seed: int
    poisson: bool = False
    cutoff: float = field(init=False, compare=False, repr=False)
    ceiling: _HCeiling = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_integer(self.node_count, "node_count", 1)
        if self.node_count > _MAX_NODES:
            # the count itself only while it is short: it can have any size
            count = self.node_count
            shown = f"{count}" if count < 10**9 else f"about 10^{math.log10(count):.0f}"
            raise DomainError(
                f"node_count {shown} is more than {_MAX_NODES}, the most whose pair "
                f"table fits in {_PAIR_TABLE_BYTES // 10**6} MB per trial "
                f"at {_BYTES_PER_PAIR} bytes per pair"
            )
        check_integer(self.trials, "trials", 1)
        check_seed(self.seed)
        cutoff = support_radius(self.model)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "ceiling", _HCeiling(self.model, cutoff))

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
        if not (math.isfinite(rho) and rho > 0.0):
            raise DomainError(f"density must be a positive finite real, got {rho}")
        # A count past the largest double stops there, far above the node cap.
        count = min(rho * prism.volume, sys.float_info.max)
        return cls(prism, model, round(count), trials, seed, poisson)


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


def _points(values) -> np.ndarray:
    """A point set as floats, one point per row; a 1-D input is points on a line."""
    pts = np.asarray(values, dtype=float)
    if pts.ndim not in (1, 2):
        raise DomainError(f"a point set must be 1-D or 2-D, got {pts.ndim}-D")
    return pts[:, None] if pts.ndim == 1 else pts


def _pair_nodes(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the pairs i < j of n nodes at condensed (`pdist`) indices k."""
    starts = np.zeros(n - 1, dtype=np.intp)  # condensed index of (i, i + 1)
    np.cumsum(np.arange(n - 1, 1, -1), out=starts[1:])
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


class _PairTable:
    """A trial's link draw over its pairs in range, in reused buffers.

    The buffers grow to the largest pair count seen, so the trials of one run
    fault their pages in once: arrays this large are handed back to the OS
    when freed, and fresh ones would be faulted in again by every trial.
    """

    def __init__(self) -> None:
        self._grow(0)

    def _grow(self, pairs: int) -> None:
        self.dists, self.r, self.u = (np.empty(pairs) for _ in range(3))
        self.bins = np.empty(pairs, dtype=np.intp)
        self.mask = np.empty(pairs, dtype=bool)

    def links(self, points: np.ndarray, config: McConfig, rng: np.random.Generator):
        """The `pdist` indices of the pairs i < j that link, in ascending order.

        Each pair at most `config.cutoff` apart links with probability H of its
        distance, by one uniform each, drawn in pair order.  A uniform at or
        above its bin's ceiling decides the pair unlinked; H is evaluated, in
        one call, only on the pairs below it.  Every distance in range is
        checked first, and only there (a NaN one is kept in range, so it is
        refused instead of the pair vanishing).
        """
        n = len(points)
        size = n * (n - 1) // 2
        if size > self.dists.size:
            self._grow(size)
        dists = pdist(points, out=self.dists[:size])
        far = np.greater(dists, config.cutoff, out=self.mask[:size])
        near = np.flatnonzero(np.logical_not(far, out=far))
        # mode="clip" writes straight into out; "raise" would buffer it
        r = np.take(dists, near, out=self.r[: near.size], mode="clip")
        _check_distance(config.model, r)
        u = rng.random(out=self.u[: near.size])
        # the distances are taken, so their buffer holds the ceilings
        ceiling = config.ceiling(r, self.bins[: near.size], out=self.dists[: near.size])
        undecided = np.flatnonzero(np.less(u, ceiling, out=self.mask[: near.size]))
        h = pair_connectedness_many(config.model, r[undecided], checked=True)
        return near[undecided[u[undecided] < h]]


def _root_graph(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, np.ndarray]:
    """The graph on n nodes with links (src < dst), its trees contracted.

    Each node points at its lowest neighbour below it, or at itself; the
    pointers form a forest of links, and each tree becomes its root.  Returns
    the root count and the distinct links between different roots, renumbered
    0..count - 1: a graph with as many components as the original.
    """
    low = np.arange(n)
    np.minimum.at(low, dst, src)
    while True:  # pointer jumping: each pass doubles the hops a pointer skips
        up = low[low]
        if np.array_equal(up, low):
            break
        low = up
    is_root = low == np.arange(n)
    count = int(np.count_nonzero(is_root))
    label = (np.cumsum(is_root) - 1)[low]
    a, b = label[src], label[dst]
    cross = a != b
    a, b = a[cross], b[cross]
    # Each link between roots once: most repeat a pair of trees, and on the
    # mc_house shapes union-find over every cross link ran 485 trials/s
    # against 622.  Sorted, then each first of a run: np.unique is several
    # times slower here.
    codes = np.sort(np.minimum(a, b) * count + np.maximum(a, b))
    first = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    codes = codes[first]
    return count, np.column_stack((codes // count, codes % count))


def run_trial(config: McConfig, index: int) -> tuple[bool, int]:
    """One trial: returns (fully connected, number of isolated nodes).

    Depends only on (config.seed, index), never on how many other trials
    run or in what order.  A trial with an isolated node is decided without
    its components.
    """
    return _trial(config, index, _PairTable())


def _trial(config: McConfig, index: int, table: _PairTable) -> tuple[bool, int]:
    """`run_trial` on the given pair table.

    The node count, the positions and each pair's uniform come from the
    trial's stream in that order.  Isolated nodes are counted from the
    links first; only a trial without one runs union-find, on the graph of
    its forest roots.
    """
    rng = _trial_rng(config.seed, index)
    n = int(rng.poisson(config.node_count)) if config.poisson else config.node_count
    if n == 0:
        return True, 0
    points = sample_uniform_rng(config.prism, n, rng)
    if n == 1:
        return True, 1
    src, dst = _pair_nodes(n, table.links(points, config, rng))

    degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    isolated = n - int(np.count_nonzero(degree))
    if isolated:
        return False, isolated
    return connectivity_check(*_root_graph(n, src, dst))[0], 0


def run_trials(config: McConfig) -> McEstimate:
    """Estimate P_fc over independent trials with a 95% Wilson interval."""
    connected = 0
    isolated_total = 0
    table = _PairTable()
    for t in range(config.trials):
        ok, isolated = _trial(config, t, table)
        connected += ok
        isolated_total += isolated
    return _estimate(connected, config.trials, isolated_total)


def _estimate(connected: int, trials: int, isolated_total: int) -> McEstimate:
    """The estimate of `trials` draws, `connected` of them connected, with
    `isolated_total` isolated nodes among them."""
    low, high = wilson_interval(connected, trials)
    return McEstimate(connected / trials, trials, low, high, isolated_total / trials)


def exact_connectivity_probability(points, model: ConnectionModel) -> float:
    """Exact probability the random graph on fixed positions is connected.

    Subset recursion on the component containing the lowest-index node:
    f(S) = 1 - sum over proper subsets T of S containing that node of
    f(T) * prod of (1 - H_ij) across the (T, S - T) cut; tabulated over
    bitmasks, so the cost grows as 3^n and the node count is capped (at 12
    nodes, taken in blocks of at most 2^14 (S, T) pairs, a 1.4 MB peak).  The
    sum cancels to rounding error when the nodes cannot connect, so the
    result is clipped to [0, 1].  This is `_subset_recursion` on a stack of
    one.
    """
    pts = _points(points)
    n = len(pts)
    if n == 0:
        raise DomainError("point set must be non-empty")
    if n > _EXACT_MAX_NODES:
        raise DomainError(
            f"exact oracle supports at most {_EXACT_MAX_NODES} nodes, got {n}"
        )
    if n == 1:
        return 1.0
    return float(_subset_recursion(_miss_matrix(pts, model)[None])[0])


def _miss_matrix(pts: np.ndarray, model: ConnectionModel) -> np.ndarray:
    """1 - H_ij of every pair of the points, from `pdist` and the vector H."""
    return 1.0 - squareform(pair_connectedness_many(model, pdist(pts)))


def _subset_recursion(q: np.ndarray) -> np.ndarray:
    """`exact_connectivity_probability` of each matrix in a stack q of 1 - H.

    q has shape (B, n, n), n >= 1, with any diagonal; entry b of the result
    is, bit for bit, what the stack of q[b] alone gives.  The stack shares
    its mask tables and one pass per subset size.  It peaks at the 8 B n 2^n
    bytes of cut products (`miss`) plus one block of at most `_EXACT_BLOCK`
    (S, T) entries across the stack (one mask's, if more), about 1 MB: 1.4 MB
    for one 12-node set, 2.5 MB for four.
    """
    stack, n = len(q), q.shape[-1]
    # miss[:, i, mask] = prod over j in mask of (1 - H_ij), one bit at a
    # time: the masks with top bit b are those below 1 << b times 1 - H_ib.
    # popcount[mask] grows the same way.
    miss = np.ones((stack, n, 1 << n))
    popcount = np.zeros(1 << n, dtype=np.intp)
    for b in range(n):
        miss[:, :, 1 << b : 2 << b] = miss[:, :, : 1 << b] * q[:, :, b : b + 1]
        popcount[1 << b : 2 << b] = popcount[: 1 << b] + 1
    # miss[:, i, mask] is flat[:, (i << n) + mask]: one `take` per bit.
    flat = miss.reshape(stack, n << n)

    # One pass per subset size L, all masks S of that size at once; f of
    # every smaller subset is final by then.  The submasks T of S holding
    # its lowest bit (the anchor) are the anchor plus a choice of S's other
    # L - 1 bits: choice j takes bit k + 1 when bit k of j is set.  Rows run
    # j = 2^(L-1) - 2 down to 0 (T = S left out), T descending, and terms
    # are taken left to right, so each f(S) is the same float sum as a
    # descending walk over submasks.  A row's cut multiplies in the factor
    # of each bit it chooses, in bit order, and skips the others.  Each mask
    # is one column, so a level runs in blocks of columns of at most
    # `_EXACT_BLOCK` entries across the stack with the same float operations.
    f = np.zeros((stack, 1 << n))
    f[:, popcount == 1] = 1.0
    for size in range(2, n + 1):
        level = np.flatnonzero(popcount == size)
        choice = np.arange((1 << (size - 1)) - 2, -1, -1)[:, None]
        select = (choice >> np.arange(size - 1) & 1).astype(bool)
        cols = max(1, _EXACT_BLOCK // (stack * len(select)))
        for start in range(0, len(level), cols):
            masks = level[start : start + cols]
            bits = np.nonzero(masks[:, None] >> np.arange(n) & 1)[1].reshape(-1, size)
            subs = (1 << bits[:, 0]) + select @ (1 << bits[:, 1:]).T
            rest = masks ^ subs
            cut = np.take(flat, (bits[:, 0] << n) + rest, axis=1)
            for k in range(1, size):
                factor = np.take(flat, (bits[:, k] << n) + rest, axis=1)
                np.multiply(cut, factor, out=cut, where=select[:, k - 1 : k])
            terms = np.concatenate((np.ones((stack, 1, len(masks))), -(f[:, subs] * cut)), axis=1)
            f[:, masks] = np.cumsum(terms, axis=1)[:, -1]
    return np.clip(f[:, -1], 0.0, 1.0)


def _popcount(words: np.ndarray) -> int:
    """The number of set bits in a contiguous uint64 array."""
    return int(np.count_nonzero(np.unpackbits(words.view(np.uint8))))


def _block_counts(block: np.ndarray, index: np.ndarray, scratch: np.ndarray) -> tuple[int, int]:
    """(connected, linked nodes) over a block of bit-sliced resamples.

    `block` holds one row of link words per 64 resamples, a column per
    pair and a last column of 0; bits past the resamples drawn are 0.
    `index` is the n x n table of each adjacency entry's column, and
    `scratch` a uint64 buffer of at least block rows x n^2 entries.
    Returns the resamples whose graph is connected, and the sum over
    resamples of the nodes with a link.  Each round ORs into every node's
    reach the reach of its neighbours, one AND and one OR reduction over
    the block, until no reach grows: at most n - 1 rounds.
    """
    adj = block.take(index, axis=1)
    masked = scratch[: adj.size].reshape(adj.shape)
    linked = _popcount(np.bitwise_or.reduce(adj, axis=2))
    reach = np.zeros(adj.shape[:2], dtype=np.uint64)
    reach[:, 0] = ~np.uint64(0)
    for _ in range(len(index) - 1):
        np.bitwise_and(adj, reach[:, None, :], out=masked)
        grown = np.bitwise_or.reduce(masked, axis=2)
        grown |= reach
        if np.array_equal(grown, reach):
            break
        reach = grown
    # Node 0 holds every bit, the others only bits of resamples drawn.
    return _popcount(np.bitwise_and.reduce(reach, axis=1)), linked


def edge_resampling_estimate(
    points, model: ConnectionModel, resamples: int, seed: int
) -> McEstimate:
    """Connectivity frequency over edge redraws at fixed node positions.

    Each resample draws one uniform per pair, in `pdist` order, from one
    stream seeded by `seed`; pair (i, j) links when its uniform is below
    H.  The resamples are bit-sliced: bit r of a pair's uint64 word holds
    its link in resample r of that word, so a reachability round over a
    block of words is one AND and one OR reduction (`_block_counts`), and
    the connected and isolated counts are popcounts.  Uniforms are drawn in
    chunks of about `_RESAMPLE_UNIFORMS`, one resample at least, each row
    packed into its bit as it is drawn; a block holds as many whole words
    as a chunk fills, one at least.  So the working set does not grow with
    `resamples` (0.7 MB at 10 nodes, 2.2 MB at 258), and the stream is read
    in the same order whatever the chunk size, so results do not depend on
    it.
    """
    pts = _points(points)
    n = len(pts)
    if n < 2:
        raise DomainError(f"edge resampling needs at least 2 nodes, got {n}")
    if n > _MAX_NODES:
        raise DomainError(
            f"edge resampling takes at most {_MAX_NODES} nodes, whose pair tables fit "
            f"in {_PAIR_TABLE_BYTES // 10**6} MB at {_BYTES_PER_PAIR} bytes per pair; got {n}"
        )
    resamples = check_integer(resamples, "resamples", 1)
    rng = np.random.default_rng(check_seed(seed))
    h = pair_connectedness_many(model, pdist(pts))
    pairs = h.size

    # Column of each adjacency entry in a block of link words: (i, j) and
    # (j, i) map to their pair's `pdist` column, the diagonal to the last
    # column, which stays 0.
    index = squareform(np.arange(pairs))
    np.fill_diagonal(index, pairs)

    per_chunk = max(1, _RESAMPLE_UNIFORMS // pairs)
    words = max(1, min(per_chunk // 64, -(-resamples // 64)))
    chunk = min(per_chunk, 64 * words, resamples)
    # One buffer holds a chunk's uniforms, then their shifted link bits, and
    # once a block is drawn, its adjacency masked by the nodes reached.
    work = np.empty(max(chunk * pairs, words * n * n), dtype=np.uint64)
    u = work[: chunk * pairs].view(float).reshape(chunk, pairs)
    links = np.empty((chunk, pairs), dtype=bool)
    block = np.empty((words, pairs + 1), dtype=np.uint64)
    lanes = np.arange(64, dtype=np.uint64)[:, None]  # each row's bit in its word
    connected = 0
    isolated_total = 0
    done = 0
    while done < resamples:
        size = min(64 * words, resamples - done)
        block.fill(0)
        for start in range(0, size, chunk):
            rows = min(chunk, size - start)
            np.less(rng.random(out=u[:rows]), h, out=links[:rows])
            # Row r's links go to bit (start + r) % 64 of word (start + r) // 64,
            # shifted in the spent uniforms' buffer and OR-ed into their words.
            # A chunk of 64 rows or more is its block's only one: its whole
            # words first, then any part of the next.  A smaller one lies in
            # the block's one word.
            bits = u[:rows].view(np.uint64)
            full = rows >> 6
            if full:
                whole = bits[: 64 * full].reshape(full, 64, pairs)
                np.left_shift(links[: 64 * full].reshape(whole.shape), lanes, out=whole)
                np.bitwise_or.reduce(whole, axis=1, out=block[:full, :pairs])
            if rows > 64 * full:
                lane = start & 63
                part = bits[64 * full :]
                np.left_shift(links[64 * full : rows], lanes[lane : lane + len(part)], out=part)
                block[full, :pairs] |= np.bitwise_or.reduce(part, axis=0)
        ok, linked_nodes = _block_counts(block[: -(-size // 64)], index, work)
        connected += ok
        isolated_total += size * n - linked_nodes
        done += size
    return _estimate(connected, resamples, isolated_total)


def connection_field(points, model: ConnectionModel, grid_points) -> np.ndarray:
    """Probability that a node at each grid point would link to any node.

    field(x) = 1 - prod over nodes i of (1 - H(|x - r_i|)); zero when the
    node set is empty or entirely out of range.  Points and grid points are
    rows of coordinates or, on a line, bare scalars.
    """
    grid = _points(grid_points)
    pts = _points(points)
    if pts.size == 0:
        return np.zeros(len(grid))
    if pts.shape[1] != grid.shape[1]:
        raise DomainError(
            f"points are {pts.shape[1]}-dimensional but grid is {grid.shape[1]}-dimensional"
        )
    values = np.empty(len(grid))
    # Node-major blocks of at most H_BLOCK pairs.  One workspace serves every
    # block: its `cdist` distances, which H overwrites with itself and then
    # with 1 - H, and the model's temporaries.  The product over nodes
    # multiplies whole rows, in the same node order as a product along each
    # grid point's row.
    nodes = len(pts)
    cols = max(1, min(H_BLOCK // nodes, len(grid)))  # one column even for no grid
    work = np.empty((model.H_WORK, nodes * cols))
    full = [row.reshape(nodes, cols) for row in work]
    for start in range(0, len(grid), cols):
        block = grid[start : start + cols]
        views = full if len(block) == cols else [
            row[: nodes * len(block)].reshape(nodes, -1) for row in work
        ]
        dists = cdist(pts, block, out=views[0])
        _check_distance(model, dists)
        miss = model.h(dists, views)
        np.subtract(1.0, miss, out=miss)
        hit = np.prod(miss, axis=0, out=values[start : start + len(block)])
        np.subtract(1.0, hit, out=hit)
    return values
