"""Monte Carlo engine: exact oracle chain, determinism, connectivity checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from prismconn import connmass, linkmodels, mc_sim, specfun
from prismconn.connmass import mass_quadrature
from prismconn.errors import DomainError
from prismconn.geometry import cube_prism, house_prism, sample_uniform_rng
from prismconn.linkmodels import (
    H_BLOCK,
    Mimo,
    PathLossParams,
    SimoMiso,
    Siso,
    UnitDisk,
    pair_connectedness,
    pair_connectedness_many,
    support_radius,
)
from prismconn.mc_sim import (
    _BYTES_PER_PAIR,
    _H_BINS,
    _H_SLACK,
    _MAX_NODES,
    _PAIR_TABLE_BYTES,
    Z_95,
    Z_99,
    McConfig,
    McEstimate,
    UnionFind,
    _HCeiling,
    _pair_nodes,
    _miss_matrix,
    _root_graph,
    _subset_recursion,
    _trial_rng,
    connection_field,
    connectivity_check,
    edge_resampling_estimate,
    exact_connectivity_probability,
    run_trial,
    run_trials,
    wilson_interval,
)
from prismconn.validation import (
    bfs_component_count,
    brute_force_connectivity_probability,
)

P2 = PathLossParams(1.0, 2.0, 2)
P3 = PathLossParams(1.0, 2.0, 3)


def bits(values):
    """The float64 bit patterns of values, so equality is bit for bit."""
    return np.asarray(values, dtype=float).view(np.int64)


def stacked_exact(point_sets, model):
    """The exact oracle on one stack of the point sets' 1 - H matrices."""
    return _subset_recursion(
        np.array([_miss_matrix(np.asarray(pts, dtype=float), model) for pts in point_sets])
    )


def h_matrix(points, model):
    n = len(points)
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            h[i, j] = h[j, i] = pair_connectedness(
                model, float(np.linalg.norm(np.asarray(points[i]) - np.asarray(points[j])))
            )
    return h


def test_single_node_always_connected():
    config = McConfig(cube_prism(1.0), Siso(P3), node_count=1, trials=30, seed=3)
    estimate = run_trials(config)
    assert estimate.p_fc_hat == 1.0
    assert estimate.mean_isolated == 1.0


def test_two_nodes_unit_disk_covering_prism():
    # disk radius exceeds the cube diameter, so the pair always links
    model = UnitDisk(2.0, P3)
    config = McConfig(cube_prism(1.0), model, node_count=2, trials=50, seed=9)
    estimate = run_trials(config)
    assert estimate.p_fc_hat == 1.0
    assert estimate.mean_isolated == 0.0


def test_determinism_and_shard_equivalence():
    config = McConfig(house_prism(4.0), Mimo(2, 2, P3), node_count=40, trials=60, seed=77)
    first = run_trials(config)
    second = run_trials(config)
    assert first == second
    # combining per-trial results in any split must reproduce the estimate
    outcomes = [run_trial(config, t) for t in range(config.trials)]
    connected = sum(ok for ok, _ in outcomes)
    assert connected / config.trials == first.p_fc_hat
    shuffled = [run_trial(config, t) for t in reversed(range(config.trials))]
    assert sum(ok for ok, _ in shuffled) == connected


def test_different_seeds_differ():
    base = McConfig(house_prism(4.0), Mimo(2, 2, P3), node_count=40, trials=60, seed=77)
    other = McConfig(house_prism(4.0), Mimo(2, 2, P3), node_count=40, trials=60, seed=78)
    assert run_trials(base) != run_trials(other)


def test_poisson_mode_runs():
    config = McConfig(
        cube_prism(2.0), Siso(P3), node_count=20, trials=40, seed=5, poisson=True
    )
    estimate = run_trials(config)
    assert 0.0 <= estimate.p_fc_hat <= 1.0


def test_config_validation():
    with pytest.raises(DomainError):
        McConfig(cube_prism(1.0), Siso(P3), node_count=0, trials=10, seed=1)
    with pytest.raises(DomainError):
        McConfig(cube_prism(1.0), Siso(P3), node_count=5, trials=0, seed=1)
    with pytest.raises(DomainError):
        McConfig(cube_prism(1.0), Siso(P3), node_count=5, trials=10, seed=-2)
    config = McConfig.from_density(cube_prism(2.0), Siso(P3), rho=1.5, trials=10, seed=1)
    assert config.node_count == 12
    # The pairs of 1644 nodes fit the budget at the measured bytes per pair,
    # of 1645 they do not.
    assert _MAX_NODES == 1644 and _BYTES_PER_PAIR == 74
    assert _BYTES_PER_PAIR * (1644 * 1643 // 2) <= _PAIR_TABLE_BYTES
    assert _BYTES_PER_PAIR * (1645 * 1644 // 2) > _PAIR_TABLE_BYTES
    assert McConfig(cube_prism(1.0), Siso(P3), node_count=1644, trials=1, seed=1)
    with pytest.raises(DomainError, match="node_count 1645 is more than 1644") as info:
        McConfig(cube_prism(1.0), Siso(P3), node_count=1645, trials=1, seed=1)
    assert "pair table fits in 100 MB per trial at 74 bytes per pair" in str(info.value)
    # past Python's int-to-str limit too, and in one short line at any size
    for count in (10**12, 10**2200, 10**5000):
        with pytest.raises(DomainError, match="pair table") as info:
            McConfig(cube_prism(1.0), Siso(P3), node_count=count, trials=1, seed=1)
        assert len(str(info.value)) < 120 and "\n" not in str(info.value)
    with pytest.raises(DomainError, match="pair table"):
        McConfig.from_density(house_prism(7.0), Siso(P3), rho=120.0, trials=1, seed=1)
    # A pair table past a double's range, and a node count that overflows to
    # inf, are refused by the same message.
    for rho in (1e300, 1e308):
        with pytest.raises(DomainError, match="pair table"):
            McConfig.from_density(house_prism(7.0), Siso(P3), rho=rho, trials=1, seed=1)
    assert config.cutoff == support_radius(Siso(P3))


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_from_density_refuses_non_positive_or_non_finite_densities(rho):
    with pytest.raises(DomainError, match="positive finite real"):
        McConfig.from_density(cube_prism(2.0), Siso(P3), rho=rho, trials=10, seed=1)


def test_connectivity_check_examples():
    assert connectivity_check(4, [(0, 1), (1, 2), (2, 3)]) == (True, 1)
    assert connectivity_check(3, []) == (False, 3)
    assert connectivity_check(1, []) == (True, 1)
    with pytest.raises(IndexError):
        connectivity_check(3, [(0, 3)])
    # the bad edge comes after the graph is already one component
    with pytest.raises(IndexError):
        connectivity_check(3, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(IndexError):
        connectivity_check(3, iter([(0, 1), (1, 2), (-1, 0)]))
    with pytest.raises(IndexError):
        connectivity_check(3, np.array([(0, 1), (1, 2), (2, 3)]))
    assert connectivity_check(4, np.array([(0, 1), (2, 3)])) == (False, 2)
    assert connectivity_check(2, np.empty((0, 2), dtype=int)) == (False, 2)


def reference_trial(config, index):
    """One trial the direct way: every pair's distance by norm, every
    component by BFS, no short-cut; same streams and cutoff as run_trial."""
    rng = _trial_rng(config.seed, index)
    n = int(rng.poisson(config.node_count)) if config.poisson else config.node_count
    if n == 0:
        return True, 0
    points = sample_uniform_rng(config.prism, n, rng)
    ii, jj = np.triu_indices(n, k=1)
    dists = np.linalg.norm(points[ii] - points[jj], axis=1)
    near = ~(dists > config.cutoff)
    h = pair_connectedness_many(config.model, dists[near])
    linked = rng.random(h.size) < h
    edges = list(zip(ii[near][linked].tolist(), jj[near][linked].tolist()))
    degree = np.zeros(n, dtype=int)
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    return bfs_component_count(n, edges) == 1, int((degree == 0).sum())


def test_run_trial_matches_reference_trial():
    configs = [
        McConfig(cube_prism(1.0), Siso(P3), node_count=1, trials=10, seed=4),
        McConfig(cube_prism(2.0), Siso(P3), node_count=2, trials=20, seed=5),
        McConfig(cube_prism(2.0), Siso(P3), node_count=2, trials=50, seed=6, poisson=True),
        McConfig(house_prism(4.0), Mimo(2, 2, P3), node_count=40, trials=60, seed=77),
        McConfig(
            house_prism(7.0), Mimo(2, 2, P3), node_count=120, trials=60, seed=8, poisson=True
        ),
    ]
    sizes = set()
    for config in configs:
        for t in range(config.trials):
            assert run_trial(config, t) == reference_trial(config, t), (config, t)
            rng = _trial_rng(config.seed, t)
            sizes.add(int(rng.poisson(config.node_count)) if config.poisson else config.node_count)
    assert sum(c.trials for c in configs) == 200
    assert {0, 1, 2} <= sizes


def unbuffered_trial(config, index):
    """The trial body on fresh arrays: new distances, pairs in range and
    uniforms for every trial, and one unblocked H call."""
    rng = _trial_rng(config.seed, index)
    n = int(rng.poisson(config.node_count)) if config.poisson else config.node_count
    if n == 0:
        return True, 0
    points = sample_uniform_rng(config.prism, n, rng)
    if n == 1:
        return True, 1
    dists = pdist(points)
    near = np.flatnonzero(~(dists > config.cutoff))
    h = config.model.h(dists[near])
    linked = near[rng.random(h.size) < h]
    src, dst = _pair_nodes(n, linked)
    isolated = n - int(np.count_nonzero(np.bincount(np.concatenate((src, dst)), minlength=n)))
    if isolated:
        return False, isolated
    return connectivity_check(n, np.column_stack((src, dst)))[0], 0


TRIAL_MODELS = [Mimo(2, 2, P3), Siso(P3), SimoMiso(3, P3)]


@pytest.mark.parametrize("block", [1, 7, 10**9])
@pytest.mark.parametrize("model", TRIAL_MODELS, ids=["mimo", "siso", "simo"])
def test_buffered_trials_match_unbuffered_reference(monkeypatch, model, block):
    # house L = 3 holds about 43 nodes per unit density; block 1 and 7 put H
    # block edges everywhere and leave a ragged last block
    monkeypatch.setattr(linkmodels, "H_BLOCK", block)
    trials = 6 if block == 1 else 30
    for rho in (0.2, 0.6, 1.4):
        for poisson in (False, True):
            config = McConfig.from_density(house_prism(3.0), model, rho, trials, 21, poisson)
            expected = [unbuffered_trial(config, t) for t in range(trials)]
            assert [run_trial(config, t) for t in range(trials)] == expected, (rho, poisson)
            connected = sum(ok for ok, _ in expected)
            estimate = run_trials(config)
            assert (estimate.p_fc_hat, estimate.mean_isolated) == (
                connected / trials, sum(iso for _, iso in expected) / trials
            )


def test_buffered_trials_match_at_the_benchmark_size():
    # N = 373 in the house: about 46k pairs in range, three H blocks
    config = McConfig.from_density(house_prism(7.0), Mimo(2, 2, P3), 0.87, 4, 5, True)
    assert [run_trial(config, t) for t in range(4)] == [
        unbuffered_trial(config, t) for t in range(4)
    ]


@pytest.mark.parametrize("block", [1, 7, 16_384, H_BLOCK, 10**9])
@pytest.mark.parametrize(
    "model",
    TRIAL_MODELS[:2] + [SimoMiso(1, P3), UnitDisk(1.2, P3)],
    ids=["mimo", "siso", "simo1", "unitdisk"],
)
def test_pair_connectedness_many_bits_with_and_without_out(monkeypatch, model, block):
    """Blocked H is bitwise one H call on the whole array, at any block size."""
    monkeypatch.setattr(linkmodels, "H_BLOCK", block)
    rng = np.random.default_rng(block)
    count = 40 if block == 1 else 3 * H_BLOCK + 5
    flat = rng.random(count) * 6.0
    flat[:3] = (0.0, 1.2, np.nextafter(1.2, 0.0))
    for r in (flat, flat[: count - count % 5].reshape(5, -1)):
        blocked = pair_connectedness_many(model, r)
        assert blocked.shape == r.shape
        assert blocked.tobytes() == model.h(r).tobytes()


def test_run_trials_reuses_one_pair_table(monkeypatch):
    model = Mimo(2, 2, P3)
    h_sizes, many_calls, tables = [], [], []
    original_h, original_many, original_pdist = Mimo.h, mc_sim.pair_connectedness_many, mc_sim.pdist

    def spy_h(self, r, work=None):
        h_sizes.append(np.size(r))
        return original_h(self, r, work)

    def spy_many(*args, **kwargs):
        many_calls.append(1)
        return original_many(*args, **kwargs)

    def spy_pdist(points, out=None):
        tables.append(out)
        return original_pdist(points, out=out)

    monkeypatch.setattr(Mimo, "h", spy_h)
    monkeypatch.setattr(mc_sim, "pair_connectedness_many", spy_many)
    monkeypatch.setattr(mc_sim, "pdist", spy_pdist)
    monkeypatch.setattr(linkmodels, "H_BLOCK", 64)
    for poisson in (False, True):
        config = McConfig(cube_prism(2.0), model, 12, 40, 3, poisson)
        for log in (h_sizes, many_calls, tables):
            log.clear()
        run_trials(config)
        sizes = []
        for t in range(config.trials):
            rng = _trial_rng(config.seed, t)
            sizes.append(int(rng.poisson(12)) if poisson else 12)
        assert max(h_sizes) <= 64
        assert len(many_calls) == len(tables) == sum(n >= 2 for n in sizes)
        # one buffer per new largest pair count; every other trial reuses it
        bases = [table.base for table in tables]
        pairs = [n * (n - 1) // 2 for n in sizes if n >= 2]
        records = sum(p > max(pairs[:i], default=-1) for i, p in enumerate(pairs))
        assert len({id(b) for b in bases}) == records
        if not poisson:
            assert records == 1 and all(b is bases[0] for b in bases)


CEILING_MODELS = [
    Mimo(2, 2, P3),
    Mimo(2, 512, P3),
    Mimo(64, 2, PathLossParams(1.0, 4.0, 3)),
    Siso(P3),
    SimoMiso(3, P3),
    SimoMiso(57, PathLossParams(0.05, 2.0, 3)),  # rises by an ulp near the floor
    UnitDisk(1.2, P3),  # jumps an ulp below the cutoff
    UnitDisk(1.2, PathLossParams(40.0, 2.0, 3)),  # jumps at the cutoff, the last knot
]


@pytest.mark.parametrize(
    "model", CEILING_MODELS,
    ids=["mimo2", "mimo512", "mimo64-eta4", "siso", "simo3", "simo57", "disk", "disk-knot"],
)
def test_h_ceiling_bounds_h_in_every_bin(model):
    cutoff = support_radius(model)
    ceiling = _HCeiling(model, cutoff)
    knots = np.arange(_H_BINS + 1) * (cutoff / _H_BINS)
    assert knots[-1] == cutoff
    if isinstance(model, UnitDisk):
        assert model.radius in (cutoff, np.nextafter(cutoff, 0.0))
    rng = np.random.default_rng(17)
    r = np.concatenate((
        rng.random(10**6) * cutoff,
        knots,
        np.nextafter(knots, 0.0),
        np.nextafter(knots, math.inf),
    ))
    r = r[(r >= 0.0) & (r <= cutoff)]
    top = ceiling(r, np.empty(r.size, dtype=np.intp), out=np.empty(r.size))
    h = model.h(r)
    assert (h <= top).all()
    # H's own excess over the knots is rounding, far inside the slack
    assert (h - (top - _H_SLACK)).max() < 1e-12


class _RisingH:
    """Not a link model: H rising in r, which the two-knot maximum still bounds."""

    def h(self, r):
        return np.minimum(1.0, np.asarray(r) / 6.0)


def test_h_ceiling_takes_the_larger_knot_of_each_bin():
    ceiling = _HCeiling(_RisingH(), 6.0)
    r = np.nextafter(np.arange(1, _H_BINS + 1) * (6.0 / _H_BINS), 0.0)  # just below knot k + 1
    top = ceiling(r, np.empty(r.size, dtype=np.intp), out=np.empty(r.size))
    assert (_RisingH().h(r) <= top).all()


def test_root_graph_matches_bfs_on_split_graphs_without_isolated_nodes():
    rng = np.random.default_rng(23)
    splits = 0
    for _ in range(200):
        n = int(rng.integers(2, 120))
        group = rng.integers(0, rng.integers(1, 6), n)  # a few node groups, interleaved
        ii, jj = np.triu_indices(n, k=1)
        same = group[ii] == group[jj]
        keep = same & (rng.random(ii.size) < rng.uniform(0.0, 4.0) / n)
        # every node gets a neighbour in its group, if it has one
        for v in range(n):
            mates = np.flatnonzero(group == group[v])
            if mates.size > 1:
                w = int(rng.choice(mates[mates != v]))
                keep[(ii == min(v, w)) & (jj == max(v, w))] = True
        src, dst = ii[keep], jj[keep]
        edges = list(zip(src.tolist(), dst.tolist()))
        degree = np.bincount(np.concatenate((src, dst)), minlength=n)
        if not degree.all():
            continue  # a lone node in its group: the trial never gets here
        count, root_edges = _root_graph(n, src, dst)
        # the roots are the nodes with no neighbour below them
        assert count == n - np.unique(dst).size and root_edges.shape[1] == 2
        assert len({tuple(e) for e in root_edges.tolist()}) == len(root_edges)
        assert (root_edges[:, 0] < root_edges[:, 1]).all()
        components = bfs_component_count(n, edges)
        assert connectivity_check(count, root_edges) == (components == 1, components)
        splits += components > 1
    assert splits > 50


def test_nan_distance_in_range_is_refused_before_binning(monkeypatch):
    config = McConfig(cube_prism(2.0), Mimo(2, 2, P3), node_count=6, trials=1, seed=2)

    def sample_with_nan(prism, n, rng):
        points = sample_uniform_rng(prism, n, rng)
        points[3, 1] = np.nan
        return points

    def no_binning(*args):
        raise AssertionError("a NaN distance reached the ceiling")

    monkeypatch.setattr(mc_sim, "sample_uniform_rng", sample_with_nan)
    monkeypatch.setattr(_HCeiling, "__call__", no_binning)
    with np.errstate(invalid="raise"), pytest.raises(DomainError, match="distances"):
        run_trial(config, 0)


def test_trial_evaluates_h_on_few_of_its_pairs_in_range(monkeypatch):
    # the benchmark's densest house: about 46k pairs in range per trial, of
    # which about 7.5% are undecided by the ceiling
    in_range, evaluated = [], []
    original_check, original_many = mc_sim._check_distance, mc_sim.pair_connectedness_many

    def spy_check(model, r):
        in_range.append(np.size(r))
        return original_check(model, r)

    def spy_many(model, r, *args, **kwargs):
        evaluated.append(np.size(r))
        return original_many(model, r, *args, **kwargs)

    config = McConfig.from_density(house_prism(7.0), Mimo(2, 2, P3), 0.87, 10, 11)
    monkeypatch.setattr(mc_sim, "_check_distance", spy_check)
    monkeypatch.setattr(mc_sim, "pair_connectedness_many", spy_many)
    run_trials(config)
    assert len(in_range) == len(evaluated) == 10
    assert sum(in_range) > 10 * 40_000
    assert sum(evaluated) <= 0.1 * sum(in_range)


def test_union_find_against_bfs():
    rng = np.random.default_rng(60)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        ii, jj = np.triu_indices(n, k=1)
        keep = rng.random(ii.size) < rng.uniform(0.0, 3.0) / n
        edges = list(zip(ii[keep].tolist(), jj[keep].tolist()))
        connected, count = connectivity_check(n, edges)
        assert count == bfs_component_count(n, edges)
        assert connected == (count == 1)


def test_union_find_path_compression():
    uf = UnionFind(6)
    for i in range(5):
        uf.union(i, i + 1)
    root = uf.find(0)
    assert all(uf.find(i) == root for i in range(6))
    assert all(uf.parent[i] == root for i in range(6))  # fully compressed
    assert uf.components == 1


def test_exact_two_nodes():
    pts = [(0.0, 0.0, 0.0), (1.3, 0.0, 0.0)]
    model = Mimo(2, 2, P3)
    assert exact_connectivity_probability(pts, model) == pytest.approx(
        pair_connectedness(model, 1.3), rel=1e-14
    )
    assert exact_connectivity_probability([0.0, 1.3], model) == (
        exact_connectivity_probability(pts, model)
    )


def test_exact_three_equidistant_nodes():
    # equilateral triangle: all pair probabilities equal p, so the
    # connectivity probability is p^3 + 3 p^2 (1 - p)
    side = 1.1
    pts = [
        (0.0, 0.0, 0.0),
        (side, 0.0, 0.0),
        (side / 2, side * math.sqrt(3) / 2, 0.0),
    ]
    model = Siso(P3)
    p = pair_connectedness(model, side)
    expected = p**3 + 3 * p**2 * (1 - p)
    assert exact_connectivity_probability(pts, model) == pytest.approx(
        expected, rel=1e-13
    )


ORACLE_MODELS = [
    Mimo(2, 2, PathLossParams(0.35, 2.0, 3)),
    Siso(PathLossParams(0.5, 2.0, 3)),
    SimoMiso(3, PathLossParams(0.4, 3.0, 3)),
    UnitDisk(1.4, P3),
]


def test_exact_against_brute_force():
    rng = np.random.default_rng(123)
    prism = house_prism(3.0)
    model = Mimo(2, 2, PathLossParams(0.4, 2.0, 3))
    for _ in range(300):
        n = int(rng.integers(2, 6))
        pts = sample_uniform_rng(prism, n, rng)
        exact = exact_connectivity_probability(pts, model)
        brute = brute_force_connectivity_probability(h_matrix(pts, model))
        assert abs(exact - brute) < 1e-12
    # six nodes: 15 pairs, 32 768 edge subsets, every link model
    for model in ORACLE_MODELS:
        for _ in range(8):
            pts = sample_uniform_rng(prism, 6, rng)
            exact = exact_connectivity_probability(pts, model)
            brute = brute_force_connectivity_probability(h_matrix(pts, model))
            assert abs(exact - brute) < 1e-12


def test_exact_size_cap():
    pts = [(float(i), 0.0, 0.0) for i in range(13)]
    with pytest.raises(DomainError):
        exact_connectivity_probability(pts, Siso(P3))
    assert exact_connectivity_probability([(0.0, 0.0, 0.0)], Siso(P3)) == 1.0


def test_oracles_reject_non_finite_points():
    pts = [(0.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (1.0, 0.0, 0.0)]
    with pytest.raises(DomainError):
        exact_connectivity_probability(pts, Siso(P3))
    with pytest.raises(DomainError):
        edge_resampling_estimate(pts, Siso(P3), 10, 1)


def reference_exact(points, model):
    """The subset recursion one mask at a time, walking submasks downwards,
    on scalar H of each `pdist` distance."""
    dists = pdist(np.asarray(points, dtype=float))
    return reference_recursion(1.0 - squareform([pair_connectedness(model, r) for r in dists]))


def reference_recursion(q):
    """`reference_exact` on q[i, j] = 1 - H_ij, with q[i, i] = 1."""
    n = len(q)
    miss = [[1.0] * (1 << n) for _ in range(n)]  # miss[i][mask]: prod of q[i, j], j in mask
    for i in range(n):
        for mask in range(1, 1 << n):
            top = mask.bit_length() - 1
            miss[i][mask] = miss[i][mask ^ (1 << top)] * q[i, top]
    f = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            f[mask] = 1.0
            continue
        anchor = mask & -mask
        prob = 1.0
        sub = (mask - 1) & mask
        while sub:
            if sub & anchor:
                rest = mask ^ sub
                cut = 1.0
                for i in range(n):
                    if sub >> i & 1:
                        cut *= miss[i][rest]
                prob -= f[sub] * cut
            sub = (sub - 1) & mask
        f[mask] = prob
    return f[-1]


def reference_brute_force(h):
    """Edge subsets one at a time, each decided by breadth-first search."""
    n = len(h)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0.0
    for mask in range(1 << len(pairs)):
        prob = 1.0
        edges = []
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                prob *= h[i, j]
                edges.append((i, j))
            else:
                prob *= 1.0 - h[i, j]
        if bfs_component_count(n, edges) <= 1:
            total += prob
    return total


def test_exact_matches_loop_reference():
    # Same products and sums in the same order, so equal to the last bit.
    rng = np.random.default_rng(2024)
    for n in range(2, 13):
        for model in ORACLE_MODELS[: 4 if n < 11 else 1]:
            pts = sample_uniform_rng(house_prism(3.0), n, rng)
            p = exact_connectivity_probability(pts, model)
            ref = reference_exact(pts, model)
            assert p == min(1.0, max(0.0, ref)), (n, model)


def cutoff_route(points, model):
    """The oracles' pairs as the trials take theirs: `pdist`, a cutoff mask
    (infinite, so every pair), `H` of the pairs kept and `_pair_nodes`."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    dists = pdist(pts.reshape(n, -1))
    near = np.flatnonzero(~(dists > math.inf))
    ii, jj = _pair_nodes(n, near)
    return ii, jj, pair_connectedness_many(model, dists[near])


def reference_outcomes(n, ii, jj, h, resamples, seed):
    """(connected, isolated) of each redraw, one at a time, each by BFS."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for _ in range(resamples):
        linked = rng.random(h.size) < h
        outcomes.append((
            int(bfs_component_count(n, zip(ii[linked], jj[linked])) == 1),
            n - len(set(ii[linked].tolist()) | set(jj[linked].tolist())),
        ))
    return outcomes


def reference_resampling(n, ii, jj, h, resamples, seed):
    """(connected, isolated) totals over `reference_outcomes`."""
    outcomes = reference_outcomes(n, ii, jj, h, resamples, seed)
    return tuple(sum(column) for column in zip(*outcomes))


@pytest.mark.parametrize(
    "model", [ORACLE_MODELS[0], ORACLE_MODELS[1], ORACLE_MODELS[3]],
    ids=["mimo", "siso", "unitdisk"],
)
def test_oracles_match_the_cutoff_route(model):
    # Each oracle takes every pair straight from pdist: the same H, in the
    # same (i, j) order, as the cutoff route, so the same bits out.
    rng = np.random.default_rng(31)
    for n in range(2, 13):
        for pts in (rng.random(n) * 4.0, sample_uniform_rng(house_prism(3.0), n, rng)):
            ii, jj, h = cutoff_route(pts, model)
            q = np.ones((n, n))
            q[ii, jj] = q[jj, ii] = 1.0 - h
            expected = min(1.0, max(0.0, reference_recursion(q)))
            assert exact_connectivity_probability(pts, model) == expected, (n, pts.ndim)
            estimate = edge_resampling_estimate(pts, model, 200, seed=n)
            connected, isolated = reference_resampling(n, ii, jj, h, 200, n)
            assert (estimate.p_fc_hat, estimate.mean_isolated) == (
                connected / 200, isolated / 200
            ), (n, pts.ndim)


def test_brute_force_matches_loop_reference():
    rng = np.random.default_rng(99)
    by_size = {}
    for n in (0, 1, 2, 3, 3, 4, 4, 5, 5, 6):
        h = rng.random((n, n))
        h[rng.random((n, n)) < 0.2] = 0.0
        h[rng.random((n, n)) < 0.2] = 1.0
        assert brute_force_connectivity_probability(h) == reference_brute_force(h), h
        by_size.setdefault(n, []).append(h)
    # the matrices of each size as one stack: the same bits per matrix
    for n, hs in by_size.items():
        expected = [brute_force_connectivity_probability(h) for h in hs]
        assert np.array_equal(bits(brute_force_connectivity_probability(np.array(hs))),
                              bits(expected)), n


def test_oracles_where_h_is_zero_or_one():
    # H is exactly 1 between coincident points and exactly 0 between the
    # two clusters, 30 apart (beyond every model's support radius).  The
    # sets of each size also go through each oracle as one stack.
    model = Mimo(2, 2, P3)
    assert 30.0 > support_radius(model)
    for n in range(2, 13):
        together = np.tile([1.0, 2.0, 0.5], (n, 1))
        assert exact_connectivity_probability(together, model) == 1.0
        sets, expected = [together], [1.0]
        for split in range(1, n):
            apart = together.copy()
            apart[split:, 0] += 30.0
            assert exact_connectivity_probability(apart, model) == 0.0
            assert exact_connectivity_probability(apart[::-1], model) == 0.0
            sets += [apart, apart[::-1]]
            expected += [0.0, 0.0]
            if n <= 6:
                h = h_matrix(apart, model)
                assert set(np.unique(h)) <= {0.0, 1.0}
                assert brute_force_connectivity_probability(h) == 0.0
        if n <= 6:
            assert brute_force_connectivity_probability(h_matrix(together, model)) == 1.0
            stack = np.array([h_matrix(pts, model) for pts in sets])
            assert np.array_equal(bits(brute_force_connectivity_probability(stack)),
                                  bits(expected))
        assert np.array_equal(bits(stacked_exact(sets, model)), bits(expected))
    # Spread clusters: the brute force sums no subset at all, while the
    # recursion cancels to rounding error (down to -1.7e-16 unclipped).
    rng = np.random.default_rng(1)
    for n in range(3, 7):
        pts = rng.random((n, 3))
        pts[n // 2 :, 0] += 30.0
        assert 0.0 <= exact_connectivity_probability(pts, model) < 1e-15
        assert brute_force_connectivity_probability(h_matrix(pts, model)) == 0.0


@pytest.mark.parametrize(
    "h",
    [
        np.array([[0.0, np.nan], [np.nan, 0.0]]),
        np.array([[0.0, 1.5], [1.5, 0.0]]),
        np.full((2, 3), 0.5),
        np.array([[0.0, -0.25], [-0.25, 0.0]]),
        np.array([[0.0, np.inf], [np.inf, 0.0]]),
        np.full(3, 0.5),
        np.stack([np.full((3, 3), 0.5), np.full((3, 3), np.nan)]),
        np.stack([np.full((3, 3), 1.5), np.full((3, 3), 0.5)]),
        np.full((2, 2, 3), 0.5),
        np.full((1, 2, 2, 2), 0.5),
    ],
    ids=["nan", "above-one", "not-square", "negative", "infinite", "one-dimensional",
         "stack-nan", "stack-above-one", "stack-not-square", "four-dimensional"],
)
def test_brute_force_rejects_malformed_h(h):
    with pytest.raises(DomainError):
        brute_force_connectivity_probability(h)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(ORACLE_MODELS),
    data=st.data(),
)
def test_exact_is_invariant_under_relabelling(n, seed, model, data):
    # A relabelling moves which node anchors each subset and which bit is on top.
    pts = sample_uniform_rng(house_prism(3.0), n, np.random.default_rng(seed))
    order = data.draw(st.permutations(range(n)))
    p = exact_connectivity_probability(pts, model)
    assert abs(exact_connectivity_probability(pts[order], model) - p) <= 1e-12


def test_edge_resampling_matches_exact():
    rng = np.random.default_rng(77)
    prism = house_prism(3.0)
    model = Mimo(2, 2, PathLossParams(0.3, 2.0, 3))
    # five random sizes, then the exact oracle's cap, where the top bit fills
    for size in (None,) * 5 + (12,):
        n = size or int(rng.integers(4, 9))
        pts = sample_uniform_rng(prism, n, rng)
        exact = exact_connectivity_probability(pts, model)
        resamples = 30_000
        estimate = edge_resampling_estimate(pts, model, resamples, seed=int(rng.integers(1 << 30)))
        sigma = math.sqrt(max(exact * (1 - exact), 1e-10) / resamples)
        assert abs(estimate.p_fc_hat - exact) < 4.0 * sigma


def test_edge_resampling_counts_past_255_neighbours():
    # Node 0 reaches the far node only through a 256-node cluster; every
    # link has H = 1, so the graph is one component in every resample.  A
    # reachability product in uint8 would count the far node's 256 reached
    # neighbours as 0 and call it disconnected.
    model = UnitDisk(1.0, P3)
    rng = np.random.default_rng(3)
    cluster = np.array([0.9, 0.0, 0.0]) + rng.uniform(-5e-4, 5e-4, size=(256, 3))
    pts = np.vstack([[0.0, 0.0, 0.0], cluster, [1.8, 0.0, 0.0]])
    ii, jj = np.triu_indices(len(pts), k=1)
    h = pair_connectedness_many(model, np.linalg.norm(pts[ii] - pts[jj], axis=1))
    assert set(np.unique(h)) == {0.0, 1.0}
    assert bfs_component_count(len(pts), zip(ii[h == 1.0], jj[h == 1.0])) == 1
    estimate = edge_resampling_estimate(pts, model, resamples=4, seed=1)
    assert estimate.p_fc_hat == 1.0
    assert estimate.mean_isolated == 0.0


@pytest.mark.parametrize("n", [2, 3, 10, 12, 258])
def test_edge_resampling_does_not_depend_on_chunking(n, monkeypatch):
    # One resample per chunk, every resample in one chunk and the default
    # chunking give the same estimate, field by field, as a BFS on each row
    # of the same uniforms.  At 258 nodes a node has more than 255 neighbours.
    rng = np.random.default_rng(n)
    pts = sample_uniform_rng(house_prism(3.0 if n < 100 else 7.0), n, rng)
    model = Mimo(2, 2, PathLossParams(1.0, 2.0, 3))
    resamples = 2000 if n < 100 else 40
    estimates = [edge_resampling_estimate(pts, model, resamples, seed=n)]
    for uniforms in (1, 1 << 40):
        monkeypatch.setattr(mc_sim, "_RESAMPLE_UNIFORMS", uniforms)
        estimates.append(edge_resampling_estimate(pts, model, resamples, seed=n))
    assert estimates[1] == estimates[0] == estimates[2]
    connected, isolated = reference_resampling(n, *cutoff_route(pts, model), resamples, n)
    assert 0 < connected < resamples
    low, high = wilson_interval(connected, resamples)
    assert estimates[0] == McEstimate(
        connected / resamples, resamples, low, high, isolated / resamples
    )


RESAMPLING_HOUSE = {2: 3.0, 3: 3.0, 65: 6.0, 258: 7.0}


def resampling_inputs(n):
    """n nodes in a house of the side `RESAMPLING_HOUSE` gives, where from 65
    nodes some resamples connect and some do not."""
    pts = sample_uniform_rng(house_prism(RESAMPLING_HOUSE[n]), n, np.random.default_rng(n))
    return pts, Mimo(2, 2, PathLossParams(1.0, 2.0, 3))


@pytest.mark.parametrize("per_chunk", [None, 5], ids=["default", "5-per-chunk"])
@pytest.mark.parametrize("n", [2, 3, 65, 258])
def test_bit_sliced_resampling_matches_bfs_at_word_edges(n, per_chunk, monkeypatch):
    # Resample counts around one and two 64-bit words: 63 leaves a word's top
    # bit undrawn, 65 and 129 start a word with one resample.  Five resamples
    # per chunk end most chunks in the middle of a word; at 258 nodes the
    # default chunk is one resample.  The first k redraws of one stream are
    # the first k of any longer run, so one BFS run gives every count.
    pts, model = resampling_inputs(n)
    ii, jj, h = cutoff_route(pts, model)
    if per_chunk:
        monkeypatch.setattr(mc_sim, "_RESAMPLE_UNIFORMS", per_chunk * h.size)
    outcomes = reference_outcomes(n, ii, jj, h, 129, n)
    for resamples in (1, 63, 64, 65, 129):
        connected, isolated = (sum(c) for c in zip(*outcomes[:resamples]))
        low, high = wilson_interval(connected, resamples)
        expected = McEstimate(connected / resamples, resamples, low, high, isolated / resamples)
        assert edge_resampling_estimate(pts, model, resamples, seed=n) == expected, resamples
    if n > 3:
        assert 0 < sum(c for c, _ in outcomes[:63]) < 63


@pytest.mark.parametrize("resamples", [1, 64, 129, 5000])
def test_edge_resampling_of_two_far_clusters_never_connects(resamples):
    # Coincident nodes link with H = 1 and nodes 30 apart with H = 0, so
    # every resample is two clusters of 40 and 30 nodes and two lone nodes:
    # never connected, exactly two isolated nodes each time.
    model = Mimo(2, 2, P3)
    nodes = [(1.0, 1.0, 1.0)] * 40 + [(31.0, 1.0, 1.0)] * 30 + [(1.0, 31.0, 1.0), (1.0, 1.0, 31.0)]
    assert set(np.unique(cutoff_route(nodes, model)[2])) == {0.0, 1.0}
    estimate = edge_resampling_estimate(nodes, model, resamples, seed=9)
    assert estimate == McEstimate(0.0, resamples, *wilson_interval(0, resamples), 2.0)


def test_exact_oracle_does_not_depend_on_blocking(monkeypatch):
    # 12 nodes: the default splits the largest levels; 1 makes every mask
    # its own block and 2^30 every level one block.
    rng = np.random.default_rng(12)
    model = Mimo(2, 2, PathLossParams(0.35, 2.0, 3))
    sets = [sample_uniform_rng(house_prism(3.0), 12, rng) for _ in range(2)]
    expected = [exact_connectivity_probability(pts, model) for pts in sets]
    assert all(0.0 < p < 1.0 for p in expected)
    # The two sets as one stack give the same bits, whatever the blocking.
    assert np.array_equal(bits(stacked_exact(sets, model)), bits(expected))
    for block in (1, 1 << 30):
        monkeypatch.setattr(mc_sim, "_EXACT_BLOCK", block)
        assert [exact_connectivity_probability(pts, model) for pts in sets] == expected
        assert np.array_equal(bits(stacked_exact(sets, model)), bits(expected))


def test_oracle_working_sets_stay_small():
    # tracemalloc sees numpy's allocations: 10^5 edge resamples at 10 nodes
    # peaked at 11.5 MB, and the exact oracle at 12 nodes at 3.5 MB, when
    # neither ran in bounded chunks.  A stack of 50 five-node sets, the size
    # `validate` takes, goes through each oracle at once.  From 257 nodes an
    # edge-resampling block holds one word, whose n x n adjacency words take
    # the most: 200 resamples at 258 nodes peak at 2.2 MB (1.23 MB with a bool
    # adjacency per resample).
    rng = np.random.default_rng(7)
    model = Mimo(2, 2, PathLossParams(0.35, 2.0, 3))
    ten, twelve = (sample_uniform_rng(house_prism(3.0), n, rng) for n in (10, 12))
    fives = [sample_uniform_rng(house_prism(3.0), 5, rng) for _ in range(50)]
    q_stack = np.array([_miss_matrix(pts, model) for pts in fives])
    h_stack = np.array([h_matrix(pts, model) for pts in fives])
    many, many_model = resampling_inputs(258)
    for call, bound in (
        (lambda: edge_resampling_estimate(ten, model, 100_000, seed=3), 2_000_000),
        (lambda: exact_connectivity_probability(twelve, model), 2_000_000),
        (lambda: _subset_recursion(q_stack), 2_000_000),
        (lambda: brute_force_connectivity_probability(h_stack), 2_000_000),
        (lambda: edge_resampling_estimate(many, many_model, 200, seed=3), 2_500_000),
    ):
        call()  # one-time allocations (numpy, scipy) before measuring
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_edge_resampling_validation():
    with pytest.raises(DomainError):
        edge_resampling_estimate([(0.0, 0.0, 0.0)], Siso(P3), 100, 1)
    with pytest.raises(DomainError):
        edge_resampling_estimate(
            [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], Siso(P3), 0, 1
        )


def test_edge_resampling_refuses_a_pair_table_past_the_budget(monkeypatch):
    # 1645 nodes would take about 100 MB of pair tables; the refusal comes
    # before `pdist`, so neither node count here allocates one.
    class Reached(Exception):
        pass

    calls = []

    def spy_pdist(pts):
        calls.append(len(pts))
        raise Reached

    monkeypatch.setattr(mc_sim, "pdist", spy_pdist)
    with pytest.raises(Reached):
        edge_resampling_estimate(np.zeros((_MAX_NODES, 3)), Siso(P3), 10, 1)
    assert calls == [_MAX_NODES]
    with pytest.raises(DomainError, match=rf"at most {_MAX_NODES} nodes.*100 MB.*got 1645"):
        edge_resampling_estimate(np.zeros((_MAX_NODES + 1, 3)), Siso(P3), 10, 1)
    assert calls == [_MAX_NODES]


@pytest.mark.parametrize("count", [2.5, True, "3"])
def test_counts_must_be_integers(count):
    pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    with pytest.raises(DomainError, match="resamples"):
        edge_resampling_estimate(pts, Siso(P3), count, 1)
    with pytest.raises(DomainError, match="trials"):
        McConfig(cube_prism(1.0), Siso(P3), node_count=5, trials=count, seed=1)
    with pytest.raises(DomainError, match="node_count"):
        McConfig(cube_prism(1.0), Siso(P3), node_count=count, trials=10, seed=1)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
def test_seed_must_be_a_non_negative_integer(seed):
    pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    with pytest.raises(DomainError, match="seed"):
        edge_resampling_estimate(pts, Siso(P3), 10, seed)
    with pytest.raises(DomainError, match="seed"):
        McConfig(cube_prism(1.0), Siso(P3), node_count=5, trials=10, seed=seed)


def test_wilson_interval_properties():
    low, high = wilson_interval(50, 100)
    assert low <= 0.5 <= high
    low1, high1 = wilson_interval(500, 1000)
    assert high1 - low1 < high - low  # shrinks with trials
    low_d, high_d = wilson_interval(1, 1)
    assert 0.0 <= low_d <= 1.0 == high_d
    with pytest.raises(DomainError):
        wilson_interval(5, 0)
    with pytest.raises(DomainError):
        wilson_interval(5, 4)


@pytest.mark.parametrize("z", [Z_95, Z_99])
def test_wilson_interval_holds_p_hat_inside_unit_interval(z):
    # At 0 or n successes the closed form's rounding used to leave p_hat
    # outside the interval or the interval outside [0, 1].
    bad = []
    for n in range(1, 3001):
        for s in (0, n):
            low, high = wilson_interval(s, n, z)
            if not 0.0 <= low <= s / n <= high <= 1.0:
                bad.append((s, n, low, high))
    assert bad == []
    assert wilson_interval(0, 50, z)[0] == 0.0 and wilson_interval(50, 50, z)[1] == 1.0


def test_run_trials_ci_brackets_estimate():
    config = McConfig(house_prism(4.0), Mimo(2, 2, P3), node_count=30, trials=80, seed=15)
    estimate = run_trials(config)
    assert estimate.ci_low <= estimate.p_fc_hat <= estimate.ci_high


def test_connection_field_trivia():
    model = Siso(P3)
    pts = np.array([[2.0, 3.0]])
    value = connection_field(pts, Siso(PathLossParams(1.0, 2.0, 2)), [[2.0, 3.0]])
    assert value[0] == 1.0
    # all nodes beyond the disk radius: field is exactly zero
    disk = UnitDisk(1.0, PathLossParams(1.0, 2.0, 2))
    far = connection_field(np.array([[10.0, 10.0]]), disk, [[0.0, 0.0]])
    assert far[0] == 0.0
    empty = connection_field(np.empty((0, 2)), disk, [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(empty, np.zeros(2))


def test_connection_field_lower_bound():
    rng = np.random.default_rng(8)
    pts = rng.random((12, 2)) * 5.0
    grid = rng.random((40, 2)) * 5.0
    model = Siso(PathLossParams(1.0, 2.0, 2))
    field = connection_field(pts, model, grid)
    for g, v in zip(grid, field):
        best = max(
            pair_connectedness(model, float(np.linalg.norm(g - p))) for p in pts
        )
        assert v >= best - 1e-12
        assert 0.0 <= v <= 1.0


def reference_field(points, model, grid):
    """The field by broadcast differences and `norm` over 2M-element blocks."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.empty(len(grid))
    chunk = max(1, 2_000_000 // len(pts))
    for start in range(0, len(grid), chunk):
        block = grid[start : start + chunk]
        d = np.linalg.norm(block[:, None, :] - pts[None, :, :], axis=2)
        h = pair_connectedness_many(model, d.ravel()).reshape(d.shape)
        values[start : start + len(block)] = 1.0 - np.prod(1.0 - h, axis=1)
    return values


def lattice(lo, hi, n):
    """`field`'s lattice: n points per axis over the box, in `ij` order."""
    axes = [np.linspace(a, b, n) for a, b in zip(lo, hi)]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def benchmark_field_inputs(domain, nodes, rng):
    """Nodes and grid of a benchmark field: `field --prism house --L 7` at
    grid 24, or criterion 8's square of side 10 at grid 200."""
    if domain == "house 24":
        prism = house_prism(7.0)
        grid = lattice(*prism.bounding_box, 24)
        return sample_uniform_rng(prism, nodes, rng), grid[prism.contains_many(grid)]
    return rng.random((nodes, 2)) * 10.0, lattice((0.0, 0.0), (10.0, 10.0), 200)


@pytest.mark.parametrize(
    "model, nodes, grid_count",
    [
        (Siso(P2), 150, 1000),
        (Mimo(2, 2, P3), 120, 900),
        (SimoMiso(3, PathLossParams(0.7, 3.0, 3)), 90, 777),
        (UnitDisk(1.2, P2), 60, 641),
        (Siso(P2), 1, 300),
        (Siso(P2), 16_387, 5),  # blocks of one grid point, each under H_BLOCK
        (Mimo(2, 2, P3), 343, "house 24"),  # the shapes the benchmark times
        (Siso(P2), 150, "square 200"),
        (Siso(P2), H_BLOCK + 3, 5),  # blocks of one grid point, each over H_BLOCK
        (Siso(P2), 16_383, 5),  # blocks of two grid points, then one
    ],
)
def test_connection_field_matches_reference(model, nodes, grid_count):
    dim = model.params.dim
    if isinstance(grid_count, str):
        pts, grid = benchmark_field_inputs(grid_count, nodes, np.random.default_rng(nodes))
    else:
        rng = np.random.default_rng(nodes + grid_count)
        pts = rng.random((nodes, dim)) * 6.0
        grid = rng.random((grid_count, dim)) * 6.0
    if isinstance(model, UnitDisk):
        grid[:nodes, 0] = pts[:, 0] + model.radius  # distances at or next to the radius
        grid[:nodes, 1:] = pts[:, 1:]
    cols = max(1, H_BLOCK // nodes)
    assert len(grid) % cols != 0 or cols == 1  # a short last block
    values = connection_field(pts, model, grid)
    assert values.tobytes() == reference_field(pts, model, grid).tobytes()


@pytest.mark.parametrize(
    "model, nodes, domain, masks",
    [
        (Mimo(2, 2, P3), 343, "house 24", 0),
        (Siso(P2), 150, "square 200", 0),
        (UnitDisk(1.2, P2), 150, "square 200", 1),
    ],
    ids=["house-mimo", "square-siso", "square-disk"],
)
def test_connection_field_works_in_one_small_workspace(model, nodes, domain, masks):
    # the benchmark's shapes: beside its result, a call holds one workspace
    # of H_WORK blocks (1 MB for MIMO, 0.25 MB for SISO and the unit disk),
    # the unit disk's bool mask of a block, and little else
    pts, grid = benchmark_field_inputs(domain, nodes, np.random.default_rng(nodes))
    connection_field(pts, model, grid)
    tracemalloc.start()
    try:
        values = connection_field(pts, model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes <= model.H_WORK * H_BLOCK * 8 + masks * H_BLOCK + 16_384


@pytest.mark.parametrize("nodes", [1, 40, H_BLOCK + 3])
def test_connection_field_of_no_grid_points_is_empty(nodes):
    # a CLI slab whose lattice points all lie outside the prism
    pts = np.random.default_rng(nodes).random((nodes, 3)) * 4.0
    for model in SAFETY_MODELS:
        values = connection_field(pts, model, np.empty((0, 3)))
        assert values.shape == (0,) and values.dtype == float


def _read_only(values):
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


SAFETY_MODELS = [Siso(P3), SimoMiso(3, P3), Mimo(2, 2, P3), Mimo(2, 7, P3), UnitDisk(1.2, P3)]


@pytest.mark.parametrize(
    "model", SAFETY_MODELS, ids=["siso", "simo3", "mimo2", "mimo7", "disk"]
)
def test_h_never_writes_into_an_array_its_caller_passed(monkeypatch, model):
    # Every input below is read-only, so a write into one raises.  H itself,
    # the blocked entry point on one block and on three, the field, the
    # ceiling, and the quadrature's nodes as H is handed them.
    rng = np.random.default_rng(9)
    for r in (_read_only(rng.random(500) * 4.0), _read_only(rng.random((3, H_BLOCK)) * 4.0)):
        expected = model.h(r.copy())
        assert model.h(r).tobytes() == expected.tobytes()
        assert pair_connectedness_many(model, r).tobytes() == expected.tobytes()
    pts, grid = _read_only(rng.random((40, 3)) * 4.0), _read_only(rng.random((900, 3)) * 4.0)
    assert connection_field(pts, model, grid).tobytes() == (
        connection_field(pts.copy(), model, grid.copy()).tobytes()
    )
    cutoff = support_radius(model)
    r = _read_only(rng.random(1000) * cutoff)
    _HCeiling(model, cutoff)(r, np.empty(r.size, dtype=np.intp), out=np.empty(r.size))
    expected = mass_quadrature(model)
    real = connmass.pair_connectedness_many
    monkeypatch.setattr(
        connmass, "pair_connectedness_many", lambda m, nodes: real(m, _read_only(nodes))
    )
    assert mass_quadrature(model) == expected


def test_a_trial_reads_its_distances_once(monkeypatch):
    # one min and one max over the pairs in range, and none over the
    # undecided ones H then takes, or over H's own x
    config = McConfig.from_density(house_prism(7.0), Mimo(2, 2, P3), 0.87, 5, 11)
    reads, checked_max = [], specfun._checked_max

    def read(x):
        reads.append(np.size(x))
        return checked_max(x)

    monkeypatch.setattr(specfun, "_checked_max", read)
    run_trials(config)
    assert len(reads) == 5 and min(reads) > 40_000


def test_connection_field_dimension_mismatch():
    with pytest.raises(DomainError):
        connection_field(np.zeros((3, 2)), Siso(P3), np.zeros((4, 3)))


def test_point_sets_are_read_one_way():
    # Bare scalars are points on a line for the field as for the oracles,
    # not the coordinates of one point.
    model = Siso(PathLossParams(1.0, 2.0, 1))
    column = connection_field([[0.0], [1.3]], model, [[0.5], [1.0]])
    assert column == pytest.approx([0.895, 0.946], abs=5e-4)
    assert connection_field([0.0, 1.3], model, [0.5, 1.0]).tobytes() == column.tobytes()
    assert np.array_equal(connection_field([], model, [0.5, 1.0]), np.zeros(2))
    cube = np.zeros((2, 1, 3))
    with pytest.raises(DomainError, match="3-D"):
        connection_field(cube, model, [[0.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match="3-D"):
        connection_field([[0.0, 0.0, 0.0]], model, cube)
    with pytest.raises(DomainError, match="3-D"):
        exact_connectivity_probability(cube, model)
    with pytest.raises(DomainError, match="3-D"):
        edge_resampling_estimate(cube, model, 10, 1)


def test_first_order_outage_consistency():
    # at high density the outage is driven by single isolated nodes
    config = McConfig.from_density(
        house_prism(7.0), Mimo(2, 2, P3), rho=0.8, trials=1500, seed=2025
    )
    estimate = run_trials(config)
    p_out = 1.0 - estimate.p_fc_hat
    assert estimate.mean_isolated > 0.0
    assert 0.7 <= p_out / estimate.mean_isolated <= 1.3
