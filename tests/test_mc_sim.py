"""Monte Carlo engine: exact oracle chain, determinism, connectivity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismconn.errors import DomainError
from prismconn.geometry import cube_prism, house_prism, sample_uniform_rng
from prismconn.linkmodels import (
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
    _FIELD_BLOCK_PAIRS,
    _PAIR_TABLE_BYTES,
    McConfig,
    UnionFind,
    _pair_nodes,
    _pairs,
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
    # The condensed pair table of 5000 nodes fits the budget, of 5001 it does not.
    assert 8 * (5000 * 4999 // 2) <= _PAIR_TABLE_BYTES < 8 * (5001 * 5000 // 2)
    assert McConfig(cube_prism(1.0), Siso(P3), node_count=5000, trials=1, seed=1)
    with pytest.raises(DomainError, match="pair table"):
        McConfig(cube_prism(1.0), Siso(P3), node_count=5001, trials=1, seed=1)
    with pytest.raises(DomainError, match="pair table"):
        McConfig.from_density(house_prism(7.0), Siso(P3), rho=120.0, trials=1, seed=1)
    assert config.cutoff == support_radius(Siso(P3))


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
    """The subset recursion one mask at a time, walking submasks downwards."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    near, h = _pairs(pts, model)
    ii, jj = _pair_nodes(n, near)
    q = np.ones((n, n))
    q[ii, jj] = q[jj, ii] = 1.0 - h
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


def test_brute_force_matches_loop_reference():
    rng = np.random.default_rng(99)
    for n in (0, 1, 2, 3, 3, 4, 4, 5, 5, 6):
        h = rng.random((n, n))
        h[rng.random((n, n)) < 0.2] = 0.0
        h[rng.random((n, n)) < 0.2] = 1.0
        assert brute_force_connectivity_probability(h) == reference_brute_force(h), h


def test_oracles_where_h_is_zero_or_one():
    # H is exactly 1 between coincident points and exactly 0 between the
    # two clusters, 30 apart (beyond every model's support radius).
    model = Mimo(2, 2, P3)
    assert 30.0 > support_radius(model)
    for n in range(2, 13):
        together = np.tile([1.0, 2.0, 0.5], (n, 1))
        assert exact_connectivity_probability(together, model) == 1.0
        for split in range(1, n):
            apart = together.copy()
            apart[split:, 0] += 30.0
            assert exact_connectivity_probability(apart, model) == 0.0
            assert exact_connectivity_probability(apart[::-1], model) == 0.0
            if n <= 6:
                h = h_matrix(apart, model)
                assert set(np.unique(h)) <= {0.0, 1.0}
                assert brute_force_connectivity_probability(h) == 0.0
        if n <= 6:
            assert brute_force_connectivity_probability(h_matrix(together, model)) == 1.0
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
    ],
    ids=["nan", "above-one", "not-square", "negative", "infinite", "one-dimensional"],
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


def test_edge_resampling_validation():
    with pytest.raises(DomainError):
        edge_resampling_estimate([(0.0, 0.0, 0.0)], Siso(P3), 100, 1)
    with pytest.raises(DomainError):
        edge_resampling_estimate(
            [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], Siso(P3), 0, 1
        )


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
        (Siso(P2), _FIELD_BLOCK_PAIRS + 3, 5),  # blocks of one grid point
        (Mimo(2, 2, P3), 343, "house 24"),  # the shapes the benchmark times
        (Siso(P2), 150, "square 200"),
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
    cols = max(1, _FIELD_BLOCK_PAIRS // nodes)
    assert len(grid) % cols != 0 or cols == 1  # a short last block
    values = connection_field(pts, model, grid)
    assert values.tobytes() == reference_field(pts, model, grid).tobytes()


def test_connection_field_dimension_mismatch():
    with pytest.raises(DomainError):
        connection_field(np.zeros((3, 2)), Siso(P3), np.zeros((4, 3)))


def test_first_order_outage_consistency():
    # at high density the outage is driven by single isolated nodes
    config = McConfig.from_density(
        house_prism(7.0), Mimo(2, 2, P3), rho=0.8, trials=1500, seed=2025
    )
    estimate = run_trials(config)
    p_out = 1.0 - estimate.p_fc_hat
    assert estimate.mean_isolated > 0.0
    assert 0.7 <= p_out / estimate.mean_isolated <= 1.3
