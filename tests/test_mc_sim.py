"""Monte Carlo engine: exact oracle chain, determinism, connectivity checks."""

import math

import numpy as np
import pytest

from prismconn.errors import DomainError
from prismconn.geometry import cube_prism, house_prism, sample_uniform_rng
from prismconn.linkmodels import (
    Mimo,
    PathLossParams,
    Siso,
    UnitDisk,
    pair_connectedness,
    pair_connectedness_many,
)
from prismconn.mc_sim import (
    McConfig,
    UnionFind,
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


def test_connectivity_check_examples():
    assert connectivity_check(4, [(0, 1), (1, 2), (2, 3)]) == (True, 1)
    assert connectivity_check(3, []) == (False, 3)
    assert connectivity_check(1, []) == (True, 1)
    with pytest.raises(IndexError):
        connectivity_check(3, [(0, 3)])


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


def test_exact_size_cap():
    pts = [(float(i), 0.0, 0.0) for i in range(13)]
    with pytest.raises(DomainError):
        exact_connectivity_probability(pts, Siso(P3))
    assert exact_connectivity_probability([(0.0, 0.0, 0.0)], Siso(P3)) == 1.0


def test_edge_resampling_matches_exact():
    rng = np.random.default_rng(77)
    prism = house_prism(3.0)
    model = Mimo(2, 2, PathLossParams(0.3, 2.0, 3))
    for _ in range(5):
        n = int(rng.integers(4, 9))
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
