"""Acceptance suite: nine criteria, one test each, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 8 is a known-red check: the property is implemented
exactly as required and the measured success rate falls short; the README
carries the analysis.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from prismconn.cli import main as cli_main
from prismconn.connmass import (
    error_order_fit,
    loglog_slope,
    mass_quadrature,
    mass_scaling_leading,
)
from prismconn.geometry import BoundaryFeature, house_prism, sample_uniform_rng
from prismconn.linkmodels import (
    Mimo,
    PathLossParams,
    SimoMiso,
    Siso,
    mimo_gamma_form,
    pair_connectedness,
    pair_connectedness_mimo_det,
)
from prismconn.mc_sim import (
    Z_99,
    McConfig,
    connection_field,
    connectivity_check,
    edge_resampling_estimate,
    exact_connectivity_probability,
    run_trials,
    wilson_interval,
)
from prismconn.pfc_analytic import assemble, feature_contribution
from prismconn.validation import (
    bfs_component_count,
    brute_force_connectivity_probability,
)

SQRT2 = math.sqrt(2.0)
PI = math.pi


def report(num, passed, detail):
    print(f"\n[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_1_cross_form_agreement():
    start = time.time()
    worst = 0.0
    grid = np.linspace(0.0, 5.0, 50)
    for n in range(2, 9):
        for beta in (0.5, 1.0, 2.0):
            for eta in (2.0, 3.0, 4.0):
                params = PathLossParams(beta, eta, 3)
                model = Mimo(2, n, params)
                for r in grid:
                    r = float(r)
                    expansion = pair_connectedness(model, r)
                    det = pair_connectedness_mimo_det(2, n, params, r)
                    gamma_form = mimo_gamma_form(n, params, r)
                    worst = max(worst, abs(expansion - det), abs(expansion - gamma_form))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"max abs divergence {worst:.2e} across 9450 points in {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_2_mass_oracle():
    start = time.time()
    worst = 0.0
    cases = 0
    for d in (1, 2, 3):
        for eta in (2.0, 3.0, 4.0):
            for beta in (0.5, 1.0, 2.0):
                params = PathLossParams(beta, eta, d)
                for m in range(1, 9):
                    closed = SimoMiso(m, params).moment(d)
                    quad = mass_quadrature(SimoMiso(m, params)).value
                    worst = max(worst, abs(closed - quad) / quad)
                    cases += 1
                for n in range(2, 9):
                    closed = Mimo(2, n, params).moment(d)
                    quad = mass_quadrature(Mimo(2, n, params)).value
                    worst = max(worst, abs(closed - quad) / quad)
                    cases += 1
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(2, ok, f"max relative gap {worst:.2e} over {cases} cases in {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_3_rate_identities():
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        params = PathLossParams(beta, 2.0, 3)
        mass = Mimo(2, 2, params).moment(3)
        for theta in (PI / 2, 3 * PI / 4, 0.3):
            corner_rate = (23.0 - SQRT2) * math.sqrt(PI) * theta / (16.0 * beta**1.5)
            edge_rate = (23.0 - SQRT2) * math.sqrt(PI) * theta / (8.0 * beta**1.5)
            worst = max(worst, abs(corner_rate / (theta * mass) - 1.0))
            worst = max(worst, abs(edge_rate / (2.0 * theta * mass) - 1.0))
        face_rate = (23.0 - SQRT2) * PI**1.5 / (8.0 * beta**1.5)
        bulk_rate = (23.0 - SQRT2) * PI**1.5 / (4.0 * beta**1.5)
        worst = max(worst, abs(face_rate / (2.0 * PI * mass) - 1.0))
        worst = max(worst, abs(bulk_rate / (4.0 * PI * mass) - 1.0))
    report(3, worst < 1e-10, f"max relative gap {worst:.2e}")
    assert worst < 1e-10


def test_criterion_4_scaling_orders(tmp_path):
    params = PathLossParams(1.0, 2.0, 3)
    ks = [4, 8, 16, 32, 64]
    simo_slope = loglog_slope(
        ks,
        [
            abs(SimoMiso(m, params).moment(3) / mass_scaling_leading(m, params) - 1)
            for m in ks
        ],
    )
    mimo_slope = loglog_slope(
        ks,
        [
            abs(Mimo(2, n, params).moment(3) / mass_scaling_leading(n, params) - 1)
            for n in ks
        ],
    )
    eps_slopes = {}
    for d, eta in ((3, 2.0), (3, 3.0), (2, 4.0)):
        eps_slopes[(d, eta)] = error_order_fit(
            [8, 16, 32, 64, 128], PathLossParams(1.0, eta, d)
        )
    # the curves behind the sweep figures, as machine-readable tables
    for model, flag in (("simo", "--m"), ("mimo", "--n")):
        out = tmp_path / f"{model}_sweep.csv"
        rc = cli_main(
            ["mass", "--model", model, flag, "1..8" if model == "simo" else "2..8",
             "--d", "3", "--eta", "2,3,4", "--beta", "1", "--output", str(out)]
        )
        assert rc == 0 and out.exists()
    ok = abs(simo_slope + 1.0) < 0.15 and abs(mimo_slope + 0.5) < 0.15
    detail = [f"simo {simo_slope:+.3f} (want -1±0.15)", f"mimo {mimo_slope:+.3f} (want -0.5±0.15)"]
    for (d, eta), slope in eps_slopes.items():
        expected = d / eta - 0.5
        ok = ok and abs(slope - expected) < 0.2
        detail.append(f"eps d={d} eta={eta:g}: {slope:+.3f} (want {expected:+.1f}±0.2)")
    report(4, ok, "; ".join(detail))
    assert abs(simo_slope + 1.0) < 0.15
    assert abs(mimo_slope + 0.5) < 0.15
    for (d, eta), slope in eps_slopes.items():
        assert abs(slope - (d / eta - 0.5)) < 0.2


def test_criterion_5_house_terms():
    model = Mimo(2, 2, PathLossParams(1.0, 2.0, 3))
    L = 7.0
    k = (23.0 - SQRT2) * PI**1.5  # exponent rates are k/32, 3k/64, ... at beta = 1
    prefactors = {
        "C1": (6.0 * 512.0 / (343.0 * PI**3), k / 32.0, 3),
        "C2": (4.0 * 1024.0 * SQRT2 / (1029.0 * PI**3), 3.0 * k / 64.0, 3),
        "E1": ((9.0 + 2.0 * SQRT2) * 16.0 * 7.0 / (49.0 * PI**2), k / 16.0, 2),
        "E2": (2.0 * 16.0 * SQRT2 * 7.0 / (49.0 * PI**2), 3.0 * k / 32.0, 2),
        "F": (2.0 * (11.0 + 2.0 * SQRT2) / 2.0 * 49.0 / (7.0 * PI), k / 8.0, 1),
        "U": (428.75, k / 4.0, 0),
    }
    features = {
        "C1": (6.0, BoundaryFeature(3, 1.0, PI / 2, angle=PI / 2)),
        "C2": (4.0, BoundaryFeature(3, 1.0, 3 * PI / 4, angle=3 * PI / 4)),
        "E1": (1.0, BoundaryFeature(2, (9.0 + 2.0 * SQRT2) * L, PI, angle=PI / 2)),
        "E2": (1.0, BoundaryFeature(2, 2.0 * L, 3 * PI / 2, angle=3 * PI / 4)),
        "F": (1.0, BoundaryFeature(1, (11.0 + 2.0 * SQRT2) / 2.0 * 49.0, 2 * PI)),
        "U": (1.0, BoundaryFeature(0, 428.75, 4 * PI)),
    }
    values = {}
    worst = 0.0
    for rho in (0.6, 1.0, 1.7):
        for name, (count, feature) in features.items():
            values[name] = count * feature_contribution(feature, model).term(rho) / rho
        for name, (pref, rate, power) in prefactors.items():
            recovered = values[name] * rho**power * math.exp(rate * rho)
            worst = max(worst, abs(recovered / pref - 1.0))
        breakdown = assemble(house_prism(L), model, [rho])[0]
        total = rho * sum(values.values())
        worst = max(worst, abs(breakdown.p_out / total - 1.0))
    # the per-feature (measure, solid angle, geometric factor) triples
    table = {
        (row["class"], None if row["angle"] is None else round(row["angle"], 9),
         round(row["measure"], 9)): row
        for row in (c.row() for c in assemble(house_prism(L), model, [1.0])[0].contributions)
    }
    expected_triples = {
        ("corners", round(PI / 2, 9), 1.0): (PI / 2, 256.0 / (343.0 * PI**2 * (PI / 2)), 6),
        ("corners", round(3 * PI / 4, 9), 1.0): (
            3 * PI / 4, 256.0 * SQRT2 / (343.0 * PI**2 * (3 * PI / 4)), 4),
        ("edges", round(PI / 2, 9), 7.0): (PI, 16.0 / (49.0 * PI**2), 9),
        ("edges", round(PI / 2, 9), round(7.0 / SQRT2, 9)): (PI, 16.0 / (49.0 * PI**2), 4),
        ("edges", round(3 * PI / 4, 9), 7.0): (3 * PI / 2, 16.0 * SQRT2 / (49.0 * PI**2), 2),
        ("faces", None, round((11.0 + 2.0 * SQRT2) / 2.0 * 49.0, 9)): (
            2 * PI, 2.0 / (7.0 * PI), 1),
        ("bulk", None, 428.75): (4 * PI, 1.0, 1),
    }
    assert set(table) == set(expected_triples)
    for key, (omega, factor, mult) in expected_triples.items():
        row = table[key]
        worst = max(worst, abs(row["solid_angle"] / omega - 1.0))
        worst = max(worst, abs(row["geometric_factor"] / factor - 1.0))
        assert row["multiplicity"] == mult
    report(5, worst < 1e-12, f"max relative gap {worst:.2e} over terms and table triples")
    assert worst < 1e-12


@pytest.fixture(scope="module")
def house_mc_sweep():
    prism = house_prism(7.0)
    params = PathLossParams(1.0, 2.0, 3)
    model = Mimo(2, 2, params)
    rhos = [0.50, 0.56, 0.62, 0.68, 0.74, 0.83, 0.87]
    breakdowns = assemble(prism, model, rhos)
    estimates = []
    for rho in rhos:
        config = McConfig.from_density(prism, model, rho, trials=2000, seed=20250810)
        estimates.append(run_trials(config))
    return rhos, breakdowns, estimates


def test_criterion_6_analytic_vs_monte_carlo(house_mc_sweep):
    start = time.time()
    rhos, breakdowns, estimates = house_mc_sweep
    outs = [b.p_out for b in breakdowns]
    assert all(0.02 <= p <= 0.5 for p in outs), outs
    diffs = [abs(e.p_fc_hat - b.p_fc) for e, b in zip(estimates, breakdowns)]
    corr, pvalue = stats.spearmanr(rhos, diffs)
    trend_ok = corr < 0.0 and pvalue < 0.05

    tail_ok = True
    tail_detail = []
    for b, e in zip(breakdowns[-2:], estimates[-2:]):
        low, high = wilson_interval(round(e.p_fc_hat * e.trials), e.trials, z=Z_99)
        inside = low <= b.p_fc <= high
        close = abs(e.p_fc_hat - b.p_fc) <= 0.02
        tail_ok = tail_ok and (inside or close)
        tail_detail.append(
            f"rho={b.rho}: diff={abs(e.p_fc_hat - b.p_fc):.4f} ci=({low:.4f},{high:.4f})"
        )
    # estimates may not decrease beyond combined CI noise across the grid
    mono_ok = True
    for (e1, e2) in zip(estimates, estimates[1:]):
        sigma = math.sqrt(
            e1.p_fc_hat * (1 - e1.p_fc_hat) / e1.trials
            + e2.p_fc_hat * (1 - e2.p_fc_hat) / e2.trials
        )
        mono_ok = mono_ok and (e2.p_fc_hat >= e1.p_fc_hat - 3.0 * sigma)
    elapsed = time.time() - start
    ok = trend_ok and tail_ok and mono_ok
    report(
        6, ok,
        f"spearman {corr:.3f} (p={pvalue:.4f}); {'; '.join(tail_detail)}; "
        f"monotone-within-3sigma={mono_ok}",
    )
    assert trend_ok
    assert tail_ok
    assert mono_ok
    assert elapsed < 900.0


def test_criterion_7_exact_oracle_chain():
    rng = np.random.default_rng(424242)
    prism = house_prism(3.0)
    model = Mimo(2, 2, PathLossParams(0.35, 2.0, 3))

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        pts = sample_uniform_rng(prism, n, rng)
        h = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                h[i, j] = h[j, i] = pair_connectedness(
                    model, float(np.linalg.norm(pts[i] - pts[j]))
                )
        exact = exact_connectivity_probability(pts, model)
        worst = max(worst, abs(exact - brute_force_connectivity_probability(h)))

    resamples = 100_000
    alpha = 2.0 * stats.norm.sf(4.0)  # two-sided 4-sigma tail mass
    outside = 0
    for i in range(100):
        n = int(rng.integers(2, 11))
        pts = sample_uniform_rng(prism, n, rng)
        exact = exact_connectivity_probability(pts, model)
        estimate = edge_resampling_estimate(
            pts, model, resamples, seed=int(rng.integers(1 << 30))
        )
        successes = round(estimate.p_fc_hat * resamples)
        lo = stats.binom.ppf(alpha / 2.0, resamples, exact)
        hi = stats.binom.ppf(1.0 - alpha / 2.0, resamples, exact)
        outside += not lo <= successes <= hi

    uf_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 65))
        ii, jj = np.triu_indices(n, k=1)
        keep = rng.random(ii.size) < float(rng.uniform(0.0, 3.0)) / n
        edges = list(zip(ii[keep].tolist(), jj[keep].tolist()))
        connected, count = connectivity_check(n, edges)
        uf_ok = uf_ok and count == bfs_component_count(n, edges) and connected == (count == 1)

    ok = worst < 1e-12 and outside == 0 and uf_ok
    report(
        7, ok,
        f"brute-force gap {worst:.2e} (1000 instances); {outside}/100 resampling runs "
        f"outside the 4-sigma binomial band (1e5 each); union-find vs BFS "
        f"{'agree' if uf_ok else 'DISAGREE'} (500 graphs)",
    )
    assert worst < 1e-12
    assert outside == 0
    assert uf_ok


def test_criterion_8_field_corner_minima():
    # Known-red.  The measured rate of corner-adjacent global minima at
    # these parameters is ~2/3: minima concentrate on the boundary with a
    # heavy corner bias, but mid-edge coverage voids win the global
    # competition in about a third of realizations, so the 90% threshold
    # is out of reach (see README).
    side, grid_n, rho = 10.0, 200, 1.5
    model = Siso(PathLossParams(1.0, 2.0, 2))
    axis = np.linspace(0.0, side, grid_n)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    corners = np.array([[0, 0], [0, side], [side, 0], [side, side]])
    hits = 0
    count = round(rho * side * side)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pts = rng.random((count, 2)) * side
        field = connection_field(pts, model, grid)
        location = grid[int(np.argmin(field))]
        hits += float(np.linalg.norm(corners - location, axis=1).min()) <= 1.0
    ok = hits >= 45
    report(8, ok, f"{hits}/50 global minima within distance 1 of a corner (need >= 45)")
    assert hits >= 45, (
        f"{hits}/50 corner-adjacent minima; the 90% quantification is not reachable "
        "at these parameters though the qualitative concentration holds (see README)"
    )


def test_criterion_9_manifest_determinism(tmp_path):
    commands = {
        "mass": ["mass", "--model", "mimo", "--n", "2..4", "--d", "3",
                 "--eta", "2", "--beta", "1"],
        "pfc": ["pfc", "--prism", "house", "--L", "7", "--beta", "1",
                "--rho", "0.5:0.7:0.1"],
        "simulate": ["simulate", "--prism", "house", "--L", "7", "--beta", "1",
                     "--rho", "0.5:0.6:0.1", "--trials", "40", "--seed", "11"],
        "field": ["field", "--square", "10", "--rho", "0.4", "--model", "siso",
                  "--beta", "1", "--eta", "2", "--grid", "30", "--seed", "3"],
        "validate": ["validate", "--check", "union-find,exponent-rates"],
    }
    all_ok = True
    for name, args in commands.items():
        first = tmp_path / f"{name}_1.out"
        manifest = tmp_path / f"{name}.manifest.json"
        rc = cli_main(args + ["--output", str(first), "--manifest", str(manifest)])
        assert rc == 0, name
        again = tmp_path / f"{name}_2.out"
        rc = cli_main(args + ["--output", str(again)])
        assert rc == 0, name
        replayed = tmp_path / f"{name}_3.out"
        rc = cli_main([name, "--config", str(manifest), "--output", str(replayed)])
        assert rc == 0, name
        identical = (
            first.read_bytes() == again.read_bytes() == replayed.read_bytes()
        )
        all_ok = all_ok and identical
        assert identical, f"{name} output differs across re-runs"
        payload = json.loads(manifest.read_text())
        assert payload["command"] == name
    report(9, all_ok, "all five commands byte-identical across re-runs and manifest replay")
    assert all_ok
