"""Tests of the benchmark's own machinery: checkers and tracer.

Run from the checkout root with `python3 -m pytest perfbench`.  Each checker
is fed a correct output (must pass) and a deliberately wrong one (must
fail), so a check that can never fire is caught here.
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from prismconn import connmass, geometry, linkmodels, mc_sim  # noqa: E402
from prismconn.linkmodels import Mimo, PathLossParams, Siso  # noqa: E402


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 9], then a hook
    # on c taking [9, 9.5] charged to trace.hooks, not to root.
    clock = ScriptedClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 9.0, 9.5, 10.0])
    tracer = tracing.Tracer(clock)
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit(record=False)
    tracer.run_hook(lambda *_: None, (), {}, None)
    tracer.exit()

    assert dict(tracer.self_s) == pytest.approx(
        {"root": 10.0 - 3.0 - 4.0 - 0.5, "a": 2.0, "b": 1.0, "c": 4.0,
         tracing.HOOK_LAYER: 0.5})
    assert sum(tracer.self_s.values()) == pytest.approx(10.0)
    assert dict(tracer.calls) == {"root": 1, "a": 1, "b": 1, "c": 1}
    # c is a hot span: counted, not recorded.  Records are (id, parent, name, start, end).
    assert tracer.spans == [(2, 1, "b", 2.0, 3.0), (1, 0, "a", 1.0, 4.0),
                            (0, None, "root", 0.0, 10.0)]
    assert checks.self_times_cover_wall(sum(tracer.self_s.values()), 10.0) == []
    assert checks.self_times_cover_wall(9.0, 10.0) != []


def test_install_wraps_callers_names_and_uninstall_restores():
    originals = (mc_sim.pair_connectedness_many, connmass.pair_connectedness,
                 geometry.RightPrism.contains, mc_sim.UnionFind.union)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert mc_sim.pair_connectedness_many is not originals[0]
        assert connmass.pair_connectedness is not originals[1]
        model = Mimo(2, 2, PathLossParams(1.0, 2.0, 3))
        prism = geometry.house_prism(7.0)
        with tracer.span("bench.rep"):
            mc_sim.run_trials(mc_sim.McConfig.from_density(prism, model, 0.5, 2, 3))
            prism.contains((1.0, 1.0, 1.0))
    assert (mc_sim.pair_connectedness_many, connmass.pair_connectedness,
            geometry.RightPrism.contains, mc_sim.UnionFind.union) == originals
    assert tracer.calls["mc_sim.run_trials"] == 1
    assert tracer.calls["linkmodels.pair_connectedness_many"] == 2
    assert tracer.calls["geometry.sample_uniform_rng"] == 2
    assert tracer.calls["mc_sim.union_find"] > 0
    assert tracer.calls["specfun"] > 0  # support-radius bisection uses scalar H
    assert tracer.counts["mc_sim.trials"] == 2
    assert tracer.counts["geometry.contains.inside"] == 1


def test_layer_metrics_match_benchmark_json():
    import json

    import run
    import worker

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = worker._layer_summary(tracing.Tracer(), [1.0], [1.0])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run._layer_unit(name)) for name in metrics]


def test_estimate_checks_reject_out_of_band():
    assert checks.estimate_near_analytic(970, 1000, 0.979) == []
    assert checks.estimate_near_analytic(900, 1000, 0.979) != []
    assert checks.binomial_band(9_990, 10_000, 0.999) == []
    assert checks.binomial_band(9_900, 10_000, 0.999) != []
    good = mc_sim.McEstimate(0.9, 30, 0.8, 0.95, 0.1)
    assert checks.estimate_consistent(good, 30) == []
    assert checks.estimate_consistent(mc_sim.McEstimate(0.9, 30, 0.91, 0.95, 0.1), 30) != []


def test_field_check_rejects_a_nudged_value():
    model = Siso(PathLossParams(1.0, 2.0, 2))
    rng = np.random.default_rng(5)
    nodes = rng.random((40, 2)) * 4.0
    grid = rng.random((30, 2)) * 4.0
    values = mc_sim.connection_field(nodes, model, grid)
    h = lambda r: linkmodels.pair_connectedness(model, r)  # noqa: E731
    sample = range(len(grid))
    assert checks.field_matches_brute_force(values, grid, nodes, h, sample) == []
    nudged = values.copy()
    nudged[7] += 1e-6
    assert checks.field_matches_brute_force(nudged, grid, nodes, h, sample) != []
    assert checks.probabilities(values, "field") == []
    assert checks.probabilities(np.append(values, 1.0 + 1e-9), "field") != []


def test_inside_prism_matches_contains():
    prism = geometry.house_prism(7.0)
    points = np.random.default_rng(1).uniform(-1.0, 11.0, size=(2000, 3))
    expected = [prism.contains(p) for p in points]
    assert checks.inside_prism(prism, points).tolist() == expected


def test_flipped_csv_byte_is_caught():
    text = "check,status,detail\nmass-oracle,PASS,ok\n"
    data = text.encode()
    flipped = bytearray(data)
    flipped[25] ^= 0x01
    digest = lambda b: hashlib.sha256(bytes(b)).hexdigest()  # noqa: E731
    assert checks.identical(digest(data), digest(data), "csv") == []
    assert checks.identical(digest(data), digest(flipped), "csv") != []
    assert checks.validate_csv(text, 1) == []
    assert checks.validate_csv(text.replace("PASS", "FAIL"), 1) != []

    mass = "model,k,closed_form,quadrature\nsimo,1,0.5,0.5\n"
    assert checks.mass_csv(mass, 1) == []
    assert checks.mass_csv(mass.replace(",0.5\n", ",0.6\n"), 1) != []
    pfc = "rho,p_fc,p_out\n0.5,0.75,0.25\n"
    assert checks.pfc_csv(pfc, 1) == []
    assert checks.pfc_csv(pfc.replace("0.75", "0.76"), 1) != []


def test_prism_field_csv_checks_rows_and_values():
    prism = geometry.house_prism(2.0)
    model = Siso(PathLossParams(1.0, 2.0, 3))
    axis = np.linspace(0.0, 3.0, 5)
    box = np.column_stack([m.ravel() for m in np.meshgrid(axis, axis, axis, indexing="ij")])
    inside = box[checks.inside_prism(prism, box)]
    nodes = geometry.sample_uniform(prism, 6, 2)
    values = mc_sim.connection_field(nodes, model, inside)
    rows = [",".join(repr(float(c)) for c in (x, y, z, v))
            for (x, y, z), v in zip(inside, values)]
    text = "x,y,z,value\n" + "\n".join(rows) + "\n"
    h = lambda r: linkmodels.pair_connectedness(model, r)  # noqa: E731
    sample = range(len(inside))
    assert checks.prism_field_csv(text, inside, nodes, h, sample) == []
    assert checks.prism_field_csv(
        "x,y,z,value\n" + "\n".join(rows[1:]) + "\n", inside, nodes, h, sample) != []
    wrong = text.replace(repr(float(values[3])), repr(float(values[3]) + 1e-6), 1)
    assert checks.prism_field_csv(wrong, inside, nodes, h, sample) != []


def test_wilson_matches_library():
    low, high = checks.wilson(37, 50, 1.959963984540054)
    ref = mc_sim.wilson_interval(37, 50)
    assert (low, high) == pytest.approx(ref, abs=1e-15)
    assert not math.isnan(low)
