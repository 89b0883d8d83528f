"""One workload in one fresh process: set up, repeat the timed operations, check.

Started by run.py; not meant to be run by hand.  With --setup-only it sets
up and exits, which run.py uses to sample set-up time several times.
Otherwise it repeats the workload until --seconds have passed.  Either way
it writes a result JSON to --result.  With --trace 1 each repetition runs twice,
untraced then traced on the same inputs, so the tracing overhead is a
paired comparison and the traced outputs are checked to equal the untraced.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import prismconn

    if Path(prismconn.__file__).resolve().parent != SRC / "prismconn":
        raise SystemExit(f"imported prismconn from {prismconn.__file__}, not {SRC}")
    return prismconn


_RAISED = object()


def _run_ops(ops):
    """Run ops in order; returns (outputs, errors, op seconds, rep wall seconds)."""
    outputs, errors, seconds = [], [], []
    rep_start = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            outputs.append(op.call())
            errors.append([])
        except Exception:  # a failing call is a failed operation; keep measuring
            outputs.append(_RAISED)
            errors.append([traceback.format_exc(limit=3)])
        seconds.append(time.perf_counter() - start)
    return outputs, errors, seconds, time.perf_counter() - rep_start


def _check(op, output, errors):
    """Check one output; returns (failure messages, fingerprint)."""
    if errors:
        return [f"{op.label}: {e}" for e in errors], None
    try:
        fails, fingerprint = op.check(output)
    except Exception:
        fails, fingerprint = [traceback.format_exc(limit=3)], None
    return [f"{op.label}: {f}" for f in fails], fingerprint


class Counter:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, messages: list[str]) -> None:
        self.attempted += 1
        if messages:
            self.failed += 1
            self.messages.extend(messages[:3])


def run(args) -> dict:
    import numpy as np
    import scipy

    import checks
    import workloads
    from tracing import Tracer, installed

    work_dir = ROOT / "perfbench" / "out" / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    counter = Counter()
    untraced_wall, rates, traced_wall = [], [], []
    first_fingerprints = None
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        ops = workload.ops(k)
        outputs, errors, seconds, wall = _run_ops(ops)
        fingerprints = []
        for op, out, err in zip(ops, outputs, errors):
            fails, fp = _check(op, out, err)
            counter.record(fails)
            fingerprints.append(fp)
        untraced_wall.append(wall)
        rates.append(sum(op.work for op in ops) / sum(seconds))
        if first_fingerprints is None:
            first_fingerprints = fingerprints

        if tracer is not None:
            with installed(tracer), tracer.span("bench.rep"):
                outputs, errors, _, _ = _run_ops(ops)
            _, _, _, rep_start, rep_end = tracer.spans[-1]
            traced_wall.append(rep_end - rep_start)
            for op, out, err, expected in zip(ops, outputs, errors, fingerprints):
                fails, fp = _check(op, out, err)
                if not fails:
                    fails = checks.identical(fp, expected, f"{op.label} traced vs untraced")
                counter.record(fails)
        k += 1

    # The same inputs must give the same output again in this process.
    op = workload.ops(0)[workload.rerun_index]
    outputs, errors, _, _ = _run_ops([op])
    fails, fp = _check(op, outputs[0], errors[0])
    counter.record(fails or checks.identical(
        fp, first_fingerprints[workload.rerun_index], f"rerun of {op.label}"))
    for label, fails in workload.final_checks():
        counter.record([f"{label}: {f}" for f in fails])

    result = {
        "workload": workload.name,
        "parameters": workload.parameters(),
        "work_unit": workload.unit,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "repetitions": len(untraced_wall),
        "wall_s": untraced_wall,
        "work_per_s": rates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ready": ready,
    }
    if tracer is not None:
        counter.record(checks.self_times_cover_wall(
            sum(tracer.self_s.values()), sum(traced_wall)))
        result["trace"] = _layer_summary(tracer, traced_wall, untraced_wall)
        spans_path = ROOT / "perfbench" / "out" / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["call_id", "parent_id", "name", "start_s", "end_s"],
            "spans": tracer.spans,
            "self_s": tracer.self_s, "calls": tracer.calls, "counts": tracer.counts,
        }))
    result.update(attempted=counter.attempted, failed=counter.failed,
                  failures=counter.messages[:20])
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_summary(tracer, traced_wall, untraced_wall) -> dict:
    """Per-layer metrics as means per traced repetition."""
    from tracing import HOOK_LAYER, MODULES

    reps = len(traced_wall)
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    per = lambda v: v / reps  # noqa: E731
    trials = counts["mc_sim.trials"]
    contains = calls["geometry.contains"]
    elements = counts["linkmodels.pair_connectedness_many.elements"]
    m = {
        "mc_sim.run_trials.self_s": per(s["mc_sim.run_trials"]),
        "mc_sim.union_find.self_s": per(s["mc_sim.union_find"]),
        "mc_sim.union_find.unions": per(calls["mc_sim.union_find"]),
        "mc_sim.trials": per(trials),
        "mc_sim.pairs_total": per(counts["mc_sim.pairs_total"]),
        "mc_sim.pairs_in_range_ratio": _ratio(counts["mc_sim.h_elements"],
                                              counts["mc_sim.pairs_total"]),
        "mc_sim.isolated_per_trial": _ratio(counts["mc_sim.isolated"], trials),
        "mc_sim.connected_ratio": _ratio(counts["mc_sim.connected"], trials),
        "geometry.sample_uniform_rng.self_s": per(s["geometry.sample_uniform_rng"]),
        "geometry.sample_uniform_rng.points": per(counts["geometry.sample_uniform_rng.points"]),
        "geometry.contains.calls": per(contains),
        "geometry.contains.self_s": per(s["geometry.contains"]),
        "geometry.contains.inside_ratio": _ratio(counts["geometry.contains.inside"], contains),
        "linkmodels.pair_connectedness_many.self_s": per(s["linkmodels.pair_connectedness_many"]),
        "linkmodels.pair_connectedness_many.elements": per(elements),
        "linkmodels.h_above_floor_ratio": _ratio(counts["linkmodels.h_above_floor"], elements),
        "mc_sim.connection_field.self_s": per(s["mc_sim.connection_field"]),
        "mc_sim.connection_field.points": per(counts["mc_sim.connection_field.points"]),
        "linkmodels.pair_connectedness.calls": per(calls["linkmodels.pair_connectedness"]),
        "linkmodels.pair_connectedness.self_s": per(s["linkmodels.pair_connectedness"]),
        "specfun.calls": per(calls["specfun"]),
        "specfun.self_s": per(s["specfun"]),
        "connmass.mass_quadrature.calls": per(calls["connmass.mass_quadrature"]),
        "connmass.mass_quadrature.self_s": per(s["connmass.mass_quadrature"]),
        "pfc_analytic.assemble.self_s": per(s["pfc_analytic.assemble"]),
        "mc_sim.exact_connectivity_probability.self_s":
            per(s["mc_sim.exact_connectivity_probability"]),
        "mc_sim.edge_resampling_estimate.self_s": per(s["mc_sim.edge_resampling_estimate"]),
        "cli.main.self_s": per(s["cli.main"]),
        "cli.rows_written": per(counts["cli.rows_written"]),
        "cli.bytes_written": per(counts["cli.bytes_written"]),
        "validation.run_checks.self_s": per(s["validation.run_checks"]),
        "validation.checks_passed": per(counts["validation.checks_passed"]),
    }
    layer_total = 0.0
    for module in MODULES:
        total = sum(v for name, v in s.items() if name.split(".")[0] == module)
        m[f"{module}.layer_self_s"] = per(total)
        layer_total += total
    traced = sum(traced_wall)
    m["trace.wall_s"] = per(traced)
    m["trace.untraced_wall_s"] = sum(untraced_wall) / len(untraced_wall)
    m["trace.overhead_ratio"] = _ratio(statistics.median(traced_wall),
                                       statistics.median(untraced_wall))
    m["trace.harness_self_s"] = per(s["bench.rep"])
    m["trace.hooks_s"] = per(s[HOOK_LAYER])
    m["trace.layer_coverage_ratio"] = _ratio(layer_total, traced)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    # The house preset is below the analytic expansion's comfort scale; the
    # warning is expected and would repeat on every pfc run.
    warnings.filterwarnings("ignore", message=r"sqrt\(beta\) \* shortest edge")
    _import_package()
    args.result.write_text(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
