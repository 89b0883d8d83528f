"""prismconn benchmark: one workload per invocation, checked and measured.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc_house --seed 1 --seconds 20 --trace 0

Workloads are mc_house, field and analytic (see perfbench/README.md).  The
run builds nothing: it imports prismconn from the checkout's src/ in fresh
worker processes, several set-up-only ones to sample set-up time and one
that repeats the workload for --seconds.  It prints a human-readable report
and, as its last line, one JSON object with keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  Full results and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("mc_house", "field", "analytic")
SETUP_SAMPLES = 4  # set-up-only processes; with the measuring one, 5 samples
DEADLINE_S = 170  # all workers of one invocation together
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_env() -> dict:
    """Cap numpy/scipy thread pools at the cores this process may use."""
    env = dict(os.environ)
    cap = _nproc()
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            env[var] = str(cap)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, extra: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its result and the monotonic time it was spawned."""
    result_path = OUT / f"result-{args.workload}-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path), *extra]
    spawned = time.monotonic()
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - spawned))
    try:
        return json.loads(result_path.read_text()), spawned
    finally:
        result_path.unlink()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "prismconn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment(args, env: dict, result: dict) -> dict:
    return {
        "python": platform.python_version(),
        **result["versions"],
        "platform": platform.platform(),
        "nproc": _nproc(),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": result["parameters"],
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="prismconn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (ROOT / "src" / "prismconn" / "__init__.py").is_file():
        print(f"prismconn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    env = _worker_env()
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            ready, spawned = _worker(args, ["--setup-only"], env, deadline)
            setups.append(ready["ready"] - spawned)
    result, spawned = _worker(args, [], env, deadline)
    setups.append(result["ready"] - spawned)

    environment = _environment(args, env, result)
    walls, rates = result["wall_s"], result["work_per_s"]
    wall_q, rate_q = _quartiles(walls), _quartiles(rates)
    attempted, failed = result["attempted"], result["failed"]
    fail_ratio = failed / attempted
    rate_name = {"trials": "trials_per_s", "grid points": "grid_points_per_s"}.get(
        result["work_unit"], "operations_per_s")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    if setups[:-1]:
        print(f"setup_s            {statistics.median(setups):.4f} s   "
              f"(median of {len(setups)} set-ups)")
    print(f"wall_s             {wall_q[1]:.4f} s   (median of {len(walls)} repetitions; "
          f"quartiles {wall_q[0]:.4f} .. {wall_q[2]:.4f})")
    for name in ("trials_per_s", "grid_points_per_s"):
        value = f"{rate_q[1]:.2f} 1/s" if name == rate_name else "n/a"
        print(f"{name:<18} {value}")
    print(f"work_per_s         {rate_q[1]:.3f} 1/s ({result['work_unit']} per second)")
    print(f"peak_rss_mb        {result['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio         {fail_ratio:.4g}   ({failed} of {attempted} operations)")
    for message in result["failures"]:
        print("FAILED " + message.replace("\n", " | "), file=sys.stderr)

    if args.trace:
        metrics = {
            name: {"value": value, "unit": _layer_unit(name)}
            for name, value in result["trace"].items()
        }
        print(f"tracing overhead   {result['trace']['trace.overhead_ratio']:.3f}x "
              f"(traced vs untraced wall per repetition)")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_q[1], "unit": "s"},
            "work_per_s": {"value": rate_q[1], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "pass_ratio": {"value": 1.0 - fail_ratio, "unit": "ratio"},
        }
    record = {**result, "setup_s": setups, "environment": environment, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        sys.exit(1)
