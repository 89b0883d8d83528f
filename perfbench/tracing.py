"""Span tracer that measures prismconn layer by layer from outside the package.

Each public function of a package module is replaced, at every name a
caller looks it up by, with a wrapper that opens a span on entry and closes
it on exit.  Spans nest on a stack (the package is single-threaded), so a
span's self time is its duration minus the durations of its direct
children.  Spans of hot leaf functions (called thousands of times per
operation) only feed the per-name totals; all other spans are also kept in
memory as (call id, parent id, name, start, end) and written out at exit.

Counters that inspect a call's arguments or result run in hooks after the
span has closed; their time is charged to the pseudo-layer `trace.hooks`,
never to a package layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable

PACKAGE = "prismconn"
MODULES = (
    "specfun",
    "linkmodels",
    "connmass",
    "geometry",
    "pfc_analytic",
    "mc_sim",
    "cli",
    "validation",
)
HOOK_LAYER = "trace.hooks"
LINK_PROB_FLOOR = 1e-12  # mc_sim treats H below this as no link


class Tracer:
    """Span stack with per-name self time, call counts and hook counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, call id, start, child seconds]
        self._next_id = 0

    def enter(self, name: str) -> None:
        call_id = self._next_id
        self._next_id += 1
        self._stack.append([name, call_id, 0.0, 0.0])
        self._stack[-1][2] = self.clock()

    def exit(self, record: bool = True) -> None:
        end = self.clock()
        name, call_id, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if record:
            self.spans.append(
                (call_id, parent[1] if parent is not None else None, name, start, end)
            )

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def run_hook(self, hook, args, kwargs, result) -> None:
        start = self.clock()
        hook(self, args, kwargs, result)
        spent = self.clock() - start
        self.self_s[HOOK_LAYER] += spent
        if self._stack:
            self._stack[-1][3] += spent

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()


def traced(tracer: Tracer, name: str, fn, record: bool = True, hook=None):
    """fn wrapped in a span named `name`, with an optional counting hook."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(record)
        if hook is not None:
            tracer.run_hook(hook, args, kwargs, result)
        return result

    return wrapper


# --- counting hooks ---------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_many(tracer, args, kwargs, h):
    elements = h.size
    tracer.counts["linkmodels.pair_connectedness_many.elements"] += elements
    tracer.counts["linkmodels.h_above_floor"] += int((h >= LINK_PROB_FLOOR).sum())
    if tracer.parent_name() == "mc_sim.run_trials":
        tracer.counts["mc_sim.h_elements"] += elements


def _count_trials(tracer, args, kwargs, est):
    config = _arg(args, kwargs, 0, "config")
    n = config.node_count
    tracer.counts["mc_sim.trials"] += est.trials
    tracer.counts["mc_sim.pairs_total"] += est.trials * n * (n - 1) // 2
    tracer.counts["mc_sim.isolated"] += est.mean_isolated * est.trials
    tracer.counts["mc_sim.connected"] += round(est.p_fc_hat * est.trials)


def _count_sampled(tracer, args, kwargs, points):
    tracer.counts["geometry.sample_uniform_rng.points"] += len(points)


def _count_inside(tracer, args, kwargs, inside):
    tracer.counts["geometry.contains.inside"] += bool(inside)


def _count_field(tracer, args, kwargs, values):
    tracer.counts["mc_sim.connection_field.points"] += len(values)


def _count_checks(tracer, args, kwargs, results):
    tracer.counts["validation.checks_passed"] += sum(r.passed for r in results)


def _count_cli_output(tracer, args, kwargs, code):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--output" not in argv:
        return
    with open(argv[argv.index("--output") + 1], "rb") as fh:
        data = fh.read()
    tracer.counts["cli.bytes_written"] += len(data)
    tracer.counts["cli.rows_written"] += max(0, data.count(b"\n") - 1)  # less header


# --- what is wrapped --------------------------------------------------------

# (module, public function, span name, hot, hook).  Public functions of a
# module not named here are wrapped as "<module>.other".  A hot span feeds
# the totals but is not kept as a record: these run per node pair, per
# grid point, per edge subset or per quadrature node.
_NAMED = {
    ("specfun", "*"): ("specfun", True, None),
    ("linkmodels", "pair_connectedness"): ("linkmodels.pair_connectedness", True, None),
    ("linkmodels", "pair_connectedness_many"): (
        "linkmodels.pair_connectedness_many", False, _count_many),
    ("linkmodels", "pair_connectedness_mimo_det"): ("linkmodels.other", True, None),
    ("linkmodels", "mimo_gamma_form"): ("linkmodels.other", True, None),
    ("connmass", "mass_quadrature"): ("connmass.mass_quadrature", False, None),
    ("geometry", "sample_uniform_rng"): (
        "geometry.sample_uniform_rng", False, _count_sampled),
    ("geometry", "RightPrism.contains"): ("geometry.contains", True, _count_inside),
    ("pfc_analytic", "assemble"): ("pfc_analytic.assemble", False, None),
    ("mc_sim", "run_trials"): ("mc_sim.run_trials", False, _count_trials),
    ("mc_sim", "UnionFind.union"): ("mc_sim.union_find", True, None),
    ("mc_sim", "connectivity_check"): ("mc_sim.other", True, None),
    ("mc_sim", "connection_field"): ("mc_sim.connection_field", False, _count_field),
    ("mc_sim", "exact_connectivity_probability"): (
        "mc_sim.exact_connectivity_probability", False, None),
    ("mc_sim", "edge_resampling_estimate"): (
        "mc_sim.edge_resampling_estimate", False, None),
    ("cli", "main"): ("cli.main", False, _count_cli_output),
    ("validation", "run_checks"): ("validation.run_checks", False, _count_checks),
    ("validation", "bfs_component_count"): ("validation.other", True, None),
}

# run_trial is the per-trial body of run_trials; leaving it unwrapped keeps
# stream setup, pair distances, edge draw and components in run_trials'
# self time.
_UNWRAPPED = {("mc_sim", "run_trial")}


def _public_functions(module, short: str) -> list[str]:
    """Functions in the module's __all__; for a module without one (cli),
    the entry points named in _NAMED."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [qual for mod, qual in _NAMED if mod == short and "." not in qual]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


def _plan() -> list[tuple]:
    """(owner, attribute, span name, hot, hook) for every wrapped callable."""
    plan = []
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for fn_name in _public_functions(module, short):
            if (short, fn_name) in _UNWRAPPED:
                continue
            spec = _NAMED.get((short, fn_name)) or _NAMED.get((short, "*"))
            name, hot, hook = spec or (f"{short}.other", False, None)
            plan.append((module, fn_name, name, hot, hook))
        for (mod, qual), (name, hot, hook) in _NAMED.items():
            if mod == short and "." in qual:
                cls_name, meth = qual.split(".")
                plan.append((getattr(module, cls_name), meth, name, hot, hook))
    return plan


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every public function of the package's modules while in the block.

    Module-level functions are replaced in every package module that binds
    them (modules import each other's functions by name); methods are
    replaced on their class.  The originals are restored on exit.
    """
    namespaces = [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
    ]
    replaced = []
    try:
        for owner, attr, name, hot, hook in _plan():
            original = getattr(owner, attr)
            wrapper = traced(tracer, name, original, record=not hot, hook=hook)
            for ns in [owner] if inspect.isclass(owner) else namespaces:
                for key in [k for k, v in vars(ns).items() if v is original]:
                    replaced.append((ns, key, original))
                    setattr(ns, key, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
