"""Command-line front end.

Subcommands: mass | pfc | simulate | field | validate.  Each command
declares its parameters once, in a table (`_PARAMS`); `main` resolves them
(config file first, flags win), runs the command, which emits CSV or JSON
tables, and can echo them to a manifest JSON that replays it bit for bit
via --config.  Exit codes: 0 success, 2 usage error, 3 capability error, 4
validation/convergence failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__, connmass, geometry, mc_sim, pfc_analytic, validation
from .errors import CapabilityError, ConvergenceError, DomainError, InvalidPrismError
from .geometry import RightPrism, check_seed, load_prism, preset_prism, sample_uniform_rng
from .linkmodels import Mimo, PathLossParams, SimoMiso, UnitDisk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_VALIDATION = 4


def _cast(kind, value, where: str):
    """kind(value); a malformed value is a usage error naming it and where it was.

    Only a bool reads as a bool and a str as a str, and no int is read from a
    bool or a fractional float."""
    try:
        if kind in (bool, str) and type(value) is not kind:
            raise TypeError
        if kind in (int, float) and type(value) is bool:
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except DomainError as exc:  # a ValueError too, so caught first
        raise DomainError(f"{where}: {exc}") from None
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{where}: not a valid {kind.__name__}: {value!r}") from None


_MAX_VALUES = 10**6  # longest range a spec may expand to
_MAX_GRID_POINTS = 10**7  # largest field lattice; admits the default 200^3
_MAX_JSON_GRID_POINTS = 10**5  # json holds the whole table: about 190 MB at the cap
_MAX_FIELD_NODES = 10**6  # most nodes a field realization may draw
# Lattice points per slab of a streamed field: a slab's points, values and
# CSV text take a few MB however large the lattice.
_FIELD_SLAB_POINTS = 4096


def _too_long(count: float, text: str) -> None:
    if count > _MAX_VALUES:
        raise DomainError(f"range {text!r} has more than {_MAX_VALUES} values")


def _parse_list(kind, spec) -> list:
    """A list, a comma list or one value, each read as `kind`; never empty."""
    if not isinstance(spec, (list, tuple, str)):
        return [_cast(kind, spec, "number spec")]
    items = [tok for tok in spec.split(",") if tok] if isinstance(spec, str) else spec
    values = [_cast(kind, v, f"list {spec!r}") for v in items]
    if not values:
        raise DomainError(f"number spec {spec!r} has no values")
    return values


def _parse_int_spec(spec) -> list[int]:
    """Integers: lo..hi (inclusive), a comma list, or one value."""
    if not (isinstance(spec, str) and ".." in spec):
        return _parse_list(int, spec)
    text = spec.strip()
    lo, hi = text.split("..", 1)
    lo_i, hi_i = _cast(int, lo, f"range {text!r}"), _cast(int, hi, f"range {text!r}")
    if hi_i < lo_i:
        raise DomainError(f"empty integer range {text!r}")
    _too_long(hi_i - lo_i + 1, text)
    return list(range(lo_i, hi_i + 1))


def _parse_grid(spec) -> list[float]:
    """Reals: start:stop:step, a comma list, or one value."""
    if not (isinstance(spec, str) and ":" in spec):
        return _parse_list(float, spec)
    text = spec.strip()
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec must be start:stop:step, got {text!r}")
    start, stop, step = (_cast(float, p, f"grid spec {text!r}") for p in parts)
    finite = all(math.isfinite(v) for v in (start, stop, step))
    if not finite or step <= 0.0 or stop < start:
        raise DomainError(f"grid spec {text!r} does not define a finite forward range")
    _too_long((stop - start) / step + 1.0, text)
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9 * step:
            break
        values.append(round(v, 12))
        k += 1
    if len(set(values)) < len(values):
        raise DomainError(f"grid spec {text!r} repeats values once rounded to 12 decimals")
    return values


class Param(NamedTuple):
    """A command parameter: `kind` reads flag and config values (see `_cast`), a bool is
    a store_true flag, and only a None default allows None, which a `required` one refuses."""

    flags: tuple[str, ...]
    kind: Callable
    default: object = None
    help: str | None = None
    required: bool = False


_BETA = Param(("--beta",), float, 1.0, "path-loss scale beta")
_SEED = Param(("--seed",), int, None, "random seed, a non-negative integer", True)
_SPEC = "start:stop:step, a comma list or one value"
_PRISM = {
    "prism": Param(("--prism",), str, "house", "house | cube | path to a prism JSON file"),
    "length": Param(("--L",), float, 7.0, "scale length of a house or cube preset"),
    "beta": _BETA,
    "eta": Param(("--eta",), float, 2.0, "path-loss exponent eta"),
    "rho": Param(("--rho",), _parse_grid, None, f"node densities: {_SPEC}", True),
}
_PARAMS = {
    "mass": {
        "model": Param(("--model",), str, None, "siso | simo | mimo", True),
        "k": Param(("--m", "--n"), _parse_int_spec, "2..8", "diversity orders: 1..64, 2,4,8, ..."),
        "d": Param(("--d",), int, 3, "spatial dimension (1, 2, or 3)"),
        "eta": Param(("--eta",), _parse_grid, "2", f"path-loss exponents: {_SPEC}"),
        "beta": _BETA,
    },
    "pfc": _PRISM,
    "simulate": {
        **_PRISM,
        "trials": Param(("--trials",), int, 1000, "Monte Carlo trials per density"),
        "seed": _SEED,
        "poisson": Param(("--poisson",), bool, False, "draw a Poisson node count per trial"),
    },
    "field": {
        "square": Param(("--square",), float, None, "side of a 2D square domain (or --prism)"),
        **_PRISM,
        "prism": _PRISM["prism"]._replace(default=None),
        "length": _PRISM["length"]._replace(default=None),
        "rho": Param(("--rho",), float, None, "node density (one value)", True),
        "model": Param(("--model",), str, "siso", "siso | simo | mimo | unitdisk"),
        "k": Param(("--m", "--n"), int, 2, "diversity order for simo/mimo"),
        "radius": Param(("--radius",), float, 1.0, "unit-disk connection radius"),
        "grid": Param(("--grid",), int, 200, "grid points per axis"),
        "seed": _SEED,
    },
    "validate": {
        "check": Param(("--check",), str, None, "comma-separated subset of checks to run"),
        "perturb": Param(("--perturb",), bool, False, "negative control: inject a wrong constant"),
    },
}
# Keys older manifests carry that a command no longer takes, with the one
# value such a manifest may hold.
_RETIRED = {"pfc": {"d": 3}, "simulate": {"d": 3}}


def _render(fmt: str, header: list[str], rows: list[list], extra: dict | None = None) -> str:
    if fmt == "csv":
        # csv.writer writes a float by repr, an int by str and None as an
        # empty cell; only bools need spelling out.
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [("true" if v else "false") if type(v) is bool else v for v in row] for row in rows
        )
        return buf.getvalue()
    payload = {"rows": [dict(zip(header, row)) for row in rows]}
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def _opened(args):
    """The output file, or stdout when there is none."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            yield out
    else:
        yield sys.stdout


def _write_output(args, header: list[str], rows: list[list], extra: dict | None = None) -> None:
    text = _render(args.format, header, rows, extra)
    with _opened(args) as out:
        out.write(text)


def _write_manifest(args, params: dict) -> None:
    path = args.manifest or (args.output and f"{args.output}.manifest.json")
    if not path:
        return
    payload = {
        "command": args.command,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "parameters": params,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _resolve(args) -> dict:
    """Each parameter: its flag, else its config value, else its default, read by its type."""
    table = _PARAMS[args.command]
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise DomainError(f"config {args.config}: not a JSON object")
        if isinstance(config.get("parameters"), dict):
            config = config["parameters"]
        retired = _RETIRED.get(args.command, {})
        for key in sorted(config.keys() - table.keys()):
            if key not in retired or config[key] != retired[key]:
                raise DomainError(
                    f"config {args.config}: {args.command} takes no {key}={config[key]!r}"
                )
    params = {}
    for key, param in table.items():
        value = getattr(args, key)
        if value is None:
            value = config.get(key, param.default)
        unset = value is None and param.default is None
        params[key] = None if unset else _cast(param.kind, value, key)
    missing = [k for k, param in table.items() if param.required and params[k] is None]
    if missing:
        raise DomainError(f"missing required parameters: {', '.join(sorted(missing))}")
    return params


def _build_prism(params: dict) -> RightPrism:
    name = params["prism"]
    if name not in geometry._PRESETS:
        return load_prism(name)
    if params["length"] is None:
        raise DomainError(f"prism preset {name!r} needs a length (--L)")
    return preset_prism(name, params["length"])


def _link_model(kind: str, k: int, radius: float, pl: PathLossParams):
    """The link model a --model name selects, with diversity order k."""
    if kind == "unitdisk":
        return UnitDisk(radius, pl)
    if kind not in ("siso", "simo", "mimo"):
        raise DomainError(f"unknown model {kind!r}; models: siso, simo, mimo, unitdisk")
    return Mimo(2, k, pl) if kind == "mimo" else SimoMiso(1 if kind == "siso" else k, pl)


def _expansion_link(pl: PathLossParams) -> Mimo:
    """The link `pfc` and `simulate` take: the 2x2 MIMO link, at eta = 2 only."""
    if pl.eta != 2.0:
        raise CapabilityError(
            "the per-feature expansion is validated for eta = 2 in three dimensions "
            f"only, got eta={pl.eta}, dim={pl.dim}"
        )
    return Mimo(2, 2, pl)


def cmd_mass(args, params: dict) -> int:
    """Homogeneous connectivity mass sweeps."""
    kind, d, beta = params["model"], params["d"], params["beta"]
    if kind not in ("siso", "simo", "mimo"):
        raise DomainError(f"mass supports models siso|simo|mimo, got {kind!r}")
    if kind == "siso":
        params["k"] = [1]
    header = [
        "model", "k", "d", "eta", "beta",
        "closed_form", "quadrature", "quad_abs_err", "leading_order", "rel_gap",
    ]
    rows = []
    for eta in params["eta"]:
        pl = PathLossParams(beta, eta, d)
        for k in params["k"]:
            model = _link_model(kind, k, None, pl)
            closed = model.moment(d)
            quad = connmass.mass_quadrature(model)
            leading = connmass.mass_scaling_leading(k, pl)
            rows.append(
                [kind, k, d, eta, beta, closed, quad.value,
                 quad.est_abs_error, leading, closed / leading - 1.0]
            )
    _write_output(args, header, rows)
    return EXIT_OK


def cmd_pfc(args, params: dict) -> int:
    """Analytic connectivity probability curves."""
    prism = _build_prism(params)
    model = _expansion_link(PathLossParams(params["beta"], params["eta"], 3))
    header = [
        "rho", "p_fc", "p_out", "in_regime",
        "p_fc_bulk", "p_fc_bulk_faces", "p_fc_bulk_faces_edges",
        "term_corners", "term_edges", "term_faces", "term_bulk",
    ]
    breakdowns = pfc_analytic.assemble(prism, model, params["rho"])
    rows = []
    for b in breakdowns:
        terms = b.class_terms
        # P_fc keeping the bulk only, then adding the faces, then the edges
        running = itertools.accumulate((terms["bulk"], terms["faces"], terms["edges"]))
        rows.append(
            [b.rho, b.p_fc, b.p_out, b.in_regime, *(1.0 - s for s in running),
             terms["corners"], terms["edges"], terms["faces"], terms["bulk"]]
        )
    _write_output(
        args, header, rows,
        extra={"feature_table": [c.row() for c in breakdowns[0].contributions]},
    )
    return EXIT_OK


def cmd_simulate(args, params: dict) -> int:
    """Monte Carlo estimates across a density grid."""
    prism = _build_prism(params)
    model = _expansion_link(PathLossParams(params["beta"], params["eta"], 3))
    breakdowns = pfc_analytic.assemble(prism, model, params["rho"])
    header = [
        "rho", "n_nodes", "trials", "p_fc_hat", "ci_low", "ci_high",
        "mean_isolated", "p_fc_analytic",
    ]
    rows = []
    for rho, breakdown in zip(params["rho"], breakdowns):
        config = mc_sim.McConfig.from_density(
            prism, model, rho, params["trials"], params["seed"], poisson=params["poisson"]
        )
        est = mc_sim.run_trials(config)
        rows.append(
            [rho, config.node_count, est.trials, est.p_fc_hat,
             est.ci_low, est.ci_high, est.mean_isolated, breakdown.p_fc]
        )
    _write_output(args, header, rows)
    return EXIT_OK


def _field_node_count(expected: float) -> int:
    """round(expected), refused before any node is drawn when it is too many."""
    if not expected <= _MAX_FIELD_NODES:
        raise DomainError(
            f"field would draw {expected:.6g} nodes, more than {_MAX_FIELD_NODES}"
        )
    return round(expected)


def _field_slabs(axes, inside, points, model):
    """The field over the lattice of `axes`, slab by slab in `ij` order.

    A slab is whole first-axis planes, about _FIELD_SLAB_POINTS lattice
    points and at least one plane.  Yields each slab's flat lattice indices,
    points and field values, keeping only the points `inside` (when given).
    """
    shape = tuple(len(axis) for axis in axes)
    total, plane = math.prod(shape), math.prod(shape[1:])
    step = max(1, _FIELD_SLAB_POINTS // plane) * plane
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total))
        lattice = np.column_stack(
            [axis[i] for axis, i in zip(axes, np.unravel_index(flat, shape))]
        )
        if inside is not None:
            keep = inside(lattice)
            flat, lattice = flat[keep], lattice[keep]
        yield flat, lattice, mc_sim.connection_field(points, model, lattice)


def _write_field_csv(out, header: list[str], axes, slabs) -> None:
    """The field's CSV, written slab by slab: the bytes `_render` writes.

    csv.writer spells a float by repr and needs no quotes for one, so each
    axis value is spelled once and a line joins prebuilt strings with the
    repr of its value.
    """
    spelled = [[repr(v) for v in axis.tolist()] for axis in axes]
    heads = [",".join(coords) for coords in itertools.product(*spelled[:-1])]
    tails = spelled[-1]
    out.write(",".join(header) + "\n")
    for flat, _, values in slabs:
        head, tail = np.divmod(flat, len(tails))
        out.write("".join([
            f"{heads[h]},{tails[t]},{v!r}\n"
            for h, t, v in zip(head.tolist(), tail.tolist(), values.tolist())
        ]))


def cmd_field(args, params: dict) -> int:
    """Connection-probability field of one realization."""
    side, rho, grid_n = params["square"], params["rho"], params["grid"]
    if (side is None) == (params["prism"] is None):
        raise DomainError("field requires exactly one of --square or --prism")
    if not (math.isfinite(rho) and rho >= 0.0):
        raise DomainError(f"field density must be a non-negative finite real, got {rho}")
    if grid_n < 2:
        raise DomainError(f"grid must have at least 2 points per axis, got {grid_n}")

    dim = 2 if side is not None else 3
    cap = _MAX_JSON_GRID_POINTS if args.format == "json" else _MAX_GRID_POINTS
    if grid_n**dim > cap:
        raise DomainError(
            f"grid {grid_n} makes {grid_n**dim} points in {dim} dimensions, "
            f"more than {cap} for {args.format} output"
        )
    pl = PathLossParams(params["beta"], params["eta"], dim)
    model = _link_model(params["model"], params["k"], params["radius"], pl)

    rng = np.random.default_rng(check_seed(params["seed"]))
    # The domain: a square [0, side]^2 or a prism inside its bounding box.
    if side is not None:
        if not (math.isfinite(side) and side > 0.0):
            raise DomainError(f"square side must be a positive finite real, got {side}")
        lo, hi, inside = (0.0, 0.0), (side, side), None
        count = _field_node_count(rho * side * side)
        points = rng.random((count, 2)) * side
    else:
        prism = _build_prism(params)
        (lo, hi), inside = prism.bounding_box, prism.contains_many
        count = _field_node_count(rho * prism.volume)
        points = sample_uniform_rng(prism, count, rng) if count else np.empty((0, 3))
    if count:
        # No node is farther from a lattice point than the box's corners are
        # from each other; H must take that distance before output begins.
        mc_sim.connection_field([hi], model, [lo])

    axes = [np.linspace(a, b, grid_n) for a, b in zip(lo, hi)]
    slabs = _field_slabs(axes, inside, points, model)
    header = ["x", "y", "z"][:dim] + ["value"]
    if args.format == "json":  # one table in memory, hence its tighter cap
        rows = [
            row for _, lattice, values in slabs
            for row in np.column_stack((lattice, values)).tolist()
        ]
        _write_output(args, header, rows)
    else:
        with _opened(args) as out:
            _write_field_csv(out, header, axes, slabs)
    return EXIT_OK


def cmd_validate(args, params: dict) -> int:
    """Run the numerical self-check suite."""
    names = [tok for tok in params["check"].split(",") if tok] if params["check"] else None
    results = validation.run_checks(names, perturb=params["perturb"])
    header = ["check", "status", "detail"]
    rows = [[r.name, "PASS" if r.passed else "FAIL", r.detail] for r in results]
    _write_output(args, header, rows)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


_COMMANDS = {"mass": cmd_mass, "pfc": cmd_pfc, "simulate": cmd_simulate, "field": cmd_field,
             "validate": cmd_validate}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prismconn",
        description="Full-connectivity probability of dense networks in right prisms",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func in _COMMANDS.items():
        p = sub.add_parser(command, help=func.__doc__)
        # An absent flag is None: _resolve falls back to the config, then the default.
        for key, param in _PARAMS[command].items():
            action = "store_true" if param.kind is bool else "store"
            p.add_argument(*param.flags, dest=key, action=action, default=None, help=param.help)
        p.add_argument("--output", help="output file (defaults to stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--manifest", help="write a reproduction manifest to this path")
        p.add_argument("--config", help="JSON file of parameters; flags win on conflict")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        params = _resolve(args)
        code = args.func(args, params)
        _write_manifest(args, params)  # a failed validation is recorded too
        return code
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (DomainError, InvalidPrismError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
