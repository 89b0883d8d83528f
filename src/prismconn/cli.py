"""Command-line front end.

Subcommands: mass | pfc | simulate | field | validate.  Every run resolves
its parameters (config file first, flags win), can echo them to a manifest
JSON sufficient to reproduce the run bit-for-bit via --config, and emits
CSV or JSON tables.  Exit codes: 0 success, 2 usage error, 3 capability
error, 4 validation/convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, connmass, mc_sim, pfc_analytic, validation
from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    InvalidPrismError,
)
from .geometry import RightPrism, load_prism, preset_prism, sample_uniform_rng
from .linkmodels import Mimo, PathLossParams, SimoMiso, Siso, UnitDisk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_VALIDATION = 4


def _cast(kind, value, where: str):
    """kind(value); a malformed value is a usage error naming it and where it was."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise DomainError(f"{where}: not a valid {kind.__name__}: {value!r}") from None


_MAX_VALUES = 10**6  # longest range a spec may expand to
_MAX_GRID_POINTS = 10**7  # largest field lattice; admits the default 200^3
_MAX_FIELD_NODES = 10**6  # most nodes a field realization may draw
# Lattice points per slab of a streamed field: a slab's points, values and
# CSV text take a few MB however large the lattice.
_FIELD_SLAB_POINTS = 4096


def _nonempty(values: list, spec) -> list:
    if not values:
        raise DomainError(f"number spec {spec!r} has no values")
    return values


def _too_long(count: float, text: str) -> None:
    if count > _MAX_VALUES:
        raise DomainError(f"range {text!r} has more than {_MAX_VALUES} values")


def _parse_int_spec(spec) -> list[int]:
    """Integers: lo..hi (inclusive), a comma list, or one value."""
    if isinstance(spec, (list, tuple)):
        return _nonempty([_cast(int, v, "integer list") for v in spec], spec)
    if isinstance(spec, int):
        return [spec]
    text = str(spec).strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = _cast(int, lo, f"range {text!r}"), _cast(int, hi, f"range {text!r}")
        if hi_i < lo_i:
            raise DomainError(f"empty integer range {text!r}")
        _too_long(hi_i - lo_i + 1, text)
        return list(range(lo_i, hi_i + 1))
    tokens = [tok for tok in text.split(",") if tok]
    return _nonempty([_cast(int, tok, f"list {text!r}") for tok in tokens], spec)


def _parse_grid(spec) -> list[float]:
    """Reals: start:stop:step, a comma list, or one value."""
    if isinstance(spec, (list, tuple)):
        return _nonempty([_cast(float, v, "grid list") for v in spec], spec)
    if isinstance(spec, (int, float)):
        return [float(spec)]
    text = str(spec).strip()
    if ":" in text:
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
        return values
    tokens = [tok for tok in text.split(",") if tok]
    return _nonempty([_cast(float, tok, f"grid {text!r}") for tok in tokens], spec)


def _render(fmt: str, header: list[str], rows: list[list], extra: dict | None = None) -> str:
    if fmt == "csv":
        # csv.writer writes a float by repr, an int by str and None as an
        # empty cell; only bools need spelling out, so only the columns that
        # hold one (found at C speed) are rewritten.
        flagged = {
            i for i, column in enumerate(itertools.zip_longest(*rows))
            if bool in set(map(type, column))
        }
        if flagged:
            rows = [
                [("true" if v else "false") if i in flagged and type(v) is bool else v
                 for i, v in enumerate(row)]
                for row in rows
            ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    payload = {"rows": [dict(zip(header, row)) for row in rows]}
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_output(args, header: list[str], rows: list[list], extra: dict | None = None) -> None:
    text = _render(args.format, header, rows, extra)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_manifest(args, command: str, params: dict) -> None:
    manifest_path = args.manifest
    if manifest_path is None and args.output:
        manifest_path = str(args.output) + ".manifest.json"
    if manifest_path is None:
        return
    payload = {"command": command, "package_version": __version__, "parameters": params}
    Path(manifest_path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _resolve(args, defaults: dict, required: tuple[str, ...] = ()) -> dict:
    """Merge defaults, config file, and explicit flags (flags win)."""
    params = dict(defaults)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if "parameters" in loaded and isinstance(loaded["parameters"], dict):
            loaded = loaded["parameters"]
        for key in defaults:
            if key in loaded:
                params[key] = loaded[key]
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            params[key] = flag_value
    missing = [k for k in required if params.get(k) is None]
    if missing:
        raise DomainError(f"missing required parameters: {', '.join(sorted(missing))}")
    return params


def _path_loss(params: dict, dim: int) -> PathLossParams:
    return PathLossParams(
        _cast(float, params["beta"], "beta"), _cast(float, params["eta"], "eta"), dim
    )


def _build_prism(params: dict) -> RightPrism:
    name = str(params["prism"])
    if name in ("house", "cube"):
        return preset_prism(name, _cast(float, params["length"], "length"))
    return load_prism(name)


def cmd_mass(args) -> int:
    defaults = {"model": None, "k": "2..8", "d": 3, "eta": "2", "beta": 1.0}
    params = _resolve(args, defaults, required=("model",))
    kind = str(params["model"])
    if kind not in ("siso", "simo", "mimo"):
        raise DomainError(f"mass supports models siso|simo|mimo, got {kind!r}")
    ks = [1] if kind == "siso" else _parse_int_spec(params["k"])
    etas = _parse_grid(params["eta"])
    beta = _cast(float, params["beta"], "beta")
    d = _cast(int, params["d"], "d")
    header = [
        "model", "k", "d", "eta", "beta",
        "closed_form", "quadrature", "quad_abs_err", "leading_order", "rel_gap",
    ]
    rows = []
    for eta in etas:
        pl = PathLossParams(beta, eta, d)
        for k in ks:
            if kind == "mimo":
                closed = connmass.mass_mimo_closed(k, pl)
                model = Mimo(2, k, pl)
            else:
                closed = connmass.mass_simo_closed(k, pl)
                model = SimoMiso(k, pl)
            quad = connmass.mass_quadrature(model)
            leading = connmass.mass_scaling_leading(model)
            rows.append(
                [kind, k, d, eta, beta, closed.value, quad.value,
                 quad.est_abs_error, leading, closed.value / leading - 1.0]
            )
    _write_output(args, header, rows)
    _write_manifest(args, "mass", {**params, "k": ks, "eta": etas})
    return EXIT_OK


_PFC_DEFAULTS = {
    "prism": "house",
    "length": 7.0,
    "beta": 1.0,
    "eta": 2.0,
    "d": 3,
    "rho": None,
}


def cmd_pfc(args) -> int:
    params = _resolve(args, dict(_PFC_DEFAULTS), required=("rho",))
    prism = _build_prism(params)
    pl = _path_loss(params, _cast(int, params["d"], "d"))
    rhos = _parse_grid(params["rho"])
    header = [
        "rho", "p_fc", "p_out", "in_regime",
        "p_fc_bulk", "p_fc_bulk_faces", "p_fc_bulk_faces_edges",
        "term_corners", "term_edges", "term_faces", "term_bulk",
    ]
    rows = []
    for b in pfc_analytic.assemble(prism, pl, rhos):
        sums = pfc_analytic.class_term_sums(b)
        cumulative = pfc_analytic.cumulative_pfc(b)
        rows.append(
            [b.rho, b.p_fc, b.p_out, b.in_regime,
             cumulative["bulk_only"], cumulative["bulk_faces"],
             cumulative["bulk_faces_edges"],
             sums["corners"], sums["edges"], sums["faces"], sums["bulk"]]
        )
    _write_output(
        args, header, rows,
        extra={"feature_table": pfc_analytic.feature_table(prism, pl)},
    )
    _write_manifest(args, "pfc", {**params, "rho": rhos})
    return EXIT_OK


def cmd_simulate(args) -> int:
    defaults = {**_PFC_DEFAULTS, "trials": 1000, "seed": None, "poisson": False}
    params = _resolve(args, defaults, required=("rho", "seed"))
    prism = _build_prism(params)
    pl = _path_loss(params, _cast(int, params["d"], "d"))
    model = Mimo(2, 2, pl)
    rhos = _parse_grid(params["rho"])
    breakdowns = pfc_analytic.assemble(prism, pl, rhos)
    trials = _cast(int, params["trials"], "trials")
    seed = _cast(int, params["seed"], "seed")
    header = [
        "rho", "n_nodes", "trials", "p_fc_hat", "ci_low", "ci_high",
        "mean_isolated", "p_fc_analytic",
    ]
    rows = []
    for rho, breakdown in zip(rhos, breakdowns):
        config = mc_sim.McConfig.from_density(
            prism, model, rho, trials, seed, poisson=bool(params["poisson"])
        )
        est = mc_sim.run_trials(config)
        rows.append(
            [rho, config.node_count, est.trials, est.p_fc_hat,
             est.ci_low, est.ci_high, est.mean_isolated, breakdown.p_fc]
        )
    _write_output(args, header, rows)
    _write_manifest(args, "simulate", {**params, "rho": rhos})
    return EXIT_OK


def _field_model(params: dict, dim: int):
    pl = _path_loss(params, dim)
    kind = str(params["model"])
    if kind == "siso":
        return Siso(pl)
    if kind == "simo":
        return SimoMiso(_cast(int, params["k"], "m"), pl)
    if kind == "mimo":
        return Mimo(2, _cast(int, params["k"], "m"), pl)
    if kind == "unitdisk":
        return UnitDisk(_cast(float, params["radius"], "radius"), pl)
    raise DomainError(f"field supports models siso|simo|mimo|unitdisk, got {kind!r}")


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


def cmd_field(args) -> int:
    defaults = {
        "square": None, "prism": None, "length": None, "model": "siso",
        "k": 2, "radius": 1.0, "beta": 1.0, "eta": 2.0, "rho": None,
        "grid": 200, "seed": None,
    }
    params = _resolve(args, defaults, required=("rho", "seed"))
    if (params["square"] is None) == (params["prism"] is None):
        raise DomainError("field requires exactly one of --square or --prism")

    rhos = _parse_grid(params["rho"])
    if len(rhos) != 1:
        raise DomainError(f"field takes one density, got {len(rhos)}: {params['rho']!r}")
    rho = rhos[0]
    if not (math.isfinite(rho) and rho >= 0.0):
        raise DomainError(f"field density must be a non-negative finite real, got {rho}")
    grid_n = _cast(int, params["grid"], "grid")
    if grid_n < 2:
        raise DomainError(f"grid must have at least 2 points per axis, got {grid_n}")
    seed = _cast(int, params["seed"], "seed")

    # The domain: a square [0, side]^2 or a prism inside its bounding box.
    prism = None
    if params["square"] is not None:
        side = _cast(float, params["square"], "square")
        if not (math.isfinite(side) and side > 0.0):
            raise DomainError(f"square side must be a positive finite real, got {side}")
        dim, lo, hi = 2, (0.0, 0.0), (side, side)
        count = _field_node_count(rho * side * side)
    else:
        prism = _build_prism(params)
        dim, (lo, hi) = 3, prism.bounding_box
        count = _field_node_count(rho * prism.volume)
    if grid_n**dim > _MAX_GRID_POINTS:
        raise DomainError(
            f"grid {grid_n} makes {grid_n**dim} points in {dim} dimensions, "
            f"more than {_MAX_GRID_POINTS}"
        )
    model = _field_model(params, dim)

    rng = np.random.default_rng(seed)
    if prism is None:
        points = rng.random((count, 2)) * side
    else:
        points = sample_uniform_rng(prism, count, rng) if count else np.empty((0, 3))
    if count:
        # No node is farther from a lattice point than the box's corners are
        # from each other; H must take that distance before output begins.
        mc_sim.connection_field([hi], model, [lo])

    axes = [np.linspace(a, b, grid_n) for a, b in zip(lo, hi)]
    slabs = _field_slabs(axes, None if prism is None else prism.contains_many, points, model)
    header = ["x", "y", "z"][:dim] + ["value"]
    if args.format == "json":  # one table in memory: meant for small grids
        rows = [
            row for _, lattice, values in slabs
            for row in np.column_stack((lattice, values)).tolist()
        ]
        _write_output(args, header, rows)
    elif args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            _write_field_csv(out, header, axes, slabs)
    else:
        _write_field_csv(sys.stdout, header, axes, slabs)
    _write_manifest(args, "field", {**params, "rho": rho})
    return EXIT_OK


def cmd_validate(args) -> int:
    defaults = {"check": None, "perturb": False}
    params = _resolve(args, defaults)
    names = None
    if params["check"]:
        names = [tok for tok in str(params["check"]).split(",") if tok]
    results = validation.run_checks(names, perturb=bool(params["perturb"]))
    header = ["check", "status", "detail"]
    rows = [[r.name, "PASS" if r.passed else "FAIL", r.detail] for r in results]
    _write_output(args, header, rows)
    _write_manifest(args, "validate", params)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def _add_common(sub) -> None:
    sub.add_argument("--output", help="output file (defaults to stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--manifest", help="write a reproduction manifest to this path")
    sub.add_argument("--config", help="JSON file of parameters; flags win on conflict")


def _add_prism_flags(sub, dimension: bool) -> None:
    """The prism, path-loss and density flags of pfc, simulate and field."""
    sub.add_argument("--prism", help="house | cube | path to a prism JSON file")
    sub.add_argument(
        "--L", dest="length", type=float, help="scale length of a house or cube preset"
    )
    sub.add_argument("--beta", type=float, help="path-loss scale beta")
    sub.add_argument("--eta", type=float, help="path-loss exponent eta")
    if dimension:
        sub.add_argument("--d", type=int, help="spatial dimension")
    sub.add_argument(
        "--rho", help="node density; a start:stop:step or comma-list sweep (field takes one value)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prismconn",
        description="Full-connectivity probability of dense networks in right prisms",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mass", help="homogeneous connectivity mass sweeps")
    p.add_argument("--model", choices=("siso", "simo", "mimo"))
    p.add_argument("--m", "--n", dest="k", help="diversity orders, e.g. 1..64 or 2,4,8")
    p.add_argument("--d", type=int, help="spatial dimension (1, 2, or 3)")
    p.add_argument("--eta", help="path-loss exponents: start:stop:step, a comma list or one value")
    p.add_argument("--beta", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_mass)

    p = sub.add_parser("pfc", help="analytic connectivity probability curves")
    _add_prism_flags(p, dimension=True)
    _add_common(p)
    p.set_defaults(func=cmd_pfc)

    p = sub.add_parser("simulate", help="Monte Carlo estimates across a density grid")
    _add_prism_flags(p, dimension=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--poisson", action="store_true", default=None,
                   help="draw the node count from a Poisson distribution per trial")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("field", help="connection-probability field of one realization")
    p.add_argument("--square", type=float, help="side of a 2D square domain (or use --prism)")
    _add_prism_flags(p, dimension=False)
    p.add_argument("--model", choices=("siso", "simo", "mimo", "unitdisk"))
    p.add_argument("--m", "--n", dest="k", type=int, help="diversity order for simo/mimo")
    p.add_argument("--radius", type=float, help="unit-disk connection radius")
    p.add_argument("--grid", type=int, help="grid points per axis")
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("validate", help="run the numerical self-check suite")
    p.add_argument("--check", help="comma-separated subset of checks to run")
    p.add_argument("--perturb", action="store_true", default=None,
                   help="inject a wrong constant (negative control; must fail)")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (DomainError, InvalidPrismError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
