"""Homogeneous mass of connectivity: quadrature oracle and scaling laws.

The homogeneous mass M' of a link model is the radial integral
integral_0^inf r^(d-1) H(r) dr; multiplied by the solid angle available
to a boundary point it controls the exponential suppression of isolated
nodes there.  Its closed forms belong to the fading models
(`model.moment(d)` in `linkmodels`).  This module provides an independent
adaptive-quadrature evaluation of the defining integral, the cross-check
of those closed forms, the large-m / large-n leading-order terms (the
step-function approximation) and the error split of that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, ConvergenceError, DomainError
from .linkmodels import (
    ConnectionModel,
    Mimo,
    PathLossParams,
    SimoMiso,
    _beta_scale,
    _finite_mass,
    _support_bound,
    pair_connectedness,  # noqa: F401  unused; perfbench's tracer test wraps it here
    pair_connectedness_many,
    support_radius,
)

__all__ = [
    "MassResult",
    "error_order_fit",
    "loglog_slope",
    "mass_quadrature",
    "mass_scaling_leading",
    "step_error",
]

@dataclass(frozen=True)
class MassResult:
    """A value of M' (units length^d) with its estimated absolute error."""

    value: float
    est_abs_error: float


# QUADPACK's qk21: the 10 positive Kronrod abscissae on [-1, 1] (the Gauss
# ones at odd positions), then the Kronrod weights (centre last) and the
# 10-point Gauss weights.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067315000, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# The 21 nodes in ascending order, with their Kronrod and Gauss weights
# (Gauss weight 0 where a node is Kronrod-only).
_GK_NODES = np.array([-x for x in _XGK] + [0.0] + list(reversed(_XGK)))
_GK_WK = np.array(list(_WGK) + list(reversed(_WGK[:10])))
_GK_WG = np.array(
    [w for g in _WG for w in (0.0, g)] + [0.0] + [w for g in reversed(_WG) for w in (g, 0.0)]
)
_QUAD_LIMIT = 300  # subintervals, breakpoint panels included
# Equal panels each segment between breakpoints starts as: fine enough that
# almost every mass integrand meets the tolerance in the first f call.
_START_PANELS = 8
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-11
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _gk21(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """Kronrod values and QUADPACK error estimates of panels [a, b].

    All 21 nodes of every panel go to f in one array; a scalar f value is
    taken as constant.
    """
    half = 0.5 * (b - a)
    r = ((a + half)[:, None] + half[:, None] * _GK_NODES).ravel()
    fx = np.asarray(f(r), dtype=float)
    if fx.shape != r.shape:
        fx = np.broadcast_to(fx, r.shape)
    fx = fx.reshape(a.size, -1)
    resabs = (np.abs(fx) @ _GK_WK) * half
    if not math.isfinite(resabs.sum()):
        raise ConvergenceError("quadrature integrand is not finite on its nodes")
    kronrod = fx @ _GK_WK
    # QUADPACK's estimate resasc min(1, (200 |K - G| / resasc)^1.5), with
    # resasc the integral of |f - mean f| (0 where f is constant, with no
    # division by it), floored at 50 ulp of resabs, the integral of |f|.
    resasc = (np.abs(fx - 0.5 * kronrod[:, None]) @ _GK_WK) * half
    err = 200.0 * np.abs(kronrod - fx @ _GK_WG) * half
    err = resasc * (np.minimum(err, resasc) / np.maximum(resasc, _TINY)) ** 1.5
    return kronrod * half, np.maximum(50.0 * _EPS * resabs, err)


def _quad(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """Adaptive G10/K21 integral of an array integrand f over [lo, hi].

    Each segment between lo, the breakpoints inside (lo, hi) and hi starts
    as `_START_PANELS` equal panels, all evaluated in one f call.  Each
    further round bisects, largest error first, just enough panels that the
    rest's error is within tolerance, and evaluates all their halves in one
    f call; it stops when the summed error is within max(epsabs, epsrel
    |value|), at the subinterval limit, or when no panel can be bisected
    further.
    """
    edges = np.array([lo, *sorted(b for b in breakpoints if lo < b < hi), hi], dtype=float)
    # Each segment's first panel starts on its edge exactly, and its last one
    # ends on the next edge, the next segment's first start.
    fractions = np.arange(_START_PANELS) / _START_PANELS
    a = (edges[:-1, None] + np.diff(edges)[:, None] * fractions).ravel()
    b = np.append(a[1:], hi)
    values, errs = _gk21(f, a, b)
    while a.size < _QUAD_LIMIT:
        excess = errs.sum() - max(_QUAD_EPSABS, _QUAD_EPSREL * abs(values.sum()))
        if excess <= 0.0:
            break
        mid = 0.5 * (a + b)
        splittable = np.flatnonzero((a < mid) & (mid < b))
        if not splittable.size:
            break
        worst = splittable[np.argsort(-errs[splittable], kind="stable")]
        count = int(np.searchsorted(np.cumsum(errs[worst]), excess)) + 1
        pick = worst[: min(count, _QUAD_LIMIT - a.size)]
        new_a = np.concatenate([a[pick], mid[pick]])
        new_b = np.concatenate([mid[pick], b[pick]])
        new_values, new_errs = _gk21(f, new_a, new_b)
        keep = np.ones(a.size, dtype=bool)
        keep[pick] = False
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        values = np.concatenate([values[keep], new_values])
        errs = np.concatenate([errs[keep], new_errs])
    value, abs_err = float(values.sum()), float(errs.sum())
    if abs_err > max(1e-10, 1e-8 * abs(value)):
        raise ConvergenceError(
            f"quadrature error estimate {abs_err:.2e} too large for value {value:.6e}"
        )
    return value, abs_err


def _upper_limit(model: ConnectionModel) -> float:
    """Where the mass integrals stop: past it H is below the link-probability floor.

    This is `_support_bound`'s power of two, found in a few scalar H calls
    where `support_radius` bisects on with about 50 more.  Where beta * r^eta
    overflows at that bound, H there reads 0 whatever its true value, so the
    limit is `support_radius` instead, which refuses such a model with a
    DomainError or returns a radius where beta * r^eta is still a double.
    """
    bound = _support_bound(model)
    with np.errstate(over="ignore"):
        overflows = not math.isfinite(model.params.x(bound))
    return support_radius(model) if overflows else bound


def mass_quadrature(model: ConnectionModel) -> MassResult:
    """M' by adaptive quadrature of the defining radial integral.

    The integral runs from 0 to `_upper_limit`, with the model's step radius
    as a breakpoint, so the unit disk's jump falls on a panel edge.
    """
    d = model.params.dim
    value, abs_err = _quad(
        lambda r: r ** (d - 1) * pair_connectedness_many(model, r),
        0.0,
        _upper_limit(model),
        breakpoints=(model.step_radius(),),
    )
    return MassResult(value, abs_err)


def mass_scaling_leading(model: ConnectionModel) -> float:
    """Step-function M' = k^(d/eta) / (beta^(d/eta) d), the leading order for diversity k."""
    if not isinstance(model, (SimoMiso, Mimo)):
        raise CapabilityError(
            f"leading-order scaling applies to SimoMiso/Mimo, not {type(model).__name__}"
        )
    p = model.params
    nu = p.dim / p.eta
    value = model.diversity**nu / (_beta_scale(p, p.dim, "mass_scaling_leading") * p.dim)
    return _finite_mass(value, "mass_scaling_leading")


def step_error(n: int, params: PathLossParams) -> tuple[float, float]:
    """Error split (eps_minus <= 0, eps_plus >= 0) of the step approximation.

    eps_minus integrates r^(d-1) (H(r) - 1) below the transition radius,
    eps_plus integrates r^(d-1) H(r) above it; their sum plus the step
    value, `mass_scaling_leading`, reconstructs the exact mass.  A step
    radius (n / beta)^(1/eta) past the doubles is refused before any
    quadrature runs.
    """
    if n < 2:
        raise DomainError(f"step error requires n >= 2, got {n}")
    model = Mimo(2, n, params)
    d = params.dim
    transition = model.step_radius()
    if not math.isfinite(transition):
        raise DomainError(
            f"step error: the step radius (n/beta)^(1/eta) of {model} overflows"
        )
    eps_minus, _ = _quad(
        lambda r: r ** (d - 1) * (pair_connectedness_many(model, r) - 1.0), 0.0, transition
    )
    eps_plus, _ = _quad(
        lambda r: r ** (d - 1) * pair_connectedness_many(model, r),
        transition,
        _upper_limit(model),
    )
    return min(eps_minus, 0.0), max(eps_plus, 0.0)


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Ordinary least-squares slope of log y against log x."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size or xa.size < 2:
        raise DomainError("slope fit needs two sequences of equal length >= 2")
    if (xa <= 0).any() or (ya <= 0).any():
        raise DomainError("slope fit requires strictly positive data")
    return float(np.polyfit(np.log(xa), np.log(ya), 1)[0])


def error_order_fit(n_values: Sequence[int], params: PathLossParams) -> float:
    """Fitted growth order of |eps(n)|; expected d/eta - 1/2."""
    ns = list(n_values)
    if len(ns) < 4:
        raise DomainError(f"order fit needs at least 4 values of n, got {len(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("n values must be strictly increasing")
    if ns[-1] < 8 * ns[0]:
        raise DomainError("n values must span at least a factor of 8")
    eps = [sum(step_error(n, params)) for n in ns]
    if any(e == 0.0 for e in eps):
        raise DomainError("degenerate fit: eps(n) vanished for some n")
    return loglog_slope(ns, [abs(e) for e in eps])
