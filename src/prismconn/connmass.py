"""Homogeneous mass of connectivity: closed forms, quadrature oracle, scaling laws.

The homogeneous mass M' of a link model is the radial integral
integral_0^inf r^(d-1) H(r) dr; multiplied by the solid angle available
to a boundary point it controls the exponential suppression of isolated
nodes there.  This module provides the closed forms for every fading
model, an independent adaptive-quadrature evaluation of the defining
integral, the large-m / large-n leading-order terms, and the step-function
approximation with its error split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np
from scipy import integrate

from . import specfun
from .errors import CapabilityError, ConvergenceError, DomainError
from .linkmodels import (
    ConnectionModel,
    Mimo,
    PathLossParams,
    SimoMiso,
    pair_connectedness,
    support_radius,
)

__all__ = [
    "MassResult",
    "error_order_fit",
    "loglog_slope",
    "mass_mimo_closed",
    "mass_mimo_n2_specialization",
    "mass_quadrature",
    "mass_scaling_leading",
    "mass_simo_closed",
    "mass_step_approx",
    "step_error",
]

MassMethod = Literal["closed_form", "quadrature", "step_approx"]


@dataclass(frozen=True)
class MassResult:
    """A value of M' (units length^d) with its evaluation method tag."""

    value: float
    method: MassMethod
    est_abs_error: float = 0.0


def mass_simo_closed(m: int, params: PathLossParams) -> MassResult:
    """Closed-form M' for an m-branch diversity link (m = 1 is SISO)."""
    if m < 1:
        raise DomainError(f"diversity order m must be >= 1, got {m}")
    nu = params.dim / params.eta
    value = math.exp(specfun.log_gamma(m + nu) - specfun.log_gamma(m)) / (
        params.beta**nu * params.dim
    )
    return MassResult(value, "closed_form")


def mass_mimo_closed(n: int, params: PathLossParams) -> MassResult:
    """Closed-form M' for the min-2-antenna MIMO link with n = max(n_t, n_r)."""
    if n < 2:
        raise CapabilityError(f"MIMO mass requires n >= 2, got {n}")
    nu = params.dim / params.eta
    linear = (1.0 - nu) * math.exp(
        specfun.log_gamma(n - 1 + nu) - specfun.log_gamma(n - 1)
    ) / (params.beta**nu * params.dim)
    prefactor = math.exp(specfun.log_gamma(2 * n + nu) - 2.0 * specfun.log_gamma(n)) / (
        params.beta**nu * params.dim
    )
    f_plain = specfun.gauss_2f1(n - 1, 2 * n + nu, n + 1, -1.0)
    f_shift = specfun.gauss_2f1(n - 1 + nu, 2 * n + nu, n + 1 + nu, -1.0)
    bracket = f_plain / n - (n - 1) / ((n + nu) * (n - 1 + nu)) * f_shift
    return MassResult(linear + prefactor * bracket, "closed_form")


def mass_mimo_n2_specialization(params: PathLossParams) -> float:
    """The n = 2 MIMO mass in its reduced form, for cross-checking."""
    nu = params.dim / params.eta
    return (
        (nu * nu + nu + 2.0 - 2.0 ** (-nu))
        * math.exp(specfun.log_gamma(nu))
        / (params.beta**nu * params.eta)
    )


def _quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    pts = [b for b in breakpoints if lo < b < hi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abs_err = integrate.quad(
            f, lo, hi, points=pts or None, limit=300, epsabs=1e-12, epsrel=1e-11
        )
    if abs_err > max(1e-10, 1e-8 * abs(value)):
        raise ConvergenceError(
            f"quadrature error estimate {abs_err:.2e} too large for value {value:.6e}"
        )
    return value, abs_err


def mass_quadrature(model: ConnectionModel) -> MassResult:
    """M' by adaptive quadrature of the defining radial integral."""
    d = model.params.dim
    transition = (model.diversity / model.params.beta) ** (1.0 / model.params.eta)
    value, abs_err = _quad(
        lambda r: r ** (d - 1) * pair_connectedness(model, r),
        0.0,
        support_radius(model),
        breakpoints=(transition,),
    )
    return MassResult(value, "quadrature", abs_err)


def mass_scaling_leading(model: ConnectionModel) -> float:
    """Leading-order M' = k^(d/eta) / (beta^(d/eta) d) for diversity order k."""
    if not isinstance(model, (SimoMiso, Mimo)):
        raise CapabilityError(
            f"leading-order scaling applies to SimoMiso/Mimo, not {type(model).__name__}"
        )
    p = model.params
    nu = p.dim / p.eta
    return model.diversity**nu / (p.beta**nu * p.dim)


def mass_step_approx(n: int, params: PathLossParams) -> MassResult:
    """Step-function approximation (1/d)(n/beta)^(d/eta) of the MIMO mass."""
    if n < 2:
        raise DomainError(f"step approximation requires n >= 2, got {n}")
    nu = params.dim / params.eta
    return MassResult((n / params.beta) ** nu / params.dim, "step_approx")


def step_error(n: int, params: PathLossParams) -> tuple[float, float]:
    """Error split (eps_minus <= 0, eps_plus >= 0) of the step approximation.

    eps_minus integrates r^(d-1) (H(r) - 1) below the transition radius,
    eps_plus integrates r^(d-1) H(r) above it; their sum plus the step
    value reconstructs the exact mass.
    """
    if n < 2:
        raise DomainError(f"step error requires n >= 2, got {n}")
    model = Mimo(2, n, params)
    d = params.dim
    transition = (n / params.beta) ** (1.0 / params.eta)
    eps_minus, _ = _quad(
        lambda r: r ** (d - 1) * (pair_connectedness(model, r) - 1.0), 0.0, transition
    )
    eps_plus, _ = _quad(
        lambda r: r ** (d - 1) * pair_connectedness(model, r),
        transition,
        support_radius(model),
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
