"""Pair-connectedness probability H(r) for point-to-point link models.

Four models are supported: SISO, SIMO/MISO with m diversity branches,
MIMO with beamforming + maximum ratio combining restricted to
min(n_t, n_r) = 2, and the unit-disk hard threshold.  Each model owns its
H as an `h(r)` method that takes a scalar or an array of distances; the
scalar and vectorized entry points below are thin wrappers over it.  The
MIMO connectedness is also available in two further algebraically
equivalent forms so the three can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import specfun
from .errors import CapabilityError, DomainError

__all__ = [
    "ConnectionModel",
    "Mimo",
    "PathLossParams",
    "SimoMiso",
    "Siso",
    "UnitDisk",
    "mimo_gamma_form",
    "pair_connectedness",
    "pair_connectedness_many",
    "pair_connectedness_mimo_det",
    "support_radius",
]

_LINK_PROB_FLOOR = 1e-12  # pairs with H below this are treated as unlinked
# Past this order H is still above the floor where e^-x leaves the normal
# doubles (x > 708), so specfun.poisson_head loses its precision there.
_MIMO_MAX_ORDER = 512


@dataclass(frozen=True)
class PathLossParams:
    """Inverse-SNR scale beta (length^-eta), path-loss exponent eta, dimension."""

    beta: float
    eta: float
    dim: int = 3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be a positive finite real, got {self.beta}")
        if not (math.isfinite(self.eta) and self.eta >= 2.0):
            raise DomainError(
                f"eta must be finite and >= 2, got {self.eta}; "
                "use UnitDisk for the hard-threshold limit"
            )
        if self.dim not in (1, 2, 3):
            raise DomainError(f"dim must be 1, 2, or 3, got {self.dim}")

    def x(self, r):
        """beta * r^eta, the outage threshold argument at distance r.

        np.power, unlike Python's `**` on a float, rounds a scalar r exactly
        as it rounds the same value inside an array.
        """
        return self.beta * np.power(r, self.eta)


@dataclass(frozen=True)
class Siso:
    """Single antenna at both ends; exponential channel power."""

    params: PathLossParams
    diversity = 1

    def h(self, r):
        return np.exp(-self.params.x(r))


@dataclass(frozen=True)
class SimoMiso:
    """m-branch receive or transmit diversity; chi-squared channel power."""

    m: int
    params: PathLossParams

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"diversity order m must be >= 1, got {self.m}")

    @property
    def diversity(self) -> int:
        return self.m

    def h(self, r):
        x = self.params.x(r)
        if self.m == 1:
            return np.exp(-x)
        return specfun.regularized_upper_gamma(self.m, x)


@dataclass(frozen=True)
class Mimo:
    """Beamforming + MRC link with min(n_t, n_r) = 2 antennas at one end."""

    n_t: int
    n_r: int
    params: PathLossParams

    def __post_init__(self) -> None:
        if min(self.n_t, self.n_r) != 2:
            raise CapabilityError(
                f"MIMO links require min(n_t, n_r) == 2, got ({self.n_t}, {self.n_r}); "
                "use SimoMiso when one side has a single antenna"
            )
        if self.n > _MIMO_MAX_ORDER:
            raise CapabilityError(
                f"MIMO H is implemented for max(n_t, n_r) <= {_MIMO_MAX_ORDER}, got {self.n}"
            )

    @property
    def n(self) -> int:
        return max(self.n_t, self.n_r)

    diversity = n

    def h(self, r):
        # 1 - n P(n-1, x) P(n+1, x) + (n-1) P(n, x)^2 in closed form:
        # H = A(2 - A) + u((x + 2 - n)(1 - A) + (n - 1)u), with A = Q(n-1, x)
        # and u = e^-x x^(n-1) / (n-1)!; no cancellation in the tail.
        x = self.params.x(r)
        a, u = specfun.poisson_head(self.n - 1, x)
        # Built in x's array in place; a scalar just rebinds, in the same order.
        h = x
        h += 2.0 - self.n
        h *= 1.0 - a
        h += (self.n - 1.0) * u
        h *= u
        h += a * (2.0 - a)
        return _clamp01(h)


@dataclass(frozen=True)
class UnitDisk:
    """Hard connection threshold at a fixed radius.

    The value exactly at the radius defaults to exp(-beta), the
    complementary exponential CDF evaluated at the scale constant; it is
    measure-zero for every integral in this package.
    """

    radius: float
    params: PathLossParams
    plateau: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"radius must be a positive finite real, got {self.radius}")
        if self.plateau is None:
            object.__setattr__(self, "plateau", math.exp(-self.params.beta))
        if not 0.0 <= self.plateau <= 1.0:
            raise DomainError(f"plateau must lie in [0, 1], got {self.plateau}")

    diversity = 1

    def h(self, r):
        return (r < self.radius) * 1.0 + (r == self.radius) * self.plateau


ConnectionModel = Union[Siso, SimoMiso, Mimo, UnitDisk]


def _check_distance(r: float) -> None:
    if not (isinstance(r, (int, float)) and math.isfinite(r)) or r < 0.0:
        raise DomainError(f"distance must be a non-negative finite real, got {r}")


def _clamp01(h):
    """h clipped to [0, 1]: an array in place, a scalar by a cheap min/max."""
    if isinstance(h, np.ndarray):
        return np.clip(h, 0.0, 1.0, out=h)
    return min(1.0, max(0.0, h))


def pair_connectedness(model: ConnectionModel, r: float) -> float:
    """Probability that two nodes a distance r apart share a direct link."""
    _check_distance(r)
    return float(model.h(r))


def pair_connectedness_many(model: ConnectionModel, r: np.ndarray) -> np.ndarray:
    """Vectorized H over an array of distances.

    Fast path for the Monte Carlo engine and field sampling; agrees with
    the scalar evaluation bit for bit.
    """
    r = np.asarray(r, dtype=float)
    if not specfun._x_ok(r):
        raise DomainError("distances must be non-negative finite reals")
    return model.h(r)


def support_radius(model: ConnectionModel) -> float:
    """Distance beyond which H is below the link-probability floor.

    Found by doubling then bisection on the scalar H, so it holds for any
    model whose H is non-increasing in r.
    """
    hi = 1.0
    for _ in range(200):
        if pair_connectedness(model, hi) < _LINK_PROB_FLOOR:
            break
        hi *= 2.0
    lo, mid = 0.0, 0.5 * hi
    while lo < mid < hi:  # until lo and hi are adjacent doubles
        if pair_connectedness(model, mid) < _LINK_PROB_FLOOR:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def pair_connectedness_mimo_det(
    n_t: int,
    n_r: int,
    params: PathLossParams,
    r: float,
) -> float:
    """MIMO H via the literal outage determinant of lower incomplete gammas.

    Evaluated for min(n_t, n_r) in {1, 2}; the m = 1 case collapses to the
    diversity form with n = max(n_t, n_r) branches.
    """
    m, n = min(n_t, n_r), max(n_t, n_r)
    if m < 1:
        raise DomainError(f"antenna counts must be positive, got ({n_t}, {n_r})")
    if m > 2:
        raise CapabilityError(
            f"determinant form implemented for min(n_t, n_r) <= 2 only, got {m}"
        )
    _check_distance(r)
    x = params.beta * r ** params.eta

    def gamma_lower(a: float) -> float:
        return math.exp(specfun.log_gamma(a)) * specfun.regularized_lower_gamma(a, x)

    if m == 1:
        kappa = math.exp(-specfun.log_gamma(n))
        det = gamma_lower(n)
    else:
        # 2x2 determinant of gamma(n - 2 + i + j - 1, x), i, j = 1, 2.
        g_lo, g_mid, g_hi = gamma_lower(n - 1), gamma_lower(n), gamma_lower(n + 1)
        det = g_lo * g_hi - g_mid * g_mid
        kappa = math.exp(-(specfun.log_gamma(n) + specfun.log_gamma(n - 1)))
    return _clamp01(1.0 - kappa * det)


def mimo_gamma_form(n: int, params: PathLossParams, r: float) -> float:
    """MIMO m = 2 H rearranged into unregularized upper-gamma terms."""
    if n < 2:
        raise DomainError(f"gamma form requires n >= 2, got {n}")
    _check_distance(r)
    x = params.beta * r ** params.eta
    g_lo = specfun.upper_incomplete_gamma(n - 1, x)
    g_mid = specfun.upper_incomplete_gamma(n, x)
    g_hi = specfun.upper_incomplete_gamma(n + 1, x)
    gam_lo = math.exp(specfun.log_gamma(n - 1))
    gam_mid = math.exp(specfun.log_gamma(n))
    linear = (n * g_lo - 2.0 * g_mid + g_hi / (n - 1.0)) / gam_lo
    quadratic = (g_mid * g_mid - g_lo * g_hi) / (gam_mid * gam_lo)
    return _clamp01(linear + quadratic)
