"""Pair-connectedness probability H(r) for point-to-point link models.

Four models are supported: SISO, SIMO/MISO with m diversity branches,
MIMO with beamforming + maximum ratio combining restricted to
min(n_t, n_r) = 2, and the unit-disk hard threshold.  SISO is SIMO/MISO
with m = 1.  Each model owns its H as an `h(r)` method that takes a scalar
or an array of distances; the scalar and vectorized entry points below are
thin wrappers over it.  The fading models also own the closed forms of H's
radial moments, `moment(d)` = integral_0^inf r^(d-1) H(r) dr: the
homogeneous mass M' is `moment(params.dim)`, and the boundary expansion's
J and I0 are `moment(2)` and `moment(1)`.  The MIMO connectedness is also
available in two further algebraically equivalent forms so the three can be
cross-checked.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import specfun
from .errors import CapabilityError, ConvergenceError, DomainError

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
# Distances per `model.h` call in `pair_connectedness_many`: the block, its H
# and the MIMO H's temporaries (about six float64 arrays, 0.75 MB) stay in L2
# cache and small enough for the allocator to reuse from one block to the next.
H_BLOCK = 16_384


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
        # Python floats: their powers and quotients raise or read inf, never warn
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "eta", float(self.eta))

    def r_eta_overflows(self, r: float) -> bool:
        """beta * r^eta is past the doubles at r, on Python floats, whose `**` raises unwarned."""
        try:
            return self.beta * float(r) ** self.eta == math.inf
        except OverflowError:
            return True

    def x(self, r):
        """beta * r^eta, the outage threshold argument at distance r.

        Refused where it is past the doubles at r's largest value, where H
        would read 0 or 1 whatever its true value.  np.power, unlike Python's
        `**` on a float, rounds a scalar r exactly as it rounds the same value
        inside an array.
        """
        if self.r_eta_overflows(r.max(initial=0.0) if isinstance(r, np.ndarray) else r):
            raise DomainError(f"beta * r^eta is past the doubles for {self}")
        return self.beta * np.power(r, self.eta)


@dataclass(frozen=True)
class SimoMiso:
    """m-branch receive or transmit diversity; chi-squared channel power."""

    m: int
    params: PathLossParams

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"diversity order m must be >= 1, got {self.m}")

    def step_radius(self) -> float:
        """(m / beta)^(1/eta): where H drops like a step, the mass integral's breakpoint."""
        return (self.m / self.params.beta) ** (1.0 / self.params.eta)

    def h(self, r):
        x = self.params.x(r)
        return np.exp(-x) if self.m == 1 else specfun.regularized_upper_gamma(self.m, x)

    def moment(self, d: int) -> float:
        """integral_0^inf r^(d-1) H(r) dr = Gamma(m + nu) / (Gamma(m) beta^nu d), nu = d/eta."""
        nu = d / self.params.eta
        value = math.exp(specfun.log_gamma(self.m + nu) - specfun.log_gamma(self.m)) / (
            _beta_scale(self.params, d, "SimoMiso.moment") * d
        )
        return _finite_mass(value, "SimoMiso.moment")


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

    def step_radius(self) -> float:
        """(n / beta)^(1/eta): where H drops like a step, the mass integral's breakpoint."""
        return (self.n / self.params.beta) ** (1.0 / self.params.eta)

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

    def moment(self, d: int) -> float:
        """integral_0^inf r^(d-1) H(r) dr in closed form.

        At n = 2 the reduced form (nu^2 + nu + 2 - 2^-nu) Gamma(nu) / (beta^nu
        eta), nu = d/eta, within an ulp or so of the exact value; above that
        the general hypergeometric form `_mimo_moment`, which the tests also
        hold the reduced form against.
        """
        if self.n > 2:
            return _mimo_moment(self.n, self.params, d)
        nu = d / self.params.eta
        value = (
            (nu * nu + nu + 2.0 - 2.0 ** (-nu))
            * math.exp(specfun.log_gamma(nu))
            / (_beta_scale(self.params, d, "Mimo.moment") * self.params.eta)
        )
        return _finite_mass(value, "Mimo.moment")


@dataclass(frozen=True)
class UnitDisk:
    """Hard connection threshold at a fixed radius.

    The value exactly at the radius is exp(-beta), the complementary
    exponential CDF evaluated at the scale constant; it is measure-zero for
    every integral in this package.
    """

    radius: float
    params: PathLossParams

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError(f"radius must be a positive finite real, got {self.radius}")

    def step_radius(self) -> float:
        """The radius, where H jumps: the mass integral's breakpoint."""
        return self.radius

    def h(self, r):
        return (r < self.radius) * 1.0 + (r == self.radius) * math.exp(-self.params.beta)


ConnectionModel = Union[SimoMiso, Mimo, UnitDisk]


def _beta_scale(params: PathLossParams, d: int, name: str) -> float:
    """beta^(d/eta), which every closed-form moment divides by; 0 would overflow M'."""
    try:
        scale = params.beta ** (d / params.eta)
    except OverflowError:
        raise OverflowError(
            f"{name}: beta^(d/eta) = {params.beta}^{d / params.eta} "
            "overflows, so M' is no positive double"
        ) from None
    if scale == 0.0:
        raise OverflowError(
            f"{name}: beta^(d/eta) = {params.beta}^{d / params.eta} "
            "underflows to 0, so M' overflows"
        )
    return scale


def _finite_mass(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"{name}: M' is not a finite double ({value})")
    return value


def _mimo_moment(n: int, params: PathLossParams, d: int) -> float:
    """The general closed form of `Mimo.moment` for n = max(n_t, n_r) >= 2."""
    nu = d / params.eta
    scale = _beta_scale(params, d, "Mimo.moment")
    linear = (1.0 - nu) * math.exp(
        specfun.log_gamma(n - 1 + nu) - specfun.log_gamma(n - 1)
    ) / (scale * d)
    log_prefactor = specfun.log_gamma(2 * n + nu) - 2.0 * specfun.log_gamma(n)
    f_plain = specfun.gauss_2f1(n - 1, 2 * n + nu, n + 1, -1.0)
    f_shift = specfun.gauss_2f1(n - 1 + nu, 2 * n + nu, n + 1 + nu, -1.0)
    bracket = f_plain / n - (n - 1) / ((n + nu) * (n - 1 + nu)) * f_shift
    # Where the prefactor passes the doubles (from n = 504 at beta = 1, or at
    # a small beta) the bracket is tiny and positive: multiply in logarithms.
    try:
        tail = math.exp(log_prefactor) / (scale * d) * bracket
    except OverflowError:
        tail = math.inf
    if tail == math.inf:
        tail = math.exp(log_prefactor + math.log(bracket)) / (scale * d)
    return _finite_mass(linear + tail, "Mimo.moment")


def Siso(params: PathLossParams) -> SimoMiso:
    """Single antenna at both ends: the one-branch diversity link."""
    return SimoMiso(1, params)


# float and int are Reals too; named first, they skip the slower ABC check.
_DISTANCE_TYPES = (float, int, np.ndarray, numbers.Real)


def _check_distance(r) -> None:
    if not (isinstance(r, _DISTANCE_TYPES) and specfun._x_ok(r)):
        raise DomainError("distances must be non-negative finite reals")


def _clamp01(h):
    """h clipped to [0, 1]: an array in place, a scalar by a cheap min/max."""
    if isinstance(h, np.ndarray):
        return np.clip(h, 0.0, 1.0, out=h)
    return min(1.0, max(0.0, h))


def pair_connectedness(model: ConnectionModel, r: float) -> float:
    """Probability that two nodes a distance r apart share a direct link."""
    _check_distance(r)
    return float(model.h(float(r)))


def pair_connectedness_many(model: ConnectionModel, r: np.ndarray) -> np.ndarray:
    """Vectorized H over an array of distances.

    Fast path for the Monte Carlo engine and field sampling.  H runs on
    blocks of at most `H_BLOCK` distances, so its temporaries stay small;
    it is elementwise, so every value agrees with one call on the whole
    array and with the scalar evaluation bit for bit.  One block is
    returned as H made it, uncopied.
    """
    r = np.asarray(r, dtype=float)
    _check_distance(r)
    if r.size <= H_BLOCK:
        return model.h(r)
    out = np.empty(r.shape)
    flat_r, flat_out = r.reshape(-1), out.reshape(-1)
    for start in range(0, flat_r.size, H_BLOCK):
        flat_out[start : start + H_BLOCK] = model.h(flat_r[start : start + H_BLOCK])
    return out


def _r_eta_overflows(model: ConnectionModel, r: float) -> bool:
    """beta * r^eta, which every H but the unit disk's reads, is past the doubles at r."""
    return not isinstance(model, UnitDisk) and model.params.r_eta_overflows(r)


def _below_floor(model: ConnectionModel, r: float) -> bool:
    """H(r) is below the floor, or beta * r^eta is past the doubles, where H is not read."""
    return _r_eta_overflows(model, r) or pair_connectedness(model, r) < _LINK_PROB_FLOOR


def _support_bound(model: ConnectionModel) -> float:
    """The first power of two, counting up from 1, at which H is below the floor.

    A distance whose beta * r^eta overflows counts as below it.  A model whose
    H stays above the floor at every finite double raises ConvergenceError.
    """
    hi = 1.0
    while not _below_floor(model, hi):
        hi *= 2.0
        if hi == math.inf:
            raise ConvergenceError(f"H of {model} is above {_LINK_PROB_FLOOR} at every distance")
    return hi


def support_radius(model: ConnectionModel) -> float:
    """Distance beyond which H is below the link-probability floor.

    Bisected on the scalar H inside `_support_bound`'s power of two down to
    adjacent doubles, so it holds for any model whose H is non-increasing in
    r; the Monte Carlo cutoff needs it to the last bit.  A model whose H
    stays above the floor at every finite double raises ConvergenceError;
    one whose H reads beta * r^eta (all but the unit disk) raises DomainError
    where r^eta overflows first, since H past that point reads 0 whatever
    its true value.
    """
    hi = _support_bound(model)
    lo, mid = 0.0, 0.5 * hi
    while lo < mid < hi:  # until lo and hi are adjacent doubles
        if _below_floor(model, mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    if _r_eta_overflows(model, hi):
        raise DomainError(f"beta * r^eta overflows before H of {model} falls below the floor")
    return hi


def _upper_limit(model: ConnectionModel) -> float:
    """Where the mass integrals stop: past it H is below the link-probability floor.

    `_support_bound`'s power of two, a few scalar H calls where `support_radius`
    bisects on with about 50 more; `support_radius` itself where beta * r^eta
    overflows at that bound, which refuses the model or stops short of it.
    """
    bound = _support_bound(model)
    return support_radius(model) if _r_eta_overflows(model, bound) else bound


def pair_connectedness_mimo_det(
    n_t: int,
    n_r: int,
    params: PathLossParams,
    r: float,
) -> float:
    """MIMO H via the literal outage determinant of lower incomplete gammas.

    Evaluated for min(n_t, n_r) in {1, 2}; the m = 1 case collapses to the
    diversity form with n = max(n_t, n_r) branches.  At m = 2 the Gamma
    factors of det[gamma(n - 3 + i + j, x)] / (Gamma(n) Gamma(n - 1)) cancel,
    leaving n P(n-1, x) P(n+1, x) - (n-1) P(n, x)^2.
    """
    m, n = min(n_t, n_r), max(n_t, n_r)
    if m < 1:
        raise DomainError(f"antenna counts must be positive, got ({n_t}, {n_r})")
    if m > 2:
        raise CapabilityError(
            f"determinant form implemented for min(n_t, n_r) <= 2 only, got {m}"
        )
    _check_distance(r)
    x = params.x(float(r))
    if m == 1:
        return _clamp01(1.0 - specfun.regularized_lower_gamma(n, x))
    p_lo, p_mid, p_hi = (specfun.regularized_lower_gamma(a, x) for a in (n - 1, n, n + 1))
    return _clamp01(1.0 - n * p_lo * p_hi + (n - 1) * p_mid * p_mid)


def mimo_gamma_form(n: int, params: PathLossParams, r: float) -> float:
    """MIMO m = 2 H rearranged into regularized upper-gamma terms Q_j = Q(n - 1 + j, x)."""
    if n < 2:
        raise DomainError(f"gamma form requires n >= 2, got {n}")
    _check_distance(r)
    x = params.x(float(r))
    q_lo, q_mid, q_hi = (specfun.regularized_upper_gamma(a, x) for a in (n - 1, n, n + 1))
    return _clamp01(n * (q_lo + q_hi - q_lo * q_hi) - (n - 1) * q_mid * (2.0 - q_mid))
