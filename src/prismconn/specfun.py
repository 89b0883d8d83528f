"""Special functions backing every connectivity formula.

Log-gamma, the regularized incomplete gamma functions, the Poisson head
sum behind integer-order upper gammas and the Gauss hypergeometric
function on z in [-1, 0].
The incomplete gammas are thin wrappers over `scipy.special` that accept a
scalar or an array of x; only their regularized forms, bounded in [0, 1],
are offered, so callers cancel the Gamma factors instead of building them.

The Gauss function stays a hand-rolled series: checked against mpmath,
`scipy.special.hyp2f1` (scipy 1.17.1) at the arguments of the MIMO mass
closed form, F(., 2n + nu; .; -1), is off by more than 1e-8 relative from
n = 22 on and by up to 5e11 relative for n <= 64.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import ConvergenceError, DomainError

__all__ = [
    "gauss_2f1",
    "log_gamma",
    "poisson_head",
    "regularized_lower_gamma",
    "regularized_upper_gamma",
]

_HYP_REL_TOL = 1e-14
_HYP_MAX_ITER = 10_000


def log_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0."""
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"log_gamma requires finite a > 0, got {a}")
    return math.lgamma(a)


def _x_ok(x) -> bool:
    """Whether every x is finite and non-negative."""
    if isinstance(x, np.ndarray):
        # reductions, not elementwise masks: no temporaries; NaN fails both
        return x.size == 0 or bool(x.min() >= 0.0 and x.max() < math.inf)
    return math.isfinite(x) and x >= 0.0


def _check_gamma_args(a: float, x) -> None:
    if not (math.isfinite(a) and a > 0.0 and _x_ok(x)):
        raise DomainError(
            f"incomplete gamma requires finite a > 0 and finite x >= 0, got a={a}, x={x}"
        )


def regularized_lower_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x) in [0, 1]."""
    _check_gamma_args(a, x)
    return _sp.gammainc(a, x)


def regularized_upper_gamma(a: float, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    _check_gamma_args(a, x)
    return _sp.gammaincc(a, x)


def poisson_head(k: int, x):
    """(P[X < k], P[X = k]) for X ~ Poisson(x), scalar or array x.

    The first is Q(k, x) = e^-x sum_{j<k} x^j / j!, the regularized upper
    gamma at integer order k; the second is the next term e^-x x^k / k!.
    One exp per element, then the terms' forward recursion, all positive,
    so both are accurate to a few ulp while e^-x is a normal double
    (x < 708).  A scalar runs the same IEEE operations in the same order as
    an array element (augmented assignments rebind it), so the two agree
    bit for bit.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0 and _x_ok(x)):
        raise DomainError(
            f"poisson_head requires integer k >= 0 and finite x >= 0, got k={k}, x={x}"
        )
    if isinstance(x, np.ndarray):
        term = np.exp(-x)
        head = np.zeros_like(term)
    else:
        x = float(x)
        term = float(np.exp(-x))
        head = 0.0
    for j in range(1, k + 1):
        head += term
        term *= x
        term /= j
    return head, term


def _hyp_series(p: float, q: float, c: float, w: float) -> float:
    term = 1.0
    total = 1.0
    for k in range(_HYP_MAX_ITER):
        term *= (p + k) * (q + k) / ((c + k) * (k + 1.0)) * w
        total += term
        if abs(term) <= abs(total) * _HYP_REL_TOL:
            return total
    raise ConvergenceError(
        f"hypergeometric series stalled for parameters ({p}, {q}; {c}) at w={w}"
    )


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric F(a, b; c; z) for z in [-1, 0].

    A Pfaff transformation maps z to w = z/(z-1) in [0, 1/2], where the
    series converges geometrically.  The transformation is applied on
    whichever of the two symmetric parameter slots leaves both series
    numerator parameters non-negative, so all terms share one sign and no
    cancellation occurs.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("z", z)):
        if not math.isfinite(v):
            raise DomainError(f"gauss_2f1 requires finite {name}, got {v}")
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"gauss_2f1 undefined for non-positive integer c={c}")
    if not -1.0 <= z <= 0.0:
        raise DomainError(f"gauss_2f1 supports z in [-1, 0] only, got {z}")
    if z == 0.0:
        return 1.0
    w = z / (z - 1.0)
    p, q, power = a, c - b, a
    if not (a >= 0.0 and c - b >= 0.0) and c - a >= 0.0 and b >= 0.0:
        p, q, power = c - a, b, b
    return (1.0 - z) ** (-power) * _hyp_series(p, q, c, w)
