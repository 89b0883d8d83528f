"""Special functions that scipy and `math` lack.

`poisson_head(k, x)`, the Poisson head sum behind integer-order upper
gammas and the next Poisson term, from one exp per element; and the Gauss
hypergeometric function on z in [-1, 0].  Log-gamma and the regularized
incomplete gammas are `math.lgamma` and `scipy.special.gammainc` and
`gammaincc`, called directly where the link models have checked their
orders and arguments.

The Gauss function stays a hand-rolled series: checked against mpmath,
`scipy.special.hyp2f1` (scipy 1.17.1) at the arguments of the MIMO mass
closed form, F(., 2n + nu; .; -1), is off by more than 1e-8 relative from
n = 22 on and by up to 5e11 relative for n <= 64.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["gauss_2f1", "poisson_head"]

_HYP_REL_TOL = 1e-14
_HYP_MAX_ITER = 10_000


def _checked_max(x):
    """x's largest value if every x is finite and non-negative, else None.

    An array costs one max and one min, reductions with no temporaries; NaN
    fails both comparisons.  An empty array's largest value is 0.
    """
    if isinstance(x, np.ndarray):
        if x.size == 0:
            return 0.0
        top = x.max()
        return top if x.min() >= 0.0 and top < math.inf else None
    return x if math.isfinite(x) and x >= 0.0 else None


def poisson_head(k: int, x, head=None, term=None, *, checked: bool = False):
    """(P[X < k], P[X = k]) for X ~ Poisson(x), scalar or array x.

    The first is Q(k, x) = e^-x sum_{j<k} x^j / j!, the regularized upper
    gamma at integer order k; the second is the next term e^-x x^k / k!.
    One exp per element, then the terms' forward recursion, all positive,
    so both are accurate to a few ulp while e^-x is a normal double
    (x < 708).  A scalar runs the same IEEE operations in the same order as
    an array element (augmented assignments rebind it), so the two agree
    bit for bit.  The first step's exact identities, 0 + term and term / 1,
    are skipped: the terms are non-negative, so neither changes a bit.

    An array x's head and term go to the arrays `head` and `term` of x's
    shape when given, else to new ones.  `checked` says the caller has
    already refused k and x, as the link models' H entry points do for the
    distances x is made from; x is then not read again for the check.
    """
    if not checked and not (
        isinstance(k, (int, np.integer)) and k >= 0 and _checked_max(x) is not None
    ):
        raise DomainError(
            f"poisson_head requires integer k >= 0 and finite x >= 0, got k={k}, x={x}"
        )
    scalar = not isinstance(x, np.ndarray)
    if scalar:
        x = float(x)
        term = float(np.exp(-x))
    else:
        term = np.negative(x, out=term)
        np.exp(term, out=term)
    if k == 0:
        return (0.0 if scalar else np.multiply(term, 0.0, out=head)), term
    head = term if scalar else np.positive(term, out=head)
    term *= x
    for j in range(2, k + 1):
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
