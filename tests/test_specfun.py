"""Special-function tests against independent oracles.

Derived expected values below were computed once with the stated oracle
(re-run here) and frozen as literals.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from prismconn.errors import DomainError
from prismconn.specfun import (
    gauss_2f1,
    log_gamma,
    poisson_head,
    regularized_lower_gamma,
    regularized_upper_gamma,
)

# ---------------------------------------------------------------- oracles


def lower_gamma_series_oracle(a, x, terms=400):
    # P(a,x) = sum_k x^(a+k) e^-x / Gamma(a+k+1), each term from scratch
    return sum(
        math.exp((a + k) * math.log(x) - x - math.lgamma(a + k + 1))
        for k in range(terms)
    )


def upper_gamma_quadrature_oracle(a, x):
    value, err = integrate.quad(
        lambda t: t ** (a - 1) * math.exp(-t), x, x + 80.0 + 20.0 * a,
        limit=200, epsabs=1e-14, epsrel=1e-13,
    )
    assert err < 1e-12
    return value


_LANCZOS = [
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
]


def lanczos_log_gamma_oracle(a):
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (a - 1 + i)
    t = a + 6.5
    return 0.5 * math.log(2 * math.pi) + (a - 0.5) * math.log(t) - t + math.log(acc)


def stirling_log_gamma_oracle(a, shift=12):
    acc = 0.0
    while a < shift:
        acc -= math.log(a)
        a += 1.0
    coeffs = [1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360]
    result = (a - 0.5) * math.log(a) - a + 0.5 * math.log(2 * math.pi)
    inv = 1.0 / a
    term = inv
    for c in coeffs:
        result += c * term
        term *= inv * inv
    return result + acc


def hyp2f1_tight_oracle(a, b, c, z):
    # direct summation after the same Pfaff map, at 10x tighter tolerance
    w = z / (z - 1.0)
    p, q = c - a, b
    term, total = 1.0, 1.0
    for k in range(100_000):
        term *= (p + k) * (q + k) / ((c + k) * (k + 1.0)) * w
        total += term
        if abs(term) <= abs(total) * 1e-15:
            break
    return (1.0 - z) ** (-b) * total


# ---------------------------------------------------------- point values


def test_lower_gamma_trivial_points():
    assert regularized_lower_gamma(1.0, 0.0) == 0.0
    assert regularized_lower_gamma(1.0, 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-14)


def test_lower_gamma_derived_value():
    frozen = 0.5939941502901616  # from lower_gamma_series_oracle(2, 2)
    assert lower_gamma_series_oracle(2.0, 2.0) == pytest.approx(frozen, rel=1e-13)
    assert regularized_lower_gamma(2.0, 2.0) == pytest.approx(frozen, rel=1e-13)


def test_upper_gamma_trivial_points():
    for x0 in (0.3, 1.0, 4.2):
        assert regularized_upper_gamma(1.0, x0) == pytest.approx(math.exp(-x0), rel=1e-13)
    assert regularized_upper_gamma(3.0, 0.0) == 1.0
    # Gamma(200) passes the doubles; the regularized value stays in [0, 1]
    assert regularized_upper_gamma(200.0, 0.0) == 1.0


def test_upper_gamma_derived_value():
    frozen = 0.8488767894583206  # from upper_gamma_quadrature_oracle(2.5, 1.7)
    assert upper_gamma_quadrature_oracle(2.5, 1.7) == pytest.approx(frozen, rel=1e-11)
    assert regularized_upper_gamma(2.5, 1.7) * math.gamma(2.5) == pytest.approx(frozen, rel=1e-12)


def test_gauss_2f1_trivial_points():
    assert gauss_2f1(0.7, -3.2, 4.1, 0.0) == 1.0
    assert gauss_2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-13)


def test_gauss_2f1_derived_value():
    frozen = 0.3832632446392313  # from hyp2f1_tight_oracle(1, 4.5, 3, -1)
    assert hyp2f1_tight_oracle(1.0, 4.5, 3.0, -1.0) == pytest.approx(frozen, rel=1e-13)
    assert gauss_2f1(1.0, 4.5, 3.0, -1.0) == pytest.approx(frozen, rel=1e-12)


def test_log_gamma_trivial_points():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_log_gamma_cross_implementations():
    for a in (0.7, 1.0, 2.5, 7.3, 19.0, 55.5):
        got = log_gamma(a)
        lanczos = lanczos_log_gamma_oracle(a)
        stirling = stirling_log_gamma_oracle(a)
        assert lanczos == pytest.approx(stirling, rel=1e-12, abs=1e-13)
        assert got == pytest.approx(lanczos, rel=1e-12, abs=1e-13)


def test_log_gamma_factorials():
    for n in range(1, 21):
        assert math.exp(log_gamma(n + 1.0)) == pytest.approx(
            math.factorial(n), rel=1e-12
        )


# ------------------------------------------------------------- properties


def test_recurrence_identity():
    for a in np.linspace(0.5, 50.0, 12):
        for x in np.linspace(0.0, 100.0, 15):
            a, x = float(a), float(x)
            step = 0.0 if x == 0.0 else math.exp(
                a * math.log(x) - x - math.lgamma(a + 1.0)
            )
            lhs = regularized_lower_gamma(a + 1.0, x)
            rhs = regularized_lower_gamma(a, x) - step
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_complementarity():
    for a in (0.5, 1.0, 3.7, 12.0, 40.0):
        for x in (0.0, 0.2, 1.0, 5.0, 30.0, 120.0):
            p = regularized_lower_gamma(a, x)
            assert p + regularized_upper_gamma(a, x) == pytest.approx(1.0, abs=1e-13)


def test_monotonicity_in_x():
    rng = np.random.default_rng(42)
    for a in (0.5, 2.0, 9.0, 33.0):
        xs = np.sort(rng.uniform(0.0, 4.0 * a, size=60))
        values = [regularized_lower_gamma(a, float(x)) for x in xs]
        assert all(b >= a_ - 1e-15 for a_, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


def test_incomplete_gammas_against_mpmath():
    rng = np.random.default_rng(19)
    with mpmath.workdps(30):
        for _ in range(60):
            a = float(rng.uniform(0.1, 60.0))
            x = float(rng.uniform(0.0, 120.0))
            expected = {
                regularized_lower_gamma: mpmath.gammainc(a, 0, x, regularized=True),
                regularized_upper_gamma: mpmath.gammainc(a, x, mpmath.inf, regularized=True),
            }
            for fn, ref in expected.items():
                assert fn(a, x) == pytest.approx(float(ref), rel=1e-12, abs=1e-14)


def test_incomplete_gammas_take_arrays():
    xs = np.array([0.0, 0.3, 2.0, 7.5, 40.0])
    for fn in (regularized_lower_gamma, regularized_upper_gamma):
        got = fn(3.0, xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert got.tolist() == [float(fn(3.0, float(x))) for x in xs]
        for bad in (np.array([1.0, -0.5]), np.array([1.0, math.nan]), np.array([math.inf])):
            with pytest.raises(DomainError):
                fn(3.0, bad)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 64),
    st.lists(
        st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 150.0), st.floats(0.0, 700.0)),
        min_size=1, max_size=6,
    ),
)
def test_poisson_head_against_mpmath(k, xs):
    head, term = poisson_head(k, np.array(xs))
    with mpmath.workdps(30):
        for x, got_head, got_term in zip(xs, head, term):
            x_mp = mpmath.mpf(x)
            ref_term = mpmath.exp(-x_mp) * x_mp**k / mpmath.factorial(k)
            ref_head = mpmath.gammainc(k, x_mp, mpmath.inf, regularized=True) if k else 0
            # all-positive sums: relative accuracy, down to the subnormal range
            assert abs(got_head - ref_head) <= 1e-13 * ref_head + 1e-300
            assert abs(got_term - ref_term) <= 1e-13 * ref_term + 1e-300
            assert poisson_head(k, x) == (got_head, got_term)  # scalar bitwise


def test_poisson_head_values_and_domain():
    e = np.exp(-np.array([2.0, 0.5, 1.0])).tolist()  # the exp the helper uses
    assert poisson_head(0, 2.0) == (0.0, e[0])
    assert poisson_head(3, 0.0) == (1.0, 0.0)
    head, term = poisson_head(1, np.array([0.5, 1.0]))
    assert head.tolist() == e[1:]
    assert term.tolist() == [0.5 * e[1], e[2]]
    for k, x in ((-1, 1.0), (2.5, 1.0), (2, -0.5), (2, math.nan), (2, np.array([1.0, math.inf]))):
        with pytest.raises(DomainError):
            poisson_head(k, x)


def test_gauss_2f1_contiguous_relation():
    # c(c-1)(z-1) F(c-1) + c(c-1-(2c-a-b-1)z) F(c) + (c-a)(c-b)z F(c+1) = 0
    z = -1.0
    for a in (0.5, 1.5, 3.0):
        for b in (2.5, 7.5, 11.0):
            for c in (2.0, 3.5, 5.0):
                t1 = c * (c - 1) * (z - 1) * gauss_2f1(a, b, c - 1, z)
                t2 = c * (c - 1 - (2 * c - a - b - 1) * z) * gauss_2f1(a, b, c, z)
                t3 = (c - a) * (c - b) * z * gauss_2f1(a, b, c + 1, z)
                scale = max(abs(t1), abs(t2), abs(t3))
                assert abs(t1 + t2 + t3) <= 1e-10 * scale


def test_gauss_2f1_against_scipy():
    for a in (0.5, 2.0, 7.0):
        for b in (1.5, 9.5):
            for c in (3.3, 6.0):
                for z in (-1.0, -0.6, -0.1):
                    assert gauss_2f1(a, b, c, z) == pytest.approx(
                        float(special.hyp2f1(a, b, c, z)), rel=1e-11
                    )


# ----------------------------------------------------------- error paths


def test_domain_errors():
    with pytest.raises(DomainError):
        regularized_lower_gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        regularized_lower_gamma(1.0, -0.5)
    with pytest.raises(DomainError):
        regularized_lower_gamma(math.inf, 1.0)
    with pytest.raises(DomainError):
        regularized_upper_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, -2.0, -0.5)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 3.0, -1.5)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 3.0, 0.5)


def test_config_validation():
    assert regularized_lower_gamma(2.0, 2.0) == pytest.approx(
        0.5939941502901616, rel=1e-5
    )
