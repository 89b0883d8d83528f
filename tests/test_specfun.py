"""Special-function tests against independent oracles.

`specfun`'s own functions, and the log-gammas and regularized incomplete
gammas the link models take from `math` and `scipy.special`, read through
the models that call them: Q(m, x) is `SimoMiso(m).h`, 1 - P(n, x) the
determinant form's m = 1 branch, at x = beta r^eta, and Gamma ratios sit in
the closed-form moments.  Derived expected values below were computed once
with the stated oracle (re-run here) and frozen as literals.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from prismconn.errors import DomainError
from prismconn.linkmodels import (
    Mimo,
    PathLossParams,
    SimoMiso,
    UnitDisk,
    pair_connectedness,
    pair_connectedness_many,
    pair_connectedness_mimo_det,
)
from prismconn.specfun import gauss_2f1, poisson_head

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


def exactly_at(x):
    """Path loss and a distance r at which beta * r^eta is exactly x: beta = x at r = 1."""
    return (PathLossParams(x, 2.0), 1.0) if x > 0.0 else (PathLossParams(1.0, 2.0), 0.0)


def upper_q(m, x):
    """Q(m, x) as `SimoMiso(m).h` reads it."""
    params, r = exactly_at(x)
    return pair_connectedness(SimoMiso(m, params), r)


def lower_p(n, x):
    """P(n, x) as one minus the determinant form's m = 1 branch."""
    params, r = exactly_at(x)
    return 1.0 - pair_connectedness_mimo_det(1, n, params, r)


# ---------------------------------------------------------- point values


def test_lower_gamma_trivial_points():
    assert lower_p(1, 0.0) == 0.0
    assert lower_p(1, 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-14)


def test_lower_gamma_derived_value():
    frozen = 0.5939941502901616  # from lower_gamma_series_oracle(2, 2)
    assert lower_gamma_series_oracle(2.0, 2.0) == pytest.approx(frozen, rel=1e-13)
    assert lower_p(2, 2.0) == pytest.approx(frozen, rel=1e-13)


def test_upper_gamma_trivial_points():
    for x0 in (0.3, 1.0, 4.2):
        assert upper_q(1, x0) == pytest.approx(math.exp(-x0), rel=1e-13)
    assert upper_q(3, 0.0) == 1.0
    # Gamma(200) passes the doubles; the regularized value stays in [0, 1]
    assert upper_q(200, 0.0) == 1.0


def test_upper_gamma_derived_value():
    frozen = 1.5144464143971699  # from upper_gamma_quadrature_oracle(3, 1.7)
    assert upper_gamma_quadrature_oracle(3.0, 1.7) == pytest.approx(frozen, rel=1e-11)
    assert upper_q(3, 1.7) * math.gamma(3.0) == pytest.approx(frozen, rel=1e-12)


def test_gauss_2f1_trivial_points():
    assert gauss_2f1(0.7, -3.2, 4.1, 0.0) == 1.0
    assert gauss_2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-13)


def test_gauss_2f1_derived_value():
    frozen = 0.3832632446392313  # from hyp2f1_tight_oracle(1, 4.5, 3, -1)
    assert hyp2f1_tight_oracle(1.0, 4.5, 3.0, -1.0) == pytest.approx(frozen, rel=1e-13)
    assert gauss_2f1(1.0, 4.5, 3.0, -1.0) == pytest.approx(frozen, rel=1e-12)


def test_log_gamma_trivial_points():
    # Mimo(2, 2).moment(d) = (nu^2 + nu + 2 - 2^-nu) Gamma(nu) / (beta^nu eta), nu = d / eta
    assert Mimo(2, 2, PathLossParams(1.0, 2.0, 2)).moment(2) == 1.75  # Gamma(1) = 1
    root_pi = math.sqrt(math.pi)  # Gamma(1/2)
    assert Mimo(2, 2, PathLossParams(1.0, 2.0, 1)).moment(1) == pytest.approx(
        (2.75 - math.sqrt(0.5)) * root_pi / 2.0, rel=1e-14
    )


def test_log_gamma_cross_implementations():
    # SimoMiso(m).moment(d) = Gamma(m + nu) / (Gamma(m) beta^nu d), nu = d / eta
    for m in (1, 2, 7, 19, 55):
        for d, eta in ((1, 2.0), (2, 3.0), (3, 2.0), (3, 4.5)):
            nu = d / eta
            got = SimoMiso(m, PathLossParams(1.0, eta, d)).moment(d)
            lanczos = lanczos_log_gamma_oracle(m + nu) - lanczos_log_gamma_oracle(m)
            stirling = stirling_log_gamma_oracle(m + nu) - stirling_log_gamma_oracle(m)
            assert lanczos == pytest.approx(stirling, rel=1e-12, abs=1e-13)
            assert got == pytest.approx(math.exp(lanczos) / d, rel=1e-12)


def test_log_gamma_factorials():
    # at d = 1, eta = 2: Gamma(m + 1/2) / Gamma(m) = (2m)! sqrt(pi) / (4^m m! (m - 1)!)
    params = PathLossParams(1.0, 2.0, 1)
    for m in range(1, 21):
        ratio = math.factorial(2 * m) / (4**m * math.factorial(m) * math.factorial(m - 1))
        assert SimoMiso(m, params).moment(1) == pytest.approx(
            ratio * math.sqrt(math.pi), rel=1e-12
        )


# ------------------------------------------------------------- properties


def test_recurrence_identity():
    # Q(m + 1, x) = Q(m, x) + x^m e^-x / m!
    for m in np.linspace(1, 50, 12).round().astype(int).tolist():
        for x in np.linspace(0.0, 100.0, 15).tolist():
            step = 0.0 if x == 0.0 else math.exp(m * math.log(x) - x - math.lgamma(m + 1.0))
            assert upper_q(m + 1, x) == pytest.approx(upper_q(m, x) + step, abs=1e-12)


def test_complementarity():
    for n in (1, 4, 12, 40):
        for x in (0.0, 0.2, 1.0, 5.0, 30.0, 120.0):
            assert lower_p(n, x) + upper_q(n, x) == pytest.approx(1.0, abs=1e-13)


def test_monotonicity_in_x():
    rng = np.random.default_rng(42)
    params = PathLossParams(1.0, 2.0)
    for m in (1, 2, 9, 33):
        rs = np.sqrt(np.sort(rng.uniform(0.0, 4.0 * m, size=60)))
        for values in (
            pair_connectedness_many(SimoMiso(m, params), rs).tolist(),
            [pair_connectedness_mimo_det(1, m, params, r) for r in rs.tolist()],
        ):
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)


def test_incomplete_gammas_against_mpmath():
    # the integer orders at or above a former grid of real ones, each x as
    # beta * r^eta rounds it at r = sqrt(x)
    rng = np.random.default_rng(19)
    params = PathLossParams(1.0, 2.0)
    with mpmath.workdps(30):
        for _ in range(60):
            m = math.ceil(rng.uniform(0.1, 60.0))
            r = math.sqrt(rng.uniform(0.0, 120.0))
            x = float(params.x(r))
            upper = float(mpmath.gammainc(m, x, mpmath.inf, regularized=True))
            assert pair_connectedness(SimoMiso(m, params), r) == pytest.approx(
                upper, rel=1e-12, abs=1e-14
            )
            lower = float(mpmath.gammainc(m, 0, x, regularized=True))
            assert 1.0 - pair_connectedness_mimo_det(1, m, params, r) == pytest.approx(
                lower, rel=1e-12, abs=1e-14
            )


def test_incomplete_gammas_take_arrays():
    params = PathLossParams(1.0, 2.0)
    rs = np.sqrt([0.0, 0.3, 2.0, 7.5, 40.0])
    for fn in (
        lambda r: pair_connectedness_many(SimoMiso(3, params), r),
        lambda r: pair_connectedness_mimo_det(1, 3, params, r),
    ):
        got = fn(rs)
        assert isinstance(got, np.ndarray) and got.shape == rs.shape
        assert got.tolist() == [float(fn(np.array(r))) for r in rs]
        for bad in (np.array([1.0, -0.5]), np.array([1.0, math.nan]), np.array([math.inf])):
            with pytest.raises(DomainError):
                fn(bad)


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
        gauss_2f1(1.0, 1.0, -2.0, -0.5)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 3.0, -1.5)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 3.0, 0.5)


def test_config_validation():
    assert lower_p(2, 2.0) == pytest.approx(0.5939941502901616, rel=1e-5)


# ------------------------------------------- the exact identities H skips


def unskipped_poisson_head(k, x):
    """The recursion with its first step whole: 0 + term, then term / 1."""
    term = np.exp(-x)
    head = np.zeros_like(term)
    for j in range(1, k + 1):
        head += term
        term *= x
        term /= j
    return head, term


def unskipped_h(model, r):
    """H with every float operation its formula names, the exact identities
    included: beta * r^eta at beta = 1, x + (2 - n) and (n - 1) u at n = 2."""
    if isinstance(model, UnitDisk):
        return (r < model.radius) * 1.0 + (r == model.radius) * math.exp(-model.params.beta)
    x = model.params.beta * np.power(r, model.params.eta)
    if isinstance(model, SimoMiso):
        return np.exp(-x) if model.m == 1 else special.gammaincc(model.m, x)
    n = model.n
    a, u = unskipped_poisson_head(n - 1, x)
    h = x + (2.0 - n)
    h *= 1.0 - a
    h += (n - 1.0) * u
    h *= u
    h += a * (2.0 - a)
    return np.clip(h, 0.0, 1.0)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 7])
def test_poisson_head_skips_only_exact_identities(k):
    # x = 0, the first step (k = 1) and the steps after it, by scalar, by
    # array and into given arrays, bit for bit the whole recursion
    x = np.concatenate(
        ([0.0, 5e-324, 1e-300, 1.0, 708.0], np.random.default_rng(k).random(300) * 40.0)
    )
    expected = unskipped_poisson_head(k, x)
    head, term = np.empty_like(x), np.empty_like(x)
    into = poisson_head(k, x, head, term, checked=True)
    assert into[0] is head and into[1] is term
    for got in (poisson_head(k, x), into):
        assert (_bits(got[0]), _bits(got[1])) == (_bits(expected[0]), _bits(expected[1]))
    assert [poisson_head(k, float(v)) for v in x] == list(zip(*(e.tolist() for e in expected)))


IDENTITY_MODELS = [
    SimoMiso(1, PathLossParams(1.0, 2.0, 3)),
    SimoMiso(1, PathLossParams(0.35, 3.0, 2)),
    SimoMiso(3, PathLossParams(1.0, 2.0, 3)),
    Mimo(2, 2, PathLossParams(1.0, 2.0, 3)),
    Mimo(2, 2, PathLossParams(0.35, 2.5, 3)),
    Mimo(3, 2, PathLossParams(1.0, 2.0, 3)),
    Mimo(2, 7, PathLossParams(1.0, 4.0, 3)),
    UnitDisk(1.2, PathLossParams(1.0, 2.0, 3)),
]


@pytest.mark.parametrize(
    "model", IDENTITY_MODELS,
    ids=["siso", "siso-beta", "simo3", "mimo2", "mimo2-beta", "mimo3", "mimo7", "disk"],
)
def test_h_skips_only_exact_identities(model):
    # r = 0 (x = 0), n = 2 and 3, beta = 1 and not: H by array, into a
    # workspace, over its own distances, by the blocked entry point and by
    # scalar, all bit for bit H with every operation done
    r = np.concatenate(([0.0, 5e-324, 1.2, np.nextafter(1.2, 0.0)],
                        np.random.default_rng(5).random(3000) * 6.0))
    expected = _bits(unskipped_h(model, r))
    work = [np.empty_like(r) for _ in range(model.H_WORK)]
    assert model.h(r, work) is work[0]
    own = r.copy()
    assert model.h(own, [own, *work[1:]]) is own
    for got in (model.h(r), work[0], own, pair_connectedness_many(model, r)):
        assert _bits(got) == expected
    assert _bits([pair_connectedness(model, v) for v in r[:400]]) == expected[: 400 * 8]
