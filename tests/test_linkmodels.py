"""Pair-connectedness models: point values, cross-form agreement, limits."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from prismconn import linkmodels, specfun
from prismconn.errors import CapabilityError, ConvergenceError, DomainError
from prismconn.linkmodels import (
    H_BLOCK,
    Mimo,
    PathLossParams,
    SimoMiso,
    Siso,
    UnitDisk,
    _support_bound,
    mimo_gamma_form,
    pair_connectedness,
    pair_connectedness_many,
    pair_connectedness_mimo_det,
    support_radius,
)

P3 = PathLossParams(1.0, 2.0, 3)


def test_params_validation():
    with pytest.raises(DomainError):
        PathLossParams(0.0, 2.0, 3)
    with pytest.raises(DomainError):
        PathLossParams(1.0, 1.5, 3)  # below free-space exponent
    with pytest.raises(DomainError):
        PathLossParams(1.0, 2.0, 4)
    with pytest.raises(DomainError):
        SimoMiso(0, P3)
    with pytest.raises(CapabilityError):
        Mimo(3, 3, P3)
    with pytest.raises(CapabilityError):
        Mimo(1, 4, P3)
    with pytest.raises(CapabilityError):
        Mimo(2, 513, P3)  # past the order where the Poisson form stays exact
    assert Mimo(512, 2, P3).n == 512
    # the oracle forms' own orders: each incomplete gamma is called at order >= 1
    with pytest.raises(DomainError, match="antenna counts must be positive"):
        pair_connectedness_mimo_det(0, 3, P3, 1.0)
    with pytest.raises(DomainError, match="gamma form requires n >= 2"):
        mimo_gamma_form(1, P3, 1.0)


@pytest.mark.filterwarnings("error")
def test_params_hold_python_floats():
    # a numpy-scalar beta or eta is stored as a Python float, so the moments'
    # overflow fallbacks run on Python arithmetic, with no numpy warning
    params = PathLossParams(np.float64(1e-203), np.float64(2.0), 3)
    assert type(params.beta) is float and type(params.eta) is float
    assert Mimo(2, 60, params).moment(3) == 6.030182149398204e306
    with pytest.raises(TypeError):
        PathLossParams("1.0", 2.0, 3)  # validated before the conversion


def test_siso_point_values():
    model = Siso(P3)
    assert pair_connectedness(model, 0.0) == 1.0
    assert pair_connectedness(model, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    with pytest.raises(DomainError):
        pair_connectedness(model, -0.1)
    with pytest.raises(DomainError):
        pair_connectedness(model, math.nan)


@pytest.mark.parametrize("r", [np.float32(1.0), np.float64(1.5), np.int64(1), np.int8(2)])
def test_numpy_scalar_distances_are_accepted(r):
    # each H entry point takes what pair_connectedness_many takes, read as a double
    expected = pair_connectedness_many(Siso(P3), [r])[0]
    assert pair_connectedness(Siso(P3), r) == expected == pair_connectedness(Siso(P3), float(r))
    assert pair_connectedness_mimo_det(2, 3, P3, r) == pair_connectedness_mimo_det(
        2, 3, P3, float(r))
    assert mimo_gamma_form(3, P3, r) == mimo_gamma_form(3, P3, float(r))


@pytest.mark.parametrize("r", ["1.0", math.nan, math.inf, -math.inf, -0.5, np.float32(-1.0)])
def test_unusable_distances_raise_in_every_entry_point(r):
    entry_points = [
        lambda: pair_connectedness(Siso(P3), r),
        lambda: pair_connectedness_mimo_det(2, 3, P3, r),
        lambda: mimo_gamma_form(3, P3, r),
    ]
    if not isinstance(r, str):  # the array entry point reads a numeric string as its number
        entry_points.append(lambda: pair_connectedness_many(Siso(P3), [r]))
    for h in entry_points:
        with pytest.raises(DomainError):
            h()


def test_mimo_22_point_value():
    # specialization H(r) = exp(-b r^2)(b^2 r^4 + 2 - exp(-b r^2)) at r = 1
    frozen = 0.9683030402777143
    assert math.exp(-1.0) * (1.0 + 2.0 - math.exp(-1.0)) == pytest.approx(
        frozen, rel=1e-14
    )
    assert pair_connectedness(Mimo(2, 2, P3), 1.0) == pytest.approx(frozen, rel=1e-12)


def test_h_zero_is_one_for_fading_models():
    for model in (Siso(P3), SimoMiso(3, P3), Mimo(2, 5, P3)):
        assert pair_connectedness(model, 0.0) == 1.0


def test_simo_m1_identical_to_siso():
    model_m1 = SimoMiso(1, P3)
    model_siso = Siso(P3)
    for r in np.linspace(0.0, 6.0, 40):
        r = float(r)
        assert pair_connectedness(model_m1, r) == pair_connectedness(model_siso, r)


@pytest.mark.parametrize("params", [P3, PathLossParams(0.3, 4.0, 2)], ids=["p3", "p2"])
def test_siso_is_the_one_branch_diversity_link(params):
    assert Siso(params) == SimoMiso(1, params)
    assert type(Siso(params)) is SimoMiso


def test_bounds_and_monotonicity():
    rng = np.random.default_rng(11)
    models = [
        Siso(P3),
        SimoMiso(4, PathLossParams(0.5, 3.0, 3)),
        Mimo(2, 6, PathLossParams(2.0, 4.0, 3)),
        UnitDisk(1.0, P3),
    ]
    for model in models:
        rs = np.sort(rng.uniform(0.0, 5.0, size=50))
        values = [pair_connectedness(model, float(r)) for r in rs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eta", [2.0, 3.0, 4.0])
def test_mimo_cross_forms(n, beta, eta):
    params = PathLossParams(beta, eta, 3)
    model = Mimo(2, n, params)
    for r in np.linspace(0.0, 5.0, 11):
        r = float(r)
        expansion = pair_connectedness(model, r)
        det = pair_connectedness_mimo_det(2, n, params, r)
        gamma_form = mimo_gamma_form(n, params, r)
        assert abs(expansion - det) < 1e-10
        assert abs(expansion - gamma_form) < 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [100, 200, 512])
def test_mimo_cross_forms_at_high_orders(n):
    # Gamma(n + 1) passes the doubles from n = 171; the regularized forms
    # cancel it and stay within 1e-10 of H across its drop at r = sqrt(n).
    # On an array of r each form gives its scalar values bit for bit.
    model = Mimo(2, n, P3)
    radii = np.linspace(0.0, 1.5 * math.sqrt(n), 31)
    for form in (lambda r: pair_connectedness_mimo_det(2, n, P3, r),
                 lambda r: mimo_gamma_form(n, P3, r)):
        scalars = [form(float(r)) for r in radii]
        assert all(isinstance(v, float) for v in scalars)
        assert np.array_equal(form(radii).view(np.int64), np.array(scalars).view(np.int64))
        for r, value in zip(radii, scalars):
            assert abs(value - pair_connectedness(model, float(r))) < 1e-10


def test_det_form_m1_reduces_to_diversity():
    x = 1.0
    expected = pair_connectedness(SimoMiso(4, P3), 1.0)
    assert pair_connectedness_mimo_det(1, 4, P3, 1.0) == pytest.approx(
        expected, rel=1e-12
    )
    assert expected == pytest.approx(
        math.exp(-x) * (1 + x + x * x / 2 + x**3 / 6), rel=1e-12
    )


def test_det_form_value_frozen():
    # also checked against a channel-sampling Monte Carlo oracle below
    frozen = 0.9767828629153426
    assert pair_connectedness_mimo_det(2, 3, P3, 1.3) == pytest.approx(
        frozen, rel=1e-11
    )


def test_det_form_channel_monte_carlo_oracle():
    # largest eigenvalue of the 2x3 channel Gram matrix drives the outage
    rng = np.random.default_rng(314159)
    samples = 1_000_000
    h = (
        rng.standard_normal((samples, 2, 3)) + 1j * rng.standard_normal((samples, 2, 3))
    ) / math.sqrt(2.0)
    gram = h @ h.conj().transpose(0, 2, 1)
    tr = gram[:, 0, 0].real + gram[:, 1, 1].real
    det = (gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]).real
    lam_max = tr / 2 + np.sqrt(np.maximum(tr * tr / 4 - det, 0.0))
    x0 = 1.3**2
    outage_hat = float(np.mean(lam_max < x0))
    outage = 1.0 - pair_connectedness_mimo_det(2, 3, P3, 1.3)
    sigma = math.sqrt(outage * (1 - outage) / samples)
    assert abs(outage_hat - outage) < 3.0 * sigma


def test_det_form_capability_error():
    with pytest.raises(CapabilityError):
        pair_connectedness_mimo_det(3, 3, P3, 1.0)


def test_unit_disk_values_and_plateau_default():
    disk = UnitDisk(2.0, P3)
    assert pair_connectedness(disk, 1.9) == 1.0
    assert pair_connectedness(disk, 2.0) == math.exp(-1.0)
    assert pair_connectedness(disk, 2.1) == 0.0
    with pytest.raises(DomainError):
        UnitDisk(-1.0, P3)


def test_unit_disk_limit_of_siso():
    # steep path loss approaches the hard threshold at unit distance
    for eta in (8.0, 16.0, 32.0):
        model = Siso(PathLossParams(1.0, eta, 3))
        inside = pair_connectedness(model, 0.5)
        outside = pair_connectedness(model, 2.0)
        if eta == 32.0:
            assert abs(inside - 1.0) < 1e-3
            assert abs(outside) < 1e-3
    h_inside = [pair_connectedness(Siso(PathLossParams(1.0, e, 3)), 0.5) for e in (8, 16, 32)]
    assert h_inside[0] < h_inside[1] < h_inside[2]


def test_mimo_step_behavior():
    # H(x = lam * n) tends to 1 below the transition and 0 above it
    below, above = [], []
    for n in (8, 32, 128):
        params = PathLossParams(1.0, 2.0, 3)
        model = Mimo(2, n, params)
        below.append(pair_connectedness(model, math.sqrt(0.8 * n)))
        above.append(pair_connectedness(model, math.sqrt(1.25 * n)))
    assert below[0] < below[1] < below[2]
    assert above[0] > above[1] > above[2]
    assert below[-1] > 0.99
    assert above[-1] < 0.05


def mpmath_h(model, r):
    """H at 30 digits from regularized mpmath incomplete gammas."""
    if isinstance(model, UnitDisk):
        if r == model.radius:
            return math.exp(-model.params.beta)
        return 1.0 if r < model.radius else 0.0
    x = mpmath.mpf(model.params.beta) * mpmath.mpf(float(r)) ** mpmath.mpf(model.params.eta)
    if isinstance(model, SimoMiso):
        return mpmath.gammainc(model.m, x, mpmath.inf, regularized=True)
    n = model.n
    p = [mpmath.gammainc(a, 0, x, regularized=True) for a in (n - 1, n, n + 1)]
    return 1 - n * p[0] * p[2] + (n - 1) * p[1] ** 2


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    # the unit disk's radius and its adjacent doubles, where H steps
    edge = [1.5, np.nextafter(1.5, 0.0), np.nextafter(1.5, 2.0)]
    rs = np.concatenate([rng.uniform(0.0, 5.0, size=100), edge])
    models = [
        Siso(P3),
        SimoMiso(1, P3),
        SimoMiso(5, PathLossParams(0.5, 3.0, 2)),
        Mimo(2, 4, PathLossParams(2.0, 2.0, 3)),
        Mimo(2, 2, P3),
        Mimo(2, 64, PathLossParams(1.0, 3.0, 3)),
        UnitDisk(1.5, P3),
    ]
    with mpmath.workdps(30):
        for model in models:
            vec = pair_connectedness_many(model, rs)
            scalar = np.array([pair_connectedness(model, float(r)) for r in rs])
            np.testing.assert_array_equal(vec, scalar)
            oracle = np.array([float(mpmath_h(model, r)) for r in rs])
            np.testing.assert_allclose(vec, oracle, rtol=0.0, atol=1e-13)


def _distances_ok_by_masks(r):
    """The former rule of pair_connectedness_many, by elementwise masks."""
    return not (r.size and (not np.isfinite(r).all() or (r < 0.0).any()))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "values",
    [
        [], [0.0], [-0.0], [0.0, -0.0, 3.5], [1e-320, 1e150], [_NAN], [1.0, _NAN],
        [_INF], [2.0, -_INF], [-1e-300], [4.0, -2.0], [_NAN, -1.0], [-0.0, _INF],
    ],
)
@pytest.mark.parametrize("shape", ["1-D", "2-D"])
def test_distance_check_matches_mask_rule(values, shape):
    r = np.array(values, dtype=float)
    if shape == "2-D":
        r = np.tile(r, (3, 1)) if r.size else np.empty((2, 0))
    accepted = _distances_ok_by_masks(r)
    if accepted:
        assert pair_connectedness_many(Siso(P3), r).shape == r.shape
    else:
        with pytest.raises(DomainError):
            pair_connectedness_many(Siso(P3), r)


@pytest.mark.parametrize("eta", [2.0, 3.0, 4.0])
def test_mimo_h_against_mpmath(eta):
    # x from 0 past the tail where H < 1e-12, for orders 2..64
    with mpmath.workdps(30):
        for n in (2, 3, 4, 5, 8, 13, 21, 34, 55, 64):
            model = Mimo(2, n, PathLossParams(1.0, eta, 3))
            rs = np.linspace(0.0, (2.0 * n + 60.0) ** (1.0 / eta), 80)
            h = pair_connectedness_many(model, rs)
            oracle = np.array([float(mpmath_h(model, r)) for r in rs])
            np.testing.assert_allclose(h, oracle, rtol=0.0, atol=1e-14)
            above = oracle >= 1e-12
            assert above.sum() > 40 and (~above).sum() > 0
            np.testing.assert_allclose(h[above], oracle[above], rtol=1e-13, atol=0.0)


def mpmath_moment(model, d):
    """integral r^(d-1) H dr from the closed forms at 40 digits (2F1 for every MIMO order)."""
    beta, eta = mpmath.mpf(model.params.beta), mpmath.mpf(model.params.eta)
    nu = mpmath.mpf(d) / eta
    if isinstance(model, SimoMiso):
        return mpmath.gamma(model.m + nu) / (mpmath.gamma(model.m) * beta**nu * d)
    n = model.n
    linear = (1 - nu) * mpmath.gamma(n - 1 + nu) / mpmath.gamma(n - 1)
    prefactor = mpmath.gamma(2 * n + nu) / mpmath.gamma(n) ** 2
    bracket = mpmath.hyp2f1(n - 1, 2 * n + nu, n + 1, -1) / n - (n - 1) / (
        (n + nu) * (n - 1 + nu)
    ) * mpmath.hyp2f1(n - 1 + nu, 2 * n + nu, n + 1 + nu, -1)
    return (linear + prefactor * bracket) / (beta**nu * d)


# Worst relative error seen over the grid below, and the bound asserted:
# SimoMiso 7.0e-14 (m = 64), Mimo n = 2 (reduced form) 7.1e-16, Mimo n > 2
# 9.3e-14 (n = 64).  The error grows with log Gamma of the order.
MOMENT_BOUNDS = {
    "simo": ([SimoMiso(m, P3) for m in (1, 2, 8, 64)], 1e-13),
    "mimo_n2": ([Mimo(2, 2, P3)], 2e-15),
    "mimo_above_n2": ([Mimo(2, n, P3) for n in (3, 8, 64)], 2e-13),
}


@pytest.mark.parametrize("family", list(MOMENT_BOUNDS))
def test_closed_moments_against_mpmath(family):
    models, bound = MOMENT_BOUNDS[family]
    worst = 0.0
    with mpmath.workdps(40):
        for model in models:
            for eta in (2.0, 3.0, 4.0):
                for beta in (0.35, 1.0, 4.0):
                    link = replace(model, params=PathLossParams(beta, eta, 3))
                    for d in (1, 2, 3):
                        exact = mpmath_moment(link, d)
                        worst = max(worst, float(abs(link.moment(d) - exact) / exact))
    assert worst <= bound


@pytest.mark.parametrize("n", [2, 4, 16, 64])
@pytest.mark.parametrize("beta, eta", [(1.0, 2.0), (0.5, 3.0)])
def test_mimo_support_radius_sits_at_the_floor(n, beta, eta):
    # H at the support radius is the floor itself, not a tail-rounding error off it
    model = Mimo(2, n, PathLossParams(beta, eta, 3))
    with mpmath.workdps(30):
        h = mpmath_h(model, support_radius(model))
    assert abs(float(h) / 1e-12 - 1.0) < 1e-10


def test_support_radius_is_bracketed_however_far():
    # radii far past 2^200 are bracketed as tightly as small ones
    assert support_radius(UnitDisk(1e300, P3)) == np.nextafter(1e300, math.inf)
    for model in (UnitDisk(1e300, P3), SimoMiso(1, PathLossParams(1e-130, 2.0, 3))):
        radius = support_radius(model)
        below = np.nextafter(radius, 0.0)
        assert pair_connectedness(model, radius) < 1e-12 <= pair_connectedness(model, below)


@pytest.mark.parametrize(
    "model, bits",
    [
        # rises by an ulp near the floor, so bisection must keep its exact path
        (SimoMiso(57, PathLossParams(0.05, 2.0, 3)), "0x1.9388ccf55c659p+5"),
        (Siso(P3), "0x1.506ada48f45b3p+2"),
        (Mimo(2, 64, PathLossParams(1.0, 4.0, 3)), "0x1.bb9b83c18767ep+1"),
        (Mimo(2, 2, P3), "0x1.792756f334ff0p+2"),  # the house sweep's link
        (UnitDisk(1e300, P3), "0x1.7e43c8800759dp+996"),
        (Mimo(2, 2, PathLossParams(1.0, 3.0, 3)), "0x1.a19baa47eee74p+1"),
        (Mimo(2, 2, PathLossParams(0.35, 2.0, 3)), "0x1.3ec0c687692d4p+3"),  # the oracles'
        (SimoMiso(3, P3), "0x1.7577de6f8b273p+2"),
        (UnitDisk(1.2, P3), "0x1.3333333333334p+0"),
        (Siso(PathLossParams(0.5, 4.0, 2)), "0x1.5cfe3484d96bbp+1"),
        (Siso(PathLossParams(1e5, 2.0, 3)), "0x1.105828d4fb9d9p-6"),  # below 1: bisected up from 0
        (SimoMiso(3, PathLossParams(1e-300, 2.0, 3)), "0x1.c85e61d2cebe6p+500"),
        (UnitDisk(0.3, P3), "0x1.3333333333334p-2"),
        (UnitDisk(7.0, P3), "0x1.c000000000001p+2"),
    ],
    ids=["simo57", "siso", "mimo64-eta4", "mimo2", "disk1e300", "mimo2-eta3",
         "mimo2-beta035", "simo3", "disk1.2", "siso-2d-eta4", "siso-beta1e5",
         "simo3-beta1e-300", "disk0.3", "disk7"],
)
def test_support_radius_keeps_its_bits(model, bits):
    # McConfig's cutoff, and so every Monte Carlo draw, hangs on these doubles
    assert support_radius(model).hex() == bits


@pytest.mark.parametrize(
    "model",
    [Mimo(2, 2, PathLossParams(1.0, 3.0, 3)), SimoMiso(57, PathLossParams(0.05, 2.0, 3)),
     Siso(P3)],
    ids=["mimo2-eta3", "simo57", "siso"],
)
def test_support_radius_probes_each_point_once(model, monkeypatch):
    # One beta * r^eta probe per point H is read at (113 probes for the MIMO
    # link when H's own distance check probed each point again), and one
    # more at the radius found.
    probes, reads = [], []
    overflows, h = PathLossParams.r_eta_overflows, type(model).h

    def probe(self, r):
        probes.append(r)
        return overflows(self, r)

    def read(self, r):
        reads.append(r)
        return h(self, r)

    monkeypatch.setattr(PathLossParams, "r_eta_overflows", probe)
    monkeypatch.setattr(type(model), "h", read)
    radius = support_radius(model)
    assert probes == reads + [radius]


@pytest.mark.parametrize(
    "model",
    [Mimo(2, 2, P3), Mimo(2, 2, PathLossParams(1.0, 3.0, 3)),
     Mimo(2, 64, PathLossParams(1.0, 4.0, 3)), SimoMiso(57, PathLossParams(0.05, 2.0, 3)),
     Siso(PathLossParams(1e5, 2.0, 3)), SimoMiso(3, PathLossParams(1e-300, 2.0, 3)),
     UnitDisk(0.3, P3), UnitDisk(7.0, P3)],
    ids=["mimo2", "mimo2-eta3", "mimo64-eta4", "simo57", "siso-beta1e5", "simo3-beta1e-300",
         "disk0.3", "disk7"],
)
def test_support_radius_reads_no_distance_twice(model, monkeypatch):
    # the bisection starts above hi / 2, where `_support_bound` already read H
    reads = []
    below_floor = linkmodels._below_floor

    def spy(model, r):
        reads.append(r)
        return below_floor(model, r)

    monkeypatch.setattr(linkmodels, "_below_floor", spy)
    support_radius(model)
    assert len(set(reads)) == len(reads)


def test_support_bound_is_the_first_power_of_two_below_the_floor():
    # within one octave of the support radius, on either side of 1
    for model in (SimoMiso(57, PathLossParams(0.05, 2.0, 3)), Siso(P3), Mimo(2, 2, P3),
                  UnitDisk(1.2, P3), UnitDisk(1e300, P3),
                  Siso(PathLossParams(1e10, 2.0, 3)), UnitDisk(0.3, P3)):
        bound = _support_bound(model)
        assert math.frexp(bound)[0] == 0.5
        assert pair_connectedness(model, bound) < 1e-12
        assert pair_connectedness(model, bound / 2.0) >= 1e-12
        assert bound / 2.0 < support_radius(model) <= bound


@pytest.mark.parametrize(
    "make", [Siso, lambda p: SimoMiso(3, p), lambda p: Mimo(2, 2, p)], ids=["siso", "simo3", "mimo"]
)
def test_h_where_r_to_the_eta_overflows_is_a_domain_error(make):
    # r^4 = 8.1e309 is past the doubles, but beta r^4 = 0.81: SISO's exp(-inf)
    # would read 0 where H is 0.445, so every model refuses, with one line from
    # the distance check and no numpy warning
    model = make(PathLossParams(1e-310, 4.0, 2))
    message = r"^beta \* r\^eta is past the doubles for PathLossParams"
    assert pair_connectedness(model, 1e77) > 0.0
    with pytest.raises(DomainError, match=message):
        pair_connectedness(model, 3e77)
    with pytest.raises(DomainError, match=message):
        pair_connectedness_many(model, [1.0, 3e77])


_LAST_DISTANCE = {
    "nan": (math.nan, r"^distances must be non-negative finite reals$"),
    "negative": (-1.0, r"^distances must be non-negative finite reals$"),
    "overflowing": (1e200, r"^beta \* r\^eta is past the doubles for PathLossParams"),
}


def _array_entry_points(r):
    return [
        lambda: pair_connectedness_many(Siso(P3), r),
        lambda: pair_connectedness_many(Mimo(2, 2, P3), r),  # Q(1, x) does not read x again
        lambda: pair_connectedness_mimo_det(2, 3, P3, r),
        lambda: mimo_gamma_form(3, P3, r),
    ]


@pytest.mark.parametrize("last", list(_LAST_DISTANCE))
def test_an_array_is_refused_before_any_of_it_is_evaluated(last, monkeypatch):
    # the last of three H blocks ends in a distance H cannot take: one pass
    # over the whole array refuses it before any block's H runs, or either
    # oracle form's beta * r^eta
    value, message = _LAST_DISTANCE[last]
    r = np.full(2 * H_BLOCK + 1, 0.5)
    r[-1] = value
    evaluated = []
    monkeypatch.setattr(SimoMiso, "h", lambda self, r: evaluated.append(("h", r.size)))
    monkeypatch.setattr(PathLossParams, "x", lambda self, r: evaluated.append(("x", r.size)))
    for entry in _array_entry_points(r):
        with pytest.raises(DomainError, match=message):
            entry()
    assert evaluated == []


def test_each_entry_point_reads_an_array_once(monkeypatch):
    # one min and one max over the distances, and one overflow probe at the max
    reads, probes = [], []
    checked_max, overflows = specfun._checked_max, PathLossParams.r_eta_overflows

    def read(x):
        reads.append(np.size(x))
        return checked_max(x)

    def probe(self, r):
        probes.append(r)
        return overflows(self, r)

    monkeypatch.setattr(specfun, "_checked_max", read)
    monkeypatch.setattr(PathLossParams, "r_eta_overflows", probe)
    r = np.linspace(0.0, 3.0, 2 * H_BLOCK + 1)
    for entry in _array_entry_points(r):
        entry()
    assert reads == [r.size] * 4
    assert probes == [3.0] * 4


def test_support_radius_past_the_doubles_is_a_convergence_error():
    with pytest.raises(ConvergenceError, match="UnitDisk"):
        support_radius(UnitDisk(1e308, P3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "model",
    [Siso(PathLossParams(1e-308, 2.0, 3)), SimoMiso(1, PathLossParams(1e-308, 2.0, 3)),
     SimoMiso(3, PathLossParams(1e-308, 2.0, 3)), Mimo(2, 2, PathLossParams(1e-308, 2.0, 3))],
    ids=["siso", "simo1", "simo3", "mimo"],
)
def test_support_radius_where_r_to_the_eta_overflows_is_a_domain_error(model):
    # H reads 0 once r^eta overflows, so a radius found there (1.34e154 for
    # SISO) is not where the true H, exp(-1.8) at 1.34e154, meets the floor;
    # every fading model is refused with the same line, and no numpy warning
    with pytest.raises(DomainError, match=r"^beta \* r\^eta overflows before H of "):
        support_radius(model)
    # a unit disk never reads beta * r^eta
    assert support_radius(UnitDisk(1e200, P3)) == np.nextafter(1e200, math.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "model",
    [SimoMiso(3, PathLossParams(1e-306, 4.0, 3)), Mimo(2, 2, PathLossParams(1e-306, 4.0, 3)),
     SimoMiso(64, PathLossParams(1e-306, 2.0, 3))],
    ids=["simo3", "mimo", "simo64"],
)
def test_support_radius_where_h_meets_the_floor_before_r_to_the_eta_overflows(model):
    # _support_bound's power of two is past the overflow, but H meets the
    # floor below it: the radius is H's own, where beta * r^eta is a double
    radius = support_radius(model)
    assert model.params.r_eta_overflows(_support_bound(model))
    below = np.nextafter(radius, 0.0)
    assert not model.params.r_eta_overflows(radius)
    assert pair_connectedness(model, radius) < 1e-12 <= pair_connectedness(model, below)
