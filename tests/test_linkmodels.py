"""Pair-connectedness models: point values, cross-form agreement, limits."""

import math

import mpmath
import numpy as np
import pytest

from prismconn.errors import CapabilityError, DomainError
from prismconn.linkmodels import (
    Mimo,
    PathLossParams,
    SimoMiso,
    Siso,
    UnitDisk,
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


def test_siso_point_values():
    model = Siso(P3)
    assert pair_connectedness(model, 0.0) == 1.0
    assert pair_connectedness(model, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    with pytest.raises(DomainError):
        pair_connectedness(model, -0.1)
    with pytest.raises(DomainError):
        pair_connectedness(model, math.nan)


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
    assert disk.plateau == pytest.approx(math.exp(-1.0))
    assert pair_connectedness(disk, 1.9) == 1.0
    assert pair_connectedness(disk, 2.0) == disk.plateau
    assert pair_connectedness(disk, 2.1) == 0.0
    custom = UnitDisk(1.0, P3, plateau=0.25)
    assert pair_connectedness(custom, 1.0) == 0.25
    with pytest.raises(DomainError):
        UnitDisk(1.0, P3, plateau=1.5)
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
        return 1.0 if r < model.radius else model.plateau if r == model.radius else 0.0
    x = mpmath.mpf(model.params.beta) * mpmath.mpf(float(r)) ** mpmath.mpf(model.params.eta)
    if isinstance(model, Siso):
        return mpmath.exp(-x)
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


@pytest.mark.parametrize("n", [2, 4, 16, 64])
@pytest.mark.parametrize("beta, eta", [(1.0, 2.0), (0.5, 3.0)])
def test_mimo_support_radius_sits_at_the_floor(n, beta, eta):
    # H at the support radius is the floor itself, not a tail-rounding error off it
    model = Mimo(2, n, PathLossParams(beta, eta, 3))
    with mpmath.workdps(30):
        h = mpmath_h(model, support_radius(model))
    assert abs(float(h) / 1e-12 - 1.0) < 1e-10
