"""Mass of connectivity: closed forms vs the quadrature oracle, scaling laws."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from prismconn import connmass, linkmodels
from prismconn.connmass import (
    _quad,
    error_order_fit,
    loglog_slope,
    mass_quadrature,
    mass_scaling_leading,
    step_error,
)
from prismconn.errors import CapabilityError, ConvergenceError, DomainError
from prismconn.linkmodels import (
    Mimo,
    PathLossParams,
    SimoMiso,
    Siso,
    UnitDisk,
    _mimo_moment,
    pair_connectedness,
    pair_connectedness_many,
    support_radius,
)


def test_siso_closed_form_values():
    # d = 2: Gamma(2) / (2 Gamma(1)) = 1/2, so the full mass is pi/beta
    assert SimoMiso(1, PathLossParams(1.0, 2.0, 2)).moment(2) == pytest.approx(
        0.5, rel=1e-14
    )
    # d = 3: Gamma(2.5) / 3 = sqrt(pi)/4; times 4*pi gives pi^(3/2)
    value = SimoMiso(1, PathLossParams(1.0, 2.0, 3)).moment(3)
    assert value == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-14)
    assert 4.0 * math.pi * value == pytest.approx(math.pi**1.5, rel=1e-14)


def test_simo_closed_vs_quadrature_frozen():
    frozen = 1.904761904761905  # quadrature of the defining integral
    params = PathLossParams(0.7, 3.0, 3)
    assert mass_quadrature(SimoMiso(4, params)).value == pytest.approx(frozen, rel=1e-10)
    assert SimoMiso(4, params).moment(params.dim) == pytest.approx(frozen, rel=1e-10)


def test_mimo_n2_frozen_value_and_identity():
    params = PathLossParams(1.0, 2.0, 3)
    frozen = 2.3912381435122416  # quadrature of r^2 exp(-r^2)(r^4 + 2 - exp(-r^2))
    closed = Mimo(2, 2, params).moment(params.dim)
    assert closed == pytest.approx(frozen, rel=1e-10)
    assert mass_quadrature(Mimo(2, 2, params)).value == pytest.approx(frozen, rel=1e-9)
    # the closed-form constant is (23 - sqrt 2) sqrt(pi) / 16
    assert closed * 16.0 / math.sqrt(math.pi) == pytest.approx(
        23.0 - math.sqrt(2.0), rel=1e-10
    )


def test_mimo_n2_specialization_matches_general():
    for d in (1, 2, 3):
        for eta in (2.0, 3.0, 4.0):
            for beta in (0.5, 1.0, 2.0):
                params = PathLossParams(beta, eta, d)
                general = _mimo_moment(2, params, d)
                reduced = Mimo(2, 2, params).moment(d)
                assert general == pytest.approx(reduced, rel=1e-10)


def test_mimo_frozen_quadrature_values():
    assert mass_quadrature(Mimo(2, 5, PathLossParams(1.3, 4.0, 2))).value == pytest.approx(
        1.1809064488648726, rel=1e-9
    )
    params = PathLossParams(1.0, 2.0, 3)
    assert mass_quadrature(Mimo(2, 3, params)).value == pytest.approx(
        Mimo(2, 3, params).moment(params.dim), rel=1e-6
    )


def test_quadrature_unit_disk_and_siso():
    assert mass_quadrature(UnitDisk(1.0, PathLossParams(1.0, 2.0, 3))).value == (
        pytest.approx(1.0 / 3.0, rel=1e-12)
    )
    result = mass_quadrature(Siso(PathLossParams(1.0, 2.0, 2)))
    assert result.value == pytest.approx(0.5, abs=1e-10)
    assert result.est_abs_error < 1e-10


def test_unit_disk_jump_is_a_panel_edge():
    # the quadrature stops at a power of two past the radius; the model's step
    # radius, its radius, keeps the jump on a panel edge
    for radius in (2.3, 0.7, 5.0):
        disk = UnitDisk(radius, PathLossParams(1.0, 2.0, 3))
        assert disk.step_radius() == radius
        assert mass_quadrature(disk).value == pytest.approx(radius**3 / 3.0, rel=1e-15)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.3, 7.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_unit_disk_closed_moment_matches_the_quadrature(radius, d):
    disk = UnitDisk(radius, PathLossParams(1.0, 2.0, d))
    assert disk.moment(d) == pytest.approx(mass_quadrature(disk).value, rel=1e-12)


def test_unit_disk_closed_moment_past_the_doubles_is_an_overflow_error():
    # radius^2 / 2 is past the doubles at 1e155; radius^3 itself at 1e200
    for disk in (UnitDisk(1e155, PathLossParams(1.0, 2.0, 2)),
                 UnitDisk(1e200, PathLossParams(1.0, 2.0, 3))):
        with pytest.raises(OverflowError, match="^UnitDisk.moment: M' is not a finite double"):
            disk.moment(disk.params.dim)


@pytest.mark.parametrize("beta", [2e-307, 1e-306, 2.3e-306])
def test_quadrature_stops_short_of_where_r_to_the_eta_overflows(beta):
    # the support bound's r^4 passes the doubles, but beta * r^4 is still a
    # double at the support radius, so the integral stops there
    model = Siso(PathLossParams(beta, 4.0, 3))
    assert model.params.r_eta_overflows(linkmodels._support_bound(model))
    assert mass_quadrature(model).value == pytest.approx(model.moment(3), rel=1e-11)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", [Siso, lambda p: SimoMiso(3, p), lambda p: Mimo(2, 2, p)],
                         ids=["siso", "simo3", "mimo"])
def test_quadrature_where_r_to_the_eta_overflows_is_a_domain_error(model):
    # refused with no numpy warning on the way
    link = model(PathLossParams(1e-308, 4.0, 3))
    with pytest.raises(DomainError):
        mass_quadrature(link)


def test_closed_vs_quadrature_grid():
    for d in (1, 2, 3):
        for eta in (2.0, 3.0, 4.0):
            for beta in (0.5, 2.0):
                params = PathLossParams(beta, eta, d)
                for m in (1, 4, 8):
                    closed = SimoMiso(m, params).moment(params.dim)
                    quad = mass_quadrature(SimoMiso(m, params)).value
                    assert abs(closed - quad) <= max(1e-9, 1e-6 * closed)
                for n in (2, 5, 8):
                    closed = Mimo(2, n, params).moment(params.dim)
                    quad = mass_quadrature(Mimo(2, n, params)).value
                    assert abs(closed - quad) <= max(1e-9, 1e-6 * closed)


@pytest.mark.parametrize("beta", [1e-200, 1.0, 1e8, 1e100, 1e200])
def test_quadrature_matches_the_closed_mass_for_every_support(beta):
    # supports from about 1e100 down to 1e-100: below 1 the quadrature's
    # panels must still span the link's profile, not [step radius, 1]
    for eta in (2.0, 4.0):
        for d in (1, 3):
            p = PathLossParams(beta, eta, d)
            for model in (SimoMiso(1, p), SimoMiso(8, p), Mimo(2, 2, p), Mimo(2, 9, p),
                          UnitDisk(beta ** (-1.0 / eta), p)):
                closed = model.moment(d)
                assert abs(mass_quadrature(model).value - closed) <= 1e-6 * closed, model


def test_step_error_rebuilds_the_mass_of_a_support_below_one():
    # the support radius is about 6.4e-5, so the step's far side lies below 1
    p = PathLossParams(1e10, 2.0, 3)
    eps_minus, eps_plus = step_error(4, p)
    rebuilt = mass_scaling_leading(4, p) + eps_minus + eps_plus
    assert rebuilt / Mimo(2, 4, p).moment(3) == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize(
    "mass",
    [
        lambda: SimoMiso(1, PathLossParams(2e205, 2.0, 3)).moment(3),
        lambda: Mimo(2, 9, PathLossParams(1.7e308, 2.0, 2)).moment(2),
        lambda: mass_scaling_leading(2, PathLossParams(2e205, 2.0, 3)),
        lambda: UnitDisk(1e-170, PathLossParams(1.0, 2.0, 3)).moment(2),
    ],
    ids=["simo1", "mimo9", "leading", "unitdisk"],
)
def test_closed_mass_that_underflows_to_zero_is_an_overflow_error(mass):
    # d beta^(d/eta) is a double but beta^(d/eta) is not, or R^d / d underflows
    with pytest.raises(OverflowError, match=r"M' underflows to 0, so it is no positive double$"):
        mass()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("eta", [2.0, 3.0, 4.0])
def test_mimo_closed_mass_at_the_highest_orders(d, eta):
    # Gamma(2n + nu) / Gamma(n)^2 passes the doubles from n = 504 (eta = 2,
    # d = 3), while M' itself stays near 4e3 up to n = 512
    params = PathLossParams(1.0, eta, d)
    for n in (503, 504, 510, 512):
        closed = Mimo(2, n, params).moment(params.dim)
        assert closed == pytest.approx(mass_quadrature(Mimo(2, n, params)).value, rel=1e-11)


@pytest.mark.parametrize("beta, n", [(1e-100, 300), (1e-50, 512), (1e-200, 60)])
def test_mimo_closed_mass_whose_prefactor_overflows_at_a_small_beta(beta, n):
    params = PathLossParams(beta, 2.0, 3)
    closed = Mimo(2, n, params).moment(params.dim)
    assert closed == pytest.approx(mass_quadrature(Mimo(2, n, params)).value, rel=1e-11)


def test_power_scaling_in_beta():
    # the closed forms factor as beta^(-d/eta) times a constant
    for d, eta in ((2, 2.0), (3, 2.0), (3, 4.0)):
        nu = d / eta
        scaled = [
            SimoMiso(3, PathLossParams(b, eta, d)).moment(d) * b**nu
            for b in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert max(scaled) - min(scaled) <= 1e-10 * scaled[0]
        scaled = [
            Mimo(2, 4, PathLossParams(b, eta, d)).moment(d) * b**nu
            for b in (0.25, 1.0, 4.0)
        ]
        assert max(scaled) - min(scaled) <= 1e-10 * scaled[0]


@pytest.mark.parametrize("m", [1, 2])
def test_quadrature_tracks_the_closed_form_at_a_tiny_beta(m):
    # the support radius lies past 2^200, at about 5.6e65
    params = PathLossParams(1e-130, 2.0, 3)
    closed = SimoMiso(m, params).moment(params.dim)
    assert mass_quadrature(SimoMiso(m, params)).value == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize(
    "mass",
    [
        lambda p: SimoMiso(1, p).moment(p.dim),
        lambda p: SimoMiso(2, p).moment(p.dim),
        lambda p: _mimo_moment(2, p, p.dim),
        lambda p: Mimo(2, 3, p).moment(p.dim),
        lambda p: Mimo(2, 2, p).moment(p.dim),
        lambda p: mass_scaling_leading(3, p),
        lambda p: mass_scaling_leading(4, p),
    ],
    ids=["simo1", "simo2", "mimo2", "mimo3", "mimo_n2", "leading_simo3", "leading_mimo4"],
)
def test_closed_masses_refuse_to_overflow(mass):
    # beta^(3/2) is 0 at 1e-300 and subnormal at 2e-207 (M' ~ 1e310, not a double)
    for beta in (1e-320, 1e-300, 2e-207):
        with pytest.raises(OverflowError, match="mass|M'"):
            mass(PathLossParams(beta, 2.0, 3))
    # large but finite masses still come back
    for beta in (1e-200, 1e-100, 1.0, 1e100):
        assert math.isfinite(mass(PathLossParams(beta, 2.0, 3)))
    # beta^(3/2) overflows at 1e300, so M' (about 1e-450) is no positive double
    with pytest.raises(OverflowError, match=r"overflows, so M' is no positive double"):
        mass(PathLossParams(1e300, 2.0, 3))


def test_closed_masses_keep_their_bits():
    # the formulas the guards wrap, written out
    for beta in (1e-200, 1e-7, 0.37, 1.0, 3.0, 1e150):
        for d, eta in ((1, 2.0), (2, 3.0), (3, 2.0), (3, 4.5)):
            p = PathLossParams(beta, eta, d)
            nu = d / eta
            for m in (1, 2, 5):
                assert SimoMiso(m, p).moment(p.dim) == (
                    math.exp(math.lgamma(m + nu) - math.lgamma(m))
                    / (beta**nu * d)
                )
                assert mass_scaling_leading(m, p) == m**nu / (beta**nu * d)
            assert Mimo(2, 2, p).moment(d) == (
                (nu * nu + nu + 2.0 - 2.0 ** (-nu))
                * math.exp(math.lgamma(nu))
                / (beta**nu * eta)
            )


def test_scaling_leading_values():
    assert mass_scaling_leading(1, PathLossParams(1.0, 2.0, 2)) == (
        pytest.approx(0.5, rel=1e-14)
    )
    assert mass_scaling_leading(4, PathLossParams(1.0, 2.0, 3)) == (
        pytest.approx(8.0 / 3.0, rel=1e-14)
    )


def test_leading_order_convergence_monotone():
    params = PathLossParams(1.0, 2.0, 3)
    gaps = [
        abs(
            SimoMiso(m, params).moment(params.dim)
            / mass_scaling_leading(m, params)
            - 1.0
        )
        for m in (8, 16)
    ]
    assert gaps[1] < gaps[0]


def test_simo_and_mimo_scaling_orders():
    params = PathLossParams(1.0, 2.0, 3)
    ms = [4, 8, 16, 32, 64]
    simo_gap = [
        abs(SimoMiso(m, params).moment(params.dim) / mass_scaling_leading(m, params) - 1)
        for m in ms
    ]
    assert loglog_slope(ms, simo_gap) == pytest.approx(-1.0, abs=0.15)
    mimo_gap = [
        abs(Mimo(2, n, params).moment(params.dim) / mass_scaling_leading(n, params) - 1)
        for n in ms
    ]
    assert loglog_slope(ms, mimo_gap) == pytest.approx(-0.5, abs=0.15)


def test_step_approx_values():
    params = PathLossParams(1.0, 2.0, 3)

    def step(n):
        return mass_scaling_leading(n, params)

    assert step(2) == pytest.approx(2.0**1.5 / 3.0, rel=1e-14)
    assert step(8) == pytest.approx(8.0**1.5 / 3.0, rel=1e-14)
    gap16 = abs(Mimo(2, 16, params).moment(params.dim) - step(16)) / step(16)
    gap64 = abs(Mimo(2, 64, params).moment(params.dim) - step(64)) / step(64)
    assert gap64 < gap16


def test_step_error_signs_and_reconciliation():
    params = PathLossParams(1.0, 2.0, 3)
    eps_minus, eps_plus = step_error(2, params)
    assert eps_minus <= 0.0
    assert eps_plus >= 0.0
    assert eps_minus == pytest.approx(-0.07181606351355035, rel=1e-8)
    assert eps_plus == pytest.approx(1.5202451654437237, rel=1e-8)
    total = mass_scaling_leading(2, params) + eps_minus + eps_plus
    exact = mass_quadrature(Mimo(2, 2, params)).value
    assert total == pytest.approx(exact, rel=1e-8)
    for n, d, eta in ((32, 2, 2.0), (8, 3, 4.0)):
        p = PathLossParams(1.0, eta, d)
        em, ep = step_error(n, p)
        assert em <= 0.0 <= ep
        assert mass_scaling_leading(n, p) + em + ep == pytest.approx(
            mass_quadrature(Mimo(2, n, p)).value, rel=1e-8
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "model",
    [SimoMiso(3, PathLossParams(1e-306, 4.0, 3)), Mimo(2, 2, PathLossParams(1e-306, 4.0, 2))],
    ids=["simo3", "mimo"],
)
def test_mass_where_h_meets_the_floor_before_r_to_the_eta_overflows(model):
    # integrated up to `support_radius`, where beta * r^eta is still a double;
    # probing the overflow on the way warns nothing
    value = mass_quadrature(model).value
    assert value == pytest.approx(model.moment(model.params.dim), rel=1e-12)


def test_step_error_refuses_a_step_radius_past_the_doubles(monkeypatch):
    # 2 / 1e-308 is past the doubles, so (n / beta)^(1/eta) is inf: refused
    # by name before any quadrature runs or numpy warns
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(connmass, "_quad", no_quadrature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^step error: the step radius .* overflows$"):
            step_error(2, PathLossParams(1e-308, 4.0, 3))


def test_error_order_fit():
    slope = error_order_fit([8, 16, 32, 64], PathLossParams(1.0, 2.0, 3))
    assert slope == pytest.approx(1.0, abs=0.2)


def test_error_order_fit_validation():
    params = PathLossParams(1.0, 2.0, 3)
    with pytest.raises(DomainError):
        error_order_fit([8, 16, 32], params)  # too few
    with pytest.raises(DomainError):
        error_order_fit([8, 16, 32, 48], params)  # span below 8x
    with pytest.raises(DomainError):
        error_order_fit([8, 32, 16, 64], params)  # not increasing


def test_capability_and_domain_errors():
    params = PathLossParams(1.0, 2.0, 3)
    with pytest.raises(CapabilityError):
        Mimo(2, 1, params)
    with pytest.raises(CapabilityError, match="<= 512"):
        Mimo(2, 513, params)
    with pytest.raises(DomainError):
        SimoMiso(0, params)


def test_scaling_slope_helper_validation():
    with pytest.raises(DomainError):
        loglog_slope([1.0], [1.0])
    with pytest.raises(DomainError):
        loglog_slope([1.0, 2.0], [0.0, 1.0])


def _scipy_quad(f, lo, hi, points=()):
    """The reference: QUADPACK through scipy, on a scalar integrand."""
    pts = [p for p in points if lo < p < hi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(
            f, lo, hi, points=pts or None, limit=300, epsabs=1e-12, epsrel=1e-11
        )


def test_quad_matches_scipy_quad_on_mass_integrands():
    for d in (1, 2, 3):
        for eta in (2.0, 2.5, 3.0, 4.0):
            params = PathLossParams(1.0, eta, d)
            models = [SimoMiso(m, params) for m in (1, 3, 16, 64)]
            models += [Mimo(2, n, params) for n in (2, 5, 16, 64)]
            for model in models:
                transition = model.step_radius()
                radius = support_radius(model)
                # the mass integrand, then the two halves of the step error
                cases = [
                    (lambda r: r ** (d - 1) * model.h(r), 0.0, radius, (transition,)),
                    (lambda r: r ** (d - 1) * (model.h(r) - 1.0), 0.0, transition, ()),
                    (lambda r: r ** (d - 1) * model.h(r), transition, radius, ()),
                ]
                for f, lo, hi, points in cases:
                    value, _ = _quad(lambda r: f(np.asarray(r)), lo, hi, points)
                    reference, _ = _scipy_quad(lambda r: float(f(r)), lo, hi, points)
                    assert value == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_quad_unit_disk_jump_inside_a_panel():
    disk = UnitDisk(1.7, PathLossParams(1.0, 2.0, 3))
    f = lambda r: r**2 * disk.h(r)  # noqa: E731
    value, abs_err = _quad(f, 0.0, 3.0, breakpoints=(1.0,))
    assert value == pytest.approx(1.7**3 / 3.0, rel=1e-12, abs=0.0)
    assert value == pytest.approx(_scipy_quad(f, 0.0, 3.0, (1.0,))[0], rel=1e-12, abs=0.0)
    assert 0.0 < abs_err <= 1e-10


def test_quad_raises_on_a_non_integrable_integrand():
    with pytest.raises(ConvergenceError):
        _quad(lambda r: 1.0 / np.abs(r - 0.3), 0.0, 1.0)


@pytest.mark.parametrize(
    "f",
    [
        lambda r: math.nan,
        lambda r: np.full_like(r, math.nan),
        lambda r: np.where(r > 0.9, math.inf, r),
        lambda r: np.where(r < 0.5, r, math.nan),
    ],
)
def test_quad_raises_on_non_finite_values(f):
    calls = []

    def counting(r):
        calls.append(r)
        return f(r)

    with pytest.raises(ConvergenceError):
        _quad(counting, 0.0, 1.0)
    assert len(calls) == 1  # raised at once, not after refining to the cap


def test_quad_takes_an_integral_of_huge_values():
    assert _quad(lambda r: np.full_like(r, 1e300), 0.0, 1.0)[0] == pytest.approx(1e300, rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "model",
    [SimoMiso(3, PathLossParams(10**-306.5, 2.0, 3)), UnitDisk(1e155, PathLossParams(1.0, 2.0, 2)),
     UnitDisk(1e200, PathLossParams(1.0, 2.0, 3))],
    ids=["simo3", "unitdisk", "unitdisk-r2-overflows"],
)
def test_mass_past_the_doubles_is_an_overflow_error(model):
    # M' (about 1.1e460, 5e309 and 3e599) is no double; r^2 of the last one
    # passes the doubles too, but over t = r / 2^e the integrand is at most 1
    with pytest.raises(OverflowError, match="the integral passes the doubles"):
        mass_quadrature(model)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "make, beta",
    [(lambda p: Mimo(2, 60, p), 1e-203), (lambda p: SimoMiso(8, p), 3.16e-204),
     (Siso, 1e-204), (lambda p: Mimo(2, 2, p), 1e-205)],
    ids=["mimo60", "simo8", "siso", "mimo2"],
)
def test_mass_near_the_largest_double_integrates(make, beta):
    # M' is a double, though the integral's r-space panel sums could pass them
    model = make(PathLossParams(beta, 2.0, 3))
    assert mass_quadrature(model).value == pytest.approx(model.moment(3), rel=1e-13)


_P4 = PathLossParams(1.0, 4.0, 3)


@pytest.mark.parametrize(
    "model, value, error",
    [
        (SimoMiso(1, _P4), "0x1.39b4e8b50f62cp-2", "0x1.ea2aaba260b12p-49"),
        (SimoMiso(8, _P4), "0x1.913cf49692ff2p+0", "0x1.39779f1682a77p-46"),
        (SimoMiso(64, _P4), "0x1.e2033773971e1p+2", "0x1.da00ddf308616p-43"),
        (Mimo(2, 2, _P4), "0x1.aa4fa6285c6dep-1", "0x1.4d0e39d04377ap-47"),
        (Mimo(2, 64, _P4), "0x1.0a283f0c7f138p+3", "0x1.4e2b5242b3398p-37"),
        (UnitDisk(2.3, _P4), "0x1.03900aec33e1fp+2", "0x1.9591111111110p-45"),
    ],
    ids=["simo1", "simo8", "simo64", "mimo2", "mimo64", "unitdisk"],
)
def test_mass_quadrature_keeps_its_bits(model, value, error):
    # pinned from the r-space quadrature; the integral over t = r / 2^e scales
    # every node, value, error and tolerance by a power of two
    result = mass_quadrature(model)
    assert (result.value.hex(), result.est_abs_error.hex()) == (value, error)


@pytest.mark.parametrize(
    "n, params, expected",
    [
        (16, _P4, ["-0x1.985630d6bf730p-6", "0x1.1c665c8b7785dp-1"]),
        # eps_minus meets the absolute tolerance, so it pins its scaling too
        (64, PathLossParams(1.0, 4.0, 1), ["-0x1.ec902fd6ec8c8p-9", "0x1.877f0435050b5p-4"]),
    ],
    ids=["n16-d3", "n64-d1"],
)
def test_step_error_keeps_its_bits(n, params, expected):
    assert [e.hex() for e in step_error(n, params)] == expected


def test_quad_stops_at_300_subintervals():
    nodes = []

    def f(r):
        nodes.append(r.size)
        return np.cos(1e5 * r)

    with pytest.raises(ConvergenceError):
        _quad(f, 0.0, 1.0)
    # 8 starting panels, then two new panels per bisection: 292 bisections
    # leave exactly 300 subintervals
    assert connmass._START_PANELS == 8
    assert sum(nodes) == 21 * (8 + 2 * 292)
    # every panel is bisected each round (8, 16, ..., 128, then 44 of them)
    assert len(nodes) == 7


def test_quad_takes_a_constant_integrand():
    assert _quad(lambda r: 2.0, 0.0, 1.5) == pytest.approx((3.0, 0.0), abs=1e-13)


MAX_ROUNDS = 2  # f calls per quadrature; 4572 masses over d, eta, beta and k <= 64 took 1-2
MAX_SCALAR_H = 6  # scalar H calls of the doubling to the support bound on those masses


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("eta", [2.0, 3.0, 4.0])
def test_mass_quadrature_evaluates_h_on_arrays_in_few_rounds(monkeypatch, d, eta):
    calls, scalar = [], []

    def counting(model, r):
        calls.append(r)
        return pair_connectedness_many(model, r)

    def counting_scalar(model, r):
        scalar.append(r)
        return pair_connectedness(model, r)

    monkeypatch.setattr(connmass, "pair_connectedness_many", counting)
    monkeypatch.setattr(connmass, "pair_connectedness", counting_scalar)
    monkeypatch.setattr(linkmodels, "pair_connectedness", counting_scalar)
    params = PathLossParams(1.0, eta, d)
    models = [SimoMiso(m, params) for m in (1, 8, 64)] + [Mimo(2, n, params) for n in (2, 8, 64)]
    for model in models:
        calls.clear()
        scalar.clear()
        mass_quadrature(model)
        assert 1 <= len(calls) <= MAX_ROUNDS
        assert all(isinstance(r, np.ndarray) and r.size % 21 == 0 for r in calls)
        # only the doubling to the support bound: H at 1, 2, 4, ... up to it
        assert scalar == [2.0**i for i in range(len(scalar))]
        assert len(scalar) <= MAX_SCALAR_H
    for n in (2, 8, 64):
        calls.clear()
        scalar.clear()
        step_error(n, params)
        assert 2 <= len(calls) <= 2 * MAX_ROUNDS
        assert all(isinstance(r, np.ndarray) and r.size % 21 == 0 for r in calls)
        assert scalar == [2.0**i for i in range(len(scalar))]
        assert len(scalar) <= MAX_SCALAR_H
