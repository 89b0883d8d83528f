"""Analytic per-feature connectivity terms and their assembly for the house."""

import csv
import math
import warnings

import numpy as np
import pytest

from prismconn.cli import main
from prismconn.connmass import mass_quadrature
from prismconn.errors import DomainError
from prismconn.geometry import BoundaryFeature, cube_prism, house_prism
from prismconn.linkmodels import Mimo, PathLossParams, SimoMiso, UnitDisk, _mimo_moment
from prismconn.pfc_analytic import assemble, feature_contribution

SQRT2 = math.sqrt(2.0)
PI = math.pi
PARAMS = PathLossParams(1.0, 2.0, 3)
LINK = Mimo(2, 2, PARAMS)  # the link `pfc` and `simulate` take
L = 7.0


# Hand-derived constants of the eta = 2, min-2-antenna MIMO link in 3D, where
# J = integral r H dr = 7 / (4 beta): the oracle for the general moment path.
def homogeneous_mass_mimo2(beta):
    return (23.0 - SQRT2) * math.sqrt(PI) / (16.0 * beta**1.5)


def corner_factor(theta, beta):
    return 256.0 * beta**3 / (343.0 * PI**2 * theta * math.sin(theta))


def edge_factor(theta, beta):
    return 16.0 * beta**2 / (49.0 * PI**2 * math.sin(theta))


def face_factor(beta):
    return 2.0 * beta / (7.0 * PI)


def per_density(feature, rho, model=LINK):
    """One feature's term without the overall density prefactor rho."""
    return feature_contribution(feature, model).term(rho) / rho


def house_terms_reference(rho, beta=1.0, length=L):
    """The six named terms of the worked example, coded independently."""
    k = (23.0 - SQRT2) * (PI / beta) ** 1.5
    s = (11.0 + 2.0 * SQRT2) / 2.0 * length**2
    v = 1.25 * length**3
    return {
        "C1": 6.0 * 512.0 * beta**3 / (343.0 * PI**3 * rho**3) * math.exp(-k * rho / 32.0),
        "C2": 4.0 * 1024.0 * SQRT2 * beta**3 / (1029.0 * PI**3 * rho**3)
        * math.exp(-3.0 * k * rho / 64.0),
        "E1": length * (9.0 + 2.0 * SQRT2) * 16.0 * beta**2 / (49.0 * PI**2 * rho**2)
        * math.exp(-k * rho / 16.0),
        "E2": 2.0 * length * 16.0 * SQRT2 * beta**2 / (49.0 * PI**2 * rho**2)
        * math.exp(-3.0 * k * rho / 32.0),
        "F": 2.0 * beta * s / (7.0 * PI * rho) * math.exp(-k * rho / 8.0),
        "U": v * math.exp(-k * rho / 4.0),
    }


def test_mass_constant_identity():
    # (23 - sqrt 2) sqrt(pi) / 16 equals the reduced n = 2 mass at beta = 1
    nu = 1.5
    reduced = (nu * nu + nu + 2.0 - 2.0 ** (-nu)) * math.gamma(nu) / 2.0
    assert homogeneous_mass_mimo2(1.0) == pytest.approx(reduced, rel=1e-12)
    # pfc's source of M' and J, the 2D mass (7 / 4 at beta = 1), is within an
    # ulp or so; the general closed form is within about 50
    assert LINK.moment(3) == pytest.approx(
        homogeneous_mass_mimo2(1.0), rel=1e-15
    )
    assert Mimo(2, 2, PathLossParams(1.0, 2.0, 2)).moment(2) == 1.75
    assert _mimo_moment(2, PARAMS, 3) == pytest.approx(
        homogeneous_mass_mimo2(1.0), rel=1e-13
    )
    assert _mimo_moment(2, PathLossParams(1.0, 2.0, 2), 2) == pytest.approx(
        1.75, rel=1e-13
    )


@pytest.mark.parametrize("beta", list(np.logspace(-3.0, 3.0, 25)))
def test_general_path_matches_the_hand_constants(beta):
    model = Mimo(2, 2, PathLossParams(beta, 2.0, 3))
    mass = homogeneous_mass_mimo2(beta)
    # the cube's and the house's angles, and one sharper than either
    for theta in (PI / 2, 3 * PI / 4, 0.3):
        corner = feature_contribution(BoundaryFeature(3, 1.0, theta, angle=theta), model)
        edge = feature_contribution(BoundaryFeature(2, 1.0, 2 * theta, angle=theta), model)
        assert corner.geometric_factor == pytest.approx(corner_factor(theta, beta), rel=1e-12)
        assert edge.geometric_factor == pytest.approx(edge_factor(theta, beta), rel=1e-12)
        assert corner.exponent_rate == pytest.approx(theta * mass, rel=1e-12)
        assert edge.exponent_rate == pytest.approx(2 * theta * mass, rel=1e-12)
    face = feature_contribution(BoundaryFeature(1, 1.0, 2 * PI), model)
    bulk = feature_contribution(BoundaryFeature(0, 1.0, 4 * PI), model)
    assert face.geometric_factor == pytest.approx(face_factor(beta), rel=1e-12)
    assert bulk.geometric_factor == 1.0
    assert face.exponent_rate == pytest.approx(2 * PI * mass, rel=1e-12)
    assert bulk.exponent_rate == pytest.approx(4 * PI * mass, rel=1e-12)


def test_mass_that_is_no_finite_double_overflows():
    # 1e-308^1.5 underflows to 0; at 1e-206 M' is past the largest double
    for beta in (1e-308, 1e-206):
        with pytest.raises(OverflowError, match="Mimo.moment"):
            assemble(cube_prism(L), Mimo(2, 2, PathLossParams(beta, 2.0, 3)), [1.0])
    # M' is about 7.6e307 at 1e-205: every term is exp(-huge) = 0
    assert assemble(cube_prism(L), Mimo(2, 2, PathLossParams(1e-205, 2.0, 3)), [1.0])[0].p_fc == 1.0


def test_unit_disk_whose_moment_underflows_overflows():
    # R^2 / 2 is 0 at R = 1e-170: refused by name, not divided by
    with pytest.raises(OverflowError, match="^UnitDisk.moment: M' underflows to 0"):
        assemble(cube_prism(2.0), UnitDisk(1e-170, PathLossParams(1.0, 2.0, 3)), [1.0])


def test_a_term_that_is_no_finite_double_names_its_class():
    cube_corners = BoundaryFeature(3, 1.0, PI / 2, 8, PI / 2)
    # g^3 and the corner factor are doubles at 1e103, 8 G / rho^2 is not
    corner = feature_contribution(cube_corners, Mimo(2, 2, PathLossParams(1e103, 2.0, 3)))
    assert math.isfinite(corner.geometric_factor)
    with pytest.raises(OverflowError, match="^corners: the term at rho = 0.5 is no finite double$"):
        corner.term(0.5)
    # rho^-2 passes the doubles at a tiny rho
    with pytest.raises(OverflowError, match="^corners: the term at rho = 1e-300"):
        feature_contribution(cube_corners, LINK).term(1e-300)
    # at 6e103 the corner factor 64 g^3 is no double though g^3 is
    with pytest.raises(OverflowError, match="^corners: the geometric factor overflows"):
        feature_contribution(cube_corners, Mimo(2, 2, PathLossParams(6e103, 2.0, 3)))
    # two house corner terms that are doubles whose sum is not
    with pytest.raises(OverflowError, match="^corners: the terms at rho = 0.5 sum past"):
        assemble(house_prism(3.0), Mimo(2, 2, PathLossParams(4.7e102, 2.0, 3)), [0.5])


def test_a_term_whose_exponential_underflows_is_zero():
    # rho * V passes the doubles while exp(-rho rate) is 0: the term is 0, not nan
    (b,) = assemble(cube_prism(L), LINK, [1e308])
    assert b.class_terms == {"corners": 0.0, "edges": 0.0, "faces": 0.0, "bulk": 0.0}
    assert (b.p_out, b.p_fc) == (0.0, 1.0)


@pytest.mark.parametrize("rho", [0.5, 0.9, 1.4])
def test_house_term_formulas(rho):
    ref = house_terms_reference(rho)
    corner = BoundaryFeature(3, 1.0, PI / 2, angle=PI / 2)
    assert 6.0 * per_density(corner, rho) == pytest.approx(ref["C1"], rel=1e-12)
    corner = BoundaryFeature(3, 1.0, 3 * PI / 4, angle=3 * PI / 4)
    assert 4.0 * per_density(corner, rho) == pytest.approx(ref["C2"], rel=1e-12)
    edge = BoundaryFeature(2, (9 + 2 * SQRT2) * L, PI, angle=PI / 2)
    assert per_density(edge, rho) == pytest.approx(ref["E1"], rel=1e-12)
    edge = BoundaryFeature(2, 2 * L, 3 * PI / 2, angle=3 * PI / 4)
    assert per_density(edge, rho) == pytest.approx(ref["E2"], rel=1e-12)
    surface = (11 + 2 * SQRT2) / 2 * L * L
    face = BoundaryFeature(1, surface, 2 * PI)
    assert per_density(face, rho) == pytest.approx(ref["F"], rel=1e-12)
    bulk = BoundaryFeature(0, 1.25 * L**3, 4 * PI)
    assert per_density(bulk, rho) == pytest.approx(ref["U"], rel=1e-12)


def test_assemble_equals_named_terms():
    rhos = [0.5, 0.8, 1.1]
    breakdowns = assemble(house_prism(L), LINK, rhos)
    for rho, b in zip(rhos, breakdowns):
        ref = house_terms_reference(rho)
        assert b.p_out == pytest.approx(rho * sum(ref.values()), rel=1e-12)
        assert b.p_fc == pytest.approx(1.0 - rho * sum(ref.values()), rel=1e-12)
        sums = b.class_terms
        assert sums["corners"] == pytest.approx(rho * (ref["C1"] + ref["C2"]), rel=1e-12)
        assert sums["edges"] == pytest.approx(rho * (ref["E1"] + ref["E2"]), rel=1e-12)
        assert sums["faces"] == pytest.approx(rho * ref["F"], rel=1e-12)
        assert sums["bulk"] == pytest.approx(rho * ref["U"], rel=1e-12)


def test_exponent_rate_identity():
    # every rate is solid_angle * M' with M' the n = 2 link mass
    closed = _mimo_moment(2, PARAMS, 3)
    quad = mass_quadrature(LINK).value
    breakdown = assemble(house_prism(L), LINK, [0.7])[0]
    for contrib in breakdown.contributions:
        omega = contrib.feature.solid_angle
        assert contrib.exponent_rate / closed == pytest.approx(omega, rel=1e-10)
        assert contrib.exponent_rate / quad == pytest.approx(omega, rel=1e-8)


def test_rate_constants_against_literals():
    k = (23.0 - SQRT2) * math.sqrt(PI) / 16.0
    breakdown = assemble(house_prism(L), LINK, [1.0])[0]
    rates = {
        (c.feature.codim, None if c.feature.angle is None else round(c.feature.angle, 9)):
        c.exponent_rate
        for c in breakdown.contributions
    }
    assert rates[(3, round(PI / 2, 9))] == pytest.approx(PI / 2 * k, rel=1e-13)
    assert rates[(2, round(PI / 2, 9))] == pytest.approx(PI * k, rel=1e-13)
    assert rates[(1, None)] == pytest.approx(2 * PI * k, rel=1e-13)
    assert rates[(0, None)] == pytest.approx(4 * PI * k, rel=1e-13)
    # spot values at beta = 1
    assert rates[(3, round(PI / 2, 9))] == pytest.approx(3.7561480923208768, rel=1e-12)
    assert rates[(1, None)] == pytest.approx(15.024592369283507, rel=1e-12)


def test_density_power_structure():
    # after factoring the exponential, terms scale as rho^(1-codim)
    breakdown = assemble(house_prism(L), LINK, [1.0])[0]
    for contrib in breakdown.contributions:
        t1 = contrib.term(1.0) * math.exp(contrib.exponent_rate * 1.0)
        t2 = contrib.term(2.0) * math.exp(contrib.exponent_rate * 2.0)
        assert t2 / t1 == pytest.approx(2.0 ** (1 - contrib.feature.codim), rel=1e-12)
        assert contrib.density_power == 1 - contrib.feature.codim


def test_corner_terms_dominate_at_high_density():
    breakdown = assemble(house_prism(L), LINK, [3.0])[0]
    sums = breakdown.class_terms
    assert sums["corners"] > sums["edges"] > sums["faces"] > sums["bulk"]


def test_beta_scaling_leaves_exponents_invariant():
    for c in (0.25, 4.0):
        base = assemble(house_prism(L), LINK, [1.0])[0]
        scaled = assemble(house_prism(L), Mimo(2, 2, PathLossParams(c, 2.0, 3)), [c**1.5])[0]
        base_rates = sorted(x.exponent_rate * 1.0 for x in base.contributions)
        scaled_rates = sorted(x.exponent_rate * c**1.5 for x in scaled.contributions)
        np.testing.assert_allclose(base_rates, scaled_rates, rtol=1e-12)


def test_pfc_monotone_to_one_in_valid_regime():
    rhos = list(np.linspace(0.6, 2.5, 25))
    breakdowns = assemble(house_prism(L), LINK, rhos)
    values = [b.p_fc for b in breakdowns]
    assert all(b.in_regime for b in breakdowns)
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    assert all(v < 1.0 for v in values)
    assert values[-1] > 0.999


def test_out_of_regime_flags():
    low = assemble(house_prism(L), LINK, [0.05])[0]
    assert low.p_fc < 0.0
    assert not low.in_regime
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        small = assemble(cube_prism(1.0), LINK, [1.0])[0]
    assert not small.in_regime
    assert any("shortest edge" in str(w.message) for w in caught)


@pytest.mark.parametrize(
    "model, side, rho, warning",
    [
        # beta^(1/4) = 2 against sqrt(beta) = 4: 4 < 5 <= 8 on a cube of side 2
        (SimoMiso(4, PathLossParams(16.0, 4.0, 3)), 2.0, 500.0, "beta^(1/4) * shortest edge = 4"),
        # beta^(1/4) = 0.5 against sqrt(beta) = 0.25: 3 < 5 <= 6 on side 12
        (SimoMiso(4, PathLossParams(1 / 16, 4.0, 3)), 12.0, 10.0, None),
        # 1/R = 1 against sqrt(beta) = 10: 2 < 5 <= 20 on side 2
        (UnitDisk(1.0, PathLossParams(100.0, 2.0, 3)), 2.0, 50.0, "1/R * shortest edge = 2"),
        # 1/R = 4 against sqrt(beta) = 1: 2 < 5 <= 8 on side 2
        (UnitDisk(0.25, PathLossParams(1.0, 2.0, 3)), 2.0, 1e4, None),
        (Mimo(2, 2, PathLossParams(4.0, 2.0, 3)), 2.0, 50.0, "sqrt(beta) * shortest edge = 4"),
    ],
    ids=["simo4-eta4-out", "simo4-eta4-in", "unitdisk-out", "unitdisk-in", "mimo-eta2-out"],
)
def test_regime_flag_uses_the_links_own_length(model, side, rho, warning):
    # On a cube the characteristic length and the shortest edge are both the
    # side, so the link's own length flags and warns together.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        breakdown = assemble(cube_prism(side), model, [rho])[0]
    assert breakdown.p_fc > 0.999
    assert breakdown.in_regime is (warning is None)
    messages = [str(w.message) for w in caught]
    assert messages == ([] if warning is None else [
        f"{warning} is small; the boundary expansion assumes it is large"
    ])


def test_domain_errors():
    # the expansion is three-dimensional; which path loss `pfc` takes is the
    # CLI's to decide (tests/test_cli.py)
    with pytest.raises(DomainError, match="three-dimensional"):
        assemble(house_prism(L), Mimo(2, 2, PathLossParams(1.0, 2.0, 2)), [1.0])
    with pytest.raises(DomainError, match="three-dimensional"):
        feature_contribution(
            BoundaryFeature(3, 1.0, PI / 2, angle=PI / 2), UnitDisk(1.0, PathLossParams(1.0, 2.0, 1))
        )
    with pytest.raises(DomainError):
        BoundaryFeature(3, 1.0, PI, angle=PI)
    with pytest.raises(DomainError):
        assemble(house_prism(L), LINK, [0.0])
    with pytest.raises(DomainError):
        BoundaryFeature(2, -1.0, PI, angle=PI / 2)
    with pytest.raises(DomainError):
        assemble(cube_prism(1.0), LINK, [0.0])


def test_any_link_model_reads_through_its_two_moments():
    # SIMO 4 at eta = 2, beta = 1: M' = Gamma(5.5) / (3 Gamma(4)) = 105 sqrt(pi) / 64
    # and J = Gamma(5) / (2 Gamma(4)) = 2, so g = 1 / (4 pi)
    mass = 105.0 * math.sqrt(PI) / 64.0
    factors = {
        3: lambda theta: 1.0 / (2.0 * PI**2 * theta * math.sin(theta)),
        2: lambda theta: 1.0 / (4.0 * PI**2 * math.sin(theta)),
        1: lambda _: 1.0 / (4.0 * PI),
        0: lambda _: 1.0,
    }
    (b,) = assemble(house_prism(L), SimoMiso(4, PARAMS), [0.9])
    assert {c.feature.codim for c in b.contributions} == {0, 1, 2, 3}
    for c in b.contributions:
        feature = c.feature
        assert c.geometric_factor == pytest.approx(factors[feature.codim](feature.angle), rel=1e-15)
        assert c.exponent_rate == pytest.approx(feature.solid_angle * mass, rel=1e-15)


@pytest.mark.parametrize("link", [LINK, Mimo(2, 6, PARAMS)], ids=["mimo2", "mimo6"])
def test_assemble_reads_each_moment_once(monkeypatch, link):
    # seven house features and three densities: M' and J are read once each,
    # and every contribution is the one `feature_contribution` gives
    reads, moment = [], Mimo.moment

    def spy(self, d):
        reads.append(d)
        return moment(self, d)

    monkeypatch.setattr(Mimo, "moment", spy)
    breakdowns = assemble(house_prism(L), link, [0.5, 0.87, 2.0])
    assert reads == [3, 2]
    assert len(breakdowns[0].contributions) == 7
    assert breakdowns[0].contributions == tuple(
        feature_contribution(c.feature, link) for c in breakdowns[0].contributions
    )


def test_bare_params_mean_the_mimo_link():
    rhos = [0.5, 0.87, 2.0]
    assert assemble(house_prism(L), PARAMS, rhos) == assemble(house_prism(L), LINK, rhos)


def test_feature_table_house():
    rows = [c.row() for c in assemble(house_prism(L), LINK, [1.0])[0].contributions]
    by_key = {(r["class"], r["angle"] and round(r["angle"], 9)): r for r in rows}
    corner = by_key[("corners", round(PI / 2, 9))]
    assert corner["multiplicity"] == 6
    assert corner["measure"] == 1.0
    assert corner["solid_angle"] == pytest.approx(PI / 2, rel=1e-12)
    assert corner["geometric_factor"] == pytest.approx(
        256.0 / (343.0 * PI**2 * (PI / 2)), rel=1e-12
    )
    edge = by_key[("edges", round(3 * PI / 4, 9))]
    assert edge["geometric_factor"] == pytest.approx(
        16.0 * SQRT2 / (49.0 * PI**2), rel=1e-12
    )
    face = by_key[("faces", None)]
    assert face["geometric_factor"] == pytest.approx(2.0 / (7.0 * PI), rel=1e-12)
    assert by_key[("bulk", None)]["geometric_factor"] == 1.0


def test_cumulative_approximations_ordering(tmp_path):
    out = tmp_path / "pfc.csv"
    argv = ["pfc", "--prism", "house", "--L", "7", "--beta", "1", "--eta", "2",
            "--rho", "0.8", "--output", str(out)]
    assert main(argv) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    cumulative = {key: float(value) for key, value in row.items() if key != "in_regime"}
    full = 1.0 - sum(cumulative[f"term_{name}"] for name in ("bulk", "faces", "edges", "corners"))
    assert (
        cumulative["p_fc_bulk"]
        >= cumulative["p_fc_bulk_faces"]
        >= cumulative["p_fc_bulk_faces_edges"]
        >= cumulative["p_fc"]
    )
    assert full == pytest.approx(cumulative["p_fc"], rel=1e-12)
