"""High-density analytic full-connectivity probability in right prisms.

Corners, edges, faces, and bulk each contribute an exponentially decaying
term controlled by the solid angle available there, and

    P_fc ~= 1 - sum over features of rho^(1-codim) G V exp(-rho omega M')

where M' = integral r^2 H dr is the homogeneous mass of connectivity of the
link.  For an isotropic H the geometric factors follow from one more moment,
J = integral r H dr: with g = 1 / (2 pi J), a face has G = g, an edge of
opening angle theta 4 g^2 / sin(theta) and a corner 32 pi g^3 /
(theta sin(theta)).  Every per-feature factor reads the link only through
these two closed-form moments, M' = `model.moment(3)` and J =
`model.moment(2)`, so the library takes any link model in three
dimensions; which links a command accepts is the CLI's to decide.  `assemble`
reads the two moments once, evaluates each feature's term once per density
and keeps the per-class sums beside P_fc.  The first-order expansion may go
negative at low density; values are reported as-is with an out-of-regime
flag rather than clamped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

from .errors import DomainError
from .geometry import BoundaryFeature, RightPrism, enumerate_features
from .linkmodels import ConnectionModel, Mimo, PathLossParams

__all__ = [
    "FeatureContribution",
    "PfcBreakdown",
    "assemble",
    "feature_contribution",
]

_MIN_SCALE = 5.0  # derivations assume feature length >> the link's length

_CLASS_NAMES = {3: "corners", 2: "edges", 1: "faces", 0: "bulk"}


@dataclass(frozen=True)
class FeatureContribution:
    """One boundary feature's term in the full-connectivity expansion.

    term(rho) = multiplicity * rho^density_power * G * measure
                * exp(-rho * exponent_rate),
    with density_power = 1 - codim and exponent_rate = solid_angle * M'.
    """

    feature: BoundaryFeature
    geometric_factor: float
    exponent_rate: float
    density_power: int

    def term(self, rho: float) -> float:
        try:
            value = (
                self.feature.multiplicity
                * rho**self.density_power
                * self.geometric_factor
                * self.feature.measure
                * math.exp(-rho * self.exponent_rate)
            )
        except OverflowError:  # rho^density_power at a tiny rho
            value = math.inf
        if math.isfinite(value):
            return value
        # The product passed the doubles, or read inf * 0 where the exponential
        # underflowed: in logarithms, only a term that is truly no finite
        # double (G / rho^codim at a huge beta or a tiny rho) is refused.
        factors = (self.feature.multiplicity, self.geometric_factor, self.feature.measure)
        if 0.0 in factors:
            return 0.0
        try:
            return math.exp(
                sum(math.log(f) for f in factors)
                + self.density_power * math.log(rho)
                - rho * self.exponent_rate
            )
        except OverflowError:
            raise OverflowError(
                f"{_CLASS_NAMES[self.feature.codim]}: the term at rho = {rho:.6g} "
                "is no finite double"
            ) from None

    def row(self) -> dict:
        """The feature's ledger row: its class and geometry, G and the rate."""
        return {
            "class": _CLASS_NAMES[self.feature.codim],
            **asdict(self.feature),
            "geometric_factor": self.geometric_factor,
            "exponent_rate": self.exponent_rate,
        }


def feature_contribution(feature: BoundaryFeature, model: ConnectionModel) -> FeatureContribution:
    """Geometric factor, exponent rate, and density power for one feature."""
    return _contribution(feature, *_link_constants(model))


def _link_constants(model: ConnectionModel) -> tuple[float, float]:
    """(M', g) = (`moment(3)`, 1 / (2 pi `moment(2)`)), what the expansion reads of a link."""
    if model.params.dim != 3:
        raise DomainError(f"the prism expansion is three-dimensional, got dim={model.params.dim}")
    return model.moment(3), 1.0 / (2.0 * math.pi * model.moment(2))


def _contribution(feature: BoundaryFeature, mass: float, g: float) -> FeatureContribution:
    """`feature_contribution` from the link's M' and g."""
    try:
        power = g**feature.codim
    except OverflowError:  # g^3, then g^2, passes the doubles at a huge beta
        power = math.inf
    if feature.codim == 3:
        factor = 32.0 * math.pi * power / (feature.angle * math.sin(feature.angle))
    elif feature.codim == 2:
        factor = 4.0 * power / math.sin(feature.angle)
    else:
        factor = power  # g for a face, 1 for the bulk
    if not math.isfinite(factor):
        raise OverflowError(
            f"{_CLASS_NAMES[feature.codim]}: the geometric factor overflows, since G, "
            f"of order g^{feature.codim} with g = 1/(2 pi J) = {g:.6g}, is no double"
        )
    return FeatureContribution(feature, factor, feature.solid_angle * mass, 1 - feature.codim)


@dataclass(frozen=True)
class PfcBreakdown:
    """Analytic P_fc at one density with its per-feature ledger and per-class sums."""

    rho: float
    contributions: tuple[FeatureContribution, ...]
    p_fc: float
    p_out: float
    in_regime: bool
    class_terms: dict[str, float]


def assemble(prism: RightPrism, model: ConnectionModel, rho_grid) -> list[PfcBreakdown]:
    """Evaluate the per-feature expansion of P_fc, each term once, over a density grid."""
    # Bare params mean the 2x2 MIMO link, until perfbench's `mc_house` passes its model.
    if isinstance(model, PathLossParams):
        model = Mimo(2, 2, model)
    rhos = [float(r) for r in rho_grid]
    for rho in rhos:
        if not (math.isfinite(rho) and rho > 0.0):
            raise DomainError(f"node density must be a positive finite real, got {rho}")
    constants = _link_constants(model)  # each moment once, not once per feature
    contributions = tuple(_contribution(f, *constants) for f in enumerate_features(prism))
    # The regime flag keys on the characteristic scale in the link's own
    # length; the stricter shortest-edge check only warns, since single
    # marginal edges degrade their own term, not the whole expansion.
    inverse, spelled = model.inverse_length()
    scale_ok = inverse * prism.volume ** (1.0 / 3.0) >= _MIN_SCALE
    if inverse * prism.shortest_edge < _MIN_SCALE:
        warnings.warn(
            f"{spelled} * shortest edge = {inverse * prism.shortest_edge:.3g} is small; "
            "the boundary expansion assumes it is large",
            stacklevel=2,
        )
    results = []
    for rho in rhos:
        terms = [c.term(rho) for c in contributions]
        p_out = sum(terms)
        if math.isinf(p_out):  # finite terms whose sum is not
            top = contributions[terms.index(max(terms))]
            raise OverflowError(
                f"{_CLASS_NAMES[top.feature.codim]}: the terms at rho = {rho:.6g} "
                "sum past the doubles"
            )
        class_terms = dict.fromkeys(_CLASS_NAMES.values(), 0.0)
        for c, t in zip(contributions, terms):
            class_terms[_CLASS_NAMES[c.feature.codim]] += t
        p_fc = 1.0 - p_out
        in_regime = scale_ok and p_fc >= 0.0
        results.append(PfcBreakdown(rho, contributions, p_fc, p_out, in_regime, class_terms))
    return results
