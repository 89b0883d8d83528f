"""High-density analytic full-connectivity probability in right prisms.

Corners, edges, faces, and bulk each contribute an exponentially decaying
term controlled by the solid angle available there, and

    P_fc ~= 1 - sum over features of rho^(1-codim) G V exp(-rho omega M')

where M' = integral r^2 H dr is the homogeneous mass of connectivity of the
link.  For an isotropic H the geometric factors follow from one more moment,
J = integral r H dr: with g = 1 / (2 pi J), a face has G = g, an edge of
opening angle theta 4 g^2 / sin(theta) and a corner 32 pi g^3 /
(theta sin(theta)).  Both moments come from the 2x2 MIMO link's closed
form, `Mimo(2, 2, params).moment(3)` and `.moment(2)`; the pipeline is
validated for that link with free-space path loss (eta = 2) in three
dimensions only.  The first-order expansion may go negative at low
density; values are reported as-is with an out-of-regime flag rather than
clamped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import CapabilityError, DomainError
from .geometry import BoundaryFeature, RightPrism, enumerate_features
from .linkmodels import Mimo, PathLossParams

__all__ = [
    "FeatureContribution",
    "PfcBreakdown",
    "assemble",
    "class_term_sums",
    "cumulative_pfc",
    "feature_contribution",
    "feature_table",
]

_MIN_SCALE = 5.0  # derivations assume sqrt(beta) * feature length >> 1

_CLASS_NAMES = {3: "corners", 2: "edges", 1: "faces", 0: "bulk"}


def _require_supported(params: PathLossParams) -> None:
    if params.eta != 2.0 or params.dim != 3:
        raise CapabilityError(
            "the per-feature expansion is validated for eta = 2 in three dimensions "
            f"only, got eta={params.eta}, dim={params.dim}"
        )


def _check_rho(rho: float) -> None:
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(f"node density must be a positive finite real, got {rho}")


def _moments(params: PathLossParams) -> tuple[float, float]:
    """M' = integral r^2 H dr and g = 1 / (2 pi J), J = integral r H dr, of the link."""
    _require_supported(params)
    link = Mimo(2, 2, params)
    return link.moment(3), 1.0 / (2.0 * math.pi * link.moment(2))


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


def _contribution(feature: BoundaryFeature, mass: float, g: float) -> FeatureContribution:
    """One feature's term from the link's M' and g (see `_moments`)."""
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


def feature_contribution(
    feature: BoundaryFeature, params: PathLossParams
) -> FeatureContribution:
    """Geometric factor, exponent rate, and density power for one feature."""
    return _contribution(feature, *_moments(params))


@dataclass(frozen=True)
class PfcBreakdown:
    """Analytic P_fc at one density with its per-feature ledger."""

    rho: float
    contributions: tuple[FeatureContribution, ...]
    p_fc: float
    p_out: float
    in_regime: bool


def class_term_sums(breakdown: PfcBreakdown) -> dict[str, float]:
    """Evaluated terms summed per feature class (corners/edges/faces/bulk)."""
    sums = {name: 0.0 for name in _CLASS_NAMES.values()}
    for contrib in breakdown.contributions:
        sums[_CLASS_NAMES[contrib.feature.codim]] += contrib.term(breakdown.rho)
    return sums


def cumulative_pfc(breakdown: PfcBreakdown) -> dict[str, float]:
    """P_fc keeping bulk only, then adding faces, edges, and corners."""
    sums = class_term_sums(breakdown)
    running = 0.0
    out = {}
    for label, name in (
        ("bulk_only", "bulk"),
        ("bulk_faces", "faces"),
        ("bulk_faces_edges", "edges"),
        ("full", "corners"),
    ):
        running += sums[name]
        out[label] = 1.0 - running
    return out


def assemble(
    prism: RightPrism, params: PathLossParams, rho_grid
) -> list[PfcBreakdown]:
    """Evaluate the per-feature expansion of P_fc over a density grid."""
    _require_supported(params)
    rhos = [float(r) for r in rho_grid]
    for rho in rhos:
        _check_rho(rho)
    # first, so a mass that overflows is the one line a caller sees
    moments = _moments(params)
    contributions = tuple(_contribution(f, *moments) for f in enumerate_features(prism))
    # The regime flag keys on the characteristic scale; the stricter
    # shortest-edge check only warns, since single marginal edges degrade
    # their own term, not the whole expansion.
    scale_ok = math.sqrt(params.beta) * prism.volume ** (1.0 / 3.0) >= _MIN_SCALE
    if math.sqrt(params.beta) * prism.shortest_edge < _MIN_SCALE:
        warnings.warn(
            f"sqrt(beta) * shortest edge = "
            f"{math.sqrt(params.beta) * prism.shortest_edge:.3g} is small; the "
            "boundary expansion assumes it is large",
            stacklevel=2,
        )
    results = []
    for rho in rhos:
        p_out = sum(c.term(rho) for c in contributions)
        if math.isinf(p_out):  # finite terms whose sum is not
            top = max(contributions, key=lambda c: c.term(rho))
            raise OverflowError(
                f"{_CLASS_NAMES[top.feature.codim]}: the terms at rho = {rho:.6g} "
                "sum past the doubles"
            )
        p_fc = 1.0 - p_out
        results.append(
            PfcBreakdown(rho, contributions, p_fc, p_out, scale_ok and p_fc >= 0.0)
        )
    return results


def feature_table(prism: RightPrism, params: PathLossParams) -> list[dict]:
    """Per-feature (measure, solid angle, geometric factor) ledger rows."""
    moments = _moments(params)
    rows = []
    for f in enumerate_features(prism):
        contrib = _contribution(f, *moments)
        rows.append(
            {
                "class": _CLASS_NAMES[f.codim],
                "codim": f.codim,
                "multiplicity": f.multiplicity,
                "angle": f.angle,
                "measure": f.measure,
                "solid_angle": f.solid_angle,
                "geometric_factor": contrib.geometric_factor,
                "exponent_rate": contrib.exponent_rate,
            }
        )
    return rows
