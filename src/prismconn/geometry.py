"""Convex right prisms: construction, boundary features, uniform sampling.

A right prism is a convex polygon (counter-clockwise, strictly convex)
extruded perpendicular to its plane.  Boundary features are enumerated by
codimension: corners (codim 3), edges (codim 2), one aggregated face term
(codim 1), and the bulk (codim 0), each carrying the measure, opening
angle, and solid angle the connectivity formulas need.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InvalidPrismError

__all__ = [
    "BoundaryFeature",
    "RightPrism",
    "check_integer",
    "check_seed",
    "cube_prism",
    "enumerate_features",
    "house_prism",
    "load_prism",
    "preset_prism",
    "prism_from_dict",
    "sample_uniform",
    "sample_uniform_rng",
]

_FULL_SOLID_ANGLE = 4.0 * math.pi
_FACE_SOLID_ANGLE = 2.0 * math.pi


@dataclass(frozen=True)
class RightPrism:
    """Convex polygonal base (counter-clockwise) extruded to a given height."""

    base_vertices: tuple[tuple[float, float], ...]
    height: float

    def __post_init__(self) -> None:
        verts = tuple((float(x), float(y)) for x, y in self.base_vertices)
        object.__setattr__(self, "base_vertices", verts)
        if len(verts) < 3:
            raise InvalidPrismError(f"base needs at least 3 vertices, got {len(verts)}")
        if not all(math.isfinite(c) for v in verts for c in v):
            raise InvalidPrismError("base vertices must be finite")
        if not (math.isfinite(self.height) and self.height > 0.0):
            raise InvalidPrismError(f"height must be positive, got {self.height}")
        n = len(verts)
        scale = max(abs(c) for v in verts for c in v) or 1.0
        tol = 1e-12 * scale * scale
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            cx, cy = verts[(i + 2) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross <= tol:
                raise InvalidPrismError(
                    "base must be strictly convex and counter-clockwise "
                    f"(turn at vertex {(i + 1) % n} has cross product {cross})"
                )
        # Left turns alone admit stars: the interior angles of a base that
        # winds w times sum to (n - 2w) pi, so a star falls 2 pi or more short.
        if sum(self.interior_angles) < (n - 3) * math.pi:
            raise InvalidPrismError("base must wind exactly once, not trace a star")

    @property
    def base_area(self) -> float:
        verts = self.base_vertices
        acc = 0.0
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            acc += ax * by - bx * ay
        return 0.5 * acc

    @property
    def side_lengths(self) -> tuple[float, ...]:
        verts = self.base_vertices
        return tuple(
            math.hypot(bx - ax, by - ay)
            for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])
        )

    @property
    def perimeter(self) -> float:
        return sum(self.side_lengths)

    @property
    def volume(self) -> float:
        return self.base_area * self.height

    @property
    def surface_area(self) -> float:
        return 2.0 * self.base_area + self.perimeter * self.height

    @property
    def interior_angles(self) -> tuple[float, ...]:
        verts = self.base_vertices
        n = len(verts)
        angles = []
        for i in range(n):
            px, py = verts[(i - 1) % n]
            vx, vy = verts[i]
            qx, qy = verts[(i + 1) % n]
            ax, ay = px - vx, py - vy
            bx, by = qx - vx, qy - vy
            cosang = (ax * bx + ay * by) / (math.hypot(ax, ay) * math.hypot(bx, by))
            angles.append(math.acos(max(-1.0, min(1.0, cosang))))
        return tuple(angles)

    @property
    def shortest_edge(self) -> float:
        return min(min(self.side_lengths), self.height)

    @property
    def bounding_box(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        xs = [v[0] for v in self.base_vertices]
        ys = [v[1] for v in self.base_vertices]
        return (min(xs), min(ys), 0.0), (max(xs), max(ys), self.height)

    def contains_many(self, points) -> np.ndarray:
        """Boolean mask of the rows of a (k, 3) array that lie in the prism.

        Boundary points are inside; a point with a NaN coordinate is not,
        because each test asks for `>= 0.0` rather than rejecting `< 0.0`.
        """
        x, y, z = np.asarray(points, dtype=float).T
        inside = (z >= 0.0) & (z <= self.height)
        verts = self.base_vertices
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            inside &= (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0.0
        return inside

    def contains(self, point) -> bool:
        return bool(self.contains_many([point])[0])


@dataclass(frozen=True)
class BoundaryFeature:
    """One class of boundary objects feeding the connectivity formula.

    measure is the (d - codim)-dimensional volume of a single object
    (1 for corners, length for edges, area for the face term, volume for
    the bulk); angle is the opening angle for corners and vertical edges.
    """

    codim: int
    measure: float
    solid_angle: float
    multiplicity: int = 1
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.codim not in (0, 1, 2, 3):
            raise DomainError(f"codim must be in 0..3, got {self.codim}")
        if self.measure <= 0.0:
            raise DomainError(f"feature measure must be positive, got {self.measure}")
        if not 0.0 < self.solid_angle <= _FULL_SOLID_ANGLE:
            raise DomainError(f"solid angle must be in (0, 4*pi], got {self.solid_angle}")
        if self.multiplicity < 1:
            raise DomainError(f"multiplicity must be >= 1, got {self.multiplicity}")
        if self.angle is not None and not 0.0 < self.angle < math.pi:
            raise DomainError(f"opening angle must be in (0, pi), got {self.angle}")


def _group_key(codim: int, angle: float | None, measure: float) -> tuple:
    a = -1.0 if angle is None else float(f"{angle:.12g}")
    return codim, a, float(f"{measure:.12g}")


def enumerate_features(prism: RightPrism) -> list[BoundaryFeature]:
    """Boundary features of the prism, grouped by (codim, angle, measure).

    Multiplicities sum to 2n corners and 3n edges for an n-sided base;
    faces are aggregated into a single surface-area term and the bulk into
    a single volume term.  Corners carry the base interior angle; vertical
    edges carry the same angle while the 2n horizontal edges are right
    angled for any right prism.
    """
    angles = prism.interior_angles
    sides = prism.side_lengths
    right_angle = 0.5 * math.pi

    groups: dict[tuple, list] = {}

    def add(codim, measure, solid_angle, angle, count):
        key = _group_key(codim, angle, measure)
        if key in groups:
            groups[key][0] += count
        else:
            groups[key] = [count, codim, measure, solid_angle, angle]

    for theta in angles:
        add(3, 1.0, theta, theta, 2)  # top + bottom corner at this vertex
        add(2, prism.height, 2.0 * theta, theta, 1)  # vertical edge
    for length in sides:
        add(2, length, 2.0 * right_angle, right_angle, 2)  # top + bottom edge
    add(1, prism.surface_area, _FACE_SOLID_ANGLE, None, 1)
    add(0, prism.volume, _FULL_SOLID_ANGLE, None, 1)

    features = [
        BoundaryFeature(codim, measure, solid, mult, angle)
        for mult, codim, measure, solid, angle in groups.values()
    ]
    features.sort(
        key=lambda f: (-f.codim, f.angle if f.angle is not None else -1.0, f.measure)
    )
    return features


def house_prism(length: float) -> RightPrism:
    """Pentagon-base prism: unit square topped by a right-angled isosceles
    roof of half the side, extruded by the same side length."""
    if length <= 0.0:
        raise DomainError(f"scale length must be positive, got {length}")
    L = float(length)
    base = ((0.0, 0.0), (L, 0.0), (L, L), (L / 2.0, 1.5 * L), (0.0, L))
    return RightPrism(base, L)


def cube_prism(length: float) -> RightPrism:
    if length <= 0.0:
        raise DomainError(f"scale length must be positive, got {length}")
    L = float(length)
    return RightPrism(((0.0, 0.0), (L, 0.0), (L, L), (0.0, L)), L)


_PRESETS = {"cube": cube_prism, "house": house_prism}


def preset_prism(name: str, length: float) -> RightPrism:
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown prism preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return builder(length)


def prism_from_dict(data: dict) -> RightPrism:
    try:
        verts = tuple((float(x), float(y)) for x, y in data["base_vertices"])
        height = float(data["height"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidPrismError(f"malformed prism description: {exc}") from exc
    return RightPrism(verts, height)


def load_prism(path: str | Path) -> RightPrism:
    with open(path, encoding="utf-8") as fh:
        return prism_from_dict(json.load(fh))


def sample_uniform_rng(
    prism: RightPrism, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `count` i.i.d. uniform points in the prism from an existing rng.

    The convex base is fan-triangulated from vertex 0; a triangle is chosen
    with probability proportional to its area and a point placed by the
    reflected-barycentric construction, with the height drawn independently.
    Returns an array of shape (count, 3).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    verts = np.asarray(prism.base_vertices, dtype=float)
    origin = verts[0]
    leg_a = verts[1:-1] - origin
    leg_b = verts[2:] - origin
    areas = 0.5 * (leg_a[:, 0] * leg_b[:, 1] - leg_a[:, 1] * leg_b[:, 0])
    tri = rng.choice(areas.size, size=count, p=areas / areas.sum())
    uv = rng.random((count, 2))
    flip = uv.sum(axis=1) > 1.0
    uv[flip] = 1.0 - uv[flip]
    xy = origin + uv[:, :1] * leg_a[tri] + uv[:, 1:] * leg_b[tri]
    z = rng.uniform(0.0, prism.height, size=count)
    return np.column_stack([xy, z])


def check_integer(value, name: str, least: int) -> int:
    """`value` as an int if it is an integer (not a bool) of at least `least`, else a DomainError."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """The seed as an int if it is a non-negative integer (not a bool), else a DomainError."""
    return check_integer(seed, "seed", 0)


def sample_uniform(prism: RightPrism, count: int, seed: int) -> np.ndarray:
    """Deterministic uniform sample: identical (seed, count) give identical points."""
    return sample_uniform_rng(prism, count, np.random.default_rng(check_seed(seed)))
