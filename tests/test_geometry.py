"""Prism construction, boundary-feature census, and uniform sampling."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from prismconn.errors import DomainError, InvalidPrismError
from prismconn.geometry import (
    BoundaryFeature,
    RightPrism,
    cube_prism,
    enumerate_features,
    house_prism,
    load_prism,
    preset_prism,
    prism_from_dict,
    sample_uniform,
    sample_uniform_rng,
)

SQRT2 = math.sqrt(2.0)
NAN = float("nan")

fast = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def feature_census(features):
    counts = {0: 0, 1: 0, 2: 0, 3: 0}
    for f in features:
        counts[f.codim] += f.multiplicity
    return counts


def test_house_derived_quantities():
    house = house_prism(7.0)
    assert house.volume == pytest.approx(428.75, rel=1e-14)
    assert house.surface_area == pytest.approx((11 + 2 * SQRT2) / 2 * 49, rel=1e-13)
    assert house.base_area == pytest.approx(1.25 * 49, rel=1e-14)
    assert len(house.base_vertices) == 5


def test_house_feature_census():
    house = house_prism(7.0)
    features = enumerate_features(house)
    census = feature_census(features)
    assert census == {3: 10, 2: 15, 1: 1, 0: 1}

    corners = {
        round(f.angle, 9): f.multiplicity for f in features if f.codim == 3
    }
    assert corners == {round(math.pi / 2, 9): 6, round(3 * math.pi / 4, 9): 4}

    edges = {
        (round(f.angle, 9), round(f.measure, 9)): f.multiplicity
        for f in features
        if f.codim == 2
    }
    assert edges == {
        (round(math.pi / 2, 9), 7.0): 9,
        (round(math.pi / 2, 9), round(7.0 / SQRT2, 9)): 4,
        (round(3 * math.pi / 4, 9), 7.0): 2,
    }

    face = [f for f in features if f.codim == 1]
    bulk = [f for f in features if f.codim == 0]
    assert len(face) == len(bulk) == 1
    assert face[0].measure == pytest.approx(house.surface_area, rel=1e-13)
    assert face[0].solid_angle == pytest.approx(2 * math.pi)
    assert bulk[0].measure == pytest.approx(house.volume, rel=1e-13)
    assert bulk[0].solid_angle == pytest.approx(4 * math.pi)


def test_corner_and_edge_solid_angles():
    for f in enumerate_features(house_prism(3.0)):
        if f.codim == 3:
            assert f.solid_angle == pytest.approx(f.angle, rel=1e-12)
        elif f.codim == 2:
            assert f.solid_angle == pytest.approx(2 * f.angle, rel=1e-12)


def test_cube_features():
    cube = cube_prism(2.0)
    features = enumerate_features(cube)
    assert feature_census(features) == {3: 8, 2: 12, 1: 1, 0: 1}
    for f in features:
        if f.codim in (2, 3):
            assert f.angle == pytest.approx(math.pi / 2, rel=1e-12)
        if f.codim == 2:
            assert f.measure == pytest.approx(2.0, rel=1e-14)
    assert cube.surface_area == pytest.approx(24.0, rel=1e-14)
    assert cube.volume == pytest.approx(8.0, rel=1e-14)


def test_features_match_direct_formulas():
    for prism in (house_prism(4.0), cube_prism(1.5)):
        features = enumerate_features(prism)
        surface = sum(f.measure for f in features if f.codim == 1)
        volume = sum(f.measure for f in features if f.codim == 0)
        assert surface == pytest.approx(
            2 * prism.base_area + prism.perimeter * prism.height, rel=1e-12
        )
        assert volume == pytest.approx(prism.base_area * prism.height, rel=1e-12)


def random_convex_prism(rng):
    n = int(rng.integers(3, 9))
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, size=n))
    while np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 0.15:
        angles = np.sort(rng.uniform(0.0, 2 * math.pi, size=n))
    radius = float(rng.uniform(0.5, 3.0))
    verts = tuple((radius * math.cos(a), radius * math.sin(a)) for a in angles)
    return RightPrism(verts, float(rng.uniform(0.5, 4.0)))


def test_interior_angle_sum():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        prism = random_convex_prism(rng)
        total = sum(prism.interior_angles)
        assert total == pytest.approx((len(prism.base_vertices) - 2) * math.pi, abs=1e-12)
        census = feature_census(enumerate_features(prism))
        assert census[3] == 2 * len(prism.base_vertices)
        assert census[2] == 3 * len(prism.base_vertices)


def test_invalid_prisms_rejected():
    with pytest.raises(InvalidPrismError):
        RightPrism(((0, 0), (1, 0)), 1.0)  # too few vertices
    with pytest.raises(InvalidPrismError):
        RightPrism(((0, 0), (1, 0), (1, 1), (0, 1)), 0.0)  # flat
    with pytest.raises(InvalidPrismError):
        RightPrism(((0, 0), (0, 1), (1, 1), (1, 0)), 1.0)  # clockwise
    with pytest.raises(InvalidPrismError):
        RightPrism(((0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)), 1.0)  # dart
    with pytest.raises(InvalidPrismError):
        RightPrism(((0, 0), (1, 0), (2, 0), (1, 1)), 1.0)  # collinear (angle pi)
    with pytest.raises(InvalidPrismError):
        RightPrism(((0, 0), (1, 0), (float("nan"), 1)), 1.0)


def star_base(n, step, radius=10.0):
    """The {n/step} star: every step-th vertex of a regular n-gon, all left turns."""
    return tuple(
        (radius * math.cos(math.pi / 2 + 2 * math.pi * step * k / n),
         radius * math.sin(math.pi / 2 + 2 * math.pi * step * k / n))
        for k in range(n)
    )


@pytest.mark.parametrize("n, step", [(5, 2), (7, 2), (7, 3)])
def test_star_bases_are_rejected(n, step):
    with pytest.raises(InvalidPrismError, match="wind exactly once"):
        RightPrism(star_base(n, step), 5.0)
    # the same vertices, once round
    assert len(RightPrism(star_base(n, 1), 5.0).base_vertices) == n


def inside_reference(prism, point):
    """One point against each half-plane; a NaN comparison counts as outside."""
    x, y, z = point
    if not (z >= 0.0 and z <= prism.height):
        return False
    verts = prism.base_vertices
    return all(
        (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0.0
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])
    )


def test_contains_rejects_nan_coordinates():
    house = house_prism(7.0)
    assert house.contains((1.0, 1.0, 1.0))
    for point in [(NAN, 1.0, 1.0), (1.0, NAN, 1.0), (NAN, NAN, 1.0), (1.0, 1.0, NAN)]:
        assert not house.contains(point)
    assert house.contains_many([(NAN, 1.0, 1.0), (1.0, 1.0, 1.0)]).tolist() == [False, True]


def test_contains_rejects_malformed_points():
    with pytest.raises(ValueError):
        house_prism(7.0).contains((1.0, 1.0))


def _probe_points(prism):
    """Points on which the membership test is decided at or near equality."""
    verts = prism.base_vertices
    h = prism.height
    special = [(x, y, z) for x, y in verts for z in (0.0, h, 0.5 * h)]
    special += [
        (0.5 * (ax + bx), 0.5 * (ay + by), z)
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])
        for z in (0.0, h)
    ]
    special += [(*verts[0], z) for z in (-1e-300, h * (1.0 + 2.0**-52), NAN)]
    return special


@fast
@given(
    prism=st.builds(house_prism, st.floats(0.5, 20.0))
    | st.builds(cube_prism, st.floats(0.5, 20.0)),
    unit=st.lists(
        st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)),
        max_size=40,
    ),
    picks=st.lists(st.integers(0, 10**6), max_size=20),
    nan_rows=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), max_size=6),
)
def test_contains_many_agrees_point_by_point(prism, unit, picks, nan_rows):
    (x0, y0, z0), (x1, y1, z1) = prism.bounding_box
    points = [(x0 + u * (x1 - x0), y0 + v * (y1 - y0), z0 + w * (z1 - z0)) for u, v, w in unit]
    special = _probe_points(prism)
    points += [special[k % len(special)] for k in picks]
    points += [
        tuple(NAN if flag else c for flag, c in zip(flags, (1.0, 1.0, 1.0)))
        for flags in nan_rows
    ]
    array = np.array(points, dtype=float).reshape(-1, 3)
    mask = prism.contains_many(array)
    assert mask.dtype == bool and mask.shape == (len(array),)
    assert mask.tolist() == [prism.contains(p) for p in array]
    assert mask.tolist() == [inside_reference(prism, p) for p in array]


@st.composite
def convex_bases(draw):
    """Counter-clockwise strictly convex polygons inscribed in a circle.

    Gaps between consecutive vertex angles stay below pi, so the circle's
    centre is strictly inside and every turn is strictly convex.
    """
    k = draw(st.integers(3, 9))
    weights = draw(st.lists(st.floats(1.0, 1.9), min_size=k, max_size=k))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    radius = draw(st.floats(0.1, 100.0))
    cx, cy = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    total = sum(weights)
    angles = [phase + 2.0 * math.pi * sum(weights[:i]) / total for i in range(k)]
    return [
        (radius * (cx + math.cos(a)), radius * (cy + math.sin(a))) for a in angles
    ]


@fast
@given(base=convex_bases(), height=st.floats(0.1, 10.0), shift=st.integers(0, 8))
def test_convex_counter_clockwise_bases_are_accepted(base, height, shift):
    shift %= len(base)
    prism = RightPrism(tuple(base[shift:] + base[:shift]), height)
    assert len(prism.base_vertices) == len(base)
    assert prism.base_area > 0.0


@fast
@given(base=convex_bases(), height=st.floats(0.1, 10.0), shift=st.integers(0, 8))
def test_clockwise_bases_are_rejected(base, height, shift):
    shift %= len(base)
    clockwise = base[::-1]
    with pytest.raises(InvalidPrismError):
        RightPrism(tuple(clockwise[shift:] + clockwise[:shift]), height)


@fast
@given(
    base=convex_bases(),
    height=st.floats(0.1, 10.0),
    edge=st.integers(0, 8),
    depth=st.floats(0.0, 0.95),
)
def test_non_convex_bases_are_rejected(base, height, edge, depth):
    # A vertex on an edge (depth 0) or pushed from the edge's midpoint towards
    # the centroid makes a straight or reflex turn.
    edge %= len(base)
    (ax, ay), (bx, by) = base[edge], base[(edge + 1) % len(base)]
    cx = sum(x for x, _ in base) / len(base)
    cy = sum(y for _, y in base) / len(base)
    mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
    dent = (mx + depth * (cx - mx), my + depth * (cy - my))
    with pytest.raises(InvalidPrismError):
        RightPrism(tuple(base[: edge + 1] + [dent] + base[edge + 1 :]), height)


def test_sampling_determinism():
    house = house_prism(7.0)
    a = sample_uniform(house, 100, 99)
    b = sample_uniform(house, 100, 99)
    np.testing.assert_array_equal(a, b)
    single = sample_uniform(house, 1, 1234)
    np.testing.assert_array_equal(single, sample_uniform(house, 1, 1234))
    assert not np.array_equal(a, sample_uniform(house, 100, 100))
    with pytest.raises(DomainError):
        sample_uniform(house, 0, 1)
    with pytest.raises(DomainError):
        sample_uniform(house, 10, -1)


def test_sampling_inside_prism():
    house = house_prism(5.0)
    pts = sample_uniform(house, 2000, 7)
    assert all(house.contains(p) for p in pts)


def test_sampling_cube_centroid():
    cube = cube_prism(1.0)
    pts = sample_uniform(cube, 100_000, 31337)
    sigma = math.sqrt(1.0 / 12.0 / 100_000)
    for axis in range(3):
        assert abs(pts[:, axis].mean() - 0.5) < 4.0 * sigma


def test_sampling_house_roof_fraction():
    # the roof triangle holds (L^2/4) / (5 L^2/4) = 1/5 of the base area
    L = 7.0
    pts = sample_uniform(house_prism(L), 100_000, 4242)
    frac = float((pts[:, 1] > L).mean())
    sigma = math.sqrt(0.2 * 0.8 / 100_000)
    assert abs(frac - 0.2) < 4.0 * sigma


def test_sampling_chi_square_uniformity():
    # 8 cells: roof/square x left/right x bottom/top, exact probabilities
    L = 7.0
    pts = sample_uniform(house_prism(L), 100_000, 90210)
    in_roof = pts[:, 1] > L
    left = pts[:, 0] < L / 2
    low = pts[:, 2] < L / 2
    probs = {True: 0.1 / 2, False: 0.4 / 2}  # roof vs square halves, per z half
    observed, expected = [], []
    for roof in (False, True):
        for is_left in (False, True):
            for is_low in (False, True):
                mask = (in_roof == roof) & (left == is_left) & (low == is_low)
                observed.append(int(mask.sum()))
                expected.append(probs[roof] * 100_000)
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert chi2 < stats.chi2.ppf(0.999, df=7)


def rebuilt_fan_sample(prism, count, rng):
    """`sample_uniform_rng` with the fan triangulation rebuilt on every call."""
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


HEXAGON_JSON = """{"base_vertices": [[0, 0], [2, -1], [4, 0], [4.5, 2], [2, 3.25], [-0.5, 1.5]],
                   "height": 1.75}"""
# An irregular pentagon: three fan triangles of unequal area.
IRREGULAR_PENTAGON = RightPrism(((0.0, 0.0), (3.1, 0.2), (3.9, 2.7), (1.3, 4.4), (-0.6, 1.9)), 2.3)
# A regular octagon, whose triangle weights sum to 1 - 3 ulp: `choice`
# divides their running sum by its last entry, and so must the sampler, or a
# uniform draw within 3 ulp of 1 would pick a triangle past the last.
OCTAGON = RightPrism(
    tuple((math.cos(0.3 + k * math.pi / 4), math.sin(0.3 + k * math.pi / 4)) for k in range(8)), 1.0
)


@pytest.mark.parametrize(
    "prism",
    [house_prism(7.0), cube_prism(2.0), prism_from_dict(json.loads(HEXAGON_JSON)),
     IRREGULAR_PENTAGON, OCTAGON],
    ids=["house", "cube", "json-hexagon", "pentagon", "octagon"],
)
def test_sampling_with_the_fan_built_once_keeps_its_draws(prism):
    # The same points, bit for bit, and the stream left at the same place,
    # call after call on one prism, as with the fan rebuilt on every call
    # and its triangle drawn by `rng.choice(..., p=weights)`.
    for seed in (*range(40), 90210):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in (1, 2, 3, 373, 1, 373):
            np.testing.assert_array_equal(
                sample_uniform_rng(prism, count, rng), rebuilt_fan_sample(prism, count, reference)
            )
        assert rng.random() == reference.random()
    assert prism._fan is prism._fan
    assert not any(array.flags.writeable for array in prism._fan)
    assert prism._fan[3][-1] == 1.0


def test_prism_json_round_trip(tmp_path):
    house = house_prism(3.0)
    data = {"base_vertices": [list(v) for v in house.base_vertices], "height": house.height}
    again = prism_from_dict(json.loads(json.dumps(data)))
    assert again == house
    path = tmp_path / "prism.json"
    path.write_text(json.dumps(data))
    assert load_prism(path) == house
    with pytest.raises(InvalidPrismError):
        prism_from_dict({"base_vertices": [[0, 0]], "height": "x"})


def test_presets():
    assert preset_prism("house", 7.0) == house_prism(7.0)
    assert preset_prism("cube", 2.0) == cube_prism(2.0)
    with pytest.raises(DomainError):
        preset_prism("sphere", 1.0)
    with pytest.raises(DomainError):
        house_prism(-1.0)


def test_boundary_feature_validation():
    with pytest.raises(DomainError):
        BoundaryFeature(4, 1.0, 1.0)
    with pytest.raises(DomainError):
        BoundaryFeature(3, 0.0, 1.0)
    with pytest.raises(DomainError):
        BoundaryFeature(3, 1.0, 20.0)
    with pytest.raises(DomainError):
        BoundaryFeature(3, 1.0, 1.0, 1, math.pi)
