"""Property tests of each link model's H(r), its closed mass and the support radius."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prismconn.connmass import mass_scaling_leading
from prismconn.linkmodels import (
    Mimo,
    PathLossParams,
    SimoMiso,
    Siso,
    UnitDisk,
    pair_connectedness,
    pair_connectedness_many,
    support_radius,
)

FLOOR = 1e-12  # the link-probability floor the support radius is defined by

params = st.builds(
    PathLossParams,
    beta=st.floats(0.05, 5.0),
    eta=st.floats(2.0, 6.0),
    dim=st.integers(1, 3),
)
fading_models = st.one_of(
    st.builds(Siso, params),
    st.builds(SimoMiso, st.integers(1, 40), params),
    st.builds(Mimo, st.just(2), st.integers(2, 64), params),
)
models = st.one_of(
    fading_models,
    st.builds(UnitDisk, st.floats(0.1, 10.0), params),
)
distances = st.lists(st.floats(0.0, 30.0), min_size=1, max_size=20)
# beta and the disk's radius log-uniform across the doubles
log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
wide_params = st.builds(
    PathLossParams, beta=log_uniform, eta=st.floats(2.0, 6.0), dim=st.integers(1, 3)
)
wide_models = st.one_of(
    st.builds(SimoMiso, st.integers(1, 64), wide_params),
    st.builds(Mimo, st.just(2), st.integers(2, 64), wide_params),
    st.builds(UnitDisk, log_uniform, wide_params),
)

# Few, reproducible examples keep the file to seconds in the default run.
fast = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@fast
@given(models, distances)
def test_h_is_a_probability_non_increasing_in_r(model, rs):
    rs = np.sort(np.array(rs))
    h = pair_connectedness_many(model, rs)
    assert ((h >= 0.0) & (h <= 1.0)).all()
    # slack for rounding in the MIMO combination, whose terms reach n in size
    assert (np.diff(h) <= 1e-14).all()


@fast
@given(fading_models)
def test_h_at_zero_is_one(model):
    assert pair_connectedness(model, 0.0) == 1.0
    assert pair_connectedness_many(model, np.zeros(3)).tolist() == [1.0, 1.0, 1.0]


@fast
@given(models, distances)
def test_scalar_h_equals_vector_h_bitwise(model, rs):
    vec = pair_connectedness_many(model, np.array(rs))
    assert vec.tolist() == [pair_connectedness(model, r) for r in rs]


@fast
@given(models)
def test_support_radius_brackets_the_floor(model):
    radius = support_radius(model)
    assert pair_connectedness(model, radius) < FLOOR
    assert pair_connectedness(model, radius * (1.0 - 1e-6)) >= FLOOR


def _positive_double_or_overflow_error(mass) -> bool:
    try:
        value = mass()
    except OverflowError:
        return True
    return math.isfinite(value) and value > 0.0


@fast
@given(wide_models, st.integers(1, 512))
def test_closed_mass_is_a_positive_double_or_an_overflow_error(model, k):
    d = model.params.dim
    assert _positive_double_or_overflow_error(lambda: model.moment(d))
    assert _positive_double_or_overflow_error(lambda: mass_scaling_leading(k, model.params))
