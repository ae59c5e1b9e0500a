"""Property-based parity suite for the CoordStore refinement kernels.

The canonical neighbor predicate is pinned in
:mod:`repro.geometry.coordstore`: dimension-ascending sequential
accumulation of squared differences in IEEE doubles, boundary-inclusive
``<= θr²``. Three implementations must agree *exactly*:

* the scalar early-exit predicate (:func:`within_sq_range`),
* the scalar full sum (:func:`canonical_sq_dist`),
* the vectorized column kernels of a NumPy-backed store.

The parity tests hold one store per kernel arm side by side, forced
through the ``kernel_arm`` fixture (``tests/conftest.py``): the scalar
store is built with NumPy hidden (and stays scalar), everything else
runs with the small-batch scalar dispatch disabled so hypothesis-sized
inputs reach the array kernels.

These tests assert the agreement — including exact-boundary points,
duplicate coordinates, tombstoned (removed) oids, and 1-D through 5-D
inputs — rather than assuming the float-accumulation argument holds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.coordstore import (
    HAVE_NUMPY,
    CoordStore,
    canonical_sq_dist,
    within_sq_range,
)
from repro.streams.objects import StreamObject
from tests.helpers import KERNEL_ARMS

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="vector kernels require NumPy"
)


@pytest.fixture(autouse=True)
def _always_vectorize(kernel_arm):
    """Drop the small-batch scalar fallback so the vector kernels are
    genuinely exercised at hypothesis-sized inputs."""
    with kernel_arm("vector"):
        yield


def store_on(kernel_arm, arm, dims):
    """A store whose kernel arm is fixed for its lifetime."""
    with kernel_arm(arm):
        return CoordStore(dims)


coordinate = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def store_cases(draw, min_points=1, max_points=40):
    """(dimensions, point list) with deliberate duplicate coordinates."""
    dims = draw(st.integers(min_value=1, max_value=5))
    pool = draw(
        st.lists(
            st.tuples(*[coordinate] * dims), min_size=1, max_size=12
        )
    )
    # Sample points from a small pool so duplicates are common.
    points = draw(
        st.lists(
            st.sampled_from(pool),
            min_size=min_points,
            max_size=max_points,
        )
    )
    probe = draw(
        st.one_of(st.sampled_from(pool), st.tuples(*[coordinate] * dims))
    )
    return dims, points, tuple(probe)


def build_stores(kernel_arm, dims, points):
    objects = [
        StreamObject(i, tuple(point)) for i, point in enumerate(points)
    ]
    scalar = store_on(kernel_arm, "scalar", dims)
    vector = store_on(kernel_arm, "vector", dims)
    assert vector._vector and not scalar._vector  # the arms are real
    for obj in objects:
        scalar.add(obj)
        vector.add(obj)
    return objects, scalar, vector


# ----------------------------------------------------------------------
# Canonical-order agreement (the float-accumulation satellite)
# ----------------------------------------------------------------------


@given(store_cases(), st.floats(min_value=0, max_value=1e13))
@settings(max_examples=200)
def test_early_exit_matches_canonical_full_sum(case, sq_range):
    """within_sq_range may stop mid-accumulation; its decision must
    equal the full canonical sum's (monotone partial sums)."""
    dims, points, probe = case
    for point in points:
        assert within_sq_range(probe, point, sq_range) == (
            canonical_sq_dist(probe, point) <= sq_range
        )


@given(store_cases())
@settings(max_examples=200)
def test_early_exit_matches_canonical_at_exact_boundary(case):
    dims, points, probe = case
    for point in points:
        boundary = canonical_sq_dist(probe, point)
        assert within_sq_range(probe, point, boundary) is True
        assert within_sq_range(point, probe, boundary) is True


@given(store_cases())
@settings(max_examples=200)
def test_vector_sums_bit_equal_scalar_sums(kernel_arm, case):
    """The vectorized kernel's totals are bit-identical to the scalar
    canonical sums (same IEEE operation sequence per element)."""
    dims, points, probe = case
    objects, scalar, vector = build_stores(kernel_arm, dims, points)
    want = [canonical_sq_dist(obj.coords, probe) for obj in objects]
    assert scalar.sq_dists_to(probe) == want
    assert vector.sq_dists_to(probe) == want  # bitwise: == on floats


# ----------------------------------------------------------------------
# Store-level scalar/vector parity
# ----------------------------------------------------------------------


@given(
    store_cases(),
    st.floats(min_value=0, max_value=1e13),
    st.data(),
)
@settings(max_examples=150)
def test_within_radius_parity_with_tombstones(
    kernel_arm, case, sq_range, data
):
    dims, points, probe = case
    objects, scalar, vector = build_stores(kernel_arm, dims, points)
    removed = data.draw(
        st.lists(
            st.sampled_from(objects), unique_by=id, max_size=len(objects)
        )
    )
    for obj in removed:
        scalar.remove(obj.oid)
        vector.remove(obj.oid)
    # Exercise the exact boundary half the time.
    survivors = [obj for obj in objects if obj not in removed]
    if survivors and data.draw(st.booleans()):
        anchor = data.draw(st.sampled_from(survivors))
        sq_range = canonical_sq_dist(probe, anchor.coords)
    got_scalar = scalar.within_radius(probe, sq_range)
    got_vector = vector.within_radius(probe, sq_range)
    assert [o.oid for o in got_scalar] == [o.oid for o in got_vector]
    for obj in removed:
        assert obj not in got_vector
    # Ground truth from the canonical predicate.
    want = [
        obj.oid
        for obj in survivors
        if within_sq_range(probe, obj.coords, sq_range)
    ]
    assert [o.oid for o in got_vector] == want


@given(
    store_cases(),
    st.floats(min_value=0, max_value=1e13),
    st.integers(min_value=-1, max_value=45),
)
@settings(max_examples=150)
def test_refine_parity(kernel_arm, case, sq_range, exclude_oid):
    dims, points, probe = case
    objects, scalar, vector = build_stores(kernel_arm, dims, points)
    got_scalar = scalar.refine(objects, probe, sq_range, exclude_oid)
    got_vector = vector.refine(objects, probe, sq_range, exclude_oid)
    assert [o.oid for o in got_scalar] == [o.oid for o in got_vector]
    assert all(o.oid != exclude_oid for o in got_vector)


@given(store_cases(), st.data())
@settings(max_examples=100)
def test_refine_many_parity(kernel_arm, case, data):
    dims, points, _ = case
    objects, scalar, vector = build_stores(kernel_arm, dims, points)
    probes = data.draw(
        st.lists(
            st.tuples(*[coordinate] * dims), min_size=0, max_size=6
        )
    )
    probes = [tuple(p) for p in probes]
    sq_range = data.draw(st.floats(min_value=0, max_value=1e13))
    excludes = data.draw(
        st.lists(
            st.integers(min_value=-1, max_value=45),
            min_size=len(probes),
            max_size=len(probes),
        )
    )
    sb = scalar.batch(objects)
    vb = vector.batch(objects)
    got_scalar = scalar.refine_many(sb, probes, sq_range, excludes)
    got_vector = vector.refine_many(vb, probes, sq_range, excludes)
    assert [[o.oid for o in row] for row in got_scalar] == [
        [o.oid for o in row] for row in got_vector
    ]
    # Each row must equal the single-probe kernel's answer.
    for probe, exclude, row in zip(probes, excludes, got_vector):
        single = vector.refine(objects, probe, sq_range, exclude)
        assert [o.oid for o in row] == [o.oid for o in single]


@given(store_cases())
@settings(max_examples=100)
def test_nearest_first_parity_and_tie_order(kernel_arm, case):
    """Both arms sort by canonical distance and keep the given order
    among equidistant (here: duplicate) candidates."""
    dims, points, probe = case
    objects, scalar, vector = build_stores(kernel_arm, dims, points)
    dists = [canonical_sq_dist(obj.coords, probe) for obj in objects]
    order = sorted(range(len(objects)), key=lambda i: (dists[i], i))
    want = ([objects[i].oid for i in order], [dists[i] for i in order])
    for store in (scalar, vector):
        got_objs, got_dists = store.nearest_first(probe, objects)
        assert ([obj.oid for obj in got_objs], got_dists) == want


# ----------------------------------------------------------------------
# Tombstone bookkeeping
# ----------------------------------------------------------------------


@pytest.mark.parametrize("arm", KERNEL_ARMS)
def test_removed_oid_raises_everywhere(arm, kernel_arm):
    store = store_on(kernel_arm, arm, 2)
    objs = [StreamObject(i, (float(i), 0.0)) for i in range(3)]
    for obj in objs:
        store.add(obj)
    store.remove(1)
    assert 1 not in store
    assert len(store) == 2
    with pytest.raises(KeyError):
        store.remove(1)
    with pytest.raises(KeyError):
        store.sq_dists_to((0.0, 0.0), oids=[1])
    # Re-adding a removed oid is legal and queryable again.
    store.add(objs[1])
    assert [o.oid for o in store.within_radius((1.0, 0.0), 0.0)] == [1]


@pytest.mark.parametrize("arm", KERNEL_ARMS)
def test_refine_rejects_mismatched_probe(arm, kernel_arm):
    store = store_on(kernel_arm, arm, 3)
    objs = [StreamObject(i, (float(i), 0.0, 0.0)) for i in range(4)]
    for obj in objs:
        store.add(obj)
    with pytest.raises(ValueError, match="dimensions"):
        store.refine(objs, (0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="dimensions"):
        store.refine_many(store.batch(objs), [(0.0, 0.0)], 1.0)
    with pytest.raises(ValueError, match="dimensions"):
        store.within_radius((0.0, 0.0, 0.0, 0.0), 1.0)


@pytest.mark.parametrize("arm", KERNEL_ARMS)
def test_compaction_preserves_row_order_and_answers(arm, kernel_arm):
    store = store_on(kernel_arm, arm, 2)
    objs = [StreamObject(i, (float(i), 0.0)) for i in range(200)]
    for obj in objs:
        store.add(obj)
    for obj in objs[::2]:  # heavy churn forces compaction
        store.remove(obj.oid)
    assert len(store) == 100
    survivors = [o.oid for o in store.within_radius((0.0, 0.0), 1e12)]
    assert survivors == [o.oid for o in objs[1::2]]
    got = store.within_radius((0.0, 0.0), 400.0)
    assert [o.oid for o in got] == [i for i in range(1, 21, 2)]
