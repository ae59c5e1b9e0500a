"""Unit tests for lifespan analysis (Observations 5.2-5.4, Lemma 5.1).

The tracker's incremental careers are validated against brute-force
recomputation over the same window contents.
"""

import random

import pytest
from hypothesis import given, settings

from repro.core import lifespan
from repro.core.csgs import CSGS
from repro.core.lifespan import NEVER_CORE, NeighborhoodTracker, ObjectState
from repro.data.gmti import GMTIStream
from repro.geometry.distance import euclidean_distance
from repro.index.provider import make_provider
from repro.streams.objects import StreamObject
from tests.helpers import career_state, career_streams, stream_batches


def _obj(oid, coords, first, last):
    obj = StreamObject(oid, coords)
    obj.first_window = first
    obj.last_window = last
    return obj


def test_core_until_basic_promotion():
    tracker = NeighborhoodTracker(1.0, 2, 2)
    a = tracker.insert(_obj(0, (0.0, 0.0), 0, 10))
    assert a.core_until == NEVER_CORE
    tracker.insert(_obj(1, (0.1, 0.0), 0, 5))
    assert a.core_until == NEVER_CORE  # only one neighbor
    tracker.insert(_obj(2, (0.0, 0.1), 0, 3))
    # Two neighbors alive until windows 5 and 3: theta_count=2 -> the 2nd
    # largest neighbor expiry is 3.
    assert a.core_until == 3


def test_core_until_capped_by_own_lifespan():
    tracker = NeighborhoodTracker(1.0, 1, 2)
    a = tracker.insert(_obj(0, (0.0, 0.0), 0, 2))
    tracker.insert(_obj(1, (0.1, 0.0), 0, 9))
    assert a.core_until == 2  # neighbor outlives a; capped at a's last


def test_status_prolong_by_new_neighbor():
    tracker = NeighborhoodTracker(1.0, 2, 2)
    a = tracker.insert(_obj(0, (0.0, 0.0), 0, 10))
    tracker.insert(_obj(1, (0.1, 0.0), 0, 4))
    tracker.insert(_obj(2, (0.0, 0.1), 0, 4))
    assert a.core_until == 4
    tracker.insert(_obj(3, (0.1, 0.1), 0, 8))
    # Now neighbors expire at 4, 4, 8 -> 2nd largest is 8... no: sorted
    # descending [8, 4, 4]; the 2nd largest is 4? theta_count=2 needs two
    # alive: alive-until values {8,4,4} -> two alive through window 4,
    # only one through 5..8.
    assert a.core_until == 4
    tracker.insert(_obj(4, (0.05, 0.05), 0, 7))
    # Values {8,7,4,4}: two alive through 7.
    assert a.core_until == 7


def test_neighborship_lifespan_observation_5_3():
    # Neighborship holds until min of the two lifespans: a neighbor
    # expiring earlier stops counting exactly then.
    tracker = NeighborhoodTracker(1.0, 1, 2)
    a = tracker.insert(_obj(0, (0.0, 0.0), 0, 10))
    tracker.insert(_obj(1, (0.2, 0.0), 0, 6))
    assert a.core_until == 6


def test_noncore_list_bounded_by_theta_count():
    rng = random.Random(0)
    theta_count = 5
    tracker = NeighborhoodTracker(0.5, theta_count, 2)
    for i in range(300):
        coords = (rng.uniform(0, 2), rng.uniform(0, 2))
        tracker.insert(_obj(i, coords, 0, rng.randint(0, 20)))
    for state in tracker.states.values():
        live = [
            nb
            for nb in state.noncore_neighbors
            if nb.obj.last_window >= tracker.current_window
        ]
        assert len(live) <= theta_count


def test_careers_match_bruteforce_over_windows():
    """Replay a random stream; at each window, core-ness from the tracker
    must equal brute-force neighbor counting over alive objects."""
    rng = random.Random(42)
    theta_range, theta_count = 0.5, 3
    windows_per_object = 4
    tracker = NeighborhoodTracker(theta_range, theta_count, 2)
    alive = []
    oid = 0
    for window in range(12):
        tracker.advance_to(window)
        alive = [obj for obj in alive if obj.last_window >= window]
        for _ in range(40):
            coords = (rng.uniform(0, 2.5), rng.uniform(0, 2.5))
            obj = _obj(oid, coords, window, window + windows_per_object - 1)
            oid += 1
            alive.append(obj)
            tracker.insert(obj)
        for obj in alive:
            count = sum(
                1
                for other in alive
                if other.oid != obj.oid
                and euclidean_distance(obj.coords, other.coords)
                <= theta_range
            )
            state = tracker.states[obj.oid]
            is_core_incremental = state.core_until >= window
            assert is_core_incremental == (count >= theta_count), (
                f"window {window} oid {obj.oid}: brute {count} vs "
                f"core_until {state.core_until}"
            )


def test_edge_career_matches_bruteforce():
    rng = random.Random(7)
    theta_range, theta_count = 0.5, 3
    tracker = NeighborhoodTracker(theta_range, theta_count, 2)
    alive = []
    oid = 0
    for window in range(10):
        tracker.advance_to(window)
        alive = [obj for obj in alive if obj.last_window >= window]
        for _ in range(35):
            coords = (rng.uniform(0, 2.0), rng.uniform(0, 2.0))
            obj = _obj(oid, coords, window, window + rng.randint(0, 4))
            oid += 1
            alive.append(obj)
            tracker.insert(obj)
        core_oids = set()
        for obj in alive:
            count = sum(
                1
                for other in alive
                if other.oid != obj.oid
                and euclidean_distance(obj.coords, other.coords)
                <= theta_range
            )
            if count >= theta_count:
                core_oids.add(obj.oid)
        for obj in alive:
            if obj.oid in core_oids:
                continue
            is_edge_brute = any(
                other.oid in core_oids
                and euclidean_distance(obj.coords, other.coords)
                <= theta_range
                for other in alive
                if other.oid != obj.oid
            )
            # Observation 5.4: an edge object is a non-core object still
            # attached to a live core object; C-SGS reads it this way.
            state = tracker.states[obj.oid]
            is_edge = state.core_until < window and bool(
                state.attached_cores_in(window)
            )
            assert is_edge == is_edge_brute


def test_expiration_needs_no_maintenance():
    tracker = NeighborhoodTracker(1.0, 1, 2)
    tracker.insert(_obj(0, (0.0, 0.0), 0, 1))
    tracker.insert(_obj(1, (0.1, 0.0), 0, 3))
    expired = tracker.advance_to(2)
    assert expired == 1
    assert len(tracker) == 1
    state = tracker.states[1]
    # Neighbor expired at window 1, so object 1 is not core at window 2.
    assert state.core_until < 2


def test_advance_backwards_rejected():
    tracker = NeighborhoodTracker(1.0, 1, 2)
    tracker.advance_to(5)
    with pytest.raises(ValueError):
        tracker.advance_to(4)


def test_insert_expired_object_rejected():
    tracker = NeighborhoodTracker(1.0, 1, 2)
    tracker.advance_to(5)
    with pytest.raises(ValueError):
        tracker.insert(_obj(0, (0.0, 0.0), 0, 4))


def test_one_range_query_per_insert():
    calls = {"n": 0}
    tracker = NeighborhoodTracker(1.0, 2, 2)
    original = tracker.provider.range_query

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    tracker.provider.range_query = counting
    for i in range(50):
        tracker.insert(_obj(i, (0.01 * i, 0.0), 0, 10))
    assert calls["n"] == 50


# ----------------------------------------------------------------------
# Saturated careers: decided for good, and skipped
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(stream=career_streams())
def test_saturated_careers_are_final(stream):
    """Observation 5.4 caps a core career at the object's own lifespan:
    once ``core_until == last_window`` it never changes, no neighborship
    outlives it, the object is never an edge object, and its histogram
    is released; an unsaturated object still carries one."""
    dims, theta_range, theta_count, ops = stream
    tracker = NeighborhoodTracker(theta_range, theta_count, dims)
    window = 0
    saturated = {}
    for oid, op in enumerate(ops):
        if op[0] == "advance":
            window += op[1]
            tracker.advance_to(window)
        else:
            tracker.insert(_obj(oid, op[1], window, window + op[2]))
        for state in tracker.states.values():
            if state.core_until == state.obj.last_window:
                assert saturated.setdefault(state.oid, state.core_until) == (
                    state.core_until
                )
                assert state.neighbor_hist is None
                assert state.noncore_neighbors == []
            else:
                assert state.oid not in saturated
                assert state.neighbor_hist is not None
        saturated = {
            oid: until for oid, until in saturated.items() if oid in tracker.states
        }


def test_core_until_recomputed_only_for_unsaturated_objects(monkeypatch):
    """On a Figure-7 GMTI stream nearly every neighbor is saturated: the
    career recomputation runs once per insert plus once per *unsaturated*
    neighbor — a small fraction of the once-per-pair it used to be."""
    calls = []

    class CountingState(ObjectState):
        __slots__ = ()

        def compute_core_until(self, window_index, theta_count):
            calls.append(self.oid)
            return super().compute_core_until(window_index, theta_count)

    monkeypatch.setattr(lifespan, "ObjectState", CountingState)
    provider = make_provider("grid", 2.5, 2)
    csgs = CSGS(2.5, 8, 2, provider=provider, manage_grid=False)
    points = list(GMTIStream(seed=0, noise_fraction=0.2).points(4000))
    inserts = pairs = unsaturated_pairs = 0
    for batch in stream_batches(points, 2000, 100):
        provider.purge_expired(batch.index)
        csgs.begin_window(batch.index)
        for obj in batch.new_objects:
            provider.insert(obj)
            known = provider.range_query(obj.coords, exclude_oid=obj.oid)
            inserts += 1
            pairs += len(known)
            unsaturated_pairs += sum(
                csgs.tracker.states[nb.oid].core_until != nb.last_window
                for nb in known
            )
            csgs.ingest(obj, known)
    assert len(calls) == inserts + unsaturated_pairs
    assert pairs > 100_000  # the stream is dense enough to mean something
    assert len(calls) < 0.15 * (inserts + pairs)


# ----------------------------------------------------------------------
# Refused inserts mutate nothing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ("grid", "kdtree"))
def test_unknown_injected_neighbor_refused_before_any_mutation(backend):
    """A neighbor this tracker never saw — or one it already expired —
    used to surface as a bare ``KeyError`` *after* the new object was
    registered, leaving it behind coreless."""
    provider = make_provider(backend, 1.0, 2)
    tracker = NeighborhoodTracker(1.0, 1, 2, provider=provider, manage_grid=False)
    gone = _obj(1, (0.0, 0.0), 0, 1)
    kept = _obj(2, (0.2, 0.0), 0, 9)
    tracker.insert(gone, [])
    tracker.insert(kept, [gone])
    tracker.advance_to(3)  # expires ``gone``
    before = career_state(tracker)
    buckets = {w: list(b) for w, b in tracker._expiry_buckets.items()}
    populations = {
        coord: tracker.cells.cell_population(coord)
        for coord in map(tracker.cells.cell_coord, [(0.0, 0.0), (0.2, 0.0), (0.1, 0.1)])
    }
    for stranger in (_obj(9, (0.3, 0.3), 3, 8), gone):
        with pytest.raises(ValueError, match=f"neighbor {stranger.oid} of object 5"):
            tracker.insert(_obj(5, (0.1, 0.1), 3, 6), [kept, stranger])
    assert career_state(tracker) == before
    assert {w: list(b) for w, b in tracker._expiry_buckets.items()} == buckets
    assert {
        coord: tracker.cells.cell_population(coord) for coord in populations
    } == populations
    # The same insert with a resolvable list goes through.
    state = tracker.insert(_obj(5, (0.1, 0.1), 3, 6), [kept])
    assert state.core_until == 6 and tracker.states[2].core_until == 6
