"""Property-based tests for the extension subsystems: serialization,
persistence, tracking, regeneration, and the shared executor."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import covers_point, reloaded, stream_batches
from repro.archive.pattern_base import PatternBase
from repro.clustering.cluster import partition_signature
from repro.clustering.shared import SharedCSGS
from repro.core.cells import CellStatus, SkeletalGridCell
from repro.core.csgs import CSGS, WindowOutput
from repro.core.regenerate import regenerate_cluster
from repro.core.serialize import sgs_from_bytes, sgs_from_json, sgs_to_bytes, sgs_to_json
from repro.core.sgs import SGS
from repro.tracking.tracker import ClusterTracker, TrackEvent

# ---------------------------------------------------------------------------
# Random SGS strategy
# ---------------------------------------------------------------------------

_coord = st.tuples(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


@st.composite
def random_sgs(draw):
    locations = draw(
        st.lists(_coord, min_size=1, max_size=25, unique=True)
    )
    cells = []
    location_set = set(locations)
    for loc in locations:
        is_core = draw(st.booleans())
        population = draw(st.integers(min_value=1, max_value=500))
        if is_core:
            # Connections point at other cells of the summary, within
            # a 2-step reach (as in real level-0 summaries).
            candidates = [
                other
                for other in location_set
                if other != loc
                and max(abs(a - b) for a, b in zip(other, loc)) <= 2
            ]
            chosen = draw(
                st.lists(
                    st.sampled_from(candidates), unique=True, max_size=6
                )
            ) if candidates else []
            cells.append(
                SkeletalGridCell(
                    loc, 0.25, population, CellStatus.CORE, frozenset(chosen)
                )
            )
        else:
            cells.append(
                SkeletalGridCell(loc, 0.25, population, CellStatus.EDGE)
            )
    return SGS.from_cells(
        cells,
        0.25,
        level=draw(st.integers(min_value=0, max_value=3)),
        cluster_id=draw(st.integers(min_value=-1, max_value=100)),
        window_index=draw(st.integers(min_value=-1, max_value=1000)),
    )


def _sgs_equal(a: SGS, b: SGS) -> bool:
    if set(a.cells) != set(b.cells):
        return False
    for loc, cell in a.cells.items():
        other = b.cells[loc]
        if (
            cell.population != other.population
            or cell.status is not other.status
            or cell.connections != other.connections
        ):
            return False
    return (a.level, a.cluster_id, a.window_index) == (
        b.level,
        b.cluster_id,
        b.window_index,
    )


@given(random_sgs())
@settings(max_examples=60, deadline=None)
def test_binary_roundtrip_is_identity(sgs):
    assert _sgs_equal(sgs, sgs_from_bytes(sgs_to_bytes(sgs)))


@given(random_sgs())
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_is_identity(sgs):
    assert _sgs_equal(sgs, sgs_from_json(sgs_to_json(sgs)))


@given(st.lists(random_sgs(), min_size=0, max_size=8))
@settings(max_examples=25, deadline=None)
def test_pattern_base_persistence_roundtrip(summaries):
    base = PatternBase()
    for sgs in summaries:
        base.add(sgs, sgs.population)
    loaded = reloaded(base)
    assert len(loaded) == len(base)
    for pattern in base.all_patterns():
        restored = loaded.get(pattern.pattern_id)
        assert restored is not None and _sgs_equal(pattern.sgs, restored.sgs)


@given(random_sgs())
@settings(max_examples=40, deadline=None)
def test_regenerated_points_respect_summary(sgs):
    # Lemma 4.3: every regenerated member lies inside a skeletal cell, in
    # a core cell exactly when it is a core object.
    cluster = regenerate_cluster(sgs, seed=1)
    assert cluster.size == sgs.population
    for obj in cluster.core_objects[:25] + cluster.edge_objects[:25]:
        assert covers_point(sgs, obj.coords)
        cell = tuple(int(v // sgs.side_length) for v in obj.coords)
        assert sgs.cells[cell].is_core == (obj in cluster.core_objects)


# ---------------------------------------------------------------------------
# Tracker invariants on random window sequences
# ---------------------------------------------------------------------------


@st.composite
def window_sequences(draw):
    """Sequences of windows, each holding up to 3 random summaries."""
    n_windows = draw(st.integers(min_value=1, max_value=6))
    windows = []
    for w in range(n_windows):
        count = draw(st.integers(min_value=0, max_value=3))
        summaries = [draw(random_sgs()) for _ in range(count)]
        windows.append((w, summaries))
    return windows


@given(window_sequences())
@settings(max_examples=25, deadline=None)
def test_tracker_invariants(windows):
    from repro.clustering.cluster import Cluster

    tracker = ClusterTracker(overlap_threshold=0.2)
    seen_tracks = set()
    for window_index, summaries in windows:
        output = WindowOutput(
            window_index,
            [Cluster(i, [], [], window_index) for i in range(len(summaries))],
            summaries,
        )
        records = tracker.observe(output)
        live = [r for r in records if r.sgs is not None]
        # One record per cluster.
        assert len(live) == len(summaries)
        # Track ids unique within a window.
        ids = [r.track_id for r in live]
        assert len(set(ids)) == len(ids)
        for record in live:
            assert record.window_index == window_index
            if record.event is TrackEvent.EMERGED:
                assert record.track_id not in seen_tracks
            seen_tracks.add(record.track_id)
        # Disappearances reference previously seen tracks only.
        for record in records:
            if record.event is TrackEvent.DISAPPEARED:
                assert record.track_id in seen_tracks
    # History holds every seen track.
    assert set(tracker.history) == seen_tracks


# ---------------------------------------------------------------------------
# Shared executor equivalence on random streams
# ---------------------------------------------------------------------------

_stream_points = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=3, allow_nan=False),
        st.floats(min_value=0, max_value=3, allow_nan=False),
    ),
    min_size=30,
    max_size=120,
)


@given(_stream_points)
@settings(max_examples=15, deadline=None)
def test_shared_executor_equals_independent(points):
    theta_counts = (2, 4)
    shared = SharedCSGS(0.5, theta_counts, 2)
    independents = {c: CSGS(0.5, c, 2) for c in theta_counts}
    for batch in stream_batches(points, 40, 20):
        outputs = shared.process_batch(batch)
        for count, csgs in independents.items():
            expected = csgs.process_batch(batch)
            assert partition_signature(
                outputs[count].clusters
            ) == partition_signature(expected.clusters)
