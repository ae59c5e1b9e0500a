"""Unit and window-replay tests for the C-SGS algorithm.

The decisive correctness property — full representations identical to a
per-window DBSCAN (and to Extra-N) — is asserted over several replayed
streams with different parameters, plus structural checks on the emitted
SGS summaries (statuses, connections, populations, Lemma 4.1/4.2).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    RTREE,
    ReferenceCSGS,
    career_state,
    career_streams,
    cell_constructions,
    classify_objects,
    clustered_points,
    covers_point,
    lifespan_maps,
    on_backend,
    record_extensions,
    reference_emit,
    reference_features,
    reference_mbr,
    reference_sgs_to_bytes,
    stamped,
    stream_batches,
    window_output_dict,
)
from repro.clustering.cluster import partition_signature
from repro.clustering.dbscan import dbscan
from repro.clustering.extra_n import ExtraN
from repro.core.cells import CellStatus
from repro.core.csgs import CSGS
from repro.core.features import ClusterFeatures
from repro.core.serialize import sgs_to_bytes
from repro.index.provider import make_provider
from repro.streams.objects import StreamObject


def _replay_and_compare(points, theta_range, theta_count, win, slide):
    """Run C-SGS, Extra-N and per-window DBSCAN over the same stream and
    assert identical cluster partitions at every window."""
    csgs = CSGS(theta_range, theta_count, 2)
    extra_n = ExtraN(theta_range, theta_count, 2)
    buffer = []
    last_output = None
    for batch in stream_batches(points, win, slide):
        output = csgs.process_batch(batch)
        # Stream objects are immutable to the algorithms, so the same
        # batch can be fed to all three safely.
        extra_clusters = extra_n.process_batch(batch)
        buffer = [o for o in buffer if o.last_window >= batch.index]
        for obj in batch.new_objects:
            buffer.append(obj)
        oracle = dbscan(buffer, theta_range, theta_count, batch.index)
        sig_csgs = partition_signature(output.clusters)
        sig_extra = partition_signature(extra_clusters)
        sig_oracle = partition_signature(oracle)
        assert sig_csgs == sig_oracle, f"C-SGS differs at window {batch.index}"
        assert sig_extra == sig_oracle, (
            f"Extra-N differs at window {batch.index}"
        )
        last_output = output
    return last_output


def test_equivalence_on_blobs_with_noise():
    points = clustered_points(
        [(2.0, 2.0), (6.0, 3.0)], per_cluster=300, noise=200, seed=1
    )
    _replay_and_compare(points, 0.35, 5, 400, 100)


def test_equivalence_small_slide():
    points = clustered_points(
        [(2.0, 2.0), (5.0, 5.0)], per_cluster=200, noise=100, seed=2
    )
    _replay_and_compare(points, 0.3, 4, 250, 50)


def test_equivalence_slide_equals_window():
    # Tumbling windows: every object lives exactly one window.
    points = clustered_points([(3.0, 3.0)], per_cluster=200, noise=100, seed=3)
    _replay_and_compare(points, 0.4, 5, 150, 150)


def test_equivalence_uniform_noise_only():
    rng = random.Random(4)
    points = [(rng.uniform(0, 8), rng.uniform(0, 8)) for _ in range(900)]
    _replay_and_compare(points, 0.3, 6, 300, 100)


def test_equivalence_dense_single_cluster():
    points = clustered_points([(1.0, 1.0)], per_cluster=600, seed=5, std=0.5)
    _replay_and_compare(points, 0.25, 8, 300, 75)


def test_sgs_cell_statuses_match_object_careers():
    points = clustered_points(
        [(2.0, 2.0), (5.0, 4.0)], per_cluster=250, noise=150, seed=6
    )
    theta_range, theta_count = 0.35, 5
    csgs = CSGS(theta_range, theta_count, 2)
    buffer = []
    for batch in stream_batches(points, 300, 100):
        output = csgs.process_batch(batch)
        buffer = [o for o in buffer if o.last_window >= batch.index]
        buffer.extend(batch.new_objects)
        labels = classify_objects(buffer, theta_range, theta_count)
        grid = csgs.tracker.provider
        for sgs in output.summaries:
            for cell in sgs.cells.values():
                objs = grid.objects_in_cell(cell.location)
                statuses = {labels[o.oid] for o in objs}
                if cell.status is CellStatus.CORE:
                    assert "core" in statuses, (
                        f"core cell {cell.location} has no core object"
                    )
                else:
                    # Lemma: edge cells contain no core objects.
                    assert "core" not in statuses


def test_lemma_4_2_edge_cell_population_below_theta_count():
    points = clustered_points(
        [(2.0, 2.0)], per_cluster=300, noise=200, seed=7
    )
    theta_count = 6
    csgs = CSGS(0.35, theta_count, 2)
    for batch in stream_batches(points, 250, 50):
        output = csgs.process_batch(batch)
        for sgs in output.summaries:
            grid = csgs.tracker.provider
            for location, (is_core, _, _) in sgs.rows.items():
                if is_core:
                    continue
                # All objects physically in the cell (not just members).
                assert len(grid.objects_in_cell(location)) < theta_count


def test_sgs_population_counts_cluster_members():
    points = clustered_points([(2.0, 2.0)], per_cluster=200, noise=80, seed=8)
    csgs = CSGS(0.35, 5, 2)
    for batch in stream_batches(points, 200, 100):
        output = csgs.process_batch(batch)
        for cluster, sgs in zip(output.clusters, output.summaries):
            assert sgs.population == len(
                {o.oid for o in cluster.members}
            ) or sgs.population == cluster.size
            # Every member must fall into a cell of the summary.
            for obj in cluster.members:
                assert covers_point(sgs, obj.coords)


def test_summaries_are_connected():
    points = clustered_points(
        [(2.0, 2.0), (6.0, 6.0)], per_cluster=250, noise=150, seed=9
    )
    csgs = CSGS(0.35, 5, 2)
    for batch in stream_batches(points, 300, 100):
        output = csgs.process_batch(batch)
        for sgs in output.summaries:
            assert sgs.is_connected(), (
                f"window {batch.index}: disconnected SGS"
            )


def test_cluster_and_summary_aligned():
    points = clustered_points([(2.0, 2.0)], per_cluster=150, seed=10)
    csgs = CSGS(0.4, 4, 2)
    for batch in stream_batches(points, 150, 50):
        output = csgs.process_batch(batch)
        assert len(output.clusters) == len(output.summaries)
        for cluster, sgs in zip(output.clusters, output.summaries):
            assert cluster.cluster_id == sgs.cluster_id
            assert cluster.window_index == sgs.window_index == batch.index


def test_state_sizes_reporting():
    points = clustered_points([(1.0, 1.0)], per_cluster=100, seed=11)
    csgs = CSGS(0.4, 4, 2)
    for batch in stream_batches(points, 100, 50):
        csgs.process_batch(batch)
    sizes = csgs.state_sizes()
    assert sizes["objects"] > 0
    assert sizes["cells"] >= 0
    assert set(sizes) == {
        "objects",
        "hist_entries",
        "noncore_entries",
        "cells",
        "core_connections",
        "edge_attachments",
    }


def test_rejects_stale_batch():
    csgs = CSGS(0.4, 4, 2)
    from repro.streams.windows import WindowBatch

    csgs.process_batch(WindowBatch(index=5))
    with pytest.raises(ValueError):
        csgs.process_batch(WindowBatch(index=4))


def test_empty_windows_produce_no_clusters():
    from repro.streams.windows import WindowBatch

    csgs = CSGS(0.4, 4, 2)
    output = csgs.process_batch(WindowBatch(index=0))
    assert output.clusters == [] and output.summaries == []


def test_objects_expire_fully():
    from repro.streams.windows import WindowBatch

    csgs = CSGS(0.4, 2, 2)
    batch = WindowBatch(index=0)
    for i in range(10):
        obj = StreamObject(i, (0.1 * i, 0.0))
        obj.first_window = 0
        obj.last_window = 1
        batch.new_objects.append(obj)
    assert len(csgs.process_batch(batch).clusters) == 1
    # After the objects' last window passes, everything is gone.
    output = csgs.process_batch(WindowBatch(index=2))
    assert output.clusters == []
    assert len(csgs.tracker) == 0
    assert csgs.state_sizes()["cells"] == 0


# ----------------------------------------------------------------------
# Fast insertion ≡ reference, after every insertion
# ----------------------------------------------------------------------


def _grouped(ops):
    """Consecutive inserts merged into one ``("batch", [insert…])``."""
    grouped = []
    for op in ops:
        if op[0] == "advance":
            grouped.append(op)
        elif grouped and grouped[-1][0] == "batch":
            grouped[-1][1].append(op)
        else:
            grouped.append(("batch", [op]))
    return grouped


@settings(max_examples=80, deadline=None)
@given(
    stream=career_streams(),
    mode=st.sampled_from(["owner", "owner-batch", "injected"]),
)
def test_fast_insertion_equals_reference_after_every_insertion(stream, mode):
    """The saturation short-circuit and the per-cell fold are identities:
    careers, non-core lists, extension events with their snapshots and
    the three lifespan maps equal the unconditional per-pair reference
    after each insertion, and every window's output is equal — with the
    tracker owning its provider (one by one and batched) and with a
    coordinator injecting the neighbor lists."""
    dims, theta_range, theta_count, ops = stream
    provider = None
    kwargs = {}
    if mode == "injected":
        provider = make_provider("grid", theta_range, dims)
        kwargs = dict(provider=provider, manage_grid=False)
    fast = CSGS(theta_range, theta_count, dims, **kwargs)
    reference = ReferenceCSGS(theta_range, theta_count, dims, **kwargs)
    fast_events = record_extensions(fast.tracker)
    reference_events = record_extensions(reference.tracker)
    window = 0
    oid = 0
    for op in _grouped(ops):
        if op[0] == "advance":
            assert window_output_dict(fast.emit(window)) == window_output_dict(
                reference.emit(window)
            )
            window += op[1]
            if provider is not None:
                provider.purge_expired(window)
            fast.begin_window(window)
            reference.begin_window(window)
            continue
        batch = []
        for _, coords, lifespan in op[1]:
            batch.append(stamped(oid, coords, window, window + lifespan))
            oid += 1
        if mode == "owner-batch":
            fast.tracker.insert_batch(batch)
            reference.tracker.insert_batch(batch)
            batch = []
        for obj in batch:
            known = None
            if provider is not None:
                provider.insert(obj)
                known = provider.range_query(obj.coords, exclude_oid=obj.oid)
            fast.ingest(obj, known)
            reference.ingest(obj, known)
            assert career_state(fast.tracker) == career_state(reference.tracker)
            assert lifespan_maps(fast) == lifespan_maps(reference)
        assert career_state(fast.tracker) == career_state(reference.tracker)
        assert fast_events == reference_events
        assert lifespan_maps(fast) == lifespan_maps(reference)


# ----------------------------------------------------------------------
# Rows appended by emit ≡ the cell objects it used to build
# ----------------------------------------------------------------------


def _assert_output_equals_oracle(csgs, window):
    with cell_constructions() as built:
        output = csgs.emit(window)
        assert built == [0]
    oracle = reference_emit(csgs, window)
    assert window_output_dict(output) == window_output_dict(oracle)
    for sgs, expected in zip(output.summaries, oracle.summaries):
        assert list(sgs.rows.items()) == list(expected.rows.items())
        assert sgs_to_bytes(sgs) == reference_sgs_to_bytes(expected)
        assert sgs.mbr() == reference_mbr(expected)
        assert ClusterFeatures.from_sgs(sgs) == reference_features(expected)
    return output


@settings(max_examples=60, deadline=None)
@given(
    stream=career_streams(),
    backend=st.sampled_from(["grid", "kdtree"]),
)
def test_emitted_rows_equal_the_cell_built_oracle_after_every_slide(
    stream, backend
):
    """Emit builds no cell object, and what it appends — rows, their
    order, the blob, the interchange dict, the MBR and the feature
    tuple — is what the cell-building output stage and the cell walks
    gave, on every neighbor-search backend."""
    dims, theta_range, theta_count, ops = stream
    csgs = CSGS(theta_range, theta_count, dims, backend=backend)
    window = 0
    oid = 0
    for op in _grouped(ops):
        if op[0] == "batch":
            batch = []
            for _, coords, lifespan in op[1]:
                batch.append(stamped(oid, coords, window, window + lifespan))
                oid += 1
            csgs.tracker.insert_batch(batch)
            continue
        _assert_output_equals_oracle(csgs, window)
        window += op[1]
        csgs.begin_window(window)


@pytest.mark.parametrize("backend", ["grid", "kdtree", RTREE])
@pytest.mark.parametrize("dims", [2, 4])
def test_emitted_rows_equal_the_oracle_on_clustered_streams(dims, backend):
    """The same identity where attachments are dense: clusters in noise
    whose fringe cells are attached to several core cells at once."""
    if dims == 2:
        points = clustered_points(
            [(2.0, 2.0), (3.2, 2.6), (5.0, 4.0)], per_cluster=220, noise=400, seed=9
        )
        csgs = CSGS(0.35, 12, 2, **on_backend(backend, 0.35, 2))
    else:
        rng = random.Random(3)
        points = [tuple(rng.gauss(0.5, 0.12) for _ in range(4)) for _ in range(900)]
        csgs = CSGS(0.15, 6, 4, **on_backend(backend, 0.15, 4))
    edge_rows = 0
    for batch in stream_batches(points, 300, 60):
        csgs.begin_window(batch.index)
        csgs.tracker.insert_batch(batch.new_objects)
        output = _assert_output_equals_oracle(csgs, batch.index)
        for sgs in output.summaries:
            edge_rows += sum(not is_core for is_core, _, _ in sgs.rows.values())
    assert edge_rows > 150  # the stream does exercise the attachment merge


# ----------------------------------------------------------------------
# Refused inserts leave C-SGS as it was
# ----------------------------------------------------------------------


def _csgs_state(csgs):
    tracker = csgs.tracker
    return (
        career_state(tracker),
        {
            window: [state.oid for state in bucket]
            for window, bucket in tracker._expiry_buckets.items()
        },
        lifespan_maps(csgs),
    )


def test_resent_oid_refused_on_a_coordinator_fed_csgs():
    """With neighbors injected there is no provider to refuse a re-sent
    oid: it used to overwrite the live state, strand the first copy in
    its expiry bucket and crash ``advance_to`` two windows later."""
    provider = make_provider("grid", 1.0, 2)
    csgs = CSGS(1.0, 1, 2, provider=provider, manage_grid=False)
    far = stamped(0, (5.0, 5.0), 0, 3)
    first = stamped(1, (0.0, 0.0), 0, 2)
    for obj in (far, first):
        provider.insert(obj)
        csgs.ingest(obj, provider.range_query(obj.coords, exclude_oid=obj.oid))
    before = _csgs_state(csgs)
    with pytest.raises(ValueError, match="object 1 is already alive"):
        csgs.ingest(stamped(1, (0.1, 0.0), 0, 3), [first])
    assert _csgs_state(csgs) == before
    # The stream continues: both buckets purge cleanly.
    provider.purge_expired(4)
    csgs.begin_window(4)
    assert len(csgs.tracker) == 0
    assert csgs.emit(4).clusters == []


def test_resent_oid_refused_on_the_owner_path():
    csgs = CSGS(1.0, 1, 2)
    csgs.ingest(stamped(0, (0.3, 0.0), 0, 3))
    csgs.ingest(stamped(1, (0.0, 0.0), 0, 2))
    before = _csgs_state(csgs)
    population = len(csgs.tracker.provider)
    with pytest.raises(ValueError, match="object 1 is already alive"):
        csgs.ingest(stamped(1, (0.1, 0.0), 0, 3))
    with pytest.raises(ValueError, match="object 0 is already alive"):
        csgs.tracker.insert_batch(
            [stamped(7, (0.2, 0.2), 0, 3), stamped(0, (0.1, 0.1), 0, 3)]
        )
    assert _csgs_state(csgs) == before
    assert len(csgs.tracker.provider) == population  # nothing half-inserted
    csgs.begin_window(4)
    assert len(csgs.tracker) == 0
