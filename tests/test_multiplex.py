"""Query multiplexing: equivalence, snapping, registry lifecycle.

The standing correctness bar of the subsystem: k concurrently
multiplexed queries — differing θr, θc, and window sizes, registered
and unregistered mid-stream — produce output byte-identical to k
independent per-query C-SGS runs, across index backends, while the
shared substrate answers **one** batched range-query pass per stream
batch.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import clustered_points
from repro.clustering.cluster import core_signature, partition_signature
from repro.clustering.shared import SharedCSGS
from repro.config import ContinuousClusteringQuery
from repro.index.grid_index import GridIndex
from repro.multiplex import (
    ACTIVE,
    PENDING,
    STOPPED,
    MultiResolutionProvider,
    QueryRegistry,
    RungView,
    SlideScheduler,
)
from repro.streams.objects import StreamObject
from repro.streams.windows import CountBasedWindowSpec, WindowBatch

BACKENDS = ["grid", "kdtree"]


# ----------------------------------------------------------------------
# Canonical window signatures: the repo's "byte-identical" sense —
# partitions, core memberships, and full SGS cell content, all as
# order-free canonical forms.
# ----------------------------------------------------------------------


def window_signature(output):
    summaries = frozenset(
        frozenset(
            (cell.location, cell.population, cell.status, cell.connections)
            for cell in sgs.cells.values()
        )
        for sgs in output.summaries
    )
    return (
        output.window_index,
        partition_signature(output.clusters),
        core_signature(output.clusters),
        summaries,
    )


def run_signatures(outputs):
    return {index: window_signature(out) for index, out in outputs.items()}


# ----------------------------------------------------------------------
# Workload: one shared arrival order, sliced into slide buckets
# ----------------------------------------------------------------------

SLIDE = 40
N_SLIDES = 7
POINTS = clustered_points(
    centers=[(0.0, 0.0), (6.0, 6.0), (12.0, 2.0)],
    per_cluster=80,
    std=0.8,
    noise=40,
    bounds=18.0,
    seed=7,
)[: SLIDE * N_SLIDES]


def slide_objects(index):
    """Fresh stream objects of slide bucket ``index`` (stable oids and
    timestamps, so every run observes the identical stream)."""
    start = index * SLIDE
    return [
        StreamObject(start + i, coords)
        for i, coords in enumerate(POINTS[start : start + SLIDE])
    ]


def independent_run(query, start=0, stop=N_SLIDES, backend=None):
    """The reference: this query alone in its own pipeline, fed the
    stream from its activation slide on."""
    lifespan = query.window.windows_per_object
    shared = SharedCSGS(
        query.theta_range,
        [query.theta_count],
        query.dimensions,
        backend=backend or query.index_backend,
    )
    outputs = {}
    for index in range(start, stop):
        objects = slide_objects(index)
        for obj in objects:
            obj.first_window = index
            obj.last_window = index + lifespan - 1
        outputs[index] = shared.process_batch(WindowBatch(index, objects))[
            query.theta_count
        ]
    return outputs


def make_query(theta_range, theta_count, win, backend="grid"):
    return ContinuousClusteringQuery.count_based(
        theta_range,
        theta_count,
        2,
        win=win,
        slide=SLIDE,
        index_backend=backend,
    )


def capture_sink(captured):
    def sink(handle, output):
        captured.setdefault(handle.id, {})[output.window_index] = output

    return sink


# ----------------------------------------------------------------------
# The headline equivalence: mixed θr/θc/win, staggered register and
# unregister mid-stream, across backends
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_multiplexed_equals_independent_runs(backend):
    captured = {}
    sink = capture_sink(captured)
    scheduler = SlideScheduler(dimensions=2)

    # Anchor θr = 2.5; 5.0 snaps one rung up, 0.9 cannot snap and runs
    # on a dedicated fallback pipeline. q1/q1_twin share one cohort
    # member (identical query registered twice).
    q1 = scheduler.register(make_query(2.5, 4, win=120, backend=backend), sink)
    q1_twin = scheduler.register(
        make_query(2.5, 4, win=120, backend=backend), sink
    )
    q2 = scheduler.register(make_query(5.0, 3, win=120, backend=backend), sink)
    q3 = scheduler.register(make_query(0.9, 4, win=80, backend=backend), sink)

    feed = scheduler.feed

    # Slides 0..1 arrive; batch 0 closes when bucket 1 opens.
    feed(slide_objects(0))
    feed(slide_objects(1))
    # Mid-stream registration: activates with the next processed batch
    # (batch 1), and must not see slide-0 objects.
    q4 = scheduler.register(make_query(1.25, 5, win=160, backend=backend), sink)
    assert q4.state == PENDING
    feed(slide_objects(2))
    feed(slide_objects(3))
    assert q4.state == ACTIVE
    # Unregister before batch 3 is processed: q2's last output is
    # window 2.
    scheduler.unregister(q2.id)
    # Same parameters as q1, but activating later: a new cohort (its
    # admission horizon differs), still byte-equal to a fresh
    # independent run from slide 3.
    q5 = scheduler.register(make_query(2.5, 4, win=120, backend=backend), sink)
    for index in range(4, N_SLIDES):
        feed(slide_objects(index))
    scheduler.flush()

    assert q2.state == STOPPED
    assert q2.stop_window == 3
    assert q1.rung_level == 0 and not q1.dedicated
    assert q2.rung_level == 1
    assert q3.dedicated and q3.rung_level is None
    assert q4.rung_level == -1

    expectations = [
        (q1, independent_run(q1.query, backend=backend)),
        (q1_twin, independent_run(q1_twin.query, backend=backend)),
        (q2, independent_run(q2.query, stop=3, backend=backend)),
        (q3, independent_run(q3.query, backend=backend)),
        (q4, independent_run(q4.query, start=1, backend=backend)),
        (q5, independent_run(q5.query, start=3, backend=backend)),
    ]
    for handle, reference in expectations:
        assert run_signatures(captured[handle.id]) == run_signatures(
            reference
        ), f"query {handle.id} diverged from its independent run"

    # The twin queries share one member pipeline: same output objects.
    assert captured[q1.id] == captured[q1_twin.id]

    # The sharing contract: one range_query_many pass per batch over
    # the whole run, one range query per inserted object.
    stats = scheduler.provider.stats
    assert stats["range_query_batches"] == N_SLIDES
    assert stats["range_queries"] == SLIDE * N_SLIDES


def test_one_shared_pass_even_for_many_rungs():
    scheduler = SlideScheduler(dimensions=2)
    for theta, count in [(2.5, 3), (5.0, 4), (1.25, 5), (10.0, 6)]:
        scheduler.register(make_query(theta, count, win=120))
    for index in range(3):
        scheduler.feed(slide_objects(index))
    scheduler.flush()
    stats = scheduler.provider.stats
    assert stats["range_query_batches"] == 3
    assert stats["range_queries"] == SLIDE * 3
    assert sorted(scheduler.provider.active_rungs()) == [-1, 0, 1, 2]
    assert scheduler.provider.top_level == 2


# ----------------------------------------------------------------------
# θr rung snapping: exactness and the neighbor-set invariance property
# ----------------------------------------------------------------------


def test_snap_level_is_exact_match_only():
    provider = MultiResolutionProvider(0.2, 2)
    assert provider.snap_level(0.2) == 0
    assert provider.snap_level(0.4) == 1
    assert provider.snap_level(0.8) == 2
    assert provider.snap_level(0.1) == -1
    assert provider.snap_level(0.05) == -2
    assert provider.snap_level(0.3) is None
    assert provider.snap_level(0.4000001) is None
    with pytest.raises(ValueError):
        provider.snap_level(-1.0)
    assert provider.theta_at(3) == 1.6


def test_provider_requires_valid_ladder():
    with pytest.raises(ValueError):
        MultiResolutionProvider(0.0, 2)
    with pytest.raises(ValueError):
        MultiResolutionProvider(1.0, 0)
    with pytest.raises(ValueError):
        MultiResolutionProvider(1.0, 2, factor=1.5)


_coords = st.floats(min_value=-16, max_value=16, allow_nan=False)
_points = st.lists(st.tuples(_coords, _coords), min_size=1, max_size=40)


@given(
    points=_points,
    anchor=st.sampled_from([0.2, 0.7, 1.25, 3.0]),
    level=st.integers(min_value=-2, max_value=2),
    top=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_rung_snapping_never_changes_neighbor_sets(
    points, anchor, level, top
):
    """The parity property behind exact snapping: a rung's view of the
    shared top-rung gather returns exactly the neighbor set a dedicated
    index built at that rung's θr would."""
    top = max(level, top)
    provider = MultiResolutionProvider(anchor, 2)
    provider.acquire(top)
    view = provider.acquire(level)
    objects = [StreamObject(i, coords) for i, coords in enumerate(points)]
    provider.batch_neighborhoods(objects)

    theta = provider.theta_at(level)
    dedicated = GridIndex(theta, 2)
    dedicated.bulk_load(
        [StreamObject(i, coords) for i, coords in enumerate(points)]
    )
    for obj in objects:
        shared = {
            nb.oid
            for nb in view.range_query(obj.coords, exclude_oid=obj.oid)
        }
        reference = {
            nb.oid
            for nb in dedicated.range_query(obj.coords, exclude_oid=obj.oid)
        }
        assert shared == reference


def test_rung_views_are_reference_counted():
    provider = MultiResolutionProvider(1.0, 2)
    provider.acquire(0)
    provider.acquire(1)
    provider.acquire(1)
    assert provider.active_rungs() == {0: 1, 1: 2}
    assert provider.top_level == 1
    provider.release(1)
    assert provider.top_level == 1
    provider.release(1)
    assert provider.top_level == 0
    with pytest.raises(KeyError):
        provider.release(1)
    provider.release(0)
    assert provider.top_level is None


def test_gather_rebuild_preserves_membership():
    provider = MultiResolutionProvider(1.0, 2)
    provider.acquire(0)
    objects = [
        StreamObject(i, (float(i), 0.0)) for i in range(5)
    ]
    provider.batch_neighborhoods(objects)
    builds = provider.stats["gather_builds"]
    view = provider.acquire(2)  # top rung changes: gather rebuilt
    assert provider.stats["gather_builds"] == builds + 1
    hits = {nb.oid for nb in view.range_query((0.0, 0.0), exclude_oid=0)}
    assert hits == {1, 2, 3, 4}
    provider.remove(objects[2])
    hits = {nb.oid for nb in view.range_query((0.0, 0.0), exclude_oid=0)}
    assert hits == {1, 3, 4}
    with pytest.raises(KeyError):
        provider.remove(objects[2])


def test_nesting_accounting_folds_fine_cells():
    provider = MultiResolutionProvider(1.0, 2, factor=2.0)
    provider.acquire(0)
    provider.acquire(2)
    # Four fine cells per axis fold 4:1 into one top cell (span 4).
    cells = [(0, 0), (1, 0), (2, 3), (3, 3), (4, 4)]
    assert provider.nesting_of(cells, 0) == 2
    assert provider.nesting_of(cells, 2) == len(set(cells))


# ----------------------------------------------------------------------
# Registry lifecycle and validation
# ----------------------------------------------------------------------


def test_registry_lifecycle_and_ids():
    registry = QueryRegistry()
    q = make_query(1.0, 3, win=120)
    first = registry.register(q)
    second = registry.register(q)
    assert (first.id, second.id) == (1, 2)
    assert first.state == PENDING
    assert len(registry) == 2
    stopped = registry.unregister(first.id)
    assert stopped is first and first.state == STOPPED
    with pytest.raises(ValueError):
        registry.unregister(first.id)
    with pytest.raises(KeyError):
        registry.unregister(99)
    with pytest.raises(KeyError):
        registry.get(99)
    assert [entry["id"] for entry in registry.describe()] == [1, 2]


def test_registry_rejects_non_queries():
    registry = QueryRegistry()
    with pytest.raises(ValueError):
        registry.register("DETECT clusters...")


def test_scheduler_validates_at_register_time():
    scheduler = SlideScheduler(dimensions=2)
    scheduler.register(make_query(2.5, 4, win=120))
    with pytest.raises(ValueError, match="dimensions"):
        scheduler.register(
            ContinuousClusteringQuery.count_based(2.5, 4, 3, win=120, slide=SLIDE)
        )
    with pytest.raises(ValueError, match="slide"):
        scheduler.register(
            ContinuousClusteringQuery.count_based(2.5, 4, 2, win=120, slide=60)
        )
    with pytest.raises(ValueError, match="window kinds"):
        scheduler.register(
            ContinuousClusteringQuery.time_based(2.5, 4, 2, win=120.0, slide=40.0)
        )
    # A failed registration assigns no id and leaves no handle behind.
    assert len(scheduler.registry) == 1


def test_scheduler_requires_registration_before_feeding():
    scheduler = SlideScheduler(dimensions=2)
    with pytest.raises(ValueError, match="register"):
        scheduler.feed(slide_objects(0))


def test_unregister_before_first_batch_never_executes():
    captured = {}
    scheduler = SlideScheduler(dimensions=2)
    handle = scheduler.register(
        make_query(2.5, 4, win=120), capture_sink(captured)
    )
    keeper = scheduler.register(make_query(2.5, 3, win=120))
    scheduler.unregister(handle.id)
    scheduler.feed(slide_objects(0))
    scheduler.feed(slide_objects(1))
    scheduler.flush()
    assert handle.id not in captured
    assert handle.start_window is None
    assert keeper.counters["windows"] == 2


def test_scheduler_stats_shape():
    scheduler = SlideScheduler(dimensions=2)
    scheduler.register(make_query(2.5, 4, win=120))
    scheduler.register(make_query(5.0, 3, win=120))
    scheduler.register(make_query(0.9, 4, win=80))
    for index in range(2):
        scheduler.feed(slide_objects(index))
    scheduler.flush()
    stats = scheduler.stats()
    assert stats["windows_processed"] == 2
    assert len(stats["queries"]) == 3
    assert {r["level"] for r in stats["rungs"]} == {0, 1}
    assert any(r["top"] for r in stats["rungs"])
    modes = sorted(c["mode"] for c in stats["cohorts"])
    assert modes == ["dedicated", "shared", "shared"]
    for cohort in stats["cohorts"]:
        if cohort["mode"] == "shared":
            assert cohort["top_cells"] <= cohort["cells"]
    assert stats["provider"]["range_query_batches"] == 2
    assert stats["dedicated_range_queries"] == SLIDE * 2


# ----------------------------------------------------------------------
# SharedCSGS input validation (the degenerate same-θr case)
# ----------------------------------------------------------------------


def test_shared_csgs_rejects_empty_theta_counts():
    with pytest.raises(ValueError, match="theta_counts is empty"):
        SharedCSGS(1.0, [], 2)
    with pytest.raises(ValueError, match="theta_counts is empty"):
        SharedCSGS(1.0, iter(()), 2)


def test_shared_csgs_rejects_duplicate_theta_counts():
    with pytest.raises(ValueError, match=r"duplicate theta_counts \[3\]"):
        SharedCSGS(1.0, [3, 4, 3], 2)
    # Generators are materialized before validation, not consumed twice.
    with pytest.raises(ValueError, match="duplicate theta_counts"):
        SharedCSGS(1.0, (c for c in (5, 5)), 2)


def test_shared_csgs_remove_member_detaches_pipeline():
    shared = SharedCSGS(1.0, [3, 4], 2)
    member = shared.remove_member(4)
    assert member.theta_count == 4
    assert shared.theta_counts == (3,)
    with pytest.raises(KeyError, match=r"\[3\]"):
        shared.remove_member(4)


def test_coordinator_fed_shared_csgs_rejects_process_batch():
    provider = MultiResolutionProvider(1.0, 2)
    view = provider.acquire(0)
    shared = SharedCSGS(1.0, [3], 2, provider=view, manage_provider=False)
    with pytest.raises(ValueError, match="coordinator"):
        shared.process_batch(WindowBatch(0, []))
    with pytest.raises(ValueError, match="coordinator"):
        SharedCSGS(1.0, [3], 2, manage_provider=False)


# ----------------------------------------------------------------------
# Serving layer: register / stream / unregister over the service
# surface and the HTTP front end
# ----------------------------------------------------------------------


def _empty_service():
    from repro.retrieval import ShardedPatternBase
    from repro.serving.service import MatchService

    return MatchService(ShardedPatternBase(1, "window"))


DETECT = (
    "DETECT DensityBasedClusters FROM s USING theta_range = 2.5 AND "
    "theta_cnt = 4 IN Windows WITH win = 120 AND slide = 40"
)


def test_service_register_stream_unregister():
    from repro.serving.service import ServiceError

    service = _empty_service()
    try:
        answer = service.register_query(
            {"query": DETECT, "dimensions": 2, "archive": True}
        )
        q1 = answer["query"]
        assert q1["id"] == 1 and q1["state"] == "pending"
        answer = service.register_query(
            {"theta_range": 5.0, "theta_count": 3, "win": 120, "slide": 40}
        )
        q2 = answer["query"]
        assert q2["id"] == 2

        # Misaligned slide and bad payloads reject cleanly.
        with pytest.raises(ServiceError, match="slide"):
            service.register_query(
                {"theta_range": 1.0, "theta_count": 3, "win": 90, "slide": 30}
            )
        with pytest.raises(ServiceError, match="register needs"):
            service.register_query({"theta_range": 1.0})
        # A non-finite parameter was admitted (θr: every later batch then
        # answered 500) or was a 500 itself (win, slide, θc); each is a
        # typed 400 that registers nothing.
        good = {"theta_range": 5.0, "theta_count": 3, "win": 120, "slide": 40}
        for bad in (math.nan, math.inf, -math.inf):
            for field in good:
                for kind in ({}, {"time_based": True}):
                    payload = dict(good, **kind, **{field: bad})
                    with pytest.raises(ServiceError, match="bad query param"):
                        service.register_query(payload)
        # int() truncated these: {"theta_count": 3.9, "win": 120.7,
        # "slide": 40.2} registered as 3 / 120 / 40.
        for fields in (
            {"theta_count": 3.9}, {"win": 120.7}, {"slide": 40.2},
            {"theta_count": 3.9, "win": 120.7, "slide": 40.2},
            {"dimensions": 2.5}, {"dimensions": True},
        ):
            with pytest.raises(ServiceError, match="bad query param"):
                service.register_query(dict(good, **fields))
        with pytest.raises(ServiceError):
            service.stream({"objects": "nope"})

        answer = service.stream(
            {"objects": [list(c) for c in POINTS[: SLIDE * 2]]}
        )
        assert answer["accepted"] == SLIDE * 2
        assert [w["window"] for w in answer["windows"]] == [0]
        per_query = answer["windows"][0]["queries"]
        assert set(per_query) == {"1", "2"}
        assert per_query["1"]["clusters"] == len(
            per_query["1"]["cluster_sizes"]
        )

        # Window 0 of the archiving query is in the served archive.
        assert len(service.base) == per_query["1"]["clusters"]

        answer = service.unregister_query("2")
        assert answer["query"]["state"] == "stopped"
        with pytest.raises(ServiceError, match="no registered query"):
            service.unregister_query(99)

        answer = service.stream(
            {
                "objects": [list(c) for c in POINTS[SLIDE * 2 : SLIDE * 3]],
                "flush": True,
            }
        )
        closed = {w["window"]: w["queries"] for w in answer["windows"]}
        assert set(closed) == {1, 2}
        assert set(closed[1]) == {"1"}  # q2 detached before window 1

        stats = service.stats()
        block = stats["multiplex"]
        assert block is not None
        states = {q["id"]: q["state"] for q in block["queries"]}
        assert states == {1: "active", 2: "stopped"}
        assert block["provider"]["range_query_batches"] == 3
        assert stats["requests"]["register_query"] == 2
        assert stats["requests"]["stream"] == 2
        assert stats["requests"]["unregister_query"] == 1
        assert stats["archive_size"] == len(service.base) > 0
    finally:
        service.close()


def test_refused_first_registration_pins_no_dimensionality():
    """Regression pin: the first registration created the run's
    scheduler before its query parsed, so a refused 3-D first
    registration still fixed the run at 3-D and the next valid 2-D one
    answered 400 "this multiplexed run is 3-dimensional"."""
    from repro.serving.service import ServiceError

    service = _empty_service()
    try:
        with pytest.raises(ServiceError, match="bad query param"):
            service.register_query(
                {
                    "theta_range": math.inf, "theta_count": 3,
                    "win": 120, "slide": 40, "dimensions": 3,
                }
            )
        assert service.stats()["multiplex"] is None
        answer = service.register_query({"query": DETECT, "dimensions": 2})
        assert answer["query"]["id"] == 1
        assert service.stats()["requests"]["register_query"] == 1
    finally:
        service.close()


#: ``DETECT`` on time-based windows: 12 s windows sliding by 4 s.
TIMED_DETECT = DETECT.replace(
    "win = 120 AND slide = 40", "win = 12s AND slide = 4s"
)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "late"])
def test_non_finite_stream_batch_is_refused_whole(bad):
    """Regression pin: ``[[NaN, 1.0], [1.0, 2.0]]`` was acked
    (``{"accepted": 2}``) and the grid then refused the *next* batch,
    whose objects were lost. A non-finite coordinate or timestamp is a
    typed 400 for its own batch, none of whose objects are admitted:
    the next valid batch closes exactly the windows of a service that
    never saw the bad one. ``"late"`` pins the same for a time-based
    batch ``[13.0, 14.0, 1.0]`` after one ending at t = 9.5: its refusal
    used to come after 13.0 and 14.0 were admitted and window 2 was
    closed and archived, its result lost."""
    from repro.core.serialize import sgs_to_bytes
    from repro.serving.service import ServiceError

    clean, dirty = _empty_service(), _empty_service()
    try:
        for service in (clean, dirty):
            service.register_query(
                {
                    "query": TIMED_DETECT if bad == "late" else DETECT,
                    "dimensions": 2,
                    "archive": True,
                }
            )
        if bad == "late":

            def timed(start, stop):
                return {
                    "objects": [list(c) for c in POINTS[start:stop]],
                    "timestamps": [i / 10 for i in range(start, stop)],
                }

            for service in (clean, dirty):
                service.stream(timed(0, 96))
            with pytest.raises(ServiceError, match="stream is not ordered"):
                dirty.stream(
                    {
                        "objects": [list(c) for c in POINTS[:3]],
                        "timestamps": [13.0, 14.0, 1.0],
                    }
                )
            batch, windows = dict(timed(96, SLIDE * 5), flush=True), [2, 3, 4]
        else:
            with pytest.raises(ServiceError, match="bad stream objects"):
                dirty.stream({"objects": [[bad, 1.0], [1.0, 2.0]]})
            with pytest.raises(ServiceError, match="bad stream objects"):
                dirty.stream({"objects": [[1.0, 2.0]], "timestamps": [bad]})
            objects = [list(c) for c in POINTS[: SLIDE * 3]]
            batch, windows = {"objects": objects, "flush": True}, [0, 1, 2]
        answer = dirty.stream(batch)
        assert answer == clean.stream(batch)
        assert [w["window"] for w in answer["windows"]] == windows
        assert [
            (p.pattern_id, sgs_to_bytes(p.sgs)) for p in dirty.base.all_patterns()
        ] == [(p.pattern_id, sgs_to_bytes(p.sgs)) for p in clean.base.all_patterns()]
    finally:
        clean.close()
        dirty.close()


def test_http_multiplex_endpoints():
    import json
    import threading
    import urllib.error
    import urllib.request

    from repro.serving.httpd import make_server

    service = _empty_service()
    server, host, port = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    root = f"http://{host}:{port}"

    def call(method, path, payload=None):
        data = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else None
        )
        request = urllib.request.Request(
            root + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    try:
        status, answer = call(
            "POST", "/queries", {"query": DETECT, "dimensions": 2}
        )
        assert status == 200 and answer["query"]["id"] == 1
        status, answer = call(
            "POST",
            "/queries",
            {"theta_range": 5.0, "theta_count": 3, "win": 80, "slide": 40},
        )
        assert status == 200 and answer["query"]["id"] == 2

        status, answer = call(
            "POST",
            "/stream",
            {"objects": [list(c) for c in POINTS[: SLIDE * 2]]},
        )
        assert status == 200
        assert answer["accepted"] == SLIDE * 2
        assert {w["window"] for w in answer["windows"]} == {0}

        status, answer = call("DELETE", "/queries/2")
        assert status == 200 and answer["query"]["state"] == "stopped"
        status, answer = call("DELETE", "/queries/2")
        assert status == 400 and "already stopped" in answer["error"]
        status, answer = call("DELETE", "/queries/nope")
        assert status == 400
        status, answer = call("DELETE", "/nothing")
        assert status == 404

        status, answer = call("POST", "/queries", {"theta_range": 1.0})
        assert status == 400 and "register needs" in answer["error"]

        status, stats = call("GET", "/stats")
        assert status == 200
        assert stats["multiplex"]["windows_processed"] == 1
        ids = [q["id"] for q in stats["multiplex"]["queries"]]
        assert ids == [1, 2]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def test_multiplexed_mining_system_archives_and_matches():
    """The framework wrapper: multiplexed extraction feeding one shared
    Pattern Base, immediately matchable."""
    from repro.system.framework import MultiplexedMiningSystem

    with MultiplexedMiningSystem(2) as system:
        archiving = system.register(make_query(2.5, 4, win=120), archive=True)
        silent = system.register(make_query(5.0, 3, win=120))
        for index in range(3):
            system.feed(slide_objects(index))
        system.flush()
        assert archiving.counters["windows"] == 3
        assert silent.counters["windows"] == 3
        assert system.archived_count == archiving.counters["clusters"] > 0
        pattern = next(iter(system.pattern_base.all_patterns()))
        results, _ = system.match(pattern.sgs, threshold=0.2, top_k=3)
        assert results and results[0].distance == 0.0
        stats = system.stats()
        assert stats["archived"] == system.archived_count
        assert len(stats["queries"]) == 2
