"""Parity suite for the pluggable NeighborProvider backends.

Both backends (grid, kdtree) must answer exactly the same
fixed-radius neighbor queries — single and batched, static and under
insert/remove/purge churn — and the clustering layer built on top must
produce identical window output regardless of the backend selected.
The Pattern Base's R-tree runs the same suite through the test-side
``RTreePointIndex`` adapter.
"""

import random

import pytest

from tests.helpers import (
    KERNEL_ARMS,
    RTREE,
    build_provider,
    clustered_points,
    make_objects,
    on_backend,
    stream_batches,
)
from repro.clustering.shared import SharedCSGS
from repro.config import ContinuousClusteringQuery
from repro.core.csgs import CSGS
from repro.geometry.coordstore import CoordStore, within_sq_range
from repro.geometry.distance import euclidean_distance
from repro.index import (
    BACKENDS,
    GridIndex,
    KDTreeProvider,
    available_backends,
    cell_substrate,
    make_provider,
)

#: The registered backends plus the Pattern Base's R-tree.
BACKEND_NAMES = tuple(sorted(BACKENDS)) + (RTREE,)

THETA = 0.4


def brute_force(objects, coords, radius, exclude_oid=-1):
    return {
        obj.oid
        for obj in objects
        if obj.oid != exclude_oid
        and euclidean_distance(obj.coords, coords) <= radius
    }


def random_points(n, dims, seed, bound=5.0):
    rng = random.Random(seed)
    return [
        tuple(rng.uniform(0, bound) for _ in range(dims)) for _ in range(n)
    ]


# ----------------------------------------------------------------------
# Factory / registry
# ----------------------------------------------------------------------


def test_available_backends():
    assert available_backends() == ("grid", "kdtree")


def test_make_provider_types():
    assert isinstance(make_provider("grid", 0.5, 2), GridIndex)
    assert isinstance(make_provider("kdtree", 0.5, 2), KDTreeProvider)


def test_make_provider_unknown_backend():
    with pytest.raises(ValueError, match="unknown index backend"):
        make_provider("quadtree", 0.5, 2)


def test_config_validates_backend():
    query = ContinuousClusteringQuery.count_based(
        0.5, 3, 2, 100, 50, index_backend="kdtree"
    )
    assert query.index_backend == "kdtree"
    with pytest.raises(ValueError, match="unknown index backend"):
        ContinuousClusteringQuery.count_based(
            0.5, 3, 2, 100, 50, index_backend="nope"
        )


# ----------------------------------------------------------------------
# range_query parity (vs brute force and across backends)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("dims", (2, 4))
def test_range_query_matches_bruteforce_random(backend, dims):
    objects = make_objects(random_points(250, dims, seed=11))
    provider = build_provider(backend, THETA, dims)
    for obj in objects:
        provider.insert(obj)
    assert len(provider) == len(objects)
    for probe in objects[:40]:
        got = {
            obj.oid
            for obj in provider.range_query(
                probe.coords, exclude_oid=probe.oid
            )
        }
        assert got == brute_force(objects, probe.coords, THETA, probe.oid)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_range_query_matches_bruteforce_clustered(backend):
    points = clustered_points(
        [(1.0, 1.0), (3.0, 3.0)], per_cluster=120, noise=60, seed=5
    )
    objects = make_objects(points)
    provider = build_provider(backend, THETA, 2)
    for obj in objects:
        provider.insert(obj)
    for probe in objects[::7]:
        got = {
            obj.oid
            for obj in provider.range_query(
                probe.coords, exclude_oid=probe.oid
            )
        }
        assert got == brute_force(objects, probe.coords, THETA, probe.oid)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_range_query_many_matches_single(backend):
    objects = make_objects(random_points(300, 2, seed=23))
    provider = build_provider(backend, THETA, 2)
    for obj in objects:
        provider.insert(obj)
    queries = [(obj.coords, obj.oid) for obj in objects[:80]]
    batched = provider.range_query_many(queries)
    assert len(batched) == len(queries)
    for (coords, exclude), result in zip(queries, batched):
        single = provider.range_query(coords, exclude_oid=exclude)
        assert {obj.oid for obj in result} == {obj.oid for obj in single}


def test_backends_pairwise_identical_after_churn():
    """Same mutation sequence -> same answers, across all backends."""
    rng = random.Random(42)
    objects = make_objects(random_points(400, 2, seed=9), last_window=10)
    # Stagger expiry so purge_expired has real work.
    for obj in objects:
        obj.last_window = rng.randint(2, 10)
    providers = {
        name: build_provider(name, THETA, 2) for name in BACKEND_NAMES
    }
    for obj in objects:
        for provider in providers.values():
            provider.insert(obj)
    removed = rng.sample(objects, 60)
    for obj in removed:
        for provider in providers.values():
            provider.remove(obj)
    purged = {
        name: provider.purge_expired(6)
        for name, provider in providers.items()
    }
    assert len(set(purged.values())) == 1
    sizes = {len(provider) for provider in providers.values()}
    assert len(sizes) == 1
    alive = {obj.oid for obj in providers["grid"]}
    for name in BACKEND_NAMES:
        assert {obj.oid for obj in providers[name]} == alive
    probes = random_points(50, 2, seed=77)
    for coords in probes:
        answers = {
            name: frozenset(
                obj.oid for obj in provider.range_query(coords)
            )
            for name, provider in providers.items()
        }
        assert len(set(answers.values())) == 1, answers


# ----------------------------------------------------------------------
# range_query_many edge cases (empty batches, absent probe oids,
# queries issued mid-purge) — per backend × kernel arm
# ----------------------------------------------------------------------


@pytest.mark.parametrize("arm", KERNEL_ARMS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_range_query_many_empty_batch(backend, arm, kernel_arm):
    with kernel_arm(arm):
        provider = build_provider(backend, THETA, 2)
        assert provider.range_query_many([]) == []
        for obj in make_objects(random_points(30, 2, seed=2)):
            provider.insert(obj)
        assert provider.range_query_many([]) == []


@pytest.mark.parametrize("arm", KERNEL_ARMS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_range_query_many_absent_probe_oid(backend, arm, kernel_arm):
    """A probe whose exclude_oid is not in the index excludes nothing:
    the full neighbor set comes back (the shared-execution coordinator
    issues such queries for objects routed to a different shard)."""
    with kernel_arm(arm):
        objects = make_objects(random_points(120, 2, seed=17))
        provider = build_provider(backend, THETA, 2)
        for obj in objects:
            provider.insert(obj)
        probes = [(obj.coords, 10_000 + obj.oid) for obj in objects[:25]]
        batched = provider.range_query_many(probes)
        for (coords, _), got in zip(probes, batched):
            want = brute_force(objects, coords, THETA)
            assert {obj.oid for obj in got} == want


@pytest.mark.parametrize("arm", KERNEL_ARMS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_range_query_many_mid_purge(backend, arm, kernel_arm):
    """Queries issued between purges see exactly the live population —
    tombstoned rows must not leak into batched answers."""
    with kernel_arm(arm):
        rng = random.Random(3)
        objects = make_objects(random_points(200, 2, seed=29))
        for obj in objects:
            obj.last_window = rng.randint(1, 6)
        provider = build_provider(backend, THETA, 2)
        for obj in objects:
            provider.insert(obj)
        for window in range(1, 8):
            purged = provider.purge_expired(window)
            alive = [obj for obj in objects if obj.last_window >= window]
            assert len(provider) == len(alive)
            if window > 1:
                assert purged == sum(
                    1 for obj in objects if obj.last_window == window - 1
                )
            queries = [(obj.coords, obj.oid) for obj in alive[:20]]
            batched = provider.range_query_many(queries)
            assert len(batched) == len(queries)
            for (coords, exclude), got in zip(queries, batched):
                want = brute_force(alive, coords, THETA, exclude)
                assert {obj.oid for obj in got} == want


@pytest.mark.parametrize("arm", KERNEL_ARMS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_range_query_many_after_remove_matches_single(
    backend, arm, kernel_arm
):
    with kernel_arm(arm):
        rng = random.Random(11)
        objects = make_objects(random_points(150, 2, seed=41, bound=2.0))
        provider = build_provider(backend, THETA, 2)
        for obj in objects:
            provider.insert(obj)
        removed = rng.sample(objects, 40)
        for obj in removed:
            provider.remove(obj)
        alive = [obj for obj in objects if obj not in removed]
        queries = [(obj.coords, obj.oid) for obj in alive[::5]]
        batched = provider.range_query_many(queries)
        for (coords, exclude), got in zip(queries, batched):
            single = provider.range_query(coords, exclude_oid=exclude)
            assert [o.oid for o in got] == [o.oid for o in single]
            assert {o.oid for o in got} == brute_force(
                alive, coords, THETA, exclude
            )


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_remove_missing_object_raises(backend):
    provider = build_provider(backend, THETA, 2)
    (obj,) = make_objects([(0.0, 0.0)])
    with pytest.raises(KeyError):
        provider.remove(obj)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_remove_then_reinsert_no_duplicates(backend):
    """A removed-then-reinserted object must be reported exactly once,
    even while the kd-tree still holds its tombstoned committed copy."""
    provider = build_provider(backend, THETA, 2)
    if backend == "kdtree":
        provider._min_buffer = 4  # force early commits to the tree
    objects = make_objects(random_points(40, 2, seed=31, bound=1.0))
    for obj in objects:
        provider.insert(obj)
    victim = objects[3]
    provider.remove(victim)
    provider.insert(victim)
    assert len(provider) == len(objects)
    for probe in objects[:10]:
        got = [
            obj.oid
            for obj in provider.range_query(probe.coords, exclude_oid=probe.oid)
        ]
        assert len(got) == len(set(got)), f"duplicate oids: {sorted(got)}"
        assert set(got) == brute_force(objects, probe.coords, THETA, probe.oid)


# ----------------------------------------------------------------------
# Non-finite and wrong-length input: refused or matched by nothing, the
# same way on every kernel arm and backend
# ----------------------------------------------------------------------

NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("count", (3, 60))
@pytest.mark.parametrize("arm", KERNEL_ARMS)
def test_non_finite_probe_matches_nothing(arm, count, bad, kernel_arm):
    """3 and 60 candidates sit either side of ``_VECTOR_MIN_WORK``, so
    without a forced arm the small call would take the loop kernel."""
    assert 3 < CoordStore._VECTOR_MIN_WORK < 60
    with kernel_arm(arm):
        store = CoordStore(2)
        objects = make_objects([(0.01 * i, 0.0) for i in range(count)])
        for obj in objects:
            store.add(obj)
        probe = (bad, 0.0)
        assert not within_sq_range(probe, (0.0, 0.0), 1.0)
        assert store.refine(objects, probe, 1.0) == []
        assert store.refine_many(store.batch(objects), [probe], 1.0) == [[]]
        assert store.within_radius(probe, 1.0) == []


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_non_finite_insert_is_refused(backend, bad):
    objects = make_objects(random_points(80, 2, seed=19, bound=2.0))
    provider = build_provider(backend, THETA, 2)
    untouched = build_provider(backend, THETA, 2)
    for obj in objects:
        provider.insert(obj)
        untouched.insert(obj)
    (stranger,) = make_objects([(bad, 0.5)])
    stranger.oid = 999
    with pytest.raises(ValueError, match="object 999 has a non-finite"):
        provider.insert(stranger)
    assert len(provider) == len(objects)
    probes = [(obj.coords, obj.oid) for obj in objects[::4]]
    probes.append(((0.5, 0.5), -1))
    for (coords, exclude), got, want in zip(
        probes,
        provider.range_query_many(probes),
        untouched.range_query_many(probes),
    ):
        assert [o.oid for o in got] == [o.oid for o in want]
        assert [o.oid for o in provider.range_query(coords, exclude)] == [
            o.oid for o in untouched.range_query(coords, exclude)
        ]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_wrong_length_probe_is_a_value_error(backend):
    """300 objects: the k-d tree answers from a built tree and a buffer."""
    provider = build_provider(backend, THETA, 2)
    for obj in make_objects(random_points(300, 2, seed=4)):
        provider.insert(obj)
    for probe in ((0.1,), (0.1, 0.1, 0.1)):
        with pytest.raises(ValueError, match="dimension"):
            provider.range_query(probe)
        with pytest.raises(ValueError, match="dimension"):
            provider.range_query_many([((0.1, 0.1), -1), (probe, -1)])


def test_system_from_query_uses_declared_backend():
    from repro.system.framework import StreamPatternMiningSystem

    query = ContinuousClusteringQuery.count_based(
        0.4, 3, 2, 100, 50, index_backend="kdtree"
    )
    system = StreamPatternMiningSystem.from_query(query)
    provider = system.extractor._csgs.tracker.provider
    assert isinstance(provider, KDTreeProvider)
    objects = make_objects(random_points(150, 2, seed=1), last_window=3)
    outputs = system.run(objects, max_windows=2)
    assert outputs and system.archived_count >= 0


def test_cell_substrate_is_the_grid_itself():
    """The grid is its own SGS cell substrate; the search trees have none."""
    grid = make_provider("grid", 0.4, 2)
    assert cell_substrate(grid) is grid
    assert cell_substrate(make_provider("kdtree", 0.4, 2)) is None
    assert cell_substrate(build_provider(RTREE, 0.4, 2)) is None


def test_kdtree_provider_rebuilds_amortized():
    provider = KDTreeProvider(THETA, 2)
    provider._min_buffer = 8
    objects = make_objects(random_points(300, 2, seed=3))
    for obj in objects:
        provider.insert(obj)
    assert provider.rebuilds > 0
    # After heavy churn the answers stay exact.
    for obj in objects[:150]:
        provider.remove(obj)
    remaining = objects[150:]
    for probe in remaining[:25]:
        got = {
            o.oid
            for o in provider.range_query(probe.coords, exclude_oid=probe.oid)
        }
        assert got == brute_force(remaining, probe.coords, THETA, probe.oid)


# ----------------------------------------------------------------------
# Clustering-layer parity: identical window output per backend
# ----------------------------------------------------------------------


def _csgs_trace(backend, points, theta_range=0.35, theta_count=4):
    """Full structural trace of a C-SGS run (order included)."""
    csgs = CSGS(
        theta_range, theta_count, 2, **on_backend(backend, theta_range, 2)
    )
    trace = []
    for batch in stream_batches(points, 150, 75):
        output = csgs.process_batch(batch)
        trace.append(
            (
                output.window_index,
                [
                    (
                        cluster.cluster_id,
                        [obj.oid for obj in cluster.core_objects],
                        [obj.oid for obj in cluster.edge_objects],
                    )
                    for cluster in output.clusters
                ],
                [
                    sorted(
                        (cell.location, cell.status.name, cell.population)
                        for cell in sgs.cells.values()
                    )
                    for sgs in output.summaries
                ],
            )
        )
    return trace


def test_csgs_output_identical_across_backends():
    points = clustered_points(
        [(2.0, 2.0), (7.0, 7.0), (4.5, 5.0)],
        per_cluster=150,
        noise=100,
        seed=13,
    )
    traces = {
        backend: _csgs_trace(backend, points) for backend in BACKEND_NAMES
    }
    for backend in BACKEND_NAMES:
        assert traces[backend] == traces["grid"], backend


def test_shared_csgs_identical_across_backends():
    points = clustered_points(
        [(2.0, 2.0), (6.5, 6.5)], per_cluster=120, noise=80, seed=21
    )
    theta_counts = (3, 6)

    def run(backend):
        shared = SharedCSGS(
            0.35, theta_counts, 2, **on_backend(backend, 0.35, 2)
        )
        trace = []
        for batch in stream_batches(points, 150, 75):
            outputs = shared.process_batch(batch)
            trace.append(
                {
                    count: [
                        (
                            sorted(obj.oid for obj in cluster.core_objects),
                            sorted(obj.oid for obj in cluster.edge_objects),
                        )
                        for cluster in output.clusters
                    ]
                    for count, output in outputs.items()
                }
            )
        return trace

    reference = run("grid")
    for backend in ("kdtree", RTREE):
        assert run(backend) == reference


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_shared_members_share_one_cell_substrate(backend):
    """Members must not each duplicate the SGS cell bookkeeping."""
    shared = SharedCSGS(0.35, (3, 5, 8), 2, **on_backend(backend, 0.35, 2))
    substrates = {id(member.tracker.cells) for member in shared.members.values()}
    assert substrates == {id(shared.cells)}
    providers = {id(member.tracker.provider) for member in shared.members.values()}
    assert providers == {id(shared.provider)}


def test_insert_batch_matches_sequential_on_prepopulated_provider():
    """Both insertion paths fail identically (loudly) when the provider
    holds objects the tracker never saw — no silent divergence."""
    from repro.core.lifespan import NeighborhoodTracker

    def tracker_with_stranger():
        provider = make_provider("grid", 0.4, 2)
        (stranger,) = make_objects([(0.05, 0.05)])
        stranger.oid = 999
        provider.insert(stranger)
        return NeighborhoodTracker(0.4, 2, 2, provider=provider)

    (newcomer,) = make_objects([(0.0, 0.0)])
    with pytest.raises(KeyError):
        tracker_with_stranger().insert(newcomer)
    with pytest.raises(KeyError):
        tracker_with_stranger().insert_batch([newcomer])


@pytest.mark.parametrize("backend", ("kdtree", RTREE))
def test_shared_matches_independent_runs(backend):
    """Shared execution on a non-grid backend equals independent C-SGS."""
    points = clustered_points(
        [(2.0, 2.0), (6.0, 3.5)], per_cluster=100, noise=50, seed=8
    )
    theta_counts = (3, 5)
    shared = SharedCSGS(0.35, theta_counts, 2, **on_backend(backend, 0.35, 2))
    independent = {
        count: CSGS(0.35, count, 2, **on_backend(backend, 0.35, 2))
        for count in theta_counts
    }
    for shared_batch, solo_batch in zip(
        stream_batches(points, 150, 75), stream_batches(points, 150, 75)
    ):
        outputs = shared.process_batch(shared_batch)
        for count, csgs in independent.items():
            solo = csgs.process_batch(solo_batch)
            got = sorted(
                (
                    sorted(obj.oid for obj in cluster.core_objects),
                    sorted(obj.oid for obj in cluster.edge_objects),
                )
                for cluster in outputs[count].clusters
            )
            want = sorted(
                (
                    sorted(obj.oid for obj in cluster.core_objects),
                    sorted(obj.oid for obj in cluster.edge_objects),
                )
                for cluster in solo.clusters
            )
            assert got == want
