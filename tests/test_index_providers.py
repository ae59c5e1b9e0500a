"""Parity suite for the pluggable NeighborProvider backends.

Every backend (grid, kdtree, rtree, auto) must answer exactly the same
fixed-radius neighbor queries — single and batched, static and under
insert/remove/purge churn — and the clustering layer built on top must
produce identical window output regardless of the backend selected.
"""

import random

import pytest

from tests.helpers import (
    KERNEL_ARMS,
    clustered_points,
    make_objects,
    stream_batches,
)
from repro.clustering.shared import SharedCSGS
from repro.config import ContinuousClusteringQuery
from repro.core.csgs import CSGS
from repro.geometry.distance import euclidean_distance
from repro.index import (
    BACKENDS,
    AutoProvider,
    GridIndex,
    KDTreeProvider,
    RTreeProvider,
    available_backends,
    cell_substrate,
    make_provider,
)

BACKEND_NAMES = tuple(sorted(BACKENDS))

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
    assert available_backends() == ("auto", "grid", "kdtree", "rtree")


def test_make_provider_types():
    assert isinstance(make_provider("grid", 0.5, 2), GridIndex)
    assert isinstance(make_provider("kdtree", 0.5, 2), KDTreeProvider)
    assert isinstance(make_provider("rtree", 0.5, 2), RTreeProvider)
    assert isinstance(make_provider("auto", 0.5, 2), AutoProvider)


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
    provider = make_provider(backend, THETA, dims)
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
    provider = make_provider(backend, THETA, 2)
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
    provider = make_provider(backend, THETA, 2)
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
        name: make_provider(name, THETA, 2) for name in BACKEND_NAMES
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
        provider = make_provider(backend, THETA, 2)
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
        provider = make_provider(backend, THETA, 2)
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
        provider = make_provider(backend, THETA, 2)
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
        provider = make_provider(backend, THETA, 2)
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
    provider = make_provider(backend, THETA, 2)
    (obj,) = make_objects([(0.0, 0.0)])
    with pytest.raises(KeyError):
        provider.remove(obj)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_remove_then_reinsert_no_duplicates(backend):
    """A removed-then-reinserted object must be reported exactly once,
    even while the kd-tree still holds its tombstoned committed copy."""
    provider = make_provider(backend, THETA, 2)
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


def test_system_from_query_uses_declared_backend():
    from repro.system.framework import StreamPatternMiningSystem

    query = ContinuousClusteringQuery.count_based(
        0.4, 3, 2, 100, 50, index_backend="kdtree"
    )
    system = StreamPatternMiningSystem.from_query(query)
    provider = system.extractor.algorithm.tracker.provider
    assert isinstance(provider, KDTreeProvider)
    objects = make_objects(random_points(150, 2, seed=1), last_window=3)
    outputs = system.run(objects, max_windows=2)
    assert outputs and system.archived_count >= 0


# ----------------------------------------------------------------------
# The auto backend: selection heuristic and adaptive switching
# ----------------------------------------------------------------------


def test_auto_initial_choice_follows_walk_cost():
    """Cheap offset walks (low d) pick the grid outright; expensive
    walks (4-D+: 625+ cells) start on the k-d tree."""
    for dims in (1, 2, 3):
        provider = AutoProvider(0.5, dims)
        assert provider.backend_name == "grid", dims
        assert provider.walk_cost <= 200
    for dims in (4, 5):
        provider = AutoProvider(0.5, dims)
        assert provider.backend_name == "kdtree", dims
        assert provider.walk_cost > 200


def test_auto_provider_exposes_cell_substrate():
    provider = AutoProvider(0.4, 4)
    substrate = cell_substrate(provider)
    assert substrate is provider.cells
    objects = make_objects(random_points(50, 4, seed=5))
    for obj in objects:
        coord = provider.insert(obj)
        assert coord == provider.cells.cell_coord(obj.coords)
    assert len(provider.cells) == len(provider) == len(objects)
    # grid is its own substrate; search-only backends have none
    grid = make_provider("grid", 0.4, 2)
    assert cell_substrate(grid) is grid
    assert cell_substrate(make_provider("kdtree", 0.4, 2)) is None
    assert cell_substrate(make_provider("rtree", 0.4, 2)) is None


def test_auto_switches_to_grid_when_cells_densify():
    """Dense 4-D cells flip the kd-tree start to the grid; answers stay
    exact across the switch (the rebuilt backend holds the live set)."""
    provider = AutoProvider(0.5, 4, check_interval=32, dense_occupancy=4.0)
    assert provider.backend_name == "kdtree"
    # Pack many objects into few cells: occupancy far above the dense
    # threshold by the first check.
    rng = random.Random(0)
    objects = make_objects(
        [
            tuple(rng.uniform(0, 0.2) for _ in range(4))
            for _ in range(200)
        ]
    )
    for obj in objects:
        provider.insert(obj)
    assert provider.backend_name == "grid"
    assert provider.switches >= 1
    assert len(provider) == len(objects)
    for probe in objects[:15]:
        got = {
            o.oid
            for o in provider.range_query(probe.coords, exclude_oid=probe.oid)
        }
        assert got == brute_force(objects, probe.coords, 0.5, probe.oid)


def test_auto_switches_back_when_cells_sparsify():
    """Removing the dense mass drops occupancy below the sparse
    threshold and the provider returns to the k-d tree."""
    provider = AutoProvider(
        0.5, 4, check_interval=16, sparse_occupancy=2.0, dense_occupancy=4.0
    )
    rng = random.Random(1)
    dense = make_objects(
        [tuple(rng.uniform(0, 0.2) for _ in range(4)) for _ in range(120)]
    )
    sparse = make_objects(
        [tuple(rng.uniform(0, 40.0) for _ in range(4)) for _ in range(40)],
    )
    for obj in sparse:
        obj.oid += 10_000
    for obj in dense + sparse:
        provider.insert(obj)
    assert provider.backend_name == "grid"
    for obj in dense:
        provider.remove(obj)
    assert provider.backend_name == "kdtree"
    assert provider.switches >= 2
    alive = {obj.oid for obj in provider}
    assert alive == {obj.oid for obj in sparse}
    for probe in sparse[:10]:
        got = {
            o.oid
            for o in provider.range_query(probe.coords, exclude_oid=probe.oid)
        }
        assert got == brute_force(sparse, probe.coords, 0.5, probe.oid)


def test_auto_stats_survive_switches():
    provider = AutoProvider(0.5, 4, check_interval=32)
    objects = make_objects(
        [(0.01 * i, 0.0, 0.0, 0.0) for i in range(100)]
    )
    for obj in objects:
        provider.insert(obj)
        provider.range_query(obj.coords, exclude_oid=obj.oid)
    stats = provider.stats
    assert stats["queries"] == 100
    assert stats["candidates"] > 0


def test_kdtree_provider_rebuilds_amortized():
    provider = KDTreeProvider(THETA, 2, rebuild_fraction=0.25, min_buffer=8)
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
    csgs = CSGS(theta_range, theta_count, 2, backend=backend)
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
        shared = SharedCSGS(0.35, theta_counts, 2, backend=backend)
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
    for backend in ("kdtree", "rtree", "auto"):
        assert run(backend) == reference


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_shared_members_share_one_cell_substrate(backend):
    """Members must not each duplicate the SGS cell bookkeeping."""
    shared = SharedCSGS(0.35, (3, 5, 8), 2, backend=backend)
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


@pytest.mark.parametrize("backend", ("kdtree", "rtree", "auto"))
def test_shared_matches_independent_runs(backend):
    """Shared execution on a non-grid backend equals independent C-SGS."""
    points = clustered_points(
        [(2.0, 2.0), (6.0, 3.5)], per_cluster=100, noise=50, seed=8
    )
    theta_counts = (3, 5)
    shared = SharedCSGS(0.35, theta_counts, 2, backend=backend)
    independent = {
        count: CSGS(0.35, count, 2, backend=backend)
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
