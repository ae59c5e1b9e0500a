"""Oracle stress harness for the neighbor-search backends.

Randomized, seeded insert/remove/purge/query sequences are replayed
simultaneously against every backend (and the Pattern Base's R-tree,
through ``RTreePointIndex``) and a naive linear-scan oracle
(the only data structure simple enough to be obviously correct), across
1–5 dimensions and both refinement kernel arms. Any divergence —
membership, duplicate reporting, purge counts, batched-vs-single
answers — fails with the offending seed in the test id, so a failure is
reproducible with one pytest ``-k`` expression.

This is the reusable correctness net for index-layer PRs: the
sphere-pruned candidate gathering, the grid's coordinate trie and its
gap-budget walk all landed against it, and future work on
the provider seam (sharding, multi-resolution indexes) should extend it
rather than start over. The bucket birth / death regression tests at
the bottom pin the one genuinely sharp edge: a purge or removal that
empties a bucket unlinks it from the cell map, so whatever mirrors the
occupied cells (once a per-base cache of walks, now the trie) must
drop it too, and a re-occupied cell must show up as the new bucket.
"""

import random

import pytest

from tests.helpers import (
    KERNEL_ARMS,
    RTREE,
    assert_trie_mirrors_cells,
    build_provider,
    make_objects,
)
from repro.geometry.coordstore import within_sq_range
from repro.index import BACKENDS, GridIndex
from repro.streams.objects import StreamObject

#: The registered backends plus the Pattern Base's R-tree.
BACKEND_NAMES = tuple(sorted(BACKENDS)) + (RTREE,)
DIMS = (1, 2, 3, 4, 5)
SEEDS = (0, 1, 2, 3, 4)
#: Sequences exercised per pytest run: backends x kernel arms x dims x
#: seeds — 150 with NumPy installed (3 * 2 * 5 * 5), 75 without.
OPS_PER_SEQUENCE = 70


class LinearOracle:
    """The trivially correct reference: a dict and a linear scan."""

    def __init__(self, theta_range):
        self.sq_range = theta_range * theta_range
        self.objects = {}

    def insert(self, obj):
        if obj.oid in self.objects:
            raise KeyError(obj.oid)
        self.objects[obj.oid] = obj

    def remove(self, obj):
        if obj.oid not in self.objects:
            raise KeyError(obj.oid)
        del self.objects[obj.oid]

    def purge_expired(self, window_index):
        expired = [
            oid
            for oid, obj in self.objects.items()
            if obj.last_window < window_index
        ]
        for oid in expired:
            del self.objects[oid]
        return len(expired)

    def range_query(self, coords, exclude_oid=-1):
        return [
            obj
            for obj in self.objects.values()
            if obj.oid != exclude_oid
            and within_sq_range(obj.coords, coords, self.sq_range)
        ]

    def __len__(self):
        return len(self.objects)


def _random_coords(rng, dims, centers, span):
    """Mixed distribution: clustered mass (shared cells, dense buckets)
    plus uniform background (sparse, far-flung cells)."""
    if centers and rng.random() < 0.7:
        center = rng.choice(centers)
        return tuple(rng.gauss(c, 0.3) for c in center)
    return tuple(rng.uniform(0.0, span) for _ in range(dims))


def _check_query(provider, oracle, coords, exclude_oid, context):
    got = provider.range_query(coords, exclude_oid=exclude_oid)
    want = oracle.range_query(coords, exclude_oid=exclude_oid)
    got_oids = sorted(obj.oid for obj in got)
    assert got_oids == sorted(set(got_oids)), (
        f"{context}: duplicate oids reported: {got_oids}"
    )
    assert set(got_oids) == {obj.oid for obj in want}, (
        f"{context}: membership diverged from the linear oracle"
    )


def run_sequence(backend, arm, dims, seed, ops=OPS_PER_SEQUENCE):
    """``arm`` only labels the sequence (seed and failure context); the
    caller forces it through the ``kernel_arm`` fixture."""
    rng = random.Random(f"{backend}/{arm}/{dims}/{seed}")
    theta = rng.uniform(0.3, 0.7)
    span = 3.0
    provider = build_provider(backend, theta, dims)
    oracle = LinearOracle(theta)
    centers = [
        tuple(rng.uniform(0.5, span - 0.5) for _ in range(dims))
        for _ in range(3)
    ]
    window = 0
    next_oid = 0
    removed_coords = []

    for step in range(ops):
        context = (
            f"{backend}/{arm}/{dims}d seed={seed} step={step}"
        )
        roll = rng.random()
        if roll < 0.5 or not oracle.objects:
            coords = _random_coords(rng, dims, centers, span)
            if oracle.objects and rng.random() < 0.1:
                # Duplicate position, distinct oid: same-cell stress.
                coords = rng.choice(list(oracle.objects.values())).coords
            obj = StreamObject(next_oid, coords)
            obj.first_window = window
            obj.last_window = window + rng.randint(0, 3)
            next_oid += 1
            provider.insert(obj)
            oracle.insert(obj)
        elif roll < 0.65:
            victim = rng.choice(list(oracle.objects.values()))
            provider.remove(victim)
            oracle.remove(victim)
            removed_coords.append(victim.coords)
        elif roll < 0.75:
            window += rng.randint(1, 2)
            purged = provider.purge_expired(window)
            assert purged == oracle.purge_expired(window), (
                f"{context}: purge counts diverged"
            )
        else:
            if removed_coords and rng.random() < 0.3:
                probe = rng.choice(removed_coords)
            elif oracle.objects and rng.random() < 0.6:
                probe = rng.choice(list(oracle.objects.values())).coords
            else:
                probe = _random_coords(rng, dims, centers, span)
            exclude = rng.choice(
                [-1, rng.randrange(max(1, next_oid)), next_oid + 50]
            )
            _check_query(provider, oracle, probe, exclude, context)
        assert len(provider) == len(oracle), f"{context}: sizes diverged"

    # Batched sweep over everything alive plus background probes: the
    # range_query_many plan (grouping, bbox pruning, shared refinement)
    # must agree probe-for-probe with the single-query path and oracle.
    alive = list(oracle.objects.values())
    queries = [(obj.coords, obj.oid) for obj in alive[:30]]
    queries += [
        (_random_coords(rng, dims, centers, span), -1) for _ in range(10)
    ]
    batched = provider.range_query_many(queries)
    assert len(batched) == len(queries)
    for (coords, exclude), got in zip(queries, batched):
        single = provider.range_query(coords, exclude_oid=exclude)
        assert [o.oid for o in got] == [o.oid for o in single], (
            f"{backend}/{arm}/{dims}d seed={seed}: batched order "
            "diverged from single queries"
        )
        want = {o.oid for o in oracle.range_query(coords, exclude)}
        assert {o.oid for o in got} == want
    return next_oid


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("arm", KERNEL_ARMS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_randomized_sequences_match_linear_oracle(
    backend, arm, dims, seed, kernel_arm
):
    with kernel_arm(arm):
        inserted = run_sequence(backend, arm, dims, seed)
    assert inserted > 0  # the sequence actually exercised the provider


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_remove_missing_raises_like_oracle(backend):
    provider = build_provider(backend, 0.5, 2)
    oracle = LinearOracle(0.5)
    (obj,) = make_objects([(1.0, 1.0)])
    with pytest.raises(KeyError):
        provider.remove(obj)
    with pytest.raises(KeyError):
        oracle.remove(obj)
    provider.insert(obj)
    oracle.insert(obj)
    with pytest.raises(KeyError):
        provider.insert(obj)
    with pytest.raises(KeyError):
        oracle.insert(obj)


# ----------------------------------------------------------------------
# Bucket birth / death regressions: purges and re-occupied cells
# ----------------------------------------------------------------------


def test_purge_emptying_bucket_drops_it_from_neighbor_walks():
    """A purge that empties a bucket unlinks it without clearing the
    list, so a walk that still reached the dead list would keep
    reporting the expired objects: the death must reach the trie."""
    grid = GridIndex(0.5, 2)
    keeper, doomed = make_objects([(0.1, 0.1), (0.6, 0.1)])
    keeper.last_window = 9
    doomed.last_window = 1
    grid.insert(keeper)
    grid.insert(doomed)
    # doomed is a neighbor (distance 0.5 == theta, boundary inclusive).
    first = {o.oid for o in grid.range_query(keeper.coords)}
    assert first == {keeper.oid, doomed.oid}
    assert grid.purge_expired(2) == 1
    again = {o.oid for o in grid.range_query(keeper.coords)}
    assert again == {keeper.oid}, "stale purged bucket still reachable"
    assert_trie_mirrors_cells(grid)


def test_purge_keeping_bucket_nonempty_stays_transparent():
    """Partial purges rewrite the bucket in place; the trie aliases the
    same list, so walks read the shrunken bucket with no hook at all."""
    grid = GridIndex(0.5, 2)
    survivor, expiring = make_objects([(0.6, 0.1), (0.58, 0.12)])
    (probe,) = make_objects([(0.1, 0.1)])
    probe.oid = 99
    survivor.last_window = 9
    expiring.last_window = 1
    probe.last_window = 9
    for obj in (probe, survivor, expiring):
        grid.insert(obj)
    assert {o.oid for o in grid.range_query(probe.coords)} == {
        probe.oid,
        survivor.oid,
        expiring.oid,
    }
    shared = grid._cells[grid.cell_coord(survivor.coords)]
    assert grid.purge_expired(2) == 1
    assert {o.oid for o in grid.range_query(probe.coords)} == {
        probe.oid,
        survivor.oid,
    }
    assert grid._cells[grid.cell_coord(survivor.coords)] is shared, (
        "partial purge should have rewritten the bucket in place"
    )
    assert_trie_mirrors_cells(grid)


def test_reoccupied_cell_is_walked_as_the_new_bucket():
    """Emptying a cell by removal then re-occupying it creates a fresh
    bucket object: the death must have unlinked the old one and the
    birth must link the new one."""
    grid = GridIndex(0.5, 2)
    anchor, transient = make_objects([(0.1, 0.1), (0.6, 0.1)])
    grid.insert(anchor)
    grid.insert(transient)
    assert {o.oid for o in grid.range_query(anchor.coords)} == {0, 1}
    grid.remove(transient)
    assert {o.oid for o in grid.range_query(anchor.coords)} == {0}
    assert_trie_mirrors_cells(grid)
    (newcomer,) = make_objects([(0.6, 0.1)])
    newcomer.oid = 7
    grid.insert(newcomer)
    assert {o.oid for o in grid.range_query(anchor.coords)} == {0, 7}, (
        "re-occupied neighboring cell invisible to the walk"
    )
    assert_trie_mirrors_cells(grid)


def test_purge_empty_bucket_edge_randomized():
    """Seeded schedule engineered around the purge-empties-bucket edge:
    every window, some cells lose their whole bucket while base cells
    next door keep querying — replayed against the oracle."""
    rng = random.Random(13)
    theta = 0.5
    grid = GridIndex(theta, 2)
    oracle = LinearOracle(theta)
    next_oid = 0
    emptied = 0
    for window in range(1, 12):
        occupied_before = set(grid.occupied_cells())
        purged = grid.purge_expired(window)
        assert purged == oracle.purge_expired(window)
        emptied += len(occupied_before - set(grid.occupied_cells()))
        assert_trie_mirrors_cells(grid)
        for _ in range(12):
            # Half the objects die next window, clustered in few cells:
            # bucket-emptying purges every slide.
            coords = (rng.uniform(0, 1.5), rng.uniform(0, 1.5))
            obj = StreamObject(next_oid, coords)
            obj.first_window = window
            obj.last_window = window + (0 if rng.random() < 0.5 else 2)
            next_oid += 1
            grid.insert(obj)
            oracle.insert(obj)
        for obj in list(oracle.objects.values())[:8]:
            _check_query(
                grid, oracle, obj.coords, obj.oid, f"window={window}"
            )
    assert emptied > 0  # the edge was really exercised
