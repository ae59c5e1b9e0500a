"""The grid's coordinate trie against the offset-table walk it replaced.

``reference_reachable_buckets`` (``tests/helpers.py``) is the old cold
walk, verbatim: one probe of the cell map per offset of the
sphere-pruned table. The trie walk, pruned by its own gap budget, must
hand back the same buckets — the very list objects — under the same
offsets in the same order, whatever births and deaths came before, and
its cost must follow what is occupied rather than the size of the
table. Above 8-D, where the table cannot be built, the linear oracle
checks the answers. Costs are counted (dict probes, walks), never
timed.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import helpers
from tests.helpers import (
    KERNEL_ARMS,
    assert_trie_mirrors_cells,
    grid_offset_table,
    stamped,
    trie_leaves,
)
from tests.test_oracle_stress import LinearOracle
from repro.index.grid_index import GridIndex


class CountingDict(dict):
    """A trie node that counts the probes a walk makes."""

    probes = 0

    def get(self, key, default=None):
        CountingDict.probes += 1
        return super().get(key, default)


def walk_probes(grid, base):
    """Dict probes one walk from ``base`` performs (the trie is
    swapped for counting nodes for the duration of the walk)."""

    def counting(node, depth):
        if depth == grid.dimensions:
            return node
        return CountingDict(
            (value, counting(child, depth + 1)) for value, child in node.items()
        )

    plain, grid._trie = grid._trie, counting(grid._trie, 0)
    CountingDict.probes = 0
    try:
        grid._reachable_buckets(base)
    finally:
        grid._trie = plain
    return CountingDict.probes


# ----------------------------------------------------------------------
# State test: births, deaths and queries interleaved, 1-5 D
# ----------------------------------------------------------------------


@st.composite
def grid_histories(draw):
    """``(dims, θr, ops)``: Hypothesis picks the shape, a seeded
    ``random.Random`` fills it. Points crowd a few cells around a
    centre at or below zero (shared prefixes, cells within reach of each
    other, negative coordinates) with a far-flung minority; lifespans
    are short, so purges empty whole cells."""
    dims = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 40 if dims < 5 else 16))
    spread = draw(st.sampled_from([1.0, 3.0]))  # in cells
    mix = draw(st.sampled_from(["grow", "churn"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    theta = 0.5
    side = theta / math.sqrt(dims)
    center = [rng.uniform(-3.0, 1.0) for _ in range(dims)]
    kinds = ["insert"] * (6 if mix == "grow" else 3) + [
        "remove", "purge", "query", "query_many",
    ]
    ops = []
    for _ in range(steps):
        kind = rng.choice(kinds)
        if kind == "insert":
            reach = spread * side if rng.random() < 0.85 else 40 * side
            coords = tuple(c + rng.uniform(-reach, reach) for c in center)
            ops.append((kind, coords, rng.randint(0, 3)))
        elif kind == "query_many":
            ops.append((kind, rng.randint(1, 6), rng.random()))
        else:
            ops.append((kind, rng.random()))
    return dims, theta, ops


def _bases_to_check(grid, rng):
    """Every occupied base (a sample in 5-D, where the reference walk
    is 6095 probes) plus empty ones: next to occupied cells and far."""
    occupied = list(grid.occupied_cells())
    if grid.dimensions == 5 and len(occupied) > 4:
        occupied = rng.sample(occupied, 4)
    steps = range(-grid.reach - 1, grid.reach + 2)
    nearby = [
        tuple(c + rng.choice(steps) for c in coord) for coord in occupied[:3]
    ]
    return occupied + nearby + [(1000,) * grid.dimensions]


@given(grid_histories())
@settings(max_examples=120, deadline=None)
def test_trie_walk_equals_table_walk_through_births_and_deaths(history):
    dims, theta, ops = history
    grid = GridIndex(theta, dims)
    oracle = LinearOracle(theta)
    rng = random.Random(len(ops))
    window = 0
    next_oid = 0

    def probe_of(pick):
        alive = list(oracle.objects.values())
        if not alive:
            return (0.0,) * dims, -1
        obj = alive[int(pick * len(alive))]
        return obj.coords, obj.oid

    def same_answer(answer, coords, oid):
        assert sorted(o.oid for o in answer) == sorted(
            o.oid for o in oracle.range_query(coords, oid)
        )

    for op in ops:
        if op[0] == "insert":
            obj = stamped(next_oid, op[1], window, window + op[2])
            next_oid += 1
            grid.insert(obj)
            oracle.insert(obj)
        elif op[0] == "remove" and oracle.objects:
            obj = list(oracle.objects.values())[int(op[1] * len(oracle))]
            grid.remove(obj)
            oracle.remove(obj)
        elif op[0] == "purge":
            window += 1
            assert grid.purge_expired(window) == oracle.purge_expired(window)
        elif op[0] == "query":
            coords, oid = probe_of(op[1])
            same_answer(grid.range_query(coords, oid), coords, oid)
        elif op[0] == "query_many":
            batch = [probe_of((op[2] + i / op[1]) % 1.0) for i in range(op[1])]
            for answer, (coords, oid) in zip(grid.range_query_many(batch), batch):
                same_answer(answer, coords, oid)
        assert len(grid) == len(oracle)
        assert_trie_mirrors_cells(grid, _bases_to_check(grid, rng))


@pytest.fixture
def offset_tables():
    """Drop the memoized reference tables after the test: from 7-D on
    they hold hundreds of MB (the 8-D cube is 5.8 M offsets)."""
    yield
    helpers._FULL_OFFSETS.clear()
    helpers._PRUNED_OFFSETS.clear()


@pytest.mark.parametrize("dims", (1, 2, 3, 4, 5, 6, 7, 8))
def test_walk_order_and_pruning_on_a_full_cube(dims, offset_tables):
    """Every cell of the ``(2*reach + 3)^d`` cube around the base is
    occupied (five values per axis in 5-D, where the cube would be
    59 049 cells, and three from 6-D on): the walk returns the whole
    offset table, in table order — and from 5-D on none of the offsets
    the sphere prunes (10 712 of 16 807 in 5-D)."""
    grid = GridIndex(0.5, dims)
    width = grid.reach + 1
    if dims < 5:
        axis = range(-width, width + 1)
    elif dims == 5:
        axis = (-width, -grid.reach, 0, 1, grid.reach)
    else:
        axis = (-grid.reach, 0, grid.reach)
    for oid, cell in enumerate(itertools.product(axis, repeat=dims)):
        grid.insert(stamped(oid, [(c + 0.5) * grid.side for c in cell], 0, 9))
    base = (0,) * dims
    walked = grid._reachable_buckets(base)
    assert_trie_mirrors_cells(grid, [base])
    table = grid_offset_table(grid)
    in_table = set(table)
    assert [offset for offset, _ in walked] == [
        offset
        for offset in itertools.product(axis, repeat=dims)
        if offset in in_table
    ]
    if dims < 5:
        assert len(walked) == len(table) == (2 * grid.reach + 1) ** dims
    else:
        assert 0 < len(walked) < len(axis) ** dims


@pytest.mark.parametrize("dims", (9, 12, 16))
@pytest.mark.parametrize("arm", KERNEL_ARMS)
def test_grid_answers_like_the_linear_oracle_above_8d(dims, arm, kernel_arm):
    """Where no offset table fits in memory the grid still builds and
    answers exactly: tight clusters (many neighbours per probe, cells
    several steps apart on a few axes) plus a uniform background."""
    rng = random.Random(dims)
    theta = 1.0
    centres = [[rng.uniform(0.0, 4.0) for _ in range(dims)] for _ in range(3)]
    with kernel_arm(arm):
        grid = GridIndex(theta, dims)
        oracle = LinearOracle(theta)
        for oid in range(400):
            if oid % 4:
                centre = centres[oid % 3]
                coords = tuple(rng.gauss(c, 0.15) for c in centre)
            else:
                coords = tuple(rng.uniform(0.0, 4.0) for _ in range(dims))
            obj = stamped(oid, coords, 0, 9)
            grid.insert(obj)
            oracle.insert(obj)
        batch = [(obj.coords, obj.oid) for obj in list(oracle.objects.values())[::3]]
        batch += [
            (tuple(rng.uniform(0.0, 4.0) for _ in range(dims)), -1)
            for _ in range(2)
        ]
        answers = grid.range_query_many(batch)
        neighbours = 0
        for (coords, oid), many in zip(batch, answers):
            want = sorted(o.oid for o in oracle.range_query(coords, oid))
            assert sorted(o.oid for o in many) == want
            assert sorted(o.oid for o in grid.range_query(coords, oid)) == want
            neighbours += len(want)
        assert neighbours > len(batch)  # the probes really have neighbours
    assert len(GridIndex(theta, 32)._reachable_buckets((0,) * 32)) == 0


# ----------------------------------------------------------------------
# Deaths: the leaf and every ancestor it leaves empty
# ----------------------------------------------------------------------


def test_remove_emptying_a_cell_prunes_its_whole_branch():
    grid = GridIndex(0.5, 4)
    lone, a, b = (
        stamped(0, (5.0, 5.0, 5.0, 5.0), 0, 9),
        stamped(1, (0.1, 0.1, 0.1, 0.1), 0, 9),
        stamped(2, (0.1, 0.1, 0.1, 0.4), 0, 9),  # same first three axes
    )
    for obj in (lone, a, b):
        grid.insert(obj)
    assert len(grid._trie) == 2
    grid.remove(lone)
    assert_trie_mirrors_cells(grid)
    assert len(grid._trie) == 1, "the emptied branch survived up to the root"
    grid.remove(a)  # its siblings keep the shared ancestors alive
    assert_trie_mirrors_cells(grid)
    assert grid.range_query(b.coords) == [b]
    grid.remove(b)
    assert grid._trie == {} and len(grid) == 0


def test_purge_emptying_cells_prunes_their_branches():
    grid = GridIndex(0.5, 3)
    doomed = [stamped(i, (i * 2.0, 0.1, 0.1), 0, 1) for i in range(4)]
    keeper = stamped(9, (0.1, 0.1, 0.1), 0, 9)  # shares doomed[0]'s cell
    for obj in doomed + [keeper]:
        grid.insert(obj)
    assert grid.purge_expired(2) == 4
    assert_trie_mirrors_cells(grid)
    assert list(trie_leaves(grid)) == [grid.cell_coord(keeper.coords)]
    assert grid.range_query(keeper.coords) == [keeper]


# ----------------------------------------------------------------------
# Insert is all-or-nothing on a coordinate that has no cell
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")))
def test_insert_refuses_non_finite_coordinate_before_touching_anything(bad):
    grid = GridIndex(0.5, 2)
    grid.insert(stamped(0, (0.1, 0.1), 0, 9))
    with pytest.raises(ValueError, match="object 1 .*non-finite"):
        grid.insert(stamped(1, (0.2, bad), 0, 9))
    assert len(grid) == len(grid._store) == len(trie_leaves(grid)) == 1
    assert_trie_mirrors_cells(grid)
    # The refused oid is not half-stored: it inserts once it has a cell.
    grid.insert(stamped(1, (0.2, 0.2), 0, 9))
    assert {o.oid for o in grid.range_query((0.1, 0.1))} == {0, 1}


# ----------------------------------------------------------------------
# Counts: walks per batch, probes per walk
# ----------------------------------------------------------------------


def test_batch_walks_once_per_distinct_base_cell():
    rng = random.Random(5)
    grid = GridIndex(0.5, 2)
    objects = [
        stamped(i, (rng.uniform(-2, 2), rng.uniform(-2, 2)), 0, 9)
        for i in range(120)
    ]
    for obj in objects:
        grid.insert(obj)
    batch = [(obj.coords, obj.oid) for obj in objects]
    distinct = {grid.cell_coord(coords) for coords, _ in batch}
    assert len(distinct) < len(batch)  # several probes and octants per cell
    before = grid.stats["walks"]
    grid.range_query_many(batch)
    assert grid.stats["walks"] - before == len(distinct)
    grid.range_query(objects[0].coords)
    assert grid.stats["walks"] - before == len(distinct) + 1


def test_walk_probes_follow_occupancy_not_the_offset_table():
    # 4-D, k mutually unreachable cells: one populated prefix per level.
    grid = GridIndex(0.5, 4)
    per_level = 2 * grid.reach + 1
    for i in range(12):
        grid.insert(stamped(i, (i * 10.0, -i * 10.0, i * 10.0, 0.1), 0, 9))
    for base in grid.occupied_cells():
        assert len(grid._reachable_buckets(base)) == 1
        assert walk_probes(grid, base) <= per_level * 4  # the table: 625
    assert walk_probes(grid, (500, 500, 500, 500)) == per_level
    # 2-D, every cell occupied: the root plus five populated columns.
    dense = GridIndex(0.5, 2)
    cells = itertools.product(range(-4, 5), repeat=2)
    for i, (x, y) in enumerate(cells):
        dense.insert(stamped(i, ((x + 0.5) * dense.side, (y + 0.5) * dense.side), 0, 9))
    assert len(dense._reachable_buckets((0, 0))) == 25
    assert walk_probes(dense, (0, 0)) <= 30
