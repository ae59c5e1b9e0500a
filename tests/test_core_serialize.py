"""Unit tests for SGS serialization (binary and JSON round-trips)."""

import itertools
import multiprocessing
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    cell_constructions,
    clustered_points,
    metric_specs,
    reference_anytime_search,
    reference_cell_level_distance,
    reference_cell_table,
    reference_coarsen_sgs,
    reference_sgs_from_bytes,
    reference_sgs_to_bytes,
    stream_batches,
    summaries,
    summary_pairs,
)
from repro.archive.pattern_base import PatternBase
from repro.core.cells import CellStatus, SkeletalGridCell, connection_block
from repro.core.csgs import CSGS
from repro.core.multires import coarsen_sgs
from repro.core.regenerate import regenerate_cluster
from repro.core.serialize import (
    sgs_from_bytes,
    sgs_from_dict,
    sgs_from_json,
    sgs_to_bytes,
    sgs_to_dict,
    sgs_to_json,
)
from repro.core.sgs import SGS
from repro.eval.memory import sgs_bytes
from repro.matching.alignment import anytime_alignment_search
from repro.matching.cell_match import cell_level_distance
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.inverted import canonical_origin


def _summaries(seed=1, dims=2):
    if dims == 2:
        points = clustered_points(
            [(2.0, 2.0), (5.0, 4.0)], per_cluster=250, noise=100, seed=seed
        )
        csgs = CSGS(0.35, 5, 2)
    else:
        import random

        rng = random.Random(seed)
        points = [
            tuple(rng.gauss(0.5, 0.1) for _ in range(dims))
            for _ in range(400)
        ]
        csgs = CSGS(0.15, 5, dims)
    result = []
    for batch in stream_batches(points, 300, 100):
        result.extend(csgs.process_batch(batch).summaries)
    return result


def _equal(a, b):
    if abs(a.side_length - b.side_length) > 1e-12:
        return False
    if (a.level, a.cluster_id, a.window_index) != (
        b.level,
        b.cluster_id,
        b.window_index,
    ):
        return False
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
    return True


def test_json_roundtrip():
    for sgs in _summaries():
        assert _equal(sgs, sgs_from_json(sgs_to_json(sgs)))


def test_dict_roundtrip():
    for sgs in _summaries(seed=2):
        assert _equal(sgs, sgs_from_dict(sgs_to_dict(sgs)))


def test_binary_roundtrip():
    for sgs in _summaries(seed=3):
        assert _equal(sgs, sgs_from_bytes(sgs_to_bytes(sgs)))


def test_binary_roundtrip_4d():
    for sgs in _summaries(seed=4, dims=4):
        assert _equal(sgs, sgs_from_bytes(sgs_to_bytes(sgs)))


def test_binary_size_tracks_cost_model():
    """Real serialized bytes must stay within ~2x of the paper-style
    byte accounting (the model charges a fixed 2-byte connection block;
    the codec stores exact offsets)."""
    for sgs in _summaries(seed=5):
        real = len(sgs_to_bytes(sgs))
        model = sgs_bytes(sgs)
        assert real < 3 * model + 64
        assert real > 0.5 * model


def test_binary_rejects_garbage():
    with pytest.raises(ValueError):
        sgs_from_bytes(b"NOPE" + b"\x00" * 64)


def test_json_is_deterministic():
    sgs = _summaries(seed=6)[0]
    assert sgs_to_json(sgs) == sgs_to_json(sgs)


def test_multires_roundtrip():
    from repro.core.multires import coarsen_sgs

    sgs = max(_summaries(seed=7), key=len)
    coarse = coarsen_sgs(sgs, 3)
    assert _equal(coarse, sgs_from_bytes(sgs_to_bytes(coarse)))


# ----------------------------------------------------------------------
# Rows in, rows out: no codec builds a cell object
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(summaries))
def test_blob_roundtrip_never_builds_absolute_connections(sgs):
    blob = sgs_to_bytes(sgs)
    with cell_constructions() as built:
        hydrated = sgs_from_bytes(blob)
        assert sgs_to_bytes(hydrated) == blob
        parsed = sgs_from_dict(sgs_to_dict(hydrated))
        assert sgs_to_bytes(parsed) == blob
        assert hydrated.rows == parsed.rows == sgs.rows
        assert built == [0]
    # Asking for the view does not change what the summary stores.
    assert _equal(sgs, hydrated) and _equal(sgs, reference_sgs_from_bytes(blob))
    assert sgs_to_bytes(hydrated) == blob


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(summaries), metric_specs())
def test_hydrated_summary_behaves_as_the_original(sgs, spec):
    """Everything downstream of a stored summary — interchange dict,
    coarsening, canonical origin, regeneration, the match kernel and the
    cluster features — cannot tell a blob-decoded summary from the one
    built from absolute connections."""
    hydrated = sgs_from_bytes(sgs_to_bytes(sgs))
    assert sgs_to_dict(hydrated) == sgs_to_dict(sgs)
    assert sgs_to_dict(coarsen_sgs(hydrated, 3)) == sgs_to_dict(coarsen_sgs(sgs, 3))
    assert sgs_to_dict(canonical_origin(hydrated)) == sgs_to_dict(
        canonical_origin(sgs)
    )
    assert _regenerated(hydrated) == _regenerated(sgs)
    assert hydrated.average_connectivity() == sgs.average_connectivity()
    assert hydrated.is_connected() == sgs.is_connected()
    assert hydrated.cell_table() == sgs.cell_table()
    assert cell_level_distance(sgs, hydrated, spec) == 0.0
    assert cell_level_distance(hydrated, sgs, spec) == 0.0


def _regenerated(sgs):
    cluster = regenerate_cluster(sgs, seed=5)
    return [
        [(obj.oid, obj.coords) for obj in part]
        for part in (cluster.core_objects, cluster.edge_objects)
    ]


def _forms(sgs):
    """One summary reached five ways: as built, through the blob, through
    the interchange dict, through the cell view and through the
    cell-building decoder."""
    blob = sgs_to_bytes(sgs)
    placed = dict(
        level=sgs.level, cluster_id=sgs.cluster_id, window_index=sgs.window_index
    )
    return [
        sgs,
        sgs_from_bytes(blob),
        sgs_from_dict(sgs_to_dict(sgs)),
        SGS.from_cells(sgs.cells.values(), sgs.side_length, **placed),
        reference_sgs_from_bytes(blob),
    ]


def _assert_one_summary(forms):
    first = forms[0]
    table, coarse = reference_cell_table(first), reference_coarsen_sgs(first, 3)
    for form in forms:
        assert list(form.rows.items()) == list(first.rows.items())
        assert sgs_to_bytes(form) == sgs_to_bytes(first)
        assert sgs_to_dict(form) == sgs_to_dict(first)
        assert list(form.cell_table().items()) == list(table.items())
        assert list(coarsen_sgs(form, 3).rows.items()) == list(coarse.rows.items())
    assert reference_cell_table(coarse) == coarsen_sgs(first, 3).cell_table()


@settings(max_examples=60, deadline=None)
@given(summary_pairs(), metric_specs())
def test_every_form_of_a_summary_is_one_summary_to_the_kernel(pair, spec):
    """Rows, blob, dict, cell view and coarser level round-trip, and the
    match kernel returns the same floats, bit for bit, whichever form
    its two summaries came from — the floats of the cell-by-cell walk."""
    a, b = pair
    forms_a, forms_b = _forms(a), _forms(b)
    _assert_one_summary(forms_a)
    _assert_one_summary(forms_b)
    distance = reference_cell_level_distance(a.cells, b.cells, spec)
    found = reference_anytime_search(a, b, spec, max_expansions=3)
    for form_a, form_b in zip(forms_a, forms_b[1:] + forms_b[:1]):
        assert cell_level_distance(form_a, form_b, spec) == distance
        result = anytime_alignment_search(form_a, form_b, spec, max_expansions=3)
        assert (result.distance, result.alignment, result.evaluated) == found


def test_offsets_beyond_the_kernel_box_stay_exact_in_six_dimensions():
    """Above 5-D no offset owns a mask bit: every connection is an
    ``extras`` entry of the kernel row, and the forms still agree."""
    here, there = (0, 1, -2, 3, 0, 7), (9, 9, 9, 9, 9, 9)
    near = [(0, 1, -1, 3, 0, 7), (1, 2, -2, 3, -2, 5), (-128, 1, -2, 3, 0, 134)]
    a = SGS.from_cells(
        [
            SkeletalGridCell(here, 0.5, 4, CellStatus.CORE, near),
            SkeletalGridCell(near[0], 0.5, 1, CellStatus.EDGE),
        ],
        0.5,
    )
    b = SGS.from_cells(
        [
            SkeletalGridCell(here, 0.5, 3, CellStatus.CORE, near[:2]),
            SkeletalGridCell(there, 0.5, 2, CellStatus.CORE, [here]),
        ],
        0.5,
    )
    _assert_one_summary(_forms(a))
    _assert_one_summary(_forms(b))
    mask, extras = a.cell_table()[here][2:]
    assert mask == 0 and len(extras) == 3 and (-128, 0, 0, 0, 0, 127) in extras
    spec = DistanceMetricSpec()
    for form_a, form_b in zip(_forms(a), _forms(b)):
        assert cell_level_distance(form_a, form_b, spec) == (
            reference_cell_level_distance(a.cells, b.cells, spec)
        )


def _pickle_in_spawned_process(sgs):
    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        return pool.apply(pickle.dumps, (sgs,))


def test_pickle_roundtrip_with_and_without_a_built_table():
    """Summaries cross the process executor's ``spawn`` boundary by
    pickle, in either connection form, before or after a match built
    the packed table."""
    original = _summaries()[0]
    hydrated = sgs_from_bytes(sgs_to_bytes(original))
    for sgs in (original, hydrated):
        bare = pickle.loads(pickle.dumps(sgs))
        assert bare._table is None and _equal(sgs, bare)
        table = sgs.cell_table()
        built = pickle.loads(_pickle_in_spawned_process(sgs))
        assert built.cell_table() == table and _equal(sgs, built)
        assert sgs_to_bytes(built) == sgs_to_bytes(original)


def test_wire_connections_in_any_order_make_the_same_rows():
    """The block is sorted and holds each connection once, whatever
    order (or how often) a client lists them in."""
    sgs = max(_summaries(), key=len)
    data = sgs_to_dict(sgs)
    shuffled = dict(
        data,
        cells=[
            dict(cell, connections=cell["connections"][::-1] + cell["connections"][:1])
            for cell in data["cells"]
        ],
    )
    assert any(len(cell["connections"]) > 2 for cell in shuffled["cells"])
    assert sgs_from_dict(shuffled).rows == sgs.rows
    assert sgs_to_bytes(sgs_from_dict(shuffled)) == sgs_to_bytes(sgs)


def test_unstorable_connection_offsets_are_refused_at_parse():
    data = sgs_to_dict(_summaries()[0])
    cell = data["cells"][0]
    for offset in (-128, 127):
        ok = dict(data, cells=[dict(cell, connections=[
            [cell["location"][0] + offset, cell["location"][1]]
        ])])
        assert sgs_from_bytes(sgs_to_bytes(sgs_from_dict(ok))).cells
    for bad in (
        [[cell["location"][0] + 128, cell["location"][1]]],
        [[cell["location"][0], cell["location"][1] - 129]],
        [[cell["location"][0]]],  # wrong dimensionality
        [[cell["location"][0] + i, cell["location"][1]] for i in range(-128, 128)],
    ):
        with pytest.raises(ValueError):
            sgs_from_dict(dict(data, cells=[dict(cell, connections=bad)]))


# ----------------------------------------------------------------------
# The per-cell encoder against the per-connection one it replaced
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(summaries))
def test_encoder_bytes_equal_the_reference_in_both_cell_forms(sgs):
    """``summaries`` builds cells from absolute connection sets with
    offsets out to -128 / 127; decoding the blob gives the same summary
    straight from packed rows. Either way: the reference encoder's bytes."""
    blob = reference_sgs_to_bytes(sgs)
    assert sgs_to_bytes(sgs) == blob
    hydrated = sgs_from_bytes(blob)
    assert hydrated.rows == sgs.rows and _equal(sgs, hydrated)
    assert sgs_to_bytes(hydrated) == reference_sgs_to_bytes(hydrated) == blob


def _lone_cell(offsets, form):
    """A one-cell 4-D summary holding ``offsets``, built from a cell
    object or straight from a packed row."""
    here = (3, -7, 0, 120)
    neighbors = {tuple(h + o for h, o in zip(here, offset)) for offset in offsets}
    if form == "packed":
        row = (True, 9, connection_block(here, sorted(neighbors)))
        return SGS({here: row}, 0.5)
    cell = SkeletalGridCell(here, 0.5, 9, CellStatus.CORE, neighbors)
    return SGS.from_cells([cell], 0.5)


@pytest.mark.parametrize("form", ("absolute", "packed"))
def test_encoder_refuses_more_than_255_connections(form, tmp_path):
    """The dict path's refusal, word for word — where the old encoder
    let ``struct.error`` escape, and only from the store that encodes."""
    box = list(itertools.product(range(-2, 3), repeat=4))
    crowded = _lone_cell(box[:599], form)
    with pytest.raises(struct.error):
        reference_sgs_to_bytes(crowded)
    with pytest.raises(ValueError, match="up to 255 connections") as refusal:
        sgs_to_bytes(crowded)
    with pytest.raises(ValueError) as at_parse:
        sgs_from_dict(sgs_to_dict(crowded))
    assert str(refusal.value) == str(at_parse.value)
    with PatternBase(store=f"sqlite:{tmp_path / 'h.db'}") as base:
        with pytest.raises(ValueError, match="up to 255 connections"):
            base.add(crowded, 40)
        assert len(base) == 0
        base.add(_lone_cell(box[:255], form), 40)  # the limit itself fits
        assert len(base) == 1


@pytest.mark.parametrize("form", ("absolute", "packed"))
@pytest.mark.parametrize("stray", ((0, 0, 128, 0), (-129, 5, 5, 5), (1, 1, 1, 200)))
def test_encoder_names_the_first_offset_outside_the_byte_range(form, stray):
    offsets = [(-128, 0, 0, 127), (0, 1, 0, 0), stray, (127, 127, 127, 127)]
    fine = [offset for offset in offsets if offset != stray]
    assert sgs_to_bytes(_lone_cell(fine, form)) == reference_sgs_to_bytes(
        _lone_cell(fine, form)
    )
    with pytest.raises(ValueError) as expected:
        reference_sgs_to_bytes(_lone_cell(offsets, form))
    with pytest.raises(ValueError, match="out of byte range") as refusal:
        sgs_to_bytes(_lone_cell(offsets, form))
    assert str(refusal.value) == str(expected.value)
    assert str(list(stray)) in str(refusal.value)


@pytest.mark.parametrize(
    "location, population",
    [((2**31, 0), 1), ((0, -(2**31) - 1), 1), ((0, 0), 2**32), ((0.5, 0), 1)],
)
def test_encoder_and_parser_refuse_what_the_cell_head_cannot_hold(
    location, population, tmp_path
):
    """One refusal, word for word, from the row encoder and from the
    dict path — where ``struct.error`` used to escape the SQLite store
    and the memory store took the pattern."""
    fits = SGS({(2**31 - 1, -(2**31)): (True, 2**32 - 1, b"")}, 0.5)
    assert sgs_from_bytes(sgs_to_bytes(fits)).rows == fits.rows
    stray = SGS({location: (True, population, b"")}, 0.5)
    with pytest.raises(ValueError, match="int32 location") as refusal:
        sgs_to_bytes(stray)
    with pytest.raises(ValueError) as at_parse:
        sgs_from_dict(sgs_to_dict(stray))
    assert str(refusal.value) == str(at_parse.value)
    with PatternBase(store=f"sqlite:{tmp_path / 'h.db'}") as base:
        with pytest.raises(ValueError, match="int32 location"):
            base.add(stray, 40)
        assert len(base) == 0
