"""Unit tests for Pattern Base persistence: dumps are SQLite files."""

import pytest

from tests.helpers import (
    clustered_points,
    reloaded,
    roundtrip_bytes,
    stream_batches,
)
from repro.archive.pattern_base import PatternBase
from repro.archive.persistence import dump_pattern_base, load_pattern_base
from repro.core.csgs import CSGS
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.engine import MatchEngine


def _populated(seed=1):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0)], per_cluster=250, noise=100, seed=seed
    )
    base = PatternBase()
    csgs = CSGS(0.35, 5, 2)
    last = None
    for batch in stream_batches(points, 300, 100):
        last = csgs.process_batch(batch)
        for cluster, sgs in zip(last.clusters, last.summaries):
            base.add(sgs, cluster.size)
    return base, last


def test_roundtrip_preserves_patterns(tmp_path):
    base, _ = _populated()
    path = tmp_path / "history.db"
    written = dump_pattern_base(base, path)
    assert written == path.stat().st_size
    loaded = load_pattern_base(path)
    assert len(loaded) == len(base)
    for pattern in base.all_patterns():
        restored = loaded.get(pattern.pattern_id)
        assert restored is not None
        assert restored.full_size == pattern.full_size
        assert restored.features == pattern.features
        assert restored.mbr == pattern.mbr
        assert set(restored.sgs.cells) == set(pattern.sgs.cells)


def test_roundtrip_preserves_byte_accounting():
    base, _ = _populated(seed=2)
    loaded = reloaded(base)
    assert loaded.summary_bytes() == base.summary_bytes()


def test_loaded_base_answers_queries_identically():
    base, last = _populated(seed=3)
    loaded = reloaded(base)
    spec = DistanceMetricSpec()
    query = last.summaries[0]
    original_results, _ = MatchEngine(base, spec).match_sgs(query, 0.3)
    loaded_results, _ = MatchEngine(loaded, spec).match_sgs(query, 0.3)
    assert [
        (r.pattern.pattern_id, round(r.distance, 9)) for r in original_results
    ] == [
        (r.pattern.pattern_id, round(r.distance, 9)) for r in loaded_results
    ]


def test_new_patterns_get_fresh_ids_after_load():
    base, last = _populated(seed=4)
    loaded = reloaded(base)
    new_pattern = loaded.add(last.summaries[0], 10)
    assert new_pattern.pattern_id == max(
        p.pattern_id for p in base.all_patterns()
    ) + 1


def test_empty_base_roundtrip():
    loaded = reloaded(PatternBase())
    assert len(loaded) == 0


def test_garbage_rejected(tmp_path):
    path = tmp_path / "junk.db"
    path.write_bytes(b"JUNKJUNKJUNK" * 100)
    with pytest.raises(ValueError, match="junk.db"):
        load_pattern_base(path)


def test_truncated_rejected(tmp_path):
    base, _ = _populated(seed=5)
    path = tmp_path / "history.db"
    dump_pattern_base(base, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        load_pattern_base(path)


def test_unknown_version_rejected(tmp_path):
    """A file of the retired binary dump format is refused cleanly."""
    import struct

    path = tmp_path / "history.sgsa"
    path.write_bytes(b"SGSA" + struct.pack("<II", 99, 0))
    with pytest.raises(ValueError):
        load_pattern_base(path)


def test_coarse_match_leaves_the_dump_unchanged():
    """Matching only reads the archive: coarse matches in both phases
    build ladder rungs in the engine, and the dump is byte-identical."""
    from repro.retrieval import MatchQuery

    base, last = _populated(seed=8)
    before = roundtrip_bytes(base)
    engine = MatchEngine(base, min_coarse_cells=1)
    for metric in (
        DistanceMetricSpec(), DistanceMetricSpec(position_sensitive=True)
    ):
        engine.match(
            MatchQuery(
                sgs=last.summaries[0], threshold=0.5, metric=metric,
                coarse_level=2,
            )
        )
    assert {canonical for _, canonical in engine._ladders} == {True, False}
    assert roundtrip_bytes(base) == before


# ----------------------------------------------------------------------
# The persisted inverted cell-signature index
# ----------------------------------------------------------------------


def _populated_inverted(seed=9, levels=(1, 2)):
    base, last = _populated(seed=seed)
    base.enable_inverted(levels)
    return base, last


def test_v3_roundtrip_restores_inverted_index():
    """The inverted section of the retired v3 format is the dump's
    postings table now: a reload rebuilds identical signatures."""
    base, _ = _populated_inverted()
    loaded = reloaded(base)
    original = base.inverted_index()
    restored = loaded.inverted_index()
    assert restored is not None
    assert restored.levels == original.levels
    assert restored.factor == original.factor
    assert len(restored) == len(original)
    for pattern in base.all_patterns():
        for level in original.levels:
            assert restored.signature(
                pattern.pattern_id, level
            ).cells == original.signature(pattern.pattern_id, level).cells


def test_v3_without_inverted_has_no_index():
    """A dump with no postings loads without an inverted index."""
    base, _ = _populated(seed=11)
    assert reloaded(base).inverted_index() is None


def test_sharded_base_dump_equals_flat_dump():
    """A sharded archive holds the same canonical bytes as the flat
    archive it partitions, so shard layout is a serving-time choice,
    not a storage format."""
    from repro.retrieval import ShardedPatternBase

    base, _ = _populated_inverted(seed=14, levels=(1,))
    flat = roundtrip_bytes(base)
    for key in ("window", "feature"):
        sharded = ShardedPatternBase.from_base(base, 3, key)
        assert roundtrip_bytes(sharded) == flat
    loaded = reloaded(base)
    resharded = ShardedPatternBase.from_base(loaded, 2, "window")
    assert len(resharded) == len(base)
    assert resharded.inverted_index() is not None
