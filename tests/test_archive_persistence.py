"""Unit tests for Pattern Base persistence."""

import io

import pytest

from tests.helpers import clustered_points, roundtrip_bytes, stream_batches
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
    path = tmp_path / "history.sgsa"
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
    loaded = load_pattern_base(io.BytesIO(roundtrip_bytes(base)))
    assert loaded.summary_bytes() == base.summary_bytes()


def test_loaded_base_answers_queries_identically():
    base, last = _populated(seed=3)
    loaded = load_pattern_base(io.BytesIO(roundtrip_bytes(base)))
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
    loaded = load_pattern_base(io.BytesIO(roundtrip_bytes(base)))
    new_pattern = loaded.add(last.summaries[0], 10)
    assert new_pattern.pattern_id == max(
        p.pattern_id for p in base.all_patterns()
    ) + 1


def test_empty_base_roundtrip():
    loaded = load_pattern_base(io.BytesIO(roundtrip_bytes(PatternBase())))
    assert len(loaded) == 0


def test_garbage_rejected():
    with pytest.raises(ValueError):
        load_pattern_base(io.BytesIO(b"JUNKJUNKJUNK"))


def test_truncated_rejected():
    base, _ = _populated(seed=5)
    blob = roundtrip_bytes(base)
    with pytest.raises(ValueError):
        load_pattern_base(io.BytesIO(blob[: len(blob) // 2]))


def test_v2_roundtrip_preserves_ladder_hints():
    base, _ = _populated(seed=6)
    patterns = sorted(base.all_patterns(), key=lambda p: p.pattern_id)
    for i, pattern in enumerate(patterns):
        pattern.ladder_hint = i % 4
    loaded = load_pattern_base(io.BytesIO(roundtrip_bytes(base)))
    for pattern in patterns:
        assert loaded.get(pattern.pattern_id).ladder_hint == (
            pattern.ladder_hint
        )


def test_v1_archive_still_loads():
    """A version-1 file (no per-pattern ladder-hint byte) restores with
    cold hints and identical patterns."""
    import struct

    from repro.core.serialize import sgs_to_bytes

    base, _ = _populated(seed=7)
    patterns = sorted(base.all_patterns(), key=lambda p: p.pattern_id)
    out = [b"SGSA", struct.pack("<II", 1, len(patterns))]
    for pattern in patterns:
        blob = sgs_to_bytes(pattern.sgs)
        out.append(
            struct.pack(
                "<III", pattern.pattern_id, pattern.full_size, len(blob)
            )
        )
        out.append(blob)
    loaded = load_pattern_base(io.BytesIO(b"".join(out)))
    assert len(loaded) == len(base)
    for pattern in patterns:
        restored = loaded.get(pattern.pattern_id)
        assert restored.ladder_hint == 0
        assert restored.full_size == pattern.full_size
        assert set(restored.sgs.cells) == set(pattern.sgs.cells)


def test_unknown_version_rejected():
    import struct

    blob = b"SGSA" + struct.pack("<II", 99, 0)
    with pytest.raises(ValueError):
        load_pattern_base(io.BytesIO(blob))


def test_engine_caches_survive_reload():
    """The ladder hints written by a matching engine re-warm a fresh
    engine over the reloaded archive."""
    from repro.retrieval import MatchQuery

    base, last = _populated(seed=8)
    engine = MatchEngine(base, min_coarse_cells=1)
    engine.match(
        MatchQuery(sgs=last.summaries[0], threshold=0.5, coarse_level=1)
    )
    hints = sum(p.ladder_hint for p in base.all_patterns())
    assert hints > 0
    loaded = load_pattern_base(io.BytesIO(roundtrip_bytes(base)))
    fresh = MatchEngine(loaded)
    assert fresh.warm_ladders() == hints


# ----------------------------------------------------------------------
# Format v3: the persisted inverted cell-signature index
# ----------------------------------------------------------------------


def _populated_inverted(seed=9, levels=(1, 2)):
    base, last = _populated(seed=seed)
    base.enable_inverted(levels)
    return base, last


def test_v3_roundtrip_restores_inverted_index():
    base, _ = _populated_inverted()
    loaded = load_pattern_base(io.BytesIO(roundtrip_bytes(base)))
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


def test_v3_dump_is_byte_stable():
    base, _ = _populated_inverted(seed=10)
    blob = roundtrip_bytes(base)
    assert roundtrip_bytes(load_pattern_base(io.BytesIO(blob))) == blob


def test_v3_without_inverted_has_no_index():
    base, _ = _populated(seed=11)
    loaded = load_pattern_base(io.BytesIO(roundtrip_bytes(base)))
    assert loaded.inverted_index() is None


def test_v2_archive_still_loads_and_rebuilds_inverted():
    """A version-2 file (no inverted section) restores cold; enabling
    the index rebuilds signatures identical to an always-on archive."""
    import struct

    from repro.core.serialize import sgs_to_bytes

    base, _ = _populated_inverted(seed=12, levels=(1,))
    patterns = sorted(base.all_patterns(), key=lambda p: p.pattern_id)
    out = [b"SGSA", struct.pack("<II", 2, len(patterns))]
    for pattern in patterns:
        blob = sgs_to_bytes(pattern.sgs)
        out.append(
            struct.pack(
                "<IIBI",
                pattern.pattern_id,
                pattern.full_size,
                pattern.ladder_hint,
                len(blob),
            )
        )
        out.append(blob)
    loaded = load_pattern_base(io.BytesIO(b"".join(out)))
    assert len(loaded) == len(base)
    assert loaded.inverted_index() is None
    rebuilt = loaded.enable_inverted((1,))
    original = base.inverted_index()
    for pattern in patterns:
        assert rebuilt.signature(
            pattern.pattern_id, 1
        ).cells == original.signature(pattern.pattern_id, 1).cells


def test_truncated_inverted_section_rejected():
    base, _ = _populated_inverted(seed=13)
    blob = roundtrip_bytes(base)
    with pytest.raises(ValueError):
        load_pattern_base(io.BytesIO(blob[:-5]))


def test_sharded_base_dump_equals_flat_dump():
    """Persisting a sharded archive writes the same bytes as the flat
    archive it partitions (patterns serialize in id order either way),
    so shard layout is a serving-time choice, not a storage format."""
    from repro.retrieval import ShardedPatternBase

    base, _ = _populated_inverted(seed=14, levels=(1,))
    flat = roundtrip_bytes(base)
    for key in ("window", "feature"):
        sharded = ShardedPatternBase.from_base(base, 3, key)
        assert roundtrip_bytes(sharded) == flat
    loaded = load_pattern_base(io.BytesIO(flat))
    resharded = ShardedPatternBase.from_base(loaded, 2, "window")
    assert len(resharded) == len(base)
    assert resharded.inverted_index() is not None
