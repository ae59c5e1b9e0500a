"""Golden-output regression for the archive matching engine.

``tests/golden/archive_matches_stt.json`` pins the retrieval engine's
byte-exact answers — threshold and top-k matching, both metric modes,
coarse entry on and off, and a window-constrained query — over a
*persisted* Pattern Base built from the Figure-7 ``stt_small``
workload. A mismatch means the planner, the screens, the coarse-to-fine
ladder, the distance metrics, or persistence changed observable
retrieval output; regenerate only for intentional changes
(``PYTHONPATH=src python tests/golden/regen_golden.py``).
"""

import json

import pytest

from tests.golden import workload


@pytest.fixture(scope="module")
def golden_text():
    assert workload.MATCH_PATH.exists(), (
        "golden fixture archive_matches_stt.json missing; run "
        "`PYTHONPATH=src python tests/golden/regen_golden.py`"
    )
    return workload.MATCH_PATH.read_text()


def test_engine_reproduces_golden_match_output(golden_text):
    got = workload.render(workload.run_match_trace())
    assert got == golden_text, (
        "retrieval engine diverged from the golden archive-match output"
    )


def test_golden_match_fixture_is_nontrivial(golden_text):
    """Guard against silently regenerating a degenerate fixture: the
    panel must exercise both entry indices, produce real matches, and
    show the index actually pruning candidates."""
    trace = json.loads(golden_text)
    assert len(trace) >= 12
    entries = {item["entry"] for item in trace}
    assert "rtree" in entries
    assert "feature-grid" in entries
    assert any(item["matches"] for item in trace)
    archive_sizes = {item["gathered"] for item in trace}
    assert len(archive_sizes) > 1  # gather sizes vary with the query
    pruned = [
        item for item in trace if item["gathered"] < max(archive_sizes)
    ]
    assert pruned, "no query showed index pruning"
    # Coarse entry never changes answers: same panel modulo the coarse
    # flag must return identical matches.
    by_key = {}
    for item in trace:
        if "windows" in item:
            continue
        key = (item["query"], item["mode"], item["threshold"], item["top"])
        by_key.setdefault(key, []).append(item["matches"])
    for key, match_lists in by_key.items():
        assert all(m == match_lists[0] for m in match_lists), (
            f"coarse entry changed answers for {key}"
        )


# ----------------------------------------------------------------------
# The sharded-serving fixture
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_golden_text():
    assert workload.SHARDED_MATCH_PATH.exists(), (
        "golden fixture archive_matches_sharded.json missing; run "
        "`PYTHONPATH=src python tests/golden/regen_golden.py`"
    )
    return workload.SHARDED_MATCH_PATH.read_text()


def test_sharded_engine_reproduces_golden_output(sharded_golden_text):
    """Partition-parallel ``match_many`` over the persisted archive
    must stay byte-stable — shard planning, the per-shard inverted
    screens, the thread-pooled fan-out, and the deterministic merge all
    sit under this pin."""
    got = workload.render(workload.run_sharded_match_trace())
    assert got == sharded_golden_text, (
        "sharded serving diverged from the golden output"
    )


def test_sharded_golden_matches_single_engine_fixture(
    golden_text, sharded_golden_text
):
    """Sharding is execution strategy, not semantics: for every pinned
    (query, mode, coarse, threshold, top) combination, every shard
    layout's matches must equal the single-engine fixture's matches."""
    single = {
        (
            item["query"], item["mode"], item["coarse"],
            item["threshold"], item["top"],
        ): item["matches"]
        for item in json.loads(golden_text)
        if "windows" not in item
    }
    sharded = json.loads(sharded_golden_text)
    assert len(sharded) >= 32
    layouts = {(item["key"], item["shards"]) for item in sharded}
    assert len(layouts) >= 4, "fixture must pin several shard layouts"
    for item in sharded:
        key = (
            item["query"], item["mode"], item["coarse"],
            item["threshold"], item["top"],
        )
        assert item["matches"] == single[key], (
            f"sharded layout {item['key']}x{item['shards']} diverged "
            f"from the single engine on {key}"
        )
        assert len(item["entries"]) == item["shards"]
    assert any(item["matches"] for item in sharded)
    # The inverted screen actually served the coarse feature queries.
    assert any(
        item["coarse_screen"] == "inverted" for item in sharded
    ), "no pinned query exercised the inverted screen"
