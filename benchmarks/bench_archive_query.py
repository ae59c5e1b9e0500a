"""Archive matching-query engine: filter-and-refine vs exhaustive scan.

Builds a Figure-7-style archive (real C-SGS output from the STT-like
4-D stream, scaled up with perturbed variants as in the Figure-8
matching bench) and serves a fixed panel of matching queries three
ways:

* **exhaustive** — cluster-feature distance + cell-level match over
  every archived pattern (the oracle the engine must agree with);
* **engine** — the planner-driven filter-and-refine path
  (``coarse_level=0``);
* **engine+coarse** — the same with the multi-resolution coarse entry
  (``coarse_level=1``).

Reported per mode: candidates examined (patterns touched by any
distance computation — the archive size for the exhaustive scan, the
index gather for the engine) and wall time, plus the batched
``match_many`` serving time for the whole panel.

``test_archive_query_engine_examines_fewer`` is the CI perf-smoke gate
(``pytest benchmarks -k archive``): it fails
if the engine's candidate count ever reaches the exhaustive count on
this archive, or if any mode disagrees with the exhaustive answers.
``test_archive_query_inverted_screens_fewer`` gates the inverted
cell-signature index the same way against the lazy-ladder screen: the
posting-list screen must evaluate strictly fewer candidates (fast
accepts ride the posting counters; only the rest touch a signature)
while returning identical answers, and the planner's ``inverted``
entry must gather no more than the scan it replaces.
``test_archive_query_disk_coarse_entry_hydrates_only_survivors`` gates
the coarse-rung cache on a disk-backed copy of the archive by counts:
a repeated position-sensitive panel coarsens no pattern and parses no
stored summary beyond the candidates it refines.
"""

from __future__ import annotations

import random
import time

from common import WIN, emit_bench_record, report, stt_points
from repro.archive.archiver import PatternArchiver
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS
from repro.core.features import ClusterFeatures
from repro.core.sgs import SGS
from repro.eval.harness import Table, fmt_seconds
from repro.matching.alignment import anytime_alignment_search
from repro.matching.metric import DistanceMetricSpec, cluster_feature_distance
from repro.retrieval import MatchEngine, MatchQuery
from repro.retrieval import engine as engine_module
from repro.retrieval.inverted import canonical_cell_signature
from repro.streams.source import ListSource
from repro.streams.windows import CountBasedWindowSpec, Windower

THETA_RANGE, THETA_COUNT = 0.1, 8
SLIDE = 500
MEASURE_WINDOWS = 4
ARCHIVE_SIZE = 300
THRESHOLD = 0.2
QUERY_COUNT = 6

_state = {}


def _perturbed_variant(sgs: SGS, rng: random.Random) -> SGS:
    """Translate + crop a real summary so the synthetic history is
    feature-diverse (what lets the indices prune; cf. Figure 8)."""
    shift = tuple(rng.randint(-40, 40) for _ in range(sgs.dimensions))
    view = sgs.cells  # one view: each read of ``sgs.cells`` rebuilds it
    locations = list(view)
    keep = max(1, int(round(len(locations) * rng.uniform(0.4, 1.0))))
    kept = set(rng.sample(locations, keep))
    if not any(view[loc].is_core for loc in kept):
        kept.add(
            next(loc for loc in locations if view[loc].is_core)
        )
    cells = []
    for loc in kept:
        cell = view[loc]
        moved = tuple(c + s for c, s in zip(loc, shift))
        connections = frozenset(
            tuple(c + s for c, s in zip(conn, shift))
            for conn in cell.connections
        )
        cells.append(
            type(cell)(
                moved, cell.side_length, cell.population, cell.status,
                connections,
            )
        )
    return SGS.from_cells(
        cells,
        sgs.side_length,
        level=sgs.level,
        cluster_id=sgs.cluster_id,
        window_index=rng.randrange(12),
    )


def _archive_and_queries():
    if "base" not in _state:
        rng = random.Random(17)
        points = stt_points(WIN + MEASURE_WINDOWS * SLIDE, seed=0)
        csgs = CSGS(THETA_RANGE, THETA_COUNT, 4)
        base = PatternBase()
        archiver = PatternArchiver(base)
        spec = CountBasedWindowSpec(win=WIN, slide=SLIDE)
        seeds = []
        produced = 0
        for batch in Windower(spec).batches(ListSource(points)):
            output = csgs.process_batch(batch)
            archiver.archive_output(output)
            seeds.extend(output.summaries)
            produced += 1
            if produced >= MEASURE_WINDOWS:
                break
        while len(base) < ARCHIVE_SIZE:
            base.add(
                _perturbed_variant(rng.choice(seeds), rng),
                rng.randrange(50, 500),
            )
        patterns = sorted(base.all_patterns(), key=lambda p: p.pattern_id)
        step = max(1, len(patterns) // QUERY_COUNT)
        queries = [p.sgs for p in patterns[::step][:QUERY_COUNT]]
        _state["base"] = base
        _state["queries"] = queries
    return _state["base"], _state["queries"]


def _run_exhaustive(base, query_sgs, threshold, spec):
    """The oracle: no index, no coarse entry; returns (pairs, examined)."""
    features = ClusterFeatures.from_sgs(query_sgs)
    mbr = query_sgs.mbr()
    results = []
    examined = 0
    for pattern in base.all_patterns():
        examined += 1
        coarse = cluster_feature_distance(
            features, pattern.features, spec, mbr, pattern.mbr
        )
        if coarse > threshold:
            continue
        distance = anytime_alignment_search(
            query_sgs, pattern.sgs, spec, max_expansions=32
        ).distance
        if distance <= threshold:
            results.append((pattern.pattern_id, round(distance, 12)))
    results.sort(key=lambda item: (item[1], item[0]))
    return results, examined


def _run_panel(base, queries, coarse_level):
    engine = MatchEngine(base)
    pairs = []
    examined = 0
    start = time.perf_counter()
    for query_sgs in queries:
        results, stats = engine.match(
            MatchQuery(
                sgs=query_sgs,
                threshold=THRESHOLD,
                coarse_level=coarse_level,
            )
        )
        examined += stats.gathered
        pairs.append(
            [(r.pattern.pattern_id, round(r.distance, 12)) for r in results]
        )
    return time.perf_counter() - start, examined, pairs


def test_archive_query_engine_examines_fewer(benchmark):
    """Perf + candidate-count smoke (CI): on the Figure-7 benchmark
    archive the filter-and-refine engine must examine strictly fewer
    candidates than the exhaustive scan and return identical answers,
    with and without the coarse entry."""
    base, queries = _archive_and_queries()
    spec = DistanceMetricSpec()
    start = time.perf_counter()
    exhaustive_pairs = []
    exhaustive_examined = 0
    for query_sgs in queries:
        pairs, examined = _run_exhaustive(base, query_sgs, THRESHOLD, spec)
        exhaustive_pairs.append(pairs)
        exhaustive_examined += examined
    t_exhaustive = time.perf_counter() - start

    t_engine, engine_examined, engine_pairs = _run_panel(base, queries, 0)
    t_coarse, coarse_examined, coarse_pairs = _run_panel(base, queries, 1)

    engine = MatchEngine(base)
    batch = [
        MatchQuery(sgs=q, threshold=THRESHOLD) for q in queries
    ]
    start = time.perf_counter()
    batched = engine.match_many(batch)
    t_batched = time.perf_counter() - start
    batched_pairs = [
        [(r.pattern.pattern_id, round(r.distance, 12)) for r in results]
        for results, _ in batched
    ]

    table = Table(
        "Archive matching queries — filter-and-refine vs exhaustive "
        f"scan ({len(base)} archived patterns, {len(queries)} queries, "
        f"threshold {THRESHOLD})",
        ["mode", "candidates examined", "wall time", "speedup"],
    )
    table.add_row(
        "exhaustive scan", exhaustive_examined, fmt_seconds(t_exhaustive),
        "1.00x",
    )
    table.add_row(
        "engine (coarse off)", engine_examined, fmt_seconds(t_engine),
        f"{t_exhaustive / max(t_engine, 1e-9):.2f}x",
    )
    table.add_row(
        "engine (coarse L1)", coarse_examined, fmt_seconds(t_coarse),
        f"{t_exhaustive / max(t_coarse, 1e-9):.2f}x",
    )
    table.add_row(
        "engine (batched)", engine_examined, fmt_seconds(t_batched),
        f"{t_exhaustive / max(t_batched, 1e-9):.2f}x",
    )
    report(table.render())
    for mode, wall, examined in (
        ("exhaustive", t_exhaustive, exhaustive_examined),
        ("engine", t_engine, engine_examined),
        ("engine+coarse", t_coarse, coarse_examined),
        ("engine+batched", t_batched, engine_examined),
    ):
        emit_bench_record(
            "query",
            "archive_query_panel",
            mode=mode,
            wall_time_s=round(wall, 6),
            candidates_examined=examined,
            archive_size=len(base),
            queries=len(queries),
            threshold=THRESHOLD,
        )

    assert engine_pairs == exhaustive_pairs, (
        "engine answers diverged from the exhaustive scan"
    )
    assert coarse_pairs == exhaustive_pairs, (
        "coarse-entry answers diverged from the exhaustive scan"
    )
    assert batched_pairs == exhaustive_pairs, (
        "batched answers diverged from the exhaustive scan"
    )
    assert engine_examined < exhaustive_examined, (
        f"engine examined {engine_examined} candidates, exhaustive scan "
        f"{exhaustive_examined}: the indices pruned nothing"
    )
    assert coarse_examined < exhaustive_examined
    benchmark.pedantic(
        lambda: _run_panel(base, queries, 0), rounds=1, iterations=1
    )


def _inverted_copy(base):
    """The same archive with the inverted index maintained during
    archival (fresh PatternBase: the shared `_state` base must stay
    index-free for the ladder-path measurements)."""
    copy = PatternBase(inverted_levels=(1,))
    for pattern in sorted(base.all_patterns(), key=lambda p: p.pattern_id):
        copy.add(pattern.sgs, pattern.full_size)
    return copy


def test_archive_query_inverted_screens_fewer(benchmark):
    """Perf + candidate-count smoke (CI): at the coarse entry level the
    inverted cell-signature screen must *evaluate* strictly fewer
    candidates than the lazy-ladder screen (every candidate it clears
    off the posting counters alone never touches per-pattern state;
    the ladder walks a coarse SGS for each) and return identical
    answers. The ``inverted`` planner entry must likewise gather no
    more than the scan it replaces, again with identical answers."""
    base, queries = _archive_and_queries()
    inverted_base = _inverted_copy(base)
    # Screen-vs-screen needs queries the guard does not stand down on.
    coarse_queries = [
        q
        for q in queries
        if len(canonical_cell_signature(q, 1, 3)) >= 8
    ]
    assert coarse_queries, "bench needs queries above the coarse guard"

    ladder_engine = MatchEngine(base, use_inverted=False)
    inverted_engine = MatchEngine(inverted_base)

    def run_panel(engine, coarse_level, threshold):
        pairs = []
        evaluated = rejected = fast = refined = 0
        start = time.perf_counter()
        for query_sgs in coarse_queries:
            results, stats = engine.match(
                MatchQuery(
                    sgs=query_sgs,
                    threshold=threshold,
                    coarse_level=coarse_level,
                )
            )
            evaluated += stats.coarse_evaluated
            rejected += stats.coarse_rejected
            fast += stats.coarse_fast_accepted
            refined += stats.refined
            pairs.append(
                [(r.pattern.pattern_id, round(r.distance, 12)) for r in results]
            )
        return time.perf_counter() - start, evaluated, rejected, fast, refined, pairs

    t_l, eval_l, rej_l, _, refined_l, pairs_l = run_panel(
        ladder_engine, 1, THRESHOLD
    )
    t_i, eval_i, rej_i, fast_i, refined_i, pairs_i = run_panel(
        inverted_engine, 1, THRESHOLD
    )

    table = Table(
        "Coarse screening — inverted cell-signature index vs lazy "
        f"ladder ({len(base)} archived patterns, "
        f"{len(coarse_queries)} queries, threshold {THRESHOLD}, "
        "coarse L1)",
        ["screen", "evaluated", "rejected", "fast accepts", "refined",
         "wall time"],
    )
    table.add_row(
        "lazy ladder", eval_l, rej_l, "-", refined_l, fmt_seconds(t_l)
    )
    table.add_row(
        "inverted postings", eval_i, rej_i, fast_i, refined_i,
        fmt_seconds(t_i),
    )
    report(table.render())

    assert pairs_i == pairs_l, (
        "inverted-screened answers diverged from the ladder screen"
    )
    assert eval_i < eval_l, (
        f"inverted screen evaluated {eval_i} candidates, ladder "
        f"{eval_l}: the posting lists earned nothing"
    )
    # Conservativeness shows up as refined_i >= refined_l; both agree
    # on the final answers above.
    assert refined_i >= refined_l

    # The planner's inverted entry: at a threshold with no feature
    # filtering power the scan is replaced by the screen's survivors.
    loose = 0.45
    scan_t, scan_gathered, scan_pairs = None, 0, []
    inv_gathered = 0
    inv_pairs = []
    for query_sgs in coarse_queries:
        results, stats = ladder_engine.match(
            MatchQuery(sgs=query_sgs, threshold=loose, coarse_level=1)
        )
        scan_gathered += stats.gathered
        scan_pairs.append([r.pattern.pattern_id for r in results])
    for query_sgs in coarse_queries:
        results, stats = inverted_engine.match(
            MatchQuery(sgs=query_sgs, threshold=loose, coarse_level=1)
        )
        assert stats.entry == "inverted"
        inv_gathered += stats.gathered
        inv_pairs.append([r.pattern.pattern_id for r in results])
    assert inv_pairs == scan_pairs, "inverted entry changed answers"
    assert inv_gathered <= scan_gathered, (
        f"inverted entry gathered {inv_gathered} > scan {scan_gathered}"
    )
    benchmark.pedantic(
        lambda: run_panel(inverted_engine, 1, THRESHOLD),
        rounds=1,
        iterations=1,
    )


def test_archive_query_coarse_entry_cuts_refinement(benchmark):
    """Report the coarse entry's effect on the expensive stored-level
    matches at a loose threshold (where refinement dominates)."""
    base, queries = _archive_and_queries()
    loose = 0.45
    engine = MatchEngine(base)
    table = Table(
        "Coarse-entry ablation — stored-level cell matches per query "
        f"(threshold {loose})",
        ["coarse level", "refined", "coarse rejected", "wall time"],
    )
    reference = None
    for coarse_level in (0, 1):
        refined = 0
        rejected = 0
        start = time.perf_counter()
        pairs = []
        for query_sgs in queries:
            results, stats = engine.match(
                MatchQuery(
                    sgs=query_sgs, threshold=loose, coarse_level=coarse_level
                )
            )
            refined += stats.refined
            rejected += stats.coarse_rejected
            pairs.append([r.pattern.pattern_id for r in results])
        elapsed = time.perf_counter() - start
        table.add_row(coarse_level, refined, rejected, fmt_seconds(elapsed))
        if reference is None:
            reference = pairs
        else:
            assert pairs == reference, "coarse entry changed answers"
    report(table.render())
    benchmark.pedantic(
        lambda: _run_panel(base, queries, 1), rounds=1, iterations=1
    )


def test_archive_query_disk_coarse_entry_hydrates_only_survivors(
    tmp_path, monkeypatch
):
    """Count smoke (CI): the Figure-7 archive on a SQLite store whose
    LRU holds a quarter of it, one position-sensitive ``coarse_level=1``
    panel served twice. Coarse rungs are cached against the archive
    record, so the second pass coarsens nothing but each query's own
    rung and parses a stored summary only for a candidate it refines —
    never to validate or rebuild a rung the LRU forgot."""
    base, _ = _archive_and_queries()
    patterns = sorted(base.all_patterns(), key=lambda p: p.pattern_id)
    spec = f"sqlite:{tmp_path / 'fig7.db'}?cache={len(patterns) // 4}"
    with PatternBase(store=spec) as disk:
        for pattern in patterns:
            disk.add(pattern.sgs, pattern.full_size)
    panel = [
        MatchQuery(
            sgs=pattern.sgs,
            threshold=0.6,
            metric=DistanceMetricSpec(position_sensitive=True),
            coarse_level=1,
        )
        for pattern in patterns[::4]
    ]
    coarsenings = []
    coarsen = engine_module.coarsen_sgs
    monkeypatch.setattr(
        engine_module,
        "coarsen_sgs",
        lambda sgs, factor: coarsenings.append(1) or coarsen(sgs, factor),
    )
    table = Table(
        "Disk-backed coarse entry — position-sensitive panel served twice "
        f"({len(patterns)} archived patterns, LRU {len(patterns) // 4}, "
        f"{len(panel)} queries, coarse L1)",
        ["pass", "hydrations", "rung builds", "coarse evaluated", "refined",
         "wall time"],
    )
    passes = []
    with PatternBase(store=spec) as disk:  # cold: nothing parsed yet
        engine = MatchEngine(disk)
        for number in (1, 2):
            del coarsenings[:]
            hydrated = disk.store.stats["hydrations"]
            evaluated = refined = 0
            pairs = []
            start = time.perf_counter()
            for query in panel:
                results, stats = engine.match(query)
                evaluated += stats.coarse_evaluated
                refined += stats.refined
                pairs.append(
                    [(r.pattern.pattern_id, r.distance) for r in results]
                )
            wall = time.perf_counter() - start
            hydrations = disk.store.stats["hydrations"] - hydrated
            # Every query coarsens its own rung once; the rest are
            # pattern rungs built.
            rung_builds = len(coarsenings) - len(panel)
            table.add_row(
                number, hydrations, rung_builds, evaluated, refined,
                fmt_seconds(wall),
            )
            record = emit_bench_record(
                "query",
                "archive_query_disk_coarse_panel",
                panel_pass=number,
                wall_time_s=round(wall, 6),
                hydrations=hydrations,
                rung_builds=rung_builds,
                coarse_evaluated=evaluated,
                refined=refined,
                archive_size=len(patterns),
                cache_patterns=disk.store.cache_patterns,
                queries=len(panel),
            )
            passes.append((record, pairs))
    report(table.render())

    (first, first_pairs), (second, second_pairs) = passes
    assert first["coarse_evaluated"] > 0 and first["rung_builds"] > 0, (
        "the panel must use the ladder"
    )
    assert second_pairs == first_pairs, "a warm rung cache changed answers"
    for counter in ("coarse_evaluated", "refined"):
        assert second[counter] == first[counter]
    assert second["rung_builds"] == 0, (
        f"second pass rebuilt {second['rung_builds']} pattern rungs it "
        "had cached"
    )
    assert second["hydrations"] <= second["refined"], (
        f"second pass parsed {second['hydrations']} stored summaries to "
        f"refine {second['refined']} candidates"
    )
