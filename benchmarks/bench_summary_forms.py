"""Summary-form gate: the stream and match paths build no cell object.

A summary's one state is its row table; ``SkeletalGridCell`` is a view
for people and tests. Counts only, no timer: a
``StreamPatternMiningSystem`` run on a SQLite store, then a cold-opened
archive serving one position-insensitive and one position-sensitive
query, each construct **zero** cells — and the output stage's cell loop
makes zero probes of ``_edge_attachments`` (it is scanned once, by
``items()``; the old loop probed it once per core cell x attached cell).
"""

from __future__ import annotations

from common import STT_CASES, report, stt_points
from repro.archive.pattern_base import PatternBase
from repro.core.cells import SkeletalGridCell
from repro.core.csgs import CSGS
from repro.matching.metric import DistanceMetricSpec
from repro.retrieval.engine import MatchEngine
from repro.retrieval.queries import MatchQuery
from repro.streams.source import ListSource
from repro.streams.windows import CountBasedWindowSpec
from repro.system.framework import StreamPatternMiningSystem

WIN, SLIDE, POINTS = 1000, 250, 2500


class _ProbeCounting(dict):
    """A dict that counts keyed look-ups (iteration is not one)."""

    probes = 0

    def get(self, key, default=None):
        _ProbeCounting.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        _ProbeCounting.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        _ProbeCounting.probes += 1
        return super().__contains__(key)


def _count_cells(monkeypatch) -> list:
    built = [0]
    real = SkeletalGridCell.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(SkeletalGridCell, "__init__", counting)
    return built


def test_summary_forms_stream_and_match_build_no_cell(tmp_path, monkeypatch):
    built = _count_cells(monkeypatch)
    real_emit = CSGS._emit

    def emit_on_counted_attachments(self, window):
        self._edge_attachments = _ProbeCounting(self._edge_attachments)
        try:
            return real_emit(self, window)
        finally:
            self._edge_attachments = dict(self._edge_attachments)

    monkeypatch.setattr(CSGS, "_emit", emit_on_counted_attachments)
    theta_range, theta_count = STT_CASES[1]
    store = f"sqlite:{tmp_path / 'history.db'}"
    with StreamPatternMiningSystem(
        theta_range, theta_count, 4, CountBasedWindowSpec(WIN, SLIDE), store=store
    ) as system:
        outputs = system.run(ListSource(stt_points(POINTS, seed=0)))
        archived = system.archived_count
    cells = sum(len(sgs) for output in outputs for sgs in output.summaries)
    query = max(outputs[-1].summaries, key=len)
    assert archived > 10 and cells > 1000
    assert built == [0], f"the stream run built {built[0]} cell objects"
    assert _ProbeCounting.probes == 0, (
        f"emit probed _edge_attachments {_ProbeCounting.probes} times"
    )

    # Cold open: nothing hydrated, every summary read comes off a blob.
    with PatternBase(store=store) as base:
        engine = MatchEngine(base)
        matched = 0
        for sensitive in (False, True):
            results, stats = engine.match(
                MatchQuery(
                    sgs=query,
                    threshold=0.6,
                    metric=DistanceMetricSpec(position_sensitive=sensitive),
                    coarse_level=1,
                )
            )
            assert stats.refined > 0 and results
            matched += len(results)
    assert built == [0], f"matching built {built[0]} cell objects"
    report(
        f"summary forms: {cells} cells emitted, {archived} patterns archived, "
        f"{matched} matches served — 0 cell objects, 0 attachment probes"
    )
