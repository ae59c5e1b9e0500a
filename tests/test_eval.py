"""Unit tests for the evaluation substrate (memory, oracle, user study,
harness)."""

import pytest

from tests.golden import workload
from tests.helpers import (
    ReferenceCSGS,
    clustered_points,
    make_objects,
    stream_batches,
)
from repro.clustering.dbscan import dbscan
from repro.core.csgs import CSGS
from repro.eval.harness import Table, fmt_bytes, fmt_seconds
from repro.eval.memory import (
    crd_bytes,
    csgs_state_bytes,
    full_representation_bytes,
    rsp_bytes,
    sgs_bytes,
    sgs_cell_bytes,
    skps_bytes,
)
from repro.eval.oracle import oracle_similarity
from repro.eval.user_study import (
    NOT_SIMILAR,
    SIMILAR,
    VERY_SIMILAR,
    SimulatedAnalystPanel,
)
from repro.summaries.crd import CRDSummarizer
from repro.summaries.rsp import RSPSummarizer
from repro.summaries.skps import SkPSSummarizer


def _cluster_and_sgs(seed=1):
    points = clustered_points([(2.0, 2.0)], per_cluster=400, seed=seed)
    csgs = CSGS(0.3, 5, 2)
    output = None
    for batch in stream_batches(points, 400, 200):
        output = csgs.process_batch(batch)
    cluster = max(output.clusters, key=lambda c: c.size)
    sgs = output.summaries[cluster.cluster_id]
    return cluster, sgs


# ---------------------------------------------------------------------------
# Memory cost models
# ---------------------------------------------------------------------------


def test_paper_cell_cost_for_4d():
    # Section 8.2: a 4-D skeletal grid cell costs 23 bytes.
    assert sgs_cell_bytes(4) == 23


def test_sgs_bytes_scale_with_cells():
    _, sgs = _cluster_and_sgs()
    assert sgs_bytes(sgs) == len(sgs) * sgs_cell_bytes(2)


def test_full_representation_bytes():
    cluster, _ = _cluster_and_sgs()
    assert full_representation_bytes(cluster, 2) == cluster.size * (8 + 4)
    assert full_representation_bytes(100, 4) == 100 * 20


def test_compression_rate_high_for_dense_cluster():
    cluster, sgs = _cluster_and_sgs()
    assert 0 < sgs_bytes(sgs) < full_representation_bytes(cluster, 2)


def test_alternative_summary_bytes():
    cluster, _ = _cluster_and_sgs()
    crd = CRDSummarizer().summarize(cluster)
    rsp = RSPSummarizer(rate=0.1, seed=1).summarize(cluster)
    skps = SkPSSummarizer(0.3).summarize(cluster)
    assert crd_bytes(crd) == 8 + 12
    assert rsp_bytes(rsp) == rsp.sample_size * 8 + 4
    assert skps_bytes(skps) == skps.size * 8 + len(skps.edges) * 4


# ---------------------------------------------------------------------------
# Oracle similarity
# ---------------------------------------------------------------------------


def test_oracle_identity_is_one():
    cluster, _ = _cluster_and_sgs()
    assert oracle_similarity(cluster, cluster, 0.3) == pytest.approx(1.0)


def test_oracle_translation_invariant_when_insensitive():
    points = clustered_points([(2.0, 2.0)], per_cluster=200, seed=3)
    shifted = [(x + 30.0, y + 30.0) for x, y in points]
    a = dbscan(make_objects(points), 0.3, 5)[0]
    b = dbscan(make_objects(shifted), 0.3, 5)[0]
    sim = oracle_similarity(a, b, 0.3)
    assert sim > 0.9
    assert oracle_similarity(a, b, 0.3, position_sensitive=True) == 0.0


def test_oracle_dissimilar_shapes_score_low():
    tight = clustered_points([(2.0, 2.0)], per_cluster=200, std=0.1, seed=4)
    wide = clustered_points([(2.0, 2.0)], per_cluster=200, std=0.8, seed=5)
    a = dbscan(make_objects(tight), 0.3, 5)[0]
    b = max(dbscan(make_objects(wide), 0.3, 5), key=lambda c: c.size)
    assert oracle_similarity(a, b, 0.3) < 0.5


def test_oracle_symmetric():
    a, _ = _cluster_and_sgs(seed=6)
    b, _ = _cluster_and_sgs(seed=7)
    assert oracle_similarity(a, b, 0.3) == pytest.approx(
        oracle_similarity(b, a, 0.3), abs=0.05
    )


def test_oracle_empty_cluster():
    from repro.clustering.cluster import Cluster

    a, _ = _cluster_and_sgs()
    assert oracle_similarity(a, Cluster(0, [], []), 0.3) == 0.0


# ---------------------------------------------------------------------------
# Simulated user study
# ---------------------------------------------------------------------------


def test_panel_rates_obvious_cases():
    panel = SimulatedAnalystPanel(n_analysts=20, noise=0.02, seed=1)
    high = panel.rate_method("good", [0.95] * 10)
    low = panel.rate_method("bad", [0.05] * 10)
    assert high.similar_rate > 0.95
    assert low.similar_rate < 0.05
    assert high.total == 200  # 10 matches x 20 analysts


def test_panel_monotone_in_similarity():
    panel = SimulatedAnalystPanel(seed=2)
    rates = [
        panel.rate_method("m", [s] * 20).similar_rate
        for s in (0.1, 0.45, 0.9)
    ]
    assert rates[0] < rates[1] < rates[2]


def test_panel_reproducible():
    a = SimulatedAnalystPanel(seed=3).rate_method("m", [0.5] * 30)
    b = SimulatedAnalystPanel(seed=3).rate_method("m", [0.5] * 30)
    assert a.ratings == b.ratings


def test_rating_categories():
    panel = SimulatedAnalystPanel(n_analysts=5, noise=0.0, seed=4)
    outcome = panel.rate_method("m", [0.9, 0.5, 0.1])
    assert set(outcome.ratings) <= {VERY_SIMILAR, SIMILAR, NOT_SIMILAR}
    assert outcome.very_similar_rate <= outcome.similar_rate


def test_panel_validation():
    with pytest.raises(ValueError):
        SimulatedAnalystPanel(n_analysts=0)


# ---------------------------------------------------------------------------
# Harness helpers
# ---------------------------------------------------------------------------


def test_formatters():
    assert fmt_seconds(0.0000005).endswith("us")
    assert fmt_seconds(0.005).endswith("ms")
    assert fmt_seconds(2.0) == "2.00s"
    assert fmt_bytes(512) == "512B"
    assert fmt_bytes(2048) == "2.00KB"


def test_table_rendering():
    table = Table("Demo", ["a", "b"])
    table.add_row(1, "xy")
    rendered = table.render()
    assert "Demo" in rendered and "xy" in rendered
    with pytest.raises(ValueError):
        table.add_row(1)


#: Peak ``csgs_state_bytes`` of the golden ``stt_small`` workload at
#: 85c47fb, the last commit on which saturated objects kept histograms.
PARENT_GOLDEN_STT_STATE_BYTES = 17572


def test_state_accounting_follows_released_histograms():
    """On the golden STT workload the modelled C-SGS state never exceeds
    what it was while every object kept its histogram (the reference
    loop is that accounting), is smaller at its peak, and counts
    histogram entries of unsaturated objects only — at most win/slide
    distinct neighbor expiries each."""
    case = workload.CASES["stt_small"]
    args = (case.theta_range, case.theta_count, workload.DIMENSIONS)
    fast, reference = CSGS(*args), ReferenceCSGS(*args)
    peaks = [0, 0]
    for batch in stream_batches(
        workload.workload_points(case), case.win, case.slide
    ):
        fast.process_batch(batch)
        reference.process_batch(batch)
        sizes = fast.state_sizes()
        states = fast.tracker.states.values()
        unsaturated = [s for s in states if s.core_until != s.obj.last_window]
        assert all(
            (s.neighbor_hist is None) == (s.core_until == s.obj.last_window)
            for s in states
        )
        assert sizes["hist_entries"] == sum(
            len(s.neighbor_hist) for s in unsaturated
        )
        assert sizes["hist_entries"] <= len(unsaturated) * (
            case.win // case.slide
        )
        got, was = csgs_state_bytes(fast), csgs_state_bytes(reference)
        assert got <= was
        peaks = [max(peaks[0], got), max(peaks[1], was)]
    assert 0 < peaks[0] < peaks[1]
    # The reference's peak is the figure this workload modelled before
    # histograms were released.
    assert peaks[1] == PARENT_GOLDEN_STT_STATE_BYTES
