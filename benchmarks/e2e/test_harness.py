"""Tests of the benchmark harness itself (``pytest benchmarks/e2e``; not
part of the tier-1 collection, which stops at ``tests/``)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(HERE.parent)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2e import catalog, inputs, measure, report, stream_gmti, streams  # noqa: E402
from e2e.trace import Tracer  # noqa: E402

RUN = str(HERE / "run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


# -- percentile --------------------------------------------------------


def test_percentile_refuses_a_thin_tail():
    samples = [float(i) for i in range(99)]
    with pytest.raises(ValueError, match="fewer than 10 samples beyond"):
        measure.percentile(samples, 90)
    assert measure.percentile(samples + [99.0], 90) == pytest.approx(89.1)
    # The median needs ten samples on either side.
    with pytest.raises(ValueError):
        measure.percentile(samples[:19], 50)
    assert measure.percentile(samples[:21], 50) == 10.0


def test_percentile_relaxed_is_for_smoke_runs():
    assert measure.percentile([3.0, 1.0, 2.0], 90, relaxed=True) == pytest.approx(2.8)
    with pytest.raises(ValueError):
        measure.percentile([], 50, relaxed=True)


def test_stepped_percentile_moves_smoothly():
    """Latencies in 4 ms steps: one sample crossing the middle moves the
    plain median by half a step, the stepped one by a tenth of that."""
    low, high = [60.0] * 25 + [64.0] * 25, [60.0] * 24 + [64.0] * 26
    assert measure.percentile(high, 50) - measure.percentile(low, 50) == 2.0
    moved = measure.percentile(high, 50, stepped=True) - measure.percentile(
        low, 50, stepped=True
    )
    assert 0.0 < moved < 0.5
    # p85..p95 of 0..99: order statistics 84..94.
    samples = [float(i) for i in range(100)]
    assert measure.percentile(samples, 90, stepped=True) == 89.0


# -- spans -------------------------------------------------------------


def test_self_time_is_the_span_minus_its_children():
    tracer = Tracer("t")
    tracer.spans = [
        ["window", 0.0, 10.0, None],
        ["index", 2.0, 5.0, 0],
        ["refine", 3.0, 4.0, 1],
        ["emit", 6.0, 7.0, 0],
        ["window", 10.0, 12.0, None],
    ]
    assert tracer.self_times() == {
        "window": (10.0 - 3.0 - 1.0) + 2.0,
        "index": 2.0,
        "refine": 1.0,
        "emit": 1.0,
    }
    assert sum(tracer.self_times().values()) == 12.0


def test_spans_nest_by_the_stack():
    tracer = Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.count("work", 3)
        with tracer.span("inner"):
            tracer.count("work", 2)
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0),
    ]
    assert tracer.counts["work"] == 5
    assert all(s[2] >= s[1] for s in tracer.spans)


# -- digests -----------------------------------------------------------


def _tiny_pass(seed: int, tmp_path) -> str:
    cfg = stream_gmti.CONFIG
    points = inputs.thinned_stream(cfg.kind, cfg.win + 4 * cfg.slide, seed)
    return streams.untraced_pass(cfg, points, str(tmp_path), f"s{seed}").digest


def test_digest_is_stable_per_seed_and_differs_across_seeds(tmp_path):
    assert _tiny_pass(1, tmp_path) == _tiny_pass(1, tmp_path)
    assert _tiny_pass(1, tmp_path) != _tiny_pass(2, tmp_path)


def test_panel_scenario_moves_rigidly_with_the_seed():
    a, b = inputs.translated_gmti(50, 1), inputs.translated_gmti(50, 2)
    assert a == inputs.translated_gmti(50, 1)
    assert a != b


# -- --compare ---------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10.0, 10.1, 9.9], [10.2, 10.3, 10.1], "lower", "within"),
        ([10.0, 10.1, 9.9], [11.5, 11.6, 11.4], "lower", "worse"),
        ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "lower", "within"),
        ([100.0, 101.0, 99.0], [88.0, 89.0, 87.0], "higher", "worse"),
        ([100.0, 101.0, 99.0], [120.0, 121.0, 119.0], "higher", "within"),
        # Medians agree, but A's own runs spread 30 % > the 10 % bound.
        ([10.0, 13.0, 10.0], [10.2, 10.3, 10.1], "lower", "unresolved"),
        # ... unless every run of B beats every run of A.
        ([10.0, 13.0, 10.0], [9.0, 9.5, 9.2], "lower", "within"),
    ],
)
def test_verdicts(a, b, better, expected):
    assert report.verdict(a, b, better, 0.10) == expected


def _document(scale: float) -> dict:
    return {
        "provenance": {"commit": "abc", "dirty": False, "host": "h", "cpus": 2},
        "seed": 0, "seconds": 1.0, "reps": 3,
        "workloads": {
            "stream-gmti": {
                "end_to_end": {
                    entry["name"]: {
                        "values": [
                            v * (1 / scale if entry["better"] == "higher" else scale)
                            for v in (10.0, 10.1, 9.9)
                        ]
                    }
                    for entry in SPEC["end_to_end"]
                }
            }
        },
    }


def test_compare_exits_non_zero_only_on_worse(tmp_path, capsys):
    paths = {}
    for label, scale in (("same", 1.0), ("slow", 1.5)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(_document(scale)))
    assert report.compare(SPEC, str(paths["same"]), str(paths["same"])) == 0
    assert "worse: 0" in capsys.readouterr().out
    assert report.compare(SPEC, str(paths["same"]), str(paths["slow"])) == 1
    assert f"worse: {len(SPEC['end_to_end'])}" in capsys.readouterr().out
    assert report.compare(SPEC, str(paths["slow"]), str(paths["same"])) == 0


# -- BENCHMARK.json <-> the harness ------------------------------------


def test_catalogue_agrees_with_benchmark_json():
    spec = catalog.load()
    assert {e["name"] for e in spec["per_layer"]} == set(catalog.MOVES)
    assert "setup_s" in {e["name"] for e in spec["end_to_end"]}
    with pytest.raises(ValueError, match="not in BENCHMARK.json"):
        catalog.format_metrics(spec, "per_layer", {"no.such_metric": 1.0})
    with pytest.raises(ValueError, match="not measured"):
        catalog.format_metrics(spec, "end_to_end", {"setup_s": 1.0})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in section}
    for entry in section:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_nothing_to_measure_is_an_error_not_a_result(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's own
    files has no program to build: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "stream-gmti",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert not os.path.exists(tmp_path / ".bench_work")


# -- processes ---------------------------------------------------------


def test_a_run_waits_for_the_orphans_it_leaves(tmp_path):
    """The shell ends at once and orphans a job that needs half a second
    more (as ``repro serve`` orphans its resource tracker): the run must
    not be over before the job is."""
    marker = tmp_path / "job-ended"
    script = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {str(HERE.parent)!r})\n"
        "from e2e import procs\n"
        "with procs.contained():\n"
        f"    subprocess.run(['sh', '-c', '(sleep 0.5; touch {marker}) &'])\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)
    assert marker.exists()
