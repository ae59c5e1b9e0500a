"""Shared machinery for the benchmark suite.

Each bench file regenerates one paper artifact (its module docstring
names the figure or table). Workloads are scaled down from the paper's
sizes so the whole suite runs in minutes of pure Python; the *shapes* —
method orderings, growth trends, crossovers — are what we reproduce.
Tables are printed through ``report()`` (bypassing pytest capture) so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records
them alongside pytest-benchmark's own timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from datetime import datetime, timezone
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.clustering.extra_n import ExtraN
from repro.core.csgs import CSGS
from repro.data.gmti import GMTIStream
from repro.data.stt import STTStream
from repro.eval.memory import csgs_state_bytes, extra_n_state_bytes
from repro.streams.source import ListSource
from repro.streams.windows import CountBasedWindowSpec, Windower
from repro.summaries.crd import CRDSummarizer
from repro.summaries.rsp import RSPSummarizer
from repro.summaries.skps import SkPSSummarizer

#: The paper's three pattern-parameter cases (Section 8.1), applied to
#: the normalized 4-D STT-like stream.
STT_CASES: Tuple[Tuple[float, int], ...] = ((0.05, 10), (0.1, 8), (0.2, 5))

#: Scaled-down window settings (paper: win=10K, slide in {0.1K, 1K, 5K}).
WIN = 2000
SLIDES: Tuple[int, ...] = (100, 500, 1000)


#: Lines queued for the end-of-session experiment report. pytest captures
#: stdout at the file-descriptor level, so tables are accumulated here and
#: flushed by the ``pytest_terminal_summary`` hook in benchmarks/conftest.py
#: (which always reaches the real terminal / tee).
REPORT_LINES: List[str] = []


def report(text: str) -> None:
    """Queue experiment output for the terminal summary (also printed
    immediately for non-pytest callers)."""
    REPORT_LINES.append(text)
    print(text)


#: Repository root — where the machine-readable trajectory files live.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_COMMIT_CACHE: List[Tuple[str, Optional[bool]]] = []


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=10,
        check=True,
    ).stdout.strip()


def _current_commit() -> Tuple[str, Optional[bool]]:
    """``(short hash, dirty)`` of the checkout being measured.

    ``dirty`` is whether anything but the trajectory files themselves
    differs from that commit: a PR benches its working tree before it
    commits, so without the flag its records read as clean measurements
    of the *parent* hash.
    """
    if not _COMMIT_CACHE:
        try:
            _COMMIT_CACHE.append(
                (
                    _git("rev-parse", "--short", "HEAD"),
                    bool(
                        _git(
                            "status", "--porcelain", "--", ".",
                            ":(exclude)BENCH_*.json",
                        )
                    ),
                )
            )
        except Exception:
            _COMMIT_CACHE.append(("unknown", None))
    return _COMMIT_CACHE[0]


def emit_bench_record(stem: str, workload: str, **fields) -> dict:
    """Append one machine-readable benchmark record to the repo-root
    trajectory file ``BENCH_<stem>.json`` (JSON Lines: one record per
    line, so successive runs — and successive commits — accumulate a
    perf trajectory that plots straight from the file).

    Every record carries the current commit and whether the tree was
    dirty against it, a UTC timestamp, and the workload name; callers
    add the measurements (wall time, candidates examined, mode, ...).
    The record is returned for reuse.
    """
    commit, dirty = _current_commit()
    record = {
        "commit": commit,
        "dirty": dirty,
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "workload": workload,
        **fields,
    }
    path = os.path.join(REPO_ROOT, f"BENCH_{stem}.json")
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


_STT_CACHE: Dict[Tuple[int, int], List[Tuple[float, ...]]] = {}
_GMTI_CACHE: Dict[Tuple[int, int], List[Tuple[float, ...]]] = {}


def stt_points(n: int, seed: int = 0) -> List[Tuple[float, ...]]:
    key = (n, seed)
    if key not in _STT_CACHE:
        stream = STTStream(total_records=n, seed=seed)
        _STT_CACHE[key] = list(stream.points(n))
    return _STT_CACHE[key]


def gmti_points(n: int, seed: int = 0) -> List[Tuple[float, ...]]:
    key = (n, seed)
    if key not in _GMTI_CACHE:
        stream = GMTIStream(seed=seed, noise_fraction=0.2)
        _GMTI_CACHE[key] = list(stream.points(n))
    return _GMTI_CACHE[key]


def batches_over(points: Sequence[Tuple[float, ...]], win: int, slide: int):
    spec = CountBasedWindowSpec(win=win, slide=slide)
    return Windower(spec).batches(ListSource(points))


class ExtractionRun:
    """Result of replaying one method over one stream configuration."""

    def __init__(self, method: str):
        self.method = method
        self.window_times: List[float] = []
        self.peak_state_bytes = 0
        self.clusters_last_window = 0

    @property
    def avg_window_time(self) -> float:
        if not self.window_times:
            return 0.0
        return sum(self.window_times) / len(self.window_times)


def run_extraction_method(
    method: str,
    points: Sequence[Tuple[float, ...]],
    theta_range: float,
    theta_count: int,
    dimensions: int,
    win: int,
    slide: int,
    max_windows: Optional[int] = None,
) -> ExtractionRun:
    """Replay one of the five Figure-7 methods over a stream.

    Methods: ``extra-n`` (extraction only), ``c-sgs`` (integrated
    extraction+summarization), and the two-phase pipelines
    ``extra-n+crd`` / ``extra-n+rsp`` / ``extra-n+skps``.
    """
    run = ExtractionRun(method)
    summarizer = None
    if method == "c-sgs":
        algorithm: object = CSGS(theta_range, theta_count, dimensions)
    else:
        algorithm = ExtraN(theta_range, theta_count, dimensions)
        if method == "extra-n+crd":
            summarizer = CRDSummarizer()
        elif method == "extra-n+rsp":
            summarizer = RSPSummarizer(rate=0.02, seed=1)
        elif method == "extra-n+skps":
            summarizer = SkPSSummarizer(theta_range)
        elif method != "extra-n":
            raise ValueError(f"unknown method {method}")

    produced = 0
    for batch in batches_over(points, win, slide):
        start = time.perf_counter()
        if method == "c-sgs":
            output = algorithm.process_batch(batch)
            clusters = output.clusters
        else:
            clusters = algorithm.process_batch(batch)
            if summarizer is not None:
                for cluster in clusters:
                    if cluster.size:
                        summarizer.summarize(cluster)
        run.window_times.append(time.perf_counter() - start)
        run.clusters_last_window = len(clusters)
        if method == "c-sgs":
            state = csgs_state_bytes(algorithm)
        else:
            state = extra_n_state_bytes(algorithm)
        run.peak_state_bytes = max(run.peak_state_bytes, state)
        produced += 1
        if max_windows is not None and produced >= max_windows:
            break
    return run


def collect_window_outputs(
    points: Sequence[Tuple[float, ...]],
    theta_range: float,
    theta_count: int,
    dimensions: int,
    win: int,
    slide: int,
    max_windows: Optional[int] = None,
):
    """Run C-SGS and return all window outputs (clusters + summaries)."""
    csgs = CSGS(theta_range, theta_count, dimensions)
    outputs = []
    for batch in batches_over(points, win, slide):
        outputs.append(csgs.process_batch(batch))
        if max_windows is not None and len(outputs) >= max_windows:
            break
    return outputs
