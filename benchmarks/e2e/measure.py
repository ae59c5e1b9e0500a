"""Measuring: passes, percentiles, the end-to-end metrics, scratch space.

A run repeats **passes** — one complete, identical replay of the
workload on a freshly set-up system — until ``--seconds`` of wall time
have been measured *and* the timed population is large enough for its
p90. Each pass yields one set-up sample (the run reports the median),
one throughput sample and one latency per operation of the fixed list.

The sandbox this runs in shares its cores: the same pass of the same
seed reads 7 % apart within one process and 12 % apart across
processes. Interference only ever adds time, so the run keeps, for
every timed piece of the fixed list, its **best time over the passes**
(the i-th operation does the same work in every pass): throughput is
the work of a pass over the sum of those best times, and the
percentiles are read off the best-time profile of the headline class.
What is left is the program's own cost, and a regression in it moves
every pass alike.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .trace import Tracer

#: The checkout root: BENCHMARK.json, src/ and this benchmark live here.
ROOT = Path(__file__).resolve().parents[2]

#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10
#: The reported percentiles are p50 and p90, so a run needs this many.
MIN_SAMPLES = 100
#: ``serve-http``'s round trips come in 4 ms steps (the response waits
#: for the peer's delayed ACK, a kernel timer), and a single order
#: statistic of a stepped distribution jumps a whole step when a little
#: mass moves across it: the plain median of its 56 samples reads 60,
#: 62, ... 68 ms, and its quartiles over ten runs lie 6-12 % apart (above
#: 8.3 % in 30 % of the ten-run subsets of thirty runs). The mean of the
#: order statistics p40-p60 (p85-p95 for the p90) moves smoothly: 4-7 %,
#: never above 8.3 %. Only there: ``match-panel``'s latencies sit in a
#: few dense clusters with gaps between, its plain median stays inside
#: one (1.2 %), and the same window reaches into a gap (7.9 %).
STEPPED_RANKS = 10.0
#: Best-of needs replays to choose from: fewer than three passes leave
#: interference in the profile (a two-pass run spread 21 % on a p90).
MIN_PASSES = 3
#: A traced run replays (untraced pass, traced pass) this many times and
#: compares the faster of each: one pair alone read the tracing
#: overhead anywhere between 0 and +23 %.
TRACE_REPLAYS = 2
#: Give up repeating passes after this much wall time (a run must end
#: within the driver's 180 s with set-up and verification around it).
PASS_WALL_CAP_S = 90.0


def percentile(
    samples: Sequence[float],
    p: float,
    relaxed: bool = False,
    replays: int = 1,
    stepped: bool = False,
) -> float:
    """The ``p``-th percentile by linear interpolation. Refused (unless
    ``relaxed``, the smoke mode) when fewer than ten samples lie beyond
    it: a tail read off two or three samples is noise. ``replays`` says
    how many measurements stand behind each sample (a best-of profile
    over that many passes). For samples that come in steps (``stepped``)
    it is the mean of the order statistics within :data:`STEPPED_RANKS`
    percentile ranks of ``p`` (at most half-way to the nearer end)."""
    if not samples:
        raise ValueError("no samples")
    tail = min(p, 100.0 - p) / 100.0
    if not relaxed and len(samples) * replays * tail < SAMPLES_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(samples) * replays} samples has fewer than "
            f"{SAMPLES_BEYOND} samples beyond it"
        )
    ordered = sorted(samples)
    last = len(ordered) - 1
    if stepped:
        half = min(STEPPED_RANKS, 50.0 * tail)
        low = int(last * (p - half) / 100.0 + 0.5)
        high = int(last * (p + half) / 100.0 + 0.5)
        return statistics.fmean(ordered[low : high + 1])
    rank = last * p / 100.0
    low = int(rank)
    high = min(low + 1, last)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass
class PassResult:
    """What one pass measured."""

    #: Construct/open until the first operation can be served.
    setup_s: float
    #: Units of work (stream points, requests) completed in the busy
    #: time, and the timed pieces (s) that add up to it, in list order.
    ops: int
    busy_parts: List[float]
    #: Latencies (s) of the workload's headline operation class.
    latencies: List[float]
    attempted: int
    failed: int
    #: sha-256 over the pass's outputs.
    digest: str
    #: Workload-specific extras (other classes' latencies, samples kept
    #: for verification, store sizes, ...).
    extra: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(self.busy_parts)


def best_times(series: Sequence[Sequence[float]]) -> List[float]:
    """Position by position, the smallest time over the passes."""
    return [min(times) for times in zip(*series)]


def run_passes(
    one_pass: Callable[[int], PassResult], seconds: float, relaxed: bool
) -> List[PassResult]:
    passes: List[PassResult] = []
    started = perf_counter()
    while True:
        passes.append(one_pass(len(passes)))
        wall = perf_counter() - started
        samples = sum(len(p.latencies) for p in passes)
        enough = relaxed or (
            samples >= MIN_SAMPLES and len(passes) >= MIN_PASSES
        )
        if (wall >= seconds and enough) or wall >= PASS_WALL_CAP_S:
            return passes


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    passes: Sequence[PassResult],
    rss_mb: float,
    relaxed: bool,
    extra_setups: Sequence[float] = (),
    stepped: bool = False,
) -> Dict[str, float]:
    """The end-to-end metrics every workload reports; ``stepped`` as in
    :func:`percentile`."""
    profile = best_times([p.latencies for p in passes])
    busy_s = sum(best_times([p.busy_parts for p in passes]))
    return {
        "setup_s": statistics.median(
            [p.setup_s for p in passes] + list(extra_setups)
        ),
        "ops_per_s": passes[0].ops / busy_s,
        "op_p50_ms": percentile(profile, 50, relaxed, len(passes), stepped) * 1e3,
        "op_p90_ms": percentile(profile, 90, relaxed, len(passes), stepped) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def trace_replays(
    run_id: str,
    untraced: Callable[[int], PassResult],
    traced: Callable[[int, Tracer], dict],
) -> Tuple[List[PassResult], List[dict], dict, Tracer]:
    """Alternate untraced and traced passes :data:`TRACE_REPLAYS` times.
    Returns the untraced passes, every traced pass's result, and the
    fastest traced result (by its ``wall_s``) with its tracer."""
    passes: List[PassResult] = []
    traces = []
    for i in range(TRACE_REPLAYS):
        passes.append(untraced(i))
        tracer = Tracer(f"{run_id}-{i}")
        traces.append((traced(i, tracer), tracer))
    fastest, tracer = min(traces, key=lambda pair: pair[0]["wall_s"])
    return passes, [result for result, _ in traces], fastest, tracer


def trace_metrics(
    covered_ms: float, traced_wall_s: float, references: Sequence[PassResult],
    checks,
) -> Dict[str, float]:
    """The ``trace.*`` metrics of a traced pass whose layer spans cover
    ``covered_ms`` of its wall time; records the 90 % coverage check."""
    wall_ms = traced_wall_s * 1e3
    checks.record(
        "layer self times cover 90 % of the traced wall time",
        covered_ms >= 0.9 * wall_ms,
        f"{covered_ms:.1f} of {wall_ms:.1f} ms",
    )
    untraced_wall_s = min(p.setup_s + p.busy_s for p in references)
    return {
        "trace.wall_ms": wall_ms,
        "trace.unattributed_ms": wall_ms - covered_ms,
        "trace.overhead_share": (traced_wall_s - untraced_wall_s)
        / untraced_wall_s,
    }


def outcome(checks, passes: Sequence[PassResult], metrics, **detail) -> dict:
    """What a workload's ``run`` returns; also records the check every
    workload shares — identical passes produce identical outputs."""
    first = passes[0]
    checks.record(
        "outputs repeat across passes",
        all(p.digest == first.digest for p in passes),
    )
    return {
        "checks": checks,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
        "detail": {
            "passes": len(passes),
            "samples": sum(len(p.latencies) for p in passes),
            "digest": first.digest,
            **detail,
        },
    }


@contextmanager
def scratch(name: str) -> Iterator[str]:
    """A scratch directory *inside the checkout* (the benchmark may
    write nowhere else), also made the process's temp dir so that the
    shard dumps of process-mode executors land in it; removed on exit."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{name}-", dir=parent)
    saved_env, saved_tempdir = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = path
    tempfile.tempdir = path
    try:
        yield path
    finally:
        tempfile.tempdir = saved_tempdir
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(path, ignore_errors=True)
