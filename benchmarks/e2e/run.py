#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

One run (what ``BENCHMARK.json``'s command line drives)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload in this process and prints, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric with ``--trace 0``, every layer
metric with ``--trace 1``.

The whole suite (no ``--trace``)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--reps R]
                                  [--seconds S] [--no-traced] [--out DIR] [--smoke]

runs every workload ``R`` times untraced, each run in a fresh process,
then once traced, and prints every metric with its spread followed by
one JSON document with the provenance of the measurement. Compare two
such documents with ``--compare A.json B.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _bootstrap() -> None:
    """Make ``repro`` (the program under test, built from the checkout's
    ``src/``) and the ``e2e`` package importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    for path in (str(ROOT / "src"), str(HERE.parent)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_one(spec: dict, args: argparse.Namespace) -> int:
    from e2e import catalog, procs

    # One module per workload, named after it.
    module = importlib.import_module("e2e." + args.workload.replace("-", "_"))
    with procs.contained():  # nothing it starts outlives the run
        outcome = module.run(args)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = catalog.format_metrics(spec, section, outcome["metrics"])
    checks = outcome["checks"]

    print(f"{args.workload}  seed={args.seed}  trace={int(args.trace)}"
          + ("  SMOKE (sizes shrunk, percentile rule relaxed)" if args.smoke else ""))
    for key, value in outcome["detail"].items():
        print(f"  {key}: {value}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.4f} {entry['unit']}")
    for name, ok, detail in checks.results:
        print(f"  [{'ok' if ok else 'FAILED'}] {name}" + (f" — {detail}" if detail else ""))
    print(
        json.dumps(
            {
                "correct": checks.correct,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    _bootstrap()
    from e2e import catalog, report

    spec = catalog.load()
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall time one run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run in this process: 0 = end-to-end metrics, 1 = traced, layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload shrunk to about a second: same code paths and checks")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write the span trace / the suite document here")
    parser.add_argument("--reps", type=int, default=3, help="suite: untraced runs per workload")
    parser.add_argument("--no-traced", action="store_true", help="suite: skip the traced run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return report.compare(spec, *args.compare)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if args.trace is None:
        return report.suite(args, workloads, str(Path(__file__).resolve()))
    if args.workload is None:
        parser.error("--trace needs --workload")
    args.trace = bool(args.trace)
    return run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
