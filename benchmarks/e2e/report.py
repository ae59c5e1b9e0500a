"""The suite run (R fresh-process repetitions + one traced run per
workload, with provenance) and the comparison of two suite documents.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import List, Optional, Sequence

from .measure import ROOT


def provenance() -> dict:
    """What was measured, where: the commit *with* its dirty flag (a
    record stamped before the commit exists names the parent), the host
    and the interpreter."""

    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git",) + argv, cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "host": platform.node(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _one_run(script: str, workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh process (two runs sharing a process
    drift: allocator state, warmed caches) and parse its last line."""
    command = [
        sys.executable, script,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.out and trace:
        command += ["--out", args.out]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"{workload}: run exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stdout)
    return result


def summarise(values: Sequence[float]) -> dict:
    return {
        "values": list(values),
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def suite(args, workloads: Sequence[str], script: str) -> int:
    chosen = [args.workload] if args.workload else list(workloads)
    document = {
        "provenance": provenance(),
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps,
        "smoke": args.smoke,
        "workloads": {},
    }
    ok = True
    for workload in chosen:
        runs = [_one_run(script, workload, args, 0) for _ in range(args.reps)]
        traced = None if args.no_traced else _one_run(script, workload, args, 1)
        every = runs + ([traced] if traced else [])
        entry = {
            "correct": all(run["correct"] for run in every),
            "attempted": sum(run["attempted"] for run in every),
            "failed": sum(run["failed"] for run in every),
            "end_to_end": {
                name: {
                    "unit": runs[0]["metrics"][name]["unit"],
                    **summarise([run["metrics"][name]["value"] for run in runs]),
                }
                for name in runs[0]["metrics"]
            },
            "per_layer": traced["metrics"] if traced else {},
        }
        document["workloads"][workload] = entry
        ok = ok and entry["correct"] and entry["failed"] == 0

        print(f"\n{workload}: correct={entry['correct']} "
              f"failed={entry['failed']}/{entry['attempted']}")
        for name, row in entry["end_to_end"].items():
            print(f"  {name:<14} {row['unit']:<5} n={row['n']}  "
                  f"median={row['median']:.4f}  min={row['min']:.4f}  "
                  f"max={row['max']:.4f}")
        for name, row in entry["per_layer"].items():
            if row["value"]:
                print(f"  {name:<40} {row['value']:>16.4f} {row['unit']}")
    text = json.dumps(document)
    if args.out:
        with open(os.path.join(args.out, "e2e.json"), "w") as handle:
            handle.write(text + "\n")
    print()
    print(text)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> str:
    """``worse`` — B's median is worse than A's by more than the bound;
    ``unresolved`` — it is not, but either side's own runs spread wider
    than the bound, so "unchanged" cannot be told from a regression
    (unless every run of B beats every run of A); ``within`` otherwise."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    if better == "lower":
        worse_by = (median_b - median_a) / median_a
        b_beats_a = max(b) < min(a)
    else:
        worse_by = (median_a - median_b) / median_a
        b_beats_a = min(b) > max(a)
    if worse_by > bound:
        return "worse"
    spread = max(
        (max(side) - min(side)) / statistics.median(side) for side in (a, b)
    )
    if spread > bound and not b_beats_a:
        return "unresolved"
    return "within"


def compare(spec: dict, path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        doc_a = json.load(handle)
    with open(path_b) as handle:
        doc_b = json.load(handle)
    for label, doc in (("A", doc_a), ("B", doc_b)):
        p = doc["provenance"]
        print(f"{label}: commit {p['commit']}{' (dirty)' if p['dirty'] else ''} "
              f"on {p['host']} ({p['cpus']} cpus), seed {doc['seed']}, "
              f"{doc['reps']} x {doc['seconds']} s")
    rules = {entry["name"]: entry for entry in spec["end_to_end"]}
    verdicts: List[str] = []
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(workload)
        if entry_b is None:
            continue
        print(f"\n{workload}")
        for name, rule in rules.items():
            a = entry_a["end_to_end"][name]["values"]
            b = entry_b["end_to_end"][name]["values"]
            median_a, median_b = statistics.median(a), statistics.median(b)
            outcome = verdict(a, b, rule["better"], rule["bound"])
            verdicts.append(outcome)
            print(f"  {name:<14} A={median_a:.4f} B={median_b:.4f} {rule['unit']:<4} "
                  f"B/A={median_b / median_a:.3f} (base A={median_a:.4f}) "
                  f"{rule['better']} is better, bound {rule['bound']:.0%}: {outcome}")
    for kind in ("worse", "unresolved", "within"):
        print(f"{kind}: {verdicts.count(kind)}")
    return 1 if "worse" in verdicts else 0
