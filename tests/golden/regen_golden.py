#!/usr/bin/env python
"""Regenerate the golden C-SGS fixtures from their canonical runs.

Usage (from the repo root)::

    PYTHONPATH=src python tests/golden/regen_golden.py

Only rerun this after an *intentional* change to C-SGS output; the
diffs of the fixture files are part of the review surface for any such
change. Each case regenerates through its canonical backend (the
``stt_auto`` case on the k-d tree); the test suite
then requires every backend × kernel arm to reproduce the bytes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.golden import workload  # noqa: E402


def main() -> int:
    for case in workload.CASES.values():
        trace = workload.run_trace(case.canonical_backend, case=case)
        text = workload.render(trace)
        case.path.write_text(text)
        clusters = sum(len(entry["clusters"]) for entry in trace)
        print(
            f"wrote {case.path} via {case.canonical_backend} "
            f"({len(text)} bytes, {len(trace)} windows, "
            f"{clusters} clusters)"
        )
    match_trace = workload.run_match_trace()
    text = workload.render(match_trace)
    workload.MATCH_PATH.write_text(text)
    matches = sum(len(entry["matches"]) for entry in match_trace)
    print(
        f"wrote {workload.MATCH_PATH} ({len(text)} bytes, "
        f"{len(match_trace)} queries, {matches} matches)"
    )
    sharded_trace = workload.run_sharded_match_trace()
    text = workload.render(sharded_trace)
    workload.SHARDED_MATCH_PATH.write_text(text)
    matches = sum(len(entry["matches"]) for entry in sharded_trace)
    print(
        f"wrote {workload.SHARDED_MATCH_PATH} ({len(text)} bytes, "
        f"{len(sharded_trace)} sharded queries, {matches} matches)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
