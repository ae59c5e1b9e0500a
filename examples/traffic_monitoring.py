#!/usr/bin/env python3
"""Traffic / moving-object monitoring (the paper's GMTI motivation).

Simulates a ground-moving-target stream (convoys drifting through a
100x100 region with background traffic) and demonstrates the analyses
the paper's introduction motivates:

* **Feature abstraction** — per congestion area (cluster), locate its
  densest sub-region ("the key bottleneck") from the SGS alone, without
  touching the raw vehicle tuples.
* **Compression** — compare the bytes of the SGS against the full
  representation for long-term archival.
* **Pattern retrieval** — when a new congestion pattern arises, find
  similar past congestion patterns (whose relief plan could be reused),
  position-insensitively.

Run:  python examples/traffic_monitoring.py
"""

from repro import (
    DistanceMetricSpec,
    GMTIStream,
    StreamPatternMiningSystem,
    TimeBasedWindowSpec,
)
from repro.eval.memory import full_representation_bytes, sgs_bytes
from repro.streams.source import RateFluctuatingSource

THETA_RANGE = 2.5  # two reports within 2.5 units are "neighbors"
THETA_COUNT = 8  # a report with >= 8 neighbors marks a dense spot

# Time-based windows: the last 20 seconds of reports, sliding every 5.
window = TimeBasedWindowSpec(win=20.0, slide=5.0)

system = StreamPatternMiningSystem(
    THETA_RANGE,
    THETA_COUNT,
    dimensions=2,
    window_spec=window,
    metric=DistanceMetricSpec(position_sensitive=False),
)

# Vehicles report at a fluctuating rate (rush-hour style).
gmti = GMTIStream(n_groups=4, noise_fraction=0.2, seed=7)
source = RateFluctuatingSource(
    gmti.points(8000), base_rate=100.0, amplitude=0.5, period=2000
)

print("monitoring traffic stream (time-based windows, 20s / 5s)...\n")
interesting = []
for output in system.run_steps(source):
    for cluster, sgs in zip(output.clusters, output.summaries):
        if cluster.size < 60:
            continue
        # Feature abstraction: find the bottleneck sub-region directly
        # from the summary — the densest skeletal grid cell.
        bottleneck = max(sgs.cells.values(), key=lambda cell: cell.density())
        x, y = bottleneck.center()
        compression = 1 - sgs_bytes(sgs) / full_representation_bytes(
            cluster, 2
        )
        print(
            f"window {output.window_index:>3}: congestion of "
            f"{cluster.size:>4} vehicles over {len(sgs):>3} cells; "
            f"bottleneck near ({x:5.1f}, {y:5.1f}) at "
            f"{bottleneck.density():6.1f} veh/unit^2; "
            f"summary saves {compression:.1%} storage"
        )
        interesting.append(sgs)

print(f"\narchived congestion patterns: {system.archived_count}")

# Pattern retrieval: has a congestion like the latest one happened before?
if interesting:
    newest = interesting[-1]
    results, stats = system.match(newest, threshold=0.3, top_k=3)
    # The newest pattern itself is archived; skip self-matches.
    prior = [
        r
        for r in results
        if r.pattern.window_index != newest.window_index
    ]
    print(
        f"\nsimilar past congestion patterns for the newest one "
        f"(checked {stats.gathered} candidates, refined "
        f"{stats.refined}):"
    )
    if prior:
        for result in prior:
            print(
                f"  window {result.pattern.window_index:>3}: distance "
                f"{result.distance:.3f} -> reuse its congestion-relief plan"
            )
    else:
        print("  none within threshold — this pattern is new; plan afresh")
