#!/usr/bin/env python3
"""Quickstart: continuous clustering + summarization + matching in ~60 lines.

Runs the full pipeline of the paper on a synthetic stream of drifting
Gaussian blobs:

1. a Continuous Clustering Query (Figure 2) extracts density-based
   clusters per sliding window, in full and SGS representation;
2. every extracted cluster is archived in the Pattern Base;
3. a Cluster Matching Query (Figure 3) retrieves, for the newest
   cluster, similar clusters from the stream history.

Run:  python examples/quickstart.py
"""

from repro import (
    ContinuousClusteringQuery,
    DriftingBlobStream,
    StreamPatternMiningSystem,
)

# -- 1. Declare the continuous clustering query ----------------------------
# DETECT DensityBasedClusters(f+s) FROM stream
# USING theta_range = 0.3 AND theta_cnt = 5
# IN Windows WITH win = 500 AND slide = 100
query = ContinuousClusteringQuery.count_based(
    theta_range=0.3, theta_count=5, dimensions=2, win=500, slide=100
)

system = StreamPatternMiningSystem.from_query(query)

# -- 2. Run the stream ------------------------------------------------------
stream = DriftingBlobStream(n_blobs=3, noise_fraction=0.25, seed=42)
last_output = None
for output in system.run_steps(stream.objects(6000)):
    line = ", ".join(
        f"cluster {c.cluster_id}: {c.size} objects -> {len(s)} cells"
        for c, s in zip(output.clusters, output.summaries)
    )
    print(f"window {output.window_index:>3}: {line or 'no clusters'}")
    last_output = output

print(f"\narchived clusters in the Pattern Base: {system.archived_count}")

# -- 3. Match the newest cluster against the stream history ----------------
if last_output and last_output.summaries:
    to_be_matched = max(last_output.summaries, key=len)
    print(
        f"\nmatching query: cluster {to_be_matched.cluster_id} of window "
        f"{to_be_matched.window_index} ({len(to_be_matched)} cells, "
        f"population {to_be_matched.population})"
    )
    results, stats = system.match(to_be_matched, threshold=0.25, top_k=5)
    print(
        f"index candidates: {stats.gathered}, refined: "
        f"{stats.refined} ({stats.refine_fraction:.1%} of archive), "
        f"matches: {stats.matches}"
    )
    for rank, result in enumerate(results, start=1):
        pattern = result.pattern
        print(
            f"  #{rank}: pattern {pattern.pattern_id} from window "
            f"{pattern.window_index} — distance {result.distance:.3f}, "
            f"alignment {result.alignment}"
        )
else:
    print("no clusters in the final window; try a different seed")
