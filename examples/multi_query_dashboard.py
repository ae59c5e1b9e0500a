#!/usr/bin/env python3
"""A multi-density monitoring dashboard over one stream.

An analyst watching a moving-object stream rarely knows the "right"
density threshold up front; a standard practice is to register several
Continuous Clustering Queries at different θc levels at once. This
example shows the production-style wiring for that:

* queries declared in the paper's textual template (Figure 2) and
  parsed by ``repro.query``;
* co-executed by ``SharedCSGS`` — one range query per arriving object
  regardless of how many density levels are monitored;
* the strictest level's clusters dumped to a SQLite file, then
  re-loaded and queried in a separate "analysis session" (Pattern Base
  persistence).

Run:  python examples/multi_query_dashboard.py
"""

import tempfile
from pathlib import Path

from repro import GMTIStream, parse_query
from repro.archive.pattern_base import PatternBase
from repro.archive.persistence import dump_pattern_base, load_pattern_base
from repro.clustering.shared import SharedCSGS
from repro.retrieval.engine import MatchEngine
from repro.streams.windows import Windower

QUERY_TEXTS = [
    # Loose: any gathering of vehicles.
    "DETECT DensityBasedClusters f+s FROM gmti USING theta_range = 2.5 "
    "AND theta_cnt = 4 IN Windows WITH win = 2000 AND slide = 500",
    # Medium: sustained concentration.
    "DETECT DensityBasedClusters f+s FROM gmti USING theta_range = 2.5 "
    "AND theta_cnt = 8 IN Windows WITH win = 2000 AND slide = 500",
    # Strict: serious congestion only.
    "DETECT DensityBasedClusters f+s FROM gmti USING theta_range = 2.5 "
    "AND theta_cnt = 14 IN Windows WITH win = 2000 AND slide = 500",
]

queries = [parse_query(text, dimensions=2) for text in QUERY_TEXTS]
theta_counts = [query.theta_count for query in queries]
window = queries[0].window  # all three share win/slide (asserted below)
assert all(q.window.win == window.win for q in queries)

shared = SharedCSGS(
    theta_range=queries[0].theta_range,
    theta_counts=theta_counts,
    dimensions=2,
)
strict_base = PatternBase()

stream = GMTIStream(n_groups=4, noise_fraction=0.2, seed=17)
print(f"monitoring at density levels theta_cnt = {theta_counts}\n")
for batch in Windower(window).batches(stream.objects(6000)):
    outputs = shared.process_batch(batch)
    line = " | ".join(
        f"thc={count}: {len(outputs[count].clusters):>2} clusters"
        for count in theta_counts
    )
    print(f"window {batch.index:>2}: {line}")
    strict = outputs[theta_counts[-1]]
    for cluster, sgs in zip(strict.clusters, strict.summaries):
        if cluster.size >= 30:
            strict_base.add(sgs, cluster.size)

print(
    f"\nshared execution ran {shared.range_queries_run} range queries for "
    f"{len(theta_counts)} concurrent queries "
    f"(independent pipelines would run "
    f"{len(theta_counts) * shared.range_queries_run})"
)

# Persist the strict-level history, then match against it in a separate
# analysis session.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "strict_history.db"
    written = dump_pattern_base(strict_base, path)
    print(f"\npersisted {len(strict_base)} strict congestion patterns "
          f"({written} bytes) to {path.name}")

    reloaded = load_pattern_base(path)
    matching = parse_query(
        "GIVEN DensityBasedClusters C SELECT DensityBasedClusters FROM "
        "History WHERE Distance <= 0.35 TOP 3"
    )
    engine = MatchEngine(reloaded, matching.metric)
    newest = max(
        reloaded.all_patterns(), key=lambda p: p.window_index
    )
    results, stats = engine.match_sgs(
        newest.sgs, matching.sim_threshold, top_k=matching.top_k
    )
    print(
        f"matching newest strict pattern against the reloaded history: "
        f"{stats.matches} matches "
        f"(refined {stats.refined}/{stats.archive_size})"
    )
    for rank, result in enumerate(results, start=1):
        print(
            f"  #{rank}: pattern {result.pattern.pattern_id} from window "
            f"{result.pattern.window_index}, distance {result.distance:.3f}"
        )
