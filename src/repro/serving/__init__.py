"""Deployment seam for serving the Pattern Base.

:mod:`repro.retrieval.shards` partitions the archive and plans per
shard; *this* package decides **where the shard work runs** and how a
long-lived deployment fronts it:

* :mod:`repro.serving.merge` — the deterministic cross-shard merge
  (concatenate, sort by ``(distance, pattern_id)``, cut to ``top_k``),
  shared by every execution mode so answers never depend on placement
  or parallelism;
* :mod:`repro.serving.executors` — the :class:`ShardExecutor` seam
  with two interchangeable implementations: ``serial`` (in-process
  loop) and ``process`` (multiprocessing workers that hydrate their
  shard once from a SQLite dump and restart on crash;
  ``replicas=N`` runs N workers per shard with round-robin reads and
  mid-task failover to a live sibling);
* :mod:`repro.serving.wire` — the picklable/JSON-able wire forms of
  queries, results, and stats that cross the process and HTTP
  boundaries;
* :mod:`repro.serving.service` / :mod:`repro.serving.httpd` — the
  always-on front end: a :class:`MatchService` application object and
  a stdlib JSON-over-HTTP server (``repro serve``) exposing
  ``/ingest``, ``/match``, ``/match_many``, ``/stats``, ``/healthz``.

:class:`~repro.retrieval.shards.ShardedMatchEngine` is a thin facade
over this seam: it owns one executor for its lifetime and merges
through :func:`~repro.serving.merge.merge_shard_results`, so
``{serial, process}`` are interchangeable via its ``mode``
argument (or ``repro serve --mode``) with identical answers.
"""

from repro.serving.executors import (
    MODES,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    build_executor,
    validate_mode,
)
from repro.serving.merge import ENTRY_SHARDED, merge_shard_results

__all__ = [
    "ENTRY_SHARDED",
    "MODES",
    "MatchService",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardExecutor",
    "build_executor",
    "merge_shard_results",
    "validate_mode",
]


def __getattr__(name):
    # MatchService lives behind a lazy import: service.py builds
    # ShardedPatternBase instances, and a module-level import here
    # would close an import cycle through repro.retrieval.shards.
    if name == "MatchService":
        from repro.serving.service import MatchService

        return MatchService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
