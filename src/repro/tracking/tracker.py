"""Tracking density-based clusters across window slides.

Clusters in consecutive windows are linked by the overlap of their core
skeletal grid cells (the sliding window moves gradually, so a surviving
cluster keeps most of its core cells from one slide to the next). The
tracker classifies every cluster of the new window into the structural
events the stream-clustering literature distinguishes:

* ``EMERGED`` — no sufficiently overlapping predecessor;
* ``SURVIVED`` — exactly one predecessor, which maps only here (the
  track id is inherited);
* ``MERGED`` — more than one predecessor (a fresh track id; parents are
  recorded);
* ``SPLIT`` — a predecessor maps to several new clusters; the child with
  the largest overlap inherits the track id, the others get fresh ids
  with the parent recorded;
* ``DISAPPEARED`` — a predecessor with no successor (reported once, in
  the window where it vanished).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.csgs import WindowOutput
from repro.core.sgs import SGS

Coord = Tuple[int, ...]


class TrackEvent(enum.Enum):
    EMERGED = "emerged"
    SURVIVED = "survived"
    MERGED = "merged"
    SPLIT = "split"
    DISAPPEARED = "disappeared"


@dataclass
class TrackedCluster:
    """One cluster observation annotated with its track and event."""

    track_id: int
    window_index: int
    event: TrackEvent
    sgs: Optional[SGS]
    parent_tracks: List[int] = field(default_factory=list)


def _core_cells(sgs: SGS) -> Set[Coord]:
    return {location for location, row in sgs.rows.items() if row[0]}


def _overlap(a: Set[Coord], b: Set[Coord]) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


class ClusterTracker:
    """Stateful window-to-window cluster correspondence."""

    def __init__(self, overlap_threshold: float = 0.1):
        if not 0 < overlap_threshold <= 1:
            raise ValueError("overlap_threshold must be in (0, 1]")
        self.overlap_threshold = overlap_threshold
        self._next_track = 0
        # track_id -> core-cell set of its latest observation
        self._previous: Dict[int, Set[Coord]] = {}
        self.history: Dict[int, List[TrackedCluster]] = {}

    def _new_track(self) -> int:
        track = self._next_track
        self._next_track += 1
        return track

    def observe(self, output: WindowOutput) -> List[TrackedCluster]:
        """Ingest one window's summaries; returns the annotated clusters
        (plus DISAPPEARED records for vanished tracks)."""
        window = output.window_index
        current = [(sgs, _core_cells(sgs)) for sgs in output.summaries]

        # Overlap matrix between previous tracks and current clusters.
        matches_per_track: Dict[int, List[Tuple[float, int]]] = {}
        parents_per_cluster: Dict[int, List[Tuple[float, int]]] = {
            i: [] for i in range(len(current))
        }
        for track_id, old_cells in self._previous.items():
            for i, (_, new_cells) in enumerate(current):
                overlap = _overlap(old_cells, new_cells)
                if overlap >= self.overlap_threshold:
                    matches_per_track.setdefault(track_id, []).append(
                        (overlap, i)
                    )
                    parents_per_cluster[i].append((overlap, track_id))

        # Which child inherits each splitting track: the best-overlap one.
        heir_of_track: Dict[int, int] = {}
        for track_id, matches in matches_per_track.items():
            heir_of_track[track_id] = max(matches)[1]

        results: List[TrackedCluster] = []
        new_previous: Dict[int, Set[Coord]] = {}
        for i, (sgs, new_cells) in enumerate(current):
            parents = sorted(parents_per_cluster[i], reverse=True)
            parent_ids = [track_id for _, track_id in parents]
            if not parents:
                track_id = self._new_track()
                event = TrackEvent.EMERGED
            elif len(parents) == 1:
                parent = parent_ids[0]
                if heir_of_track[parent] == i:
                    track_id = parent
                    event = (
                        TrackEvent.SURVIVED
                        if len(matches_per_track[parent]) == 1
                        else TrackEvent.SPLIT
                    )
                else:
                    track_id = self._new_track()
                    event = TrackEvent.SPLIT
            else:
                best = parent_ids[0]
                if (
                    heir_of_track[best] == i
                    and len(matches_per_track[best]) == 1
                ):
                    track_id = best
                else:
                    track_id = self._new_track()
                event = TrackEvent.MERGED
            record = TrackedCluster(
                track_id, window, event, sgs, parent_ids
            )
            results.append(record)
            self.history.setdefault(track_id, []).append(record)
            new_previous[track_id] = new_cells

        # Tracks without any successor disappeared this window.
        for track_id in self._previous:
            if track_id not in matches_per_track:
                record = TrackedCluster(
                    track_id, window, TrackEvent.DISAPPEARED, None
                )
                results.append(record)
                self.history.setdefault(track_id, []).append(record)
        self._previous = new_previous
        return results
