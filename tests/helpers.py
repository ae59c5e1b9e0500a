"""Shared helpers for the test suite, imported explicitly as
``from tests.helpers import ...``.

These used to live in ``tests/conftest.py`` and were imported as
``from conftest import ...`` — which broke collection from the repo
root, where ``benchmarks/conftest.py`` shadowed the ambiguous
``conftest`` module name. Plain module + explicit package import keeps
them unambiguous under any invocation.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.streams.objects import StreamObject
from repro.streams.source import ListSource
from repro.streams.windows import CountBasedWindowSpec, Windower

#: The two arms of ``CoordStore``'s kernel dispatch, as the
#: ``kernel_arm`` fixture (``tests/conftest.py``) names them.
KERNEL_ARMS = ("scalar", "vector")


def make_objects(
    points: Sequence[Tuple[float, ...]],
    last_window: int = 10,
    first_window: int = 0,
) -> List[StreamObject]:
    """Stream objects from raw points, pre-stamped as alive in a range."""
    objects = []
    for i, coords in enumerate(points):
        obj = StreamObject(i, tuple(coords))
        obj.first_window = first_window
        obj.last_window = last_window
        objects.append(obj)
    return objects


def clustered_points(
    centers: Sequence[Tuple[float, ...]],
    per_cluster: int,
    std: float = 0.2,
    noise: int = 0,
    bounds: float = 10.0,
    seed: int = 0,
) -> List[Tuple[float, ...]]:
    """Gaussian blobs plus uniform noise, shuffled deterministically."""
    rng = random.Random(seed)
    dims = len(centers[0])
    points: List[Tuple[float, ...]] = []
    for center in centers:
        for _ in range(per_cluster):
            points.append(tuple(rng.gauss(c, std) for c in center))
    for _ in range(noise):
        points.append(tuple(rng.uniform(0, bounds) for _ in range(dims)))
    rng.shuffle(points)
    return points


def stream_batches(points, win: int, slide: int):
    """Window batches over an in-memory point list."""
    spec = CountBasedWindowSpec(win=win, slide=slide)
    return Windower(spec).batches(ListSource(points))
