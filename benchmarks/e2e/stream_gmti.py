"""``stream-gmti`` — the paper's small-slide Figure-7 case.

GMTI 2-D (20 % noise), θr = 2.5, θc = 8, win = 2000, slide = 100,
memory store. Career and lifespan maintenance (``core.lifespan``) does
most of the work, ``core.csgs`` emit and the archiver are visible
because a pass emits 80 windows, the range-query share is small. No
matching code runs.
"""

from . import inputs, streams

NAME = "stream-gmti"

CONFIG = streams.StreamConfig(
    name=NAME,
    kind="gmti",
    dimensions=2,
    theta_range=inputs.GMTI_THETA_RANGE,
    theta_count=inputs.GMTI_THETA_COUNT,
    win=2000,
    slide=100,
    points=8000,
    smoke_points=3000,
    sqlite=False,
    pinned={
        0: "2a01ed30aab6a4c58b58383c4ffbca400c48d6129effdc9af9600ca97637e1e2",
    },
)


def run(args) -> dict:
    return streams.run(CONFIG, args)
