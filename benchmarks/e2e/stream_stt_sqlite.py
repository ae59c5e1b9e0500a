"""``stream-stt-sqlite`` — the same stream layers, used differently.

STT 4-D, θr = 0.1, θc = 8, win = 2000, slide = 125, every archived
pattern one SQLite transaction (``store="sqlite:PATH"``). Four
dimensions make the range query a larger share than on ``stream-gmti``
and the store writes show in the window latency, so a gain in ``index``
paid for in ``core.lifespan`` (or the reverse) splits the two workloads.
"""

from . import inputs, streams

NAME = "stream-stt-sqlite"

CONFIG = streams.StreamConfig(
    name=NAME,
    kind="stt",
    dimensions=4,
    theta_range=inputs.STT_THETA_RANGE,
    theta_count=inputs.STT_THETA_COUNT,
    win=2000,
    slide=125,
    points=7000,
    smoke_points=2500,
    sqlite=True,
    pinned={
        0: "c16233a0bc53b2dcd3422a1224972896d5cd9792f5532dba2dfece3c4b709099",
    },
)


def run(args) -> dict:
    return streams.run(CONFIG, args)
