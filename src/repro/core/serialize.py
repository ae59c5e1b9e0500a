"""Serialization of SGS summaries and archived patterns.

Two formats, both read from and written to a summary's rows
(:mod:`repro.core.cells`) — no codec builds a cell object:

* **binary** — the compact storage layout the paper's byte accounting
  assumes (Section 8.2) and the byte image of the rows: per cell, int32
  location coordinates, one status byte, a uint32 population and a
  one-byte connection count, then the row's connection block as it is.
  This is what the Pattern Base writes to disk; round-tripping it also
  validates the cost model in ``repro.eval.memory`` against real bytes.
* **dict / JSON** — a human-readable interchange form for tooling and
  the wire, connections as absolute neighbor coordinates.

A block stores each connection as a signed byte per dimension of the
neighbor-cell *offset* (connections only ever reach ``ceil(sqrt(d))``
cells, so offsets fit easily) — close to the paper's fixed 2-byte bitmap
while remaining exact for d >= 2, where a ±1 bitmap is insufficient.
"""

from __future__ import annotations

import functools
import json
import struct
from typing import Dict, Tuple

from repro.core.cells import (
    CellStatus,
    Coord,
    Row,
    block_neighbors,
    connection_block,
)
from repro.core.sgs import SGS

_MAGIC = b"SGS1"
_HEADER = struct.Struct("<BdiiiI")
_CONNECTION_LIMIT = "a cell holds up to 255 connections of its dimensionality"
_HEAD_LIMIT = "a cell holds an int32 location and a uint32 population"


@functools.lru_cache(maxsize=32)
def _cell_head(dims: int) -> struct.Struct:
    """Location, status byte, population, connection count."""
    return struct.Struct(f"<{dims}iBIB")


def sgs_to_dict(sgs: SGS) -> Dict:
    """JSON-ready dictionary form of an SGS."""
    return {
        "side_length": sgs.side_length,
        "level": sgs.level,
        "cluster_id": sgs.cluster_id,
        "window_index": sgs.window_index,
        "cells": [
            {
                "location": list(location),
                "population": population,
                "status": (CellStatus.CORE if is_core else CellStatus.EDGE).value,
                "connections": [
                    list(other) for other in block_neighbors(location, block)
                ],
            }
            for location, (is_core, population, block) in sgs.rows.items()
        ],
    }


def _row_from_dict(entry: Dict) -> Tuple[Coord, Row]:
    """One interchange cell. Summaries from outside the program arrive
    here, so what the binary layout cannot hold is refused here, once."""
    location, connections = tuple(entry["location"]), entry["connections"]
    is_core = CellStatus(entry["status"]) is CellStatus.CORE
    population = entry["population"]
    dims = len(location)
    if len(connections) > 255 or any(len(other) != dims for other in connections):
        raise ValueError(_CONNECTION_LIMIT)
    try:  # the layout itself says what fits: integers, int32, uint32
        _cell_head(dims).pack(*location, is_core, population, 0)
    except struct.error:
        raise ValueError(_HEAD_LIMIT) from None
    neighbors = sorted(set(map(tuple, connections)))
    return location, (is_core, population, connection_block(location, neighbors))


def sgs_from_dict(data: Dict) -> SGS:
    """Inverse of :func:`sgs_to_dict`."""
    if not data["side_length"] > 0:
        raise ValueError("side_length must be positive")
    rows: Dict[Coord, Row] = {}
    for entry in data["cells"]:
        location, row = _row_from_dict(entry)
        if location in rows:
            raise ValueError(f"duplicate cell location {location}")
        rows[location] = row
    return SGS(
        rows,
        data["side_length"],
        level=data["level"],
        cluster_id=data["cluster_id"],
        window_index=data["window_index"],
    )


def sgs_to_json(sgs: SGS) -> str:
    return json.dumps(sgs_to_dict(sgs), sort_keys=True)


def sgs_from_json(text: str) -> SGS:
    return sgs_from_dict(json.loads(text))


def sgs_to_bytes(sgs: SGS) -> bytes:
    """Compact binary encoding (the Pattern Base storage layout): each
    row's head packed in front of its block, as is.

    Refuses, with the ``ValueError`` of the dict path, what the layout
    cannot hold: more than 255 connections in a cell, a location outside
    int32 or a population outside uint32.
    """
    dims = sgs.dimensions
    pack = _cell_head(dims).pack
    out = [
        _MAGIC,
        _HEADER.pack(
            dims,
            sgs.side_length,
            sgs.level,
            sgs.cluster_id,
            sgs.window_index,
            len(sgs.rows),
        ),
    ]
    for location, (is_core, population, block) in sgs.rows.items():
        count, ragged = divmod(len(block), dims)
        if count > 255 or ragged:
            raise ValueError(_CONNECTION_LIMIT)
        try:
            out.append(pack(*location, is_core, population, count))
        except struct.error:
            raise ValueError(_HEAD_LIMIT) from None
        out.append(block)
    return b"".join(out)


def sgs_from_bytes(blob: bytes) -> SGS:
    """Inverse of :func:`sgs_to_bytes`: slices the blob into rows and
    consumes exactly the blob — a cut or padded one is a ``ValueError``."""
    if blob[:4] != _MAGIC:
        raise ValueError("not an SGS binary blob")
    rows: Dict[Coord, Row] = {}
    try:
        dims, side, level, cluster_id, window_index, n_cells = _HEADER.unpack_from(
            blob, 4
        )
        offset = 4 + _HEADER.size
        head = _cell_head(dims)
        for _ in range(n_cells):
            cell = head.unpack_from(blob, offset)
            offset += head.size
            end = offset + cell[-1] * dims
            rows[cell[:dims]] = (cell[dims] != 0, cell[dims + 1], blob[offset:end])
            offset = end
    except struct.error:
        raise ValueError("truncated SGS blob") from None
    if offset != len(blob) or len(rows) != n_cells:
        raise ValueError("SGS blob cut short, with trailing bytes or a repeated cell")
    return SGS(
        rows, side, level=level, cluster_id=cluster_id, window_index=window_index
    )
