"""Serialization of SGS summaries and archived patterns.

Two formats:

* **binary** — the compact storage layout the paper's byte accounting
  assumes (Section 8.2): per cell, int32 location coordinates, one
  status byte, an int32 population, and a packed connection block. This
  is what the Pattern Base would write to disk; round-tripping it also
  validates the cost model in ``repro.eval.memory`` against real bytes.
* **dict / JSON** — a human-readable interchange form for tooling.

The binary connection block stores each connection as a signed byte per
dimension of the neighbor-cell *offset* (connections only ever reach
``ceil(sqrt(d))`` cells, so offsets fit easily), preceded by a one-byte
count — close to the paper's fixed 2-byte bitmap while remaining exact
for d >= 2 (a ±1 bitmap is insufficient there: with cell diagonal = θr,
connected core cells lie up to ``ceil(sqrt(d))`` steps apart).
"""

from __future__ import annotations

import json
import struct
from array import array
from operator import sub
from typing import Dict, List

from repro.core.cells import CellStatus, SkeletalGridCell, pack_offsets
from repro.core.sgs import SGS

_MAGIC = b"SGS1"
_CONNECTION_LIMIT = "a cell holds up to 255 connections of its dimensionality"


def sgs_to_dict(sgs: SGS) -> Dict:
    """JSON-ready dictionary form of an SGS."""
    return {
        "side_length": sgs.side_length,
        "level": sgs.level,
        "cluster_id": sgs.cluster_id,
        "window_index": sgs.window_index,
        "cells": [
            {
                "location": list(cell.location),
                "population": cell.population,
                "status": cell.status.value,
                "connections": [list(other) for other in cell.neighbors()],
            }
            for cell in sgs.cells.values()
        ],
    }


def _cell_from_dict(entry: Dict, side_length: float) -> SkeletalGridCell:
    """One interchange cell. Summaries from outside the program arrive
    here, so what the binary layout cannot hold is refused here, once."""
    location, connections = tuple(entry["location"]), entry["connections"]
    dims = len(location)
    if len(connections) > 255 or any(len(other) != dims for other in connections):
        raise ValueError(_CONNECTION_LIMIT)
    packed = pack_offsets(
        (tuple(map(sub, other, location)) for other in connections), dims
    )
    # In-box offsets are in range by construction; only extras can stray.
    if any(not -128 <= off <= 127 for offset in packed[1] for off in offset):
        raise ValueError(f"connection offset out of byte range: {sorted(packed[1])}")
    return SkeletalGridCell(
        location, side_length, entry["population"], CellStatus(entry["status"]),
        packed=packed,
    )


def sgs_from_dict(data: Dict) -> SGS:
    """Inverse of :func:`sgs_to_dict`."""
    cells = [_cell_from_dict(entry, data["side_length"]) for entry in data["cells"]]
    return SGS(
        cells,
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
    """Compact binary encoding (the Pattern Base storage layout).

    Refuses, with the ``ValueError`` of the dict path, what the layout
    cannot hold: more than 255 connections in a cell, or an offset
    component outside a signed byte.
    """
    dims = sgs.dimensions
    head = struct.Struct(f"<{dims}iBIB")
    out: List[bytes] = [
        _MAGIC,
        struct.pack(
            "<BdiiiI",
            dims,
            sgs.side_length,
            sgs.level,
            sgs.cluster_id,
            sgs.window_index,
            len(sgs.cells),
        ),
    ]
    for cell in sgs.cells.values():
        block = cell.offset_block()
        count, ragged = divmod(len(block), dims)
        if count > 255 or ragged:
            raise ValueError(_CONNECTION_LIMIT)
        try:
            connections = array("b", block).tobytes()
        except OverflowError:  # a component outside the signed byte
            offsets = (block[at:at + dims] for at in range(0, len(block), dims))
            stray = next(o for o in offsets if not -128 <= min(o) <= max(o) <= 127)
            raise ValueError(
                f"connection offset out of byte range: {stray}"
            ) from None
        out.append(head.pack(*cell.location, cell.is_core, cell.population, count))
        out.append(connections)
    return b"".join(out)


def sgs_from_bytes(blob: bytes) -> SGS:
    """Inverse of :func:`sgs_to_bytes`."""
    if blob[:4] != _MAGIC:
        raise ValueError("not an SGS binary blob")
    offset = 4
    dims, side, level, cluster_id, window_index, n_cells = struct.unpack_from(
        "<BdiiiI", blob, offset
    )
    offset += struct.calcsize("<BdiiiI")
    connection = struct.Struct(f"<{dims}b")
    cells = []
    for _ in range(n_cells):
        location = struct.unpack_from(f"<{dims}i", blob, offset)
        offset += 4 * dims
        is_core, population, n_conn = struct.unpack_from("<BIB", blob, offset)
        offset += struct.calcsize("<BIB")
        # Offset bytes go straight into the offset form: no absolute tuples.
        end = offset + n_conn * dims
        if end > len(blob):
            raise struct.error("truncated connection block")
        packed = pack_offsets(
            connection.iter_unpack(blob[offset:end]) if n_conn else (), dims
        )
        offset = end
        cells.append(
            SkeletalGridCell(
                location,
                side,
                population,
                CellStatus.CORE if is_core else CellStatus.EDGE,
                packed=packed,
            )
        )
    return SGS(
        cells, side, level=level, cluster_id=cluster_id,
        window_index=window_index,
    )
