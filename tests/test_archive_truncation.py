"""Crash drills for archive persistence.

Three failure families, every one of which must leave *no* partial
archive behind:

* a crash **while dumping** may never tear the previous good file
  (atomic temp-file + fsync + rename);
* a torn **dump file** must be rejected with a clean :class:`ValueError`
  at every possible cut point — never a raw ``struct.error`` — and a
  bulk load into a durable store must roll back to its pre-load state;
  so must a single torn or padded **stored blob**;
* a SIGKILL **during archival** must preserve every pattern whose
  ``add`` was acknowledged before the kill.
"""

import io
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.helpers import (
    clustered_points,
    reference_sgs_from_bytes,
    roundtrip_bytes,
    stream_batches,
)
from repro.archive.pattern_base import PatternBase
from repro.archive.persistence import dump_pattern_base, load_pattern_base
from repro.core.csgs import CSGS
from repro.core.serialize import sgs_from_bytes, sgs_to_bytes

_RECORD = "<IIBI"


def _populated(seed=1, inverted=None):
    points = clustered_points(
        [(2.0, 2.0), (6.0, 5.0)], per_cluster=250, noise=100, seed=seed
    )
    base = PatternBase(inverted_levels=inverted)
    csgs = CSGS(0.35, 5, 2)
    for batch in stream_batches(points, 300, 100):
        output = csgs.process_batch(batch)
        for cluster, sgs in zip(output.clusters, output.summaries):
            base.add(sgs, cluster.size)
    return base


# ----------------------------------------------------------------------
# Atomic dumps (the torn-file fix)
# ----------------------------------------------------------------------


def test_interrupted_dump_leaves_previous_archive_intact(
    tmp_path, monkeypatch
):
    base = _populated(seed=1)
    path = tmp_path / "history.sgsa"
    dump_pattern_base(base, path)
    good = path.read_bytes()

    import repro.archive.persistence as persistence

    real = persistence.sgs_to_bytes
    calls = {"n": 0}

    def torn(sgs):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("disk died mid-dump")
        return real(sgs)

    monkeypatch.setattr(persistence, "sgs_to_bytes", torn)
    with pytest.raises(RuntimeError):
        dump_pattern_base(_populated(seed=2), path)
    monkeypatch.undo()

    # The crash tore nothing: the old archive is byte-identical and
    # still loads, and no temp file litters the directory.
    assert path.read_bytes() == good
    assert len(load_pattern_base(path)) == len(base)
    assert [p.name for p in tmp_path.iterdir()] == ["history.sgsa"]


def test_dump_overwrite_is_atomic_replacement(tmp_path):
    path = tmp_path / "history.sgsa"
    dump_pattern_base(_populated(seed=3), path)
    second = _populated(seed=4)
    written = dump_pattern_base(second, path)
    assert written == path.stat().st_size
    assert path.read_bytes() == roundtrip_bytes(second)
    assert [p.name for p in tmp_path.iterdir()] == ["history.sgsa"]


# ----------------------------------------------------------------------
# Torn dump files: every cut point fails cleanly
# ----------------------------------------------------------------------


def _cut_points(blob):
    """Every interesting truncation point: inside the header, at each
    record/blob boundary, mid-record, mid-blob, and inside the
    inverted section."""
    cuts = {0, 1, 3, 4, 6, 11, 12}
    _, count = struct.unpack_from("<II", blob, 4)
    pos = 12
    record_size = struct.calcsize(_RECORD)
    for _ in range(count):
        blob_length = struct.unpack_from(_RECORD, blob, pos)[3]
        cuts.add(pos + record_size // 2)
        pos += record_size
        cuts.add(pos)
        cuts.add(pos + blob_length // 2)
        pos += blob_length
        cuts.add(pos)
    cuts.add(len(blob) - 5)
    cuts.add(len(blob) - 1)
    return sorted(cut for cut in cuts if 0 <= cut < len(blob))


def test_truncation_corpus_raises_clean_valueerror():
    blob = roundtrip_bytes(_populated(seed=5, inverted=(1,)))
    cuts = _cut_points(blob)
    assert len(cuts) > 20
    for cut in cuts:
        # pytest.raises(ValueError) also asserts no raw struct.error
        # escapes: struct.error is not a ValueError subclass.
        with pytest.raises(ValueError):
            load_pattern_base(io.BytesIO(blob[:cut]))


def test_single_blob_is_consumed_exactly_at_every_cut_point():
    """The drill on one stored blob: the decoder the rows replaced let a
    cut inside a cell head escape as ``struct.error`` and returned a
    summary for a blob with bytes to spare."""
    sgs = max((p.sgs for p in _populated(seed=9).all_patterns()), key=len)
    blob = sgs_to_bytes(sgs)
    assert sgs_from_bytes(blob).rows == sgs.rows
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            sgs_from_bytes(blob[:cut])
    with pytest.raises(ValueError, match="trailing bytes"):
        sgs_from_bytes(blob + b"junk")
    with pytest.raises(struct.error):
        reference_sgs_from_bytes(blob[: 4 + 25 + 3])  # inside the first head
    assert reference_sgs_from_bytes(blob + b"junk").rows == sgs.rows


def test_truncated_header_names_the_missing_piece():
    blob = roundtrip_bytes(_populated(seed=6))
    with pytest.raises(ValueError, match="truncated archive.*header"):
        load_pattern_base(io.BytesIO(blob[:7]))
    with pytest.raises(ValueError, match="not a Pattern Base"):
        load_pattern_base(io.BytesIO(b"JU"))


def test_truncation_corpus_rolls_back_sqlite_store(tmp_path):
    blob = roundtrip_bytes(_populated(seed=7, inverted=(1,)))
    for i, cut in enumerate(_cut_points(blob)):
        spec = f"sqlite:{tmp_path / f'torn-{i}.db'}"
        with pytest.raises(ValueError):
            load_pattern_base(io.BytesIO(blob[:cut]), store=spec)
        # The bulk transaction rolled back: reopening finds an empty
        # store, not a partial archive.
        with PatternBase(store=spec) as reopened:
            assert len(reopened) == 0
            assert reopened.inverted_index() is None


def test_failed_load_rolls_back_to_pre_load_state(tmp_path):
    """A torn import into an already-populated store restores exactly
    the pre-import contents (not an empty database)."""
    spec = f"sqlite:{tmp_path / 'preloaded.db'}"
    blob = roundtrip_bytes(_populated(seed=8, inverted=(1,)))
    loaded = load_pattern_base(io.BytesIO(blob), store=spec)
    count = len(loaded)
    loaded.close()

    # Re-importing the same archive collides on pattern ids partway
    # through; the bulk rollback must leave the first import intact.
    with pytest.raises(ValueError):
        load_pattern_base(io.BytesIO(blob), store=spec)
    with PatternBase(store=spec) as reopened:
        assert len(reopened) == count
        assert roundtrip_bytes(reopened) == blob


# ----------------------------------------------------------------------
# SIGKILL during archival: acknowledged patterns survive
# ----------------------------------------------------------------------

_INGEST_CHILD = """\
import os
import sys

from tests.helpers import clustered_points, stream_batches
from repro.archive.pattern_base import PatternBase
from repro.core.csgs import CSGS

db_path, acked_path = sys.argv[1], sys.argv[2]
points = clustered_points(
    [(2.0, 2.0), (6.0, 5.0)], per_cluster=250, noise=100, seed=21
)
base = PatternBase(store="sqlite:" + db_path, inverted_levels=(1,))
csgs = CSGS(0.35, 5, 2)
log = open(acked_path, "a")
while True:
    for batch in stream_batches(points, 300, 100):
        output = csgs.process_batch(batch)
        for cluster, sgs in zip(output.clusters, output.summaries):
            pattern = base.add(sgs, cluster.size)
            # The ack: only written after add() returned, i.e. after
            # the store reported the pattern durably committed.
            log.write("%d\\n" % pattern.pattern_id)
            log.flush()
            os.fsync(log.fileno())
"""


def test_sigkill_during_archival_keeps_acknowledged_patterns(tmp_path):
    root = Path(__file__).resolve().parents[1]
    script = tmp_path / "ingest_child.py"
    script.write_text(_INGEST_CHILD)
    db_path = tmp_path / "killed.db"
    acked_path = tmp_path / "acked.txt"

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (
            str(root), str(root / "src"), env.get("PYTHONPATH", "")
        )
        if part
    )
    proc = subprocess.Popen(
        [sys.executable, str(script), str(db_path), str(acked_path)],
        cwd=str(root),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise AssertionError(
                    "ingest child exited early:\n"
                    + proc.stderr.read().decode()
                )
            if (
                acked_path.exists()
                and acked_path.read_text().count("\n") >= 6
            ):
                break
            time.sleep(0.05)
        else:
            raise AssertionError("ingest child never acknowledged")
    finally:
        proc.kill()
        proc.wait()

    acked = [
        int(line)
        for line in acked_path.read_text().splitlines()
        if line.strip().isdigit()
    ]
    assert len(acked) >= 6
    with PatternBase(store=f"sqlite:{db_path}") as reopened:
        missing = [pid for pid in acked if pid not in reopened]
        assert not missing, f"acknowledged patterns lost: {missing}"
