"""No process the benchmark starts outlives the run.

``repro serve`` and the process-mode executors start their workers
through ``multiprocessing``'s spawn context, which also starts a
resource tracker that ends only *after* its parent has — an orphan for
a moment, and still running past the end of the run if nobody waits for
it. A run therefore makes itself the **subreaper** of its descendants
(``prctl(PR_SET_CHILD_SUBREAPER)``): an orphan is handed to the run, not
to init, and the run does not return before it has collected the exit
of every one of them, on every path out — a failed check, an exception,
``SIGTERM``.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from contextlib import contextmanager
from multiprocessing import resource_tracker
from typing import Iterator, List, Tuple

PR_SET_CHILD_SUBREAPER = 36
#: How long children may take to end by themselves before they are killed.
GRACE_S = 10.0


def _children() -> List[Tuple[int, int]]:
    """``(pid, process group)`` of every child of this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid pgrp ...", comm may hold spaces.
                _, ppid, pgid = handle.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # ended while we were looking
        if int(ppid) == me:
            found.append((int(entry), int(pgid)))
    return found


def wait_children(group: int = 0, grace: float = GRACE_S) -> None:
    """Return once every child of this process — of process group
    ``group`` only, if given — has ended and been collected. Children
    still alive after ``grace`` seconds are killed; whatever they
    orphan is handed to us in turn and waited for the same way."""
    selector = -group if group else -1
    deadline = time.monotonic() + grace
    while True:
        try:
            while os.waitpid(selector, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return  # none left
        if time.monotonic() >= deadline:
            for pid, pgid in _children():
                if not group or pgid == group:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            deadline = time.monotonic() + 1.0
        time.sleep(0.01)


def _terminated(signum, frame) -> None:
    sys.exit(128 + signum)  # unwind through every ``finally``


@contextmanager
def contained() -> Iterator[None]:
    """Run the body as the subreaper of everything it starts, and leave
    only when all of it has ended."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    signal.signal(signal.SIGTERM, _terminated)
    try:
        yield
    finally:
        # This process's own tracker (an in-process process-mode
        # executor starts one) ends when its pipe is closed, which
        # multiprocessing itself does only as the interpreter exits.
        resource_tracker._resource_tracker._stop()
        wait_children()
