"""Shared fixtures for the test suite.

Helper *functions* live in :mod:`tests.helpers` and are imported
explicitly by test modules; only pytest fixtures belong here.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Tuple

import pytest

from repro.geometry import coordstore
from repro.geometry.coordstore import CoordStore
from tests.helpers import KERNEL_ARMS, clustered_points


@pytest.fixture
def two_blob_points() -> List[Tuple[float, float]]:
    return clustered_points([(2.0, 2.0), (7.0, 7.0)], per_cluster=60, seed=3)


@pytest.fixture
def noisy_stream_points() -> List[Tuple[float, float]]:
    return clustered_points(
        [(2.0, 2.0), (6.0, 3.0), (4.0, 7.0)],
        per_cluster=400,
        noise=500,
        seed=7,
    )


@pytest.fixture(scope="session")
def kernel_arm():
    """Force one arm of ``CoordStore``'s kernel dispatch: ``with
    kernel_arm("scalar"):`` / ``with kernel_arm("vector"):``.

    The product has no knob for this — the store picks per call from the
    work size (``_VECTOR_MIN_WORK``) and per store from whether NumPy
    imported — so the fixture moves what the store observes: the
    threshold to ``inf`` / ``0``, and for the scalar arm the module's
    NumPy handle as well (``sq_dists_to`` has no size dispatch; a store
    built inside the block keeps no columns).
    Stores built under ``"scalar"`` stay scalar after the block exits.
    """

    @contextmanager
    def force(arm: str):
        assert arm in KERNEL_ARMS, arm
        if arm == "vector" and not coordstore.HAVE_NUMPY:
            pytest.skip("vector kernels require NumPy")
        with pytest.MonkeyPatch.context() as patch:
            if arm == "scalar":
                patch.setattr(coordstore, "_np", None)
                patch.setattr(CoordStore, "_VECTOR_MIN_WORK", float("inf"))
            else:
                patch.setattr(CoordStore, "_VECTOR_MIN_WORK", 0)
            yield

    return force
