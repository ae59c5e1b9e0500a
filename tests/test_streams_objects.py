"""Unit tests for stream objects."""

import pytest

from repro.streams.objects import StreamObject


def test_coords_are_tuples():
    obj = StreamObject(1, [1.0, 2.0])
    assert obj.coords == (1.0, 2.0)
    assert isinstance(obj.coords, tuple)


def test_default_timestamp_is_oid():
    assert StreamObject(7, (0.0,)).timestamp == 7.0
    assert StreamObject(7, (0.0,), timestamp=3.5).timestamp == 3.5


def test_dimensions():
    assert StreamObject(0, (1.0, 2.0, 3.0)).dimensions == 3


def test_window_membership_defaults_unset():
    obj = StreamObject(0, (0.0,))
    assert obj.first_window == -1 and obj.last_window == -1


def test_payload_carried():
    payload = {"speed": 42}
    assert StreamObject(0, (0.0,), payload=payload).payload is payload


def test_repr_mentions_oid():
    assert "oid=5" in repr(StreamObject(5, (0.0,)))
