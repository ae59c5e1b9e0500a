"""Unit tests for sliding-window semantics and lifespan stamping."""

import math

import pytest

from repro.streams.objects import StreamObject
from repro.streams.source import ListSource
from repro.streams.windows import (
    CountBasedWindowSpec,
    TimeBasedWindowSpec,
    Windower,
)


def test_win_must_be_multiple_of_slide():
    with pytest.raises(ValueError):
        CountBasedWindowSpec(win=10, slide=3)
    CountBasedWindowSpec(win=10, slide=5)  # ok


def test_positive_parameters_required():
    with pytest.raises(ValueError):
        CountBasedWindowSpec(win=0, slide=1)
    with pytest.raises(ValueError):
        TimeBasedWindowSpec(win=10.0, slide=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for spec in (CountBasedWindowSpec, TimeBasedWindowSpec):
            for win, slide in ((bad, 5), (10, bad)):
                with pytest.raises(ValueError, match="finite"):
                    spec(win=win, slide=slide)


def test_windows_per_object():
    spec = CountBasedWindowSpec(win=10, slide=2)
    assert spec.windows_per_object == 5


def test_count_based_stamping():
    spec = CountBasedWindowSpec(win=4, slide=2)
    batches = list(Windower(spec).batches(ListSource([(float(i),) for i in range(6)])))
    assert [b.index for b in batches] == [0, 1, 2]
    # Objects in slide s live in windows s .. s+1 (win/slide = 2).
    for batch in batches:
        for obj in batch.new_objects:
            assert obj.first_window == batch.index
            assert obj.last_window == batch.index + 1


def test_count_based_batch_sizes():
    spec = CountBasedWindowSpec(win=6, slide=3)
    batches = list(
        Windower(spec).batches(ListSource([(float(i),) for i in range(7)]))
    )
    assert [len(b.new_objects) for b in batches] == [3, 3, 1]


def test_object_lifespan_observation_5_2():
    # Observation 5.2: lifespan from window W_n is last - n + 1.
    spec = CountBasedWindowSpec(win=10, slide=2)
    batches = list(
        Windower(spec).batches(ListSource([(float(i),) for i in range(4)]))
    )
    obj = batches[0].new_objects[0]
    assert obj.last_window - obj.first_window + 1 == spec.windows_per_object


def test_time_based_bucketing():
    spec = TimeBasedWindowSpec(win=10.0, slide=5.0)
    objects = [
        StreamObject(0, (0.0,), timestamp=1.0),
        StreamObject(1, (0.0,), timestamp=4.9),
        StreamObject(2, (0.0,), timestamp=5.1),
        StreamObject(3, (0.0,), timestamp=17.0),
    ]
    batches = list(Windower(spec).batches(objects))
    # Buckets 0, 1, 2 (empty), 3 -> four batches in index order.
    assert [b.index for b in batches] == [0, 1, 2, 3]
    assert [len(b.new_objects) for b in batches] == [2, 1, 0, 1]
    assert batches[0].new_objects[0].last_window == 1  # win/slide = 2


def test_time_based_respects_origin():
    spec = TimeBasedWindowSpec(win=10.0, slide=5.0, origin=100.0)
    objects = [StreamObject(0, (0.0,), timestamp=101.0)]
    batches = list(Windower(spec).batches(objects))
    assert batches[0].index == 0


def test_out_of_order_stream_rejected():
    spec = TimeBasedWindowSpec(win=2.0, slide=1.0)
    objects = [
        StreamObject(0, (0.0,), timestamp=5.0),
        StreamObject(1, (0.0,), timestamp=1.0),
    ]
    with pytest.raises(ValueError):
        list(Windower(spec).batches(objects))


def test_empty_source_produces_nothing():
    spec = CountBasedWindowSpec(win=4, slide=2)
    assert list(Windower(spec).batches(ListSource([]))) == []


def test_every_object_in_exactly_win_over_slide_windows():
    spec = CountBasedWindowSpec(win=9, slide=3)
    batches = list(
        Windower(spec).batches(ListSource([(float(i),) for i in range(30)]))
    )
    for batch in batches:
        for obj in batch.new_objects:
            alive = [
                w
                for w in range(0, 20)
                if obj.first_window <= w <= obj.last_window
            ]
            assert len(alive) == 3
