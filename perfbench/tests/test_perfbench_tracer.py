"""Tracer self-time arithmetic, wrapping, and the statistics helpers."""

import threading

import pytest

from stats import max_in_window, median, percentile, tail_percentile
from tracer import Span, Tracer, covered, self_times


def span(id, parent, start, end, thread=1, name="s"):
    return Span(id, parent, name, None, thread, start, end, 0.0)


def test_self_time_subtracts_the_union_of_same_thread_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),
        span(3, 1, 2.0, 5.0),   # overlaps span 2: union [1, 5]
        span(4, 1, 8.0, 12.0),  # clipped to the parent's end: [8, 10]
        span(5, 1, 0.0, 10.0, thread=2),  # another thread: runs alongside
        span(6, 3, 2.5, 4.0),   # grandchild: already inside span 3
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[3] == pytest.approx(3.0 - 1.5)
    assert own[5] == pytest.approx(10.0)
    assert own[2] == pytest.approx(2.0)


def test_covered_merges_touching_and_nested_intervals():
    assert covered([(0, 1), (1, 2), (0.5, 0.7), (5, 6), (6, 5)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_wrap_records_nested_spans_and_skips_missing_functions():
    class Store:
        @classmethod
        def load(cls, path):
            return cls.open(path)

        @staticmethod
        def open(path):
            return path.upper()

        def save(self, path):
            return path

    tracer = Tracer()
    assert tracer.wrap(Store, "load", "load", lambda path: path)
    assert tracer.wrap(Store, "open", "open")
    assert tracer.wrap(Store, "save", "save")
    assert not tracer.wrap(Store, "no_such_method", "gone")
    assert Store.load("x") == "X"
    assert Store().save("y") == "y"
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["open"].parent == by_name["load"].id
    assert by_name["load"].trace_id == "x"
    assert by_name["save"].parent is None
    assert all(s.end >= s.start and s.cpu >= 0 for s in tracer.spans)


def test_worker_thread_spans_hang_under_the_root():
    tracer = Tracer()
    token = tracer.open("stage")
    tracer.root = token[0]
    worker = threading.Thread(target=tracer.traced(lambda: None, "call"))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    tracer.close(token)
    call = next(s for s in tracer.spans if s.name == "call")
    assert call.parent == token[0]


def test_max_in_window_counts_half_open_windows():
    stamps = [0.0, 0.5, 0.99, 1.0, 1.5, 2.6]
    assert max_in_window(stamps, 1.0) == 3       # (0, 1.0] holds 0.5, 0.99, 1.0
    assert max_in_window(stamps, 1.01) == 4      # (-0.01, 1.0] also holds 0.0
    assert max_in_window([3.0, 3.0, 3.0], 0.1) == 3
    assert max_in_window([], 1.0) == 0


def test_percentiles_and_tail_choice():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert median([3, 1, 2, 10]) == 2.5
    assert tail_percentile(1263) == 99.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(15) == 50.0
