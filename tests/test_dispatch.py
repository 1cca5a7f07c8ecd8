"""One dispatcher for extract and ingest: gateway.fan_out. Calls run on
the calling thread until they wait, then on worker threads; at most
parallelism calls are in flight, no call starts after a stopping failure,
and ingest commits each record as its fetch finishes. The inline phase is
driven by a fake clock. A threaded test's first call waits 50 ms off the
CPU to move fan_out to its threads; the threads are then ordered with
events and barriers, never with sleeps."""

import io
import json
import logging
import re
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecomine import gateway, harvest
from ecomine.corpus import CorpusStore, PaperRecord
from ecomine.errors import CorpusError, PartialIngestError, TransportError
from ecomine.gateway import fan_out
from ecomine.harvest import ingest_dois
from ecomine.pipeline import Checkpoint, StageConfig, run_extract
from ecomine.schema import standard_schema

from conftest import fast_policy, inline_then_threaded, waits_off_cpu

WAIT = 10  # seconds; only reached when the code under test is broken


class InFlight:
    """Counts calls in flight; every call waits at a barrier of size
    parallelism, so the bound is reached in every round of calls."""

    def __init__(self, parallelism):
        self.lock = threading.Lock()
        self.now = self.peak = self.calls = 0
        self.barrier = threading.Barrier(parallelism, timeout=WAIT)

    def __call__(self, function):
        with self.lock:
            self.now += 1
            self.calls += 1
            self.peak = max(self.peak, self.now)
        try:
            self.barrier.wait()
            return function()
        finally:
            with self.lock:
                self.now -= 1


def papers(*titles):
    return CorpusStore(
        PaperRecord(doi=f"10.1/p{index:02d}", title=title, abstract="Procambarus clarkii spreading")
        for index, title in enumerate(titles)
    )


def extract(store, gateway, tmp_path, parallelism):
    config = StageConfig(parallelism=parallelism, rate_policy=fast_policy())
    return run_extract(
        store, standard_schema(), config, gateway,
        results_path=tmp_path / "results.jsonl", checkpoint_path=tmp_path / "ckpt.json",
    )


class TestFanOut:
    """The threaded phase: each run's first call waits off the CPU, so
    every later call runs on fan_out's worker threads."""

    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_pulls_an_item_only_when_a_thread_is_free(self, parallelism):
        pulled, threads = [], []

        def items():
            for item in range(1 + 4 * parallelism):
                pulled.append(item)
                yield item

        def on_round():  # all parallelism calls of a round wait at the barrier; item 0 ran before them
            assert (len(pulled) - 1) % parallelism == 0 and in_flight.now == parallelism

        def call(item):
            threads.append(threading.current_thread())
            if item == 0:
                return waits_off_cpu(0)
            return in_flight(lambda: item * item)

        in_flight = InFlight(parallelism)
        in_flight.barrier = threading.Barrier(parallelism, action=on_round, timeout=WAIT)
        outcomes = list(fan_out(call, items(), parallelism, ()))
        assert sorted(outcomes) == [(item, item * item, None) for item in range(1 + 4 * parallelism)]
        assert in_flight.peak == parallelism
        assert inline_then_threaded(threads)

    def test_stop_on_starts_nothing_more_and_yields_calls_in_flight(self):
        failed = threading.Event()
        started, threads = [], []

        def call(item):
            started.append(item)
            threads.append(threading.current_thread())
            if item == 0:
                return waits_off_cpu(0)
            if item == 2:
                raise TransportError("injected", 503)
            if item == 1:
                assert failed.wait(WAIT)
            return item

        outcomes = []
        for item, result, exc in fan_out(call, range(10), 2, stop_on=TransportError):
            outcomes.append((item, result, type(exc)))
            if exc is not None:
                failed.set()
        assert sorted(started) == [0, 1, 2]
        assert outcomes == [(0, 0, type(None)), (2, None, TransportError), (1, 1, type(None))]
        assert inline_then_threaded(threads)

    def test_other_exceptions_are_yielded_without_stopping(self):
        threads = []

        def call(item):
            threads.append(threading.current_thread())
            if item % 2:
                raise ValueError(item)
            return waits_off_cpu(item) if item == 0 else item

        outcomes = sorted((item, result, type(exc)) for item, result, exc in fan_out(call, range(6), 2, ()))
        assert [kind for _, _, kind in outcomes] == [type(None), ValueError] * 3
        assert inline_then_threaded(threads)

    def test_every_item_runs_once_under_fast_thread_switching(self):
        threads = []

        def call(item):
            threads.append(threading.current_thread())
            return waits_off_cpu(item) if item == 0 else item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more threads than cores, switching between any two bytecodes
        try:
            outcomes = [item for item, _, _ in fan_out(call, range(3000), 8, ())]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(outcomes) == list(range(3000))
        assert inline_then_threaded(threads)

    def test_closing_the_generator_joins_every_thread(self):
        threads = []

        def call(item):
            threads.append(threading.current_thread())
            return waits_off_cpu(item) if item == 0 else item

        before = threading.active_count()
        outcomes = fan_out(call, range(100), 2, ())
        next(outcomes)
        next(outcomes)  # the first outcome of the worker threads
        outcomes.close()
        assert threading.active_count() == before
        assert inline_then_threaded(threads)


class FakeTime:
    """Stands in for the time module in ecomine.gateway, whose fan_out reads
    perf_counter and thread_time around each call on the calling thread.
    spend(off_cpu) is one call's worth of clock: 1 s on the CPU, then
    off_cpu seconds off it. No real scheduling can shift it."""

    def __init__(self):
        self.wall = self.cpu = 0.0

    def perf_counter(self):
        return self.wall

    def thread_time(self):
        return self.cpu

    def spend(self, off_cpu=0.0):
        self.cpu += 1
        self.wall += 1 + off_cpu


@pytest.fixture
def clock(monkeypatch):
    clock = FakeTime()
    monkeypatch.setattr(gateway, "time", clock)
    return clock


class TestInlinePhase:
    """Calls run on the calling thread until together they have spent more
    time off the CPU than on it."""

    def test_cpu_bound_calls_run_on_the_calling_thread_in_item_order(self, clock):
        before, calls = threading.active_count(), []

        def call(item):
            clock.spend()
            calls.append((item, threading.current_thread(), threading.active_count()))
            if item == 3:
                raise ValueError(item)  # yielded, and the run goes on
            return item * item

        outcomes = [(item, result, type(exc)) for item, result, exc in fan_out(call, range(12), 4, TransportError)]
        expected = [(item, item * item, type(None)) for item in range(12)]
        expected[3] = (3, None, ValueError)
        assert outcomes == expected
        assert calls == [(item, threading.main_thread(), before) for item in range(12)]

    def test_items_after_the_calls_waited_more_than_they_computed_run_on_workers(self, clock):
        parallelism = 3
        in_flight, threads = InFlight(parallelism), []
        off_cpu = {1: 0.5, 3: 10.0}  # after item 1 the calls have still computed more than they waited

        def call(item):
            threads.append(threading.current_thread())
            clock.spend(off_cpu.get(item, 0.0))
            return item if item <= 3 else in_flight(lambda: item)

        outcomes = list(fan_out(call, range(4 + 3 * parallelism), parallelism, ()))
        assert outcomes[:4] == [(item, item, None) for item in range(4)]
        assert sorted(outcomes) == [(item, item, None) for item in range(4 + 3 * parallelism)]
        assert in_flight.peak == parallelism
        main = threading.main_thread()
        assert threads[:4] == [main] * 4 and main not in threads[4:]

    def test_stop_on_in_the_inline_phase_starts_nothing_more(self, clock):
        before, started = threading.active_count(), []

        def call(item):
            started.append(item)
            clock.spend(10.0 if item == 2 else 0.0)  # item 2 waited, and fails
            if item == 2:
                raise TransportError("injected", 503)
            return item

        outcomes = [(item, result, type(exc)) for item, result, exc in fan_out(call, range(10), 2, TransportError)]
        assert started == [0, 1, 2]
        assert outcomes == [(0, 0, type(None)), (1, 1, type(None)), (2, None, TransportError)]
        assert threading.active_count() == before

    def test_keyboard_interrupt_in_an_inline_call_propagates(self, clock):
        started, outcomes = [], []

        def call(item):
            started.append(item)
            clock.spend()
            if item == 1:
                raise KeyboardInterrupt
            return item

        with pytest.raises(KeyboardInterrupt):
            for outcome in fan_out(call, range(10), 2, stop_on=Exception):  # ingest's stop_on
                outcomes.append(outcome)
        assert started == [0, 1]
        assert outcomes == [(0, 0, None)]


#: Seconds off the CPU of a waiting call in the property below; each call
#: also spends 1 s on it.
OFF_CPU = 3.0


@settings(max_examples=100, deadline=None)
@given(
    waits=st.lists(st.booleans(), max_size=12),
    parallelism=st.integers(1, 4),
    stop=st.none() | st.integers(0, 11),
)
def test_both_phases_keep_the_dispatch_contract(waits, parallelism, stop):
    """Whichever calls wait (on the fake clock) and wherever a stop_on
    failure falls: calls run on the calling thread up to and including
    the first at which the calls so far waited more than they computed,
    and on worker threads after it; the started items are a prefix, each
    is yielded once, no item is pulled after the stop_on outcome is
    yielded, and at most parallelism calls are in flight."""
    inline, waited = [], 0.0  # the items the calling thread runs, by the rule fan_out documents
    for item, wait in enumerate(waits):
        inline.append(item)
        waited += (OFF_CPU if wait else 0.0) - 1.0
        if item == stop or waited > 0:
            break

    clock, lock = FakeTime(), threading.Lock()
    pulled, threads, yielded = [], {}, []
    now = peak = 0
    pulled_at_stop = None

    def items():
        for item in range(len(waits)):
            pulled.append(item)
            yield item

    def call(item):
        nonlocal now, peak
        with lock:
            threads[item] = threading.current_thread()
            now += 1
            peak = max(peak, now)
        try:
            clock.spend(OFF_CPU if waits[item] else 0.0)
            if item == stop:
                raise TransportError("injected", 503)
            return item
        finally:
            with lock:
                now -= 1

    with mock.patch.object(gateway, "time", clock):
        for item, result, exc in fan_out(call, items(), parallelism, stop_on=TransportError):
            yielded.append(item)
            if exc is None:
                assert result == item
            else:
                assert item == stop and pulled_at_stop is None
                pulled_at_stop = len(pulled)

    assert pulled == list(range(len(pulled)))
    assert sorted(yielded) == sorted(threads) == pulled
    if stop is not None and stop < len(waits):
        assert stop in threads and pulled_at_stop == len(pulled)
    else:
        assert len(pulled) == len(waits)
    if stop in inline:
        assert pulled == inline
    main = threading.main_thread()
    assert [item for item, thread in threads.items() if thread is main] == inline[: len(pulled)]
    assert peak <= parallelism


class TestExtractDispatch:
    """Paper Waits, the first, waits off the CPU, so every later call runs
    on fan_out's worker threads."""

    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_at_most_parallelism_calls_in_flight(self, mock_gateway, tmp_path, parallelism):
        in_flight = InFlight(parallelism)
        threads = []

        class Counting:
            def complete(self, prompt):
                threads.append(threading.current_thread())
                if "Title: Waits" in prompt.user:
                    return waits_off_cpu(mock_gateway.complete(prompt))
                return in_flight(lambda: mock_gateway.complete(prompt))

        summary = extract(papers("Waits", *[f"T{index}" for index in range(12)]), Counting(), tmp_path, parallelism)
        assert summary.processed == 13 and in_flight.calls == 12
        assert in_flight.peak == parallelism
        assert inline_then_threaded(threads)

    def test_no_call_starts_after_hard_failure_at_parallelism_2(self, mock_gateway, tmp_path):
        failure_seen = threading.Event()

        class OnFailureLog(logging.Handler):
            def emit(self, record):
                if "hard failure" in record.getMessage():
                    failure_seen.set()

        class HeldThenFails:
            """Holds paper Held until the extract loop has taken paper Fails' failure."""

            def __init__(self):
                self.titles, self.threads = [], []

            def complete(self, prompt):
                title = re.search(r"Title: (\w+)", prompt.user).group(1)
                self.titles.append(title)
                self.threads.append(threading.current_thread())
                if title == "Waits":
                    return waits_off_cpu(mock_gateway.complete(prompt))
                if title == "Fails":
                    raise TransportError("injected transport failure", 503)
                assert failure_seen.wait(WAIT), "the failure was never reported"
                return mock_gateway.complete(prompt)

        gateway = HeldThenFails()
        handler = OnFailureLog()
        logging.getLogger("ecomine.pipeline").addHandler(handler)
        try:
            with pytest.raises(TransportError):
                extract(papers("Waits", "Held", "Fails", "Queued", "Queued", "Queued", "Queued"), gateway, tmp_path, 2)
        finally:
            logging.getLogger("ecomine.pipeline").removeHandler(handler)

        assert sorted(gateway.titles) == ["Fails", "Held", "Waits"]
        assert inline_then_threaded(gateway.threads)
        assert Checkpoint.load(tmp_path / "ckpt.json").processed() == {"10.1/p00", "10.1/p01"}
        lines = (tmp_path / "results.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["doi"] for line in lines] == ["10.1/p00", "10.1/p01"]


class RecordingStore(CorpusStore):
    def __init__(self):
        super().__init__()
        self.upserts = []

    def upsert(self, record):
        self.upserts.append(record.doi)
        super().upsert(record)


@pytest.fixture
def processed_outcomes(monkeypatch):
    """wait(count) returns once ingest has finished with count outcomes of
    fan_out (the generator resumes only when the loop asks for the next one)."""
    processed = threading.Condition()
    count = 0
    real = harvest.fan_out

    def spying(*args, **kwargs):
        nonlocal count
        for outcome in real(*args, **kwargs):
            yield outcome
            with processed:
                count += 1
                processed.notify_all()

    def wait(target):
        with processed:
            return processed.wait_for(lambda: count >= target, WAIT)

    monkeypatch.setattr(harvest, "fan_out", spying)
    return wait


def doc(doi):
    return {"title": doi, "abstract": "some abstract text"}


class Fetching:
    """A harvest client whose first DOI, 10.1/waits, waits off the CPU, so
    every later fetch runs on fan_out's worker threads; fetch_other(doi)
    serves the rest."""

    def __init__(self):
        self.fetched, self.threads = [], []

    def fetch(self, doi):
        self.fetched.append(doi)
        self.threads.append(threading.current_thread())
        return waits_off_cpu(doc(doi)) if doi == "10.1/waits" else self.fetch_other(doi)


class TestIngestDispatch:
    def test_records_commit_in_completion_order(self, processed_outcomes):
        class FirstFinishesLast(Fetching):
            def fetch_other(self, doi):
                if doi == "10.1/a":  # held until ingest has committed 10.1/waits and 10.1/b
                    assert processed_outcomes(2)
                return doc(doi)

        store, log, client = RecordingStore(), io.StringIO(), FirstFinishesLast()
        summary = ingest_dois(store, ["10.1/waits", "10.1/a", "10.1/b"], client, parallelism=2, log=log)
        assert store.upserts == ["10.1/waits", "10.1/b", "10.1/a"]
        assert [json.loads(line)["doi"] for line in log.getvalue().splitlines()] == ["10.1/waits", "10.1/b", "10.1/a"]
        assert summary.found == 3
        assert inline_then_threaded(client.threads)

    def test_failure_names_the_lowest_failed_chunk(self, processed_outcomes):
        class TwoFailLowestLast(Fetching):
            def fetch_other(self, doi):
                if doi == "10.1/a":  # fails only after 10.1/b's failure was taken
                    assert processed_outcomes(2)
                raise CorpusError(f"fixture for {doi} broke")

        client = TwoFailLowestLast()
        with pytest.raises(PartialIngestError, match=r"ingest aborted at 10\.1/a: fixture for 10\.1/a broke"):
            ingest_dois(RecordingStore(), ["10.1/waits", "10.1/a", "10.1/b", "10.1/c", "10.1/d"], client, parallelism=2)
        assert sorted(client.fetched) == ["10.1/a", "10.1/b", "10.1/waits"]
        assert inline_then_threaded(client.threads)

    def test_chunks_in_flight_after_a_failure_commit_in_order(self, processed_outcomes):
        class MiddleFails(Fetching):
            def fetch_other(self, doi):
                if doi == "10.1/b":
                    raise CorpusError("fixture for 10.1/b broke")
                if doi == "10.1/a":
                    assert processed_outcomes(2)
                return doc(doi)

        store, client = RecordingStore(), MiddleFails()
        with pytest.raises(PartialIngestError, match=r"10\.1/b") as excinfo:
            ingest_dois(store, ["10.1/waits", "10.1/a", "10.1/b", "10.1/c"], client, parallelism=2)
        assert store.upserts == ["10.1/waits", "10.1/a"]
        assert excinfo.value.summary.found == 2
        assert inline_then_threaded(client.threads)
