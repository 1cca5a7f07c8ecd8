"""One dispatcher for extract and ingest: gateway.fan_out. At most
parallelism calls are in flight, no call starts after a stopping failure,
and ingest commits chunks in the order of the DOI list. Threads are
ordered with events and barriers, never with sleeps."""

import json
import logging
import re
import sys
import threading

import pytest

from ecomine import harvest
from ecomine.corpus import CorpusStore, PaperRecord
from ecomine.errors import CorpusError, PartialIngestError, TransportError
from ecomine.gateway import fan_out
from ecomine.harvest import ingest_dois
from ecomine.pipeline import Checkpoint, StageConfig, run_extract
from ecomine.schema import standard_schema

from conftest import fast_policy

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
    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_pulls_an_item_only_when_a_thread_is_free(self, parallelism):
        pulled = []

        def items():
            for item in range(4 * parallelism):
                pulled.append(item)
                yield item

        def on_round():  # all parallelism calls of a round wait at the barrier
            assert len(pulled) % parallelism == 0 and in_flight.now == parallelism

        in_flight = InFlight(parallelism)
        in_flight.barrier = threading.Barrier(parallelism, action=on_round, timeout=WAIT)
        outcomes = list(fan_out(lambda item: in_flight(lambda: item * item), items(), parallelism, ()))
        assert sorted(outcomes) == [(item, item * item, None) for item in range(4 * parallelism)]
        assert in_flight.peak == parallelism

    def test_stop_on_starts_nothing_more_and_yields_calls_in_flight(self):
        failed = threading.Event()
        started = []

        def call(item):
            started.append(item)
            if item == 1:
                raise TransportError("injected", 503)
            if item == 0:
                assert failed.wait(WAIT)
            return item

        outcomes = []
        for item, result, exc in fan_out(call, range(10), 2, stop_on=TransportError):
            outcomes.append((item, result, type(exc)))
            failed.set()
        assert sorted(started) == [0, 1]
        assert outcomes == [(1, None, TransportError), (0, 0, type(None))]

    def test_other_exceptions_are_yielded_without_stopping(self):
        def call(item):
            if item % 2:
                raise ValueError(item)
            return item

        outcomes = sorted((item, result, type(exc)) for item, result, exc in fan_out(call, range(6), 2, ()))
        assert [kind for _, _, kind in outcomes] == [type(None), ValueError] * 3

    def test_every_item_runs_once_under_fast_thread_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more threads than cores, switching between any two bytecodes
        try:
            outcomes = [item for item, _, _ in fan_out(lambda item: item, range(3000), 8, ())]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(outcomes) == list(range(3000))

    def test_closing_the_generator_joins_every_thread(self):
        before = threading.active_count()
        outcomes = fan_out(lambda item: item, range(100), 2, ())
        next(outcomes)
        outcomes.close()
        assert threading.active_count() == before


class TestExtractDispatch:
    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_at_most_parallelism_calls_in_flight(self, mock_gateway, tmp_path, parallelism):
        in_flight = InFlight(parallelism)

        class Counting:
            def complete(self, prompt):
                return in_flight(lambda: mock_gateway.complete(prompt))

        summary = extract(papers(*[f"T{index}" for index in range(12)]), Counting(), tmp_path, parallelism)
        assert summary.processed == in_flight.calls == 12
        assert in_flight.peak == parallelism

    def test_no_call_starts_after_hard_failure_at_parallelism_2(self, mock_gateway, tmp_path):
        failure_seen = threading.Event()

        class OnFailureLog(logging.Handler):
            def emit(self, record):
                if "hard failure" in record.getMessage():
                    failure_seen.set()

        class HeldThenFails:
            """Holds paper Held until the extract loop has taken paper Fails' failure."""

            def __init__(self):
                self.titles = []

            def complete(self, prompt):
                title = re.search(r"Title: (\w+)", prompt.user).group(1)
                self.titles.append(title)
                if title == "Fails":
                    raise TransportError("injected transport failure", 503)
                assert failure_seen.wait(WAIT), "the failure was never reported"
                return mock_gateway.complete(prompt)

        gateway = HeldThenFails()
        handler = OnFailureLog()
        logging.getLogger("ecomine.pipeline").addHandler(handler)
        try:
            with pytest.raises(TransportError):
                extract(papers("Held", "Fails", "Queued", "Queued", "Queued", "Queued"), gateway, tmp_path, 2)
        finally:
            logging.getLogger("ecomine.pipeline").removeHandler(handler)

        assert sorted(gateway.titles) == ["Fails", "Held"]
        assert Checkpoint.load(tmp_path / "ckpt.json").processed() == {"10.1/p00"}
        lines = (tmp_path / "results.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["doi"] for line in lines] == ["10.1/p00"]


class RecordingStore(CorpusStore):
    def __init__(self):
        super().__init__()
        self.upserts = []

    def upsert(self, record):
        self.upserts.append(record.doi)
        super().upsert(record)


@pytest.fixture
def processed_outcomes(monkeypatch):
    """An event set each time ingest has finished with an outcome of fan_out
    (the generator resumes only when the loop asks for the next one)."""
    processed = threading.Event()
    real = harvest.fan_out

    def spying(*args, **kwargs):
        for outcome in real(*args, **kwargs):
            yield outcome
            processed.set()

    monkeypatch.setattr(harvest, "fan_out", spying)
    return processed


def doc(doi):
    return {"title": doi, "abstract": "some abstract text"}


class TestIngestDispatch:
    def test_chunks_commit_in_submission_order(self, processed_outcomes):
        class FirstFinishesLast:
            def fetch(self, doi):
                if doi == "10.1/a":  # held until ingest has taken 10.1/b's fetch
                    assert processed_outcomes.wait(WAIT)
                return doc(doi)

        store = RecordingStore()
        summary = ingest_dois(store, ["10.1/a", "10.1/b", "10.1/c"], FirstFinishesLast(), parallelism=2)
        assert store.upserts == ["10.1/a", "10.1/b", "10.1/c"]
        assert summary.found == 3

    def test_failure_names_the_lowest_failed_chunk(self, processed_outcomes):
        class TwoFailLowestLast:
            def __init__(self):
                self.fetched = []

            def fetch(self, doi):
                self.fetched.append(doi)
                if doi == "10.1/a":  # fails only after 10.1/b's failure was taken
                    assert processed_outcomes.wait(WAIT)
                raise CorpusError(f"fixture for {doi} broke")

        client = TwoFailLowestLast()
        with pytest.raises(PartialIngestError, match=r"ingest aborted at 10\.1/a: fixture for 10\.1/a broke"):
            ingest_dois(RecordingStore(), ["10.1/a", "10.1/b", "10.1/c", "10.1/d"], client, parallelism=2)
        assert sorted(client.fetched) == ["10.1/a", "10.1/b"]

    def test_chunks_in_flight_after_a_failure_commit_in_order(self, processed_outcomes):
        class MiddleFails:
            def fetch(self, doi):
                if doi == "10.1/b":
                    raise CorpusError("fixture for 10.1/b broke")
                if doi == "10.1/a":
                    assert processed_outcomes.wait(WAIT)
                return doc(doi)

        store = RecordingStore()
        with pytest.raises(PartialIngestError, match=r"10\.1/b") as excinfo:
            ingest_dois(store, ["10.1/a", "10.1/b", "10.1/c"], MiddleFails(), parallelism=2)
        assert store.upserts == ["10.1/a"]
        assert excinfo.value.summary.found == 1
