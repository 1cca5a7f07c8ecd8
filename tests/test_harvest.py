import io
import json

import pytest

from ecomine.corpus import CorpusStore, PaperRecord
from ecomine.errors import CorpusError, PartialIngestError, RetryableTransportError, TransportError
from ecomine.gateway import LlmGateway, RateLimitPolicy, SlidingWindowRateLimiter
from ecomine.harvest import FixtureHarvestClient, HttpHarvestClient, fixture_filename, ingest_dois
from test_gateway import ScriptedProvider, valid_prompt

ABSTRACT_ONLY = {"title": "A", "abstract": "some abstract text"}
WITH_FULL_TEXT = {"title": "B", "abstract": "other text", "full_text": "body", "year": 2001}


def write_fixture(directory, doi, doc):
    (directory / fixture_filename(doi)).write_text(json.dumps(doc), encoding="utf-8")


class RecordingClient(FixtureHarvestClient):
    def __init__(self, directory):
        super().__init__(directory)
        self.fetched = []

    def fetch(self, doi):
        self.fetched.append(doi)
        return super().fetch(doi)


@pytest.fixture
def fixture_dir(tmp_path):
    write_fixture(tmp_path, "10.1/a", ABSTRACT_ONLY)
    write_fixture(tmp_path, "10.1/b", dict(ABSTRACT_ONLY, title="A2"))
    write_fixture(tmp_path, "10.1/c", WITH_FULL_TEXT)
    return tmp_path


class TestFixtureClient:
    def test_five_dois_three_resolve(self, fixture_dir):
        store = CorpusStore()
        summary = ingest_dois(
            store, ["10.1/a", "10.1/b", "10.1/c", "10.1/d", "10.1/e"], FixtureHarvestClient(fixture_dir),
            parallelism=4,
        )
        assert summary.queried == 5
        assert summary.found == 3
        assert summary.abstract_only == 2
        assert summary.with_full_text == 1
        assert summary.found == summary.abstract_only + summary.with_full_text
        assert summary.missing == ["10.1/d", "10.1/e"]
        assert len(store) == 3
        assert store.get("10.1/c").year == 2001
        assert store.get("10.1/a").source == "harvested"

    def test_nothing_resolves(self, tmp_path):
        summary = ingest_dois(CorpusStore(), ["10.1/x", "10.1/y"], FixtureHarvestClient(tmp_path), parallelism=4)
        assert summary.found == 0
        assert summary.abstract_only == 0
        assert summary.with_full_text == 0

    def test_malformed_doi_skipped_without_aborting(self, fixture_dir):
        store = CorpusStore()
        summary = ingest_dois(store, ["nonsense", "10.1/a"], FixtureHarvestClient(fixture_dir), parallelism=4)
        assert summary.malformed == ["nonsense"]
        assert summary.found == 1
        assert summary.queried == 2

    def test_missing_dois_are_sorted_and_a_malformed_one_is_warned(self, tmp_path, caplog):
        # every missing list a test read was in sorted order already, and no test read the warning
        client = FixtureHarvestClient(tmp_path)
        summary = ingest_dois(CorpusStore(), ["10.1/y", "nonsense", "10.1/x"], client, parallelism=4)
        assert summary.missing == ["10.1/x", "10.1/y"]
        assert [record.getMessage() for record in caplog.records] == ["skipping malformed DOI 'nonsense'"]

    def test_ingest_is_idempotent(self, fixture_dir):
        store = CorpusStore()
        dois = ["10.1/a", "10.1/b", "10.1/c"]
        ingest_dois(store, dois, FixtureHarvestClient(fixture_dir), parallelism=4)
        before = store.records()
        ingest_dois(store, dois, FixtureHarvestClient(fixture_dir), parallelism=4)
        assert store.records() == before

    def test_a_doi_listed_twice_is_fetched_once(self, fixture_dir):
        client = RecordingClient(fixture_dir)
        summary = ingest_dois(CorpusStore(), ["10.1/a", "https://doi.org/10.1/A", "doi:10.1/a"], client, parallelism=4)
        assert client.fetched == ["10.1/a"]
        assert (summary.queried, summary.found, summary.abstract_only) == (3, 1, 1)

    def test_a_doi_the_store_holds_with_text_is_not_fetched(self, fixture_dir):
        held = PaperRecord("10.1/c", title="Held", abstract="held text", full_text="held body")
        store = CorpusStore([held, PaperRecord("10.1/b", title="No text yet")])
        client = RecordingClient(fixture_dir)
        summary = ingest_dois(store, ["10.1/a", "10.1/b", "10.1/c", "10.1/d"], client, parallelism=1)
        assert client.fetched == ["10.1/a", "10.1/b", "10.1/d"]
        assert (summary.found, summary.abstract_only, summary.with_full_text) == (3, 2, 1)
        assert summary.missing == ["10.1/d"]
        assert store.get("10.1/c") == held
        assert store.get("10.1/b").title == "A2"

    def test_a_held_record_with_a_blank_abstract_is_fetched_again(self, fixture_dir):
        # it was held "with text" and never fetched again
        store = CorpusStore([PaperRecord("10.1/a", "A", abstract="  \n")])
        client = RecordingClient(fixture_dir)
        summary = ingest_dois(store, ["10.1/a"], client, parallelism=1)
        assert client.fetched == ["10.1/a"] and summary.found == 1
        assert store.get("10.1/a").abstract == ABSTRACT_ONLY["abstract"]

    def test_a_harvested_blank_abstract_is_a_missing_doi(self, tmp_path):
        # it was found, and held as an abstract-only record
        write_fixture(tmp_path, "10.1/blank", {"title": "A", "abstract": "  \n", "full_text": " "})
        store = CorpusStore()
        summary = ingest_dois(store, ["10.1/blank"], FixtureHarvestClient(tmp_path), parallelism=1)
        assert (summary.found, summary.missing, len(store)) == (0, ["10.1/blank"], 0)

    def test_doi_normalized_before_lookup(self, fixture_dir):
        store = CorpusStore()
        summary = ingest_dois(store, ["https://doi.org/10.1/A"], FixtureHarvestClient(fixture_dir), parallelism=4)
        assert summary.found == 1
        assert "10.1/a" in store

    def test_empty_doi_list_rejected(self, fixture_dir):
        with pytest.raises(CorpusError):
            ingest_dois(CorpusStore(), [], FixtureHarvestClient(fixture_dir), parallelism=4)

    def test_exception_of_another_kind_is_reraised_after_the_other_fetches_commit(self, fixture_dir):
        class Failing(FixtureHarvestClient):
            def fetch(self, doi):
                if doi == "10.1/boom":
                    raise RuntimeError("fixture disk gone")
                return super().fetch(doi)

        log = io.StringIO()
        with pytest.raises(RuntimeError, match="^fixture disk gone$"):
            ingest_dois(CorpusStore(), ["10.1/a", "10.1/b", "10.1/boom"], Failing(fixture_dir), parallelism=1, log=log)
        assert [json.loads(line)["doi"] for line in log.getvalue().splitlines()] == ["10.1/a", "10.1/b"]

    def test_missing_fixture_directory(self, tmp_path):
        with pytest.raises(CorpusError):
            FixtureHarvestClient(tmp_path / "nope")


class TestHttpClient:
    def test_fetch_and_404(self, stub_server):
        base_url, state = stub_server
        state.documents["10.1/a"] = ABSTRACT_ONLY
        client = HttpHarvestClient(base_url, sleep=lambda s: None)
        assert client.fetch("10.1/a")["title"] == "A"
        assert client.fetch("10.1/zz") is None

    def test_retries_transient_failures(self, stub_server):
        base_url, state = stub_server
        state.documents["10.1/a"] = ABSTRACT_ONLY
        state.fail_statuses = [429, 503]
        client = HttpHarvestClient(base_url, RateLimitPolicy(max_retries=3), sleep=lambda s: None)
        assert client.fetch("10.1/a")["title"] == "A"
        assert state.requests == 3

    def test_retry_budget_exhausted(self, stub_server):
        base_url, state = stub_server
        state.fail_statuses = [500] * 10
        client = HttpHarvestClient(base_url, RateLimitPolicy(max_retries=2), sleep=lambda s: None)
        with pytest.raises(TransportError):
            client.fetch("10.1/a")
        assert state.requests == 3  # initial try + 2 retries

    def test_non_retryable_status_raises_immediately(self, stub_server):
        base_url, state = stub_server
        state.fail_statuses = [403]
        client = HttpHarvestClient(base_url, RateLimitPolicy(max_retries=5), sleep=lambda s: None)
        with pytest.raises(TransportError) as excinfo:
            client.fetch("10.1/a")
        assert excinfo.value.status == 403
        assert state.requests == 1

    def test_partial_ingest_error_carries_counts(self, stub_server):
        base_url, state = stub_server
        state.documents["10.1/a"] = ABSTRACT_ONLY
        state.hard_fail_dois = {"10.1/b"}
        client = HttpHarvestClient(base_url, RateLimitPolicy(max_retries=1), sleep=lambda s: None)
        store = CorpusStore()
        with pytest.raises(PartialIngestError) as excinfo:
            ingest_dois(store, ["10.1/a", "10.1/b"], client, parallelism=1)
        summary = excinfo.value.summary
        assert summary.queried == 2
        assert summary.found <= 1  # whatever committed before the failure is preserved

    def test_ingest_over_http(self, stub_server):
        base_url, state = stub_server
        state.documents["10.1/a"] = ABSTRACT_ONLY
        state.documents["10.1/b"] = WITH_FULL_TEXT
        store = CorpusStore()
        client = HttpHarvestClient(base_url, sleep=lambda s: None)
        summary = ingest_dois(store, ["10.1/a", "10.1/b", "10.1/c"], client, parallelism=4)
        assert (summary.found, summary.abstract_only, summary.with_full_text) == (2, 1, 1)
        assert summary.missing == ["10.1/c"]

    def test_one_request_per_doi(self, stub_server):
        base_url, state = stub_server
        state.documents["10.1/a"] = ABSTRACT_ONLY
        state.documents["10.1/b"] = WITH_FULL_TEXT
        client = HttpHarvestClient(base_url, sleep=lambda s: None)
        summary = ingest_dois(CorpusStore(), ["10.1/a", "10.1/b", "10.1/c"], client, parallelism=2)
        assert summary.found == 2
        assert [list(query) for query in state.queries] == [["doi"]] * 3  # no "dois" request
        assert sorted(query["doi"] for query in state.queries) == [["10.1/a"], ["10.1/b"], ["10.1/c"]]

    def test_ingest_is_unpaced_by_default(self, stub_server, monkeypatch):
        base_url, state = stub_server
        dois = [f"10.1/{n}" for n in range(9)]
        state.documents.update((doi, ABSTRACT_ONLY) for doi in dois)

        def no_grant(limiter):
            raise AssertionError("harvest took a limiter grant")

        monkeypatch.setattr(SlidingWindowRateLimiter, "acquire", no_grant)
        client = HttpHarvestClient(base_url, RateLimitPolicy(max_requests_per_window=1, window=60.0))
        assert ingest_dois(CorpusStore(), dois, client, parallelism=4).found == 9

    @pytest.mark.parametrize(
        "dois, parallelism, body",
        [
            (["10.1/a"], 1, b"[1, 2]"),
            (["10.1/a"], 1, b'"just text"'),
            (["10.1/a", "10.1/b"], 1, b"null"),  # the first failure starts no further fetch
        ],
    )
    def test_response_shape_is_a_named_hard_failure(self, stub_server, dois, parallelism, body):
        base_url, state = stub_server
        state.raw_body = body
        client = HttpHarvestClient(base_url, RateLimitPolicy(max_retries=3), sleep=lambda s: None)
        with pytest.raises(PartialIngestError) as excinfo:
            ingest_dois(CorpusStore(), dois, client, parallelism=parallelism)
        assert type(excinfo.value.__cause__) is TransportError
        assert f"{base_url}/paper" in str(excinfo.value)
        assert state.requests == 1  # not retried


STATUSES = [429, 500, 501, 503, 529]  # every 5xx is retryable, 529 "overloaded" too


def exhaust_gateway(request, max_retries, backoff_base):
    provider = ScriptedProvider([RetryableTransportError("scripted", s) for s in STATUSES])
    sleeps = []
    gateway = LlmGateway(provider, RateLimitPolicy(max_retries=max_retries, backoff_base=backoff_base), sleep=sleeps.append)
    with pytest.raises(TransportError) as excinfo:
        gateway.complete(valid_prompt())
    return provider.calls, sleeps, excinfo.value


def exhaust_harvest(request, max_retries, backoff_base):
    base_url, state = request.getfixturevalue("stub_server")
    state.fail_statuses = list(STATUSES)
    sleeps = []
    policy = RateLimitPolicy(max_retries=max_retries, backoff_base=backoff_base)
    client = HttpHarvestClient(base_url, policy, sleep=sleeps.append)
    with pytest.raises(TransportError) as excinfo:
        client.fetch("10.1/a")
    return state.requests, sleeps, excinfo.value


@pytest.mark.parametrize("exhaust", [exhaust_gateway, exhaust_harvest])
@pytest.mark.parametrize("max_retries, backoff_base", [(1, 0.5), (3, 0.25), (4, 0.1)])
def test_chat_and_harvest_share_one_retry_rule(request, exhaust, max_retries, backoff_base, caplog):
    attempts, sleeps, error = exhaust(request, max_retries, backoff_base)
    assert attempts == 1 + max_retries
    assert sleeps == [backoff_base * 2**k for k in range(max_retries)]
    assert error.status == STATUSES[max_retries]
    assert not isinstance(error, RetryableTransportError)
    assert f"after {attempts} attempts" in str(error)
    assert sum("retrying in" in r.getMessage() for r in caplog.records) == max_retries
