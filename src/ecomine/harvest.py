"""Harvest paper records by DOI from a scholarly-search endpoint.

Two clients share one interface: an HTTP client for a configurable
search API, and a fixture client that reads canned responses from a
directory so ingest is testable offline. Both return plain documents
with title/abstract/full_text/year/publisher fields; a DOI that does
not resolve yields None.
"""

from __future__ import annotations

import json
import logging
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .corpus import CorpusStore, PaperRecord, decode, normalize_doi
from .errors import CorpusError, EcomineError, PartialIngestError, RetryableTransportError, TransportError
from .gateway import call_with_retries, fan_out

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

_RETRYABLE_STATUSES = {429, 500, 502, 503, 504}


@dataclass
class IngestSummary:
    """Outcome of one ingest batch.

    found always equals abstract_only + with_full_text; DOIs that did not
    resolve land in missing, malformed ones in malformed.
    """

    queried: int = 0
    found: int = 0
    abstract_only: int = 0
    with_full_text: int = 0
    missing: list[str] = field(default_factory=list)
    malformed: list[str] = field(default_factory=list)


class HttpHarvestClient:
    """Query-by-DOI client for an HTTP scholarly-search API.

    Wire format: GET {base_url}/{endpoint_path} with ?doi=<doi> (or
    ?dois=<comma-joined> when batch_size > 1, returning
    {"results": [record, ...]}). A 404 means the DOI is not indexed.
    Transient failures (429, 5xx, network) are retried under
    gateway.call_with_retries, the rule chat calls use too.
    """

    def __init__(
        self,
        base_url: str,
        *,
        endpoint_path: str = "paper",
        timeout: float = 10.0,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        batch_size: int = 1,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        import requests  # here, not at module top: offline runs never load the HTTP stack

        self.base_url = base_url.rstrip("/")
        self.endpoint_path = endpoint_path.strip("/")
        self.url = f"{self.base_url}/{self.endpoint_path}"
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.batch_size = max(1, batch_size)
        self._session = session or requests.Session()
        self._sleep = sleep

    def fetch(self, doi: str) -> dict | None:
        return self._request({"doi": doi})

    def fetch_many(self, dois: Sequence[str]) -> dict[str, dict | None]:
        """Resolve a chunk of DOIs; one request when batching is enabled."""
        if self.batch_size <= 1 or len(dois) == 1:
            return {doi: self.fetch(doi) for doi in dois}
        found: dict[str, dict | None] = {doi: None for doi in dois}
        results = (self._request({"dois": ",".join(dois)}) or {}).get("results", [])
        if not isinstance(results, list) or not all(isinstance(doc, dict) for doc in results):
            raise TransportError(f"harvest batch from {self.url}: results is not a list of objects", 200)
        for doc in results:
            doi = doc.get("doi")
            if doi in dois:  # list membership compares, never hashes, so any JSON doi is safe
                found[doi] = doc
        return found

    def _request(self, params: dict) -> dict | None:
        doc, _ = call_with_retries(
            lambda: self._get(params), self.max_retries, self.backoff_base, self._sleep, f"harvest {self.url}"
        )
        return doc

    def _get(self, params: dict) -> dict | None:
        """One attempt: the JSON object, or None for a 404."""
        import requests

        url = self.url
        try:
            resp = self._session.get(url, params=params, timeout=self.timeout)
        except requests.RequestException as exc:
            raise RetryableTransportError(f"harvest request failed: {exc}") from exc
        if resp.status_code == 404:
            return None
        if resp.status_code in _RETRYABLE_STATUSES:
            raise RetryableTransportError(f"harvest got {resp.status_code} from {url}", resp.status_code)
        if resp.status_code != 200:
            raise TransportError(f"harvest got {resp.status_code} from {url}", resp.status_code)
        try:
            doc = resp.json()
        except ValueError as exc:
            raise TransportError(f"non-JSON harvest response from {url}: {exc}", 200) from exc
        if not isinstance(doc, dict):
            raise TransportError(f"harvest response from {url} is not a JSON object", 200)
        return doc


class FixtureHarvestClient:
    """Harvest client backed by canned responses in a directory.

    Each available DOI is one JSON file named by fixture_filename(); a
    missing file means the DOI does not resolve.
    """

    batch_size = 1

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise CorpusError(f"fixture directory not found: {self.directory}")

    def fetch(self, doi: str) -> dict | None:
        path = self.directory / fixture_filename(doi)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except ValueError as exc:
            raise CorpusError(f"malformed fixture {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise CorpusError(f"fixture {path} is not a JSON object")
        return doc

    def fetch_many(self, dois: Sequence[str]) -> dict[str, dict | None]:
        return {doi: self.fetch(doi) for doi in dois}


def fixture_filename(doi: str) -> str:
    """Filesystem-safe fixture name for a normalized DOI."""
    return re.sub(r"[^a-z0-9._-]", "_", doi.lower()) + ".json"


def ingest_dois(
    store: CorpusStore,
    doi_list: Sequence[str],
    client,
    *,
    parallelism: int = 4,
) -> IngestSummary:
    """Resolve each DOI through the client and persist found records.

    Malformed DOIs are skipped with a warning and never abort the batch.
    After a failed fetch (a transport failure that survives the client's
    retries, a malformed fixture, or a mistyped record) no further fetch
    starts; fetches already running are committed, then
    PartialIngestError names the failed DOIs and carries the counts of
    what committed. Workers fetch and decode; all store writes happen on
    the calling thread.
    """
    if not doi_list:
        raise CorpusError("doi_list must be non-empty")

    summary = IngestSummary()
    normalized: list[str] = []
    for raw in doi_list:
        summary.queried += 1
        try:
            normalized.append(normalize_doi(raw))
        except CorpusError:
            logger.warning("skipping malformed DOI %r", raw)
            summary.malformed.append(raw)

    chunks = enumerate(_chunk(normalized, getattr(client, "batch_size", 1)))
    fetched: dict[int, tuple] = {}
    committed = 0  # chunks commit in submission order, whatever order they finish in
    failure: tuple[list[str], BaseException] | None = None
    for (index, chunk), resolved, exc in fan_out(
        lambda pair: _fetch_records(client, pair[1]), chunks, parallelism, stop_on=Exception
    ):
        fetched[index] = (chunk, resolved, exc)
        while committed in fetched:
            chunk, resolved, exc = fetched.pop(committed)
            committed += 1
            if exc is None:
                _commit_chunk(store, resolved, summary)
            else:
                failure = failure or (chunk, exc)

    summary.missing.sort()
    if failure is not None:
        chunk, exc = failure
        if not isinstance(exc, EcomineError):
            raise exc
        raise PartialIngestError(f"ingest aborted at {', '.join(chunk)}: {exc}", summary) from exc
    return summary


def _fetch_records(client, chunk: list[str]) -> dict[str, PaperRecord | None]:
    """Worker: fetch a chunk and decode each document, so a mistyped record
    fails its fetch. A null field is absent, empty text is no text, and a
    DOI without text maps to None."""
    records = {}
    for doi, doc in client.fetch_many(chunk).items():
        present = {key: value for key, value in (doc or {}).items() if value is not None}
        try:
            record = decode(PaperRecord, {**present, "doi": doi, "source": "harvested"})
        except (TypeError, CorpusError) as exc:
            raise CorpusError(f"harvested record {doi}: {exc}") from exc
        record.abstract, record.full_text = record.abstract or None, record.full_text or None
        records[doi] = record if record.available else None
    return records


def _commit_chunk(store: CorpusStore, resolved: dict[str, PaperRecord | None], summary: IngestSummary) -> None:
    for doi in sorted(resolved):
        record = resolved[doi]
        if record is None:
            summary.missing.append(doi)
            continue
        store.upsert(record)
        summary.found += 1
        if record.full_text:
            summary.with_full_text += 1
        else:
            summary.abstract_only += 1


def _chunk(items: Sequence[str], size: int) -> list[list[str]]:
    size = max(1, size)
    return [list(items[i : i + size]) for i in range(0, len(items), size)]
