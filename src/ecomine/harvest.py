"""Harvest paper records by DOI from a scholarly-search endpoint.

Two clients share one method, fetch(doi), one request per DOI: an HTTP
client for a configurable search API, and a fixture client that reads
canned responses from a directory so ingest is testable offline. Both
return plain documents with title/abstract/full_text/year/publisher
fields; a DOI that does not resolve yields None.
"""

from __future__ import annotations

import json
import logging
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Sequence

from .corpus import CorpusStore, PaperRecord, commit_line, decode, normalize_doi, record_line
from .errors import CorpusError, EcomineError, PartialIngestError, RetryableTransportError, TransportError
from .gateway import Gate, RateLimitPolicy, fan_out, raise_for_status, require_finite_positive

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)


@dataclass
class IngestSummary:
    """Outcome of one ingest_dois call.

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

    Wire format: GET {base_url}/paper?doi=<doi>, answered by
    the record as a JSON object. A 404 means the DOI is not indexed.
    Every attempt goes through a gateway.Gate under policy, so transient
    failures (429, 5xx, network) are retried under the rule chat calls
    use too. The policy's rate cap paces the attempts only when paced is
    true; `ecomine ingest` leaves harvest unpaced, since no harvest
    server's limit is known.
    """

    def __init__(
        self,
        base_url: str,
        policy: RateLimitPolicy | None = None,
        *,
        paced: bool = False,
        timeout: float = 10.0,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        require_finite_positive("timeout", timeout)
        import requests  # here, not at module top: offline runs never load the HTTP stack

        self.base_url = base_url.rstrip("/")
        self.url = f"{self.base_url}/paper"
        self.timeout = timeout
        self._session = session or requests.Session()
        self._gate = Gate(policy, paced=paced, sleep=sleep)

    def fetch(self, doi: str) -> dict | None:
        return self._gate.call(lambda: self._get(doi), f"harvest {self.url}")

    def _get(self, doi: str) -> dict | None:
        """One attempt: the JSON object, or None for a 404."""
        import requests

        url = self.url
        try:
            resp = self._session.get(url, params={"doi": doi}, timeout=self.timeout)
        except requests.RequestException as exc:
            raise RetryableTransportError(f"harvest request failed: {exc}") from exc
        if resp.status_code == 404:
            return None
        raise_for_status(resp.status_code, f"harvest {url}")
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


def fixture_filename(doi: str) -> str:
    """Filesystem-safe fixture name for a normalized DOI."""
    return re.sub(r"[^a-z0-9._-]", "_", doi.lower()) + ".json"


def ingest_dois(
    store: CorpusStore,
    doi_list: Sequence[str],
    client,
    *,
    parallelism: int = 4,
    log: IO[str] | None = None,
) -> IngestSummary:
    """Resolve each DOI through the client and persist found records.

    Malformed DOIs are skipped with a warning. Each DOI is fetched once, and
    not at all if the store holds it with text (it counts as found). Fetches
    (each with its decode) run on the calling thread until they wait, then
    on up to parallelism threads (gateway.fan_out); the calling thread
    commits each record as its fetch finishes: upsert, then commit_line to
    log. After a failed fetch (a transport failure that survives the
    client's retries, a malformed fixture, or a mistyped record) no
    further fetch starts; those running are committed, then
    PartialIngestError names the first failed DOI in list order and
    carries the counts of what committed.
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

    todo: list[str] = []
    for doi in dict.fromkeys(normalized):
        if (held := store.get(doi)) is not None and held.available:
            _count_found(summary, held)
        else:
            todo.append(doi)

    failures: dict[int, tuple[str, BaseException]] = {}
    for (index, doi), record, exc in fan_out(
        lambda pair: _fetch_record(client, pair[1]), enumerate(todo), parallelism, stop_on=Exception
    ):
        if exc is not None:
            failures[index] = (doi, exc)
        elif record is None:
            summary.missing.append(doi)
        else:
            store.upsert(record)
            if log is not None:
                commit_line(log, record_line(record))
            _count_found(summary, record)

    summary.missing.sort()
    if failures:
        doi, exc = failures[min(failures)]
        if not isinstance(exc, EcomineError):
            raise exc
        raise PartialIngestError(f"ingest aborted at {doi}: {exc}", summary) from exc
    return summary


def _fetch_record(client, doi: str) -> PaperRecord | None:
    """Fetch one DOI and decode its document, so a mistyped record
    fails its fetch. A null field is absent, empty text is no text, and a
    DOI without text maps to None."""
    present = {key: value for key, value in (client.fetch(doi) or {}).items() if value is not None}
    try:
        record = decode(PaperRecord, {**present, "doi": doi, "source": "harvested"})
    except (TypeError, CorpusError) as exc:
        raise CorpusError(f"harvested record {doi}: {exc}") from exc
    record.abstract, record.full_text = record.abstract or None, record.full_text or None
    return record if record.available else None


def _count_found(summary: IngestSummary, record: PaperRecord) -> None:
    summary.found += 1
    if record.full_text:
        summary.with_full_text += 1
    else:
        summary.abstract_only += 1
