"""Document collection: records, persistence, token statistics, bibliometrics.

The store is a DOI-keyed collection of paper records, persisted as
line-delimited JSON (one record per line) or as a single JSON archive.
Optional record fields are omitted from the serialized form, never
null-filled, so exports diff cleanly and round-trip byte-identically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CorpusError

_DOI_PREFIXES = ("https://doi.org/", "http://doi.org/", "doi.org/", "doi:")


def normalize_doi(raw: str) -> str:
    """Normalize a DOI for use as a store key.

    Lowercases and strips resolver prefixes so the same paper cited in
    different styles deduplicates to one record. Raises CorpusError for
    empty or non-DOI-shaped input.
    """
    doi = raw.strip().lower()
    for prefix in _DOI_PREFIXES:
        if doi.startswith(prefix):
            doi = doi[len(prefix):]
            break
    doi = doi.strip()
    if not doi or "/" not in doi or not doi.startswith("10."):
        raise CorpusError(f"malformed DOI: {raw!r}")
    return doi


def count_tokens(text: str) -> int:
    """Token count used for all corpus statistics.

    A token is a maximal run of non-whitespace characters. Published
    averages computed with another tokenizer may differ slightly.
    """
    return len(text.split())


@dataclass
class PaperRecord:
    """One scholarly document held by the store."""

    doi: str
    title: str
    abstract: str | None = None
    full_text: str | None = None
    year: int | None = None
    publisher: str | None = None
    source: str = "harvested"  # "harvested" | "imported"

    def __post_init__(self) -> None:
        if not self.doi or not self.doi.strip():
            raise CorpusError("record DOI must be non-empty")
        if self.year is not None and not (1000 <= self.year <= 9999):
            raise CorpusError(f"year must be a positive four-digit integer, got {self.year!r}")

    @property
    def available(self) -> bool:
        """True when the record carries at least one text field."""
        return bool(self.abstract) or bool(self.full_text)

    def to_dict(self) -> dict:
        """Serializable form; optional fields omitted when absent."""
        doc: dict = {"doi": self.doi, "title": self.title}
        if self.abstract is not None:
            doc["abstract"] = self.abstract
        if self.full_text is not None:
            doc["full_text"] = self.full_text
        if self.year is not None:
            doc["year"] = self.year
        if self.publisher is not None:
            doc["publisher"] = self.publisher
        doc["source"] = self.source
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PaperRecord":
        if not isinstance(doc, dict):
            raise CorpusError(f"record must be a JSON object, got {type(doc).__name__}")
        try:
            return cls(
                doi=doc["doi"],
                title=doc.get("title", ""),
                abstract=doc.get("abstract"),
                full_text=doc.get("full_text"),
                year=doc.get("year"),
                publisher=doc.get("publisher"),
                source=doc.get("source", "imported"),
            )
        except KeyError as exc:
            raise CorpusError(f"record missing required field {exc}") from exc


@dataclass
class TokenStats:
    """Min/max/average token counts over one text kind.

    Extrema are None (not zero) when no record carries that text kind.
    """

    count: int = 0
    minimum: int | None = None
    maximum: int | None = None
    average: float | None = None


@dataclass
class CorpusStats:
    """Availability partition and token statistics for a store."""

    total: int
    abstract_only: int
    with_full_text: int
    abstract_tokens: TokenStats
    full_text_tokens: TokenStats


@dataclass
class BibliometricTable:
    """Per-year and per-publisher availability counts.

    by_year is ordered year ascending; by_publisher by descending
    abstract count, ties alphabetical. Records missing the grouping
    field are excluded from that table only.
    """

    by_year: dict[int, tuple[int, int]] = field(default_factory=dict)
    by_publisher: dict[str, tuple[int, int]] = field(default_factory=dict)


class CorpusStore:
    """DOI-keyed collection of PaperRecords with idempotent upsert."""

    def __init__(self, records: Iterable[PaperRecord] = ()) -> None:
        self._records: dict[str, PaperRecord] = {}
        for record in records:
            self.upsert(record)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, doi: str) -> bool:
        return doi in self._records

    def __iter__(self) -> Iterator[PaperRecord]:
        return iter(self.records())

    def records(self) -> list[PaperRecord]:
        """All records, ordered by DOI for deterministic iteration."""
        return [self._records[doi] for doi in sorted(self._records)]

    def available_records(self) -> list[PaperRecord]:
        return [r for r in self.records() if r.available]

    def get(self, doi: str) -> PaperRecord | None:
        return self._records.get(doi)

    def upsert(self, record: PaperRecord) -> None:
        """Insert or replace by DOI; re-ingesting is idempotent."""
        self._records[record.doi] = record

    @classmethod
    def load(cls, path: str | Path, fmt: str = "jsonl") -> "CorpusStore":
        """Read a store from disk in the format written by export_corpus."""
        path = Path(path)
        if not path.exists():
            raise CorpusError(f"corpus file not found: {path}")
        store = cls()
        text = path.read_text(encoding="utf-8")
        if fmt == "jsonl":
            for number, line in enumerate(text.splitlines(), 1):
                if line.strip():
                    try:
                        store.upsert(PaperRecord.from_dict(json.loads(line)))
                    except (ValueError, TypeError, AttributeError, CorpusError) as exc:
                        raise CorpusError(f"corpus file {path}, line {number}: {exc}") from exc
        elif fmt == "json":
            try:
                archive = json.loads(text) if text.strip() else {"records": []}
                for doc in archive.get("records", []):
                    store.upsert(PaperRecord.from_dict(doc))
            except (ValueError, TypeError, AttributeError, CorpusError) as exc:
                raise CorpusError(f"malformed corpus file {path}: {exc}") from exc
        else:
            raise CorpusError(f"unknown corpus format: {fmt!r}")
        return store


def compute_stats(store: CorpusStore) -> CorpusStats:
    """Availability partition plus token statistics per text kind.

    The partition counts only available records, so
    abstract_only + with_full_text == number of available records.
    """
    available = store.available_records()
    with_full_text = sum(1 for r in available if r.full_text)
    abstract_only = len(available) - with_full_text

    return CorpusStats(
        total=len(available),
        abstract_only=abstract_only,
        with_full_text=with_full_text,
        abstract_tokens=_token_stats(r.abstract for r in available if r.abstract),
        full_text_tokens=_token_stats(r.full_text for r in available if r.full_text),
    )


def _token_stats(texts: Iterable[str]) -> TokenStats:
    counts = [count_tokens(t) for t in texts]
    if not counts:
        return TokenStats()
    return TokenStats(
        count=len(counts),
        minimum=min(counts),
        maximum=max(counts),
        average=sum(counts) / len(counts),
    )


def bibliometrics(store: CorpusStore) -> BibliometricTable:
    """Count available records per year and per publisher."""
    year_counts: dict[int, list[int]] = {}
    publisher_counts: dict[str, list[int]] = {}
    for record in store.available_records():
        has_abstract = 1 if record.abstract else 0
        has_full_text = 1 if record.full_text else 0
        if record.year is not None:
            cell = year_counts.setdefault(record.year, [0, 0])
            cell[0] += has_abstract
            cell[1] += has_full_text
        if record.publisher:
            cell = publisher_counts.setdefault(record.publisher, [0, 0])
            cell[0] += has_abstract
            cell[1] += has_full_text

    by_year = {year: tuple(year_counts[year]) for year in sorted(year_counts)}
    by_publisher = {
        name: tuple(publisher_counts[name])
        for name in sorted(publisher_counts, key=lambda n: (-publisher_counts[n][0], n))
    }
    return BibliometricTable(by_year=by_year, by_publisher=by_publisher)


def export_corpus(store: CorpusStore, path: str | Path, fmt: str = "jsonl") -> int:
    """Write the store to disk; returns the record count written.

    The write is atomic (temp file then rename) so a failed export never
    leaves a truncated corpus behind. Export then load yields an equal
    store, and a second export is byte-identical.
    """
    if fmt not in ("jsonl", "json"):
        raise CorpusError(f"unknown corpus format: {fmt!r}")
    records = store.records()
    if fmt == "jsonl":
        payload = "".join(
            json.dumps(r.to_dict(), ensure_ascii=False, sort_keys=True) + "\n" for r in records
        )
    else:
        payload = json.dumps(
            {"records": [r.to_dict() for r in records]},
            ensure_ascii=False,
            sort_keys=True,
            indent=2,
        ) + "\n"
    atomic_write_text(Path(path), payload)
    return len(records)


def atomic_write_text(path: Path, payload: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        raise CorpusError(f"cannot write {path}: {exc}") from exc
