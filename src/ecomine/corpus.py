"""Document collection: records, persistence, token statistics, bibliometrics,
and the JSON codec (decode, encode) of every record class the package writes.

The store is a DOI-keyed collection of paper records, persisted as
line-delimited JSON, one record per line. Optional record fields are
omitted from the serialized form, never null-filled, so exports diff
cleanly and round-trip byte-identically.
"""

from __future__ import annotations

import json
import logging
import os
import reprlib
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar

from .errors import CorpusError, EcomineError

T = TypeVar("T")

logger = logging.getLogger(__name__)

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


@dataclass(slots=True)
class PaperRecord:
    """One scholarly document held by the store; its annotations are the
    types decode holds corpus lines and harvested records to."""

    doi: str
    title: str = ""
    abstract: str | None = None
    full_text: str | None = None
    year: int | None = None
    publisher: str | None = None
    source: str = "imported"  # "harvested" | "imported"

    def __post_init__(self) -> None:
        if not self.doi or not self.doi.strip():
            raise CorpusError("record DOI must be non-empty")
        if self.year is not None and not (1000 <= self.year <= 9999):
            raise CorpusError(f"year must be a positive four-digit integer, got {self.year!r}")

    @property
    def available(self) -> bool:
        """True when the record carries at least one text field."""
        return bool(self.abstract) or bool(self.full_text)


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
    def load(cls, path: str | Path) -> "CorpusStore":
        """Read a store from disk as written by export_corpus."""
        return cls(read_json_lines(path, f"corpus file {path}", CorpusError, partial(decode, PaperRecord)))

    @classmethod
    def load_log(cls, path: str | Path) -> "CorpusStore":
        """Read the corpus ingest appends to, as its one writer."""
        return cls(read_json_lines(path, f"corpus file {path}", CorpusError, partial(decode, PaperRecord), repair=True))


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
    """Write the store to disk as JSON lines; returns the record count
    written. "jsonl" is the only format.

    The write is atomic (temp file then rename) so a failed export never
    leaves a truncated corpus behind. Export then load yields an equal
    store, and a second export is byte-identical.
    """
    if fmt != "jsonl":
        raise CorpusError(f"unknown corpus format: {fmt!r}")
    records = store.records()
    atomic_write_text(Path(path), "".join(record_line(r) + "\n" for r in records))
    return len(records)


def record_line(record: object) -> str:
    """A record's line (a corpus record or an extraction result), without its newline."""
    return json.dumps(encode(record), ensure_ascii=False, sort_keys=True)


def commit_line(sink: IO[str], line: str) -> None:
    """Append and flush one line of an append-only log: written, it is committed."""
    sink.write(line + "\n")
    sink.flush()


def read_lines(
    path: str | Path, source: str, error: type[EcomineError], torn: Callable[[int], object] | None = None
) -> Iterator[str]:
    """The lines of a UTF-8 file, split at b"\n" only and each decoded on
    its own with its "\n", so a byte UTF-8 cannot decode raises ``error``
    naming source, line and the position in that line, and a missing file
    raises ``error`` naming source. Given torn, an unterminated last line is
    never decoded (a tear can fall inside a character): torn gets its byte
    offset instead."""
    try:
        handle = Path(path).open("rb")
    except FileNotFoundError:
        raise error(f"{source} not found") from None
    with handle:
        offset = 0
        for number, line in enumerate(handle, 1):
            if torn is not None and not line.endswith(b"\n"):
                torn(offset)
                return
            offset += len(line)
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{source}, line {number}: {type(exc).__name__}: {exc}") from exc


def read_json_lines(
    path: str | Path, source: str, error: type[EcomineError], convert: Callable[[object], T], repair: bool = False
) -> list[T]:
    """Parse each non-blank line of a file, read with read_lines, as JSON
    through convert; a failure, or text UTF-8 cannot encode anywhere in the
    line's value, raises ``error`` naming source and line, so the first
    faulty line in file order, undecodable or not, is the one named.

    The one last-line rule: an unterminated last line is whole, written
    without its newline, when it is valid JSON (no cut object is); any
    other is a torn write. A reader refuses a tear, naming its line, and
    never writes: a live writer may be appending. Given repair, the file's
    one writer cuts a tear, so its next append starts a fresh line, and
    gives a kept line its newline."""
    torn, converted = [], []
    for number, line in enumerate(read_lines(path, source, error, torn.append if repair else None), 1):
        if line.strip():
            try:
                converted.append(convert(loads_utf8(line)))
            except (ValueError, KeyError, TypeError, AttributeError, EcomineError) as exc:
                raise error(f"{source}, line {number}: {type(exc).__name__}: {exc}") from exc
    if not torn:
        return converted
    with open(path, "rb+") as handle:
        handle.seek(torn[0])
        try:
            loads_utf8(handle.read().decode("utf-8"))
        except ValueError:  # a cut character or document
            logger.warning("%s: dropping torn last line at byte offset %d", path, torn[0])
            handle.truncate(torn[0])
            return converted
        handle.write(b"\n")
    return read_json_lines(path, source, error, convert)  # a whole line, now read as any other


def loads_utf8(text: str) -> object:
    """json.loads, raising UnicodeEncodeError when the value holds text
    UTF-8 cannot encode: a lone surrogate, in the text itself or from a
    \\u escape. Only text with such an escape has its value walked."""
    doc = json.loads(text)
    if "\\" in text and "\\u" in text:  # a one-character search is far faster than a two-character one
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    elif not text.isascii():
        text.encode("utf-8")
    return doc


def _is_text(value: object) -> bool:
    """A str that UTF-8 can encode: a JSON escape can carry a lone
    surrogate, which no file this package writes could hold."""
    if not isinstance(value, str):
        return False
    if value.isascii():
        return True
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


#: field annotation -> (check of a JSON value, conversion of a checked value or None)
_CHECKS: dict[str, tuple[Callable, Callable | None]] = {
    "str": (_is_text, None),
    "str | None": (lambda v: v is None or _is_text(v), None),
    "int | None": (lambda v: v is None or type(v) is int, None),  # a bool is not an int
    "list[dict]": (lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v), None),
    "set[str]": (lambda v: isinstance(v, list) and all(map(_is_text, v)), set),
    "dict[str, str]": (lambda v: isinstance(v, dict) and all(map(_is_text, (*v, *v.values()))), None),
}


@cache
def _decoded_fields(cls: type) -> list[tuple]:
    """(name, JSON key, annotation, check, conversion, required) per field of cls."""
    return [
        (f.name, f.metadata.get("key", f.name), f.type, *_CHECKS[f.type],
         f.default is f.default_factory is MISSING)
        for f in fields(cls)
    ]


def decode(cls: type[T], doc: object) -> T:
    """Build dataclass cls (string annotations) from a JSON object: each value
    present under a field's key (its name, or metadata["key"]) must pass the
    check _CHECKS holds for the field's annotation, else TypeError; a missing
    required key is a KeyError. Unknown keys are ignored."""
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    values = {}
    for name, key, annotation, check, convert, required in _decoded_fields(cls):
        if key in doc:
            value = doc[key]
            if not check(value):
                raise TypeError(f"{key!r} must be {annotation}, got {reprlib.repr(value)}")
            values[name] = value if convert is None else convert(value)
        elif required:
            raise KeyError(key)
    return cls(**values)


def encode(record: object) -> dict:
    """decode's inverse: each field of a dataclass under its JSON key, a set
    as a sorted list; a None is left out."""
    doc = {}
    for name, key, _, _, convert, _ in _decoded_fields(type(record)):
        value = getattr(record, name)
        if value is not None:
            doc[key] = sorted(value) if convert is set else value
    return doc


def atomic_write_text(path: Path, payload: str) -> None:
    """Write-then-rename so readers never observe a partial file; a failed
    write removes its temporary file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, (OSError, UnicodeEncodeError)):
            raise CorpusError(f"cannot write {path}: {exc}") from exc
        raise
