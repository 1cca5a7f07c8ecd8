"""Aggregate analyses over extraction results.

Counting unit: one entity entry in one paper's result is one mention,
with identical entries deduplicated within a paper (a species is keyed
by name and role, a location by name and geopolitical level, an
ecosystem by name, a habitat link by habitat and target ecosystem).
Published tallies produced under another convention may differ; the
convention here is applied uniformly and reproducibly.

Keys are case-folded with whitespace collapsed; display strings keep
the original casing of the first occurrence in DOI order, so every
aggregation is invariant under permutation of the input results.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Hashable, Iterable, Iterator, Sequence

from .corpus import atomic_write_text
from .errors import ReportError
from .schema import ExtractionResult, display_name, name_key

#: Generic species-name noise suitable for the optional stoplist filter.
GENERIC_SPECIES_TERMS = ("invasive species", "native species", "native plants")

ECOSYSTEM_TYPES = ("aquatic", "terrestrial", "marine")

LOCATION_GRANULARITIES = ("country", "region", "city", "all")


@dataclass(frozen=True)
class FrequencyRow:
    key: str
    display: str
    count: int


@dataclass
class FrequencyTable:
    """Counted rows, descending count with alphabetical tie-break."""

    label: str
    rows: list[FrequencyRow] = field(default_factory=list)
    total: int = 0

    def top(self, k: int) -> "FrequencyTable":
        return FrequencyTable(label=self.label, rows=self.rows[:k], total=self.total)

    def count_of(self, name: str) -> int:
        wanted = name_key(name)
        for row in self.rows:
            if row.key == wanted:
                return row.count
        return 0


@dataclass(frozen=True)
class LinkagePair:
    habitat: str
    ecosystem: str
    count: int


@dataclass
class EcosystemFrequencies:
    """Name counts plus the companion type breakdown."""

    names: FrequencyTable
    types: FrequencyTable


def _mentions(
    results: Iterable[ExtractionResult], attr: str, key: Callable[[dict], Hashable | None]
) -> Iterator[tuple[Hashable, dict]]:
    """The counting unit: (key, entry) for each named dict entry of one
    result list, in DOI order, keeping the first entry per key within a
    paper. An entry whose key is None is skipped and takes no key."""
    # DOI order makes "first occurrence" well-defined regardless of input order
    for result in sorted(results, key=lambda result: result.paper_doi):
        seen = set()
        for entry in getattr(result, attr):
            if isinstance(entry, dict) and entry.get("name"):
                mention = key(entry)
                if mention is not None and mention not in seen:
                    seen.add(mention)
                    yield mention, entry


def _build_table(label: str, mentions: Iterable[str], total: int) -> FrequencyTable:
    counts: dict[str, int] = {}
    displays: dict[str, str] = {}
    for raw in mentions:
        key = name_key(raw)
        counts[key] = counts.get(key, 0) + 1
        displays.setdefault(key, display_name(raw))
    rows = [
        FrequencyRow(key=key, display=displays[key], count=counts[key])
        for key in sorted(counts, key=lambda k: (-counts[k], k))
    ]
    return FrequencyTable(label=label, rows=rows, total=total)


def _species_mentions(
    results: Iterable[ExtractionResult],
    stoplist: Collection[str] | None = None,
) -> list[tuple[str, str]]:
    """(name, role) mentions, keyed by name and role."""
    stop = {name_key(term) for term in stoplist} if stoplist else set()

    def key(entry: dict) -> tuple[str, str] | None:
        name = name_key(entry["name"])
        return None if name in stop else (name, name_key(entry.get("role") or ""))

    return [
        (display_name(entry["name"]), str(entry.get("role") or ""))
        for _, entry in _mentions(results, "species", key)
    ]


def role_inventory(
    results: Iterable[ExtractionResult],
    stoplist: Collection[str] | None = None,
) -> FrequencyTable:
    """How often each species role occurs across all species mentions."""
    mentions = _species_mentions(results, stoplist)
    roles = [role for _, role in mentions if role.strip()]
    return _build_table("species roles", roles, total=len(mentions))


def top_species(
    results: Iterable[ExtractionResult],
    role: str,
    k: int,
    stoplist: Collection[str] | None = None,
) -> FrequencyTable:
    """Most-mentioned species names within one role (case-folded match).

    A role absent from the data yields an empty table, not an error.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    wanted = name_key(role)
    names = [name for name, r in _species_mentions(results, stoplist) if name_key(r) == wanted]
    return _build_table(f"top species ({display_name(role)})", names, total=len(names)).top(k)


def location_frequencies(
    results: Iterable[ExtractionResult],
    granularity: str = "all",
) -> FrequencyTable:
    """Location-name counts, optionally filtered by geopolitical level."""
    if granularity not in LOCATION_GRANULARITIES:
        raise ValueError(f"granularity must be one of {LOCATION_GRANULARITIES}")

    def key(entry: dict) -> tuple[str, str] | None:
        geo = name_key(entry.get("geopolitical_info") or "")
        return (name_key(entry["name"]), geo) if granularity in ("all", geo) else None

    mentions = [display_name(entry["name"]) for _, entry in _mentions(results, "locations", key)]
    return _build_table(f"locations ({granularity})", mentions, total=len(mentions))


def ecosystem_frequencies(results: Iterable[ExtractionResult]) -> EcosystemFrequencies:
    """Ecosystem-name counts plus a type breakdown over recognized types."""
    entries = [entry for _, entry in _mentions(results, "ecosystems", lambda e: name_key(e["name"]))]
    names = [display_name(entry["name"]) for entry in entries]
    kinds = [name_key(entry.get("type") or "") for entry in entries]
    return EcosystemFrequencies(
        names=_build_table("ecosystems", names, total=len(names)),
        types=_build_table("ecosystem types", [k for k in kinds if k in ECOSYSTEM_TYPES], total=len(names)),
    )


def habitat_linkages(results: Iterable[ExtractionResult]) -> list[LinkagePair]:
    """Distinct habitat-to-ecosystem links with counts.

    Habitats without a subcomponent_of target are excluded; targets that
    do not name an ecosystem in the same result are kept verbatim.
    """

    def key(entry: dict) -> tuple[str, str] | None:
        target = entry.get("subcomponent_of")
        return (name_key(entry["name"]), name_key(target)) if target else None

    counts: dict[tuple[str, str], int] = {}
    displays: dict[tuple[str, str], tuple[str, str]] = {}
    for pair, entry in _mentions(results, "habitats", key):
        counts[pair] = counts.get(pair, 0) + 1
        displays.setdefault(pair, (display_name(entry["name"]), display_name(entry["subcomponent_of"])))
    ordered = sorted(counts, key=lambda pair: (-counts[pair], pair))
    return [
        LinkagePair(habitat=displays[pair][0], ecosystem=displays[pair][1], count=counts[pair])
        for pair in ordered
    ]


# ---------------------------------------------------------------------------
# report emission


def emit_report(
    tables: Sequence[FrequencyTable],
    pairs: Sequence[LinkagePair],
    path: str | Path,
    fmt: str = "csv",
) -> Path:
    """Write tables and linkage pairs to disk; byte-deterministic.

    csv: path is a directory, one file per table plus
    habitat_linkages.csv. markdown: path is a single file with one
    section per table.
    """
    path = Path(path)
    if fmt == "csv":
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReportError(f"cannot create report directory {path}: {exc}") from exc
        for table in tables:
            atomic_write_text(path / f"{_slug(table.label)}.csv", _table_csv(table))
        atomic_write_text(path / "habitat_linkages.csv", _pairs_csv(pairs))
        return path
    if fmt == "markdown":
        lines: list[str] = []
        for table in tables:
            lines.append(f"## {table.label}")
            lines.append("")
            lines.append("| name | count |")
            lines.append("| --- | ---: |")
            for row in table.rows:
                lines.append(f"| {row.display} | {row.count} |")
            lines.append("")
        lines.append("## habitat-ecosystem linkages")
        lines.append("")
        lines.append("| habitat | ecosystem | count |")
        lines.append("| --- | --- | ---: |")
        for pair in pairs:
            lines.append(f"| {pair.habitat} | {pair.ecosystem} | {pair.count} |")
        lines.append("")
        atomic_write_text(path, "\n".join(lines))
        return path
    raise ReportError(f"unknown report format {fmt!r}")


def _table_csv(table: FrequencyTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "count"])
    for row in table.rows:
        writer.writerow([row.display, row.count])
    return buffer.getvalue()


def _pairs_csv(pairs: Sequence[LinkagePair]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["habitat", "ecosystem", "count"])
    for pair in pairs:
        writer.writerow([pair.habitat, pair.ecosystem, pair.count])
    return buffer.getvalue()


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")
