"""Aggregate analyses over extraction results.

Counting unit: one entity entry in one paper's result is one mention,
with identical entries deduplicated within a paper (a species is keyed
by name and role, a location by name and geopolitical level, an
ecosystem by name, typed by the paper's first entry of that name, a
habitat link by habitat and target ecosystem). Each entity list is
counted in one DOI-ordered pass that every table reads.
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
from typing import Collection, Hashable, Iterable, Sequence

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


#: entity list -> the entry field keyed with its name
_PROPERTIES = {"species": "role", "locations": "geopolitical_info", "ecosystems": "type", "habitats": "subcomponent_of"}


class SortedResults(tuple):
    """Results in DOI order whose entity lists are each tallied once, on
    first use, and shared by every table function given this as results."""

    def __new__(cls, results: Iterable[ExtractionResult]) -> "SortedResults":
        # DOI order makes "first occurrence" well-defined regardless of input order
        return super().__new__(cls, sorted(results, key=lambda result: result.paper_doi))

    def tally(self, attr: str) -> dict[tuple[str, str], list]:
        """The counting unit over one entity list: {(name key, property key):
        [papers, first entry]} in first-occurrence order. A named dict entry
        counts once per paper and key; ecosystems dedupe per paper by name
        alone, and a habitat without a target takes no key."""
        if attr not in self.__dict__:
            prop = _PROPERTIES[attr]
            tally = self.__dict__[attr] = {}
            for result in self:
                seen = set()
                for entry in getattr(result, attr):
                    if isinstance(entry, dict) and entry.get("name") and (attr != "habitats" or entry.get(prop)):
                        key = (name_key(entry["name"]), name_key(entry.get(prop) or ""))
                        once = key[0] if attr == "ecosystems" else key
                        if once not in seen:
                            seen.add(once)
                            tally.setdefault(key, [0, entry])[0] += 1
        return self.__dict__[attr]


def _tally(results: Iterable[ExtractionResult], attr: str) -> Iterable[tuple[tuple[str, str], list]]:
    return (results if isinstance(results, SortedResults) else SortedResults(results)).tally(attr).items()


def _ranked(rows: Iterable[tuple[Hashable, int, object]]) -> list[tuple[Hashable, int, object]]:
    """Rows of every table and of the linkages: (key, count, first text)
    rows summed per key, keeping the first text, by descending count then key."""
    counts: dict = {}
    firsts: dict = {}
    for key, count, text in rows:
        counts[key] = counts.get(key, 0) + count
        firsts.setdefault(key, text)
    return [(key, counts[key], firsts[key]) for key in sorted(counts, key=lambda key: (-counts[key], key))]


def _table(label: str, rows: Iterable[tuple[str, int, object]], total: int | None = None) -> FrequencyTable:
    """Ranked rows as a table; total defaults to the sum of the counts."""
    rows = [FrequencyRow(key=key, display=display_name(text), count=count) for key, count, text in _ranked(rows)]
    return FrequencyTable(label, rows, sum(row.count for row in rows) if total is None else total)


def _build_table(label: str, mentions: Iterable[str], total: int) -> FrequencyTable:
    return _table(label, ((name_key(raw), 1, raw) for raw in mentions), total)


def _species(results: Iterable[ExtractionResult], stoplist: Collection[str] | None) -> list[tuple]:
    """(name key, role key, papers, first entry) per species key outside the stoplist."""
    stop = {name_key(term) for term in stoplist} if stoplist else set()
    return [(name, role, *cell) for (name, role), cell in _tally(results, "species") if name not in stop]


def role_inventory(
    results: Iterable[ExtractionResult],
    stoplist: Collection[str] | None = None,
) -> FrequencyTable:
    """How often each species role occurs across all species mentions."""
    species = _species(results, stoplist)
    roles = ((role, count, entry["role"]) for _, role, count, entry in species if role)
    return _table("species roles", roles, total=sum(count for _, _, count, _ in species))


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
    names = ((name, count, entry["name"]) for name, r, count, entry in _species(results, stoplist) if r == wanted)
    return _table(f"top species ({display_name(role)})", names).top(k)


def location_frequencies(
    results: Iterable[ExtractionResult],
    granularity: str = "all",
) -> FrequencyTable:
    """Location-name counts, optionally filtered by geopolitical level."""
    if granularity not in LOCATION_GRANULARITIES:
        raise ValueError(f"granularity must be one of {LOCATION_GRANULARITIES}")
    tally = _tally(results, "locations")
    names = ((name, count, entry["name"]) for (name, geo), (count, entry) in tally if granularity in ("all", geo))
    return _table(f"locations ({granularity})", names)


def ecosystem_frequencies(results: Iterable[ExtractionResult]) -> EcosystemFrequencies:
    """Ecosystem-name counts plus a type breakdown over recognized types."""
    tally = _tally(results, "ecosystems")
    names = _table("ecosystems", ((name, count, entry["name"]) for (name, _), (count, entry) in tally))
    kinds = ((kind, count, kind) for (_, kind), (count, _) in tally if kind in ECOSYSTEM_TYPES)
    return EcosystemFrequencies(names=names, types=_table("ecosystem types", kinds, total=names.total))


def habitat_linkages(results: Iterable[ExtractionResult]) -> list[LinkagePair]:
    """Distinct habitat-to-ecosystem links with counts.

    Habitats without a subcomponent_of target are excluded; targets that
    do not name an ecosystem in the same result are kept verbatim.
    """
    return [
        LinkagePair(habitat=display_name(entry["name"]), ecosystem=display_name(entry["subcomponent_of"]), count=count)
        for _, count, entry in _ranked((pair, *cell) for pair, cell in _tally(results, "habitats"))
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
    section per table; a "|" in a cell is written as "\\|".
    """
    path = Path(path)
    # (file stem, heading, header, rows) per table, then the linkages
    sections = [(_slug(t.label), t.label, ("name", "count"), [(r.display, r.count) for r in t.rows]) for t in tables]
    linkages = [(pair.habitat, pair.ecosystem, pair.count) for pair in pairs]
    sections.append(("habitat_linkages", "habitat-ecosystem linkages", ("habitat", "ecosystem", "count"), linkages))
    if fmt == "csv":
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReportError(f"cannot create report directory {path}: {exc}") from exc
        for stem, _, header, rows in sections:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
            atomic_write_text(path / f"{stem}.csv", buffer.getvalue())
        return path
    if fmt == "markdown":
        lines: list[str] = []
        for _, heading, header, rows in sections:
            lines += [f"## {heading}", "", _markdown_row(header), _markdown_row(["---"] * (len(header) - 1) + ["---:"])]
            lines += [_markdown_row(row) for row in rows]
            lines.append("")
        atomic_write_text(path, "\n".join(lines))
        return path
    raise ReportError(f"unknown report format {fmt!r}")


def _markdown_row(cells: Sequence) -> str:
    return "| " + " | ".join(str(cell).replace("|", "\\|") for cell in cells) + " |"


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")
