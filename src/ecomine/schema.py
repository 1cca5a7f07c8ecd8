"""Extraction schema domain model.

Holds the four-entity vocabulary, per-paper candidate schemas proposed
during the specialize stage, the standardized five-block schema applied
corpus-wide, a deterministic merge of candidates into a standardized
schema, and validation of extraction results against a schema.

Serialized property names are fixed contract: name, role,
taxonomy_level, category, geopolitical_info, additional_details, type,
scope, subcomponent_of, specifics, related_entities, directionality,
context.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import reprlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .corpus import decode, dumps, loads_utf8, record_line
from .errors import InvalidSchemaError, QuarantineError, SchemaParseError


#: Canonical block order; "relationships" links the four entity blocks.
BLOCK_NAMES = ("species", "location", "ecosystem", "habitat", "relationships")

#: Species roles treated as the distinguished core of an open vocabulary.
CORE_SPECIES_ROLES = ("native", "introduced", "alien", "invasive")

FIELD_KINDS = ("enum", "list", "reference", "text")

# Block name -> [(field, kind, enum values)], in canonical order. These are
# the mandatory fields every standardized schema carries.
_STANDARD_FIELDS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "species": [
        ("name", "text", ()),
        ("role", "enum", CORE_SPECIES_ROLES),
        ("taxonomy_level", "enum", ("species", "genus", "family")),
    ],
    "location": [
        ("name", "text", ()),
        ("category", "enum", ("natural", "administrative")),
        ("geopolitical_info", "enum", ("country", "region", "city")),
        ("additional_details", "enum", ("climatic", "physiographic")),
    ],
    "ecosystem": [
        ("name", "text", ()),
        ("type", "enum", ("aquatic", "terrestrial", "marine")),
        ("scope", "enum", ("local", "regional", "global")),
    ],
    "habitat": [
        ("name", "text", ()),
        ("type", "enum", ("aquatic", "terrestrial", "marine")),
        ("subcomponent_of", "reference", ()),
        ("specifics", "text", ()),
    ],
    "relationships": [
        ("related_entities", "list", ()),
        ("name", "text", ()),
        ("type", "enum", ("biological", "physical", "ecological", "anthropogenic")),
        ("directionality", "enum", ("unidirectional", "bidirectional")),
        ("context", "text", ()),
    ],
}


@dataclass(frozen=True)
class FieldSpec:
    """One field of a schema block."""

    name: str
    kind: str = "text"  # one of FIELD_KINDS
    values: tuple[str, ...] = ()  # enum values, most common use first
    note: str | None = None

    def to_dict(self) -> dict:
        doc: dict = {"field": self.name, "kind": self.kind}
        if self.values:
            doc["values"] = list(self.values)
        if self.note is not None:
            doc["note"] = self.note
        return doc


@dataclass
class CandidateSchema:
    """Per-paper schema proposal from the specialize stage."""

    paper_doi: str
    blocks: dict[str, list[FieldSpec]]

    def __post_init__(self) -> None:
        if not isinstance(self.paper_doi, str) or not self.paper_doi:
            raise SchemaParseError(f"candidate DOI must be a non-empty string, got {self.paper_doi!r}")
        for block, fields in self.blocks.items():
            if not block or not block.strip():
                raise SchemaParseError("candidate block names must be non-empty")
            seen: set[str] = set()
            for spec in fields:
                if spec.name in seen:
                    raise SchemaParseError(
                        f"duplicate field {spec.name!r} in candidate block {block!r}"
                    )
                seen.add(spec.name)


@dataclass
class StandardizedSchema:
    """The five-block extraction target applied corpus-wide."""

    blocks: dict[str, list[FieldSpec]]
    #: validate_result's field table and the snapshot of blocks it was compiled from
    _compiled: tuple = field(default=((), {}), init=False, repr=False, compare=False)

    def field_names(self, block: str) -> list[str]:
        return [spec.name for spec in self.blocks.get(block, [])]

    def problems(self) -> list[str]:
        """Structural defects; empty list means the schema is usable."""
        problems = []
        for block in BLOCK_NAMES:
            if block not in self.blocks:
                problems.append(f"missing block {block!r}")
                continue
            names = set(self.field_names(block))
            for fname, _, _ in _STANDARD_FIELDS[block]:
                if fname not in names:
                    problems.append(f"block {block!r} missing mandatory field {fname!r}")
        for block in self.blocks:
            if block not in BLOCK_NAMES:
                problems.append(f"unknown block {block!r}")
        for block, fields in self.blocks.items():
            for spec in fields:
                if spec.kind not in FIELD_KINDS:
                    problems.append(f"field {block}.{spec.name} has unknown kind {spec.kind!r}")
        return problems


def standard_schema() -> StandardizedSchema:
    """Fresh copy of the canonical five-block schema."""
    return StandardizedSchema(
        blocks={
            block: [FieldSpec(name, kind, values) for name, kind, values in specs]
            for block, specs in _STANDARD_FIELDS.items()
        }
    )


def ensure_valid_schema(schema: StandardizedSchema) -> StandardizedSchema:
    problems = schema.problems()
    if problems:
        raise InvalidSchemaError(f"schema failed validation: {'; '.join(problems)}")
    return schema


# ---------------------------------------------------------------------------
# serialization


def strip_fences(text: str) -> str:
    """Unwrap a Markdown code fence if the text is fenced; trim whitespace."""
    stripped = text.strip()
    match = re.fullmatch(r"```[a-zA-Z0-9_-]*\n(.*?)\n?```", stripped, flags=re.DOTALL)
    if match:
        return match.group(1).strip()
    return stripped


def schema_to_dict(schema: StandardizedSchema | CandidateSchema) -> dict:
    """The blocks as field-descriptor lists, the form every stage reads."""
    return {block: [spec.to_dict() for spec in fields] for block, fields in schema.blocks.items()}


candidate_to_dict = schema_to_dict  # the name perfbench imports


def schema_to_json(schema: StandardizedSchema) -> str:
    return dumps(schema_to_dict(schema), document=True)


def schema_fingerprint(schema: StandardizedSchema) -> str:
    """Stable hash binding extraction results to the schema that produced them."""
    return hashlib.sha256(dumps(schema_to_dict(schema)).encode("utf-8")).hexdigest()


def _field_from_doc(doc: dict) -> FieldSpec:
    known = {"field", "name", "kind", "type", "values", "note"}
    name = str(doc.get("field") or doc.get("name") or "").strip()
    kind = str(doc.get("kind") or doc.get("type") or "text").strip().lower()
    if kind not in FIELD_KINDS:
        kind = "text"
    values = tuple(str(v) for v in doc.get("values", []) or [])
    note = doc.get("note")
    extras = {k: v for k, v in doc.items() if k not in known}  # dumps sorts them
    if extras:
        extra_note = dumps(extras)
        note = f"{note} {extra_note}".strip() if note else extra_note
    return FieldSpec(name=name, kind=kind, values=values, note=note)


def _fields_from_block_value(value) -> list[FieldSpec]:
    """Liberal reading of one block's content from a provider document.

    Lists of descriptor objects are the native form; loose shapes that
    LLMs produce (field->description maps, bare strings) are preserved
    as text fields with the original content in the note.
    """
    fields: list[FieldSpec] = []
    if isinstance(value, list):
        for item in value:
            if isinstance(item, dict):
                spec = _field_from_doc(item)
                if spec.name:
                    fields.append(spec)
            elif isinstance(item, str) and item.strip():
                fields.append(FieldSpec(name=item.strip()))
    elif isinstance(value, dict):
        for key, val in value.items():
            name = str(key).strip()
            if not name:
                continue
            if isinstance(val, list):
                fields.append(FieldSpec(name, "enum", tuple(str(v) for v in val)))
            elif isinstance(val, dict):
                fields.append(FieldSpec(name, "text", note=dumps(val)))
            else:
                fields.append(FieldSpec(name, "text", note=str(val)))
    elif isinstance(value, str):
        fields.append(FieldSpec(name="value", kind="text", note=value))
    deduped: list[FieldSpec] = []
    seen: set[str] = set()
    for spec in fields:
        if spec.name not in seen:
            seen.add(spec.name)
            deduped.append(spec)
    return deduped


def _load_json_document(text: str, what: str) -> dict:
    """The JSON object a reply or file holds, its fences already stripped."""
    if not text:
        raise SchemaParseError(f"empty {what}")
    try:
        doc = loads_utf8(text)
    except json.JSONDecodeError as exc:
        raise SchemaParseError(f"malformed {what} at offset {exc.pos}: {exc.msg}") from exc
    except UnicodeEncodeError as exc:
        raise SchemaParseError(f"{what} holds text UTF-8 cannot encode: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaParseError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _is_na(text: str) -> bool:
    """Whether a fence-stripped reply is the "N/A" marker (any case) with
    which the specialize and extract prompts ask for an out-of-scope paper."""
    return text.casefold() == "n/a"


def parse_candidate(raw: str, doi: str) -> CandidateSchema:
    """Parse a specialize-stage response into a candidate schema.

    The tree is captured losslessly: unknown descriptor keys and loose
    block shapes are folded into field notes rather than dropped. An
    "N/A" reply raises a SchemaParseError that calls the paper out of
    scope, so specialize quarantines it under that reason.
    """
    text = strip_fences(raw)
    if _is_na(text):
        raise SchemaParseError(f"specialize reply for {doi} is N/A: the paper is out of scope")
    doc = _load_json_document(text, f"candidate schema document for {doi}")
    if not doc:
        raise SchemaParseError("candidate schema defines no blocks")
    return candidate_from_blocks(doi, doc)


def candidate_from_blocks(doi: str, blocks: dict) -> CandidateSchema:
    """Build a candidate from a block name -> block content object, each
    block read as _fields_from_block_value reads it; the one reader of
    specialize replies and of candidates-file lines."""
    if not isinstance(blocks, dict):
        raise SchemaParseError(f"candidate blocks must be a JSON object, got {type(blocks).__name__}")
    return CandidateSchema(doi, {str(key).strip(): _fields_from_block_value(value) for key, value in blocks.items()})


def parse_schema(raw: str) -> StandardizedSchema:
    """Parse a generalize-stage response into a standardized schema.

    Top-level keys are mapped onto the canonical blocks; keys mapping to one
    block are merged, the first spec of a field name winning; unknown keys are ignored.
    """
    doc = _load_json_document(strip_fences(raw), "standardized schema document")
    blocks: dict[str, list[FieldSpec]] = {}
    for key, value in doc.items():
        block = _canon_block(str(key))
        if block is None:
            continue
        fields = _fields_from_block_value(value)
        if block in blocks:
            present = {spec.name for spec in blocks[block]}
            blocks[block].extend(spec for spec in fields if spec.name not in present)
        else:
            blocks[block] = fields
    return StandardizedSchema(blocks=blocks)


# ---------------------------------------------------------------------------
# name normalization


def display_name(raw) -> str:
    """Trim and collapse internal whitespace, preserving case."""
    return _display_str(raw) if type(raw) is str else " ".join(str(raw).split())


def name_key(raw) -> str:
    """Case-folded counting/matching key for an entity name."""
    return _name_key_str(raw) if type(raw) is str else display_name(raw).casefold()


@lru_cache(maxsize=1 << 16)
def _display_str(raw: str) -> str:
    return " ".join(raw.split())


@lru_cache(maxsize=1 << 16)
def _name_key_str(raw: str) -> str:
    return _display_str(raw).casefold()


# Names the stem rule below does not cover; anything starting with a
# stem ("locations", "relationship_list") maps through the stem.
_BLOCK_ALIASES = {
    "specie": "species",
    "organism": "species",
    "organisms": "species",
    "taxa": "species",
    "taxon": "species",
    "place": "location",
    "places": "location",
    "site": "location",
    "sites": "location",
    "locality": "location",
    "localities": "location",
    "geography": "location",
}

_STEM_TO_BLOCK = {
    "species": "species",
    "location": "location",
    "ecosystem": "ecosystem",
    "habitat": "habitat",
    "relation": "relationships",
    "interaction": "relationships",
}


def _canon_block(raw: str) -> str | None:
    """Map a candidate block name onto a canonical block, or None."""
    squeezed = re.sub(r"[^a-z0-9]", "", raw.strip().lower())
    if squeezed in _BLOCK_ALIASES:
        return _BLOCK_ALIASES[squeezed]
    for stem, block in _STEM_TO_BLOCK.items():
        if squeezed.startswith(stem):
            return block
    return None


def _canon_field(raw: str) -> str:
    """Normalize a field name: lowercase, runs of space/hyphen to underscore."""
    return re.sub(r"[\s-]+", "_", raw.strip().lower())


# ---------------------------------------------------------------------------
# deterministic candidate merge


@dataclass
class MergeReport:
    """Audit trail of a deterministic merge."""

    candidate_count: int
    threshold: int
    dropped: list[tuple[str, str, int]] = field(default_factory=list)  # (block, field, count)
    unmapped_blocks: list[tuple[str, str]] = field(default_factory=list)  # (doi, raw block)


def merge_candidates(candidates: Sequence[CandidateSchema]) -> tuple[StandardizedSchema, MergeReport]:
    """Merge candidate schemas into one standardized schema, deterministically.

    Candidate blocks are mapped onto the five canonical blocks by name
    normalization. A field survives when it occurs in at least a third
    of the candidates (rounded up), and in at least 2, so a field seen
    in a single paper never generalizes. Mandatory fields are always
    present with their canonical kinds and enum values, with observed
    extra enum values appended most-frequent-first (ties alphabetical).
    The result is independent of candidate order, and merging n copies
    of one candidate canonicalizes it.
    """
    n = len(candidates)
    if n < 2:
        raise SchemaParseError("merging needs at least 2 candidate schemas")
    threshold = max(2, math.ceil(n / 3))
    report = MergeReport(candidate_count=n, threshold=threshold)

    # presence[block][field] = candidate indices providing it;
    # descriptors[block][field] = every FieldSpec observed for it.
    presence: dict[str, dict[str, set[int]]] = {b: {} for b in BLOCK_NAMES}
    descriptors: dict[str, dict[str, list[FieldSpec]]] = {b: {} for b in BLOCK_NAMES}
    unmapped: set[tuple[str, str]] = set()

    for index, candidate in enumerate(candidates):
        for raw_block, fields in candidate.blocks.items():
            block = _canon_block(raw_block)
            if block is None:
                unmapped.add((candidate.paper_doi, raw_block))
                continue
            for spec in fields:
                fname = _canon_field(spec.name)
                if not fname:
                    continue
                presence[block].setdefault(fname, set()).add(index)
                descriptors[block].setdefault(fname, []).append(spec)

    report.unmapped_blocks = sorted(unmapped)

    blocks: dict[str, list[FieldSpec]] = {}
    for block in BLOCK_NAMES:
        mandatory = _STANDARD_FIELDS[block]
        mandatory_names = [fname for fname, _, _ in mandatory]
        counts = {fname: len(indices) for fname, indices in presence[block].items()}

        merged: list[FieldSpec] = []
        for fname, kind, canonical_values in mandatory:
            observed = descriptors[block].get(fname, [])
            if kind == "enum":
                extras = _ranked_values(observed, exclude=set(canonical_values))
                merged.append(FieldSpec(fname, kind, canonical_values + extras))
            else:
                merged.append(FieldSpec(fname, kind, canonical_values))

        for fname in sorted(counts):
            if fname in mandatory_names:
                continue
            if counts[fname] >= threshold:
                observed = descriptors[block][fname]
                kind = _majority_kind(observed)
                values = _ranked_values(observed) if kind == "enum" else ()
                merged.append(FieldSpec(fname, kind, values))
            else:
                report.dropped.append((block, fname, counts[fname]))

        blocks[block] = merged  # dropped fields are appended in block order, then name order

    return StandardizedSchema(blocks=blocks), report


def _majority_kind(specs: Iterable[FieldSpec]) -> str:
    counts: dict[str, int] = {}
    for spec in specs:
        counts[spec.kind] = counts.get(spec.kind, 0) + 1
    return min(counts, key=lambda kind: (-counts[kind], kind))


def _ranked_values(specs: Iterable[FieldSpec], exclude: set[str] = frozenset()) -> tuple[str, ...]:
    counts: dict[str, int] = {}
    for spec in specs:
        for value in spec.values:
            if value not in exclude:
                counts[value] = counts.get(value, 0) + 1
    return tuple(sorted(counts, key=lambda value: (-counts[value], value)))


# ---------------------------------------------------------------------------
# extraction results


#: result attribute -> schema block it is validated against
RESULT_BLOCKS = (
    ("species", "species"),
    ("locations", "location"),
    ("ecosystems", "ecosystem"),
    ("habitats", "habitat"),
    ("relationships", "relationships"),
)

#: lowercased response key (result attribute or block name) -> result attribute
_RESULT_KEY_ALIASES = {key: attr for attr, block in RESULT_BLOCKS for key in (attr, block)}
_RESULT_KEY_ALIASES["relationship"] = "relationships"


RESULT_STATUSES = ("extracted", "out_of_scope", "quarantined")


@dataclass(slots=True)
class ExtractionResult:
    """Populated schema instance for one paper, an out-of-scope marker, or
    a quarantine marker with its reason. Construction, decode's included,
    checks the one rule of a result: a status of RESULT_STATUSES, entities
    only when extracted, and a reason only on a quarantine."""

    paper_doi: str = field(metadata={"key": "doi"})
    status: str = "extracted"  # one of RESULT_STATUSES
    species: list[dict] = field(default_factory=list)
    locations: list[dict] = field(default_factory=list)
    ecosystems: list[dict] = field(default_factory=list)
    habitats: list[dict] = field(default_factory=list)
    relationships: list[dict] = field(default_factory=list)
    reason: str | None = None

    def __post_init__(self) -> None:
        if not self.paper_doi:
            raise ValueError("result DOI must be non-empty")
        if self.status not in RESULT_STATUSES:
            raise ValueError(f"unknown status {reprlib.repr(self.status)}")
        if self.status != "extracted" and any(getattr(self, attr) for attr, _ in RESULT_BLOCKS):
            raise ValueError(f"status {self.status!r} lists entities; only an extracted result does")
        if self.status == "quarantined" and not self.reason:
            raise ValueError("a quarantined result needs a non-empty reason")
        if self.status != "quarantined" and self.reason is not None:
            raise ValueError(f"only a quarantined result has a reason, not a {self.status!r} one")


def result_from_dict(doc: dict) -> ExtractionResult:
    return decode(ExtractionResult, doc)


serialize_result = record_line  # a results line; the name perfbench imports


def parse_result(raw: str, doi: str) -> ExtractionResult:
    """Parse an extract-stage response.

    An "N/A" marker (case-insensitive, after trimming and
    fence-stripping) means the paper is out of scope. Anything else is
    read as a JSON object whose entity lists make an ExtractionResult of
    its status ("extracted" when absent); what is not a JSON object, or
    breaks the result's rule, is quarantined with the raw text intact.
    """
    text = strip_fences(raw)
    if _is_na(text):
        return ExtractionResult(paper_doi=doi, status="out_of_scope")
    try:
        doc = _load_json_document(text, "reply")
        entities: dict[str, list[dict]] = {}
        for key, value in doc.items():
            attr = _RESULT_KEY_ALIASES.get(key.strip().lower())
            if attr is not None and isinstance(value, list):
                entries = (entry if isinstance(entry, dict) else {"name": str(entry)} for entry in value)
                entities.setdefault(attr, []).extend(entries)
        return ExtractionResult(doi, doc.get("status", "extracted"), **entities)
    except (SchemaParseError, ValueError) as exc:
        raise QuarantineError(f"extraction response for {doi}: {exc}", doi, raw) from exc


# ---------------------------------------------------------------------------
# result validation


@dataclass(frozen=True)
class Violation:
    code: str
    path: str
    message: str


@dataclass
class ValidationVerdict:
    """Every violation found in one result; warnings do not fail validation."""

    violations: list[Violation] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_result(result: ExtractionResult, schema: StandardizedSchema) -> ValidationVerdict:
    """Check one extraction result against a standardized schema.

    Enumerates every violation (unknown field, closed-enum violation,
    dangling relationship reference) without mutating the result, whose
    status and entities already keep ExtractionResult's rule. Species
    roles outside the schema's listed set and habitat references to
    ecosystems absent from the result are retained and flagged as
    warnings. Each entry is read once, and the name sets fill as the
    entries go by: RESULT_BLOCKS lists every entity block before
    relationships and ecosystem before habitat, so a set is complete
    before any entry reads it.
    """
    verdict = ValidationVerdict()
    violations, warnings = verdict.violations, verdict.warnings

    entity_names: set[str] = set()
    ecosystem_names: set[str] = set()
    table = _field_table(schema)
    for attr, block in RESULT_BLOCKS:
        fields = table.get(block, {})
        for index, entry in enumerate(getattr(result, attr)):
            path = f"{attr}[{index}]"
            if not isinstance(entry, dict):
                violations.append(Violation("malformed_entry", path, f"entry is not an object: {entry!r}"))
                continue
            for key in entry:
                if key not in fields:
                    violations.append(
                        Violation("unknown_field", f"{path}.{key}", f"field {key!r} not in schema block {block!r}")
                    )

            if block == "relationships":
                refs = entry.get("related_entities")
                if not isinstance(refs, list) or not refs:
                    violations.append(Violation("missing_reference", path, "relationship lacks related_entities"))
                    refs = []
                for ref in refs:
                    if name_key(ref) not in entity_names:
                        violations.append(
                            Violation(
                                "dangling_reference",
                                f"{path}.related_entities",
                                f"dangling related_entity {display_name(ref)}",
                            )
                        )
            elif name := entry.get("name"):
                entity_names.add(name_key(name))
                if block == "ecosystem":
                    ecosystem_names.add(name_key(name))
            else:
                violations.append(Violation("missing_name", path, "entry lacks a name"))

            for key, value in entry.items():
                compiled = fields.get(key)
                if compiled is None or value in _EMPTY_VALUES:
                    continue
                spec, allowed = compiled
                if spec.kind == "enum":
                    if str(value).casefold() not in allowed:
                        if block == "species" and key == "role":
                            # role is an open vocabulary; off-list values are noise signals, not schema breaks
                            warnings.append(
                                Violation("noncore_role", f"{path}.{key}", f"role {value!r} outside core set")
                            )
                        else:
                            violations.append(
                                Violation(
                                    "enum_violation", f"{path}.{key}", f"value {value!r} not in {list(spec.values)}"
                                )
                            )
                elif spec.kind == "reference" and block == "habitat" and key == "subcomponent_of":
                    if name_key(value) not in ecosystem_names:
                        warnings.append(
                            Violation(
                                "dangling_habitat_link",
                                f"{path}.{key}",
                                f"habitat names ecosystem {display_name(value)!r} not present in result",
                            )
                        )

    return verdict


#: values that leave a field unchecked
_EMPTY_VALUES = (None, "", [])

def _field_table(schema: StandardizedSchema) -> dict[str, dict[str, tuple[FieldSpec, frozenset[str]]]]:
    """Block -> field name -> (spec, casefolded enum values), the first
    spec of a name winning. Kept on the schema with a
    snapshot that copies each block's list, so a schema edited in place
    compares unequal to its snapshot and is compiled afresh."""
    snapshot = tuple((block, tuple(specs)) for block, specs in schema.blocks.items())
    if snapshot != schema._compiled[0]:
        table: dict[str, dict] = {}
        for block, specs in snapshot:
            fields = table[block] = {}
            for spec in specs:
                folded = frozenset(v.casefold() for v in spec.values) if spec.kind == "enum" else frozenset()
                fields.setdefault(spec.name, (spec, folded))
        schema._compiled = (snapshot, table)
    return schema._compiled[1]
