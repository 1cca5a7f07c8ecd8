"""MockProvider replies against the stage handlers as written before the
mock wrote its field descriptors through the schema codec. The mock's
reply text may differ in layout; what a stage reads from it, parsed and
serialised again, must not."""

import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from ecomine.corpus import PaperRecord
from ecomine.errors import QuarantineError, SchemaParseError
from ecomine.mockllm import MockProvider, load_rulebook
from ecomine.prompts import build_extract_system_prompt, build_generalize_prompt, build_specialize_prompt
from ecomine.schema import (
    _STANDARD_FIELDS,
    BLOCK_NAMES,
    FIELD_KINDS,
    CandidateSchema,
    FieldSpec,
    _canon_block,
    candidate_to_dict,
    parse_candidate,
    parse_result,
    parse_schema,
    schema_to_dict,
    serialize_result,
    standard_schema,
)
from test_mockllm import reference_match

PROVIDER = MockProvider(load_rulebook())
EXTRACT_SYSTEM = build_extract_system_prompt(standard_schema())


# ---------------------------------------------------------------------------
# Reference: the three stage handlers and their helpers as they were, each
# taking the provider for its gazetteer matching and relationship rules.


def ref_specialize(provider, user):
    found = ref_scan(provider, user)
    if not found["species"]:
        return "N/A"
    blocks = {
        "species": ref_descriptor_list(
            [("name", "text", [])]
            + ref_observed_enum("role", found["species"])
            + ref_observed_enum("taxonomy_level", found["species"])
            + ([("impact", "text", [])] if any(
                entry.get("role") == "invasive" for entry in found["species"]
            ) else [])
        )
    }
    if found["locations"]:
        key = "location" if len(found["locations"]) == 1 else "locations"
        blocks[key] = ref_descriptor_list(
            [("name", "text", [])]
            + ref_observed_enum("category", found["locations"])
            + ref_observed_enum("geopolitical_info", found["locations"])
            + ([("coordinates", "text", [])] if any(
                entry.get("geopolitical_info") == "city" for entry in found["locations"]
            ) else [])
        )
    if found["ecosystems"]:
        key = "ecosystem" if len(found["ecosystems"]) == 1 else "ecosystems"
        blocks[key] = ref_descriptor_list(
            [("name", "text", [])]
            + ref_observed_enum("type", found["ecosystems"])
            + ref_observed_enum("scope", found["ecosystems"])
        )
    if found["habitats"]:
        key = "habitat" if len(found["habitats"]) == 1 else "habitats"
        blocks[key] = ref_descriptor_list(
            [("name", "text", [])]
            + ref_observed_enum("type", found["habitats"])
            + [("subcomponent_of", "reference", []), ("specifics", "text", [])]
        )
    if sum(len(found[kind]) for kind in found) >= 2:
        blocks["relationships"] = ref_descriptor_list(
            [
                ("related_entities", "list", []),
                ("name", "text", []),
                ("type", "enum", ["biological", "ecological"]),
                ("directionality", "enum", ["unidirectional", "bidirectional"]),
                ("context", "text", []),
            ]
        )
    body = json.dumps(blocks, ensure_ascii=False, sort_keys=True, indent=2)
    return f"```json\n{body}\n```"


def ref_generalize(user):
    start = user.find("[")
    end = user.rfind("]")
    if start < 0 or end <= start:
        return "N/A"
    try:
        instances = json.loads(user[start : end + 1])
    except json.JSONDecodeError:
        return "N/A"

    merged = {b: {} for b in BLOCK_NAMES}
    for instance in instances:
        if not isinstance(instance, dict):
            continue
        for raw_block, fields in instance.items():
            block = _canon_block(str(raw_block))
            if block is None or not isinstance(fields, list):
                continue
            for descriptor in fields:
                if not isinstance(descriptor, dict):
                    continue
                name = str(descriptor.get("field") or descriptor.get("name") or "").strip()
                if not name:
                    continue
                slot = merged[block].setdefault(
                    name, {"field": name, "kind": str(descriptor.get("kind", "text")), "values": set()}
                )
                slot["values"].update(str(v) for v in descriptor.get("values", []) or [])

    out = {}
    for block in BLOCK_NAMES:
        fields = []
        for name, kind, values in _STANDARD_FIELDS[block]:
            observed = merged[block].pop(name, None)
            all_values = list(values)
            if observed:
                all_values += sorted(v for v in observed["values"] if v not in values)
            doc = {"field": name, "kind": kind}
            if all_values:
                doc["values"] = all_values
            fields.append(doc)
        for name in sorted(merged[block]):
            slot = merged[block][name]
            doc = {"field": name, "kind": slot["kind"]}
            if slot["values"]:
                doc["values"] = sorted(slot["values"])
            fields.append(doc)
        out[block] = fields
    return json.dumps(out, ensure_ascii=False, sort_keys=True, indent=2)


def ref_extract(provider, user):
    found = ref_scan(provider, user)
    if not found["species"]:
        return "N/A"
    result = {
        "species": found["species"],
        "locations": found["locations"],
        "ecosystems": found["ecosystems"],
        "habitats": found["habitats"],
        "relationships": provider._relationships(found),
    }
    return json.dumps(result, ensure_ascii=False, sort_keys=True, indent=2)


def ref_scan(provider, user):
    match = re.search(r"\nTitle: (.*?)\nAbstract: (.*)", user, re.DOTALL)
    text = f"{match.group(1)} {match.group(2)}" if match else user
    return {
        "species": reference_match(provider.rulebook, text, "species"),
        "locations": reference_match(provider.rulebook, text, "locations"),
        "ecosystems": reference_match(provider.rulebook, text, "ecosystems"),
        "habitats": reference_match(provider.rulebook, text, "habitats"),
    }


def ref_descriptor_list(fields):
    out = []
    for name, kind, values in fields:
        doc = {"field": name, "kind": kind}
        if values:
            doc["values"] = values
        out.append(doc)
    return out


def ref_observed_enum(prop, entries):
    values = sorted({entry[prop] for entry in entries if entry.get(prop)})
    if not values:
        return []
    return [(prop, "enum", values)]


# ---------------------------------------------------------------------------
# what a stage keeps of a reply


def candidate_read(raw):
    try:
        return candidate_to_dict(parse_candidate(raw, "10.1/x"))
    except SchemaParseError as exc:
        return f"SchemaParseError: {exc}"


def result_read(raw):
    try:
        return serialize_result(parse_result(raw, "10.1/x"))
    except QuarantineError as exc:
        return f"QuarantineError: {exc}"


def schema_read(raw):
    try:
        return schema_to_dict(parse_schema(raw))
    except SchemaParseError as exc:
        return f"SchemaParseError: {exc}"


# ---------------------------------------------------------------------------
# properties

RULEBOOK_NAMES = sorted({name for kind in PROVIDER.rulebook.values() for name in kind})
FILLER = ["the", "spread", "of", "in", "and", "K", "Río", "invasive", "lake", "forest", "ſ", "İ"]
WORDS = st.one_of(
    st.sampled_from(RULEBOOK_NAMES),
    st.sampled_from(RULEBOOK_NAMES).map(str.upper),
    st.sampled_from(FILLER),
)
PROSE = st.lists(st.tuples(WORDS, st.sampled_from([" ", ", ", "-", ".\n", "; "])), min_size=1, max_size=10).map(
    lambda parts: "".join(word + sep for word, sep in parts).strip(" ,;-.\n") or "x"
)


@settings(max_examples=100, deadline=None)
@given(title=PROSE, abstract=PROSE)
def test_specialize_reads_as_the_reference(title, abstract):
    user = build_specialize_prompt(PaperRecord(doi="10.1/x", title=title, abstract=abstract)).user
    assert candidate_read(PROVIDER._specialize(user)) == candidate_read(ref_specialize(PROVIDER, user))


@settings(max_examples=100, deadline=None)
@given(title=PROSE, abstract=PROSE)
def test_extract_reads_as_the_reference(title, abstract):
    user = build_specialize_prompt(PaperRecord(doi="10.1/x", title=title, abstract=abstract)).user
    assert result_read(PROVIDER.send(EXTRACT_SYSTEM, user)) == result_read(ref_extract(PROVIDER, user))


# Aliases of every canonical block plus one no block maps to; field names
# that repeat across blocks and candidates, some of them mandatory; enum
# values that overlap the canonical ones.
BLOCK_KEYS = ["species", "Organisms", "taxa", "locations", "sites", "Geography", "ecosystem",
              "habitat_types", "habitats", "interactions", "relationship", "weather"]
FIELD_NAMES = ["name", "role", "type", "scope", "category", "context", "growth_form", "elevation", "basin"]
VALUES = ["native", "invasive", "marine", "aquatic", "city", "region", "global", "tree", "shrub", "biological"]
FIELDS = st.builds(
    FieldSpec,
    st.sampled_from(FIELD_NAMES),
    st.sampled_from(FIELD_KINDS),
    st.lists(st.sampled_from(VALUES), max_size=4, unique=True).map(tuple),
    st.sampled_from([None, "free text"]),
)
CANDIDATES = st.lists(
    st.builds(
        CandidateSchema,
        st.sampled_from(["10.1/a", "10.1/b", "10.1/c"]),
        st.dictionaries(
            st.sampled_from(BLOCK_KEYS),
            st.lists(FIELDS, max_size=4, unique_by=lambda spec: spec.name),
            min_size=1,
            max_size=4,
        ),
    ),
    min_size=2,
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(candidates=CANDIDATES)
def test_generalize_reads_as_the_reference(candidates):
    prompt = build_generalize_prompt(candidates)
    assert schema_read(PROVIDER.send(prompt.system, prompt.user)) == schema_read(ref_generalize(prompt.user))
