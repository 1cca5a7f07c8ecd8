"""The paper-size read path against references copied from the code it
replaced: compaction from this run's own lines, the compiled validator,
memoised name keys, and fixture reads without a stat."""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ecomine.corpus import encode, read_json_lines
from ecomine.errors import CorpusError
from ecomine.harvest import FixtureHarvestClient, fixture_filename
from ecomine.pipeline import _compact_results
from ecomine.schema import (
    RESULT_BLOCKS,
    ExtractionResult,
    FieldSpec,
    ValidationVerdict,
    Violation,
    display_name,
    name_key,
    result_from_dict,
    serialize_result,
    standard_schema,
    validate_result,
)

PROPERTY = settings(max_examples=150, deadline=None)

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)  # any text a UTF-8 file holds
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), TEXT)
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3))


# ---------------------------------------------------------------------------
# Reference: compaction as written before it kept this run's lines, which
# decoded the whole results file and serialised every result again.


def _ref_compact(path):
    text = path.read_text(encoding="utf-8")
    results = [result_from_dict(json.loads(line)) for line in text.split("\n") if line.strip()]
    results = list({result.paper_doi: result for result in results}.values())
    return "".join(serialize_result(result) + "\n" for result in sorted(results, key=lambda r: r.paper_doi))


ENTRIES = st.lists(st.dictionaries(st.sampled_from(["name", "role", "type", "x"]), JSON_VALUES, max_size=3), max_size=2)
RESULTS = st.builds(
    ExtractionResult,
    paper_doi=st.sampled_from(["10.1/a", "10.1/b", "10.1/c", "10.1/d", "10.1/ "]),
    status=st.sampled_from(["extracted", "out_of_scope"]),
    species=ENTRIES,
    habitats=ENTRIES,
)


@st.composite
def earlier_lines(draw):
    """A results line as any earlier run may have left it: the program's
    layout, or another key order and escaping of the same document."""
    doc = encode(draw(RESULTS))
    if draw(st.booleans()):
        return json.dumps(doc, ensure_ascii=False, sort_keys=True)
    return json.dumps(dict(reversed(doc.items())), ensure_ascii=True)


@PROPERTY
@given(
    earlier=st.lists(earlier_lines(), max_size=6),
    torn=st.integers(0, 30),
    run=st.lists(RESULTS, max_size=5),
)
def test_compaction_matches_decode_everything_reference(earlier, torn, run):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "results.jsonl"
        tail = serialize_result(ExtractionResult(paper_doi="10.1/torn"))[:torn]
        path.write_text("".join(line + "\n" for line in earlier) + tail, encoding="utf-8")
        results = read_json_lines(path, f"results file {path}", CorpusError, result_from_dict, repair=True)
        lines = {result.paper_doi: serialize_result(result) for result in results}
        with path.open("a", encoding="utf-8") as sink:
            for result in run:
                line = lines[result.paper_doi] = serialize_result(result)
                sink.write(line + "\n")
        expected = _ref_compact(path).encode("utf-8")
        _compact_results(path, lines)
        assert path.read_bytes() == expected


# ---------------------------------------------------------------------------
# Reference: validation as written before the schema was compiled into a
# field table, with its linear field lookups and name keys.


def _ref_display_name(raw):
    return " ".join(str(raw).split())


def _ref_name_key(raw):
    return _ref_display_name(raw).casefold()


def _ref_validate_result(result, schema):
    verdict = ValidationVerdict()
    if result.status not in ("extracted", "out_of_scope"):
        verdict.violations.append(Violation("bad_status", "status", f"unknown status {result.status!r}"))
    if result.status == "out_of_scope":
        for attr, _ in RESULT_BLOCKS:
            if getattr(result, attr):
                verdict.violations.append(
                    Violation("status_inconsistency", attr, "nonempty entities on out-of-scope result")
                )
    entity_names = {
        _ref_name_key(entry.get("name"))
        for attr, block in RESULT_BLOCKS if block != "relationships" for entry in getattr(result, attr)
        if isinstance(entry, dict) and entry.get("name")
    }
    ecosystem_names = {
        _ref_name_key(entry.get("name")) for entry in result.ecosystems
        if isinstance(entry, dict) and entry.get("name")
    }
    for attr, block in RESULT_BLOCKS:
        for index, entry in enumerate(getattr(result, attr)):
            path = f"{attr}[{index}]"
            if not isinstance(entry, dict):
                verdict.violations.append(Violation("malformed_entry", path, f"entry is not an object: {entry!r}"))
                continue
            _ref_validate_entry(entry, block, path, schema, verdict, entity_names, ecosystem_names)
    return verdict


def _ref_validate_entry(entry, block, path, schema, verdict, entity_names, ecosystem_names):
    known = set(schema.field_names(block))
    for key in entry:
        if key not in known:
            verdict.violations.append(
                Violation("unknown_field", f"{path}.{key}", f"field {key!r} not in schema block {block!r}")
            )
    if block == "relationships":
        refs = entry.get("related_entities")
        if not isinstance(refs, list) or not refs:
            verdict.violations.append(Violation("missing_reference", path, "relationship lacks related_entities"))
            refs = []
        for ref in refs:
            if _ref_name_key(ref) not in entity_names:
                verdict.violations.append(
                    Violation("dangling_reference", f"{path}.related_entities",
                              f"dangling related_entity {_ref_display_name(ref)}")
                )
    else:
        if not entry.get("name"):
            verdict.violations.append(Violation("missing_name", path, "entry lacks a name"))
    for key, value in entry.items():
        spec = schema.get_field(block, key)
        if spec is None or value in (None, "", []):
            continue
        if spec.kind == "enum":
            allowed = {v.casefold() for v in spec.values}
            if str(value).casefold() not in allowed:
                if block == "species" and key == "role":
                    verdict.warnings.append(
                        Violation("noncore_role", f"{path}.{key}", f"role {value!r} outside core set")
                    )
                else:
                    verdict.violations.append(
                        Violation("enum_violation", f"{path}.{key}", f"value {value!r} not in {list(spec.values)}")
                    )
        elif spec.kind == "reference" and block == "habitat" and key == "subcomponent_of":
            if _ref_name_key(value) not in ecosystem_names:
                verdict.warnings.append(
                    Violation("dangling_habitat_link", f"{path}.{key}",
                              f"habitat names ecosystem {_ref_display_name(value)!r} not present in result")
                )


NAMES = st.sampled_from(["Acacia", " acacia  ", "ACACIA", "Lake  Erie", "lake erie", "Italy", "Ä", "ä"])
ENUM_VALUES = st.sampled_from(["invasive", "Invasive", " INVASIVE", "native", "weedy", "marine", "Marine", "city"])
VALUES = st.one_of(NAMES, ENUM_VALUES, JSON_VALUES, st.lists(NAMES, max_size=3))
KEYS = st.sampled_from(
    ["name", "role", "taxonomy_level", "type", "scope", "geopolitical_info", "subcomponent_of",
     "specifics", "related_entities", "directionality", "context", "extra", "Name"]
)
ENTRY_LISTS = st.lists(st.one_of(st.dictionaries(KEYS, VALUES, max_size=5), JSON_SCALARS), max_size=3)
VALIDATED = st.builds(
    ExtractionResult,
    paper_doi=st.just("10.1/v"),
    status=st.sampled_from(["extracted", "out_of_scope", "Extracted"]),
    species=ENTRY_LISTS,
    locations=ENTRY_LISTS,
    ecosystems=ENTRY_LISTS,
    habitats=ENTRY_LISTS,
    relationships=ENTRY_LISTS,
)
EXTRA_FIELDS = st.lists(
    st.tuples(
        st.sampled_from([block for _, block in RESULT_BLOCKS]),
        st.builds(FieldSpec, name=KEYS, kind=st.sampled_from(["enum", "text", "reference", "list"]),
                  values=st.lists(ENUM_VALUES, max_size=3).map(tuple)),
    ),
    max_size=4,
)


@PROPERTY
@given(result=VALIDATED, before=EXTRA_FIELDS, after=EXTRA_FIELDS, drop=st.sampled_from([None, "habitat", "species"]))
def test_compiled_validator_matches_reference(result, before, after, drop):
    schema = standard_schema()
    for block, spec in before:  # a name already in the block stays shadowed by its first spec
        schema.blocks[block].append(spec)
    if drop:
        del schema.blocks[drop]
    verdict = validate_result(result, schema)
    expected = _ref_validate_result(result, schema)
    assert (verdict.violations, verdict.warnings) == (expected.violations, expected.warnings)
    for block, spec in after:  # edited in place after a validate call: no stale table
        schema.blocks.setdefault(block, []).insert(0, spec)
    verdict = validate_result(result, schema)
    expected = _ref_validate_result(result, schema)
    assert (verdict.violations, verdict.warnings) == (expected.violations, expected.warnings)


@PROPERTY
@given(raw=st.one_of(TEXT, st.sampled_from([" a\tb\n", " x　y ", "A  B", ""]), st.integers(), st.none(),
                     st.floats(allow_nan=False), st.lists(st.one_of(TEXT, st.integers()), max_size=3)))
def test_name_keys_match_reference(raw):
    for _ in range(2):  # the second call is served from the memo
        assert display_name(raw) == _ref_display_name(raw)
        assert name_key(raw) == _ref_name_key(raw)


def test_fixture_that_vanishes_after_a_listing_reads_as_unresolved(tmp_path, monkeypatch):
    (tmp_path / fixture_filename("10.1/gone")).write_text("{}", encoding="utf-8")
    client = FixtureHarvestClient(tmp_path)
    (tmp_path / fixture_filename("10.1/gone")).unlink()
    monkeypatch.setattr(Path, "exists", lambda self: True)  # as if it vanished after any existence check
    assert client.fetch("10.1/gone") is None
