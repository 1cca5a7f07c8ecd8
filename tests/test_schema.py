import copy
import json
import random
import re
import reprlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecomine.errors import InvalidSchemaError, QuarantineError, SchemaParseError
from ecomine.pipeline import load_candidates, save_candidates
from ecomine.schema import (
    CandidateSchema,
    ExtractionResult,
    FieldSpec,
    StandardizedSchema,
    _canon_block,
    ensure_valid_schema,
    merge_candidates,
    parse_candidate,
    parse_result,
    parse_schema,
    result_from_dict,
    schema_fingerprint,
    schema_to_dict,
    schema_to_json,
    serialize_result,
    standard_schema,
    strip_fences,
    validate_result,
)
from oracle_merge import oracle_merge, random_candidates


class TestStripFences:
    def test_unwraps_fenced_json(self):
        assert strip_fences("```json\n{\"a\": 1}\n```") == '{"a": 1}'
        assert strip_fences("```\nplain\n```") == "plain"

    def test_leaves_plain_text_alone(self):
        assert strip_fences("  hello ") == "hello"


class TestParseCandidate:
    def test_descriptor_list_shape(self):
        raw = json.dumps(
            {
                "species": [
                    {"field": "name", "kind": "text"},
                    {"field": "role", "kind": "enum", "values": ["invasive"]},
                ]
            }
        )
        candidate = parse_candidate(raw, "10.1/a")
        assert candidate.paper_doi == "10.1/a"
        assert candidate.blocks["species"][1].values == ("invasive",)

    def test_single_block(self):
        candidate = parse_candidate('{"species": [{"field": "name"}]}', "10.1/a")
        assert list(candidate.blocks) == ["species"]

    def test_truncated_document_names_offset(self):
        with pytest.raises(SchemaParseError) as excinfo:
            parse_candidate('{"species": [{"field": "na', "10.1/a")
        assert "at offset 23" in str(excinfo.value)

    def test_empty_document(self):
        with pytest.raises(SchemaParseError):
            parse_candidate("", "10.1/a")
        with pytest.raises(SchemaParseError):
            parse_candidate("{}", "10.1/a")

    def test_loose_map_shape_preserved_as_notes(self):
        raw = json.dumps(
            {
                "species": {
                    "name": "the species name",
                    "role": ["invasive", "native"],
                    "details": {"nested": True},
                }
            }
        )
        candidate = parse_candidate(raw, "10.1/a")
        by_name = {spec.name: spec for spec in candidate.blocks["species"]}
        assert by_name["name"].note == "the species name"
        assert by_name["role"].kind == "enum"
        assert by_name["role"].values == ("invasive", "native")
        assert "nested" in by_name["details"].note

    def test_unknown_descriptor_keys_folded_into_note(self):
        raw = json.dumps({"species": [{"field": "name", "rationale": "why not"}]})
        spec = parse_candidate(raw, "10.1/a").blocks["species"][0]
        assert "rationale" in (spec.note or "")

    def test_note_of_an_unknown_key_survives_the_candidates_file_and_schema_json(self, tmp_path):
        candidate = parse_candidate(json.dumps({"species": [{"field": "name", "unit": "count"}]}), "10.1/a")
        spec = FieldSpec("name", note='{"unit": "count"}')
        assert candidate.blocks == {"species": [spec]}
        path = tmp_path / "candidates.jsonl"
        save_candidates(path, [candidate])
        assert load_candidates(path) == [candidate]
        text = schema_to_json(StandardizedSchema(blocks=candidate.blocks))
        assert json.loads(text) == {"species": [{"field": "name", "kind": "text", "note": '{"unit": "count"}'}]}
        assert parse_schema(text).blocks == {"species": [spec]}

    def test_block_listing_bare_names_keeps_them_as_text_fields(self):
        candidate = parse_candidate('{"species": ["name", " ", " role "]}', "10.1/a")
        assert candidate.blocks == {"species": [FieldSpec("name"), FieldSpec("role")]}

    def test_fenced_candidate(self):
        raw = "```json\n" + json.dumps({"species": [{"field": "name"}]}) + "\n```"
        assert "species" in parse_candidate(raw, "10.1/a").blocks

    @pytest.mark.parametrize("raw", ["N/A", "```\nN/A\n```", "  n/a\n"])
    def test_na_reply_calls_the_paper_out_of_scope(self, raw):
        with pytest.raises(SchemaParseError, match=r"^specialize reply for 10\.1/a is N/A: the paper is out of scope$"):
            parse_candidate(raw, "10.1/a")

    @pytest.mark.parametrize("raw", ["N/A.", "N/A {}", "```\nN/A\n{}\n```"])
    def test_reply_that_only_starts_with_na_is_malformed(self, raw):
        with pytest.raises(SchemaParseError, match="^malformed candidate schema document for 10.1/a at offset 0"):
            parse_candidate(raw, "10.1/a")

    def test_duplicate_fields_rejected_at_construction(self):
        with pytest.raises(SchemaParseError):
            CandidateSchema(paper_doi="10.1/a", blocks={"species": [FieldSpec("name"), FieldSpec("name")]})

    def test_blank_block_name_is_refused(self):
        with pytest.raises(SchemaParseError, match="^candidate block names must be non-empty$"):
            parse_candidate('{"species": [{"field": "name"}], " ": [{"field": "name"}]}', "10.1/a")

    def test_unknown_field_kind_is_read_as_text(self):
        raw = json.dumps({"species": [{"field": "mass", "kind": "blob"}, {"name": "age", "type": "Integer"}]})
        assert parse_candidate(raw, "10.1/a").blocks["species"] == [FieldSpec("mass"), FieldSpec("age")]

    def test_blank_key_of_a_map_block_is_skipped(self):
        raw = json.dumps({"species": {" ": "no name", "name": "the species name"}})
        assert parse_candidate(raw, "10.1/a").blocks["species"] == [FieldSpec("name", note="the species name")]

    def test_bare_string_block_is_kept_as_a_value_note(self):
        candidate = parse_candidate('{"habitat": "wetland margins"}', "10.1/a")
        assert candidate.blocks == {"habitat": [FieldSpec("value", note="wetland margins")]}


def candidate_with(blocks, doi="10.1/c"):
    return CandidateSchema(
        paper_doi=doi,
        blocks={
            block: [FieldSpec(name, kind, tuple(values)) for name, kind, values in fields]
            for block, fields in blocks.items()
        },
    )


class TestMerge:
    def test_requires_two_candidates(self):
        with pytest.raises(SchemaParseError):
            merge_candidates([candidate_with({"species": [("name", "text", [])]})])

    def test_identical_candidates_canonicalize(self):
        base = candidate_with(
            {
                "species": [("name", "text", []), ("abundance", "text", [])],
                "habitat": [("name", "text", []), ("type", "enum", ["marine"])],
            }
        )
        merged, report = merge_candidates([base, copy.deepcopy(base), copy.deepcopy(base)])
        assert report.dropped == []
        assert set(merged.blocks) == {"species", "location", "ecosystem", "habitat", "relationships"}
        assert "abundance" in merged.field_names("species")
        # mandatory fields appear even in blocks the candidates never mentioned
        assert merged.field_names("location") == ["name", "category", "geopolitical_info", "additional_details"]

    def test_rare_field_dropped_with_count(self):
        common = {"species": [("name", "text", [])]}
        candidates = [
            candidate_with({"species": [("name", "text", []), ("oddity", "text", [])]}, doi="10.1/a"),
            candidate_with(common, doi="10.1/b"),
            candidate_with(common, doi="10.1/c"),
        ]
        merged, report = merge_candidates(candidates)
        assert ("species", "oddity", 1) in report.dropped
        assert "oddity" not in merged.field_names("species")

    @pytest.mark.parametrize("n, kept", [(6, True), (7, False)])
    def test_a_field_needs_a_third_of_the_candidates_and_at_least_two(self, n, kept):
        # no test's candidate count told a third from a quarter: with 7, ceil(7/4) = 2 kept a field that 2 hold
        rare = {"species": [("name", "text", []), ("oddity", "text", [])]}
        common = {"species": [("name", "text", [])]}
        candidates = [candidate_with(rare if i < 2 else common, doi=f"10.1/{i}") for i in range(n)]
        merged, report = merge_candidates(candidates)
        assert ("oddity" in merged.field_names("species")) is kept
        assert report.threshold == (2 if kept else 3)

    def test_order_insensitive(self):
        rng = random.Random(7)
        candidates = random_candidates(rng)
        merged_a, report_a = merge_candidates(candidates)
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        merged_b, report_b = merge_candidates(shuffled)
        assert schema_to_dict(merged_a) == schema_to_dict(merged_b)
        assert report_a.dropped == report_b.dropped
        assert report_a.unmapped_blocks == report_b.unmapped_blocks

    def test_unmappable_block_reported(self):
        candidates = [
            candidate_with({"methodology": [("name", "text", [])]}, doi="10.1/a"),
            candidate_with({"species": [("name", "text", [])]}, doi="10.1/b"),
        ]
        merged, report = merge_candidates(candidates)
        assert ("10.1/a", "methodology") in report.unmapped_blocks
        ensure_valid_schema(merged)

    def test_enum_values_ranked_by_frequency_then_alphabet(self):
        candidates = [
            candidate_with({"species": [("role", "enum", ["pioneer", "weedy"])]}, doi="10.1/a"),
            candidate_with({"species": [("role", "enum", ["pioneer"])]}, doi="10.1/b"),
            candidate_with({"species": [("role", "enum", ["colonizer"])]}, doi="10.1/c"),
        ]
        merged, _ = merge_candidates(candidates)
        role = next(spec for spec in merged.blocks["species"] if spec.name == "role")
        # canonical core first, then extras by descending count, ties alphabetical
        assert role.values == ("native", "introduced", "alien", "invasive", "pioneer", "colonizer", "weedy")

    def test_matches_oracle_on_quick_samples(self):
        rng = random.Random(13)
        for _ in range(50):
            candidates = random_candidates(rng)
            merged, report = merge_candidates(candidates)
            schema_dict, dropped, unmapped = oracle_merge(candidates)
            assert schema_to_dict(merged) == schema_dict
            assert report.dropped == dropped
            assert report.unmapped_blocks == unmapped

    def test_fingerprint_stable_and_sensitive(self):
        one = standard_schema()
        two = standard_schema()
        assert schema_fingerprint(one) == schema_fingerprint(two)
        two.blocks["species"].append(FieldSpec("extra"))
        assert schema_fingerprint(one) != schema_fingerprint(two)

    def test_field_with_a_blank_name_is_skipped(self):
        blank = {"species": [("name", "text", []), ("  ", "text", [])]}
        candidates = [candidate_with(blank, doi="10.1/a"), candidate_with(blank, doi="10.1/b")]
        merged, report = merge_candidates(candidates)
        assert merged.field_names("species") == standard_schema().field_names("species")
        assert report.dropped == []


class TestStandardSchema:
    def test_canonical_schema_is_valid(self):
        ensure_valid_schema(standard_schema())

    def test_missing_block_detected(self):
        schema = standard_schema()
        del schema.blocks["habitat"]
        with pytest.raises(InvalidSchemaError):
            ensure_valid_schema(schema)

    def test_missing_block_is_named_as_one_problem_not_as_its_fields(self):
        schema = standard_schema()
        del schema.blocks["habitat"]
        assert schema.problems() == ["missing block 'habitat'"]

    def test_missing_mandatory_field_detected(self):
        schema = standard_schema()
        schema.blocks["species"] = [spec for spec in schema.blocks["species"] if spec.name != "role"]
        problems = schema.problems()
        assert any("role" in problem for problem in problems)

    def test_parse_schema_round_trip(self):
        schema = standard_schema()
        reparsed = parse_schema(json.dumps(schema_to_dict(schema)))
        assert schema_to_dict(reparsed) == schema_to_dict(schema)

    def test_keys_of_one_block_merge_and_the_first_spec_of_a_name_wins(self):
        raw = json.dumps(
            {
                "species": [{"field": "name"}, {"field": "role", "kind": "enum", "values": ["native"]}],
                "organisms": [{"field": "role"}, {"field": "impact"}],
            }
        )
        assert parse_schema(raw).blocks == {
            "species": [FieldSpec("name"), FieldSpec("role", "enum", ("native",)), FieldSpec("impact")]
        }

    def test_unknown_top_level_key_is_ignored(self):
        raw = json.dumps({"weather": [{"field": "rainfall"}], "species": [{"field": "name"}]})
        assert parse_schema(raw).blocks == {"species": [FieldSpec("name")]}

    def test_problems_name_an_unknown_block_and_an_unknown_kind(self):
        schema = standard_schema()
        schema.blocks["weather"] = [FieldSpec("rainfall")]
        schema.blocks["species"].append(FieldSpec("mass", "blob"))
        assert schema.problems() == ["unknown block 'weather'", "field species.mass has unknown kind 'blob'"]


def extracted(doi="10.1/r", **lists):
    return ExtractionResult(paper_doi=doi, status="extracted", **lists)


class TestParseResult:
    @pytest.mark.parametrize("raw", ["N/A", "n/a", "  N/A  ", "```\nN/A\n```"])
    def test_na_marker(self, raw):
        result = parse_result(raw, "10.1/r")
        assert result.status == "out_of_scope"
        assert result.species == [] and result.relationships == []

    def test_well_formed_document(self):
        raw = json.dumps(
            {
                "species": [{"name": "A a", "role": "invasive"}, {"name": "B b"}],
                "locations": [{"name": "Italy"}],
            }
        )
        result = parse_result(raw, "10.1/r")
        assert result.status == "extracted"
        assert len(result.species) == 2
        assert len(result.locations) == 1

    def test_singular_block_keys_accepted(self):
        raw = json.dumps({"location": [{"name": "Italy"}], "habitat": [{"name": "kelp beds"}]})
        result = parse_result(raw, "10.1/r")
        assert result.locations and result.habitats

    def test_prose_is_quarantined_with_raw_preserved(self):
        with pytest.raises(QuarantineError) as excinfo:
            parse_result("the species is X", "10.1/r")
        assert excinfo.value.raw_text == "the species is X"
        assert excinfo.value.doi == "10.1/r"

    def test_non_object_json_quarantined(self):
        with pytest.raises(QuarantineError):
            parse_result("[1, 2, 3]", "10.1/r")

    @pytest.mark.parametrize("status", ["maybe", "quarantined", "Extracted", "", 5, True, None, ["extracted"], {}])
    def test_unknown_or_non_string_status_quarantined(self, status):
        # copied as str(status), the reply became a result validate reported as bad_status;
        # a reply may not quarantine itself: it lists entities and carries no reason
        raw = json.dumps({"status": status, "species": [{"name": "A a"}]})
        reason = "status 'quarantined' lists entities" if status == "quarantined" else "unknown status"
        with pytest.raises(QuarantineError, match=reason) as excinfo:
            parse_result(raw, "10.1/r")
        assert excinfo.value.raw_text == raw

    @pytest.mark.parametrize("block", ["species", "location", "relationships"])
    def test_out_of_scope_reply_listing_entities_quarantined(self, block):
        # kept, it became a result validate reported as status_inconsistency
        raw = json.dumps({"status": "out_of_scope", block: [{"name": "X"}]})
        with pytest.raises(QuarantineError, match="status 'out_of_scope' lists entities; only an extracted"):
            parse_result(raw, "10.1/r")

    @pytest.mark.parametrize("status", ["maybe", "Extracted", "", 5, None, ["extracted"], "x" * 100])
    def test_unknown_status_refused_at_construction(self, status):
        with pytest.raises(ValueError, match="unknown status " + re.escape(reprlib.repr(status))):
            ExtractionResult(paper_doi="10.1/r", status=status)

    def test_out_of_scope_reply_with_empty_blocks_accepted(self):
        raw = json.dumps({"status": "out_of_scope", "species": [], "habitats": "none"})
        assert parse_result(raw, "10.1/r") == ExtractionResult(paper_doi="10.1/r", status="out_of_scope")

    @pytest.mark.parametrize(
        "status, reason", [("quarantined", None), ("quarantined", ""), ("extracted", "why"), ("out_of_scope", "")]
    )
    def test_reason_goes_with_a_quarantine_only(self, status, reason):
        with pytest.raises(ValueError, match="reason"):
            ExtractionResult(paper_doi="10.1/r", status=status, reason=reason)

    def test_quarantine_line_holds_its_reason(self):
        result = ExtractionResult(paper_doi="10.1/r", status="quarantined", reason="prose")
        assert json.loads(serialize_result(result))["reason"] == "prose"
        assert "reason" not in json.loads(serialize_result(extracted()))

    def test_serialize_round_trip(self):
        result = extracted(
            species=[{"name": "A a", "role": "invasive", "taxonomy_level": "species"}],
            habitats=[{"name": "kelp beds", "subcomponent_of": "reef"}],
        )
        again = parse_result(serialize_result(result), result.paper_doi)
        assert again == result
        assert result_from_dict(json.loads(serialize_result(result))) == result


class TestValidateResult:
    def schema(self):
        return standard_schema()

    def test_conformant_result(self):
        result = extracted(
            species=[{"name": "Procambarus clarkii", "role": "invasive", "taxonomy_level": "species"}]
        )
        verdict = validate_result(result, self.schema())
        assert verdict.ok and not verdict.warnings

    @pytest.mark.parametrize("status, reason", [("out_of_scope", None), ("quarantined", "prose")])
    def test_out_of_scope_with_entities(self, status, reason):
        # validate reported it as status_inconsistency; no such result is built now
        with pytest.raises(ValueError, match=f"status {status!r} lists entities; only an extracted result does"):
            ExtractionResult(paper_doi="10.1/r", status=status, species=[{"name": "X"}], reason=reason)

    def test_dangling_relationship_reference(self):
        result = extracted(
            species=[{"name": "A a"}],
            relationships=[
                {
                    "related_entities": ["A a", "X"],
                    "name": "eats",
                    "type": "biological",
                    "directionality": "unidirectional",
                }
            ],
        )
        verdict = validate_result(result, self.schema())
        dangling = [v for v in verdict.violations if v.code == "dangling_reference"]
        assert len(dangling) == 1
        assert "X" in dangling[0].message

    def test_reference_matching_is_case_and_whitespace_insensitive(self):
        result = extracted(
            species=[{"name": "Carcinus  maenas"}],
            relationships=[
                {
                    "related_entities": ["carcinus maenas"],
                    "name": "self",
                    "type": "biological",
                    "directionality": "unidirectional",
                }
            ],
        )
        assert validate_result(result, self.schema()).ok

    def test_unknown_field(self):
        result = extracted(species=[{"name": "A a", "bogus": 1}])
        verdict = validate_result(result, self.schema())
        assert any(v.code == "unknown_field" and "bogus" in v.path for v in verdict.violations)

    def test_closed_enum_violation(self):
        result = extracted(species=[{"name": "A a", "taxonomy_level": "order"}])
        verdict = validate_result(result, self.schema())
        assert any(v.code == "enum_violation" for v in verdict.violations)

    def test_noncore_role_is_warning_not_error(self):
        result = extracted(species=[{"name": "A a", "role": "naturalized"}])
        verdict = validate_result(result, self.schema())
        assert verdict.ok
        assert any(w.code == "noncore_role" for w in verdict.warnings)

    def test_dangling_habitat_link_is_warning(self):
        result = extracted(habitats=[{"name": "kelp beds", "subcomponent_of": "missing reef"}])
        verdict = validate_result(result, self.schema())
        assert verdict.ok
        assert any(w.code == "dangling_habitat_link" for w in verdict.warnings)

    def test_resolved_habitat_link_not_flagged(self):
        result = extracted(
            ecosystems=[{"name": "Rocky Reef"}],
            habitats=[{"name": "kelp beds", "subcomponent_of": "rocky reef"}],
        )
        assert not validate_result(result, self.schema()).warnings

    def test_missing_name(self):
        verdict = validate_result(extracted(species=[{"role": "invasive"}]), self.schema())
        assert any(v.code == "missing_name" for v in verdict.violations)

    def test_is_pure(self):
        result = extracted(species=[{"name": "A a", "role": "odd"}])
        snapshot = copy.deepcopy(result)
        validate_result(result, self.schema())
        assert result == snapshot

    def test_stable_across_serialization(self):
        result = extracted(
            species=[{"name": "A a", "role": "odd", "bogus": 1}],
            relationships=[{"related_entities": ["nobody"], "name": "x", "type": "biological"}],
        )
        direct = validate_result(result, self.schema())
        reparsed = validate_result(parse_result(serialize_result(result), result.paper_doi), self.schema())
        assert direct == reparsed


    # validate_result fills its name sets while it walks the blocks in
    # RESULT_BLOCKS order; these pin the cases where that order matters.

    def test_relationship_may_name_the_last_entity_block(self):
        result = extracted(
            species=[{"name": "A a"}],
            habitats=[{"name": "Kelp  Beds"}],
            relationships=[{"related_entities": ["a A", " kelp beds"], "name": "lives in", "type": "ecological"}],
        )
        assert validate_result(result, self.schema()).ok

    def test_habitat_link_resolves_against_ecosystems_only(self):
        result = extracted(
            species=[{"name": "Posidonia"}],
            ecosystems=[{"name": "Rocky  Reef"}],
            habitats=[
                {"name": "kelp", "subcomponent_of": " ROCKY reef "},
                {"name": "meadow", "subcomponent_of": "posidonia"},
            ],
        )
        verdict = validate_result(result, self.schema())
        assert verdict.ok
        assert [(w.code, w.path) for w in verdict.warnings] == [
            ("dangling_habitat_link", "habitats[1].subcomponent_of")
        ]

    def test_status_inconsistency_is_refused_by_decode(self):
        # validate reported status_inconsistency before the entry violations; decode now refuses the line
        doc = {
            "doi": "10.1/r",
            "status": "out_of_scope",
            "species": [{"name": "X", "bogus": 1}],
            "relationships": [{"related_entities": ["nobody"]}],
        }
        with pytest.raises(ValueError, match="status 'out_of_scope' lists entities"):
            result_from_dict(doc)
        result = result_from_dict({**doc, "status": "extracted"})
        assert [(v.code, v.path) for v in validate_result(result, self.schema()).violations] == [
            ("unknown_field", "species[0].bogus"),
            ("dangling_reference", "relationships[0].related_entities"),
        ]


# The block-name table as it stood before the stem rule took over the
# names it covers: every spelling listed, then the stems.
FULL_ALIAS_TABLE = {
    "species": "species",
    "specie": "species",
    "organism": "species",
    "organisms": "species",
    "taxa": "species",
    "taxon": "species",
    "location": "location",
    "locations": "location",
    "place": "location",
    "places": "location",
    "site": "location",
    "sites": "location",
    "locality": "location",
    "localities": "location",
    "geography": "location",
    "ecosystem": "ecosystem",
    "ecosystems": "ecosystem",
    "habitat": "habitat",
    "habitats": "habitat",
    "relationship": "relationships",
    "relationships": "relationships",
    "relation": "relationships",
    "relations": "relationships",
    "interaction": "relationships",
    "interactions": "relationships",
}
FULL_STEMS = (
    ("species", "species"),
    ("location", "location"),
    ("ecosystem", "ecosystem"),
    ("habitat", "habitat"),
    ("relation", "relationships"),
    ("interaction", "relationships"),
)


def reference_canon_block(raw):
    squeezed = re.sub(r"[^a-z0-9]", "", raw.strip().lower())
    if squeezed in FULL_ALIAS_TABLE:
        return FULL_ALIAS_TABLE[squeezed]
    return next((block for stem, block in FULL_STEMS if squeezed.startswith(stem)), None)


@st.composite
def block_spellings(draw):
    """An alias key with random case, punctuation between letters and a suffix."""
    key = draw(st.sampled_from(sorted(FULL_ALIAS_TABLE)))
    glue = st.sampled_from(["", "", "", "_", "-", " ", ".", "é"])
    letters = "".join(draw(glue) + (c.upper() if draw(st.booleans()) else c) for c in key)
    return draw(st.sampled_from(["", " ", "\t"])) + letters + draw(st.sampled_from(["", "s", "_list", " ", "!", "x", "1"]))


@settings(max_examples=500, deadline=None)
@given(raw=st.one_of(st.text(), block_spellings()))
def test_canon_block_matches_full_alias_table(raw):
    assert _canon_block(raw) == reference_canon_block(raw)
