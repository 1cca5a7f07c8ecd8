"""MockProvider gazetteer matching against the per-name regex reference,
what its extract reply names, and its generalize against the
deterministic merge."""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecomine import mockllm
from ecomine.mockllm import MockProvider, _fold, load_rulebook
from ecomine.corpus import PaperRecord
from ecomine.prompts import build_extract_prompt, build_generalize_prompt
from ecomine.schema import BLOCK_NAMES, CandidateSchema, FieldSpec, merge_candidates, parse_schema, standard_schema

RULEBOOK = load_rulebook()

# Names that overlap, nest, or leave ASCII, so every name must be matched
# on its own and the non-ASCII ones fall through to the regex.
OVERLAPPING = {
    "species": {
        "Apis": {"role": "native"},
        "Apis mellifera": {"role": "native"},
        "mellifera": {"role": "introduced"},
        "Sciurus": {"role": "native"},
        "Sciurus vulgaris": {"role": "native"},
    },
    "locations": {
        "Lake": {"category": "natural"},
        "Lake Garda": {"category": "natural"},
        "Garda": {"category": "administrative"},
        "İzmir": {"geopolitical_info": "city"},
        "Río Ebro": {"category": "natural"},
    },
    "ecosystems": {
        "kelp": {"type": "marine"},
        "kelp forest": {"type": "marine"},
        "forest": {"type": "terrestrial"},
    },
    "habitats": {
        "sea": {"type": "marine"},
        "seagrass": {"type": "marine"},
        "Straße": {"type": "terrestrial"},
        "ſalt marsh": {"type": "marine"},
        "\u212aiel fjord": {"type": "marine"},
    },
}

# Letters that Unicode case-insensitive matching treats as one, although
# the lowercase forms of the non-ASCII ones are not the ASCII letter
# (\u212a is the Kelvin sign).
CASE_FOLD_GROUPS = [("k", "K", "\u212a"), ("s", "S", "ſ"), ("i", "I", "ı", "İ")]

SEPARATORS = ["", " ", "  ", "-", ", ", ".", "a", "Z", "7", "é", "ß", "\n"]
FILLER = ["the", "Lake", "sea", "in", "ecosystem", "K", "ſ", "ı", "İ", "\u212a", "Río"]


def reference_match(rulebook, text, kind):
    """One case-insensitive boundary regex per gazetteer name."""
    entries = []
    for name in sorted(rulebook.get(kind, {})):
        pattern = rf"(?<![A-Za-z0-9]){re.escape(name)}(?![A-Za-z0-9])"
        if re.search(pattern, text, re.IGNORECASE):
            entry = {"name": name}
            entry.update(rulebook[kind][name])
            entries.append(entry)
    return entries


def spellings(char):
    group = next((g for g in CASE_FOLD_GROUPS if char in g), None)
    return list(group) if group else [char, char.swapcase()]


def spelled(name):
    """The name with each letter replaced by one it matches case-insensitively."""
    return st.tuples(*(st.sampled_from(spellings(c)) for c in name)).map("".join)


def texts(rulebook):
    names = sorted({name for kind in rulebook.values() for name in kind})
    piece = st.one_of(
        st.sampled_from(names),
        st.sampled_from(names).flatmap(spelled),
        st.sampled_from(FILLER),
    )
    # Pieces glued by separators; the first and last piece sit at the text edges.
    return st.lists(st.tuples(piece, st.sampled_from(SEPARATORS)), min_size=1, max_size=8).map(
        lambda parts: "".join(p + s for p, s in parts[:-1]) + parts[-1][0]
    )


@settings(max_examples=300, deadline=None)
@given(text=texts(RULEBOOK), kind=st.sampled_from(sorted(RULEBOOK)))
def test_match_equals_reference_on_packaged_rulebook(text, kind):
    assert MockProvider(RULEBOOK)._match(text, kind, _fold(text)) == reference_match(RULEBOOK, text, kind)


@settings(max_examples=300, deadline=None)
@given(text=texts(OVERLAPPING), kind=st.sampled_from(sorted(OVERLAPPING)))
def test_match_equals_reference_on_overlapping_names(text, kind):
    assert MockProvider(OVERLAPPING)._match(text, kind, _fold(text)) == reference_match(OVERLAPPING, text, kind)


# OVERLAPPING plus names that start or end with punctuation, hold digits
# or hold no letter or digit at all.
PUNCTUATED = {kind: dict(names) for kind, names in OVERLAPPING.items()}
PUNCTUATED["locations"].update(
    {"(Lake) Garda": {}, "Garda.": {}, "St. Kilda": {}, "Site 7": {}, "7th Lake": {}, "B52": {}, "(+)": {}}
)
PUNCTUATED["habitats"].update({"-sea-": {}, "kelp 2 beds": {}})

ASCII_SEPARATORS = ["", " ", "  ", "-", ", ", ".", "a", "Z", "7", "\n", "(", ") "]
ASCII_FILLER = ["the", "Lake", "sea", "in", "Site", "7", "St", "K", "s", "i", "kelp", "+"]


def ascii_spelled(name):
    """The name in ASCII: each letter replaced by an ASCII one it matches
    case-insensitively, and the letters with none by a near miss."""
    near = {"í": ["i"], "ß": ["ss"]}
    options = ([s for s in spellings(c) if s.isascii()] or near[c] for c in name)
    return st.tuples(*(st.sampled_from(o) for o in options)).map("".join)


def ascii_texts(rulebook):
    names = sorted({name for kind in rulebook.values() for name in kind})
    piece = st.one_of(st.sampled_from(names).flatmap(ascii_spelled), st.sampled_from(ASCII_FILLER))
    return st.lists(st.tuples(piece, st.sampled_from(ASCII_SEPARATORS)), min_size=1, max_size=8).map(
        lambda parts: "".join(p + s for p, s in parts[:-1]) + parts[-1][0]
    )


def scan_equals_reference(rulebook, text):
    assert text.isascii()
    found = MockProvider(rulebook)._scan(text)
    assert found == {kind: reference_match(rulebook, text, kind) for kind in found}


# A name glued to a letter or digit on its left, or on its right, while
# its first word stands alone elsewhere; and the non-ASCII names that
# match ASCII text.
@example(text="aLake Garda, lake")
@example(text="Lake Garda7")
@example(text="the salt marsh")
@example(text="kiel fjord")
@settings(max_examples=60, deadline=None)
@given(text=ascii_texts(PUNCTUATED))
def test_scan_of_ascii_text_equals_reference_on_punctuated_names(text):
    scan_equals_reference(PUNCTUATED, text)


@example(text="xPinus sylvestris, pinus")
@example(text="Pinus sylvestris2")
@settings(max_examples=60, deadline=None)
@given(text=ascii_texts(RULEBOOK))
def test_scan_of_ascii_text_equals_reference_on_packaged_rulebook(text):
    scan_equals_reference(RULEBOOK, text)


def test_ascii_text_runs_no_regex_for_ascii_names(monkeypatch):
    provider = MockProvider(RULEBOOK)
    searched = []
    search = re.search
    monkeypatch.setattr(mockllm.re, "search", lambda pattern, *args: searched.append(pattern) or search(pattern, *args))
    text = "Carcinus maenas (Linnaeus) in Port Phillip Bay kelp beds of a marine ecosystem; ITALY, Hong Kong"
    assert all(provider._match(text, kind, _fold(text)) for kind in RULEBOOK)
    assert searched == []
    text = "Hong \u212aong harbour"
    assert provider._match(text, "locations", _fold(text))[0]["name"] == "Hong Kong"
    assert len(searched) == len(RULEBOOK["locations"])


def test_overlapping_names_all_match():
    found = MockProvider(OVERLAPPING)._scan("Survey of Lake Garda shores")["locations"]
    assert [entry["name"] for entry in found] == ["Garda", "Lake", "Lake Garda"]


def test_case_fold_oddities_still_match():
    provider = MockProvider(RULEBOOK)
    assert provider._scan("Hong \u212aong harbour")["locations"][0]["name"] == "Hong Kong"
    assert provider._scan("Pinus ſylvestris stands")["species"][0]["name"] == "Pinus sylvestris"
    assert provider._scan("ITALY")["locations"][0]["name"] == "Italy"


def extract_reply(rulebook, title, abstract):
    prompt = build_extract_prompt(PaperRecord(doi="10.1/a", title=title, abstract=abstract), standard_schema())
    reply = MockProvider(rulebook).send(prompt.system, prompt.user)
    return reply if reply == "N/A" else json.loads(reply)


def test_scan_reads_the_title_and_abstract_not_their_labels():
    rulebook = {"species": {"Title": {}, "Abstract": {}, "Acacia": {}, "Pinus": {}}}
    reply = extract_reply(rulebook, "Acacia survey", "Pinus stands")
    assert [entry["name"] for entry in reply["species"]] == ["Acacia", "Pinus"]
    assert extract_reply(rulebook, "A survey", "Stands") == "N/A"


@pytest.mark.parametrize("kind", ["habitats", "ecosystems"])
def test_relationships_name_the_first_species_and_the_first_habitat_or_ecosystem(kind):
    # every tier-1 paper names at most one species beside one habitat or ecosystem
    rulebook = {"species": {"Acacia": {}, "Pinus": {}}, kind: {"bog": {}, "fen": {}}}
    reply = extract_reply(rulebook, "Acacia and Pinus", "in a bog and a fen")
    assert [rel["related_entities"] for rel in reply["relationships"]] == [["Acacia", "bog"], ["Acacia", "Pinus"]]


def test_generalize_maps_alias_blocks_like_merge():
    blocks = {
        "Organisms": [FieldSpec("growth_form", "enum", ("tree",))],
        "taxa": [FieldSpec("genus")],
        "sites": [FieldSpec("elevation")],
        "Geography": [FieldSpec("basin")],
        "habitat_types": [FieldSpec("substrate")],
        "interactions": [FieldSpec("strength")],
        "weather": [FieldSpec("rainfall")],
    }
    candidates = [CandidateSchema(f"10.1/{i}", dict(blocks)) for i in range(2)]
    prompt = build_generalize_prompt(candidates)
    mocked = parse_schema(MockProvider(RULEBOOK).send(prompt.system, prompt.user))
    merged, report = merge_candidates(candidates)
    assert {b: mocked.field_names(b) for b in BLOCK_NAMES} == {b: merged.field_names(b) for b in BLOCK_NAMES}
    assert mocked.field_names("location")[-2:] == ["basin", "elevation"]
    assert [block for _, block in report.unmapped_blocks] == ["weather", "weather"]


@pytest.mark.parametrize(
    "user",
    ["Schemas: none", "Schemas: ] none [", "Schemas: none]", "Schemas: [not JSON]"],
    ids=["no-brackets", "reversed", "no-open-bracket", "not-json"],
)
def test_generalize_prompt_without_a_json_list_is_answered_na(user):
    candidates = [CandidateSchema(f"10.1/{i}", {"species": [FieldSpec("name")]}) for i in range(2)]
    assert MockProvider(RULEBOOK).send(build_generalize_prompt(candidates).system, user) == "N/A"
