"""MockProvider gazetteer matching against the per-name regex reference,
and its generalize against the deterministic merge."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from ecomine.mockllm import MockProvider, load_rulebook
from ecomine.prompts import build_generalize_prompt
from ecomine.schema import BLOCK_NAMES, CandidateSchema, FieldSpec, merge_candidates, parse_schema

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
    assert MockProvider(RULEBOOK)._match(text, kind) == reference_match(RULEBOOK, text, kind)


@settings(max_examples=300, deadline=None)
@given(text=texts(OVERLAPPING), kind=st.sampled_from(sorted(OVERLAPPING)))
def test_match_equals_reference_on_overlapping_names(text, kind):
    assert MockProvider(OVERLAPPING)._match(text, kind) == reference_match(OVERLAPPING, text, kind)


def test_overlapping_names_all_match():
    found = MockProvider(OVERLAPPING)._match("Survey of Lake Garda shores", "locations")
    assert [entry["name"] for entry in found] == ["Garda", "Lake", "Lake Garda"]


def test_case_fold_oddities_still_match():
    provider = MockProvider(RULEBOOK)
    assert provider._match("Hong \u212aong harbour", "locations")[0]["name"] == "Hong Kong"
    assert provider._match("Pinus ſylvestris stands", "species")[0]["name"] == "Pinus sylvestris"
    assert provider._match("ITALY", "locations")[0]["name"] == "Italy"


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
