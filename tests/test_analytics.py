import csv
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecomine.analytics import (
    ECOSYSTEM_TYPES,
    GENERIC_SPECIES_TERMS,
    LOCATION_GRANULARITIES,
    EcosystemFrequencies,
    FrequencyTable,
    LinkagePair,
    SortedResults,
    _table,
    ecosystem_frequencies,
    emit_report,
    habitat_linkages,
    location_frequencies,
    role_inventory,
    top_species,
)
from ecomine.errors import EcomineError
from ecomine.schema import ExtractionResult, display_name, name_key


def paper(doi, species=(), locations=(), ecosystems=(), habitats=()):
    return ExtractionResult(
        paper_doi=doi,
        status="extracted",
        species=list(species),
        locations=list(locations),
        ecosystems=list(ecosystems),
        habitats=list(habitats),
    )


def count_of(table, name):
    """The count of the row whose key is name's (case-folded match), or 0."""
    return next((row.count for row in table.rows if row.key == name_key(name)), 0)


def papers_each_with(kind, entries_with_counts):
    """One synthetic paper per mention: `count` papers each holding one entry."""
    results = []
    serial = 0
    for entry, count in entries_with_counts:
        for _ in range(count):
            serial += 1
            results.append(paper(f"10.fix/{serial:05d}", **{kind: [entry]}))
    return results


@pytest.fixture
def paper_count_fixture():
    """Mentions regenerated from the published tallies."""
    results = []
    results += papers_each_with(
        "species",
        [
            ({"name": "Procambarus clarkii", "role": "invasive"}, 76),
            ({"name": "Harmonia axyridis", "role": "invasive"}, 73),
            ({"name": "Rhinella marina", "role": "invasive"}, 68),
            ({"name": "Dreissena polymorpha", "role": "invasive"}, 63),
            ({"name": "Austropotamobius pallipes", "role": "native"}, 24),
            ({"name": "Phragmites australis", "role": "native"}, 24),
            ({"name": "Mytilus edulis", "role": "native"}, 23),
            ({"name": "Oncorhynchus mykiss", "role": "introduced"}, 12),
            ({"name": "Robinia pseudoacacia", "role": "naturalized"}, 5),
            ({"name": "Carcinus maenas", "role": "alien"}, 4),
        ],
    )
    results += papers_each_with(
        "locations",
        [
            ({"name": "Australia", "geopolitical_info": "country"}, 406),
            ({"name": "South Africa", "geopolitical_info": "country"}, 248),
            ({"name": "New Zealand", "geopolitical_info": "country"}, 236),
            ({"name": "Italy", "geopolitical_info": "country"}, 187),
            ({"name": "France", "geopolitical_info": "country"}, 168),
            ({"name": "Spain", "geopolitical_info": "country"}, 9),
            ({"name": "Europe", "geopolitical_info": "region"}, 601),
            ({"name": "North America", "geopolitical_info": "region"}, 348),
            ({"name": "Sydney", "geopolitical_info": "city"}, 8),
        ],
    )
    results += papers_each_with(
        "ecosystems",
        [
            ({"name": "freshwater systems", "type": "aquatic"}, 199),
            ({"name": "terrestrial ecosystems", "type": "terrestrial"}, 93),
            ({"name": "Mediterranean Sea", "type": "marine"}, 71),
        ],
    )
    return results


class TestRoleInventory:
    def test_hand_tally(self):
        results = [
            paper("10.1/a", species=[{"name": "A", "role": "invasive"}, {"name": "B", "role": "native"}]),
            paper("10.1/b", species=[{"name": "C", "role": "invasive"}]),
            paper("10.1/c", species=[{"name": "D", "role": "Invasive"}, {"name": "E", "role": "native"}]),
        ]
        table = role_inventory(results)
        assert [(row.key, row.count) for row in table.rows] == [("invasive", 3), ("native", 2)]
        assert table.total == 5

    def test_empty(self):
        table = role_inventory([])
        assert table.rows == [] and table.total == 0

    def test_core_and_naturalized_roles_present(self, paper_count_fixture):
        keys = {row.key for row in role_inventory(paper_count_fixture).rows}
        assert {"native", "alien", "introduced", "invasive", "naturalized"} <= keys

    def test_within_paper_dedup_by_name_and_role(self):
        results = [
            paper(
                "10.1/a",
                species=[
                    {"name": "A a", "role": "invasive"},
                    {"name": "A a", "role": "invasive"},  # duplicate: counted once
                    {"name": "A a", "role": "native"},  # same name, new role: counted
                ],
            )
        ]
        table = role_inventory(results)
        assert count_of(table, "invasive") == 1
        assert count_of(table, "native") == 1


class TestTopSpecies:
    def test_invasive_top_three(self, paper_count_fixture):
        table = top_species(paper_count_fixture, "invasive", 3)
        assert [(row.display, row.count) for row in table.rows] == [
            ("Procambarus clarkii", 76),
            ("Harmonia axyridis", 73),
            ("Rhinella marina", 68),
        ]

    def test_native_tie_broken_alphabetically(self, paper_count_fixture):
        table = top_species(paper_count_fixture, "native", 2)
        assert [(row.display, row.count) for row in table.rows] == [
            ("Austropotamobius pallipes", 24),
            ("Phragmites australis", 24),
        ]

    def test_k_larger_than_distinct_names(self, paper_count_fixture):
        table = top_species(paper_count_fixture, "introduced", 50)
        assert [(row.display, row.count) for row in table.rows] == [("Oncorhynchus mykiss", 12)]

    def test_unknown_role_empty_table(self, paper_count_fixture):
        assert top_species(paper_count_fixture, "quarantine pest", 5).rows == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_species([], "invasive", 0)

    def test_role_match_is_case_folded(self, paper_count_fixture):
        assert top_species(paper_count_fixture, "INVASIVE", 1).rows[0].display == "Procambarus clarkii"

    def test_stoplist_filters_generic_terms(self):
        results = [
            paper("10.1/a", species=[{"name": "native species", "role": "native"}]),
            paper("10.1/b", species=[{"name": "Quercus robur", "role": "native"}]),
        ]
        table = top_species(results, "native", 5, stoplist=GENERIC_SPECIES_TERMS)
        assert [row.display for row in table.rows] == ["Quercus robur"]


class TestLocationFrequencies:
    def test_country_top_five(self, paper_count_fixture):
        table = location_frequencies(paper_count_fixture, "country").top(5)
        assert [(row.display, row.count) for row in table.rows] == [
            ("Australia", 406),
            ("South Africa", 248),
            ("New Zealand", 236),
            ("Italy", 187),
            ("France", 168),
        ]

    def test_region_led_by_europe(self, paper_count_fixture):
        table = location_frequencies(paper_count_fixture, "region")
        assert (table.rows[0].display, table.rows[0].count) == ("Europe", 601)

    def test_empty_input(self):
        assert location_frequencies([], "country").rows == []

    def test_bad_granularity(self):
        with pytest.raises(ValueError):
            location_frequencies([], "continent")

    def test_all_is_not_a_level(self):
        # "all" counted every level in one table, and no report asked for it
        with pytest.raises(ValueError, match=re.escape("('country', 'region', 'city')")):
            location_frequencies([], "all")


class TestEcosystemFrequencies:
    def test_paper_counts(self, paper_count_fixture):
        tables = ecosystem_frequencies(paper_count_fixture)
        assert count_of(tables.names, "freshwater systems") == 199
        assert count_of(tables.names, "terrestrial ecosystems") == 93
        assert count_of(tables.names, "Mediterranean Sea") == 71

    def test_single_mention(self):
        tables = ecosystem_frequencies([paper("10.1/a", ecosystems=[{"name": "bog", "type": "aquatic"}])])
        assert [(row.display, row.count) for row in tables.names.rows] == [("bog", 1)]

    def test_type_breakdown_sums_to_recognized_mentions(self, paper_count_fixture):
        extra = paper("10.1/zz", ecosystems=[{"name": "mystery system", "type": "subterranean"}])
        tables = ecosystem_frequencies(paper_count_fixture + [extra])
        recognized = sum(row.count for row in tables.types.rows)
        assert recognized == 199 + 93 + 71  # the unrecognized type joins names but not types
        assert count_of(tables.names, "mystery system") == 1


class TestHabitatLinkages:
    def test_counts_pairs(self):
        results = [
            paper("10.1/a", habitats=[{"name": "pelagic zone", "subcomponent_of": "lake ecosystem"}]),
            paper("10.1/b", habitats=[{"name": "pelagic zone", "subcomponent_of": "lake ecosystem"}]),
            paper("10.1/c", habitats=[{"name": "kelp beds", "subcomponent_of": "rocky subtidal"}]),
        ]
        pairs = habitat_linkages(results)
        assert (pairs[0].habitat, pairs[0].ecosystem, pairs[0].count) == (
            "pelagic zone",
            "lake ecosystem",
            2,
        )

    def test_missing_target_excluded(self):
        results = [paper("10.1/a", habitats=[{"name": "kelp beds"}])]
        assert habitat_linkages(results) == []

    def test_permutation_invariant(self, paper_count_fixture):
        results = paper_count_fixture + [
            paper("10.zz/1", habitats=[{"name": "kelp beds", "subcomponent_of": "rocky subtidal"}])
        ]
        shuffled = list(results)
        random.Random(3).shuffle(shuffled)
        assert habitat_linkages(results) == habitat_linkages(shuffled)


class TestPermutationAndRegeneration:
    def test_aggregations_permutation_invariant(self, paper_count_fixture):
        shuffled = list(paper_count_fixture)
        random.Random(11).shuffle(shuffled)
        assert role_inventory(paper_count_fixture) == role_inventory(shuffled)
        assert top_species(paper_count_fixture, "invasive", 10) == top_species(shuffled, "invasive", 10)
        assert location_frequencies(paper_count_fixture, "country") == location_frequencies(
            shuffled, "country"
        )
        assert ecosystem_frequencies(paper_count_fixture) == ecosystem_frequencies(shuffled)

    def test_regenerating_fixture_from_table_reproduces_it(self, paper_count_fixture):
        table = top_species(paper_count_fixture, "invasive", 10)
        regenerated = papers_each_with(
            "species",
            [({"name": row.display, "role": "invasive"}, row.count) for row in table.rows],
        )
        assert top_species(regenerated, "invasive", 10) == table

    def test_role_filter_bounded_by_total_mentions(self, paper_count_fixture):
        inventory = role_inventory(paper_count_fixture)
        filtered = top_species(paper_count_fixture, "invasive", 10_000)
        assert sum(row.count for row in filtered.rows) <= inventory.total


class TestEmitReport:
    def tables(self, fixture):
        return [
            role_inventory(fixture),
            top_species(fixture, "invasive", 3),
            location_frequencies(fixture, "country").top(5),
        ]

    def test_csv_round_trips(self, tmp_path, paper_count_fixture):
        out = emit_report(self.tables(paper_count_fixture), [], tmp_path / "reports", fmt="csv")
        with (out / "locations_country.csv").open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "count"]
        assert rows[1] == ["Australia", "406"]
        assert len(rows) == 6

    def test_deterministic_bytes(self, tmp_path, paper_count_fixture):
        pairs = habitat_linkages(
            [paper("10.1/a", habitats=[{"name": "kelp beds", "subcomponent_of": "reef"}])]
        )
        one = emit_report(self.tables(paper_count_fixture), pairs, tmp_path / "one", fmt="csv")
        two = emit_report(self.tables(paper_count_fixture), pairs, tmp_path / "two", fmt="csv")
        for name in ("species_roles.csv", "top_species_invasive.csv", "habitat_linkages.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_markdown_sections(self, tmp_path, paper_count_fixture):
        out = emit_report(
            self.tables(paper_count_fixture), [], tmp_path / "report.md", fmt="markdown"
        )
        text = out.read_text(encoding="utf-8")
        assert "## species roles" in text
        assert "## top species (invasive)" in text
        assert "| Procambarus clarkii | 76 |" in text

    def test_markdown_escapes_pipes_and_csv_keeps_them(self, tmp_path):
        results = [
            paper(
                "10.1/a",
                species=[{"name": "Salmo trutta | brown trout", "role": "invasive"}],
                habitats=[{"name": "riffle|pool", "subcomponent_of": "stream"}],
            )
        ]
        tables, pairs = [top_species(results, "invasive", 3)], habitat_linkages(results)
        lines = emit_report(tables, pairs, tmp_path / "report.md", fmt="markdown").read_text(encoding="utf-8")
        assert "| Salmo trutta \\| brown trout | 1 |" in lines.splitlines()
        assert "| riffle\\|pool | stream | 1 |" in lines.splitlines()
        out = emit_report(tables, pairs, tmp_path / "reports", fmt="csv")
        with (out / "top_species_invasive.csv").open(encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh))[1] == ["Salmo trutta | brown trout", "1"]

    def test_unwritable_path(self, tmp_path, paper_count_fixture):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        with pytest.raises(EcomineError):
            emit_report(self.tables(paper_count_fixture), [], blocked / "sub", fmt="csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(EcomineError):
            emit_report([FrequencyTable(label="x")], [], tmp_path / "x", fmt="yaml")


# ---------------------------------------------------------------------------
# Reference: the four counting loops as written out one by one before the
# analytics functions shared one mention rule. The oracle test below
# requires the shared rule to count exactly as they do.


def _ref_ordered(results):
    return sorted(results, key=lambda result: result.paper_doi)


def _ref_species_mentions(results, stoplist=None):
    stop = {name_key(term) for term in stoplist} if stoplist else set()
    mentions = []
    for result in _ref_ordered(results):
        seen = set()
        for entry in result.species:
            if not isinstance(entry, dict) or not entry.get("name"):
                continue
            if name_key(entry["name"]) in stop:
                continue
            role = str(entry.get("role") or "")
            dedup = (name_key(entry["name"]), name_key(role))
            if dedup in seen:
                continue
            seen.add(dedup)
            mentions.append((display_name(entry["name"]), role))
    return mentions


def _ref_table(label, mentions, total):
    """One row per name key, counting each mention once."""
    return _table(label, ((name_key(raw), 1, raw) for raw in mentions), total)


def _ref_role_inventory(results, stoplist=None):
    mentions = _ref_species_mentions(results, stoplist)
    roles = [role for _, role in mentions if role.strip()]
    return _ref_table("species roles", roles, total=len(mentions))


def _ref_top_species(results, role, k, stoplist=None):
    wanted = name_key(role)
    names = [name for name, r in _ref_species_mentions(results, stoplist) if name_key(r) == wanted]
    return _ref_table(f"top species ({display_name(role)})", names, total=len(names)).top(k)


def _ref_location_frequencies(results, granularity):
    mentions = []
    for result in _ref_ordered(results):
        seen = set()
        for entry in result.locations:
            if not isinstance(entry, dict) or not entry.get("name"):
                continue
            geo = name_key(entry.get("geopolitical_info") or "")
            dedup = (name_key(entry["name"]), geo)
            if dedup in seen:
                continue
            seen.add(dedup)
            if geo != granularity:
                continue
            mentions.append(display_name(entry["name"]))
    return _ref_table(f"locations ({granularity})", mentions, total=len(mentions))


def _ref_ecosystem_frequencies(results):
    names = []
    types = []
    for result in _ref_ordered(results):
        seen = set()
        for entry in result.ecosystems:
            if not isinstance(entry, dict) or not entry.get("name"):
                continue
            key = name_key(entry["name"])
            if key in seen:
                continue
            seen.add(key)
            names.append(display_name(entry["name"]))
            kind = name_key(entry.get("type") or "")
            if kind in ECOSYSTEM_TYPES:
                types.append(kind)
    return EcosystemFrequencies(
        names=_ref_table("ecosystems", names, total=len(names)),
        types=_ref_table("ecosystem types", types, total=len(names)),
    )


def _ref_habitat_linkages(results):
    counts = {}
    displays = {}
    for result in _ref_ordered(results):
        seen = set()
        for entry in result.habitats:
            if not isinstance(entry, dict) or not entry.get("name"):
                continue
            target = entry.get("subcomponent_of")
            if not target:
                continue
            pair = (name_key(entry["name"]), name_key(target))
            if pair in seen:
                continue
            seen.add(pair)
            counts[pair] = counts.get(pair, 0) + 1
            displays.setdefault(pair, (display_name(entry["name"]), display_name(target)))
    ordered = sorted(counts, key=lambda pair: (-counts[pair], pair))
    return [
        LinkagePair(habitat=displays[pair][0], ecosystem=displays[pair][1], count=counts[pair])
        for pair in ordered
    ]


# Entries are drawn from small vocabularies, so that case and whitespace
# variants, duplicates within a paper, the stoplist, and blank or missing
# values (a missing target next to a whitespace-only one) all occur often.
NAMES = st.sampled_from(["Acacia", " ACACIA ", "native species", "Native  Species", "", "   ", 0, None])
LABELS = st.sampled_from(["invasive", "Invasive ", "native", "country", " Country", "region", "aquatic", "MARINE", "", 0, None])
TARGETS = st.sampled_from(["Lake", " lake ", "None", "", "   ", 0, None])
FIELDS = {"role": LABELS, "geopolitical_info": LABELS, "type": LABELS, "subcomponent_of": TARGETS}
ENTRIES = st.one_of(
    st.sampled_from(
        [
            {"name": "Acacia"},
            {"name": "acacia", "subcomponent_of": "   "},
            {"name": "Acacia", "subcomponent_of": None},
            {"name": "ACACIA", "subcomponent_of": ""},
            {"name": "Acacia", "subcomponent_of": "None"},
            {"name": "acacia ", "role": "native", "geopolitical_info": "", "type": "   "},
            {"subcomponent_of": "Lake"},
            None,
            7,
            "Acacia",
            ["Acacia"],
        ]
    ),
    st.fixed_dictionaries({"name": NAMES}, optional=FIELDS),
    st.fixed_dictionaries({}, optional=dict(FIELDS, name=NAMES)),
)
RESULT_LISTS = st.lists(
    st.builds(
        paper,
        st.sampled_from(["10.1/a", "10.1/b", "10.1/c"]),
        species=st.lists(ENTRIES, max_size=6),
        locations=st.lists(ENTRIES, max_size=6),
        ecosystems=st.lists(ENTRIES, max_size=6),
        habitats=st.lists(ENTRIES, max_size=6),
    ),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(results=RESULT_LISTS, filter_generic=st.booleans())
def test_mention_rule_equals_reference_loops(results, filter_generic):
    stoplist = GENERIC_SPECIES_TERMS if filter_generic else None
    assert role_inventory(results, stoplist) == _ref_role_inventory(results, stoplist)
    for role in ("invasive", "Native ", ""):
        assert top_species(results, role, 3, stoplist) == _ref_top_species(results, role, 3, stoplist)
    for granularity in LOCATION_GRANULARITIES:
        assert location_frequencies(results, granularity) == _ref_location_frequencies(results, granularity)
    assert ecosystem_frequencies(results) == _ref_ecosystem_frequencies(results)
    assert habitat_linkages(results) == _ref_habitat_linkages(results)


@settings(max_examples=50, deadline=None)
@given(results=RESULT_LISTS, filter_generic=st.booleans())
def test_shared_tally_equals_fresh_list_per_call(results, filter_generic):
    stoplist = GENERIC_SPECIES_TERMS if filter_generic else None
    shared = SortedResults(results)
    assert list(shared) == sorted(results, key=lambda result: result.paper_doi)
    for _ in range(2):  # the second round reads the memoised tallies
        assert role_inventory(shared, stoplist) == role_inventory(list(results), stoplist)
        for role in ("invasive", "Native ", ""):
            assert top_species(shared, role, 3, stoplist) == top_species(list(results), role, 3, stoplist)
        for granularity in LOCATION_GRANULARITIES:
            assert location_frequencies(shared, granularity) == location_frequencies(list(results), granularity)
        assert ecosystem_frequencies(shared) == ecosystem_frequencies(list(results))
        assert habitat_linkages(shared) == habitat_linkages(list(results))
