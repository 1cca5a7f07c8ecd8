import ast
import json
import os
import re
from pathlib import Path

import pytest

from ecomine import corpus
from ecomine.corpus import (
    BibliometricTable,
    CorpusStore,
    PaperRecord,
    atomic_write_text,
    bibliometrics,
    commit_line,
    compute_stats,
    count_tokens,
    encode,
    export_corpus,
    normalize_doi,
    read_json_lines,
)
from ecomine.errors import CorpusError


def record(doi, abstract=None, full_text=None, year=None, publisher=None, title="t"):
    return PaperRecord(
        doi=doi, title=title, abstract=abstract, full_text=full_text, year=year, publisher=publisher
    )


class TestNormalizeDoi:
    def test_strips_resolver_prefixes(self):
        assert normalize_doi("https://doi.org/10.1234/ABC") == "10.1234/abc"
        assert normalize_doi("http://doi.org/10.1234/abc") == "10.1234/abc"
        assert normalize_doi("doi:10.1234/abc") == "10.1234/abc"
        assert normalize_doi("  10.1234/Abc ") == "10.1234/abc"

    @pytest.mark.parametrize("bad", ["", "   ", "not-a-doi", "11.1/x", "10.1234"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(CorpusError):
            normalize_doi(bad)


class TestPaperRecord:
    def test_requires_doi(self):
        with pytest.raises(CorpusError):
            PaperRecord(doi="", title="x")

    @pytest.mark.parametrize("year", [0, -3, 99, 12345])
    def test_rejects_bad_year(self, year):
        with pytest.raises(CorpusError):
            record("10.1/x", year=year)

    def test_availability(self):
        assert record("10.1/a", abstract="text").available
        assert record("10.1/b", full_text="text").available
        assert not record("10.1/c").available

    @pytest.mark.parametrize("blank", ["", "  \n", "\t", "\u3000"])
    def test_blank_text_is_no_text(self, blank):
        held = record("10.1/a", abstract=blank, full_text=blank)
        assert (held.abstract, held.full_text, held.available) == (None, None, False)

    def test_serialization_omits_absent_fields(self):
        doc = encode(record("10.1/a", abstract="text"))
        assert "full_text" not in doc and "year" not in doc and "publisher" not in doc


class TestStore:
    def test_upsert_is_idempotent(self):
        store = CorpusStore()
        store.upsert(record("10.1/a", abstract="one two"))
        store.upsert(record("10.1/a", abstract="one two"))
        assert len(store) == 1

    def test_records_ordered_by_doi(self):
        store = CorpusStore([record("10.1/b", abstract="x"), record("10.1/a", abstract="y")])
        assert [r.doi for r in store.records()] == ["10.1/a", "10.1/b"]


class TestStats:
    def test_hand_counted_three_documents(self):
        # abstracts of 4, 10, and 16 whitespace tokens
        store = CorpusStore(
            [
                record("10.1/a", abstract="one two three four"),
                record("10.1/b", abstract=" ".join(f"w{i}" for i in range(10))),
                record("10.1/c", abstract=" ".join(f"w{i}" for i in range(16))),
            ]
        )
        stats = compute_stats(store)
        assert stats.total == 3
        assert stats.abstract_tokens.minimum == 4
        assert stats.abstract_tokens.maximum == 16
        assert stats.abstract_tokens.average == 10
        assert stats.full_text_tokens.count == 0

    def test_single_abstract(self):
        store = CorpusStore([record("10.1/a", abstract="a b c d e f g")])
        stats = compute_stats(store)
        assert (
            stats.abstract_tokens.minimum
            == stats.abstract_tokens.maximum
            == stats.abstract_tokens.average
            == 7
        )

    def test_empty_store_has_absent_extrema(self):
        stats = compute_stats(CorpusStore())
        assert stats.total == 0
        assert stats.abstract_tokens.minimum is None
        assert stats.abstract_tokens.maximum is None
        assert stats.abstract_tokens.average is None

    def test_blank_abstract_is_not_available(self, tmp_path):
        # it was: total=1 and abstract_token_min=0
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doi": "10.1/a", "abstract": "  \\n"}\n{"doi": "10.1/b", "abstract": "a b"}\n')
        stats = compute_stats(CorpusStore.load(path))
        assert (stats.total, stats.abstract_only, stats.abstract_tokens.minimum) == (1, 1, 2)

    def test_partition_identity(self, sample_store):
        stats = compute_stats(sample_store)
        assert stats.abstract_only + stats.with_full_text == stats.total
        assert stats.total == 20
        assert stats.with_full_text == 2

    def test_permutation_invariant(self, sample_store):
        records = sample_store.records()
        forward = compute_stats(CorpusStore(records))
        backward = compute_stats(CorpusStore(reversed(records)))
        assert forward == backward

    def test_token_definition_is_whitespace_runs(self):
        assert count_tokens("a  b\tc\nd") == 4
        assert count_tokens("  ") == 0


class TestBibliometrics:
    def test_single_record_with_full_text(self):
        store = CorpusStore([record("10.1/a", abstract="x", full_text="y", year=1990)])
        table = bibliometrics(store)
        assert table.by_year == {1990: (1, 1)}

    def test_hand_tally_with_alphabetical_tie(self):
        store = CorpusStore(
            [
                record("10.1/a", abstract="x", publisher="Zebra Press", year=2001),
                record("10.1/b", abstract="x", full_text="f", publisher="Acme", year=2001),
                record("10.1/c", abstract="x", publisher="Zebra Press", year=2002),
            ]
        )
        table = bibliometrics(store)
        assert table.by_year == {2001: (2, 1), 2002: (1, 0)}
        # Zebra Press has more abstracts, so it sorts first despite the alphabet
        assert list(table.by_publisher) == ["Zebra Press", "Acme"]
        assert table.by_publisher["Zebra Press"] == (2, 0)

        tied = CorpusStore(
            [
                record("10.1/a", abstract="x", publisher="Beta"),
                record("10.1/b", abstract="x", publisher="Alpha"),
            ]
        )
        assert list(bibliometrics(tied).by_publisher) == ["Alpha", "Beta"]

    def test_missing_year_excluded_from_table_not_store(self):
        store = CorpusStore([record("10.1/a", abstract="x"), record("10.1/b", abstract="x", year=1999)])
        table = bibliometrics(store)
        assert table.by_year == {1999: (1, 0)}
        assert sum(counts[0] for counts in table.by_year.values()) <= compute_stats(store).total

    def test_empty(self):
        assert bibliometrics(CorpusStore()) == BibliometricTable()


class TestExportImport:
    def test_line_count_matches_records(self, tmp_path, sample_store):
        path = tmp_path / "corpus.jsonl"
        count = export_corpus(sample_store, path)
        assert count == 20
        assert len(path.read_text(encoding="utf-8").splitlines()) == 20

    def test_round_trip_byte_identical(self, tmp_path, sample_store):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        export_corpus(sample_store, first)
        reloaded = CorpusStore.load(first)
        export_corpus(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded.records() == sample_store.records()

    def test_unicode_line_boundaries_stay_in_their_record(self, tmp_path):
        # export writes these characters unescaped; only "\n" ends a line
        store = CorpusStore([PaperRecord(doi="10.1/a", title="t\u2028u", abstract="a\x85b\x1cc\u2029d")])
        path = tmp_path / "corpus.jsonl"
        export_corpus(store, path)
        assert CorpusStore.load(path).records() == store.records()

    def test_empty_store(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert export_corpus(CorpusStore(), path) == 0
        assert path.read_text(encoding="utf-8") == ""
        assert len(CorpusStore.load(path)) == 0

    def test_unwritable_path_raises(self, tmp_path, sample_store):
        # a path whose parent is a regular file cannot be created
        blocked = tmp_path / "file"
        blocked.write_text("x")
        with pytest.raises(CorpusError):
            export_corpus(sample_store, blocked / "corpus.jsonl")

    def test_failed_write_removes_its_temporary_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"cannot write {path}")):
            atomic_write_text(path, "a\ud800")  # UTF-8 cannot encode a lone surrogate
        assert path.read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]

    def test_a_str_path_into_a_missing_directory_is_written(self, tmp_path):
        path = tmp_path / "new" / "deeper" / "out.txt"
        atomic_write_text(str(path), "text\n")
        assert path.read_text(encoding="utf-8") == "text\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.txt"]

    def test_an_interrupt_propagates_unchanged_and_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.jsonl"
        path.write_text("kept\n", encoding="utf-8")
        interrupt = KeyboardInterrupt()

        def interrupted(source, target):
            raise interrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt) as excinfo:
            atomic_write_text(path, "new\n")
        assert excinfo.value is interrupt
        assert path.read_text(encoding="utf-8") == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    @pytest.mark.parametrize(
        "suffix, payload, where",
        [
            ("jsonl", '{"doi": "10.1/a", "title": "t"}\n"text"\n', ", line 2"),
            ("jsonl", '{"doi": "10.1/a", "year": "1999"}\n', ", line 1"),
            ("jsonl", '{"title": "no doi"}\n', ", line 1"),
            # single-document archives are no corpus format; one is refused by name
            ("json", "[1]", ""),
            ("json", '{"records": [{"doi": 7}]}', ""),
        ],
    )
    def test_malformed_record_names_the_file(self, tmp_path, suffix, payload, where):
        path = tmp_path / f"bad.{suffix}"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"{path}{where}")):
            CorpusStore.load(path)

    def test_jsonl_is_the_only_export_format(self, tmp_path, sample_store):
        path = tmp_path / "corpus.jsonl"
        assert export_corpus(sample_store, path, fmt="jsonl") == len(sample_store)
        assert CorpusStore.load(path).records() == sample_store.records()
        with pytest.raises(CorpusError, match="unknown corpus format: 'json'"):
            export_corpus(sample_store, tmp_path / "corpus.json", fmt="json")
        assert not (tmp_path / "corpus.json").exists()

    def test_unknown_format(self, tmp_path, sample_store):
        with pytest.raises(CorpusError):
            export_corpus(sample_store, tmp_path / "x", fmt="xml")


def test_a_repaired_last_line_without_its_newline_stays_apart_from_the_next_append(tmp_path):
    path = tmp_path / "results.jsonl"
    first, second, third = (json.dumps({"n": n}) for n in range(3))
    path.write_text(f"{first}\n{second}", encoding="utf-8")  # a whole last line, written without its newline
    assert read_json_lines(path, "log", CorpusError, dict, repair=True) == [{"n": 0}, {"n": 1}]
    with path.open("a", encoding="utf-8") as sink:
        commit_line(sink, third)
    assert read_json_lines(path, "log", CorpusError, dict) == [{"n": 0}, {"n": 1}, {"n": 2}]


def test_json_text_is_written_by_corpus_alone():
    # every golden byte, the corpus round trip and the schema fingerprint rest on one form:
    # sorted keys and UTF-8 text; a second encoder could drift from it with no test noticing
    writers = {"dump", "dumps", "JSONEncoder"}
    found = []
    for path in sorted(Path(corpus.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in writers and getattr(node.value, "id", None) == "json":
                found.append(f"{path.name}:{node.lineno} json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [f"{path.name}:{node.lineno} json.{a.name}" for a in node.names if a.name in writers]
    assert [place for place in found if not place.startswith("corpus.py:")] == []
    assert len(found) == 2  # the line and document encoders
