import csv
import inspect
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ecomine
from conftest import SAMPLE_CORPUS
from ecomine import analytics, cli
from ecomine.gateway import SYSTEM_SECTIONS, HttpChatProvider, PromptPair, RateLimitPolicy, SlidingWindowRateLimiter
from ecomine.harvest import FixtureHarvestClient, HttpHarvestClient, fixture_filename
from ecomine.mockllm import MockProvider
from ecomine.pipeline import StageConfig, load_results
from ecomine.schema import schema_fingerprint, schema_to_json, standard_schema


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    shutil.copy(SAMPLE_CORPUS, path)
    return path


def last_line(capsys):
    return capsys.readouterr().out.strip().splitlines()[-1]


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("frobnicate")
        assert excinfo.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("extract")
        assert excinfo.value.code == 2

    def test_python_dash_m_runs_the_command_line(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["ecomine", "--help"])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("ecomine", run_name="__main__")
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ecomine")


class TestStats:
    def test_empty_corpus(self, tmp_path, capsys):
        assert run_cli("--corpus", tmp_path / "none.jsonl", "stats") == 0
        assert last_line(capsys).startswith("total=0")

    def test_sample_corpus(self, corpus_path, capsys):
        assert run_cli("--corpus", corpus_path, "stats") == 0
        line = last_line(capsys)
        assert "total=20" in line
        assert "abstract_only=18" in line
        assert "with_full_text=2" in line
        assert "abstract_token_min=" in line

    def test_line_names_each_token_figure(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = [{"doi": "10.9/a", "abstract": "a b"}, {"doi": "10.9/b", "abstract": "a b c d e", "full_text": "x"}]
        corpus.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        assert run_cli("--corpus", corpus, "stats") == 0
        assert last_line(capsys) == (
            "total=2 abstract_only=1 with_full_text=1"
            " abstract_token_min=2 abstract_token_max=5 abstract_token_avg=3.50"
            " full_text_token_min=1 full_text_token_max=1 full_text_token_avg=1.00"
        )


class TestLoaderErrors:
    """Bad input files end in exit 1 with the file (and line) named."""

    def test_candidate_without_doi(self, tmp_path, corpus_path, capsys):
        candidates = tmp_path / "candidates.jsonl"
        candidates.write_text('{"doi": "10.1/a", "blocks": {}}\n{"blocks": {}}\n', encoding="utf-8")
        code = run_cli("--corpus", corpus_path, "generalize", "--candidates", candidates, "--out-dir", tmp_path / "s")
        assert code == 1
        assert f"{candidates}, line 2" in capsys.readouterr().err

    def test_corpus_line_not_an_object(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doi": "10.1/a", "title": "t"}\n[1]\n', encoding="utf-8")
        assert run_cli("--corpus", corpus, "stats") == 1
        assert f"{corpus}, line 2" in capsys.readouterr().err

    def test_fixture_with_bad_json(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "10.9_one.json").write_text('{"title": "One", ', encoding="utf-8")
        dois = tmp_path / "dois.txt"
        dois.write_text("10.9/one\n")
        assert run_cli("--corpus", tmp_path / "c.jsonl", "ingest", "--dois", dois, "--fixtures", fixtures) == 1
        assert str(fixtures / "10.9_one.json") in capsys.readouterr().err


class TestUnencodableText:
    """A lone surrogate, which a JSON escape can carry and UTF-8 cannot
    encode, is refused where it enters, naming the DOI or the file and line."""

    def test_harvested_record_is_a_named_failed_fetch(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / fixture_filename("10.9/one")).write_text('{"abstract": "a b"}', encoding="utf-8")
        (fixtures / fixture_filename("10.9/bad")).write_text('{"title": "T\\ud800", "abstract": "a b"}', encoding="utf-8")
        dois = tmp_path / "dois.txt"
        dois.write_text("10.9/one\n10.9/bad\n", encoding="utf-8")
        corpus = tmp_path / "harvested.jsonl"
        assert run_cli("--corpus", corpus, "ingest", "--dois", dois, "--fixtures", fixtures) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any(line.startswith("error: ") and "10.9/bad" in line for line in err.splitlines())
        assert [json.loads(line)["doi"] for line in corpus.read_text(encoding="utf-8").splitlines()] == ["10.9/one"]
        assert corpus.with_suffix(".skipped.log").read_text(encoding="utf-8") == ""
        assert not list(tmp_path.glob("*.tmp"))

    def test_corpus_line_is_named(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doi": "10.1/a", "title": "t"}\n{"doi": "10.1/b", "title": "T\\ud800"}\n', encoding="utf-8")
        assert run_cli("--corpus", corpus, "stats") == 1
        assert f"{corpus}, line 2" in capsys.readouterr().err

    def test_specialize_reply_is_quarantined(self, tmp_path, corpus_path, capsys, caplog, monkeypatch):
        send = MockProvider.send
        replies = []

        def first_reply_escapes_a_surrogate(self, system, user, deterministic=True):
            replies.append(user)
            return '{"species": [{"field": "name\\ud800"}]}' if len(replies) == 1 else send(self, system, user)

        monkeypatch.setattr(MockProvider, "send", first_reply_escapes_a_surrogate)
        candidates = tmp_path / "candidates.jsonl"
        assert run_cli("--corpus", corpus_path, "--seed", 6, "specialize", "--out", candidates) == 0
        assert last_line(capsys) == "sampled=10 candidates=8 quarantined=2"
        named = r"quarantined (\S+): candidate schema document for \1 holds text UTF-8 cannot encode"
        assert any(re.match(named, record.getMessage()) for record in caplog.records)
        assert len(candidates.read_text(encoding="utf-8").splitlines()) == 8
        assert not list(tmp_path.glob("*.tmp"))

    def test_results_entry_is_named_and_nothing_written(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        line = {"doi": "10.1/a", "status": "extracted", "species": [{"name": "A\ud800", "role": "invasive"}]}
        results.write_text(json.dumps(line) + "\n", encoding="utf-8")
        reports = tmp_path / "reports"
        assert run_cli("analyze", "--results", results, "--out", reports) == 1
        assert f"{results}, line 1" in capsys.readouterr().err
        assert not reports.exists()


def mistyped_input(command, tmp_path, corpus_path):
    """argv for `command` with one mistyped input, and the file or DOI its error must name."""
    schema = tmp_path / "schema.json"
    schema.write_text(schema_to_json(standard_schema()) + "\n", encoding="utf-8")
    results = tmp_path / "results.jsonl"
    results.write_text('{"doi": "10.1/a"}\n{"doi": "10.1/b", "species": "Acacia"}\n', encoding="utf-8")
    if command == "stats":
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doi": "10.1/a", "abstract": ["a b"]}\n', encoding="utf-8")
        return ["--corpus", corpus, "stats"], corpus
    if command == "generalize":
        candidates = tmp_path / "candidates.jsonl"
        lines = [{"doi": 5, "blocks": {"odd": ["x"]}}, {"doi": "10.1/b", "blocks": {"odd": ["x"]}}]
        candidates.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        return ["generalize", "--candidates", candidates, "--out-dir", tmp_path / "s"], f"{candidates}, line 1"
    if command == "extract":
        checkpoint = tmp_path / "ckpt.json"
        doc = {"schema_fingerprint": schema_fingerprint(standard_schema()), "results_lines": "0"}
        checkpoint.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        argv = ["--corpus", corpus_path, "extract", "--schema", schema, "--results", results]
        return [*argv, "--checkpoint", checkpoint], checkpoint
    if command == "analyze":
        return ["analyze", "--results", results, "--out", tmp_path / "reports"], f"{results}, line 2"
    if command == "validate":
        return ["validate", "--results", results, "--schema", schema], f"{results}, line 2"
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / fixture_filename("10.9/one")).write_text('{"abstract": "a b"}', encoding="utf-8")
    (fixtures / fixture_filename("10.9/two")).write_text('{"abstract": ["a b"]}', encoding="utf-8")
    (tmp_path / "dois.txt").write_text("10.9/one\n10.9/none\n10.9/two\n", encoding="utf-8")
    argv = ["--corpus", tmp_path / "harvested.jsonl", "ingest", "--dois", tmp_path / "dois.txt"]
    return [*argv, "--fixtures", fixtures], "10.9/two"


class TestMistypedInput:
    """A mistyped value in any input ends in exit 1 and one error line
    naming the file (and line) or the DOI, never in a traceback."""

    @pytest.mark.parametrize("command", ["stats", "generalize", "extract", "analyze", "validate", "ingest"])
    def test_exit_1_names_the_input(self, tmp_path, corpus_path, capsys, command):
        argv, named = mistyped_input(command, tmp_path, corpus_path)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any(line.startswith("error: ") and str(named) in line for line in err.splitlines())
        if command == "ingest":
            corpus = tmp_path / "harvested.jsonl"
            assert [json.loads(line)["doi"] for line in corpus.read_text().splitlines()] == ["10.9/one"]
            assert corpus.with_suffix(".skipped.log").read_text() == "missing\t10.9/none\n"


class TestResultsLineBreakingTheResultRule:
    """A results line an older version wrote (an unknown status, or an
    out-of-scope line that lists entities) is refused when it is read:
    analyze counted its species, and validate reported it as violations."""

    LINES = {
        "maybe": {"doi": "10.1/b", "status": "maybe", "species": [{"name": "Carpobrotus edulis"}]},
        "out-of-scope-listing-a-species": {
            "doi": "10.1/b", "status": "out_of_scope", "species": [{"name": "Carpobrotus edulis", "role": "invasive"}]
        },
    }

    @pytest.mark.parametrize("line", LINES)
    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_exit_1_names_file_and_line_and_writes_no_report(self, tmp_path, capsys, command, line):
        results = tmp_path / "results.jsonl"
        extracted = {"doi": "10.1/a", "status": "extracted", "species": [{"name": "Acacia", "role": "invasive"}]}
        results.write_text(json.dumps(extracted) + "\n" + json.dumps(self.LINES[line]) + "\n", encoding="utf-8")
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(standard_schema()) + "\n", encoding="utf-8")
        reports = tmp_path / "reports"
        if command == "analyze":
            argv = ["analyze", "--results", results, "--out", reports]
        else:
            argv = ["validate", "--results", results, "--schema", schema]
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert any(line.startswith(f"error: results file {results}, line 2: ") for line in err.splitlines())
        assert out == "" and not reports.exists()


class TestUndecodableInput:
    """A byte UTF-8 cannot decode in any input file ends in exit 1 and one
    error line naming the file and the line, never in a traceback."""

    @pytest.mark.parametrize(
        "command", ["stats", "analyze", "validate", "generalize", "extract", "config", "ingest", "specialize", "schema"]
    )
    def test_exit_1_names_file_and_line(self, tmp_path, corpus_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(
            b'{"doi": "10.1/a", "status": "extracted", "blocks": {}}\n{"doi": "10.1/b\xff", "status": "extracted"}\n'
        )
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(standard_schema()) + "\n", encoding="utf-8")
        argv = {
            "stats": ["--corpus", bad, "stats"],
            "analyze": ["analyze", "--results", bad, "--out", tmp_path / "reports"],
            "validate": ["validate", "--results", bad, "--schema", schema],
            "generalize": ["generalize", "--candidates", bad, "--out-dir", tmp_path / "schemas"],
            "extract": ["--corpus", corpus_path, "extract", "--schema", schema, "--results", bad],
            "config": ["--config", bad, "stats"],
            "ingest": ["--corpus", tmp_path / "harvested.jsonl", "ingest", "--dois", bad, "--fixtures", tmp_path],
            "specialize": ["--corpus", corpus_path, "specialize", "--exclude", bad, "--out", tmp_path / "c.jsonl"],
            "schema": ["validate", "--results", corpus_path, "--schema", bad],
        }[command]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        named = rf"^error: .*{re.escape(str(bad))}, line 2: UnicodeDecodeError: .* in position 15"
        assert re.search(named, err, re.MULTILINE), err


class TestMissingInput:
    """A missing input file ends in exit 1 and one error line naming it,
    and nothing is written. Read as no results, a missing results file had
    analyze write empty reports and validate pass."""

    @pytest.mark.parametrize(
        "command", ["analyze", "validate", "generalize", "specialize", "extract", "ingest", "config", "schema"]
    )
    def test_exit_1_names_the_file(self, tmp_path, corpus_path, capsys, command):
        missing = tmp_path / "typo.jsonl"
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(standard_schema()) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "analyze": ["analyze", "--results", missing, "--out", out],
            "validate": ["validate", "--results", missing, "--schema", schema],
            "generalize": ["generalize", "--candidates", missing, "--out-dir", out],
            "specialize": ["--corpus", corpus_path, "specialize", "--exclude", missing, "--out", out],
            "extract": ["--corpus", missing, "extract", "--schema", schema, "--results", out],
            "ingest": ["--corpus", out, "ingest", "--dois", missing, "--fixtures", tmp_path],
            "config": ["--config", missing, "stats"],
            "schema": ["validate", "--results", corpus_path, "--schema", missing],
        }[command]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert re.search(rf"^error: .*{re.escape(str(missing))} not found$", captured.err, re.MULTILINE), captured.err
        assert captured.out == ""
        assert not out.exists()


class TestIngest:
    def test_fixture_ingest_writes_corpus_and_skip_log(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "10.9_one.json").write_text(json.dumps({"title": "One", "abstract": "a b"}))
        dois = tmp_path / "dois.txt"
        dois.write_text("10.9/one\n10.9/two\njunk\n")
        corpus = tmp_path / "harvested.jsonl"

        code = run_cli("--corpus", corpus, "ingest", "--dois", dois, "--fixtures", fixtures)
        assert code == 0
        assert last_line(capsys) == "queried=3 found=1 abstract_only=1 with_full_text=0 malformed=1"
        assert corpus.exists()
        skip_log = corpus.with_suffix(".skipped.log")
        assert "missing\t10.9/two" in skip_log.read_text()
        assert "malformed\tjunk" in skip_log.read_text()

    def test_corpus_directory_is_made(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "10.9_one.json").write_text(json.dumps({"title": "One", "abstract": "a b"}))
        (tmp_path / "dois.txt").write_text("10.9/one\n")
        corpus = tmp_path / "new" / "corpus.jsonl"
        assert run_cli("--corpus", corpus, "ingest", "--dois", tmp_path / "dois.txt", "--fixtures", fixtures) == 0
        assert [json.loads(line)["doi"] for line in corpus.read_text().splitlines()] == ["10.9/one"]

    def test_corpus_ends_as_one_doi_sorted_line_per_record(self, tmp_path):
        # records are appended as they commit; a held record without text is fetched and appended again
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        for doi in ("10.9/c", "10.9/held", "10.9/a"):
            (fixtures / fixture_filename(doi)).write_text(json.dumps({"title": doi, "abstract": "a b"}))
        (tmp_path / "dois.txt").write_text("10.9/c\n10.9/held\n10.9/a\n")
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"doi": "10.9/held", "title": "Held"}) + "\n", encoding="utf-8")
        assert run_cli("--corpus", corpus, "ingest", "--dois", tmp_path / "dois.txt", "--fixtures", fixtures) == 0
        lines = [json.loads(line) for line in corpus.read_text().splitlines()]
        expected = ["10.9/a", "10.9/c", "10.9/held"]
        assert [(line["doi"], line["title"]) for line in lines] == [(doi, doi) for doi in expected]

    def test_last_record_without_final_newline_is_kept(self, tmp_path, capsys, caplog):
        # read as a torn line, the held record was cut from the corpus and only the new one was left
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "10.9_one.json").write_text(json.dumps({"title": "One", "abstract": "a b"}))
        (tmp_path / "dois.txt").write_text("10.9/one\n")
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"doi": "10.9/held", "title": "Held", "abstract": "c d"}), encoding="utf-8")

        assert run_cli("--corpus", corpus, "ingest", "--dois", tmp_path / "dois.txt", "--fixtures", fixtures) == 0
        assert last_line(capsys) == "queried=1 found=1 abstract_only=1 with_full_text=0 malformed=0"
        assert [json.loads(line)["doi"] for line in corpus.read_text().splitlines()] == ["10.9/held", "10.9/one"]
        assert "torn" not in caplog.text

    @pytest.mark.parametrize("tail", [b'{"doi": "10.9/held", "tit', '{"doi": "10.9/held", "title": "\xc4'.encode()[:-1]])
    def test_torn_last_record_is_cut(self, tmp_path, capsys, caplog, tail):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (tmp_path / "dois.txt").write_text("10.9/one\n")
        corpus = tmp_path / "c.jsonl"
        kept = json.dumps({"doi": "10.9/kept", "title": "Kept", "abstract": "c d"}) + "\n"
        corpus.write_bytes(kept.encode() + tail)  # cut inside a word, or inside a character

        assert run_cli("--corpus", corpus, "ingest", "--dois", tmp_path / "dois.txt", "--fixtures", fixtures) == 0
        assert [json.loads(line)["doi"] for line in corpus.read_text().splitlines()] == ["10.9/kept"]
        assert f"{corpus}: dropping torn last line at byte offset {len(kept)}" in caplog.text

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-lines"])
    def test_doi_file_without_a_doi_is_refused_before_anything_is_written(self, tmp_path, capsys, text):
        # ingest_dois refused the empty list only after the corpus directory and an empty corpus were made
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        dois = tmp_path / "empty.txt"
        dois.write_text(text)
        corpus = tmp_path / "out" / "corpus.jsonl"
        assert run_cli("--corpus", corpus, "ingest", "--dois", dois, "--fixtures", fixtures) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: DOI file {dois} holds no DOI"
        ]
        assert not (tmp_path / "out").exists()

    def test_fixture_holding_an_array_is_named_and_the_rest_commit(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "10.9_one.json").write_text(json.dumps({"title": "One", "abstract": "a b"}))
        (fixtures / "10.9_two.json").write_text('[{"title": "Two", "abstract": "c d"}]')
        (tmp_path / "dois.txt").write_text("10.9/one\n10.9/two\n")
        corpus = tmp_path / "c.jsonl"
        assert run_cli("--corpus", corpus, "ingest", "--dois", tmp_path / "dois.txt", "--fixtures", fixtures) == 1
        assert f"fixture {fixtures / '10.9_two.json'} is not a JSON object" in capsys.readouterr().err
        assert [json.loads(line)["doi"] for line in corpus.read_text().splitlines()] == ["10.9/one"]

    def test_requires_a_source(self, tmp_path):
        dois = tmp_path / "dois.txt"
        dois.write_text("10.9/one\n")
        assert run_cli("--corpus", tmp_path / "c.jsonl", "ingest", "--dois", dois) == 1

    def test_hard_failure_writes_what_committed(self, tmp_path, stub_server, monkeypatch, capsys):
        base_url, state = stub_server
        dois = ["10.9/a", "10.9/b", "10.9/c", "10.9/fail"]
        for doi in dois[:3]:
            state.documents[doi] = {"title": doi, "abstract": "a b"}
        state.hard_fail_dois = {"10.9/fail"}
        state.delay = 0.05  # the failure answers while the three fetches are still in flight
        (tmp_path / "dois.txt").write_text("\n".join(dois) + "\n")
        monkeypatch.setenv("ECOMINE_MAX_RETRIES", "1")  # the least budget; one quick retry, then the failure
        monkeypatch.setenv("ECOMINE_BACKOFF_BASE", "0.001")
        corpus = tmp_path / "harvested.jsonl"

        code = run_cli(
            "--corpus", corpus, "--parallelism", 4,
            "ingest", "--dois", tmp_path / "dois.txt", "--base-url", base_url,
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out.strip().splitlines()[-1] == "queried=4 found=3 abstract_only=3 with_full_text=0 malformed=0"
        assert "ingest aborted at 10.9/fail" in err
        assert [json.loads(line)["doi"] for line in corpus.read_text().splitlines()] == dois[:3]
        assert corpus.with_suffix(".skipped.log").read_text() == ""

    @pytest.mark.parametrize(
        "flags, env, message",
        [
            (["--parallelism", "0"], {}, "parallelism from flag --parallelism: must be at least 1"),
            (["--parallelism", "-3"], {}, "parallelism from flag --parallelism: must be at least 1"),
            (
                [],
                {"ECOMINE_MAX_RETRIES": "0"},
                "max_retries from environment variable ECOMINE_MAX_RETRIES: must be at least 1",
            ),
            (
                [],
                {"ECOMINE_MAX_RETRIES": "-2"},
                "max_retries from environment variable ECOMINE_MAX_RETRIES: must be at least 1",
            ),
            (
                [],
                {"ECOMINE_BACKOFF_BASE": "nan"},
                "backoff_base from environment variable ECOMINE_BACKOFF_BASE: must be finite and positive, got nan",
            ),
            (
                [],
                {"ECOMINE_RATE_WINDOW": "inf"},
                "rate_window from environment variable ECOMINE_RATE_WINDOW: must be finite and positive, got inf",
            ),
        ],
        ids=[
            "parallelism-0",
            "parallelism-minus-3",
            "max-retries-0",
            "max-retries-minus-2",
            "backoff-base-nan",
            "rate-window-inf",
        ],
    )
    def test_refuses_what_extract_refuses_before_any_fetch(
        self, tmp_path, corpus_path, monkeypatch, capsys, flags, env, message
    ):
        # ingest ran on one thread at parallelism 0 or below, made one attempt at max_retries 0 or below,
        # and built no policy to refuse a non-finite backoff_base or rate_window
        def refuse(*_):
            raise AssertionError("fetch or provider call made")

        monkeypatch.setattr(FixtureHarvestClient, "fetch", refuse)
        monkeypatch.setattr(HttpHarvestClient, "fetch", refuse)
        monkeypatch.setattr(MockProvider, "send", refuse)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "10.9_one.json").write_text(json.dumps({"title": "One", "abstract": "a b"}))
        dois = tmp_path / "dois.txt"
        dois.write_text("10.9/one\n")
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(standard_schema()), encoding="utf-8")
        corpus = tmp_path / "harvested.jsonl"
        source = ["--fixtures", fixtures] if flags else ["--base-url", "http://127.0.0.1:9"]
        errors = []
        for argv in (
            ["--corpus", corpus, *flags, "ingest", "--dois", dois, *source],
            ["--corpus", corpus_path, *flags, "extract", "--schema", schema, "--results", tmp_path / "r.jsonl"],
        ):
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err
            errors.append([line for line in err.splitlines() if line.startswith("error:")])
        assert errors[0] == errors[1] == [f"error: {message}"]
        assert not corpus.exists() and not corpus.with_suffix(".skipped.log").exists()


class TestWorkflow:
    def run_through_extract(self, tmp_path, corpus_path, capsys):
        candidates = tmp_path / "candidates.jsonl"
        schemas = tmp_path / "schemas"
        results = tmp_path / "results.jsonl"

        assert run_cli("--corpus", corpus_path, "--seed", 6, "specialize", "--out", candidates) == 0
        assert last_line(capsys) == "sampled=10 candidates=9 quarantined=1"

        assert run_cli("generalize", "--candidates", candidates, "--out-dir", schemas) == 0
        assert last_line(capsys) == "variants=4 chosen=0"
        assert (schemas / "variant_0.json").exists()
        assert (schemas / "chosen.json").exists()
        assert (schemas / "merge_report.json").exists()

        code = run_cli(
            "--corpus", corpus_path, "extract",
            "--schema", schemas / "chosen.json",
            "--results", results,
            "--checkpoint", tmp_path / "ckpt.json",
        )
        assert code == 0
        assert last_line(capsys) == "extracted=17 out_of_scope=3 quarantined=0"
        return schemas, results

    def test_full_workflow(self, tmp_path, corpus_path, capsys):
        schemas, results = self.run_through_extract(tmp_path, corpus_path, capsys)

        reports = tmp_path / "reports"
        assert run_cli("analyze", "--results", results, "--out", reports) == 0
        assert "out=" in last_line(capsys)
        assert (reports / "species_roles.csv").exists()
        assert (reports / "habitat_linkages.csv").exists()

        assert run_cli("validate", "--results", results, "--schema", schemas / "chosen.json") == 0
        assert last_line(capsys) == "results=20 violations=0"

    def test_markdown_report(self, tmp_path, corpus_path, capsys):
        schemas, results = self.run_through_extract(tmp_path, corpus_path, capsys)
        report = tmp_path / "report.md"
        assert run_cli("analyze", "--results", results, "--out", report, "--format", "markdown") == 0
        assert report.read_text(encoding="utf-8").startswith("## species roles")

    def test_markdown_report_to_a_directory_path_goes_to_report_md_inside_it(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_text('{"doi": "10.1/a", "status": "out_of_scope"}\n', encoding="utf-8")
        reports = tmp_path / "reports"
        assert run_cli("analyze", "--results", results, "--out", reports, "--format", "markdown") == 0
        assert last_line(capsys).endswith(f"out={reports / 'report.md'}")
        assert (reports / "report.md").read_text(encoding="utf-8").startswith("## species roles")

    def test_filter_generic_and_top(self, tmp_path, corpus_path, capsys):
        _, results = self.run_through_extract(tmp_path, corpus_path, capsys)
        generic = [{"name": "Native species", "role": "native"}, {"name": "invasive  species", "role": "invasive"}]
        with results.open("a", encoding="utf-8") as handle:  # generic names that would top both tables
            for serial in range(20):
                handle.write(json.dumps({"doi": f"10.9/g{serial}", "status": "extracted", "species": generic}) + "\n")
        reports = tmp_path / "reports"
        assert run_cli("analyze", "--results", results, "--out", reports, "--filter-generic", "--top", 2) == 0
        loaded = load_results(results)
        stop = analytics.GENERIC_SPECIES_TERMS
        tables = [analytics.role_inventory(loaded, stop)]
        tables += [analytics.top_species(loaded, role, 2, stop) for role in ("invasive", "native", "introduced")]
        tables += [analytics.location_frequencies(loaded, level) for level in ("country", "region", "city")]
        ecosystems = analytics.ecosystem_frequencies(loaded)
        tables += [ecosystems.names, ecosystems.types]
        for table in tables:
            with (reports / f"{analytics._slug(table.label)}.csv").open(encoding="utf-8", newline="") as handle:
                assert list(csv.reader(handle)) == [["name", "count"]] + [[r.display, str(r.count)] for r in table.rows]
        assert analytics.top_species(loaded, "native", 2).rows[0].display == "Native species"
        assert "Native species" not in {row.display for table in tables for row in table.rows}
        assert [len(table.rows) for table in tables[1:4]] == [2, 2, 2]
        assert len(sorted(reports.glob("*.csv"))) == len(tables) + 1

    def test_top_species_tables_keep_ten_rows_by_default(self, tmp_path):
        results = tmp_path / "results.jsonl"
        species = [[{"name": f"Species {n:02}", "role": "invasive"}] for n in range(11)]
        lines = (json.dumps({"doi": f"10.9/{n:02}", "species": entries}) for n, entries in enumerate(species))
        results.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert run_cli("analyze", "--results", results, "--out", tmp_path / "reports") == 0
        with (tmp_path / "reports" / "top_species_invasive.csv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1:] == [[f"Species {n:02}", "1"] for n in range(10)]

    def test_validate_reports_violation_with_doi(self, tmp_path, corpus_path, capsys):
        schemas, results = self.run_through_extract(tmp_path, corpus_path, capsys)
        broken = {
            "doi": "10.5555/broken",
            "status": "extracted",
            "species": [{"name": "X", "taxonomy_level": "order"}],
        }
        with results.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(broken) + "\n")
        code = run_cli("validate", "--results", results, "--schema", schemas / "chosen.json")
        assert code == 1
        out = capsys.readouterr().out
        assert "10.5555/broken" in out
        assert "violations=1" in out


class TestValidateWarnings:
    """Warnings are counted by code: the first WARNING_EXAMPLES of each code
    and one count line per code, or every warning under -v. Stdout and the
    exit code do not depend on -v."""

    @pytest.fixture
    def inputs(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(standard_schema()) + "\n", encoding="utf-8")
        results = tmp_path / "results.jsonl"
        lines = [
            {"doi": f"10.1/r{index}", "status": "extracted", "species": [{"name": "A a", "role": f"role{index}"}]}
            for index in range(5)
        ]
        lines.append({"doi": "10.1/h", "status": "extracted", "habitats": [{"name": "Reef", "subcomponent_of": "Sea"}]})
        results.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        return results, schema

    def warning_lines(self, caplog):
        return [r.getMessage() for r in caplog.records if r.name == "ecomine.cli" and r.levelname == "WARNING"]

    def test_summary_by_default(self, inputs, caplog, capsys):
        results, schema = inputs
        assert run_cli("validate", "--results", results, "--schema", schema) == 0
        assert capsys.readouterr().out == "results=6 violations=0\n"
        assert self.warning_lines(caplog) == [
            "10.1/h: habitats[0].subcomponent_of: habitat names ecosystem 'Sea' not present in result",
            "10.1/r0: species[0].role: role 'role0' outside core set",
            "10.1/r1: species[0].role: role 'role1' outside core set",
            "10.1/r2: species[0].role: role 'role2' outside core set",
            "dangling_habitat_link: 1 warning(s), 1 shown",
            "noncore_role: 5 warning(s), 3 shown (-v shows all)",
        ]

    def test_verbose_keeps_every_line(self, inputs, caplog, capsys):
        results, schema = inputs
        assert run_cli("-v", "validate", "--results", results, "--schema", schema) == 0
        assert capsys.readouterr().out == "results=6 violations=0\n"
        lines = self.warning_lines(caplog)
        assert [line for line in lines if "outside core set" in line] == [
            f"10.1/r{index}: species[0].role: role 'role{index}' outside core set" for index in range(5)
        ]
        assert lines[-1] == "noncore_role: 5 warning(s), 5 shown"


class TestConfigPrecedence:
    def test_flag_beats_env(self, corpus_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ECOMINE_SEED", "999")
        out_flag = tmp_path / "flag.jsonl"
        assert run_cli("--corpus", corpus_path, "--seed", 6, "specialize", "--out", out_flag) == 0
        assert last_line(capsys) == "sampled=10 candidates=9 quarantined=1"

    def test_env_beats_file(self, corpus_path, tmp_path, monkeypatch, capsys):
        config = tmp_path / "ecomine.conf"
        config.write_text("seed = 999\nsample_size = 12\n")
        monkeypatch.setenv("ECOMINE_SEED", "6")
        out = tmp_path / "env.jsonl"
        assert run_cli("--corpus", corpus_path, "--config", config, "specialize", "--out", out) == 0
        assert last_line(capsys).startswith("sampled=12")

    def test_config_file_used(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "ecomine.conf"
        config.write_text(f"corpus = {corpus_path}\nseed = 6  # demo seed\n")
        out = tmp_path / "file.jsonl"
        assert run_cli("--config", config, "specialize", "--out", out) == 0
        assert last_line(capsys) == "sampled=10 candidates=9 quarantined=1"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("not_a_key = 1\n")
        assert run_cli("--config", config, "stats") == 1
        assert f"config file {config}, line 1: unknown config key 'not_a_key'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "env, conf, named",
        [
            ({"ECOMINE_PARALLELISM": "abc"}, None, "parallelism from environment variable ECOMINE_PARALLELISM"),
            ({}, "seed = 6\nno equals sign\n", "config file {conf}, line 2: expected key = value"),
            ({}, "# demo\n\nrate_window = soon\n", "rate_window from config file {conf}, line 3"),
        ],
        ids=["env", "no-equals", "file-value"],
    )
    def test_bad_value_names_its_source(self, tmp_path, monkeypatch, capsys, env, conf, named):
        argv = ["--corpus", tmp_path / "none.jsonl"]
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        path = tmp_path / "bad.conf"
        if conf is not None:
            path.write_text(conf)
            argv += ["--config", path]
        assert run_cli(*argv, "stats") == 1
        assert named.format(conf=path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, command, rule, sources",
        [
            ("variants", "0", "generalize", "must be at least 1", ("flag", "env", "file")),
            ("sample_size", "1", "ingest", "must be at least 2", ("env", "file")),
            ("parallelism", "0", "stats", "must be at least 1", ("env", "file")),
            ("rate_window", "nan", "specialize", "must be finite and positive, got nan", ("env", "file")),
            ("max_retries", "0", "extract", "must be at least 1", ("env", "file")),
            ("rate_requests", "0", "specialize", "must be at least 1", ("env", "file")),
            ("timeout", "-1", "ingest", "must be finite and positive, got -1.0", ("env", "file")),
            ("top", "0", "analyze", "must be at least 1", ("flag", "env", "file")),
        ],
        ids=["StageConfig", "StageConfig-unused", "StageConfig-stats", "RateLimitPolicy", "RateLimitPolicy-int",
             "RateLimitPolicy-cap", "timeout", "top_species"],
    )
    def test_out_of_range_value_names_its_key_and_source_before_any_input_is_read(
        self, tmp_path, monkeypatch, capsys, key, value, command, rule, sources
    ):
        # only a value that did not convert was named; one out of range failed where its stage built its
        # rule's owner, after the inputs were read, or never, in a command that does not use it
        missing = tmp_path / "missing.jsonl"
        argv = {
            "generalize": ["generalize", "--candidates", missing, "--out-dir", tmp_path / "s"],
            "ingest": ["--corpus", missing, "ingest", "--dois", missing, "--base-url", "http://127.0.0.1:9"],
            "stats": ["--corpus", missing, "stats"],
            "specialize": ["--corpus", missing, "specialize", "--out", tmp_path / "c.jsonl"],
            "extract": ["--corpus", missing, "extract", "--schema", missing, "--results", tmp_path / "r.jsonl"],
            "analyze": ["analyze", "--results", missing, "--out", tmp_path / "reports"],
        }[command]
        conf = tmp_path / "settings.conf"
        conf.write_text(f"# one setting\n{key} = {value}\n")
        for source, extra, named in (
            ("flag", [f"--{key.replace('_', '-')}", value], f"flag --{key.replace('_', '-')}"),
            ("env", [], f"environment variable ECOMINE_{key.upper()}"),
            ("file", [], f"config file {conf}, line 2"),
        ):
            if source not in sources:
                continue
            with monkeypatch.context() as patch:
                if source == "env":
                    patch.setenv(f"ECOMINE_{key.upper()}", value)
                head = ["--config", conf] if source == "file" else []
                assert run_cli(*head, *argv, *extra) == 1, source
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"error: {key} from {named}: {rule}"], source
            assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == [conf.name]

    @pytest.mark.parametrize(
        "var, value", [("ECOMINE_RATE_WINDOW", "nan"), ("ECOMINE_RATE_WINDOW", "inf"), ("ECOMINE_BACKOFF_BASE", "nan")]
    )
    def test_non_finite_rate_setting_refused_before_any_call(
        self, corpus_path, tmp_path, monkeypatch, capsys, var, value
    ):
        # a NaN window hung the third call under a two-call cap; an infinite one overflowed the limiter's wait
        def send(*_):
            raise AssertionError("provider called")

        monkeypatch.setattr(MockProvider, "send", send)
        monkeypatch.setenv(var, value)
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(standard_schema()), encoding="utf-8")
        code = run_cli(
            "--corpus", corpus_path, "extract", "--schema", schema, "--results", tmp_path / "r.jsonl"
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "must be finite and positive" in err and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, key, value",
        [(command, "timeout", value) for command in ("ingest", "extract") for value in ("inf", "nan", "-1", "0")]
        + [("ingest", "backoff_base", "inf"), ("ingest", "backoff_base", "nan")],
    )
    def test_http_client_setting_must_be_finite_and_positive(
        self, corpus_path, tmp_path, monkeypatch, capsys, command, key, value
    ):
        # an infinite timeout, or an infinite backoff on ingest's first retry, ended in an OverflowError traceback;
        # nan and -1 failed at the first request or retry, with a message that named no key
        monkeypatch.setenv(f"ECOMINE_{key.upper()}", value)
        monkeypatch.setenv("ECOMINE_API_KEY", "k")
        dois = tmp_path / "dois.txt"
        dois.write_text("10.9/one\n")
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(standard_schema()), encoding="utf-8")
        argv = {
            "ingest": ["--corpus", tmp_path / "c.jsonl", "ingest", "--dois", dois, "--base-url", "http://127.0.0.1:9"],
            "extract": ["--corpus", corpus_path, "--provider", "endpoint", "--endpoint", "http://127.0.0.1:9/v1",
                        "extract", "--schema", schema, "--results", tmp_path / "r.jsonl"],
        }[command]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {key} from environment variable ECOMINE_{key.upper()}: "
            f"must be finite and positive, got {float(value)}"
        ]

    @pytest.mark.parametrize("command, key", [("ingest", "base_url"), ("extract", "endpoint")])
    def test_url_that_cannot_open_is_refused_before_any_request(
        self, corpus_path, tmp_path, monkeypatch, capsys, command, key
    ):
        # urllib read 127.0.0.1:9 as scheme "127.0.0.1", and each attempt failed alike after a backoff
        monkeypatch.setenv(f"ECOMINE_{key.upper()}", "127.0.0.1:9")
        monkeypatch.setenv("ECOMINE_API_KEY", "k")
        dois = tmp_path / "dois.txt"
        dois.write_text("10.9/one\n")
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(standard_schema()), encoding="utf-8")
        argv = {
            "ingest": ["--corpus", tmp_path / "c.jsonl", "ingest", "--dois", dois],
            "extract": ["--corpus", corpus_path, "--provider", "endpoint",
                        "extract", "--schema", schema, "--results", tmp_path / "r.jsonl"],
        }[command]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "retrying" not in err and "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {key} must be an http(s) URL with a host and a valid port, got '127.0.0.1:9'"
        ]
        assert not (tmp_path / "c.jsonl").exists() and not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize(
        "env, message",
        [
            ({"ECOMINE_PROVIDER": "foo"}, "provider must be mock or endpoint, got 'foo'"),
            ({"ECOMINE_PROVIDER": "endpoint", "ECOMINE_API_KEY": "k"}, "provider=endpoint requires an endpoint URL"),
        ],
        ids=["unknown-provider", "endpoint-without-url"],
    )
    def test_provider_setting_is_refused(self, tmp_path, monkeypatch, capsys, env, message):
        # --provider's choices hold back neither: ECOMINE_PROVIDER bypasses them, and the endpoint has no default
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert run_cli("--corpus", tmp_path / "none.jsonl", "stats") == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]

    def test_api_key_a_header_cannot_carry_is_refused_unshown(
        self, corpus_path, tmp_path, stub_server, monkeypatch, capsys
    ):
        # http.client refused the header, and the error line printed the key
        base_url, state = stub_server
        monkeypatch.setenv("ECOMINE_API_KEY", "topsecret\nX")
        out = tmp_path / "c.jsonl"
        endpoint = ["--provider", "endpoint", "--endpoint", f"{base_url}/v1"]
        assert run_cli("--corpus", corpus_path, *endpoint, "specialize", "--out", out) == 1
        err = capsys.readouterr().err
        assert "topsecret" not in err and "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: api_key must be printable ASCII without spaces; the key is not shown"
        ]
        assert state.requests == 0 and not out.exists()

    @pytest.mark.parametrize("command", ["specialize", "generalize", "extract"])
    def test_api_key_is_refused_before_a_missing_input_is_read(self, tmp_path, monkeypatch, capsys, command):
        # the input was read before the provider was built, so its absence hid the key's refusal
        monkeypatch.setenv("ECOMINE_API_KEY", "k\nX")
        missing = tmp_path / "missing.jsonl"
        argv = {
            "specialize": ["--corpus", missing, "specialize", "--out", tmp_path / "c.jsonl"],
            "generalize": ["generalize", "--candidates", missing, "--out-dir", tmp_path / "s"],
            "extract": ["--corpus", missing, "extract", "--schema", missing, "--results", tmp_path / "r.jsonl"],
        }[command]
        assert run_cli("--provider", "endpoint", "--endpoint", "http://127.0.0.1:9/v1", *argv) == 1
        err = capsys.readouterr().err
        assert "error: api_key must be printable ASCII without spaces; the key is not shown" in err
        assert "not found" not in err
        assert sorted(path.name for path in tmp_path.iterdir()) == []

    def test_endpoint_provider_requires_credential(self, corpus_path, monkeypatch, capsys):
        monkeypatch.delenv("ECOMINE_API_KEY", raising=False)
        code = run_cli(
            "--corpus", corpus_path, "--provider", "endpoint",
            "--endpoint", "http://example.invalid/v1", "stats",
        )
        assert code == 1
        assert "credential" in capsys.readouterr().err

    def test_endpoint_flags_reach_the_request(self, corpus_path, tmp_path, stub_server, monkeypatch, capsys):
        base_url, state = stub_server
        state.reply = '{"species": {"name": "text"}}'
        monkeypatch.setenv("MY_KEY", "secret")
        code = run_cli(
            "--corpus", corpus_path, "--provider", "endpoint", "--endpoint", base_url + "/v1/chat",
            "--model", "m-1", "--api-key-var", "MY_KEY",
            "specialize", "--sample-size", 2, "--out", tmp_path / "candidates.jsonl",
        )
        assert code == 0
        assert last_line(capsys) == "sampled=2 candidates=2 quarantined=0"
        sent = [(headers["Authorization"], body["model"]) for headers, body in state.posts]
        assert sent == [("Bearer secret", "m-1")] * 2


class TestDefaults:
    def test_cli_defaults_are_the_libraries(self):
        config = cli.CliConfig()
        assert config.stage_config() == StageConfig()
        assert config.rate_policy() == RateLimitPolicy()

    def test_cli_chat_and_harvest_share_one_timeout(self):
        defaults = {
            owner.__name__: inspect.signature(owner).parameters["timeout"].default
            for owner in (HttpChatProvider, HttpHarvestClient)
        }
        assert defaults == {"HttpChatProvider": cli.CliConfig().timeout, "HttpHarvestClient": cli.CliConfig().timeout}

    def test_mock_extract_is_not_paced_by_the_rate_cap(self, corpus_path, tmp_path, monkeypatch, capsys):
        # at one request per 60 s window the mock's 20 calls took about 19 minutes
        grants = []
        monkeypatch.setattr(SlidingWindowRateLimiter, "acquire", lambda limiter: grants.append(limiter))
        monkeypatch.setenv("ECOMINE_RATE_REQUESTS", "1")
        schema = tmp_path / "schema.json"
        schema.write_text(schema_to_json(standard_schema()), encoding="utf-8")
        code = run_cli("--corpus", corpus_path, "extract", "--schema", schema, "--results", tmp_path / "r.jsonl")
        assert code == 0
        assert last_line(capsys).startswith("extracted=")
        assert grants == []

    def test_endpoint_is_paced_by_the_rate_cap(self, monkeypatch):
        grants = []
        monkeypatch.setattr(SlidingWindowRateLimiter, "acquire", lambda limiter: grants.append(limiter))
        monkeypatch.setattr(HttpChatProvider, "send", lambda *_, **__: "{}")
        monkeypatch.setenv("ECOMINE_API_KEY", "k")
        config = cli.CliConfig(provider="endpoint", endpoint="http://127.0.0.1:9/v1")
        assert cli.make_gateway(config).complete(PromptPair(" ".join(SYSTEM_SECTIONS), "text")) == "{}"
        assert len(grants) == 1


def launch(*args, cwd) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports ecomine from this checkout."""
    src = str(Path(ecomine.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def run_python(source, *args, cwd):
    """Run source in a fresh interpreter; its last line of output."""
    done = launch("-c", source, *args, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


class TestProgressLog:
    def test_progress_goes_to_stderr_as_level_name_message(self, tmp_path):
        # in-process runs cannot show it: pytest's own log handlers make logging.basicConfig a no-op
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (tmp_path / "dois.txt").write_text("junk\n10.9/one\n")
        done = launch("-m", "ecomine", "ingest", "--dois", "dois.txt", "--fixtures", "fixtures", cwd=tmp_path)
        assert done.returncode == 0
        assert done.stdout == "queried=2 found=0 abstract_only=0 with_full_text=0 malformed=1\n"
        assert done.stderr.splitlines() == [
            "WARNING ecomine.harvest: skipping malformed DOI 'junk'",
            f"INFO ecomine.cli: skip log written to {Path('corpus.skipped.log')}",
        ]


#: The modules imported since `before` that are neither the standard library's nor ecomine's.
FOREIGN = (
    "sorted(n for n in set(sys.modules) - before"
    " if n.partition('.')[0] not in {*sys.stdlib_module_names, 'ecomine'})"
)


class TestImports:
    """Mock and fixture runs never load the HTTP modules, the HTTP
    transports need nothing outside the standard library, and the package
    root imports no module of its own."""

    def test_package_root_reexports_nothing(self, tmp_path):
        # each public name has one import path, the module that defines it
        source = (
            "import json, sys\n"
            "loaded = lambda: sorted(name for name in sys.modules if name.startswith('ecomine'))\n"
            "import ecomine\n"
            "root = loaded()\n"
            "import ecomine.errors\n"
            "print(json.dumps([root, loaded()]))\n"
        )
        assert run_python(source, cwd=tmp_path) == '[["ecomine"], ["ecomine", "ecomine.errors"]]'

    def test_offline_workflow_loads_no_http_module(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        dois = []
        for line in SAMPLE_CORPUS.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            dois.append(record["doi"])
            (fixtures / fixture_filename(record["doi"])).write_text(json.dumps(record), encoding="utf-8")
        (tmp_path / "dois.txt").write_text("\n".join(dois) + "\n", encoding="utf-8")
        common = ["--corpus", "corpus.jsonl", "--provider", "mock", "--seed", "6"]
        steps = [
            [*common, "ingest", "--dois", "dois.txt", "--fixtures", "fixtures"],
            [*common, "specialize", "--out", "candidates.jsonl"],
            [*common, "generalize", "--candidates", "candidates.jsonl", "--out-dir", "schemas"],
            [*common, "extract", "--schema", "schemas/chosen.json", "--results", "results.jsonl",
             "--checkpoint", "ckpt.json"],
            [*common, "analyze", "--results", "results.jsonl", "--out", "reports"],
            [*common, "validate", "--results", "results.jsonl", "--schema", "schemas/chosen.json"],
        ]
        source = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from ecomine import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "http = [name for name in ('urllib.request', 'http.client', 'ssl') if name in sys.modules]\n"
            f"print(json.dumps([http, {FOREIGN}]))\n"
        )
        assert run_python(source, json.dumps(steps), cwd=tmp_path) == "[[], []]"
        assert len((tmp_path / "results.jsonl").read_text(encoding="utf-8").splitlines()) == 20

    def test_http_transports_run_on_the_standard_library_alone(self, tmp_path, stub_server):
        base_url, state = stub_server
        state.documents["10.1/a"] = {"title": "A", "abstract": "a"}
        source = (
            "import json, sys\n"
            "sys.modules['requests'] = None  # importing it now raises ImportError\n"
            "before = set(sys.modules)\n"
            "from ecomine.gateway import HttpChatProvider\n"
            "from ecomine.harvest import HttpHarvestClient\n"
            "title = HttpHarvestClient(sys.argv[1]).fetch('10.1/a')['title']\n"
            "reply = HttpChatProvider(sys.argv[1] + '/v1/chat', 'm', api_key='k').send('s', 'u')\n"
            f"print(json.dumps([title, reply, {FOREIGN}]))\n"
        )
        assert run_python(source, base_url, cwd=tmp_path) == '["A", "hi", []]'
        assert state.requests == 2
