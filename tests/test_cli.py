import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ecomine
from conftest import SAMPLE_CORPUS
from ecomine import analytics, cli
from ecomine.harvest import FixtureHarvestClient, HttpHarvestClient, fixture_filename
from ecomine.mockllm import MockProvider
from ecomine.pipeline import load_results
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
        doc = {"stage": "extract", "schema_fingerprint": schema_fingerprint(standard_schema()), "completed": [5]}
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


class TestUndecodableInput:
    """A byte UTF-8 cannot decode in any input file ends in exit 1 and one
    error line naming the file and the line, never in a traceback."""

    @pytest.mark.parametrize(
        "command", ["stats", "analyze", "validate", "generalize", "extract", "config", "ingest", "specialize"]
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
        }[command]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        named = rf"^error: .*{re.escape(str(bad))}, line 2: UnicodeDecodeError: .* in position 15"
        assert re.search(named, err, re.MULTILINE), err


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
            (["--parallelism", "0"], {}, "parallelism must be at least 1"),
            (["--parallelism", "-3"], {}, "parallelism must be at least 1"),
            ([], {"ECOMINE_MAX_RETRIES": "0"}, "max_retries must be positive"),
            ([], {"ECOMINE_MAX_RETRIES": "-2"}, "max_retries must be positive"),
        ],
        ids=["parallelism-0", "parallelism-minus-3", "max-retries-0", "max-retries-minus-2"],
    )
    def test_refuses_what_extract_refuses_before_any_fetch(
        self, tmp_path, corpus_path, monkeypatch, capsys, flags, env, message
    ):
        # ingest ran on one thread at parallelism 0 or below, and made one attempt at max_retries 0 or below
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
            f"error: {key} must be finite and positive, got {float(value)}"
        ]

    def test_endpoint_provider_requires_credential(self, corpus_path, monkeypatch, capsys):
        monkeypatch.delenv("ECOMINE_API_KEY", raising=False)
        code = run_cli(
            "--corpus", corpus_path, "--provider", "endpoint",
            "--endpoint", "http://example.invalid/v1", "stats",
        )
        assert code == 1
        assert "credential" in capsys.readouterr().err


def run_python(source, *args, cwd):
    """Run source in a fresh interpreter that imports ecomine from this checkout."""
    src = str(Path(ecomine.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", source, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


class TestOfflineImports:
    """Mock and fixture runs never load the HTTP stack; the HTTP transports do."""

    def test_offline_workflow_never_imports_requests(self, tmp_path):
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
            "from ecomine import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print('requests' in sys.modules)\n"
        )
        assert run_python(source, json.dumps(steps), cwd=tmp_path) == "False"
        assert len((tmp_path / "results.jsonl").read_text(encoding="utf-8").splitlines()) == 20

    @pytest.mark.parametrize(
        "transport, construct",
        [
            ("ecomine.gateway import HttpChatProvider", "HttpChatProvider('http://127.0.0.1:9/v1', 'm')"),
            ("ecomine.harvest import HttpHarvestClient", "HttpHarvestClient('http://127.0.0.1:9')"),
        ],
        ids=["chat", "harvest"],
    )
    def test_http_transport_imports_requests(self, tmp_path, transport, construct):
        source = (
            f"import sys\nfrom {transport}\n"
            f"before = 'requests' in sys.modules\n{construct}\n"
            "print(before, 'requests' in sys.modules)\n"
        )
        assert run_python(source, cwd=tmp_path) == "False True"
