"""Extract killed at any write, and ingest killed at any fetch or after any
flushed corpus line: a forked run ends at one crash point, and a rerun in
this process must finish as an uninterrupted run does."""

import fcntl
import json
import os
import re
from contextlib import contextmanager, redirect_stdout
from functools import cache
from io import StringIO
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_CORPUS, fast_policy
from faults import FAULTS, HARVEST_FAULTS, CrashPoint, FaultyHarvestClient, FaultyProvider, committed, run_crashed
from ecomine import cli
from ecomine.corpus import CorpusStore, encode
from ecomine.errors import CheckpointError
from ecomine.gateway import LlmGateway
from ecomine.harvest import fixture_filename
from ecomine.pipeline import Checkpoint, StageConfig, run_extract
from ecomine.schema import ExtractionResult, schema_fingerprint, schema_to_json, serialize_result, standard_schema

STORE = CorpusStore.load(SAMPLE_CORPUS)
DOIS = [record.doi for record in STORE.available_records()]
CONFIG = StageConfig(rate_policy=fast_policy(), parallelism=1)  # one call at a time: each example replays exactly

# About 35 ms per example (forked runs, then the resume) on the 20-paper sample corpus, 2 vCPUs.
PROPERTY = settings(max_examples=40, deadline=None)

SCHEDULES = st.dictionaries(st.sampled_from(DOIS), st.sampled_from(FAULTS), max_size=6)
CRASHES = st.one_of(
    st.builds(CrashPoint, st.just("flushed"), st.integers(1, 21)),
    st.builds(CrashPoint, st.sampled_from(["results", "tmp"]), st.integers(1, 22), st.integers(0, 300)),
    st.builds(CrashPoint, st.just("replace"), st.integers(1, 3)),
)


def extract(provider, directory):
    gateway = LlmGateway(provider, fast_policy(), sleep=lambda s: None)
    return run_extract(STORE, standard_schema(), CONFIG, gateway, directory / "r.jsonl", directory / "r.ckpt.json")


@cache
def uninterrupted(schedule):
    with TemporaryDirectory() as name:
        directory = Path(name)
        summary = extract(FaultyProvider(STORE, dict(schedule)), directory)
        return summary, (directory / "r.jsonl").read_bytes(), (directory / "r.ckpt.json").read_bytes()


def crash_then_resume(schedule, crashes, directory):
    """Run extract once per crash point, each in a forked child that ends
    there, then resume here; returns what the resume sent and reported, and
    the DOIs committed on disk before it."""
    results, checkpoint = directory / "r.jsonl", directory / "r.ckpt.json"
    for crash in crashes:
        run_crashed(crash, lambda: extract(FaultyProvider(STORE, schedule), directory), results)
    before = committed(results, checkpoint)
    provider = FaultyProvider(STORE, schedule)
    summary = extract(provider, directory)
    return provider.sent, summary, before


@PROPERTY
@given(schedule=SCHEDULES, crashes=st.lists(CRASHES, min_size=1, max_size=2))
def test_resume_after_any_crash_finishes_byte_identically(schedule, crashes):
    summary, results, checkpoint = uninterrupted(tuple(sorted(schedule.items())))
    with TemporaryDirectory() as name:
        directory = Path(name)
        _, resumed, _ = crash_then_resume(schedule, crashes, directory)
        assert (directory / "r.jsonl").read_bytes() == results
        assert (directory / "r.ckpt.json").read_bytes() == checkpoint
    assert resumed == summary
    assert resumed.extracted + resumed.out_of_scope + resumed.quarantined == resumed.processed


@PROPERTY
@given(schedule=SCHEDULES, crashes=st.lists(CRASHES, min_size=1, max_size=2))
@example(schedule={DOIS[2]: "prose"}, crashes=[CrashPoint("flushed", 5)])
def test_no_committed_doi_is_sent_again(schedule, crashes):
    with TemporaryDirectory() as name:
        sent, _, before = crash_then_resume(schedule, crashes, Path(name))
    assert not before & set(sent)
    assert len(sent) == len(set(sent))


def test_checkpoint_holds_the_series_offset_and_results_every_commit(tmp_path):
    schedule = {DOIS[1]: "prose", DOIS[7]: "truncated"}
    checkpoint = tmp_path / "r.ckpt.json"
    run = lambda: extract(FaultyProvider(STORE, schedule), tmp_path)  # noqa: E731
    assert run_crashed(CrashPoint("replace", 2), run, tmp_path / "r.jsonl")  # before the completion document

    document = json.loads(checkpoint.read_text(encoding="utf-8"))
    assert document == {"results_lines": 0, "schema_fingerprint": schema_fingerprint(standard_schema())}
    lines = [json.loads(line) for line in (tmp_path / "r.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [line["doi"] for line in lines] == DOIS
    quarantined = [(line["doi"], line["reason"]) for line in lines if line["status"] == "quarantined"]
    assert [doi for doi, _ in quarantined] == [DOIS[1], DOIS[7]]
    assert all(doi in reason for doi, reason in quarantined)


def test_resume_after_a_finished_run_sends_no_quarantined_doi_again(tmp_path):
    schedule = {DOIS[1]: "prose", DOIS[7]: "truncated"}
    summary = extract(FaultyProvider(STORE, schedule), tmp_path)
    lines = [json.loads(line) for line in (tmp_path / "r.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [line["doi"] for line in lines] == DOIS  # compacted, the two quarantine lines kept
    assert [line["doi"] for line in lines if line["status"] == "quarantined"] == [DOIS[1], DOIS[7]]

    provider = FaultyProvider(STORE, {})
    assert extract(provider, tmp_path) == summary
    assert provider.sent == []


def old_lines(path):
    """A results file left by a run without a checkpoint: every paper out of scope."""
    path.write_text("".join(serialize_result(ExtractionResult(doi, "out_of_scope")) + "\n" for doi in DOIS))


def test_fresh_checkpoint_sends_every_paper_again_and_overlays_old_lines(tmp_path):
    _, baseline, _ = uninterrupted(())
    old_lines(tmp_path / "r.jsonl")
    provider = FaultyProvider(STORE, {})
    summary = extract(provider, tmp_path)
    assert sorted(provider.sent) == DOIS
    assert (summary.extracted, summary.out_of_scope, summary.quarantined) == (17, 3, 0)
    assert (tmp_path / "r.jsonl").read_bytes() == baseline


def test_finished_run_over_old_lines_leaves_offset_0_and_resumes_without_a_call(tmp_path):
    # the series opened at offset 20; kept there, the compacted file's 20 lines would all predate it
    old_lines(tmp_path / "r.jsonl")
    summary = extract(FaultyProvider(STORE, {}), tmp_path)
    assert json.loads((tmp_path / "r.ckpt.json").read_bytes())["results_lines"] == 0
    provider = FaultyProvider(STORE, {})
    assert extract(provider, tmp_path) == summary
    assert provider.sent == []


@pytest.mark.parametrize("held", [0, 19, 20])
def test_offset_past_the_results_file_is_refused_before_any_call(tmp_path, held):
    # a series opened over the 20 old lines; then the results file was replaced by one of held lines
    results, checkpoint = tmp_path / "r.jsonl", tmp_path / "r.ckpt.json"
    old_lines(results)
    Checkpoint(schema_fingerprint(standard_schema()), 20).save(checkpoint)
    results.write_text("".join(results.read_text(encoding="utf-8").splitlines(keepends=True)[:held]))
    saved = results.read_bytes(), checkpoint.read_bytes()
    provider = FaultyProvider(STORE, {})
    if held == 20:  # every line predates the series: nothing to refuse, every paper to send
        extract(provider, tmp_path)
        assert sorted(provider.sent) == DOIS
        return
    named = (
        f"checkpoint {checkpoint} counts 20 results lines before its run series, but results file {results} "
        f"holds {held}: the results file was replaced; restore it or remove the checkpoint"
    )
    with pytest.raises(CheckpointError, match=re.escape(named)):
        extract(provider, tmp_path)
    assert provider.sent == []
    assert (results.read_bytes(), checkpoint.read_bytes()) == saved


@pytest.mark.parametrize("kill_after", [1, 5, 13])
def test_resume_over_old_lines_sends_only_uncommitted_papers(tmp_path, kill_after):
    _, baseline, _ = uninterrupted(())
    results = tmp_path / "r.jsonl"
    old_lines(results)
    run = lambda: extract(FaultyProvider(STORE, {}), tmp_path)  # noqa: E731
    assert run_crashed(CrashPoint("flushed", kill_after), run, results)

    provider = FaultyProvider(STORE, {})
    summary = extract(provider, tmp_path)
    assert len(provider.sent) == 20 - kill_after
    assert (summary.extracted, summary.out_of_scope, summary.quarantined) == (17, 3, 0)
    assert results.read_bytes() == baseline


def test_last_results_line_without_its_newline_is_kept_on_resume(tmp_path):
    # cut as a torn line, the 5th paper was sent again: 16 calls instead of 15
    _, baseline, _ = uninterrupted(())
    results = tmp_path / "r.jsonl"
    assert run_crashed(CrashPoint("flushed", 5), lambda: extract(FaultyProvider(STORE, {}), tmp_path), results)
    results.write_bytes(results.read_bytes().removesuffix(b"\n"))  # a whole line, its newline never written

    provider = FaultyProvider(STORE, {})
    summary = extract(provider, tmp_path)
    assert len(provider.sent) == 15 and DOIS[4] not in provider.sent
    assert (summary.extracted, summary.out_of_scope, summary.quarantined) == (17, 3, 0)
    assert results.read_bytes() == baseline


def test_last_quarantine_line_without_its_newline_is_kept_on_resume(tmp_path, caplog):
    # cut as a torn line, the quarantined paper would be sent again: 19 calls instead of 18
    schedule = {DOIS[1]: "prose"}
    summary, baseline, baseline_checkpoint = uninterrupted(tuple(schedule.items()))
    results, checkpoint = tmp_path / "r.jsonl", tmp_path / "r.ckpt.json"
    run = lambda: extract(FaultyProvider(STORE, schedule), tmp_path)  # noqa: E731
    assert run_crashed(CrashPoint("flushed", 2), run, results)  # after 0001 and 0002's quarantine line
    results.write_bytes(results.read_bytes().removesuffix(b"\n"))  # a whole line, its newline never written

    provider = FaultyProvider(STORE, schedule)
    assert extract(provider, tmp_path) == summary
    assert len(provider.sent) == 18 and DOIS[1] not in provider.sent
    assert (results.read_bytes(), checkpoint.read_bytes()) == (baseline, baseline_checkpoint)
    assert "torn" not in caplog.text


@pytest.mark.parametrize("checkpoint", [None, "r.ckpt.json"])
def test_paper_a_rerun_quarantines_keeps_no_earlier_results_line(tmp_path, checkpoint):
    # the compacted file kept the first run's line for the quarantined paper, not its quarantine line
    results = tmp_path / "r.jsonl"
    for schedule, path in (({}, None), ({DOIS[1]: "prose"}, checkpoint and tmp_path / checkpoint)):
        gateway = LlmGateway(FaultyProvider(STORE, schedule), fast_policy(), sleep=lambda s: None)
        summary = run_extract(STORE, standard_schema(), CONFIG, gateway, results, path)
    assert (summary.extracted, summary.out_of_scope, summary.quarantined) == (16, 3, 1)
    assert results.read_bytes() == uninterrupted(((DOIS[1], "prose"),))[1]


# ingest killed at a fetch, or after a flushed corpus line

HARVEST_SCHEDULES = st.dictionaries(
    st.sampled_from(DOIS), st.lists(st.sampled_from(HARVEST_FAULTS), min_size=1, max_size=5), max_size=4
)
MAX_RETRIES = fast_policy().max_retries
MISSING = "10.9999/not-indexed"
#: every DOI ingest fetches once from the DOI file: each paper with text, and one with no fixture
LISTED = sorted([*DOIS, MISSING])


@pytest.fixture(scope="module")
def harvest_dir(tmp_path_factory):
    """A DOI file and one fixture per available paper of the sample corpus.
    The DOI file also lists a DOI with no fixture, a malformed one and a
    paper again under another spelling, so the skip log is not empty."""
    directory = tmp_path_factory.mktemp("harvest")
    (directory / "fixtures").mkdir()
    for record in STORE.available_records():
        (directory / "fixtures" / fixture_filename(record.doi)).write_text(json.dumps(encode(record)))
    listed = [*DOIS[:10], "not a doi", MISSING, *DOIS[10:], "https://doi.org/" + DOIS[3].upper()]
    (directory / "dois.txt").write_text("".join(doi + "\n" for doi in listed))
    return directory


def ingest(client, harvest_dir, corpus):
    """`ecomine ingest` at parallelism 1, fetching through client; returns its
    exit code and what it printed."""
    argv = ["--corpus", str(corpus), "--parallelism", "1", "ingest", "--dois", str(harvest_dir / "dois.txt")]
    with mock.patch.object(cli, "FixtureHarvestClient", lambda _directory: client), redirect_stdout(StringIO()) as out:
        code = cli.main([*argv, "--fixtures", str(harvest_dir / "fixtures")])
    return code, out.getvalue()


def kill_then_rerun(schedule, kill_at, harvest_dir, corpus, crash=None):
    """Ingest in a forked child killed at the kill_at-th fetch or at crash
    (or ended by a failed fetch before it), then rerun here with no faults;
    returns whether the child was killed, the DOIs whose corpus line was
    complete before the rerun, what the rerun fetched and what it printed."""
    first = FaultyHarvestClient(harvest_dir / "fixtures", schedule, fast_policy(), kill_at=kill_at)
    killed = run_crashed(crash, lambda: ingest(first, harvest_dir, corpus), corpus)
    before = committed(corpus)
    rerun = FaultyHarvestClient(harvest_dir / "fixtures", {}, fast_policy())
    code, out = ingest(rerun, harvest_dir, corpus)
    assert code == 0
    return killed, before, rerun.fetched, out


# About 35 ms per example (a forked ingest of the 21 fetches, then the rerun), 2 vCPUs.
INGEST_PROPERTY = settings(max_examples=15, deadline=None)


@INGEST_PROPERTY
@given(schedule=HARVEST_SCHEDULES, kill_at=st.integers(1, len(LISTED)))
def test_rerun_after_a_killed_ingest_finishes_the_corpus(harvest_dir, schedule, kill_at):
    with TemporaryDirectory() as name:
        whole, corpus = Path(name) / "whole.jsonl", Path(name) / "c.jsonl"
        code, whole_out = ingest(FaultyHarvestClient(harvest_dir / "fixtures", {}, fast_policy()), harvest_dir, whole)
        assert code == 0
        _, _, _, out = kill_then_rerun(schedule, kill_at, harvest_dir, corpus)
        assert corpus.read_bytes() == whole.read_bytes()
        assert corpus.with_suffix(".skipped.log").read_bytes() == whole.with_suffix(".skipped.log").read_bytes()
    assert out.splitlines()[-1] == whole_out.splitlines()[-1]


# The rerun's DOIs come from disk, not from the kill point: the worker moves on
# to its next fetch while earlier records still wait to be written, so a kill
# at fetch k can leave fewer than k - 1 corpus lines.
@INGEST_PROPERTY
@given(schedule=HARVEST_SCHEDULES, kill_at=st.integers(1, len(LISTED)))
@example(schedule={DOIS[2]: ["retryable", "retryable"], DOIS[9]: ["hard"]}, kill_at=6)
def test_rerun_after_a_killed_ingest_fetches_only_what_it_had_not_committed(harvest_dir, schedule, kill_at):
    with TemporaryDirectory() as name:
        _, before, fetched, _ = kill_then_rerun(schedule, kill_at, harvest_dir, Path(name) / "c.jsonl")
    assert sorted(fetched) == sorted(set(LISTED) - before)


# About 35 ms per example, as above; retries within the budget only, so every fetch succeeds.
@INGEST_PROPERTY
@given(
    schedule=st.dictionaries(st.sampled_from(DOIS), st.lists(st.just("retryable"), max_size=MAX_RETRIES), max_size=4),
    flushed=st.integers(1, len(DOIS)),
)
def test_rerun_after_n_flushed_corpus_lines_fetches_only_the_rest(harvest_dir, schedule, flushed):
    with TemporaryDirectory() as name:
        crash = CrashPoint("flushed", flushed)
        killed, before, fetched, _ = kill_then_rerun(schedule, None, harvest_dir, Path(name) / "c.jsonl", crash)
    assert killed and len(before) == flushed
    assert sorted(fetched) == sorted(set(LISTED) - before)


# one writer per log: a second process is refused before any call or fetch


@contextmanager
def held(log):
    """Hold the log's writer lock on a descriptor of this process, as another
    writer would: flock locks on two descriptors conflict, even in one process."""
    fd = os.open(log.with_name(log.name + ".lock"), os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


def test_second_extract_on_a_results_file_is_refused_before_any_call(tmp_path, monkeypatch, capsys):
    results = tmp_path / "r.jsonl"
    old_lines(results)
    provider = FaultyProvider(STORE, {})
    monkeypatch.setattr(cli, "MockProvider", lambda: provider)
    schema = tmp_path / "schema.json"
    schema.write_text(schema_to_json(standard_schema()) + "\n", encoding="utf-8")
    argv = ["--corpus", str(SAMPLE_CORPUS), "extract", "--schema", str(schema), "--results", str(results)]
    saved = results.read_bytes()
    with held(results):
        assert cli.main([*argv, "--checkpoint", str(tmp_path / "r.ckpt.json")]) == 1
    lock = tmp_path / "r.jsonl.lock"
    assert f"error: results file {results} has another writer: {lock} is locked by another process" in capsys.readouterr().err
    assert provider.sent == [] and results.read_bytes() == saved
    assert sorted(path.name for path in tmp_path.iterdir()) == ["r.jsonl", "r.jsonl.lock", "schema.json"]


def test_second_ingest_on_a_corpus_is_refused_before_any_fetch(harvest_dir, tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    client = FaultyHarvestClient(harvest_dir / "fixtures", {}, fast_policy())
    with held(corpus):
        code, out = ingest(client, harvest_dir, corpus)
    assert (code, out, client.fetched) == (1, "", [])
    assert f"error: corpus {corpus} has another writer: {corpus}.lock is locked" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.jsonl.lock"]


@pytest.mark.parametrize("command", ["extract", "ingest"])
def test_a_crashed_writer_leaves_its_lock_free(harvest_dir, tmp_path, command):
    _, baseline, _ = uninterrupted(())
    log = tmp_path / ("r.jsonl" if command == "extract" else "c.jsonl")
    if command == "extract":
        run = lambda: extract(FaultyProvider(STORE, {}), tmp_path)  # noqa: E731
    else:
        client = FaultyHarvestClient(harvest_dir / "fixtures", {}, fast_policy())
        run = lambda: ingest(client, harvest_dir, log)  # noqa: E731
    assert run_crashed(CrashPoint("flushed", 5), run, log)
    with held(log):  # the crashed process held it; the kernel released it with its descriptor
        pass
    if command == "extract":
        extract(FaultyProvider(STORE, {}), tmp_path)
        assert log.read_bytes() == baseline
    else:
        assert ingest(FaultyHarvestClient(harvest_dir / "fixtures", {}, fast_policy()), harvest_dir, log)[0] == 0
