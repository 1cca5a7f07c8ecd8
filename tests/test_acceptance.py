"""Acceptance suite.

Each test is one exit criterion, checked at its stated tolerance, and
prints one PASS line on success (run with -s to see them). Failures
surface as ordinary pytest assertion errors.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import SAMPLE_CORPUS, fast_policy
from ecomine import cli
from ecomine.corpus import CorpusStore, PaperRecord, compute_stats
from ecomine.errors import TransportError
from ecomine.gateway import LlmGateway, PromptPair, RateLimitPolicy
from ecomine.harvest import FixtureHarvestClient, fixture_filename, ingest_dois
from ecomine.mockllm import MockProvider
from ecomine.pipeline import StageConfig, load_results, run_extract
from ecomine.schema import (
    merge_candidates,
    schema_to_dict,
    standard_schema,
    validate_result,
)
from oracle_merge import oracle_merge, random_candidates
from test_analytics import count_of, papers_each_with
from test_pipeline import FailAfter

from ecomine.analytics import ecosystem_frequencies, location_frequencies, top_species


def passed(name):
    print(f"ACCEPTANCE {name}: PASS")


def run_workflow(tmp_path, corpus_path, tag):
    """specialize -> generalize -> extract -> analyze via the CLI."""
    root = tmp_path / tag
    root.mkdir()
    candidates = root / "candidates.jsonl"
    schemas = root / "schemas"
    results = root / "results.jsonl"
    checkpoint = root / "ckpt.json"
    reports = root / "reports"

    assert cli.main(["--corpus", str(corpus_path), "--seed", "6", "specialize", "--out", str(candidates)]) == 0
    assert cli.main(["generalize", "--candidates", str(candidates), "--out-dir", str(schemas)]) == 0
    assert cli.main(
        [
            "--corpus", str(corpus_path),
            "extract",
            "--schema", str(schemas / "chosen.json"),
            "--results", str(results),
            "--checkpoint", str(checkpoint),
        ]
    ) == 0
    assert cli.main(["analyze", "--results", str(results), "--out", str(reports)]) == 0
    return root


def workflow_artifacts(root):
    names = [
        "candidates.jsonl",
        "results.jsonl",
        "ckpt.json",
        "schemas/chosen.json",
        "schemas/merge_report.json",
    ]
    names += sorted(p.relative_to(root).as_posix() for p in (root / "schemas").glob("variant_*.json"))
    names += sorted(p.relative_to(root).as_posix() for p in (root / "reports").glob("*.csv"))
    return names


def test_end_to_end_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    shutil.copy(SAMPLE_CORPUS, corpus_path)

    start = time.monotonic()
    first = run_workflow(tmp_path, corpus_path, "one")
    first_elapsed = time.monotonic() - start

    start = time.monotonic()
    second = run_workflow(tmp_path, corpus_path, "two")
    second_elapsed = time.monotonic() - start

    assert first_elapsed < 10.0 and second_elapsed < 10.0

    names_one = workflow_artifacts(first)
    names_two = workflow_artifacts(second)
    assert names_one == names_two
    assert len([n for n in names_one if n.startswith("reports/")]) >= 8
    for name in names_one:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    passed("end-to-end determinism (<10 s, byte-identical artifacts)")


GOLDEN = Path(__file__).parent / "golden"


def test_golden_artifacts(tmp_path):
    """A fresh run reproduces the committed artifacts byte for byte.

    tests/golden/ holds the artifacts of this workflow as captured before
    the extract loop moved to a checkpoint journal; a change that alters
    any artifact byte must say so by updating them.
    """
    corpus_path = tmp_path / "corpus.jsonl"
    shutil.copy(SAMPLE_CORPUS, corpus_path)
    root = run_workflow(tmp_path, corpus_path, "fresh")

    names = workflow_artifacts(root)
    assert sorted(names) == sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file())
    for name in names:
        assert (root / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    passed("golden artifacts (byte-identical to the committed set)")


def test_partition_arithmetic(tmp_path):
    # the published instance, as constants
    assert 9_802 + 2_834 == 12_636

    # fixture availability set: identity must hold for any mixture
    fixtures = tmp_path / "responses"
    fixtures.mkdir()
    for i in range(9):
        doc = {"title": f"t{i}", "abstract": "a b c"}
        if i % 3 == 0:
            doc["full_text"] = "x y"
        (fixtures / fixture_filename(f"10.9/p{i}")).write_text(json.dumps(doc), encoding="utf-8")

    store = CorpusStore()
    dois = [f"10.9/p{i}" for i in range(12)]  # 3 of these do not resolve
    summary = ingest_dois(store, dois, FixtureHarvestClient(fixtures), parallelism=4)
    assert summary.found == 9
    assert summary.abstract_only + summary.with_full_text == summary.found
    assert summary.abstract_only == 6 and summary.with_full_text == 3

    stats = compute_stats(store)
    assert stats.abstract_only + stats.with_full_text == stats.total
    passed("partition arithmetic (abstract_only + with_full_text = found)")


def scaled_corpus():
    """126 papers mirroring the published 1:100 proportions: 17 out of scope."""
    species = sorted(MockProvider().rulebook["species"])
    records = []
    for i in range(126):
        if i < 17:
            abstract = (
                f"Synthetic methods note number {i} about survey design, statistics, "
                "and instrumentation calibration without any taxon mentions."
            )
        else:
            name = species[i % len(species)]
            abstract = f"Field study {i} documenting {name} across monitored plots in Europe."
        records.append(
            PaperRecord(doi=f"10.200/scaled.{i:04d}", title=f"Synthetic paper {i}", abstract=abstract)
        )
    return CorpusStore(records)


def test_out_of_scope_conservation(tmp_path):
    store = scaled_corpus()
    gateway = LlmGateway(MockProvider(), fast_policy())
    config = StageConfig(rate_policy=fast_policy(), parallelism=4)
    summary = run_extract(
        store, standard_schema(), config, gateway,
        results_path=tmp_path / "scaled.jsonl",
        checkpoint_path=tmp_path / "scaled.ckpt.json",
    )
    assert summary.processed == 126
    assert summary.out_of_scope == 17
    assert summary.extracted == 109
    assert summary.quarantined == 0
    assert summary.extracted + summary.out_of_scope + summary.quarantined == summary.processed
    passed("out-of-scope conservation (126-paper 1:100 fixture, 17 N/A)")


def test_analytics_fixture_exactness():
    results = []
    results += papers_each_with(
        "species",
        [
            ({"name": "Procambarus clarkii", "role": "invasive"}, 76),
            ({"name": "Harmonia axyridis", "role": "invasive"}, 73),
            ({"name": "Rhinella marina", "role": "invasive"}, 68),
            ({"name": "Dreissena polymorpha", "role": "invasive"}, 63),
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

    invasive = top_species(results, "invasive", 3)
    assert [(row.display, row.count) for row in invasive.rows] == [
        ("Procambarus clarkii", 76),
        ("Harmonia axyridis", 73),
        ("Rhinella marina", 68),
    ]

    countries = location_frequencies(results, "country").top(5)
    assert [(row.display, row.count) for row in countries.rows] == [
        ("Australia", 406),
        ("South Africa", 248),
        ("New Zealand", 236),
        ("Italy", 187),
        ("France", 168),
    ]

    ecosystems = ecosystem_frequencies(results).names
    assert count_of(ecosystems, "freshwater systems") == 199
    assert count_of(ecosystems, "terrestrial ecosystems") == 93
    assert count_of(ecosystems, "Mediterranean Sea") == 71
    passed("analytics fixture-exactness (invasive top-3, country top-5, ecosystem rows)")


def test_merge_oracle_equivalence():
    rng = random.Random(2024)
    cases = 1000
    for case in range(cases):
        candidates = random_candidates(rng)

        merged, report = merge_candidates(candidates)
        expected_schema, expected_dropped, expected_unmapped = oracle_merge(candidates)
        assert schema_to_dict(merged) == expected_schema, f"case {case}"
        assert report.dropped == expected_dropped, f"case {case}"
        assert report.unmapped_blocks == expected_unmapped, f"case {case}"

        # order-insensitivity
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        remerged, rereport = merge_candidates(shuffled)
        assert schema_to_dict(remerged) == expected_schema, f"case {case} (shuffled)"
        assert rereport.dropped == expected_dropped, f"case {case} (shuffled)"

        # idempotence: n copies of one candidate canonicalize it, for any n
        single = candidates[0]
        canonical, canon_report = merge_candidates([single] * 2)
        assert canon_report.dropped == []
        for n in (3, 5):
            again, again_report = merge_candidates([single] * n)
            assert schema_to_dict(again) == schema_to_dict(canonical), f"case {case} (x{n})"
            assert again_report.dropped == []
    passed(f"merge oracle equivalence ({cases} generated cases + order/idempotence)")


def test_schema_conformance(tmp_path, sample_store, mock_gateway):
    # serialized property names bit-match the standardized table
    serialized = schema_to_dict(standard_schema())
    expected_names = {
        "species": ["name", "role", "taxonomy_level"],
        "location": ["name", "category", "geopolitical_info", "additional_details"],
        "ecosystem": ["name", "type", "scope"],
        "habitat": ["name", "type", "subcomponent_of", "specifics"],
        "relationships": ["related_entities", "name", "type", "directionality", "context"],
    }
    assert {b: [f["field"] for f in fields] for b, fields in serialized.items()} == expected_names

    config = StageConfig(rate_policy=fast_policy(), parallelism=4)
    run_extract(
        sample_store, standard_schema(), config, mock_gateway,
        results_path=tmp_path / "results.jsonl",
    )
    results = load_results(tmp_path / "results.jsonl")
    assert len(results) == 20
    for result in results:
        verdict = validate_result(result, standard_schema())
        assert verdict.ok, (result.paper_doi, verdict.violations)

    # injected mutations must each be detected
    victim = next(r for r in results if r.species)
    schema = standard_schema()

    mutated = load_results(tmp_path / "results.jsonl")
    target = next(r for r in mutated if r.paper_doi == victim.paper_doi)
    target.species[0]["confidence"] = 0.9
    verdict = validate_result(target, schema)
    assert any(v.code == "unknown_field" for v in verdict.violations)

    mutated = load_results(tmp_path / "results.jsonl")
    target = next(r for r in mutated if r.paper_doi == victim.paper_doi)
    target.species[0]["taxonomy_level"] = "order"
    verdict = validate_result(target, schema)
    assert any(v.code == "enum_violation" for v in verdict.violations)

    mutated = load_results(tmp_path / "results.jsonl")
    target = next(r for r in mutated if r.paper_doi == victim.paper_doi)
    target.relationships.append(
        {
            "related_entities": ["entity that does not exist"],
            "name": "phantom",
            "type": "biological",
            "directionality": "unidirectional",
        }
    )
    verdict = validate_result(target, schema)
    assert any(v.code == "dangling_reference" for v in verdict.violations)
    passed("schema conformance (zero errors on mock results; 3 mutations detected)")


@pytest.mark.parametrize("kill_after", [1, 5, 13])
def test_resume_equivalence(tmp_path, sample_store, mock_gateway, kill_after):
    config = StageConfig(rate_policy=fast_policy(), parallelism=1)
    baseline = tmp_path / "baseline.jsonl"
    run_extract(sample_store, standard_schema(), config, mock_gateway, results_path=baseline)

    results = tmp_path / "resumed.jsonl"
    checkpoint = tmp_path / "resumed.ckpt.json"
    with pytest.raises(TransportError):
        run_extract(
            sample_store, standard_schema(), config, FailAfter(mock_gateway, allow=kill_after),
            results_path=results, checkpoint_path=checkpoint,
        )
    run_extract(
        sample_store, standard_schema(), config, mock_gateway,
        results_path=results, checkpoint_path=checkpoint,
    )
    assert results.read_bytes() == baseline.read_bytes()
    passed(f"resume equivalence (kill after {kill_after})")


class RecordingProvider:
    """Notes the dispatch instant of every request, then answers instantly."""

    provider_id = "recording"

    def __init__(self):
        self.stamps = []

    def send(self, system, user, deterministic=True):
        now = time.monotonic()
        self.stamps.append(now)
        return "N/A"


def test_rate_limit_property():
    requests_per_window = 25
    window = 0.05
    total = 520

    provider = RecordingProvider()
    policy = RateLimitPolicy(max_requests_per_window=requests_per_window, window=window)
    gateway = LlmGateway(provider, policy)
    prompt = PromptPair(
        system="Role:\nr\nTask instruction:\nt\nOutput format:\no", user="ping"
    )

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(gateway.complete, prompt) for _ in range(total)]
        for future in futures:
            future.result()

    stamps = sorted(provider.stamps)
    assert len(stamps) == total
    worst = 0
    j = 0
    for i in range(len(stamps)):
        while j < len(stamps) and stamps[j] < stamps[i] + window:
            j += 1
        worst = max(worst, j - i)
    assert worst <= requests_per_window, f"observed {worst} dispatches in one window"
    passed(f"rate-limit property ({total} requests, {requests_per_window}/{window}s, parallelism 8)")


def test_corpus_stats_hand_counts():
    store = CorpusStore(
        [
            PaperRecord(doi="10.1/a", title="t", abstract="one two three four"),
            PaperRecord(doi="10.1/b", title="t", abstract=" ".join(["tok"] * 10)),
            PaperRecord(doi="10.1/c", title="t", abstract=" ".join(["tok"] * 16)),
        ]
    )
    stats = compute_stats(store)
    assert stats.abstract_tokens.minimum == 4
    assert stats.abstract_tokens.maximum == 16
    assert stats.abstract_tokens.average == 10

    empty = compute_stats(CorpusStore())
    assert empty.total == 0
    assert empty.abstract_tokens.minimum is None
    assert empty.abstract_tokens.maximum is None
    assert empty.abstract_tokens.average is None
    assert empty.full_text_tokens.minimum is None
    passed("corpus stats (hand-counted fixture exact; empty extrema absent)")


#: the README quickstart, each command after the global options
QUICKSTART = [
    ["stats"],
    ["--seed", "6", "specialize", "--out", "candidates.jsonl"],
    ["generalize", "--candidates", "candidates.jsonl", "--out-dir", "schemas"],
    ["extract", "--schema", "schemas/chosen.json", "--results", "results.jsonl", "--checkpoint", "ckpt.json"],
    ["analyze", "--results", "results.jsonl", "--out", "reports"],
    ["validate", "--results", "results.jsonl", "--schema", "schemas/chosen.json"],
]
#: (environment, umask, working directory name, parallelism): two environments that differ in each
ENVIRONMENTS = [
    ({"PYTHONHASHSEED": "0", "LC_ALL": "C", "TZ": "UTC"}, 0o022, "plain", 1),
    ({"PYTHONHASHSEED": "12345", "LC_ALL": "C.UTF-8", "TZ": "Pacific/Kiritimati"}, 0o077, "quick start é", 4),
]


def test_quickstart_is_byte_identical_across_environments(tmp_path):
    """The quickstart as `python -m ecomine` launches, in two environments
    at once, writes the golden artifacts byte for byte and prints the same
    summary lines. About 1 s: 12 launches, two at a time, 2 vCPUs."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for variables, umask, name, parallelism in ENVIRONMENTS:
        directory = tmp_path / name
        directory.mkdir()
        shutil.copy(SAMPLE_CORPUS, directory / "corpus.jsonl")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, **variables)
        runs.append((directory, env, umask, ["--corpus", "corpus.jsonl", "--parallelism", str(parallelism)]))

    outputs = {directory: [] for directory, *_ in runs}
    for command in QUICKSTART:
        launched = [
            (directory, subprocess.Popen(
                [sys.executable, "-m", "ecomine", *options, *command],
                cwd=directory, env=env, umask=umask, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            ))
            for directory, env, umask, options in runs
        ]
        for directory, process in launched:
            out, err = process.communicate(timeout=60)
            assert process.returncode == 0, err.decode(errors="replace")
            outputs[directory].append(out)

    first, second = outputs.values()
    assert first == second
    golden = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file())
    for directory in outputs:
        for name in golden:
            assert (directory / name).read_bytes() == (GOLDEN / name).read_bytes(), f"{directory.name}: {name}"
