"""Generator determinism and the ground truth it reports."""

import json
import re
from pathlib import Path

import gen
from ecomine.harvest import fixture_filename

DATA = Path(__file__).resolve().parents[2] / "src" / "ecomine" / "data"


def write(directory, seed, n=300):
    return gen.write_inputs(
        directory, seed, n, DATA / "rulebook.json", DATA / "sample_corpus.jsonl", fixture_filename
    )


def tree(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_same_seed_writes_byte_identical_files(tmp_path):
    write(tmp_path / "a", 5)
    write(tmp_path / "b", 5)
    first, second = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert first == second
    assert {"corpus.jsonl", "dois.txt", "ground_truth.json"} <= set(first)
    assert sum(name.startswith("fixtures/") for name in first) == 300


def test_another_seed_writes_another_corpus(tmp_path):
    write(tmp_path / "a", 5)
    write(tmp_path / "b", 6)
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != (tmp_path / "b" / "corpus.jsonl").read_bytes()


def test_ground_truth_matches_the_records(tmp_path):
    records, truth = write(tmp_path, 9, n=400)
    rulebook = json.loads((DATA / "rulebook.json").read_text(encoding="utf-8"))
    species = re.compile(
        r"(?<![A-Za-z0-9])(?:" + "|".join(map(re.escape, rulebook["species"])) + r")(?![A-Za-z0-9])",
        re.IGNORECASE,
    )
    for doc in records:
        named = bool(species.search(doc["title"] + " " + doc["abstract"]))
        assert named == doc["in_domain"], doc["doi"]
    assert truth.out_of_domain == sum(not doc["in_domain"] for doc in records)
    assert 0.10 < truth.out_of_domain / truth.records < 0.20
    assert 0 < truth.with_full_text < truth.records
    assert json.loads((tmp_path / "ground_truth.json").read_text(encoding="utf-8")) == truth.to_dict()
    lengths = [len(doc["abstract"].split()) for doc in records]
    assert max(lengths) > 3 * min(lengths)
    assert len({doc["abstract"] for doc in records}) == len(records)


def test_doi_list_holds_every_record_plus_unresolvable_and_malformed(tmp_path):
    records, truth = write(tmp_path, 3)
    lines = (tmp_path / "dois.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == truth.records + truth.missing + truth.malformed
    for doc in records:
        assert (tmp_path / "fixtures" / fixture_filename(doc["doi"])).is_file()
