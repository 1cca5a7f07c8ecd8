"""One decoder at every load boundary: corpus lines, results lines (a
quarantine's included), the checkpoint document, and harvested records. Any JSON value
in any field either loads as a value the writer serialises back byte for
byte, or is the format's named error."""

from __future__ import annotations  # decode reads annotations as strings

import json
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecomine.corpus import CorpusStore, PaperRecord, bibliometrics, compute_stats, decode, encode, export_corpus
from ecomine.corpus import record_line
from ecomine.errors import CheckpointError, CorpusError, PartialIngestError
from ecomine.harvest import FixtureHarvestClient, fixture_filename, ingest_dois
from ecomine.pipeline import Checkpoint, load_candidates, load_results
from ecomine.schema import RESULT_BLOCKS, ExtractionResult, serialize_result


def dump(doc):
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)


def indented(doc):
    """The layout of the checkpoint document."""
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


@dataclass
class Sample:
    name: str = field(metadata={"key": "label"})
    count: int | None = None
    tags: set[str] = field(default_factory=set)


@dataclass
class Texts:
    title: str = ""
    note: str | None = None
    tags: set[str] = field(default_factory=set)
    reasons: dict[str, str] = field(default_factory=dict)


class TestDecode:
    def test_builds_from_annotations(self):
        assert decode(Sample, {"label": "x", "count": 3, "tags": ["a"], "other": [1]}) == Sample("x", 3, {"a"})

    def test_missing_required_key_is_a_key_error(self):
        with pytest.raises(KeyError, match="label"):
            decode(Sample, {"name": "x"})

    @pytest.mark.parametrize(
        "doc, key, annotation",
        [
            ({"label": 7}, "label", "str"),
            ({"label": "x", "count": True}, "count", "int | None"),
            ({"label": "x", "count": 2020.0}, "count", "int | None"),
            ({"label": "x", "tags": "ab"}, "tags", "set[str]"),
            ({"label": "x", "tags": [1]}, "tags", "set[str]"),
        ],
    )
    def test_wrong_type_names_key_annotation_and_value(self, doc, key, annotation):
        with pytest.raises(TypeError) as excinfo:
            decode(Sample, doc)
        message = str(excinfo.value)
        assert repr(key) in message and annotation in message and repr(doc[key])[:20] in message

    # a JSON escape such as "\ud800" decodes to a lone surrogate, which UTF-8 cannot encode
    @pytest.mark.parametrize(
        "key, value",
        [
            ("title", "T\ud800"),
            ("note", "\udfff"),
            ("tags", ["a", "b\ud800"]),
            ("reasons", {"k": "\udc00"}),
            ("reasons", {"k\udc00": "v"}),
        ],
    )
    def test_text_utf8_cannot_encode_is_refused(self, key, value):
        with pytest.raises(TypeError, match=repr(key)):
            decode(Texts, {key: value})

    def test_non_ascii_text_is_kept(self):
        doc = {"title": "R\u00edo \u017f", "note": "\U0001f41d", "tags": ["\u00df"], "reasons": {"k": "\u212a"}}
        assert decode(Texts, doc) == Texts("R\u00edo \u017f", "\U0001f41d", {"\u00df"}, {"k": "\u212a"})

    def test_not_an_object(self):
        with pytest.raises(TypeError, match="JSON object, got list"):
            decode(Sample, ["label"])


class TestLoaderTypeErrors:
    """A mistyped value at each loader is the loader's named error."""

    @pytest.mark.parametrize(
        "line",
        [
            '{"doi": "10.1/a", "title": 7}',
            '{"doi": "10.1/a", "abstract": {"x": 1}}',
            '{"doi": "10.1/a", "year": 2020.0}',
        ],
    )
    def test_mistyped_corpus_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"{path}, line 1: TypeError"):
            CorpusStore.load(path)

    @pytest.mark.parametrize(
        "field_, value", [("species", "Acacia"), ("species", {"name": "x"}), ("status", 5), ("habitats", ["x"])]
    )
    def test_mistyped_results_line_names_file_and_line(self, tmp_path, field_, value):
        path = tmp_path / "results.jsonl"
        path.write_text(dump({"doi": "10.1/a", field_: value}) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"{path}, line 1: TypeError: '{field_}'"):
            load_results(path)

    @pytest.mark.parametrize(
        "doc", [{"abstract": "a b", "year": "2020"}, {"abstract": ["a b"]}, {"abstract": "a b", "year": 99}]
    )
    def test_mistyped_harvested_record_is_a_named_failed_fetch(self, tmp_path, doc):
        (tmp_path / fixture_filename("10.9/bad")).write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / fixture_filename("10.9/good")).write_text(json.dumps({"abstract": "a b"}), encoding="utf-8")
        store = CorpusStore()
        with pytest.raises(PartialIngestError, match="10.9/bad") as excinfo:
            ingest_dois(store, ["10.9/good", "10.9/bad"], FixtureHarvestClient(tmp_path), parallelism=1)
        assert [record.doi for record in store] == ["10.9/good"]
        assert excinfo.value.summary.found == 1

    def test_null_in_a_harvested_record_means_absent(self, tmp_path):
        doc = {"title": None, "abstract": "a b", "year": None, "publisher": None, "full_text": None}
        (tmp_path / fixture_filename("10.9/x")).write_text(json.dumps(doc), encoding="utf-8")
        store = CorpusStore()
        ingest_dois(store, ["10.9/x"], FixtureHarvestClient(tmp_path))
        expected = {"doi": "10.9/x", "title": "", "abstract": "a b", "source": "harvested"}
        assert encode(store.get("10.9/x")) == expected

    @pytest.mark.parametrize("doi", [5, "", None, ["10.1/b"]])
    def test_candidate_doi_must_be_a_nonempty_string(self, tmp_path, doi):
        path = tmp_path / "candidates.jsonl"
        lines = [{"doi": "10.1/a", "blocks": {"odd": ["x"]}}, {"doi": doi, "blocks": {"odd": ["x"]}}]
        path.write_text("".join(dump(line) + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(CorpusError, match=f"{path}, line 2: SchemaParseError: candidate DOI"):
            load_candidates(path)


# ---------------------------------------------------------------------------
# property: any JSON value in any field of a valid line

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10_000, 10_000),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.sampled_from(["", " ", "10.1/a", "10.1/c", "completed", "out_of_scope", "quarantined"]),
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
# shapes the annotations accept, so the accepting branch is exercised too
VALUES = st.one_of(
    JSON_VALUES,
    st.lists(st.text(max_size=4), max_size=3),
    st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2),
    st.lists(st.dictionaries(st.text(max_size=3), LEAVES, max_size=2), max_size=2),
)

RECORD = {
    "doi": "10.1/a",
    "title": "t",
    "abstract": "a b",
    "full_text": "f",
    "year": 2000,
    "publisher": "p",
    "source": "imported",
}
OPTIONAL_RECORD_FIELDS = ("abstract", "full_text", "year", "publisher")
RESULT = {
    "doi": "10.1/a",
    "status": "extracted",
    "species": [{"name": "Acacia"}],
    "locations": [],
    "ecosystems": [{"name": "Lake"}],
    "habitats": [],
    "relationships": [],
}
CHECKPOINT = {
    "stage": "extract",
    "schema_fingerprint": "f",
    "completed": ["10.1/a"],
    "out_of_scope": ["10.1/b"],
    "quarantined": {"10.1/c": "r"},
}
FIXTURE = {"title": "t", "abstract": "a b", "full_text": "f", "year": 2000, "publisher": "p"}
PROPERTY = settings(max_examples=100, deadline=None)


def with_value(base, key, value):
    return {**base, key: value}


def written_record(doc):
    """What the corpus writer keeps of an accepted record: its fields,
    optional ones only when not null."""
    return {
        key: value
        for key, value in doc.items()
        if key in RECORD and not (key in OPTIONAL_RECORD_FIELDS and value is None)
    }


@PROPERTY
@given(key=st.sampled_from([*RECORD, "extra"]), value=VALUES)
def test_corpus_line_round_trips_or_is_named(tmp_path_factory, key, value):
    directory = tmp_path_factory.mktemp("corpus")
    path = directory / "in.jsonl"
    doc = with_value(RECORD, key, value)
    path.write_text(dump(doc) + "\n", encoding="utf-8")
    try:
        store = CorpusStore.load(path)
    except CorpusError as exc:
        assert f"{path}, line 1: " in str(exc)
        return
    compute_stats(store)  # an accepted record is fit for every reader
    bibliometrics(store)
    export_corpus(store, directory / "out.jsonl")
    assert (directory / "out.jsonl").read_text(encoding="utf-8") == dump(written_record(doc)) + "\n"


@PROPERTY
@given(key=st.sampled_from([*RESULT, "extra"]), value=VALUES)
def test_results_line_round_trips_or_is_named(tmp_path_factory, key, value):
    path = tmp_path_factory.mktemp("results") / "results.jsonl"
    doc = with_value(RESULT, key, value)
    path.write_text(dump(doc) + "\n", encoding="utf-8")
    try:
        [result] = load_results(path)
    except CorpusError as exc:
        assert f"{path}, line 1: " in str(exc)
        return
    assert serialize_result(result) == dump({k: v for k, v in doc.items() if k in RESULT})


@PROPERTY
@given(key=st.sampled_from([*CHECKPOINT, "extra"]), value=VALUES)
def test_checkpoint_document_round_trips_or_is_named(tmp_path_factory, key, value):
    directory = tmp_path_factory.mktemp("checkpoint")
    doc = with_value(CHECKPOINT, key, value)
    (directory / "in.ckpt.json").write_text(indented(doc), encoding="utf-8")
    try:
        checkpoint = Checkpoint.load(directory / "in.ckpt.json")
    except CheckpointError as exc:
        assert f"checkpoint {directory / 'in.ckpt.json'}" in str(exc)
        return
    checkpoint.save(directory / "out.ckpt.json")
    # the DOI lists are sets: the writer keeps each DOI once, sorted
    expected = {k: v for k, v in doc.items() if k in CHECKPOINT}
    expected.update({k: sorted(set(expected[k])) for k in ("completed", "out_of_scope")})
    assert (directory / "out.ckpt.json").read_text(encoding="utf-8") == indented(expected)


@PROPERTY
@given(key=st.sampled_from(["doi", "status", "reason", "extra"]), value=VALUES)
def test_quarantine_line_folds_in_or_is_named(tmp_path_factory, key, value):
    path = tmp_path_factory.mktemp("quarantine") / "results.jsonl"
    line = with_value({"doi": "10.1/a", "status": "quarantined", "reason": "why"}, key, value)
    path.write_text(dump(RESULT) + "\n" + dump(line) + "\n", encoding="utf-8")

    # reference fold: what the quarantine rule accepts, and what it leaves of the results line before it
    doi, status, reason = line["doi"], line["status"], line["reason"]
    accepted = all(isinstance(v, str) and v != "" for v in (doi, reason)) and status == "quarantined"
    try:
        results = load_results(path)
    except CorpusError as exc:
        assert not accepted
        assert f"{path}, line 2: " in str(exc)
        return
    assert accepted
    assert [serialize_result(result) for result in results] == ([] if doi == "10.1/a" else [dump(RESULT)])


@PROPERTY
@given(key=st.sampled_from([*FIXTURE, "doi", "source", "extra"]), value=VALUES)
def test_harvest_fixture_ingests_or_is_named(tmp_path_factory, key, value):
    directory = tmp_path_factory.mktemp("fixtures")
    doc = with_value(FIXTURE, key, value)
    (directory / fixture_filename("10.9/x")).write_text(dump(doc), encoding="utf-8")
    store = CorpusStore()
    try:
        summary = ingest_dois(store, ["10.9/x"], FixtureHarvestClient(directory), parallelism=1)
    except PartialIngestError as exc:
        assert "10.9/x" in str(exc) and exc.summary.found == 0
        return
    # null means absent, empty text is no text, and doi and source are the harvester's
    kept = {k: v for k, v in doc.items() if k in FIXTURE and v is not None}
    kept = {k: v for k, v in kept.items() if not (k in ("abstract", "full_text") and v == "")}
    if summary.found:
        expected = {"title": "", **kept, "doi": "10.9/x", "source": "harvested"}
        assert dump(encode(store.get("10.9/x"))) == dump(expected)
    else:
        assert summary.missing == ["10.9/x"] and not kept.get("abstract") and not kept.get("full_text")


# ---------------------------------------------------------------------------
# property: encode is decode's inverse, and writes each class's JSON form as
# the hand-written writers it replaced did (references below)

NAMES = st.text(min_size=1, max_size=6).filter(str.strip)
TEXTS = st.text(max_size=6)
RECORDS = st.builds(
    PaperRecord,
    doi=NAMES,
    title=TEXTS,
    abstract=st.none() | TEXTS,
    full_text=st.none() | TEXTS,
    year=st.none() | st.integers(1000, 9999),
    publisher=st.none() | TEXTS,
    source=st.sampled_from(["harvested", "imported"]),
)
ENTRIES = st.lists(st.dictionaries(TEXTS, LEAVES | st.lists(TEXTS, max_size=2), max_size=3), max_size=2)
RESULTS = st.builds(
    ExtractionResult,
    paper_doi=NAMES,
    status=st.sampled_from(["extracted", "out_of_scope"]),
    **{attr: ENTRIES for attr, _ in RESULT_BLOCKS},
) | st.builds(ExtractionResult, paper_doi=NAMES, status=st.just("quarantined"), reason=NAMES)
CHECKPOINTS = st.builds(
    Checkpoint,
    stage=TEXTS,
    schema_fingerprint=TEXTS,
    completed=st.sets(NAMES, max_size=3),
    out_of_scope=st.sets(NAMES, max_size=3),
    quarantined=st.dictionaries(NAMES, TEXTS, max_size=2),
    results_lines=st.none() | st.integers(0, 10_000),
)


def reference_record_line(record):
    names = ("doi", "title", "abstract", "full_text", "year", "publisher", "source")
    return dump({name: getattr(record, name) for name in names if getattr(record, name) is not None})


def reference_result_line(result):
    reason = {} if result.reason is None else {"reason": result.reason}
    entities = {attr: getattr(result, attr) for attr, _ in RESULT_BLOCKS}
    return dump({"doi": result.paper_doi, "status": result.status, **entities, **reason})


def reference_checkpoint(checkpoint):
    doc = {
        "stage": checkpoint.stage,
        "schema_fingerprint": checkpoint.schema_fingerprint,
        "completed": sorted(checkpoint.completed),
        "out_of_scope": sorted(checkpoint.out_of_scope),
        "quarantined": checkpoint.quarantined,
    }
    if checkpoint.results_lines is not None:
        doc["results_lines"] = checkpoint.results_lines
    return indented(doc)


# About 3 ms per example, 2 vCPUs.
@settings(max_examples=150, deadline=None)
@given(record=st.one_of(RECORDS, RESULTS, CHECKPOINTS))
def test_encode_inverts_decode_and_writes_each_form_unchanged(tmp_path_factory, record):
    assert decode(type(record), encode(record)) == record
    if isinstance(record, Checkpoint):
        path = tmp_path_factory.mktemp("codec") / "c.ckpt.json"
        record.save(path)
        assert path.read_text(encoding="utf-8") == reference_checkpoint(record)
    else:
        reference = reference_record_line if isinstance(record, PaperRecord) else reference_result_line
        assert record_line(record) == reference(record)
