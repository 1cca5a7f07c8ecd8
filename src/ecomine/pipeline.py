"""Stage orchestration: specialize, generalize, extract.

The extract stage is built for multi-day batches: a paper commits when its
line, a result or a quarantine, is appended to a results file, and a
fingerprint of the schema in force binds checkpoint and results together
so a resumed run can never mix schemas. Provider calls run on the calling
thread until they wait, then on up to parallelism threads (gateway.fan_out),
and only call the gateway; parsing and persistence happen on the calling
thread (single writer).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import random
from contextlib import closing
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Collection, Sequence

from .corpus import CorpusStore, PaperRecord, atomic_write_text, commit_line, decode, encode, normalize_doi
from .corpus import read_json_lines, read_lines, record_line
from .errors import (
    CheckpointError,
    CorpusError,
    InvalidSchemaError,
    PromptError,
    QuarantineError,
    SchemaParseError,
    StageFailure,
    TransportError,
)
from .gateway import LlmGateway, PromptPair, RateLimitPolicy, fan_out
from .prompts import (
    build_extract_system_prompt,
    build_generalize_prompt,
    build_paper_user_prompt,
    build_specialize_prompt,
)
from .schema import (
    CandidateSchema,
    ExtractionResult,
    MergeReport,
    StandardizedSchema,
    candidate_from_blocks,
    ensure_valid_schema,
    merge_candidates,
    parse_candidate,
    parse_result,
    parse_schema,
    result_from_dict,
    schema_fingerprint,
    schema_to_dict,
)

logger = logging.getLogger(__name__)


@dataclass
class StageConfig:
    """Knobs shared by the three stages."""

    sample_size: int = 10
    generalize_variants: int = 3
    parallelism: int = 4
    rate_policy: RateLimitPolicy = field(default_factory=RateLimitPolicy)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_size < 2:
            raise ValueError("sample_size must be at least 2")
        if self.generalize_variants < 1:
            raise ValueError("generalize_variants must be at least 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


@dataclass
class Checkpoint:
    """Resumable extract-stage state: one JSON document, written whole.

    results_lines, set only in the document an extract run opens with,
    counts the lines its results file held: each later one is a commit.
    """

    stage: str
    schema_fingerprint: str
    completed: set[str] = field(default_factory=set)
    out_of_scope: set[str] = field(default_factory=set)
    quarantined: dict[str, str] = field(default_factory=dict)
    results_lines: int | None = None

    def __post_init__(self) -> None:
        if "" in self.completed or "" in self.out_of_scope or "" in self.quarantined:
            raise CheckpointError("checkpoint DOIs must be non-empty")
        if self.results_lines is not None and self.results_lines < 0:
            raise CheckpointError(f"'results_lines' must be a non-negative integer, got {self.results_lines}")

    def processed(self) -> set[str]:
        return self.completed | self.out_of_scope | set(self.quarantined)

    def save(self, path: str | Path) -> None:
        atomic_write_text(Path(path), json.dumps(encode(self), ensure_ascii=False, sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        try:
            doc = json.loads("".join(read_lines(path, f"checkpoint {path}", CheckpointError)))
        except (OSError, ValueError) as exc:
            if getattr(exc, "msg", None) == "Extra data":  # an older version journalled quarantines there
                raise CheckpointError(
                    f"checkpoint {path}, line {exc.lineno}: a line after the checkpoint document, as an older "
                    "version left a run it did not finish; remove the checkpoint to resume"
                ) from exc
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        try:
            checkpoint = decode(cls, doc)
        except (KeyError, TypeError, CheckpointError) as exc:
            raise CheckpointError(f"checkpoint {path}: {type(exc).__name__}: {exc}") from exc
        sets = [("completed", checkpoint.completed), ("out_of_scope", checkpoint.out_of_scope)]
        for (one, a), (other, b) in combinations([*sets, ("quarantined", checkpoint.quarantined.keys())], 2):
            if both := a & b:
                raise CheckpointError(f"checkpoint {path} has DOI {min(both)} both {one} and {other}")
        return checkpoint


@dataclass
class SpecializeOutcome:
    candidates: list[CandidateSchema]
    quarantined: dict[str, str]
    sampled_dois: list[str]


@dataclass
class GeneralizeOutcome:
    """Schema variants; index 0 is the deterministic merge baseline."""

    variants: list[StandardizedSchema]
    chosen_index: int
    merge_report: MergeReport
    raw_responses: list[str]

    @property
    def chosen(self) -> StandardizedSchema:
        return self.variants[self.chosen_index]


@dataclass
class ExtractionRunSummary:
    """Cumulative accounting: extracted + out_of_scope + quarantined ==
    processed, for every run and every checkpoint state."""

    processed: int
    extracted: int
    out_of_scope: int
    quarantined: int


def run_specialize(
    store: CorpusStore,
    config: StageConfig,
    gateway: LlmGateway,
    excluded_dois: Collection[str] = (),
) -> SpecializeOutcome:
    """Draw a seeded sample of papers and collect per-paper schema proposals.

    Responses that do not parse as a candidate schema are quarantined
    with the reason; human-flagged papers can be kept out of the draw
    via excluded_dois: each matches a stored DOI as written or as
    normalize_doi keys it, and a malformed one is refused before any call.
    """
    excluded = {*excluded_dois, *map(normalize_doi, excluded_dois)}
    eligible = [
        record
        for record in store.available_records()
        if record.abstract and record.doi not in excluded
    ]
    if len(eligible) < config.sample_size:
        raise StageFailure(
            f"specialize needs {config.sample_size} papers with abstracts, store has {len(eligible)}"
        )
    rng = random.Random(config.rng_seed)
    shuffled = list(eligible)  # eligible is DOI-sorted, so the shuffle is seed-reproducible
    rng.shuffle(shuffled)
    sample = shuffled[: config.sample_size]

    candidates: list[CandidateSchema] = []
    quarantined: dict[str, str] = {}
    for record in sample:
        try:
            candidates.append(parse_candidate(gateway.complete(build_specialize_prompt(record)), record.doi))
        except (PromptError, SchemaParseError) as exc:
            logger.warning("quarantining specialize paper %s: %s", record.doi, exc)
            quarantined[record.doi] = str(exc)

    if len(candidates) < 2:
        raise StageFailure(
            f"specialize produced {len(candidates)} usable candidates; at least 2 required"
        )
    return SpecializeOutcome(
        candidates=candidates,
        quarantined=quarantined,
        sampled_dois=[record.doi for record in sample],
    )


def run_generalize(
    candidates: Sequence[CandidateSchema],
    config: StageConfig,
    gateway: LlmGateway,
    selection: int | None = None,
) -> GeneralizeOutcome:
    """Produce standardized schema variants from the candidates.

    Variant 0 is always the deterministic merge (the oracle baseline);
    each additional variant is requested from the provider explicitly,
    tagged with its variant number rather than relying on sampling
    accidents. chosen_index follows the human selection input when
    given, else 0.
    """
    if selection is not None and not 0 <= selection <= config.generalize_variants:
        raise StageFailure(
            f"variant selection {selection} out of range (at most {config.generalize_variants + 1} variants)"
        )
    oracle_schema, merge_report = merge_candidates(candidates)
    variants = [oracle_schema]
    raw_responses: list[str] = []

    base_prompt = build_generalize_prompt(candidates)
    for index in range(1, config.generalize_variants + 1):
        prompt = dataclasses.replace(
            base_prompt,
            user=base_prompt.user + f"\nGenerate variant {index} of {config.generalize_variants}.\n",
        )
        raw = gateway.complete(prompt)
        raw_responses.append(raw)
        try:
            variants.append(ensure_valid_schema(parse_schema(raw)))
        except (SchemaParseError, InvalidSchemaError) as exc:
            logger.warning("discarding invalid generalize variant %d: %s", index, exc)

    if len(variants) == 1:
        raise StageFailure(
            "every provider-merged schema variant was structurally invalid",
            raw_responses=raw_responses,
        )
    chosen_index = 0 if selection is None else selection
    if not 0 <= chosen_index < len(variants):
        raise StageFailure(
            f"variant selection {chosen_index} out of range (have {len(variants)} variants)"
        )
    return GeneralizeOutcome(
        variants=variants,
        chosen_index=chosen_index,
        merge_report=merge_report,
        raw_responses=raw_responses,
    )


def run_extract(
    store: CorpusStore,
    schema: StandardizedSchema,
    config: StageConfig,
    gateway: LlmGateway,
    results_path: str | Path,
    checkpoint_path: str | Path | None = None,
) -> ExtractionRunSummary:
    """Apply the standardized schema to every paper with an abstract.

    Every eligible paper ends up in exactly one of extracted,
    out_of_scope, or quarantined. A paper commits once its line, a result
    or a quarantine, is appended to results_path, so a rerun with the
    same checkpoint resumes where even a killed run left off. After a
    hard gateway failure no further call starts; responses already
    returned are committed, then the checkpoint is saved and the failure
    re-raised. The lines earlier runs left are read, and checked against
    the checkpoint, before the first call; a DOI's last line wins, and a
    quarantine line leaves it none. On completion they and this run's
    lines are written back as one DOI-sorted line per paper not
    quarantined.
    """
    system = build_extract_system_prompt(schema)  # validates the schema
    fingerprint = schema_fingerprint(schema)

    checkpoint = Checkpoint(stage="extract", schema_fingerprint=fingerprint)
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        checkpoint = Checkpoint.load(checkpoint_path)
        if checkpoint.stage != "extract":
            raise CheckpointError(f"checkpoint belongs to stage {checkpoint.stage!r}")
        if checkpoint.schema_fingerprint != fingerprint:
            raise CheckpointError(
                "checkpoint was written under a different schema; refusing to mix schemas"
            )

    lines: dict[str, str] = {}  # DOI -> results line of each paper not quarantined; the last line wins

    def keep(result: ExtractionResult, line: str) -> None:
        if result.status == "quarantined":
            lines.pop(result.paper_doi, None)
        else:
            lines[result.paper_doi] = line

    def commit(result: ExtractionResult) -> None:  # once its results line is written
        doi = result.paper_doi
        checkpoint.completed.discard(doi)
        checkpoint.out_of_scope.discard(doi)
        checkpoint.quarantined.pop(doi, None)
        if result.status == "quarantined":
            checkpoint.quarantined[doi] = result.reason
        else:
            (checkpoint.out_of_scope if result.status == "out_of_scope" else checkpoint.completed).add(doi)

    results_path = Path(results_path)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results = []  # extract, the results file's one writer, repairs its last line
    if results_path.exists():
        results = read_json_lines(
            results_path, f"results file {results_path}", CorpusError, result_from_dict, repair=True
        )
    for result in results:
        keep(result, record_line(result))
    start = len(results) if checkpoint.results_lines is None else checkpoint.results_lines
    for result in results[start:]:  # the commits of a run killed after its opening document
        commit(result)
    if unlisted := (checkpoint.completed | checkpoint.out_of_scope) - lines.keys():
        raise CheckpointError(
            f"checkpoint {checkpoint_path} lists {len(unlisted)} DOI(s) with no line in results file "
            f"{results_path}, the lowest {min(unlisted)}; restore that results file or remove the checkpoint"
        )

    eligible = [record for record in store.available_records() if record.abstract]
    done = checkpoint.processed()
    todo = [record for record in eligible if record.doi not in done]
    logger.info("extract: %d eligible, %d already processed", len(eligible), len(eligible) - len(todo))

    if checkpoint_path is not None:
        checkpoint.results_lines = len(results)  # each line appended past these is a commit of this run
        checkpoint.save(checkpoint_path)

    def call(record: PaperRecord) -> str:
        return gateway.complete(PromptPair(system, build_paper_user_prompt(record)))

    failure: TransportError | None = None
    try:
        with results_path.open("a", encoding="utf-8") as sink, closing(
            fan_out(call, todo, config.parallelism, stop_on=TransportError)
        ) as outcomes:
            for record, raw, exc in outcomes:
                doi = record.doi
                if isinstance(exc, TransportError):
                    logger.warning("extract: hard failure on %s; committing calls in flight: %s", doi, exc)
                    failure = failure or exc
                    continue
                try:
                    if exc is not None:
                        raise exc
                    result = parse_result(raw, doi)
                except (PromptError, QuarantineError) as error:  # the paper or its reply: retrying won't help
                    logger.warning("quarantining extract paper %s: %s", doi, error)
                    result = ExtractionResult(paper_doi=doi, status="quarantined", reason=str(error))
                line = record_line(result)
                commit_line(sink, line)
                keep(result, line)
                commit(result)
    finally:
        if checkpoint_path is not None:
            checkpoint.results_lines = None  # the exit document lists every commit
            checkpoint.save(checkpoint_path)

    if failure is not None:
        raise failure

    _compact_results(results_path, {doi: line for doi, line in lines.items() if doi not in checkpoint.quarantined})
    return ExtractionRunSummary(
        processed=len(checkpoint.processed()),
        extracted=len(checkpoint.completed),
        out_of_scope=len(checkpoint.out_of_scope),
        quarantined=len(checkpoint.quarantined),
    )


def _compact_results(path: Path, lines: dict[str, str]) -> None:
    """Rewrite the append-only results file as one sorted line per DOI."""
    atomic_write_text(path, "".join(lines[doi] + "\n" for doi in sorted(lines)))


def load_results(path: str | Path) -> list[ExtractionResult]:
    """Read a results file; on duplicate DOIs the last line wins, and a
    quarantine line leaves its DOI out, as compaction would."""
    results = read_json_lines(path, f"results file {path}", CorpusError, result_from_dict)
    latest = {result.paper_doi: result for result in results}
    return [result for result in latest.values() if result.status != "quarantined"]


def save_candidates(path: str | Path, candidates: Sequence[CandidateSchema]) -> None:
    """Write the specialize stage's candidates file: one {"doi", "blocks"} line per candidate."""
    docs = ({"doi": c.paper_doi, "blocks": schema_to_dict(c)} for c in candidates)
    atomic_write_text(Path(path), "".join(json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n" for doc in docs))


def load_candidates(path: str | Path) -> list[CandidateSchema]:
    """Read a candidates file written by save_candidates."""
    return read_json_lines(
        path, f"candidates file {path}", CorpusError, lambda doc: candidate_from_blocks(doc["doi"], doc["blocks"])
    )


def load_schema_file(path: str | Path) -> StandardizedSchema:
    """Read and validate a standardized schema JSON file; an error names
    the file and keeps its type."""
    try:
        return ensure_valid_schema(parse_schema(Path(path).read_text(encoding="utf-8")))
    except (SchemaParseError, InvalidSchemaError) as exc:
        raise type(exc)(f"schema file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        where = f"{exc.reason} (schema file {path}, line {line})"
        raise UnicodeDecodeError(exc.encoding, exc.object, exc.start, exc.end, where) from exc
