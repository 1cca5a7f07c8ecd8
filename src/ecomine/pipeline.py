"""Stage orchestration: specialize, generalize, extract.

The extract stage is built for multi-day batches: a paper commits when its
line, a result or a quarantine, is appended to a results file, and a
fingerprint of the schema in force binds checkpoint and results together
so a resumed run can never mix schemas. In all three stages provider calls
run on the calling thread until they wait, then on up to parallelism threads
(gateway.fan_out), and only call the gateway; parsing and persistence happen
on the calling thread. Extract commits each reply as it completes, and one
process at a time holds the results file (single writer); specialize and
generalize put their replies back in sample and variant order first.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import random
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Sequence

from .analytics import SortedResults
from .corpus import CorpusStore, PaperRecord, atomic_write_text, commit_line, decode, dumps, encode, normalize_doi
from .corpus import read_json_lines, read_lines, record_line, writer_lock
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
from .gateway import LlmGateway, PromptPair, RateLimitPolicy, fan_out, require_at_least
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
        require_at_least("sample_size", self.sample_size, 2)
        require_at_least("generalize_variants", self.generalize_variants, 1)
        require_at_least("parallelism", self.parallelism, 1)


@dataclass
class Checkpoint:
    """Where an extract run series starts: the fingerprint of its schema,
    and results_lines, the number of results lines that predate it. The
    results file is the one record of progress: each later line is a
    commit. One JSON document, written whole."""

    schema_fingerprint: str
    results_lines: int

    def __post_init__(self) -> None:
        if self.results_lines < 0:
            raise CheckpointError(f"'results_lines' must be a non-negative integer, got {self.results_lines}")

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, dumps(encode(self), document=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        try:
            doc = json.loads("".join(read_lines(path, f"checkpoint {path}", CheckpointError)))
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        try:
            return decode(cls, doc)
        except KeyError as exc:
            raise CheckpointError(
                f"checkpoint {path} has no {exc}: remove it to start a new run series "
                "(an earlier version wrote no 'results_lines' when a run ended)"
            ) from exc
        except (TypeError, CheckpointError) as exc:
            raise CheckpointError(f"checkpoint {path}: {type(exc).__name__}: {exc}") from exc


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
    The sampled papers are sent through fan_out and their replies parsed
    in sample order. After a hard gateway failure no further call starts,
    the calls in flight finish, and the first failure in sample order is
    raised; no candidate is kept.
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

    def call(record: PaperRecord) -> str:
        return gateway.complete(build_specialize_prompt(record))

    candidates: list[CandidateSchema] = []
    quarantined: dict[str, str] = {}
    for record, (raw, exc) in zip(sample, _in_order(call, sample, config.parallelism)):
        try:
            if exc is not None:
                raise exc
            candidates.append(parse_candidate(raw, record.doi))
        except (PromptError, SchemaParseError) as error:
            logger.warning("quarantining specialize paper %s: %s", record.doi, error)
            quarantined[record.doi] = str(error)

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
    accidents. The requests are sent through fan_out and their replies
    parsed in variant order, so numbering does not depend on completion
    order; a failed call raises as specialize's does. chosen_index follows
    the human selection input when given, else 0.
    """
    if selection is not None and not 0 <= selection <= config.generalize_variants:
        raise StageFailure(
            f"variant selection {selection} out of range (at most {config.generalize_variants + 1} variants)"
        )
    oracle_schema, merge_report = merge_candidates(candidates)
    variants = [oracle_schema]
    raw_responses: list[str] = []

    base_prompt = build_generalize_prompt(candidates)
    total = config.generalize_variants
    prompts = [
        dataclasses.replace(base_prompt, user=base_prompt.user + f"\nGenerate variant {index} of {total}.\n")
        for index in range(1, total + 1)
    ]
    for index, (raw, exc) in enumerate(_in_order(gateway.complete, prompts, config.parallelism), 1):
        if exc is not None:
            raise exc
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


def _in_order(call: Callable, items: Sequence, parallelism: int) -> list[tuple[str | None, BaseException | None]]:
    """Each (reply, exception) of call over items through fan_out, put back
    in item order. After a TransportError no call starts and the calls in
    flight finish, so the outcomes are those of a prefix of items."""
    outcomes = fan_out(lambda index: call(items[index]), range(len(items)), parallelism, stop_on=TransportError)
    return [(raw, exc) for _, raw, exc in sorted(outcomes, key=lambda outcome: outcome[0])]


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
    or a quarantine, is appended to results_path, and a DOI's last line
    past the checkpoint's offset says what became of it, so a rerun with
    the same checkpoint resumes where even a killed run left off. Without
    a checkpoint, every earlier line predates the run. After a hard
    gateway failure no further call starts; responses already returned
    are committed, then the failure is re-raised. On completion the
    checkpoint's offset becomes 0, and the file is compacted to one
    DOI-sorted line per paper, its last. One process at a time holds the
    results file, from its first read through compaction.
    """
    system = build_extract_system_prompt(schema)  # validates the schema
    fingerprint = schema_fingerprint(schema)
    results_path = Path(results_path)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    with writer_lock(results_path, f"results file {results_path}"):
        checkpoint = None
        if checkpoint_path is not None and Path(checkpoint_path).exists():
            checkpoint = Checkpoint.load(checkpoint_path)
            if checkpoint.schema_fingerprint != fingerprint:
                raise CheckpointError(
                    "checkpoint was written under a different schema; refusing to mix schemas"
                )

        results = []  # extract, the results file's one writer, repairs its last line
        if results_path.exists():
            results = read_json_lines(
                results_path, f"results file {results_path}", CorpusError, result_from_dict, repair=True
            )
        if checkpoint is None:  # a new run series: the lines before it are never progress
            checkpoint = Checkpoint(fingerprint, len(results))
            if checkpoint_path is not None:
                checkpoint.save(checkpoint_path)
        elif checkpoint.results_lines > len(results):
            raise CheckpointError(
                f"checkpoint {checkpoint_path} counts {checkpoint.results_lines} results lines before its run "
                f"series, but results file {results_path} holds {len(results)}: the results file was replaced; "
                "restore it or remove the checkpoint"
            )
        lines = {result.paper_doi: record_line(result) for result in results}  # a DOI's last line wins
        status = {result.paper_doi: result.status for result in results[checkpoint.results_lines:]}

        eligible = [record for record in store.available_records() if record.abstract]
        todo = [record for record in eligible if record.doi not in status]
        logger.info("extract: %d eligible, %d already processed", len(eligible), len(eligible) - len(todo))

        def call(record: PaperRecord) -> str:
            return gateway.complete(PromptPair(system, build_paper_user_prompt(record)))

        failure: TransportError | None = None
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
                lines[doi], status[doi] = line, result.status
        if failure is not None:
            raise failure

        if checkpoint_path is not None:
            Checkpoint(fingerprint, 0).save(checkpoint_path)  # the compacted file's every line is progress
        _compact_results(results_path, lines)
    counts = Counter(status[record.doi] for record in eligible)
    return ExtractionRunSummary(
        processed=len(eligible),
        extracted=counts["extracted"],
        out_of_scope=counts["out_of_scope"],
        quarantined=counts["quarantined"],
    )


def _compact_results(path: Path, lines: dict[str, str]) -> None:
    """Rewrite the append-only results file as one sorted line per DOI, a quarantine line included."""
    atomic_write_text(path, "".join(lines[doi] + "\n" for doi in sorted(lines)))


def load_results(path: str | Path) -> SortedResults:
    """Read a results file in DOI order; on duplicate DOIs the last line
    wins, and a quarantine line leaves its DOI out. Every analytics table
    given the value shares its tallies."""
    results = read_json_lines(path, f"results file {path}", CorpusError, result_from_dict)
    latest = {result.paper_doi: result for result in results}
    return SortedResults(result for result in latest.values() if result.status != "quarantined")


def save_candidates(path: str | Path, candidates: Sequence[CandidateSchema]) -> None:
    """Write the specialize stage's candidates file: one {"doi", "blocks"} line per candidate."""
    docs = ({"doi": c.paper_doi, "blocks": schema_to_dict(c)} for c in candidates)
    atomic_write_text(path, "".join(dumps(doc) + "\n" for doc in docs))


def load_candidates(path: str | Path) -> list[CandidateSchema]:
    """Read a candidates file written by save_candidates."""
    return read_json_lines(
        path, f"candidates file {path}", CorpusError, lambda doc: candidate_from_blocks(doc["doi"], doc["blocks"])
    )


def load_schema_file(path: str | Path) -> StandardizedSchema:
    """Read and validate a standardized schema JSON file; an error names
    the file and keeps its type."""
    source = f"schema file {path}"
    text = "".join(read_lines(path, source, SchemaParseError))
    try:
        return ensure_valid_schema(parse_schema(text))
    except (SchemaParseError, InvalidSchemaError) as exc:
        raise type(exc)(f"{source}: {exc}") from exc
