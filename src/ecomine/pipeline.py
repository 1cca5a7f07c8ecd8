"""Stage orchestration: specialize, generalize, extract.

The extract stage is built for multi-day batches: per-paper results are
appended to a results file as they commit, each commit is journalled
to the checkpoint file as a one-line delta, and a fingerprint of the
schema in force binds checkpoint and results together so a resumed run
can never mix schemas. Workers only call the gateway; parsing and persistence happen
on the calling thread (single writer).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import random
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Sequence

from .corpus import CorpusStore, PaperRecord, atomic_write_text, decode, parse_json_lines
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
    _fields_from_block_value,
    ensure_valid_schema,
    merge_candidates,
    parse_candidate,
    parse_result,
    parse_schema,
    result_from_dict,
    schema_fingerprint,
    serialize_result,
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
    """Resumable extract-stage state.

    On disk: one checkpoint document, then zero or more one-line deltas
    ``{"doi", "status"[, "reason"]}`` appended as papers commit, where
    status names the set the DOI joins. A line counts once its newline
    is written; an unterminated last line is a torn write and is
    dropped. ``save`` compacts everything into a single document.
    """

    stage: str
    schema_fingerprint: str
    completed: set[str] = field(default_factory=set)
    out_of_scope: set[str] = field(default_factory=set)
    quarantined: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "" in self.completed or "" in self.out_of_scope or "" in self.quarantined:
            raise CheckpointError("checkpoint DOIs must be non-empty")

    def processed(self) -> set[str]:
        return self.completed | self.out_of_scope | set(self.quarantined)

    def apply(self, delta: dict) -> None:
        """Fold one journal delta into the sets; a mistyped delta is a CheckpointError."""
        doi, status, reason = delta.get("doi"), delta.get("status"), delta.get("reason")
        if not _nonempty_str(doi):
            raise CheckpointError(f"delta 'doi' must be a non-empty string, got {doi!r}")
        if status == "completed":
            self.completed.add(doi)
        elif status == "out_of_scope":
            self.out_of_scope.add(doi)
        elif status == "quarantined":
            if not _nonempty_str(reason):
                raise CheckpointError(f"delta 'reason' must be a non-empty string, got {reason!r}")
            self.quarantined[doi] = reason
        else:
            raise CheckpointError(f"unknown status {status!r}")

    def save(self, path: str | Path) -> None:
        doc = {
            "stage": self.stage,
            "schema_fingerprint": self.schema_fingerprint,
            "completed": sorted(self.completed),
            "out_of_scope": sorted(self.out_of_scope),
            "quarantined": self.quarantined,
        }
        atomic_write_text(Path(path), json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        try:
            text = Path(path).read_text(encoding="utf-8")
            doc, end = json.JSONDecoder().raw_decode(text, len(text) - len(text.lstrip()))
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        try:
            checkpoint = decode(cls, doc)
        except (KeyError, TypeError, CheckpointError) as exc:
            raise CheckpointError(f"checkpoint {path}: {type(exc).__name__}: {exc}") from exc
        deltas, _, torn = text[end:].rpartition("\n")
        first_line = text.count("\n", 0, end) + 1
        parse_json_lines(deltas.split("\n"), f"checkpoint {path}", CheckpointError, checkpoint.apply, first_line)
        if torn.strip():
            offset = len(text.encode("utf-8")) - len(torn.encode("utf-8"))
            logger.warning("%s: dropping torn last line at byte offset %d", path, offset)
        if checkpoint.completed & set(checkpoint.quarantined):
            raise CheckpointError(f"checkpoint {path} has DOIs both completed and quarantined")
        return checkpoint


def _nonempty_str(value) -> bool:
    return isinstance(value, str) and value != ""


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
    via excluded_dois.
    """
    excluded = set(excluded_dois)
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
            response = gateway.complete(build_specialize_prompt(record))
            candidates.append(parse_candidate(response.raw_text, record.doi))
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
    oracle_schema, merge_report = merge_candidates(candidates)
    variants = [oracle_schema]
    raw_responses: list[str] = []

    base_prompt = build_generalize_prompt(candidates)
    for index in range(1, config.generalize_variants + 1):
        prompt = dataclasses.replace(
            base_prompt,
            user=base_prompt.user + f"\nGenerate variant {index} of {config.generalize_variants}.\n",
        )
        response = gateway.complete(prompt)
        raw_responses.append(response.raw_text)
        try:
            variants.append(ensure_valid_schema(parse_schema(response.raw_text)))
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
    out_of_scope, or quarantined. Completions are appended to
    results_path as they commit, and each commit is then journalled to
    the checkpoint, so a rerun with the same checkpoint resumes where
    even a killed run left off. After a hard gateway failure no further
    call starts; responses already returned are committed, then the
    checkpoint is compacted and the failure re-raised. On completion
    the results file is compacted to one DOI-sorted line per paper.
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

    eligible = [record for record in store.available_records() if record.abstract]
    done = checkpoint.processed()
    todo = [record for record in eligible if record.doi not in done]
    logger.info("extract: %d eligible, %d already processed", len(eligible), len(eligible) - len(todo))

    results_path = Path(results_path)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    earlier = _cut_torn_tail(results_path) if results_path.exists() else 0

    journal = None
    if checkpoint_path is not None:
        checkpoint.save(checkpoint_path)  # the document the deltas follow
        journal = Path(checkpoint_path).open("a", encoding="utf-8")

    def commit(doi: str, status: str, reason: str | None = None) -> None:
        delta = {"doi": doi, "status": status}
        if reason is not None:
            delta["reason"] = reason
        checkpoint.apply(delta)
        if journal is not None:
            journal.write(json.dumps(delta, ensure_ascii=False, sort_keys=True) + "\n")
            journal.flush()

    def call(record: PaperRecord) -> str:
        return gateway.complete(PromptPair(system, build_paper_user_prompt(record))).raw_text

    written: dict[str, str] = {}  # DOI -> the results line this run appended for it
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
                if isinstance(exc, PromptError):
                    # the paper itself cannot form a prompt; retrying won't help
                    logger.warning("quarantining unpromptable paper %s: %s", doi, exc)
                    commit(doi, "quarantined", str(exc))
                    continue
                if exc is not None:
                    raise exc
                try:
                    result = parse_result(raw, doi)
                except QuarantineError as exc:
                    logger.warning("quarantining extract response for %s", doi)
                    commit(doi, "quarantined", str(exc))
                else:
                    line = written[doi] = serialize_result(result)
                    sink.write(line + "\n")
                    sink.flush()
                    commit(doi, "out_of_scope" if result.status == "out_of_scope" else "completed")
    finally:
        if journal is not None:
            journal.close()
            checkpoint.save(checkpoint_path)

    if failure is not None:
        raise failure

    _compact_results(results_path, earlier, written)
    return ExtractionRunSummary(
        processed=len(checkpoint.processed()),
        extracted=len(checkpoint.completed),
        out_of_scope=len(checkpoint.out_of_scope),
        quarantined=len(checkpoint.quarantined),
    )


def _cut_torn_tail(path: Path) -> int:
    """Truncate an unterminated last line, which a kill mid-write leaves,
    so the next append starts a fresh line instead of gluing onto it;
    returns the size of what is left."""
    with path.open("rb+") as handle:
        size = cut = handle.seek(0, os.SEEK_END)
        while cut > 0:
            start = max(0, cut - 4096)
            handle.seek(start)
            newline = handle.read(cut - start).rfind(b"\n")
            if newline >= 0:
                cut = start + newline + 1
                break
            cut = start
        if cut < size:
            logger.warning("%s: dropping torn last line at byte offset %d", path, cut)
            handle.truncate(cut)
        return cut


def _compact_results(path: Path, earlier: int, written: dict[str, str]) -> None:
    """Rewrite the append-only results file as one sorted line per DOI.

    Only the first ``earlier`` bytes, the lines earlier runs left, are read
    back; each is decoded, so a bad one is named, and serialised again.
    written, this run's lines by DOI, overlays them: the last line wins.
    """
    lines: dict[str, str] = {}
    if earlier:
        with path.open("rb") as handle:
            earlier_lines = handle.read(earlier).decode("utf-8").split("\n")
        for result in parse_json_lines(earlier_lines, f"results file {path}", CorpusError, result_from_dict):
            lines[result.paper_doi] = serialize_result(result)
    lines.update(written)
    atomic_write_text(path, "".join(lines[doi] + "\n" for doi in sorted(lines)))


def load_results(path: str | Path) -> list[ExtractionResult]:
    """Read a results file; on duplicate DOIs the last line wins."""
    path = Path(path)
    if not path.exists():
        return []
    with path.open(encoding="utf-8", newline="\n") as lines:
        results = parse_json_lines(lines, f"results file {path}", CorpusError, result_from_dict)
    return list({result.paper_doi: result for result in results}.values())


def load_candidates(path: str | Path) -> list[CandidateSchema]:
    """Read a candidates file written by the specialize stage."""
    with Path(path).open(encoding="utf-8", newline="\n") as lines:
        return parse_json_lines(
            lines,
            f"candidates file {path}",
            CorpusError,
            lambda doc: CandidateSchema(
                paper_doi=doc["doi"],
                blocks={block: _fields_from_block_value(value) for block, value in doc["blocks"].items()},
            ),
        )


def load_schema_file(path: str | Path) -> StandardizedSchema:
    """Read and validate a standardized schema JSON file."""
    return ensure_valid_schema(parse_schema(Path(path).read_text(encoding="utf-8")))
