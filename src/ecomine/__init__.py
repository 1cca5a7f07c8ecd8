"""ecomine: mine ecological entities from an invasion-biology corpus.

Workflow: harvest a DOI-keyed corpus, let a completion provider propose
per-paper extraction schemas (specialize), merge them into one
standardized schema (generalize), populate that schema for every paper
(extract), then aggregate the results into frequency tables and
habitat-ecosystem linkages (analyze).
"""

from .analytics import (
    EcosystemFrequencies,
    FrequencyRow,
    FrequencyTable,
    GENERIC_SPECIES_TERMS,
    LinkagePair,
    ecosystem_frequencies,
    emit_report,
    habitat_linkages,
    location_frequencies,
    role_inventory,
    top_species,
)
from .corpus import (
    BibliometricTable,
    CorpusStats,
    CorpusStore,
    PaperRecord,
    TokenStats,
    bibliometrics,
    compute_stats,
    count_tokens,
    export_corpus,
    normalize_doi,
)
from .errors import (
    CheckpointError,
    CorpusError,
    EcomineError,
    InvalidSchemaError,
    PartialIngestError,
    PromptError,
    QuarantineError,
    ReportError,
    RetryableTransportError,
    SchemaParseError,
    StageFailure,
    TransportError,
)
from .gateway import (
    HttpChatProvider,
    LlmGateway,
    LlmResponse,
    PromptPair,
    RateLimitPolicy,
    SlidingWindowRateLimiter,
)
from .harvest import FixtureHarvestClient, HttpHarvestClient, IngestSummary, ingest_dois
from .mockllm import MockProvider, load_rulebook
from .pipeline import (
    Checkpoint,
    ExtractionRunSummary,
    GeneralizeOutcome,
    SpecializeOutcome,
    StageConfig,
    load_candidates,
    load_results,
    load_schema_file,
    run_extract,
    run_generalize,
    run_specialize,
)
from .prompts import build_extract_prompt, build_generalize_prompt, build_specialize_prompt
from .schema import (
    CandidateSchema,
    CORE_SPECIES_ROLES,
    ExtractionResult,
    FieldSpec,
    MergeReport,
    StandardizedSchema,
    ValidationVerdict,
    Violation,
    ensure_valid_schema,
    merge_candidates,
    parse_candidate,
    parse_result,
    parse_schema,
    schema_fingerprint,
    schema_to_dict,
    schema_to_json,
    serialize_result,
    standard_schema,
    validate_result,
)

__version__ = "0.1.0"
