"""Command-line surface binding the modules into the extraction workflow.

Subcommands follow the stage order: ingest, stats, specialize,
generalize, extract, analyze, validate. Configuration precedence is
flags > environment variables (ECOMINE_*) > config file > defaults.
Progress goes to standard error; each command prints one machine-
readable summary line to standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import analytics
from .corpus import CorpusStore, atomic_write_text, compute_stats, dumps, export_corpus, read_lines, writer_lock
from .errors import EcomineError, PartialIngestError, RangeError
from .gateway import TIMEOUT, HttpChatProvider, LlmGateway, RateLimitPolicy, require_finite_positive
from .harvest import FixtureHarvestClient, HttpHarvestClient, ingest_dois
from .mockllm import MockProvider
from .pipeline import (
    StageConfig,
    load_candidates,
    load_results,
    load_schema_file,
    run_extract,
    run_generalize,
    run_specialize,
    save_candidates,
)
from .schema import schema_to_json, validate_result

logger = logging.getLogger(__name__)

ENV_PREFIX = "ECOMINE_"

#: validate logs this many warnings per code, then a count; -v logs them all
WARNING_EXAMPLES = 3


@dataclass
class CliConfig:
    """Resolved configuration shared across subcommands. A setting that a
    library class owns takes that class's default, so each is stated once."""

    corpus: str = "corpus.jsonl"
    base_url: str | None = None
    fixtures: str | None = None
    provider: str = "mock"  # "mock" | "endpoint"
    endpoint: str | None = None
    model: str = "gpt-4o"
    api_key_var: str = "ECOMINE_API_KEY"
    report_dir: str = "reports"
    sample_size: int = StageConfig.sample_size
    variants: int = StageConfig.generalize_variants
    parallelism: int = StageConfig.parallelism
    seed: int = StageConfig.rng_seed
    rate_requests: int = RateLimitPolicy.max_requests_per_window
    rate_window: float = RateLimitPolicy.window
    max_retries: int = RateLimitPolicy.max_retries
    backoff_base: float = RateLimitPolicy.backoff_base
    timeout: float = TIMEOUT
    top: int = 10

    def rate_policy(self) -> RateLimitPolicy:
        """The retry policy of every remote call, and the rate cap of chat."""
        return RateLimitPolicy(
            max_requests_per_window=self.rate_requests,
            window=self.rate_window,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
        )

    def stage_config(self) -> StageConfig:
        """The stages' settings; no stage reads StageConfig.rate_policy."""
        return StageConfig(
            sample_size=self.sample_size,
            generalize_variants=self.variants,
            parallelism=self.parallelism,
            rng_seed=self.seed,
        )

    def check(self) -> None:
        """Apply the rules each value's owner keeps, each raising RangeError:
        StageConfig's, RateLimitPolicy's, the HTTP clients' timeout rule and top_species'."""
        self.stage_config()
        self.rate_policy()
        require_finite_positive("timeout", self.timeout)
        analytics.require_top(self.top)


def _read_config_file(path: str | Path) -> dict[str, tuple[str, str]]:
    """Parse a flat `key = value` config file; # starts a comment.

    Maps each key to its value and the file and line it came from. Every
    line is read before any is used, so an undecodable byte is named first.
    """
    values: dict[str, tuple[str, str]] = {}
    for number, raw_line in enumerate(list(read_lines(path, f"config file {path}", EcomineError)), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        source = f"config file {path}, line {number}"
        key, sep, value = line.partition("=")
        if not sep:
            raise EcomineError(f"{source}: expected key = value, got {raw_line.rstrip()!r}")
        values[key.strip().lower()] = (value.strip(), source)
    return values


def _read_dois(path: str | Path) -> list[str]:
    """The non-blank lines of a DOI file, stripped."""
    return [line.strip() for line in read_lines(path, f"DOI file {path}", EcomineError) if line.strip()]


def resolve_config(args: argparse.Namespace) -> CliConfig:
    """Merge flags, ECOMINE_* variables and the config file over the
    defaults. Each value takes its CliConfig default's type and must pass
    its rule (CliConfig.check); a refusal names key, source and rule once
    each, as "variants from flag --variants: must be at least 1"."""
    defaults = {f.name: f.default for f in dataclasses.fields(CliConfig)}
    sourced = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for name in defaults:
        env_var = ENV_PREFIX + name.upper()
        if env_var in os.environ:
            sourced[name] = (os.environ[env_var], f"environment variable {env_var}")
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            sourced[name] = (flag_value, "flag --" + name.replace("_", "-"))

    resolved = {}
    for name, (value, source) in sourced.items():
        if name not in defaults:
            raise EcomineError(f"{source}: unknown config key {name!r}")
        kind = type(defaults[name])
        try:
            resolved[name] = kind(value) if kind in (int, float) else value
        except ValueError:
            raise EcomineError(f"{name} from {source}: expected {kind.__name__}, got {value!r}") from None
        try:
            CliConfig(**{name: resolved[name]}).check()  # the defaults pass, so a refusal is this value's
        except RangeError as exc:
            raise EcomineError(f"{name} from {source}: {exc.rule}") from None

    config = CliConfig(**resolved)
    if config.provider not in ("mock", "endpoint"):
        raise EcomineError(f"provider must be mock or endpoint, got {config.provider!r}")
    if config.provider == "endpoint":
        if not config.endpoint:
            raise EcomineError("provider=endpoint requires an endpoint URL")
        if not os.environ.get(config.api_key_var):
            raise EcomineError(
                f"provider=endpoint requires credential env var {config.api_key_var} to be set"
            )
    return config


def make_gateway(config: CliConfig) -> LlmGateway:
    if config.provider == "mock":
        provider = MockProvider()
    else:
        provider = HttpChatProvider(
            endpoint=config.endpoint,
            model=config.model,
            api_key=os.environ[config.api_key_var],
            timeout=config.timeout,
        )
    return LlmGateway(provider, config.rate_policy())


def _open_store(config: CliConfig, must_exist: bool = True) -> CorpusStore:
    path = Path(config.corpus)
    return CorpusStore.load(path) if must_exist or path.exists() else CorpusStore()


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args: argparse.Namespace, config: CliConfig) -> int:
    if not (dois := _read_dois(args.dois)):
        raise EcomineError(f"DOI file {args.dois} holds no DOI")
    if config.fixtures:
        client = FixtureHarvestClient(config.fixtures)
    elif config.base_url:
        # unpaced (see HttpHarvestClient); the policy sets retries and backoff
        client = HttpHarvestClient(config.base_url, config.rate_policy(), timeout=config.timeout)
    else:
        raise EcomineError("ingest needs --fixtures DIR or --base-url URL")

    corpus = Path(config.corpus)
    corpus.parent.mkdir(parents=True, exist_ok=True)
    failure = None
    with writer_lock(corpus, f"corpus {corpus}"):
        store = CorpusStore.load_log(corpus) if corpus.exists() else CorpusStore()
        try:
            with corpus.open("a", encoding="utf-8") as log:  # each fetched record is appended as it commits
                summary = ingest_dois(store, dois, client, parallelism=config.parallelism, log=log)
        except PartialIngestError as exc:
            failure, summary = exc, exc.summary  # keep what committed before the failure
        export_corpus(store, corpus)  # compacts the log to one DOI-sorted line per record

    skip_log = corpus.with_suffix(".skipped.log")
    atomic_write_text(
        skip_log,
        "".join(f"missing\t{doi}\n" for doi in summary.missing)
        + "".join(f"malformed\t{doi}\n" for doi in summary.malformed),
    )
    logger.info("skip log written to %s", skip_log)
    print(
        f"queried={summary.queried} found={summary.found} "
        f"abstract_only={summary.abstract_only} with_full_text={summary.with_full_text} "
        f"malformed={len(summary.malformed)}"
    )
    if failure is not None:
        raise failure
    return 0


def cmd_stats(args: argparse.Namespace, config: CliConfig) -> int:
    stats = compute_stats(_open_store(config, must_exist=False))
    parts = [
        f"total={stats.total}",
        f"abstract_only={stats.abstract_only}",
        f"with_full_text={stats.with_full_text}",
    ]
    for kind, tokens in (("abstract", stats.abstract_tokens), ("full_text", stats.full_text_tokens)):
        if tokens.count:
            parts.append(f"{kind}_token_min={tokens.minimum}")
            parts.append(f"{kind}_token_max={tokens.maximum}")
            parts.append(f"{kind}_token_avg={tokens.average:.2f}")
    print(" ".join(parts))
    return 0


def cmd_specialize(args: argparse.Namespace, config: CliConfig) -> int:
    gateway = make_gateway(config)  # refuses the provider's settings before any input is read
    store = _open_store(config)
    excluded = _read_dois(args.exclude) if args.exclude else []
    outcome = run_specialize(store, config.stage_config(), gateway, excluded_dois=excluded)
    save_candidates(args.out, outcome.candidates)
    for doi, reason in sorted(outcome.quarantined.items()):
        logger.warning("quarantined %s: %s", doi, reason)
    print(
        f"sampled={len(outcome.sampled_dois)} candidates={len(outcome.candidates)} "
        f"quarantined={len(outcome.quarantined)}"
    )
    return 0


def cmd_generalize(args: argparse.Namespace, config: CliConfig) -> int:
    gateway = make_gateway(config)
    candidates = load_candidates(args.candidates)
    outcome = run_generalize(
        candidates, config.stage_config(), gateway, selection=args.select
    )
    out_dir = Path(args.out_dir)
    for index, schema in enumerate(outcome.variants):
        atomic_write_text(out_dir / f"variant_{index}.json", schema_to_json(schema) + "\n")
    atomic_write_text(out_dir / "chosen.json", schema_to_json(outcome.chosen) + "\n")
    atomic_write_text(
        out_dir / "merge_report.json",
        dumps(dataclasses.asdict(outcome.merge_report), document=True) + "\n",
    )
    print(f"variants={len(outcome.variants)} chosen={outcome.chosen_index}")
    return 0


def cmd_extract(args: argparse.Namespace, config: CliConfig) -> int:
    gateway = make_gateway(config)
    store = _open_store(config)
    schema = load_schema_file(args.schema)
    summary = run_extract(
        store,
        schema,
        config.stage_config(),
        gateway,
        results_path=args.results,
        checkpoint_path=args.checkpoint,
    )
    print(
        f"extracted={summary.extracted} out_of_scope={summary.out_of_scope} "
        f"quarantined={summary.quarantined}"
    )
    return 0


def cmd_analyze(args: argparse.Namespace, config: CliConfig) -> int:
    results = load_results(args.results)  # in DOI order, each entity list tallied once
    stoplist = analytics.GENERIC_SPECIES_TERMS if args.filter_generic else None

    tables = [analytics.role_inventory(results, stoplist)]
    for role in ("invasive", "native", "introduced"):
        tables.append(analytics.top_species(results, role, config.top, stoplist))
    for granularity in ("country", "region", "city"):
        tables.append(analytics.location_frequencies(results, granularity))
    ecosystems = analytics.ecosystem_frequencies(results)
    tables.extend([ecosystems.names, ecosystems.types])
    pairs = analytics.habitat_linkages(results)

    out = Path(args.out if args.out else config.report_dir)
    if args.format == "markdown" and out.suffix == "":
        out = out / "report.md"
    written = analytics.emit_report(tables, pairs, out, fmt=args.format)
    print(f"tables={len(tables)} linkages={len(pairs)} out={written}")
    return 0


def cmd_validate(args: argparse.Namespace, config: CliConfig) -> int:
    schema = load_schema_file(args.schema)
    results = load_results(args.results)
    total_violations = 0
    warnings: Counter[str] = Counter()
    for result in results:  # in DOI order
        verdict = validate_result(result, schema)
        for violation in verdict.violations:
            total_violations += 1
            print(f"{result.paper_doi}\t{violation.path}\t{violation.message}")
        for warning in verdict.warnings:
            warnings[warning.code] += 1
            if args.verbose or warnings[warning.code] <= WARNING_EXAMPLES:
                logger.warning("%s: %s: %s", result.paper_doi, warning.path, warning.message)
    for code, count in sorted(warnings.items()):
        shown = count if args.verbose else min(count, WARNING_EXAMPLES)
        logger.warning("%s: %d warning(s), %d shown%s", code, count, shown, "" if shown == count else " (-v shows all)")
    print(f"results={len(results)} violations={total_violations}")
    return 1 if total_violations else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecomine",
        description="Mine species, location, habitat, and ecosystem entities from an invasion-biology corpus.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="validate logs every warning, not 3 per code")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--corpus", help="corpus file (line-delimited records)")
    parser.add_argument("--provider", choices=["mock", "endpoint"], help="completion provider")
    parser.add_argument("--endpoint", help="chat-completions endpoint URL")
    parser.add_argument("--model", help="model name for the endpoint provider")
    parser.add_argument("--api-key-var", dest="api_key_var", help="env var holding the credential")
    parser.add_argument("--seed", type=int, help="RNG seed for sampling")
    parser.add_argument("--parallelism", type=int, help="max in-flight requests")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="harvest records for a DOI list into the corpus")
    p.add_argument("--dois", required=True, help="file with one DOI per line")
    p.add_argument("--base-url", dest="base_url", help="harvest API base URL")
    p.add_argument("--fixtures", help="directory of canned harvest responses")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="corpus availability and token statistics")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("specialize", help="propose per-paper candidate schemas for a sample")
    p.add_argument("--out", required=True, help="candidates file to write (one JSON per line)")
    p.add_argument("--sample-size", dest="sample_size", type=int)
    p.add_argument("--exclude", help="file of DOIs to keep out of the draw")
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("generalize", help="merge candidates into standardized schema variants")
    p.add_argument("--candidates", required=True, help="candidates file from specialize")
    p.add_argument("--out-dir", dest="out_dir", required=True, help="directory for schema variants")
    p.add_argument("--variants", type=int, help="provider-merged variants to request")
    p.add_argument("--select", type=int, help="variant index to adopt (default 0, the deterministic merge)")
    p.set_defaults(func=cmd_generalize)

    p = sub.add_parser("extract", help="populate the schema for every paper with an abstract")
    p.add_argument("--schema", required=True, help="standardized schema JSON file")
    p.add_argument("--results", required=True, help="results file (one JSON per line)")
    p.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", help="aggregate frequency tables and linkages from results")
    p.add_argument("--results", required=True)
    p.add_argument("--out", help="output directory (csv) or file (markdown)")
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.add_argument("--top", type=int, help="rows per top-species table")
    p.add_argument(
        "--filter-generic",
        dest="filter_generic",
        action="store_true",
        help="drop generic species-name noise (e.g. 'native plants')",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="check results against a schema; nonzero exit on violations")
    p.add_argument("--results", required=True)
    p.add_argument("--schema", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = resolve_config(args)
        return args.func(args, config)
    except (EcomineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
