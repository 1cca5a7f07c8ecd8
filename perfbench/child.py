"""One launch of the program, run in its own process by run.py.

Usage: python3 child.py SPEC_JSON SPAWN_TIME

SPEC_JSON names the stage sequence ("full" or "extract"), the input and
output files, the provider, the rate policy and an optional planned
kill; SPAWN_TIME is the parent's time.monotonic() just before the
launch. The launch calls the library entry points the CLI calls, and
writes a JSON report to spec["report"] when it ends, or just before it
SIGKILLs itself at the planned provider call.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ecomine import analytics, pipeline  # noqa: E402
from ecomine.corpus import CorpusStore, atomic_write_text, compute_stats, export_corpus  # noqa: E402
from ecomine.gateway import LlmGateway, RateLimitPolicy  # noqa: E402
from ecomine.harvest import FixtureHarvestClient, ingest_dois  # noqa: E402
from ecomine.mockllm import MockProvider  # noqa: E402
from ecomine.pipeline import (  # noqa: E402
    StageConfig,
    load_candidates,
    load_schema_file,
    run_generalize,
    run_specialize,
)
from ecomine.schema import candidate_to_dict, schema_to_json, validate_result  # noqa: E402

from doubles import LatencyProvider, RecordingProvider, RecordingSleep, prompt_key  # noqa: E402
from tracer import Tracer  # noqa: E402


def written_bytes() -> int:
    """Bytes this process has passed to write(2) so far; 0 where unknown."""
    try:
        with open("/proc/self/io", encoding="ascii") as stats:
            for line in stats:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _key_of_prompt(prompt, *_args, **_kwargs):
    return prompt_key(getattr(prompt, "user", "") or "")


def _key_of_send(_system=None, user="", *_args, **_kwargs):
    return prompt_key(user or "")


def _doi_of_record(record=None, *_args, **_kwargs):
    return getattr(record, "doi", None)


def _doi_of_response(_raw=None, doi=None, *_args, **_kwargs):
    return doi if isinstance(doi, str) else None


class Launch:
    def __init__(self, spec: dict, spawned: float) -> None:
        self.spec = spec
        self.out = Path(spec["out"])
        self.report: dict = {
            "t_spawn": spawned,
            "stages": {},
            "killed": False,
        }
        policy = RateLimitPolicy(**spec["policy"])
        self.config = StageConfig(
            sample_size=10,
            generalize_variants=3,
            parallelism=spec["parallelism"],
            rate_policy=policy,
            rng_seed=spec["seed"],
        )
        self.tracer = Tracer() if spec["trace"] else None
        self.mock = MockProvider()
        inner = self.mock
        if spec["latency"]:
            inner = LatencyProvider(self.mock, seed=spec["provider_seed"], **spec["latency"])
        self.provider = RecordingProvider(inner, kill_at=spec["kill_at"], on_kill=self.on_kill)
        self.sleeper = RecordingSleep()
        sleep = self.sleeper
        self.completes: list[list] = []
        if self.tracer is not None:
            self._install_trace_points()
            sleep = self.tracer.traced(self.sleeper, "gateway.backoff")
        self.gateway = LlmGateway(self.provider, policy, sleep=sleep)
        self._time_completes()
        if self.tracer is not None:
            self.tracer.wrap(self.gateway, "complete", "gateway.complete", _key_of_prompt)

    def _install_trace_points(self) -> None:
        tracer = self.tracer
        tracer.wrap(pipeline, "build_extract_prompt", "prompts.build_extract_prompt", _doi_of_record)
        tracer.wrap(pipeline, "parse_result", "schema.parse_result", _doi_of_response)
        tracer.wrap(pipeline, "load_results", "pipeline.load_results")
        tracer.wrap(pipeline, "_compact_results", "pipeline.compact")
        checkpoint = getattr(pipeline, "Checkpoint", None)
        tracer.wrap(checkpoint, "save", "pipeline.checkpoint_save")
        tracer.wrap(checkpoint, "load", "pipeline.checkpoint_load")
        tracer.wrap(CorpusStore, "load", "corpus.load")
        tracer.wrap(self.mock, "send", "mockllm.send", _key_of_send)
        tracer.wrap(self.provider, "send", "provider.send", _key_of_send)

    def _time_completes(self) -> None:
        """Record the latency of every gateway call as the stage sees it."""
        complete = self.gateway.complete
        provider = self.provider
        records = self.completes

        def timed(prompt):
            start = time.monotonic()
            record = [provider.stage, start, None]
            records.append(record)
            try:
                return complete(prompt)
            finally:
                record[2] = time.monotonic() - start

        self.gateway.complete = timed

    @contextmanager
    def span(self, name: str):
        if self.tracer is None:
            yield
            return
        token = self.tracer.open(name)
        try:
            yield
        finally:
            self.tracer.close(token)

    @contextmanager
    def stage(self, name: str):
        self.provider.stage = name
        start = time.monotonic()
        self.report["stages"][name] = [start, None]
        token = None
        if self.tracer is not None:
            token = self.tracer.open("stage." + name)
            self.tracer.root = token[0]
        try:
            yield
        finally:
            if token is not None:
                self.tracer.root = None
                self.tracer.close(token)
            self.report["stages"][name][1] = time.monotonic()

    # -- workloads -------------------------------------------------------

    def run_full(self) -> None:
        """ingest -> stats -> specialize -> generalize -> extract -> analyze -> validate."""
        spec, out, config, gateway = self.spec, self.out, self.config, self.gateway
        corpus_path = out / "corpus.jsonl"
        schema_dir = out / "schemas"
        self.report["t_ready"] = time.monotonic()

        with self.stage("ingest"):
            dois = [
                line.strip()
                for line in Path(spec["dois"]).read_text(encoding="utf-8").splitlines()
                if line.strip()
            ]
            store = CorpusStore()
            with self.span("harvest.ingest"):
                summary = ingest_dois(
                    store, dois, FixtureHarvestClient(spec["fixtures"]), parallelism=config.parallelism
                )
            with self.span("corpus.export"):
                export_corpus(store, corpus_path, fmt="jsonl")
            atomic_write_text(
                corpus_path.with_suffix(".skipped.log"),
                "".join(f"missing\t{doi}\n" for doi in summary.missing)
                + "".join(f"malformed\t{doi}\n" for doi in summary.malformed),
            )
            self.report["ingest"] = {
                "found": summary.found,
                "missing": len(summary.missing),
                "malformed": len(summary.malformed),
            }

        with self.stage("stats"):
            store = CorpusStore.load(corpus_path)
            with self.span("corpus.stats"):
                stats = compute_stats(store)
            self.report["stats_total"] = stats.total

        with self.stage("specialize"):
            outcome = run_specialize(CorpusStore.load(corpus_path), config, gateway)
            atomic_write_text(
                out / "candidates.jsonl",
                "".join(
                    json.dumps(
                        {"doi": c.paper_doi, "blocks": candidate_to_dict(c)},
                        ensure_ascii=False,
                        sort_keys=True,
                    )
                    + "\n"
                    for c in outcome.candidates
                ),
            )

        with self.stage("generalize"):
            merged = run_generalize(load_candidates(out / "candidates.jsonl"), config, gateway)
            schema_dir.mkdir(parents=True, exist_ok=True)
            for index, variant in enumerate(merged.variants):
                atomic_write_text(schema_dir / f"variant_{index}.json", schema_to_json(variant) + "\n")
            atomic_write_text(schema_dir / "chosen.json", schema_to_json(merged.chosen) + "\n")

        self.extract(corpus_path, schema_dir / "chosen.json")

        with self.stage("analyze"):
            with self.span("analytics.analyze"):
                results = pipeline.load_results(spec["results"])
                tables = [analytics.role_inventory(results, None)]
                for role in ("invasive", "native", "introduced"):
                    tables.append(analytics.top_species(results, role, 10, None))
                for granularity in ("country", "region", "city"):
                    tables.append(analytics.location_frequencies(results, granularity))
                ecosystems = analytics.ecosystem_frequencies(results)
                tables.extend([ecosystems.names, ecosystems.types])
                pairs = analytics.habitat_linkages(results)
                analytics.emit_report(tables, pairs, out / "reports", fmt="csv")

        with self.stage("validate"):
            with self.span("schema.validate"):
                schema = load_schema_file(schema_dir / "chosen.json")
                results = pipeline.load_results(spec["results"])
                self.report["violations"] = sum(
                    len(validate_result(result, schema).violations)
                    for result in sorted(results, key=lambda r: r.paper_doi)
                )

    def run_extract_only(self) -> None:
        self.extract(Path(self.spec["corpus"]), Path(self.spec["schema"]))

    def extract(self, corpus_path: Path, schema_path: Path) -> None:
        store = CorpusStore.load(corpus_path)
        schema = load_schema_file(schema_path)
        with self.stage("extract"):
            written = written_bytes()
            with self.span("pipeline.run_extract"):
                summary = pipeline.run_extract(
                    store,
                    schema,
                    self.config,
                    self.gateway,
                    results_path=self.spec["results"],
                    checkpoint_path=self.spec["checkpoint"],
                )
            self.report["bytes_written"] = written_bytes() - written
        self.report["summary"] = {
            "processed": summary.processed,
            "extracted": summary.extracted,
            "out_of_scope": summary.out_of_scope,
            "quarantined": summary.quarantined,
        }

    # -- reporting -------------------------------------------------------

    def on_kill(self) -> None:
        self.report["killed"] = True
        self.report["t_kill"] = time.monotonic()
        self.write_report()

    def write_report(self) -> None:
        report = dict(self.report)
        report["sends"] = list(self.provider.sends)
        report["completes"] = list(self.completes)
        report["sleeps"] = list(self.sleeper.calls)
        report["spans"] = list(self.tracer.spans) if self.tracer is not None else []
        Path(self.spec["report"]).write_text(json.dumps(report), encoding="utf-8")


def main(argv: list[str]) -> int:
    spawned = float(argv[2])
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    logging.basicConfig(
        filename=spec["log"],
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    launch = Launch(spec, spawned)
    if spec["stages"] == "full":
        launch.run_full()
    else:
        launch.run_extract_only()
    launch.report["t_done"] = time.monotonic()
    launch.write_report()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
