"""ecomine benchmark: one workload, measured end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-scale --seed 1 --seconds 40 --trace 0

Workloads: paper-scale, rate-capped, kill-resume (see perfbench/README.md).
The run generates its inputs from --seed, then launches the program in
child processes, one at a time, until --seconds have passed, and checks
every launch's outputs. It prints a table of metrics and, as its last
line, one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from stats import max_in_window, median, percentile, tail_percentile
from tracer import Span, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUTPUT = ROOT / ".perfbench"  # work directories and traces; git-ignored

#: Worker threads the pipeline gets; at most the machine's CPUs.
PARALLELISM = min(2, len(os.sched_getaffinity(0)))
#: Records in the paper's corpus; the large workloads use a tenth of it.
PAPER_RECORDS = 12_636
#: A hung launch is killed after this; no iteration starts after the budget,
#: so a run ends well within three minutes.
LAUNCH_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0

NON_BINDING = {"max_requests_per_window": 1_000_000, "window": 1.0, "max_retries": 3, "backoff_base": 0.05}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    records: int
    stages: str  # "full": the whole CLI workflow; "extract": the extract stage only
    policy: dict
    latency: dict | None = None
    kills: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-scale",
            "full offline workflow on the mock; checkpoint rewrite, mock scan, prompt build, "
            "compaction and aggregation do their work while the limiter does nothing",
            records=PAPER_RECORDS // 10,
            stages="full",
            policy=NON_BINDING,
        ),
        Workload(
            "rate-capped",
            "extract against a seeded-latency provider with 429s under a binding rate cap; "
            "wall time is set by the limiter, retries and latency",
            records=200,
            stages="extract",
            policy={"max_requests_per_window": 80, "window": 2.0, "max_retries": 3, "backoff_base": 0.05},
            latency={"median_s": 0.025, "sigma": 0.5, "error_share": 0.02},
        ),
        Workload(
            "kill-resume",
            "extract against a seeded-latency provider, SIGKILLed at seeded provider calls and relaunched "
            "until done; checkpoint load, resume scan and repeated paid calls",
            records=300,
            stages="extract",
            policy=NON_BINDING,
            latency={"median_s": 0.025, "sigma": 0.5, "error_share": 0.0},
            kills=3,
        ),
    )
}

#: (name, unit) of the end-to-end metrics the untraced run's JSON line carries.
END_TO_END = (
    ("setup_s", "s"),
    ("workflow_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: End-to-end figures that are printed but not in that line. On paper-scale
#: the first is the checkpoint rewrite's disk latency alone (workflow_s
#: carries it, beside the other stages), and the call latencies and
#: rate_bound_share are the mock's interpreter-lock hand-offs: all swing
#: from run to run more than a bound allows. The last two read 0 on some
#: workload or commit. The traced run's JSON line carries them, from its
#: untraced iterations.
REPORTED = (
    ("extract_papers_per_s", "papers/s"),
    ("call_latency_p50_ms", "ms"),
    ("call_latency_tail_ms", "ms"),
    ("rate_bound_share", "ratio"),
    ("resume_s", "s"),
    ("repeated_calls_per_kill", "calls"),
)
PER_LAYER = REPORTED + (
    ("failed_share", "ratio"),
    ("pipeline.extract_s", "s"),
    ("pipeline.extract_busy_s", "s"),
    ("pipeline.extract_self_s", "s"),
    ("pipeline.checkpoint_saves", "count"),
    ("pipeline.checkpoint_save_s", "s"),
    ("pipeline.checkpoint_save_busy_s", "s"),
    ("pipeline.checkpoint_save_wait_s", "s"),
    ("pipeline.bytes_written", "bytes"),
    ("pipeline.checkpoint_load_s", "s"),
    ("pipeline.resume_scan_s", "s"),
    ("pipeline.useful_call_share", "ratio"),
    ("pipeline.compact_s", "s"),
    ("pipeline.load_results_s", "s"),
    ("prompts.extract_build_us", "us"),
    ("prompts.extract_build_wall_us", "us"),
    ("mockllm.send_cpu_us", "us"),
    ("mockllm.send_wall_us", "us"),
    ("gateway.calls", "count"),
    ("gateway.attempts", "count"),
    ("gateway.retries", "count"),
    ("gateway.limiter_wait_p50_ms", "ms"),
    ("gateway.limiter_wait_tail_ms", "ms"),
    ("gateway.limiter_wait_share", "ratio"),
    ("gateway.provider_send_share", "ratio"),
    ("gateway.backoff_share", "ratio"),
    ("gateway.backoff_s", "s"),
    ("gateway.max_calls_in_window", "count"),
    ("gateway.provider_send_p50_ms", "ms"),
    ("schema.parse_result_us", "us"),
    ("schema.parse_result_wall_us", "us"),
    ("schema.validate_s", "s"),
    ("analytics.analyze_s", "s"),
    ("corpus.load_s", "s"),
    ("corpus.export_s", "s"),
    ("corpus.stats_s", "s"),
    ("harvest.ingest_s", "s"),
    ("harvest.records_found", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
)


@dataclass
class Inputs:
    directory: Path
    truth: gen.GroundTruth
    schema_text: str
    reference: str  # the compacted results file of an uninterrupted run
    reference_violations: int
    doi_of_key: dict[str, str]


@dataclass
class LaunchResult:
    report: dict | None
    exit_code: int
    rss_mb: float
    committed_after: set[str] = field(default_factory=set)  # DOIs in the results file at exit


@dataclass
class Iteration:
    traced: bool
    launches: list[LaunchResult] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)  # extract-stage gateway calls, seconds
    resumes: list[float] = field(default_factory=list)  # relaunch to first provider call, seconds
    repeated: int = 0  # calls for DOIs already in the results file at the previous kill
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


# -- inputs ------------------------------------------------------------------


def prepare(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the inputs and the reference outputs they must produce."""
    from doubles import prompt_key
    from ecomine.corpus import CorpusStore
    from ecomine.gateway import LlmGateway, RateLimitPolicy
    from ecomine.harvest import fixture_filename
    from ecomine.mockllm import MockProvider
    from ecomine.pipeline import StageConfig, run_generalize, run_specialize
    from ecomine.prompts import build_extract_prompt
    from ecomine.schema import parse_result, schema_to_json, serialize_result, validate_result

    data = SRC / "ecomine" / "data"
    _, truth = gen.write_inputs(
        directory, seed, workload.records, data / "rulebook.json", data / "sample_corpus.jsonl", fixture_filename
    )
    store = CorpusStore.load(directory / "corpus.jsonl")
    policy = RateLimitPolicy(**NON_BINDING)
    config = StageConfig(parallelism=PARALLELISM, rate_policy=policy, rng_seed=seed)
    gateway = LlmGateway(MockProvider(), policy)
    candidates = run_specialize(store, config, gateway).candidates
    schema = run_generalize(candidates, config, gateway).chosen
    schema_text = schema_to_json(schema) + "\n"
    (directory / "schema.json").write_text(schema_text, encoding="utf-8")

    mock = MockProvider()
    lines = []
    violations = 0
    doi_of_key = {}
    for record in store.available_records():
        prompt = build_extract_prompt(record, schema)
        doi_of_key[prompt_key(prompt.user)] = record.doi
        result = parse_result(mock.send(prompt.system, prompt.user), record.doi)
        violations += len(validate_result(result, schema).violations)
        lines.append(serialize_result(result) + "\n")
    return Inputs(directory, truth, schema_text, "".join(lines), violations, doi_of_key)


# -- launching ---------------------------------------------------------------


def launch(spec: dict, directory: Path) -> LaunchResult:
    """Run one child to completion (or its planned death) and reap it."""
    spec_path = directory / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    report_path = Path(spec["report"])
    with open(directory / "stderr.txt", "wb") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path), repr(spawned)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            cwd=ROOT,
        )
        watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.exists() else None
    return LaunchResult(report, proc.returncode, usage.ru_maxrss / 1024)


def committed_dois(results: Path) -> set[str]:
    """DOIs with a complete line in a results file."""
    if not results.exists():
        return set()
    dois = set()
    for line in results.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.endswith("\n") and line.strip():
            try:
                dois.add(json.loads(line)["doi"])
            except (ValueError, KeyError, TypeError):
                pass
    return dois


def launch_spec(workload: Workload, inputs: Inputs, seed: int, directory: Path, name: str, **settings) -> tuple[dict, Path]:
    launch_dir = directory / name
    launch_dir.mkdir()
    spec = {
        "stages": workload.stages,
        "seed": seed,
        "provider_seed": seed,
        "trace": False,
        "kill_at": None,
        "parallelism": PARALLELISM,
        "policy": workload.policy,
        "latency": workload.latency,
        "corpus": str(inputs.directory / "corpus.jsonl"),
        "schema": str(inputs.directory / "schema.json"),
        "dois": str(inputs.directory / "dois.txt"),
        "fixtures": str(inputs.directory / "fixtures"),
        "out": str(directory),
        "results": str(directory / "results.jsonl"),
        "checkpoint": str(directory / "checkpoint.json"),
        "report": str(launch_dir / "report.json"),
        "log": str(launch_dir / "program.log"),
        **settings,
    }
    return spec, launch_dir


def setup_time(workload: Workload, report: dict) -> float:
    """Child start to the program being ready (see README: setup_s)."""
    if workload.stages == "full":
        return report["t_ready"] - report["t_spawn"]
    return first_extract_send(report) - report["t_spawn"]


def ended_as_planned(iteration: Iteration, what: str, result: LaunchResult, killed: bool, launch_dir: Path) -> bool:
    """Check a launch's exit: its own SIGKILL when a kill was planned, else 0."""
    if killed:
        ok = result.exit_code == -signal.SIGKILL and (result.report or {}).get("killed") is True
    else:
        ok = result.exit_code == 0 and result.report is not None
    iteration.check(f"{what} ended as planned", ok, f"exit code {result.exit_code}")
    if not ok:
        tail = (launch_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"{what} failed:\n{tail}", file=sys.stderr)
    return ok


def run_iteration(workload: Workload, inputs: Inputs, seed: int, index: int, traced: bool, work: Path) -> Iteration:
    """The workload's launches, then the output checks."""
    iteration = Iteration(traced=traced)
    directory = work / f"iteration-{index}"
    directory.mkdir(parents=True)
    results = directory / "results.jsonl"
    rng = random.Random(f"{seed}:{index}")
    plan = [rng.randint(workload.records // 8, workload.records // 4) for _ in range(workload.kills)]
    for number, kill_at in enumerate(plan + [None]):
        spec, launch_dir = launch_spec(
            workload,
            inputs,
            seed,
            directory,
            f"launch-{number}",
            trace=traced,
            kill_at=kill_at,
            provider_seed=f"{seed}:{index}",  # fresh provider latencies per iteration
        )
        result = launch(spec, launch_dir)
        result.committed_after = committed_dois(results)
        iteration.launches.append(result)
        if not ended_as_planned(iteration, f"launch {number}", result, kill_at is not None, launch_dir):
            return iteration
    check_outputs(workload, inputs, iteration, results, directory)
    return iteration


# -- checks ------------------------------------------------------------------


def check_outputs(workload: Workload, inputs: Inputs, iteration: Iteration, results: Path, directory: Path) -> None:
    truth = inputs.truth
    final = iteration.launches[-1].report if iteration.launches[-1].exit_code == 0 else None
    summary = (final or {}).get("summary")
    if summary is None:
        iteration.check("run completed", False, "no summary from the final launch")
    else:
        conserved = summary["extracted"] + summary["out_of_scope"] + summary["quarantined"] == summary["processed"]
        iteration.check(
            "extracted + out_of_scope + quarantined = processed = records",
            conserved and summary["processed"] == truth.records,
            json.dumps(summary),
        )
        iteration.check(
            "out_of_scope equals ground truth",
            summary["out_of_scope"] == truth.out_of_domain,
            f"{summary['out_of_scope']} vs {truth.out_of_domain}",
        )
        iteration.check(
            "results equal an uninterrupted run's",
            results.exists() and results.read_text(encoding="utf-8") == inputs.reference,
        )
    if workload.stages == "full" and final is not None:
        iteration.check("validate_result reports zero violations", final.get("violations") == 0, str(final.get("violations")))
        ingest = final.get("ingest", {})
        iteration.check(
            "ingest counts match ground truth",
            (ingest.get("found"), ingest.get("missing"), ingest.get("malformed"))
            == (truth.records, truth.missing, truth.malformed),
            json.dumps(ingest),
        )
        chosen = directory / "schemas" / "chosen.json"
        iteration.check(
            "generalize chose the reference schema",
            chosen.exists() and chosen.read_text(encoding="utf-8") == inputs.schema_text,
        )
    else:
        iteration.check("validate_result reports zero violations", inputs.reference_violations == 0)
    sends = [s[1] for launch in iteration.launches if launch.report for s in launch.report["sends"]]
    cap = workload.policy["max_requests_per_window"]
    busiest = max_in_window(sends, workload.policy["window"])
    iteration.check("no window of sends exceeds the cap", busiest <= cap, f"{busiest} > {cap}")


# -- metrics -----------------------------------------------------------------


def extract_window(report: dict) -> tuple[float, float]:
    start, end = report["stages"]["extract"]
    return start, end if end is not None else report["t_kill"]


def first_extract_send(report: dict) -> float:
    return min(s[1] for s in report["sends"] if s[0] == "extract")


def measure_iteration(workload: Workload, iteration: Iteration, inputs: Inputs) -> None:
    """Figures of one iteration that need no spans, from its launch reports."""
    reports = [launch.report for launch in iteration.launches]
    first = reports[0]
    sends = [s for report in reports for s in report["sends"] if s[0] == "extract"]
    calls = [c for report in reports for c in report["completes"] if c[0] == "extract"]
    windows = [extract_window(report) for report in reports]
    backoffs = [
        seconds
        for report, (start, end) in zip(reports, windows)
        for at, seconds in report["sleeps"]
        if start <= at <= end
    ]
    send_durations = [s[2] for s in sends if s[2] is not None]
    extract_time = sum(end - start for start, end in windows)
    if workload.stages == "full":
        workflow = first["stages"]["validate"][1] - first["stages"]["ingest"][0]
    elif workload.kills:
        # each launch's own span, so the benchmark's work between launches is not counted
        workflow = sum(report.get("t_done", report.get("t_kill")) - report["t_spawn"] for report in reports)
    else:
        workflow = extract_time
    policy = workload.policy
    bound = min(
        PARALLELISM * len(send_durations) / sum(send_durations),
        policy["max_requests_per_window"] / policy["window"],
    )
    iteration.latencies = [c[2] for c in calls if c[2] is not None]
    iteration.resumes = [first_extract_send(report) - report["t_spawn"] for report in reports[1:]]
    iteration.repeated = sum(
        1
        for before, after in zip(iteration.launches, iteration.launches[1:])
        for s in after.report["sends"]
        if s[0] == "extract" and inputs.doi_of_key.get(s[3]) in before.committed_after
    )
    iteration.e2e = {
        "setup_s": setup_time(workload, first),
        "workflow_s": workflow,
        "extract_papers_per_s": inputs.truth.records / extract_time,
        "rate_bound_share": len(sends) / extract_time / bound,
        "peak_rss_mb": max(launch.rss_mb for launch in iteration.launches),
    }
    iteration.layers.update(
        {
            "gateway.calls": float(len(calls)),
            "gateway.attempts": float(len(sends)),
            "gateway.retries": float(len(backoffs)),  # the gateway sleeps before every retry
            "gateway.backoff_s": sum(backoffs),
            "gateway.max_calls_in_window": float(max_in_window([s[1] for s in sends], policy["window"])),
            "gateway.provider_send_p50_ms": percentile(send_durations, 50) * 1e3,
            "pipeline.useful_call_share": inputs.truth.records / len(sends),
            "pipeline.bytes_written": float(sum(report.get("bytes_written", 0) for report in reports)),
            "pipeline.resume_scan_s": median(
                first_extract_send(report) - report["stages"]["extract"][0] for report in reports
            ),
            "harvest.records_found": float(first.get("ingest", {}).get("found", 0)),
        }
    )


#: Spans counted only inside the extract stage, where they are per-paper work.
PER_CALL = {"mockllm.send", "provider.send", "gateway.complete", "gateway.backoff"}


def measure_spans(iteration: Iteration) -> None:
    """Per-layer figures from the spans of a traced iteration."""
    wall: dict[str, float] = {}
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    limiter_waits: list[float] = []
    extract_self = 0.0
    span_count = 0
    for launch in iteration.launches:
        spans = [Span(*s) for s in launch.report["spans"]]
        span_count += len(spans)
        own = self_times(spans)
        start, end = extract_window(launch.report)
        for span in spans:
            if span.name in PER_CALL and not start <= span.start <= end:
                continue
            wall[span.name] = wall.get(span.name, 0.0) + span.duration
            busy[span.name] = busy.get(span.name, 0.0) + span.cpu
            counts[span.name] = counts.get(span.name, 0) + 1
            if span.name == "gateway.complete":
                # complete minus provider send minus backoff sleep
                limiter_waits.append(own[span.id])
            elif span.name == "pipeline.run_extract":
                extract_self += own[span.id]

    def per_call_us(name: str, seconds: dict[str, float]) -> float:
        return seconds[name] / counts[name] * 1e6 if counts.get(name) else 0.0

    def tail_ms(values: list[float]) -> float:
        return percentile(values, tail_percentile(len(values))) * 1e3 if values else 0.0

    complete_time = wall.get("gateway.complete") or 1.0
    iteration.layers.update(
        {
            "pipeline.extract_s": wall.get("pipeline.run_extract", 0.0),
            "pipeline.extract_busy_s": busy.get("pipeline.run_extract", 0.0),
            "pipeline.extract_self_s": extract_self,
            "pipeline.checkpoint_saves": float(counts.get("pipeline.checkpoint_save", 0)),
            "pipeline.checkpoint_save_s": wall.get("pipeline.checkpoint_save", 0.0),
            "pipeline.checkpoint_save_busy_s": busy.get("pipeline.checkpoint_save", 0.0),
            "pipeline.checkpoint_save_wait_s": wall.get("pipeline.checkpoint_save", 0.0)
            - busy.get("pipeline.checkpoint_save", 0.0),
            "pipeline.checkpoint_load_s": wall.get("pipeline.checkpoint_load", 0.0),
            "pipeline.compact_s": wall.get("pipeline.compact", 0.0),
            "pipeline.load_results_s": wall.get("pipeline.load_results", 0.0),
            "prompts.extract_build_us": per_call_us("prompts.build_extract_prompt", busy),
            "prompts.extract_build_wall_us": per_call_us("prompts.build_extract_prompt", wall),
            "mockllm.send_cpu_us": per_call_us("mockllm.send", busy),
            "mockllm.send_wall_us": per_call_us("mockllm.send", wall),
            "gateway.limiter_wait_p50_ms": percentile(limiter_waits, 50) * 1e3 if limiter_waits else 0.0,
            "gateway.limiter_wait_tail_ms": tail_ms(limiter_waits),
            "gateway.limiter_wait_share": sum(limiter_waits) / complete_time,
            "gateway.provider_send_share": wall.get("provider.send", 0.0) / complete_time,
            "gateway.backoff_share": wall.get("gateway.backoff", 0.0) / complete_time,
            "schema.parse_result_us": per_call_us("schema.parse_result", busy),
            "schema.parse_result_wall_us": per_call_us("schema.parse_result", wall),
            "schema.validate_s": wall.get("schema.validate", 0.0),
            "analytics.analyze_s": wall.get("analytics.analyze", 0.0),
            "corpus.load_s": wall.get("corpus.load", 0.0),
            "corpus.export_s": wall.get("corpus.export", 0.0),
            "corpus.stats_s": wall.get("corpus.stats", 0.0),
            "harvest.ingest_s": wall.get("harvest.ingest", 0.0),
            "trace.spans": float(span_count),
        }
    )


def end_to_end(workload: Workload, group: list[Iteration]) -> tuple[dict[str, float], str]:
    """Run-level end-to-end figures of a group of iterations, and a note on the tail.

    Per-iteration figures are summarised by their median. Call latencies
    are pooled over the group; the tail percentile is chosen so that one
    iteration alone has at least ten calls beyond it.
    """
    latencies = [x for it in group for x in it.latencies]
    tail = tail_percentile(min(len(it.latencies) for it in group))
    resumes = [x for it in group for x in it.resumes]
    kills = workload.kills * len(group)
    figures = {name: median(it.e2e[name] for it in group) for name in group[0].e2e}
    figures.update(
        {
            "call_latency_p50_ms": percentile(latencies, 50) * 1e3,
            "call_latency_tail_ms": percentile(latencies, tail) * 1e3,
            "resume_s": median(resumes) if resumes else 0.0,
            "repeated_calls_per_kill": sum(it.repeated for it in group) / kills if kills else 0.0,
        }
    )
    note = f"p{tail:g} of {len(latencies)} calls over {len(group)} iterations"
    return figures, note


# -- the run -----------------------------------------------------------------


def measure(workload: Workload, inputs: Inputs, seed: int, seconds: float, trace: bool, work: Path) -> list[Iteration]:
    """Iterate for `seconds`; with tracing, alternate off and on.

    No iteration starts that would, at the median pace so far, end after
    `seconds`, so a run takes about `seconds` whatever an iteration costs.
    """
    iterations: list[Iteration] = []
    durations: list[float] = []
    started = time.monotonic()
    minimum = 2 if trace else 1
    while len(iterations) < minimum or time.monotonic() - started + median(durations) <= seconds:
        traced = trace and len(iterations) % 2 == 1
        # write back the benchmark's own files (inputs, the last iteration's
        # deletions) now, not under the timed launches
        os.sync()
        begun = time.monotonic()
        iteration = run_iteration(workload, inputs, seed, len(iterations), traced, work)
        durations.append(time.monotonic() - begun)
        # its files would slow the file system under later iterations
        shutil.rmtree(work / f"iteration-{len(iterations)}")
        iterations.append(iteration)
        passed = all(ok for _, ok, _ in iteration.checks)
        if passed:
            measure_iteration(workload, iteration, inputs)
            if traced:
                measure_spans(iteration)
        summary = (iteration.launches[-1].report or {}).get("summary") or {}
        iteration.attempted = workload.records + len(iteration.launches) + len(iteration.checks)
        iteration.failed = summary.get("quarantined", 0) + sum(1 for _, ok, _ in iteration.checks if not ok)
        if not passed or time.monotonic() - started > RUN_BUDGET_S:
            break
    return iterations


def summarize(workload: Workload, iterations: list[Iteration], trace: bool) -> tuple[dict, list[str]]:
    """The result object and the table lines printed before it."""
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    failures = [f"FAILED {name}: {detail}" for it in iterations for name, ok, detail in it.checks if not ok]
    checks = sum(len(it.checks) for it in iterations)
    lines = [
        f"workload {workload.name}: {len(iterations)} iterations of {workload.records} records, "
        f"parallelism {PARALLELISM}",
        f"  why: {workload.why}",
        f"  checks: {checks - len(failures)} of {checks} passed",
        *(f"    {failure}" for failure in failures),
        f"    {'failed_share':<32} {failed / attempted:>14.4f} ratio  ({failed} of {attempted} operations)",
    ]
    result = {"correct": not failures and failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    if not result["correct"]:
        return result, lines

    plain = [it for it in iterations if not it.traced]
    figures, note = end_to_end(workload, plain)
    lines.append(f"  end to end, {len(plain)} untraced iterations:")
    for name, unit in END_TO_END + REPORTED:
        extra = f"  {note}" if name == "call_latency_tail_ms" else ""
        lines.append(f"    {name:<32} {figures[name]:>14.4f} {unit}{extra}")
    if not trace:
        result["metrics"] = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}
        return result, lines

    traced = [it for it in iterations if it.traced]
    traced_figures = {name: figures[name] for name, _ in REPORTED}
    traced_figures["failed_share"] = failed / attempted
    traced_figures["trace.overhead_share"] = (
        median(it.e2e["workflow_s"] for it in traced) / figures["workflow_s"] - 1
    )
    for name, _ in PER_LAYER:
        if name not in traced_figures:
            traced_figures[name] = median(it.layers[name] for it in traced)
    result["metrics"] = {name: {"value": traced_figures[name], "unit": unit} for name, unit in PER_LAYER}
    lines.append(f"  per layer, {len(traced)} traced iterations:")
    lines += [f"    {name:<32} {traced_figures[name]:>14.4f} {unit}" for name, unit in PER_LAYER[len(REPORTED) :]]
    return result, lines


def write_trace(workload: Workload, seed: int, iterations: list[Iteration], inputs: Inputs) -> Path:
    """Write the traced iterations' spans, one JSON object per line."""
    path = OUTPUT / "traces" / f"{workload.name}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as sink:
        for index, iteration in enumerate(iterations):
            if not iteration.traced:
                continue
            for number, launch in enumerate(iteration.launches):
                for raw in (launch.report or {}).get("spans", []):
                    span = Span(*raw)._asdict()
                    span.update(iteration=index, launch=number)
                    span["trace_id"] = inputs.doi_of_key.get(span["trace_id"], span["trace_id"])
                    sink.write(json.dumps(span) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ecomine" / "__init__.py").is_file():
        print(f"error: the program is missing: no package at {SRC / 'ecomine'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ecomine

    if Path(ecomine.__file__).resolve().parent != SRC / "ecomine":
        print(f"error: imported ecomine from {ecomine.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    quiet = logging.getLogger("ecomine")
    quiet.addHandler(logging.NullHandler())
    quiet.propagate = False

    workload = WORKLOADS[args.workload]
    work = OUTPUT / "work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        inputs = prepare(workload, args.seed, work / "inputs")
        iterations = measure(workload, inputs, args.seed, args.seconds, bool(args.trace), work)
        result, lines = summarize(workload, iterations, bool(args.trace))
        if args.trace:
            lines.append(f"  spans: {write_trace(workload, args.seed, iterations, inputs).relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"seed {args.seed}, {args.seconds:g} s measured")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
