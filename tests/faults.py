"""Deterministic faults: a provider whose extract replies follow a
per-DOI schedule, a harvest client whose fetches do, and a run in a
forked child that ends with os._exit at one chosen write or fetch, so no
finally block, flush or atexit hook runs after it, as after a SIGKILL.

Fork before the run starts its worker threads: the child calls the run,
so every thread it starts is its own.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ecomine.errors import RetryableTransportError, TransportError
from ecomine.gateway import Gate, RateLimitPolicy
from ecomine.harvest import FixtureHarvestClient
from ecomine.mockllm import MockProvider
from ecomine.prompts import build_paper_user_prompt

PROSE = "I am sorry, but I cannot list the entities in this abstract."
FAULTS = ("prose", "truncated")
HARVEST_FAULTS = ("retryable", "hard")

#: exit codes of a forked run
CRASHED, FINISHED, FAILED = 86, 0, 1

#: a forked run still going after this is killed and fails the test
TIMEOUT_S = 30.0


class FaultyProvider:
    """The mock, except that a DOI the schedule maps to "prose" is answered
    with prose, and one mapped to "truncated" with the first half of the
    mock's reply. Both quarantine the paper. Records the DOI of every send."""

    provider_id = "faulty"

    def __init__(self, store, schedule: dict[str, str]) -> None:
        self.inner = MockProvider()
        self.schedule = schedule
        self.doi_of = {build_paper_user_prompt(r): r.doi for r in store.available_records() if r.title and r.abstract}
        self.sent: list[str] = []

    def send(self, system: str, user: str, deterministic: bool = True) -> str:
        raw = self.inner.send(system, user, deterministic=deterministic)
        doi = self.doi_of[user]
        self.sent.append(doi)
        fault = self.schedule.get(doi)
        if fault == "prose":
            return PROSE
        if fault == "truncated":
            return raw[: len(raw) // 2]
        return raw


class FaultyHarvestClient:
    """The fixture client behind an unpaced Gate, as HttpHarvestClient is
    by default, so harvest's retry rule applies. The schedule maps a DOI
    to the faults of its first attempts, in order: "retryable" is a 429,
    "hard" a 403; later attempts read the fixture. kill_at ends the
    process at the start of the n-th fetch. Records the DOI of every
    fetch."""

    def __init__(
        self, directory, schedule: dict[str, list[str]], policy: RateLimitPolicy, *, kill_at: int | None = None
    ) -> None:
        self.inner = FixtureHarvestClient(directory)
        self.schedule = {doi: list(faults) for doi, faults in schedule.items()}
        self.gate = Gate(policy, paced=False, sleep=lambda s: None)
        self.kill_at = kill_at
        self.fetched: list[str] = []

    def fetch(self, doi: str) -> dict | None:
        self.fetched.append(doi)
        if len(self.fetched) == self.kill_at:
            os._exit(CRASHED)
        return self.gate.call(lambda: self._attempt(doi), f"harvest {doi}")

    def _attempt(self, doi: str) -> dict | None:
        fault = self.schedule[doi].pop(0) if self.schedule.get(doi) else None
        if fault == "retryable":
            raise RetryableTransportError("scripted 429", 429)
        if fault == "hard":
            raise TransportError("scripted 403", 403)
        return self.inner.fetch(doi)


@dataclass(frozen=True)
class CrashPoint:
    """Where a forked run ends.

    - ``("flushed", n)``: right after the n-th line of the results file
      (or of the corpus, in an ingest) is flushed;
    - ``("results" | "tmp", n, k)``: after the first k bytes of the n-th
      write to the results file or to an atomic write's ``.tmp`` file (all
      of it, if shorter);
    - ``("replace", n)``: just before the n-th ``os.replace``, of a
      checkpoint document or of compaction.
    """

    kind: str
    n: int
    k: int = 0


class _Writer:
    """A text file opened for writing that counts writes and flushes."""

    def __init__(self, handle, kind: str, reached) -> None:
        self.handle, self.kind, self.reached = handle, kind, reached

    def write(self, text: str) -> int:
        cut = self.reached(self.kind)
        if cut is not None:
            self.handle.flush()
            self.handle.buffer.write(text.encode("utf-8")[:cut])
            self.handle.buffer.flush()
            os._exit(CRASHED)
        return self.handle.write(text)

    def flush(self) -> None:
        self.handle.flush()
        if self.kind == "results" and self.reached("flushed") is not None:
            os._exit(CRASHED)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.handle.close()

    def __getattr__(self, name):
        return getattr(self.handle, name)


def _install(crash: CrashPoint, results: Path) -> None:
    """Route the child's file writes and renames through crash's counters:
    extract writes only the results file and .tmp files; ingest, given its
    corpus as results, only the corpus and .tmp files. A write to any other
    file raises, so no log can slip out of the crash points."""
    counts: Counter = Counter()
    real_open, real_replace = pathlib.Path.open, os.replace

    def reached(kind: str) -> int | None:
        counts[kind] += 1
        return crash.k if (kind, counts[kind]) == (crash.kind, crash.n) else None

    def open_(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        if not set(mode) & set("wa"):
            return handle
        if path != results and not path.name.endswith(".tmp"):
            handle.close()
            raise AssertionError(f"a write to {path}, which no crash point covers")
        return _Writer(handle, "results" if path == results else "tmp", reached)

    def replace(src, dst, *args, **kwargs):
        if reached("replace") is not None:
            os._exit(CRASHED)
        return real_replace(src, dst, *args, **kwargs)

    pathlib.Path.open = open_
    os.replace = replace


def run_crashed(crash: CrashPoint | None, run, results: Path) -> bool:
    """Call run() in a forked child that ends at crash, or where run ends
    itself with os._exit(CRASHED) when crash is None. True if it ended
    there, False if the run returned first; a run that raises fails."""
    pid = os.fork()
    if pid == 0:
        code = FINISHED
        try:
            if crash is not None:
                _install(crash, Path(results))
            run()
        except Exception:
            traceback.print_exc()
            code = FAILED
        finally:
            os._exit(code)
    deadline = time.monotonic() + TIMEOUT_S
    while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError(f"forked run still going after {TIMEOUT_S} s")
        time.sleep(0.001)
    code = os.waitstatus_to_exitcode(ended[1])
    assert code in (CRASHED, FINISHED), f"forked run ended with {code}; a traceback is on stderr if it raised"
    return code == CRASHED


def committed(log: Path, checkpoint: Path | None = None) -> set[str]:
    """The DOIs whose record was complete on disk: each line of the log (a
    results file or a corpus) that ends in a newline. Given a checkpoint,
    only the lines past its offset, and none while it does not exist, as
    extract then starts a run series to which no earlier line belongs."""
    lines = [line for line in log.read_bytes().split(b"\n")[:-1] if line.strip()] if log.exists() else []
    if checkpoint is not None:
        lines = lines[json.loads(checkpoint.read_bytes())["results_lines"]:] if checkpoint.exists() else []
    return {json.loads(line)["doi"] for line in lines}
