"""Test doubles the benchmark injects into the program.

* ``LatencyProvider`` wraps the mock provider with seeded latency and
  seeded retryable 429s, so answers stay the mock's.
* ``RecordingProvider`` records every ``send`` and can SIGKILL its own
  process on the K-th extract call, after flushing what was recorded.
* ``RecordingSleep`` is the gateway's backoff ``sleep``.

Every random draw is a pure function of (seed, prompt, attempt), so a
workload behaves the same whatever order the worker threads run in.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import threading
import time
from statistics import NormalDist
from typing import Callable

from ecomine.errors import RetryableTransportError


def prompt_key(user: str) -> str:
    """Short stable digest of a user prompt; maps a call back to its paper."""
    return hashlib.blake2b(user.encode("utf-8"), digest_size=8).hexdigest()


def _uniforms(*parts: object) -> tuple[float, float]:
    digest = hashlib.blake2b("\0".join(map(str, parts)).encode("utf-8"), digest_size=16).digest()
    scale = float(2**64)
    # shift off 0 so inv_cdf never sees an endpoint
    return (
        (int.from_bytes(digest[:8], "big") + 0.5) / scale,
        (int.from_bytes(digest[8:], "big") + 0.5) / scale,
    )


class LatencyProvider:
    """Seeded-latency, seeded-429 wrapper around another provider.

    Each call sleeps a lognormal delay (median ``median_s``, log-sd
    ``sigma``). A share ``error_share`` of papers is refused with a
    retryable 429 on its first attempt only, after a fifth of the delay,
    so every paper succeeds within the gateway's retry budget.
    """

    provider_id = "latency-mock"

    def __init__(
        self,
        inner,
        seed: int | str,
        median_s: float,
        sigma: float,
        error_share: float,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.seed = seed
        self.median_s = median_s
        self.sigma = sigma
        self.error_share = error_share
        self._sleep = sleep
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}

    def draw(self, user: str, attempt: int) -> tuple[float, bool]:
        """(delay in seconds, refused with 429) for one attempt at one prompt."""
        u_delay, u_error = _uniforms(self.seed, attempt, user)
        delay = self.median_s * math.exp(self.sigma * NormalDist().inv_cdf(u_delay))
        return delay, attempt == 0 and u_error < self.error_share

    def send(self, system: str, user: str, deterministic: bool = True) -> str:
        with self._lock:
            attempt = self._attempts.get(user, 0)
            self._attempts[user] = attempt + 1
        delay, refused = self.draw(user, attempt)
        if refused:
            self._sleep(delay / 5)
            raise RetryableTransportError("simulated rate-limit refusal", 429)
        self._sleep(delay)
        return self.inner.send(system, user, deterministic=deterministic)


class RecordingProvider:
    """Records (stage, start, duration, prompt key) for every send.

    ``stage`` is set by the caller before each workflow stage. When
    ``kill_at`` is K, the K-th send of the extract stage calls
    ``on_kill`` and then SIGKILLs the process before the call is made.
    """

    def __init__(
        self,
        inner,
        kill_at: int | None = None,
        on_kill: Callable[[], None] | None = None,
    ) -> None:
        self.inner = inner
        self.provider_id = getattr(inner, "provider_id", "unknown")
        self.stage = "setup"
        self.sends: list[list] = []
        self.kill_at = kill_at
        self._on_kill = on_kill
        self._lock = threading.Lock()
        self._extract_sends = 0

    def send(self, system: str, user: str, deterministic: bool = True) -> str:
        start = time.monotonic()
        record = [self.stage, start, None, prompt_key(user)]
        with self._lock:
            self.sends.append(record)
            if self.stage == "extract":
                self._extract_sends += 1
                kill = self._extract_sends == self.kill_at
            else:
                kill = False
        if kill:
            if self._on_kill is not None:
                self._on_kill()
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            return self.inner.send(system, user, deterministic=deterministic)
        finally:
            record[2] = time.monotonic() - start


class RecordingSleep:
    """Backoff sleep that records (start, seconds actually slept)."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, float]] = []

    def __call__(self, seconds: float) -> None:
        start = time.monotonic()
        time.sleep(seconds)
        self.calls.append((start, time.monotonic() - start))
