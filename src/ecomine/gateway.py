"""Uniform interface to chat-completion providers.

A gateway wraps one provider behind a shared rate limiter and a bounded
retry loop, so pipeline stages never talk to a transport directly. The
system prompt discipline (labeled Role / Task instruction / Output
format sections) is enforced here before any request is dispatched.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from .errors import PromptError, RetryableTransportError, TransportError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Labels that must appear, in order, in every system prompt.
SYSTEM_SECTIONS = ("Role:", "Task instruction:", "Output format:")


@dataclass
class PromptPair:
    """System/user prompt pair plus a determinism hint for the provider."""

    system: str
    user: str
    mode: str = "deterministic"  # "deterministic" | "sampled"

    def validate(self) -> None:
        if not self.user or not self.user.strip():
            raise PromptError("user prompt must be non-empty")
        if self.mode not in ("deterministic", "sampled"):
            raise PromptError(f"unknown prompt mode {self.mode!r}")
        position = -1
        for label in SYSTEM_SECTIONS:
            found = self.system.find(label)
            if found < 0 or found < position:
                raise PromptError(
                    f"system prompt must contain sections {SYSTEM_SECTIONS} in order; missing or misplaced {label!r}"
                )
            position = found


@dataclass
class LlmResponse:
    """One provider response; stages parse raw_text themselves."""

    raw_text: str
    provider_id: str
    latency: float
    attempt_count: int


@dataclass
class RateLimitPolicy:
    max_requests_per_window: int = 60
    window: float = 60.0  # seconds
    max_retries: int = 3
    backoff_base: float = 0.5  # seconds

    def __post_init__(self) -> None:
        if self.max_requests_per_window <= 0:
            raise ValueError("max_requests_per_window must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.max_retries <= 0:
            raise ValueError("max_retries must be positive")
        if self.backoff_base <= 0:
            raise ValueError("backoff_base must be positive")


class SlidingWindowRateLimiter:
    """Thread-safe sliding-log limiter.

    acquire() blocks until dispatching would keep every half-open window
    of the configured length at or under the request cap, then records
    the grant. The check-and-record step is atomic under one lock, so
    the cap holds under arbitrary caller concurrency.

    A grant precedes the actual transmission by a scheduler-dependent
    delay, so the log is aged with a small guard margin; the cap then
    holds for windows measured at the wire, not just at grant instants.
    """

    def __init__(
        self,
        max_requests: int,
        window: float,
        clock: Callable[[], float] = time.monotonic,
        guard: float = 0.02,
    ) -> None:
        self._max = max_requests
        self._span = window + guard
        self._clock = clock
        self._cond = threading.Condition()
        self._log: deque[float] = deque()

    def acquire(self) -> None:
        with self._cond:
            while True:
                now = self._clock()
                while self._log and self._log[0] <= now - self._span:
                    self._log.popleft()
                if len(self._log) < self._max:
                    self._log.append(now)
                    self._cond.notify()
                    return
                wait = self._log[0] + self._span - now
                self._cond.wait(timeout=max(wait, 0.001))


class LlmGateway:
    """Rate-limited, retrying front door to one provider.

    Safe for concurrent callers; the rate limiter is the shared
    synchronization point. Configure once, then share the instance.
    """

    def __init__(
        self,
        provider,
        policy: RateLimitPolicy | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.provider = provider
        self.policy = policy or RateLimitPolicy()
        self._sleep = sleep
        self._clock = clock
        self._limiter = SlidingWindowRateLimiter(
            self.policy.max_requests_per_window, self.policy.window, clock=clock
        )

    def complete(self, prompt: PromptPair) -> LlmResponse:
        """Send one prompt, retrying transient failures within the budget.

        Raises PromptError before any dispatch when the prompt breaks the
        system-prompt contract, and TransportError carrying the last
        status once the retry budget is exhausted.
        """
        prompt.validate()
        deterministic = prompt.mode == "deterministic"
        provider_id = getattr(self.provider, "provider_id", "unknown")

        def attempt() -> tuple[str, float]:
            self._limiter.acquire()  # every attempt, retries included, takes a grant
            start = self._clock()
            raw = self.provider.send(prompt.system, prompt.user, deterministic=deterministic)
            return raw, self._clock() - start

        (raw, latency), attempts = call_with_retries(
            attempt, self.policy.max_retries, self.policy.backoff_base, self._sleep, f"provider {provider_id}"
        )
        return LlmResponse(raw_text=raw, provider_id=provider_id, latency=latency, attempt_count=attempts)


def call_with_retries(
    attempt: Callable[[], T],
    max_retries: int,
    backoff_base: float,
    sleep: Callable[[float], None],
    what: str,
) -> tuple[T, int]:
    """Call attempt() until it returns; the one retry rule of the package.

    Only RetryableTransportError is retried, at most max_retries times,
    so attempt() runs at most 1 + max_retries times. Before retry k the
    caller sleeps backoff_base * 2**(k-1) and one warning is logged;
    there is no sleep after the last attempt. Once the budget is spent,
    TransportError carries the last status. Returns the value and the
    number of attempts made.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return attempt(), attempts
        except RetryableTransportError as exc:
            if attempts > max_retries:
                raise TransportError(
                    f"{what}: retry budget exhausted after {attempts} attempts: {exc}", exc.status
                ) from exc
            backoff = backoff_base * 2 ** (attempts - 1)
            logger.warning(
                "%s failed (attempt %d, status %s); retrying in %.2fs", what, attempts, exc.status, backoff
            )
            sleep(backoff)


def fan_out(
    function: Callable[[T], R],
    items: Iterable[T],
    parallelism: int,
    stop_on: type[BaseException] | tuple[type[BaseException], ...],
) -> Iterator[tuple[T, R | None, BaseException | None]]:
    """Call function on each item from parallelism threads that pull from
    one shared iterator, so at most parallelism calls are in flight; yield
    (item, result, exception) on the calling thread in completion order.

    Once a call raises stop_on, or the caller closes the generator, no
    further item starts; calls already in flight finish and are yielded
    (or, on close, awaited). Items therefore start in iteration order,
    and the items that started are a prefix of items.
    """
    source = iter(items)
    lock = threading.Lock()
    finished: queue.SimpleQueue = queue.SimpleQueue()
    stopped = False

    def worker() -> None:
        nonlocal stopped
        try:
            while True:
                with lock:
                    if stopped:
                        return
                    item = next(source, finished)  # the queue doubles as the end marker
                if item is finished:
                    return
                try:
                    outcome = (item, function(item), None)
                except BaseException as exc:
                    if isinstance(exc, stop_on):
                        stopped = True
                    outcome = (item, None, exc)
                finished.put(outcome)
        finally:
            finished.put(None)

    threads = [threading.Thread(target=worker) for _ in range(max(1, parallelism))]
    for thread in threads:
        thread.start()
    try:
        running = len(threads)
        while running:
            outcome = finished.get()
            if outcome is None:
                running -= 1
            else:
                yield outcome
    finally:
        stopped = True
        for thread in threads:
            thread.join()


class HttpChatProvider:
    """Provider-agnostic chat-completions client.

    Speaks the common messages-array wire format: POST {endpoint} with
    {"model", "messages": [{"role", "content"}, ...]} and reads
    choices[0].message.content. Deterministic prompts are sent with
    temperature 0.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        *,
        timeout: float = 120.0,
        session: requests.Session | None = None,
    ) -> None:
        import requests  # here, not at module top: offline runs never load the HTTP stack

        self.endpoint = endpoint
        self.model = model
        self.provider_id = f"http:{model}"
        self.timeout = timeout
        self._session = session or requests.Session()
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

    def send(self, system: str, user: str, deterministic: bool = True) -> str:
        import requests

        payload: dict = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        if deterministic:
            payload["temperature"] = 0.0
        try:
            resp = self._session.post(
                self.endpoint, json=payload, headers=self._headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise RetryableTransportError(f"chat request failed: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise RetryableTransportError(
                f"provider returned {resp.status_code}", resp.status_code
            )
        if resp.status_code != 200:
            raise TransportError(f"provider returned {resp.status_code}", resp.status_code)
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed provider response: {exc}", resp.status_code) from exc
