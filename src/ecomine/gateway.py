"""Uniform interface to chat-completion providers.

A gateway wraps one provider behind a paced Gate (rate limiter plus the
bounded retry loop every remote call goes through), so pipeline stages
never talk to a transport directly. The system prompt discipline
(labeled Role / Task instruction / Output format sections) is enforced
here before any request is dispatched.
"""

from __future__ import annotations

import json
import logging
import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar
from urllib.parse import urlsplit

from .corpus import dumps
from .errors import PromptError, RangeError, RetryableTransportError, TransportError

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Labels that must appear, in order, in every system prompt.
SYSTEM_SECTIONS = ("Role:", "Task instruction:", "Output format:")

#: Seconds the rate limiter adds to its window; see SlidingWindowRateLimiter.
_GUARD = 0.02

#: Seconds an HTTP request may take, for chat and harvest alike.
TIMEOUT = 60.0


@dataclass
class PromptPair:
    """System/user prompt pair; the gateway sends every prompt deterministically."""

    system: str
    user: str

    def validate(self) -> None:
        if not self.user or not self.user.strip():
            raise PromptError("user prompt must be non-empty")
        position = -1
        for label in SYSTEM_SECTIONS:
            found = self.system.find(label)
            if found < 0 or found < position:
                raise PromptError(
                    f"system prompt must contain sections {SYSTEM_SECTIONS} in order; missing or misplaced {label!r}"
                )
            position = found


@dataclass
class RateLimitPolicy:
    max_requests_per_window: int = 60
    window: float = 60.0  # seconds
    max_retries: int = 3
    backoff_base: float = 0.5  # seconds

    def __post_init__(self) -> None:
        require_at_least("max_requests_per_window", self.max_requests_per_window, 1)
        require_finite_positive("window", self.window)
        require_at_least("max_retries", self.max_retries, 1)
        require_finite_positive("backoff_base", self.backoff_base)


def require_finite_positive(name: str, value: float) -> None:
    """Refuse NaN, infinity, zero and negatives, which float() makes of
    config or environment text such as "nan" or "inf", with a RangeError."""
    if not (math.isfinite(value) and value > 0):
        raise RangeError(name, f"must be finite and positive, got {value}")


def require_at_least(name: str, value: int, least: int) -> None:
    """Refuse a count below least with a RangeError."""
    if value < least:
        raise RangeError(name, f"must be at least {least}")


def require_http_url(name: str, url: str) -> None:
    """Refuse a URL that no request can open: not http(s), no host, or a port that is 0 or does not parse."""
    try:
        parts = urlsplit(url)
        usable = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except ValueError:  # .port of "h:x" or "h:99999"
        usable = False
    if not usable:
        raise ValueError(f"{name} must be an http(s) URL with a host and a valid port, got {url!r}")


class SlidingWindowRateLimiter:
    """Thread-safe sliding-log limiter.

    acquire() blocks until dispatching would keep every half-open window
    of the configured length at or under the request cap, then records
    the grant. The check-and-record step is atomic under one lock, so
    the cap holds under arbitrary caller concurrency.

    A grant precedes the actual transmission by a scheduler-dependent
    delay, so the log is aged with a small guard margin (_GUARD); the cap
    then holds for windows measured at the wire, not just at grant instants.
    """

    def __init__(self, max_requests: int, window: float, clock: Callable[[], float] = time.monotonic) -> None:
        self._max = max_requests
        self._span = window + _GUARD
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


class Gate:
    """The one retry rule of the package, shared by chat and harvest.

    call(attempt, what) runs attempt() at most 1 + policy.max_retries
    times, retrying only RetryableTransportError and sleeping
    backoff_base * 2**(k-1) before retry k, or the failure's retry_after
    if longer, capped at the policy's window so no server stalls a run. A
    paced gate first takes a grant of the policy's rate cap for every
    attempt, retries included. Safe for concurrent callers.
    """

    def __init__(
        self,
        policy: RateLimitPolicy | None = None,
        *,
        paced: bool = True,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or RateLimitPolicy()
        self._sleep = sleep
        self._limiter = None
        if paced:
            self._limiter = SlidingWindowRateLimiter(
                self.policy.max_requests_per_window, self.policy.window, clock=clock
            )

    def call(self, attempt: Callable[[], T], what: str) -> T:
        attempts = 0
        while True:
            attempts += 1
            if self._limiter:
                self._limiter.acquire()
            try:
                return attempt()
            except RetryableTransportError as exc:
                if attempts > self.policy.max_retries:
                    raise TransportError(
                        f"{what}: retry budget exhausted after {attempts} attempts: {exc}", exc.status
                    ) from exc
                backoff = self.policy.backoff_base * 2 ** (attempts - 1)
                backoff = max(backoff, min(exc.retry_after or 0.0, self.policy.window))
                logger.warning(
                    "%s failed (attempt %d, status %s); retrying in %.2fs", what, attempts, exc.status, backoff
                )
                self._sleep(backoff)


def raise_for_status(status: int, what: str, retry_after: str | None = None) -> None:
    """The one status rule of HTTP: a 200 passes, a 429 or any 5xx (a 529
    "overloaded" too) raises RetryableTransportError, carrying a 429 or
    503's Retry-After as retry_after when it is delta-seconds (an HTTP
    date is ignored), and any other status raises TransportError."""
    if status == 429 or status >= 500:
        delay = (retry_after or "").strip()
        seconds = float(delay) if status in (429, 503) and delay.isascii() and delay.isdigit() else None
        raise RetryableTransportError(f"{what} returned {status}", status, retry_after=seconds)
    if status != 200:
        raise TransportError(f"{what} returned {status}", status)


NOT_FOUND = object()  # request_json's answer to a 404 when its caller passes not_found


def request_json(
    url: str, what: str, failed: str, malformed: str, *, timeout: float, data: bytes | None = None,
    headers: dict[str, str] | None = None, not_found: bool = False,
) -> object:
    """The one HTTP transport: POST data to url (GET when it is None) on a
    connection of its own and return the body decoded from JSON. A network
    failure raises RetryableTransportError "{failed}: ...", the
    status goes through raise_for_status as what (a 404 returns NOT_FOUND
    given not_found), and a body that is not JSON raises TransportError
    "{malformed}: ...". The HTTP modules load here, never in offline runs."""
    import http.client
    import urllib.request

    try:
        with urllib.request.urlopen(urllib.request.Request(url, data, headers or {}), timeout=timeout) as response:
            status, body, answer = response.status, response.read(), response.headers
    except urllib.request.HTTPError as exc:  # an OSError too, so caught first
        exc.close()  # its unread body holds the connection open
        status, body, answer = exc.code, b"", exc.headers
    except (OSError, http.client.HTTPException) as exc:  # reset, timed out, cut short
        raise RetryableTransportError(f"{failed}: {exc}") from exc
    if status == 404 and not_found:
        return NOT_FOUND
    raise_for_status(status, what, answer.get("Retry-After"))
    try:
        return json.loads(body)
    except ValueError as exc:
        raise TransportError(f"{malformed}: {exc}", status) from exc


class LlmGateway:
    """Validated prompts to one provider, through a Gate that is paced unless
    the provider's `remote` is false: the in-process mock has no rate cap.
    Configure once, then share the instance between concurrent callers.
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
        self._gate = Gate(policy, paced=getattr(provider, "remote", True), sleep=sleep, clock=clock)
        self._what = f"provider {getattr(provider, 'provider_id', 'unknown')}"

    def complete(self, prompt: PromptPair) -> str:
        """Send one prompt and return the reply text, retrying transient
        failures within the budget.

        Raises PromptError before any dispatch when the prompt breaks the
        system-prompt contract, and TransportError carrying the last
        status once the retry budget is exhausted.
        """
        prompt.validate()
        return self._gate.call(
            lambda: self.provider.send(prompt.system, prompt.user, deterministic=True), self._what
        )


def fan_out(
    function: Callable[[T], R],
    items: Iterable[T],
    parallelism: int,
    stop_on: type[BaseException] | tuple[type[BaseException], ...],
) -> Iterator[tuple[T, R | None, BaseException | None]]:
    """Call function on each item, at most parallelism calls in flight, and
    yield (item, result, exception) on the calling thread in completion
    order.

    Calls run on the calling thread, one at a time, until together they
    have spent more wall time off the CPU than on it: threads overlap
    waits (a remote endpoint, a sleep), never calls that keep the CPU
    busy, and each hand-off to a thread costs a wake-up and a turn of the
    interpreter lock. From then on the remaining items go to parallelism
    threads that pull from the shared iterator, and the run never returns
    to the calling thread. An exception that is not an Exception (a
    KeyboardInterrupt) raised by a call on the calling thread propagates
    at once instead of being yielded.

    Once a call raises stop_on, or the caller closes the generator, no
    further item starts; calls already in flight finish and are yielded
    (or, on close, awaited). Items therefore start in iteration order,
    and the items that started are a prefix of items.
    """
    require_at_least("parallelism", parallelism, 1)  # below it no thread would start, and no item be processed
    source = iter(items)
    waited = 0.0  # time the inline calls spent off the CPU, less the time they spent on it
    for item in source:
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            outcome = (item, function(item), None)
        except Exception as exc:
            outcome = (item, None, exc)
        cpu = time.thread_time() - cpu
        waited += time.perf_counter() - wall - 2 * cpu
        yield outcome
        if isinstance(outcome[2], stop_on):
            return
        if waited > 0:
            break
    else:
        return

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
                        with lock:  # so no pull that saw stopped false ends after this outcome is yielded
                            stopped = True
                    outcome = (item, None, exc)
                finished.put(outcome)
        finally:
            finished.put(None)

    threads = [threading.Thread(target=worker) for _ in range(parallelism)]
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
        with lock:
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
        timeout: float = TIMEOUT,
    ) -> None:
        require_finite_positive("timeout", timeout)
        require_http_url("endpoint", endpoint)
        self.endpoint = endpoint
        self.model = model
        self.provider_id = f"http:{model}"
        self.timeout = timeout
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            # nothing else fits a header, and http.client's refusal of it would print the key
            if not all("!" <= char <= "~" for char in api_key):
                raise ValueError("api_key must be printable ASCII without spaces; the key is not shown")
            self._headers["Authorization"] = f"Bearer {api_key}"

    def send(self, system: str, user: str, deterministic: bool = True) -> str:
        payload: dict = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        if deterministic:
            payload["temperature"] = 0.0
        doc = request_json(
            self.endpoint, "provider", "chat request failed", "malformed provider response",
            timeout=self.timeout, data=dumps(payload).encode("utf-8"), headers=self._headers,
        )
        try:
            content = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed provider response: {exc}", 200) from exc
        if not isinstance(content, str):
            raise TransportError(
                f"malformed provider response: content is {type(content).__name__}, not a string", 200
            )
        return content
