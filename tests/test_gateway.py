import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from ecomine.errors import PromptError, RetryableTransportError, TransportError
from ecomine.gateway import (
    HttpChatProvider,
    LlmGateway,
    PromptPair,
    RateLimitPolicy,
    SlidingWindowRateLimiter,
)
from ecomine.harvest import HttpHarvestClient
from ecomine.mockllm import MockProvider

VALID_SYSTEM = "Role:\nassistant\n\nTask instruction:\ndo the task\n\nOutput format:\nJSON\n"


def valid_prompt(user="hello"):
    return PromptPair(system=VALID_SYSTEM, user=user)


class ScriptedProvider:
    """Yields scripted responses/exceptions in order; records calls."""

    provider_id = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def send(self, system, user, deterministic=True):
        self.calls += 1
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestPromptPair:
    def test_valid(self):
        valid_prompt().validate()

    def test_empty_user_rejected(self):
        with pytest.raises(PromptError):
            valid_prompt(user="  ").validate()

    def test_missing_section(self):
        prompt = PromptPair(system="Role:\nx\nOutput format:\ny", user="u")
        with pytest.raises(PromptError):
            prompt.validate()

    def test_sections_out_of_order(self):
        system = "Task instruction:\nx\nRole:\ny\nOutput format:\nz"
        with pytest.raises(PromptError):
            PromptPair(system=system, user="u").validate()


class TestRateLimitPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_requests_per_window": 0},
            {"window": 0},
            {"max_retries": 0},
            {"backoff_base": -1},
        ],
    )
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            RateLimitPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": math.nan},
            {"window": math.inf},
            {"backoff_base": math.nan},
            {"backoff_base": math.inf},
            {"backoff_base": 0.0},
        ],
    )
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="must be finite and positive"):
            RateLimitPolicy(**kwargs)


class TestTimeout:
    @pytest.mark.parametrize("timeout", [math.inf, math.nan, -1.0, 0.0])
    @pytest.mark.parametrize(
        "make",
        [
            lambda timeout: HttpChatProvider("http://127.0.0.1:9/v1", "m", timeout=timeout),
            lambda timeout: HttpHarvestClient("http://127.0.0.1:9", timeout=timeout),
        ],
        ids=["chat", "harvest"],
    )
    def test_rejects_non_finite_or_non_positive(self, make, timeout):
        with pytest.raises(ValueError, match=f"timeout must be finite and positive, got {timeout}"):
            make(timeout)


class TestComplete:
    def test_success_first_try(self):
        provider = ScriptedProvider(['{"a": 1}'])
        gateway = LlmGateway(provider, sleep=lambda s: None)
        assert gateway.complete(valid_prompt()) == '{"a": 1}'
        assert provider.calls == 1

    def test_retries_then_succeeds(self):
        provider = ScriptedProvider(
            [
                RetryableTransportError("429", 429),
                RetryableTransportError("429", 429),
                "N/A",
            ]
        )
        sleeps = []
        policy = RateLimitPolicy(max_retries=3, backoff_base=0.5)
        gateway = LlmGateway(provider, policy, sleep=sleeps.append)
        assert gateway.complete(valid_prompt()) == "N/A"
        assert provider.calls == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_budget_exhausted_carries_last_status(self):
        provider = ScriptedProvider([RetryableTransportError("boom", 503)] * 10)
        policy = RateLimitPolicy(max_retries=2)
        gateway = LlmGateway(provider, policy, sleep=lambda s: None)
        with pytest.raises(TransportError) as excinfo:
            gateway.complete(valid_prompt())
        assert excinfo.value.status == 503
        assert provider.calls == policy.max_retries + 1

    @pytest.mark.parametrize("transport", ["chat", "harvest"])
    def test_every_attempt_takes_a_limiter_grant(self, monkeypatch, request, transport):
        if transport == "chat":
            provider = ScriptedProvider([RetryableTransportError("429", 429)] * 2 + ["N/A"])
            sends = lambda: provider.calls  # noqa: E731
            call = LlmGateway(provider, sleep=lambda s: None).complete
            argument = valid_prompt()
        else:
            base_url, state = request.getfixturevalue("stub_server")
            state.documents["10.1/a"] = {"title": "A", "abstract": "a"}
            state.fail_statuses = [429, 503]
            sends = lambda: state.requests  # noqa: E731
            call = HttpHarvestClient(base_url, paced=True, sleep=lambda s: None).fetch
            argument = "10.1/a"
        sends_before_grant = []
        acquire = SlidingWindowRateLimiter.acquire

        def counting_acquire(limiter):
            sends_before_grant.append(sends())
            acquire(limiter)

        monkeypatch.setattr(SlidingWindowRateLimiter, "acquire", counting_acquire)
        assert call(argument)
        assert sends() == 3
        assert sends_before_grant == [0, 1, 2]  # one grant before each send

    def test_invalid_prompt_never_hits_provider(self):
        provider = ScriptedProvider(["unused"])
        gateway = LlmGateway(provider, sleep=lambda s: None)
        with pytest.raises(PromptError):
            gateway.complete(valid_prompt(user=""))
        assert provider.calls == 0


class TestMockDeterminism:
    def test_identical_prompts_identical_responses(self):
        provider = MockProvider()
        first = provider.send(VALID_SYSTEM, "Title: x\nAbstract: y")
        second = provider.send(VALID_SYSTEM, "Title: x\nAbstract: y")
        assert first == second


class TestRateLimiter:
    def test_cap_enforced_under_concurrency(self):
        limiter = SlidingWindowRateLimiter(max_requests=5, window=0.2)
        stamps = []
        lock = threading.Lock()

        def hit():
            limiter.acquire()
            now = time.monotonic()
            with lock:
                stamps.append(now)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(12):
                pool.submit(hit)
        assert len(stamps) == 12
        stamps.sort()
        assert max_dispatches_in_window(stamps, 0.2) <= 5

    def test_single_thread_never_blocks_below_cap(self):
        limiter = SlidingWindowRateLimiter(max_requests=100, window=1.0)
        start = time.monotonic()
        for _ in range(50):
            limiter.acquire()
        assert time.monotonic() - start < 0.5


def max_dispatches_in_window(stamps, window):
    """Largest number of dispatch times inside any half-open window."""
    worst = 0
    j = 0
    for i in range(len(stamps)):
        while j < len(stamps) and stamps[j] < stamps[i] + window:
            j += 1
        worst = max(worst, j - i)
    return worst


class FakeHttpResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.last_payload = None

    def post(self, url, json=None, headers=None, timeout=None):
        self.last_payload = json
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestHttpChatProvider:
    def make(self, responses):
        session = FakeSession(responses)
        provider = HttpChatProvider("http://x/v1/chat", "model-z", api_key="k", session=session)
        return provider, session

    def test_parses_choice_content_and_temperature(self):
        payload = {"choices": [{"message": {"content": "hi"}}]}
        provider, session = self.make([FakeHttpResponse(200, payload)])
        assert provider.send("s", "u", deterministic=True) == "hi"
        assert session.last_payload["temperature"] == 0.0
        assert session.last_payload["messages"][0] == {"role": "system", "content": "s"}

    def test_sampled_mode_omits_temperature(self):
        payload = {"choices": [{"message": {"content": "hi"}}]}
        provider, session = self.make([FakeHttpResponse(200, payload)])
        provider.send("s", "u", deterministic=False)
        assert "temperature" not in session.last_payload

    def test_429_is_retryable(self):
        provider, _ = self.make([FakeHttpResponse(429)])
        with pytest.raises(RetryableTransportError):
            provider.send("s", "u")

    def test_400_is_not_retryable(self):
        provider, _ = self.make([FakeHttpResponse(400)])
        with pytest.raises(TransportError) as excinfo:
            provider.send("s", "u")
        assert not isinstance(excinfo.value, RetryableTransportError)

    def test_network_error_is_retryable(self):
        import requests

        provider, _ = self.make([requests.ConnectionError("down")])
        with pytest.raises(RetryableTransportError):
            provider.send("s", "u")

    def test_malformed_body(self):
        provider, _ = self.make([FakeHttpResponse(200, {"unexpected": True})])
        with pytest.raises(TransportError):
            provider.send("s", "u")

    @pytest.mark.parametrize("content", [None, 7, ["a"], {"text": "hi"}])
    def test_non_string_content_is_a_malformed_response(self, content):
        payload = {"choices": [{"message": {"content": content}}]}
        provider, _ = self.make([FakeHttpResponse(200, payload)])
        with pytest.raises(TransportError, match="malformed provider response") as excinfo:
            provider.send("s", "u")
        assert not isinstance(excinfo.value, RetryableTransportError)
