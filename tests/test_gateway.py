import http.client
import math
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from ecomine import gateway
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

    def test_every_attempt_takes_a_limiter_grant(self, monkeypatch):
        provider = ScriptedProvider([RetryableTransportError("429", 429)] * 2 + ["N/A"])
        sends_before_grant = []
        acquire = SlidingWindowRateLimiter.acquire

        def counting_acquire(limiter):
            sends_before_grant.append(provider.calls)
            acquire(limiter)

        monkeypatch.setattr(SlidingWindowRateLimiter, "acquire", counting_acquire)
        assert LlmGateway(provider, sleep=lambda s: None).complete(valid_prompt()) == "N/A"
        assert provider.calls == 3
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

    def test_a_waiter_is_granted_when_the_oldest_grant_leaves_the_window(self, monkeypatch):
        # no test told the limiter from one that ages or waits on a later grant than the oldest,
        # and so holds the cap a whole window longer than it says
        clock = WaitingClock()
        with monkeypatch.context() as patch:
            patch.setattr(threading, "Condition", lambda: clock)  # a wait advances the clock instead of blocking
            limiter = SlidingWindowRateLimiter(max_requests=2, window=1.0, clock=clock)
        limiter.acquire()
        clock.now = 0.5
        limiter.acquire()
        clock.now = 0.75
        limiter.acquire()
        assert len(clock.waits) <= 2  # a first wait that lands on the boundary may take one 1 ms turn more
        assert sum(clock.waits) == pytest.approx(1.0 + gateway._GUARD - 0.75, abs=0.002)


class WaitingClock:
    """A clock, and a condition whose wait(timeout) moves the clock on by timeout."""

    def __init__(self):
        self.now = 0.0
        self.waits = []

    def __call__(self):
        return self.now

    def __enter__(self):
        return self

    def __exit__(self, *_):
        return False

    def notify(self):
        pass

    def wait(self, timeout):
        self.waits.append(timeout)
        self.now += timeout


def max_dispatches_in_window(stamps, window):
    """Largest number of dispatch times inside any half-open window."""
    worst = 0
    j = 0
    for i in range(len(stamps)):
        while j < len(stamps) and stamps[j] < stamps[i] + window:
            j += 1
        worst = max(worst, j - i)
    return worst


class Transport:
    """One HTTP client against the stub server, called through its Gate.

    For chat, an LlmGateway over HttpChatProvider; for harvest, an
    HttpHarvestClient fetching DOI 10.1/a. ok is what a successful call
    returns, what names the endpoint in a status error, and failed and
    malformed begin a network error's and a non-JSON body's message.
    """

    def __init__(self, kind, stub_server):
        self.kind = kind
        self.base_url, self.state = stub_server
        self.state.documents["10.1/a"] = {"title": "A", "abstract": "a"}
        self.sleeps = []
        if kind == "chat":
            self.ok, self.what, self.failed, self.malformed = "hi", "provider", "chat", "malformed provider response"
        else:
            url = f"{self.base_url}/paper"
            self.ok, self.what, self.failed = self.state.documents["10.1/a"], f"harvest {url}", "harvest"
            self.malformed = f"non-JSON harvest response from {url}"

    def call(self, max_retries=3, timeout=10.0):
        policy = RateLimitPolicy(max_retries=max_retries)
        if self.kind == "chat":
            provider = HttpChatProvider(f"{self.base_url}/v1/chat", "model-z", api_key="k", timeout=timeout)
            return LlmGateway(provider, policy, sleep=self.sleeps.append).complete(valid_prompt())
        return HttpHarvestClient(self.base_url, policy, timeout=timeout, sleep=self.sleeps.append).fetch("10.1/a")


@pytest.fixture(params=["chat", "harvest"])
def transport(request, stub_server):
    return Transport(request.param, stub_server)


class TestHttpTransports:
    """Both HTTP clients over real sockets, through their one transport."""

    def test_status_sequence_is_retried_to_success(self, transport):
        transport.state.fail_statuses = [429, 503]
        assert transport.call() == transport.ok
        assert transport.state.requests == 3
        assert transport.sleeps == [0.5, 1.0]

    def test_400_is_not_retried(self, transport):
        transport.state.fail_statuses = [400]
        with pytest.raises(TransportError, match=re.escape(f"{transport.what} returned 400")) as excinfo:
            transport.call()
        assert not isinstance(excinfo.value, RetryableTransportError)
        assert (excinfo.value.status, transport.state.requests) == (400, 1)

    def test_non_json_body_is_not_retried(self, transport):
        transport.state.raw_body = b"not json"
        with pytest.raises(TransportError, match=re.escape(f"{transport.malformed}: Expecting value")) as excinfo:
            transport.call()
        assert not isinstance(excinfo.value, RetryableTransportError)
        assert (excinfo.value.status, transport.state.requests) == (200, 1)

    def test_body_of_the_wrong_shape_is_not_retried(self, transport):
        transport.state.raw_body = b"[1, 2]"
        shape = "malformed provider response" if transport.kind == "chat" else "is not a JSON object"
        with pytest.raises(TransportError, match=shape) as excinfo:
            transport.call()
        assert not isinstance(excinfo.value, RetryableTransportError)
        assert (excinfo.value.status, transport.state.requests) == (200, 1)

    @pytest.mark.parametrize("failure", ["slow", "reset", "cut"])
    def test_network_failure_is_retried(self, transport, failure):
        transport.state.fail_statuses = [failure]
        assert transport.call(timeout=0.2) == transport.ok
        assert transport.state.requests == 2
        assert transport.sleeps == [0.5]

    @pytest.mark.parametrize("failure, cause", [("reset", ConnectionResetError), ("cut", http.client.IncompleteRead)])
    def test_network_failure_names_the_transport(self, transport, failure, cause):
        transport.state.fail_statuses = [failure] * 2
        named = f"after 2 attempts: {transport.failed} request failed: "
        with pytest.raises(TransportError, match=re.escape(named)) as excinfo:
            transport.call(max_retries=1)
        assert excinfo.value.status is None
        assert isinstance(excinfo.value.__cause__.__cause__, cause)

    @pytest.mark.parametrize("url", ["nowhere", "127.0.0.1:9", "ftp://h/", "http://h:x/", "http://h:0/"])
    def test_url_that_cannot_open_is_refused_when_the_client_is_built(self, transport, url):
        # each failed every attempt alike, yet was retried with backoff before the run failed
        transport.base_url = url
        refusal = f"must be an http(s) URL with a host and a valid port, got '{url}"  # chat's goes on: /v1/chat
        with pytest.raises(ValueError, match=re.escape(refusal)):
            transport.call()
        assert (transport.state.requests, transport.sleeps) == (0, [])

    @pytest.mark.parametrize(
        "status, header, slept",
        [
            (429, "7", 7.0),
            (429, "99999", 60.0),  # capped at the policy's window
            (503, " 2 ", 2.0),
            (429, "0", 0.5),  # never shorter than the backoff
            (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),  # an HTTP date is ignored
            (429, "1.5", 0.5),
            (429, "-3", 0.5),
            (500, "7", 0.5),  # only a 429 or 503 asks for a delay
        ],
    )
    def test_retry_after_is_honoured_and_capped(self, transport, status, header, slept):
        transport.state.fail_statuses = [status]
        transport.state.retry_after = header
        assert transport.call() == transport.ok
        assert transport.sleeps == [slept]


class TestHttpChatProvider:
    def make(self, stub_server, api_key="k"):
        base_url, state = stub_server
        return HttpChatProvider(f"{base_url}/v1/chat", "model-z", api_key=api_key), state

    def test_sends_the_payload_and_reads_the_content(self, stub_server):
        provider, state = self.make(stub_server)
        assert provider.send("s", "u", deterministic=True) == "hi"
        headers, payload = state.posts[0]
        assert payload == {
            "model": "model-z",
            "messages": [{"role": "system", "content": "s"}, {"role": "user", "content": "u"}],
            "temperature": 0.0,
        }
        assert headers["Authorization"] == "Bearer k"
        assert headers["Content-Type"] == "application/json"

    def test_sampled_mode_omits_temperature(self, stub_server):
        provider, state = self.make(stub_server)
        provider.send("s", "u", deterministic=False)
        assert "temperature" not in state.posts[0][1]

    def test_no_key_sends_no_authorization(self, stub_server):
        provider, state = self.make(stub_server, api_key=None)
        provider.send("s", "u")
        assert "Authorization" not in state.posts[0][0]

    @pytest.mark.parametrize(
        "api_key",
        ["topsecret\nX", "topsecret\rX", "topsecret€X", "topsecret\x00X", "topsecret\n X",
         "top secret", "topsecret\x7f"],
        ids=["newline", "carriage-return", "non-ascii", "nul", "folded-line", "space", "delete"],
    )
    def test_key_a_header_cannot_carry_is_refused_unshown(self, stub_server, api_key):
        # http.client's refusal of a newline or of a non-Latin-1 character printed the key;
        # a NUL or a folded line was sent as it was
        with pytest.raises(ValueError, match="^api_key must be printable ASCII without spaces") as excinfo:
            self.make(stub_server, api_key=api_key)
        assert "top" not in str(excinfo.value) and "secret" not in str(excinfo.value)
        assert stub_server[1].requests == 0

    def test_printable_key_is_sent_as_it_is(self, stub_server):
        provider, state = self.make(stub_server, api_key="sk-A_b.9~+/=")
        provider.send("s", "u")
        assert state.posts[0][0]["Authorization"] == "Bearer sk-A_b.9~+/="

    def test_body_is_utf8_json_with_sorted_keys(self, monkeypatch):
        sent = []

        def request_json(*args, data, **kwargs):
            sent.append(data)
            return {"choices": [{"message": {"content": "ok"}}]}

        monkeypatch.setattr(gateway, "request_json", request_json)
        assert HttpChatProvider("http://127.0.0.1:9/v1", "model-z").send("Rôle", "Río Ebro €") == "ok"
        body = '{"messages": [{"content": "Rôle", "role": "system"}, {"content": "Río Ebro €", "role": "user"}], '
        assert sent == [(body + '"model": "model-z", "temperature": 0.0}').encode("utf-8")]

    @pytest.mark.parametrize("body", [b'{"unexpected": true}', b'{"choices": []}', b"null"])
    def test_malformed_body(self, stub_server, body):
        provider, state = self.make(stub_server)
        state.raw_body = body
        with pytest.raises(TransportError, match="malformed provider response") as excinfo:
            provider.send("s", "u")
        assert not isinstance(excinfo.value, RetryableTransportError)

    @pytest.mark.parametrize("content", [None, 7, ["a"], {"text": "hi"}])
    def test_non_string_content_is_a_malformed_response(self, stub_server, content):
        provider, state = self.make(stub_server)
        state.reply = content
        with pytest.raises(TransportError, match="malformed provider response") as excinfo:
            provider.send("s", "u")
        assert not isinstance(excinfo.value, RetryableTransportError)


def test_retry_after_shorter_than_the_backoff_keeps_the_backoff():
    provider = ScriptedProvider([RetryableTransportError("429", 429, retry_after=0.1), "N/A"])
    sleeps = []
    LlmGateway(provider, RateLimitPolicy(backoff_base=0.5), sleep=sleeps.append).complete(valid_prompt())
    assert sleeps == [0.5]
