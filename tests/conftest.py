import json
import socket
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

import ecomine
from ecomine.corpus import CorpusStore
from ecomine.gateway import LlmGateway, RateLimitPolicy
from ecomine.mockllm import MockProvider
from ecomine.pipeline import StageConfig

# Seed under which the size-10 draw from the bundled corpus contains
# exactly one out-of-domain paper.
SAMPLE_SEED = 6

SAMPLE_CORPUS = Path(ecomine.__file__).parent / "data" / "sample_corpus.jsonl"


def fast_policy() -> RateLimitPolicy:
    return RateLimitPolicy(max_requests_per_window=10_000, window=1.0, max_retries=3, backoff_base=0.01)


def waits_off_cpu(result=None):
    """Wait 50 ms off the CPU, then return result. gateway.fan_out runs
    every call after a first one made through this on its worker threads."""
    threading.Event().wait(0.05)
    return result


def inline_then_threaded(threads) -> bool:
    """Whether the first of threads, the thread of each call in start
    order, is the calling thread (pytest's main thread) and no later one is."""
    main = threading.main_thread()
    return threads[0] is main and main not in threads[1:]


@pytest.fixture
def sample_store() -> CorpusStore:
    return CorpusStore.load(SAMPLE_CORPUS)


@pytest.fixture
def mock_gateway() -> LlmGateway:
    return LlmGateway(MockProvider(), fast_policy(), sleep=lambda s: None)


@pytest.fixture
def stage_config() -> StageConfig:
    return StageConfig(
        sample_size=10,
        generalize_variants=3,
        parallelism=4,
        rate_policy=fast_policy(),
        rng_seed=SAMPLE_SEED,
    )


#: Seconds a "slow" answer holds its body back; longer than the 0.2 s timeout tests give it.
SLOW = 0.3


class StubState:
    """Scriptable endpoint: harvest (GET with per-DOI documents), chat
    (POST, answered with reply as the message content) and failure hooks."""

    def __init__(self):
        self.documents = {}
        self.reply = "hi"  # the content of each successful chat answer
        # consumed before any successful answer: a status, or "reset" (the
        # connection reset unanswered), "cut" (a body cut short) or "slow"
        # (a 200 whose body comes SLOW seconds late)
        self.fail_statuses = []
        self.retry_after = None  # when set, the Retry-After header of each failure status
        self.hard_fail_dois = set()
        self.raw_body = None  # when set, every successful answer is this 200 body
        self.delay = 0.0  # seconds before each single-DOI success, so failures answer first
        self.requests = 0
        self.queries = []  # each GET's parsed query string, in arrival order
        self.posts = []  # each POST's (headers, JSON body), in arrival order


def _make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def answer(self, status, body=b""):
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            if status != 200 and state.retry_after is not None:
                self.send_header("Retry-After", state.retry_after)
            self.end_headers()
            self.wfile.write(body)

        def failed(self) -> bool:
            """Count the request and play the next scripted failure, if any."""
            state.requests += 1
            if not state.fail_statuses:
                return False
            failure = state.fail_statuses.pop(0)
            if failure == "reset":  # a zero linger makes the close send RST
                self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                self.connection.close()
            elif failure in ("cut", "slow"):
                self.send_response(200)
                self.send_header("Content-Length", "100")
                self.end_headers()
                if failure == "slow":
                    self.wfile.flush()
                    time.sleep(SLOW)
                self.wfile.write(b'{"cut": ')
            else:
                self.answer(failure)
            self.close_connection = True
            return True

        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            state.posts.append((dict(self.headers), json.loads(body)))
            if not self.failed():
                reply = {"choices": [{"message": {"content": state.reply}}]}
                self.answer(200, json.dumps(reply).encode() if state.raw_body is None else state.raw_body)

        def do_GET(self):
            query = parse_qs(urlparse(self.path).query)
            state.queries.append(query)
            if self.failed():
                return
            if state.raw_body is not None:
                self.answer(200, state.raw_body)
                return
            doi = query.get("doi", [""])[0]
            if doi in state.hard_fail_dois:
                self.answer(500)
            elif doi not in state.documents:
                self.answer(404)
            else:
                time.sleep(state.delay)
                self.answer(200, json.dumps(state.documents[doi]).encode())

    return Handler


@pytest.fixture
def stub_server():
    state = StubState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(state))
    # a short poll interval keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", state
    server.shutdown()
    server.server_close()
