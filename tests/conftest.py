import json
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


class StubState:
    """Scriptable harvest endpoint: per-DOI documents plus failure hooks."""

    def __init__(self):
        self.documents = {}
        self.fail_statuses = []  # consumed before any successful answer
        self.hard_fail_dois = set()
        self.raw_body = None  # when set, every successful answer is this 200 body
        self.delay = 0.0  # seconds before each single-DOI success, so failures answer first
        self.requests = 0
        self.queries = []  # each request's parsed query string, in arrival order
        self.stamps = []  # each request's arrival time, time.monotonic()


def _make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            state.stamps.append(time.monotonic())
            state.requests += 1
            query = parse_qs(urlparse(self.path).query)
            state.queries.append(query)
            if state.fail_statuses:
                self.send_response(state.fail_statuses.pop(0))
                self.end_headers()
                return
            if state.raw_body is not None:
                self.send_response(200)
                self.end_headers()
                self.wfile.write(state.raw_body)
                return
            doi = query.get("doi", [""])[0]
            if doi in state.hard_fail_dois:
                self.send_response(500)
                self.end_headers()
                return
            if doi not in state.documents:
                self.send_response(404)
                self.end_headers()
                return
            time.sleep(state.delay)
            self.send_response(200)
            self.end_headers()
            self.wfile.write(json.dumps(state.documents[doi]).encode())

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
