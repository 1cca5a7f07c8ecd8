"""Latency-provider determinism and the recording provider's kill hook."""

from doubles import LatencyProvider, RecordingProvider, prompt_key
from ecomine.errors import RetryableTransportError
from ecomine.mockllm import MockProvider

SYSTEM = "Role: x\nTask instruction: fill the predefined schema\nOutput format: JSON"
USERS = [f"Title: t{i}\nAbstract: Procambarus clarkii in Italy, study {i}." for i in range(200)]


def replay(seed):
    slept = []
    provider = LatencyProvider(MockProvider(), seed, median_s=0.02, sigma=0.5, error_share=0.1, sleep=slept.append)
    outcomes = []
    for user in USERS:
        try:
            outcomes.append(provider.send(SYSTEM, user))
        except RetryableTransportError as exc:
            outcomes.append(exc.status)
            outcomes.append(provider.send(SYSTEM, user))
    return slept, outcomes


def test_same_seed_gives_same_delays_and_refusals():
    assert replay(1) == replay(1)
    assert replay(1)[0] != replay(2)[0]


def test_refusals_are_seeded_first_attempts_and_answers_stay_the_mocks():
    slept, outcomes = replay(4)
    refusals = outcomes.count(429)
    assert 5 < refusals < 40  # about 10% of 200
    mock = MockProvider()
    answers = [o for o in outcomes if o != 429]
    assert answers == [mock.send(SYSTEM, user) for user in USERS]
    assert len(slept) == len(USERS) + refusals


def test_draw_is_independent_of_call_order():
    a = LatencyProvider(MockProvider(), 7, 0.02, 0.5, 0.1)
    b = LatencyProvider(MockProvider(), 7, 0.02, 0.5, 0.1)
    forward = [a.draw(user, 0) for user in USERS]
    backward = [b.draw(user, 0) for user in reversed(USERS)]
    assert forward == backward[::-1]
    delays = sorted(d for d, _ in forward)
    assert 0.015 < delays[len(delays) // 2] < 0.027  # median near 20 ms


def test_recording_provider_records_each_send_with_its_stage():
    provider = RecordingProvider(MockProvider())
    provider.stage = "extract"
    provider.send(SYSTEM, USERS[0])
    provider.stage = "specialize"
    provider.send("Role: a\nTask instruction: b\nOutput format: c", USERS[1])
    assert [(s[0], s[3]) for s in provider.sends] == [
        ("extract", prompt_key(USERS[0])),
        ("specialize", prompt_key(USERS[1])),
    ]
    assert all(s[2] is not None and s[2] >= 0 for s in provider.sends)


def test_kill_hook_runs_before_the_kth_extract_call(monkeypatch):
    killed = []
    monkeypatch.setattr("doubles.os.kill", lambda pid, sig: killed.append(sig))
    flushed = []
    provider = RecordingProvider(MockProvider(), kill_at=2, on_kill=lambda: flushed.append(len(provider.sends)))
    provider.stage = "extract"
    provider.send(SYSTEM, USERS[0])
    assert not killed
    provider.send(SYSTEM, USERS[1])
    assert flushed == [2] and len(killed) == 1
