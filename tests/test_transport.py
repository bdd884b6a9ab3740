"""The live client, `transport.ChatClient`, and its one retry loop: against a
fake session, for whole runs behind a fake session, and for a few days of a
run over a real socket."""

import itertools
import json
import random
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from btagents.agents import DECISION_SYSTEM, QUANTS_SYSTEM, SIGNALS_SYSTEM
from btagents.cli import main
from btagents.errors import ConfigError, NetworkError, ProviderRefused
from btagents.journal import read_journal, write_journal
from btagents.orchestrator import RunConfig, replay, run_backtest
from btagents.reflection import AGENT_ROLES, REFLECT_SYSTEM
from btagents.transport import LONGEST_SLEEP, ChatClient, ChatClientConfig

from conftest import FIXTURE_DIR, scripted_plan, synth_dataset
from test_agents import FakeResponse, FakeSession, any_bundle, ok_response
from test_cli import write_config


# a plan lists what each attempt gets: an HTTP status (200 is a usable reply)
# or an exception raised by the session


def chat(plan, **retry):
    """A call through ChatClient, and its fake session holding the unused plan."""
    session = FakeSession(
        [
            a if isinstance(a, (Exception, FakeResponse)) else FakeResponse(a) if a != 200 else ok_response("ok")
            for a in plan
        ]
    )
    client = ChatClient(ChatClientConfig(base_url="http://fake/v1", **retry), session=session)
    return lambda: client.complete(any_bundle()), session


def test_backoff_doubles_before_each_retry(monkeypatch):
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    call, fake = chat([503, requests.ConnectionError("reset"), 200], max_retries=3, backoff_seconds=0.5)
    call()
    assert sleeps == [0.5, 1.0]
    assert fake.plan == []


def test_no_sleep_without_backoff(monkeypatch):
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    call, _ = chat([503, 200], max_retries=3, backoff_seconds=0.0)
    call()
    assert sleeps == []


def test_4xx_uses_one_attempt():
    call, fake = chat([404, 200], max_retries=3, backoff_seconds=0.0)
    with pytest.raises(NetworkError) as exc:
        call()
    assert exc.value.attempts == 1
    assert "rejected with 404" in str(exc.value)
    assert len(fake.plan) == 1


@pytest.mark.parametrize("status", [401, 403, 404])
def test_a_refused_request_ends_the_run_at_its_first_post(status):
    """A wrong key, model or URL fails every call alike, so the run ends, rather
    than journaling 30 days of fallbacks."""
    dataset = synth_dataset(32 + 30 + 2)
    days = dataset.dates[32:62]
    config = RunConfig(start=days[0], end=days[-1], client=ChatClientConfig(base_url="http://fake/v1"))
    session = FakeSession([FakeResponse(status)] * 4 * 30)
    with pytest.raises(ProviderRefused, match=rf"^chat completion rejected with {status} \(after 1 attempt\(s\)\)$"):
        run_backtest(config, dataset, ChatClient(config.client, session=session))
    assert len(session.requests) == 1


@pytest.mark.parametrize("status", [400, 413, 422])
def test_a_refused_prompt_is_one_fallback(status):
    """A provider may refuse one prompt (too long, filtered) and take the next."""
    dataset = synth_dataset(32 + 3 + 2)
    days = dataset.dates[32:35]
    config = RunConfig(start=days[0], end=days[-1], client=ChatClientConfig(base_url="http://fake/v1"))
    faults = [FakeResponse(status)]
    session = ScriptedProvider(scripted_plan(days), lambda reply: faults.pop() if faults else ok_response(reply))
    journal = run_backtest(config, dataset, ChatClient(config.client, session=session))
    quants = journal.days[0]["roles"]["quants"]
    assert quants["fallback"] is True
    assert quants["attempts"] == [
        {"raw": None, "error": f"NetworkError: chat completion rejected with {status} (after 1 attempt(s))"}
    ]
    assert [role for day in journal.days for role, e in day["roles"].items() if e["fallback"]] == ["quants"]
    replay(journal)


def test_backtest_refused_by_the_provider_writes_no_journal(tmp_path, monkeypatch, capsys):
    session = FakeSession([FakeResponse(403)])
    monkeypatch.setattr("btagents.transport.default_session", lambda: session)
    assert main(["backtest", "--config", str(write_config(tmp_path))]) == 1
    assert capsys.readouterr().err == "error: chat completion rejected with 403 (after 1 attempt(s))\n"
    assert len(session.requests) == 1
    assert not (tmp_path / "journal.jsonl").exists()
    assert list(tmp_path.rglob("*.tmp")) == []


DOWN = (
    "{day}: the last call failed with NetworkError: chat completion failed: server error 503 (after 3 attempt(s)); "
    "no call of the day got a reply (after 4 attempt(s))"
)


def test_a_provider_down_all_day_ends_the_run_on_that_day(monkeypatch):
    """When no call of a day gets a reply, the run ends there, rather than
    sleeping through backoffs for 30 days of fallbacks."""
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    dataset = synth_dataset(32 + 30 + 2)
    days = dataset.dates[32:62]
    config = RunConfig(start=days[0], end=days[-1], client=ChatClientConfig(base_url="http://fake/v1"))
    session = FakeSession([FakeResponse(503)] * 12 * 30)
    with pytest.raises(ProviderRefused) as exc:
        run_backtest(config, dataset, ChatClient(config.client, session=session))
    assert str(exc.value) == DOWN.format(day=days[0])
    assert exc.value.attempts == 4  # the day's three roles and its reflect call, one journal attempt each
    assert len(session.requests) == 12
    assert sum(sleeps) == 6.0


def test_backtest_with_the_provider_down_writes_no_journal(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("btagents.transport.time.sleep", lambda seconds: None)
    session = FakeSession([FakeResponse(503)] * 12 * 2)
    monkeypatch.setattr("btagents.transport.default_session", lambda: session)
    assert main(["backtest", "--config", str(write_config(tmp_path))]) == 1
    assert capsys.readouterr().err == f"error: {DOWN.format(day='2024-11-04')}\n"
    assert len(session.requests) == 12
    assert not (tmp_path / "journal.jsonl").exists()
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize(
    "daily_feedback, fallbacks",
    [
        (True, [(1, "signals"), (1, "decision"), (2, "quants"), (2, "signals"), (2, "decision")]),
        (False, [(1, "signals"), (1, "decision"), (2, "quants"), (2, "signals")]),
    ],
)
def test_an_outage_over_part_of_two_days_keeps_the_run(daily_feedback, fallbacks):
    """A day on which one call got a reply goes on: an outage from day 1's
    second call to day 2's second-to-last leaves a complete run that replays."""
    dataset = synth_dataset(32 + 4 + 2)
    days = dataset.dates[32:36]
    client = ChatClientConfig(base_url="http://fake/v1", max_retries=1)
    config = RunConfig(start=days[0], end=days[-1], daily_feedback=daily_feedback, client=client)
    calls = 4 if daily_feedback else 3  # a day's calls, one post each
    down, posts = range(calls + 1, 3 * calls - 1), itertools.count()
    session = ScriptedProvider(
        scripted_plan(days), lambda reply: FakeResponse(503) if next(posts) in down else ok_response(reply)
    )
    journal = run_backtest(config, dataset, ChatClient(client, session=session))
    assert next(posts) == 4 * calls
    found = [(i, role) for i, day in enumerate(journal.days) for role, entry in day["roles"].items() if entry["fallback"]]
    assert found == fallbacks
    replay(journal)


def limited(status, retry_after=None):
    """A 408 or 429 reply, with a Retry-After header if one is given."""
    resp = FakeResponse(status)
    resp.headers = {} if retry_after is None else {"Retry-After": retry_after}
    return resp


def test_rate_limit_then_reply_is_retried_at_once(monkeypatch):
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    call, fake = chat([limited(429, "0"), 200], max_retries=3, backoff_seconds=0.5)
    result = call()
    assert (result.text, result.attempts) == ("ok", 2)
    assert sleeps == []  # a Retry-After of 0 replaces the backoff
    assert fake.plan == []


@pytest.mark.parametrize(
    "retry_after, slept",
    [
        ("7", 7.0),
        (" 7 ", 7.0),
        ("600", 30.0),  # at most the timeout
        ("9" * 5000, 30.0),
        (None, 0.5),  # no header, an HTTP-date or any other text: the backoff
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5),
        ("1.5", 0.5),
        ("-1", 0.5),
        ("\u0667", 0.5),  # a digit, but not an ASCII one
    ],
    ids=["7", "padded", "capped", "5000-digits", "none", "http-date", "fraction", "negative", "arabic-indic"],
)
@pytest.mark.parametrize("status", [408, 429])
def test_retry_after_seconds_replace_the_backoff(monkeypatch, status, retry_after, slept):
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    call, fake = chat([limited(status, retry_after), 503, 200], max_retries=3, backoff_seconds=0.5, timeout=30.0)
    assert call().attempts == 3
    assert sleeps == [slept, 1.0]  # the 503 after it gets the backoff again
    assert fake.plan == []


def test_rate_limit_on_every_attempt_names_it(monkeypatch):
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    call, fake = chat([limited(429, "2")] * 3, max_retries=3, backoff_seconds=0.5)
    with pytest.raises(NetworkError) as exc:
        call()
    assert str(exc.value) == "chat completion failed: rejected with 429 (after 3 attempt(s))"
    assert exc.value.attempts == 3
    assert sleeps == [2.0, 2.0]
    assert fake.plan == []


def test_backoff_stops_doubling_at_the_timeout(monkeypatch):
    """Past attempt 1025 the doubled backoff is beyond any float; it stays at the timeout."""
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    call, fake = chat([503] * 1100 + [200], max_retries=1101, backoff_seconds=0.5, timeout=30.0)
    assert call().attempts == 1101
    assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] + [30.0] * 1094
    assert fake.plan == []


def test_last_failure_sets_the_error():
    call, _ = chat([requests.Timeout("slow"), 503, 503], max_retries=3, backoff_seconds=0.0)
    with pytest.raises(NetworkError) as exc:
        call()
    assert exc.value.attempts == 3


def test_every_attempt_timing_out_raises_timeout():
    call, fake = chat([requests.Timeout("slow")] * 3, max_retries=3, backoff_seconds=0.0)
    with pytest.raises(TimeoutError, match=r"timed out after 3 attempt\(s\)"):
        call()
    assert fake.plan == []


def test_5xx_exhaustion_names_the_attempts_once():
    call, _ = chat([500, 502, 503], max_retries=3, backoff_seconds=0.0)
    with pytest.raises(NetworkError) as exc:
        call()
    assert str(exc.value).count("(after 3 attempt(s))") == 1
    assert "server error 503" in str(exc.value)


def test_zero_retries_still_makes_one_attempt():
    call, fake = chat([503, 200], max_retries=0, backoff_seconds=0.0)
    with pytest.raises(NetworkError) as exc:
        call()
    assert exc.value.attempts == 1
    assert len(fake.plan) == 1


@pytest.mark.parametrize(
    "timeout", [0, 0.0, -1.0, float("nan"), float("inf"), 1e10], ids=["0", "0.0", "-1", "nan", "inf", "1e10"]
)
def test_timeout_must_be_positive(timeout):
    """No config with a timeout `requests` or the socket would refuse is built, so no call is made."""
    with pytest.raises(ConfigError, match="config key 'timeout' must be > 0"):
        chat([200], timeout=timeout)


def test_largest_timeout_is_one_a_socket_takes():
    assert ChatClientConfig(timeout=threading.TIMEOUT_MAX).timeout == threading.TIMEOUT_MAX
    with socket.socket() as sock:
        sock.settimeout(threading.TIMEOUT_MAX)


@pytest.mark.parametrize("max_retries", [-1, float("nan")], ids=["-1", "nan"])
def test_max_retries_must_not_be_negative(max_retries):
    with pytest.raises(ConfigError, match="config key 'max_retries' must be >= 0"):
        chat([200], max_retries=max_retries)


def test_bearer_headers(monkeypatch):
    """The client sends the key held in `api_key_env_var` as a bearer token,
    and no Authorization header when that variable is unset or unnamed."""
    monkeypatch.setenv("CHAT_KEY", "k1")
    monkeypatch.delenv("UNSET_KEY", raising=False)
    sent = {}
    for env_var in ("CHAT_KEY", "UNSET_KEY", ""):
        call, session = chat([200], api_key_env_var=env_var)
        call()
        sent[env_var] = session.requests[0]["headers"]
    assert sent == {"CHAT_KEY": {"Authorization": "Bearer k1"}, "UNSET_KEY": {}, "": {}}


class NeverSends:
    def post(self, *args, **kwargs):
        pytest.fail("a key no header can carry was sent")


@pytest.mark.parametrize(
    "key", ["s3cret\n", "s3cret\r", "s3\r\ncret", "s3cret\u20ac", "s3cret\udcff"],
    ids=["lf", "cr", "crlf", "euro", "surrogate"],
)
def test_key_no_header_can_carry_is_config_error(monkeypatch, key):
    """Refused before any attempt, naming the variable but not its value."""
    monkeypatch.setenv("CHAT_KEY", key)
    config = ChatClientConfig(base_url="http://fake/v1", api_key_env_var="CHAT_KEY")
    client = ChatClient(config, session=NeverSends())
    with pytest.raises(ConfigError, match="environment variable 'CHAT_KEY' holds a character") as exc:
        client.complete(any_bundle())
    assert "s3" not in str(exc.value)


def test_latin1_key_is_sent(monkeypatch):
    monkeypatch.setenv("CHAT_KEY", "k\xe9y")
    call, session = chat([200], api_key_env_var="CHAT_KEY")
    call()
    assert session.requests[0]["headers"] == {"Authorization": "Bearer k\xe9y"}


# ---------------------------------------------------------------------------
# a few scripted days through the real ChatClient and `requests`, served from a
# socket on 127.0.0.1, with one 5xx, one 429 with a Retry-After of 0, one reply
# slower than the client timeout and one body cut short of its Content-Length

TIMEOUT = 0.2
SYSTEM_ROLES = {
    QUANTS_SYSTEM: "quants", SIGNALS_SYSTEM: "signals", DECISION_SYSTEM: "decision", REFLECT_SYSTEM: "reflect"
}


class ChatServer(ThreadingHTTPServer):
    daemon_threads = False  # so server_close joins every handler thread

    def __init__(self, replies, faults):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.replies = replies  # "role:date" -> reply text
        self.faults = faults  # (role, date, attempt or None for every attempt) -> fault
        self.seen = {}  # request body -> times received
        self.log = []  # (role, date, attempt, fault) per request
        self.release = threading.Event()  # set at teardown, so a slow reply ends at once


class ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        messages = json.loads(body)["messages"]
        role = SYSTEM_ROLES[messages[0]["content"]]
        day = re.match(r"Date: (\S+)\n", messages[1]["content"]).group(1)
        # the attempt is read from the request: how often this same body came before
        attempt = server.seen[body] = server.seen.get(body, 0) + 1
        fault = server.faults.get((role, day, attempt), server.faults.get((role, day, None)))
        server.log.append((role, day, attempt, fault))
        if fault == "503":
            self.send_error(503)
            return
        if fault == "429":
            self.send_response(429)
            self.send_header("Retry-After", "0")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if fault == "slow":
            server.release.wait(50 * TIMEOUT)
        reply = json.dumps({"choices": [{"message": {"content": server.replies[f"{role}:{day}"]}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        try:
            self.wfile.write(reply[: len(reply) // 2] if fault == "cut" else reply)
        except OSError:  # the client gave up on a slow reply
            pass

    def log_message(self, *args):
        pass


# (role, day index, attempt or None for every attempt) -> fault
FAULTS = {
    ("quants", 0, 1): "503",
    ("signals", 0, 1): "429",
    ("signals", 1, None): "slow",
    ("decision", 2, 1): "cut",
}


def run_over_loopback(tmp_path, name):
    """A 3-day run against a fresh server; returns its journal's path and the server's log."""
    dataset = synth_dataset(32 + 3 + 2)
    days = dataset.dates[32:35]
    config = RunConfig(start=days[0], end=days[-1], weekly_feedback=False)
    faults = {(role, days[i].isoformat(), attempt): fault for (role, i, attempt), fault in FAULTS.items()}
    server = ChatServer(scripted_plan(days), faults)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        with requests.Session() as session:
            session.trust_env = False  # no proxy from the environment
            client_config = ChatClientConfig(
                base_url=f"http://127.0.0.1:{server.server_port}/v1",
                timeout=TIMEOUT,
                max_retries=2,
                backoff_seconds=0,
            )
            journal = run_backtest(config, dataset, ChatClient(client_config, session=session))
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join()
    assert not thread.is_alive()
    assert server.socket.fileno() == -1
    path = tmp_path / f"{name}.jsonl"
    write_journal(journal, str(path))
    return path, server.log


def test_faults_through_a_real_socket(tmp_path):
    threads_before = set(threading.enumerate())
    started = time.monotonic()
    path, log = run_over_loopback(tmp_path, "a")
    again, log_again = run_over_loopback(tmp_path, "b")
    assert time.monotonic() - started < 5
    assert set(threading.enumerate()) == threads_before

    assert path.read_bytes() == again.read_bytes()
    assert log == log_again
    faulted = [(role, attempt, fault) for role, _, attempt, fault in log if fault]
    assert faulted == [
        ("quants", 1, "503"),
        ("signals", 1, "429"),
        ("signals", 1, "slow"),
        ("signals", 2, "slow"),
        ("decision", 1, "cut"),
    ]
    assert len(log) == 3 * 4 + 4  # one call per role and day, and one retry per fault

    journal = read_journal(str(path))
    replay(journal)
    fallbacks = [
        (i, role) for i, day in enumerate(journal.days) for role, entry in day["roles"].items() if entry["fallback"]
    ]
    assert fallbacks == [(1, "signals")]  # the 503, the 429 and the cut body were retried
    assert journal.days[1]["roles"]["signals"]["attempts"] == [
        {"raw": None, "error": "TimeoutError: chat completion timed out after 2 attempt(s)"}
    ]


# ---------------------------------------------------------------------------
# whole runs behind a fake session: no retry sleep ends a run, and any mix of
# provider faults leaves a complete journal that replays


class ScriptedProvider:
    """A fake session for ChatClient: each call gets what `outcome` makes of the
    scripted reply for the call's role and date, a reply or an exception to raise."""

    def __init__(self, replies, outcome):
        self.replies = replies
        self.outcome = outcome

    def post(self, url, json=None, headers=None, timeout=None):
        system, user = (message["content"] for message in json["messages"])
        day = re.match(r"Date: (\S+)\n", user).group(1)
        got = self.outcome(self.replies[f"{SYSTEM_ROLES[system]}:{day}"])
        if isinstance(got, Exception):
            raise got
        return got


# client settings whose retry sleeps `time.sleep` would refuse if they were not
# capped, the fault on the run's first call, and the sleep that fault now gets
HUGE_SLEEPS = {
    "huge-backoff": ({"backoff_seconds": 1e10}, FakeResponse(503), 120.0),  # capped at the timeout
    "huge-timeout": ({"timeout": 9223372036}, limited(429, "99999999999"), LONGEST_SLEEP),
}


@pytest.mark.parametrize("name", list(HUGE_SLEEPS))
def test_a_retry_sleep_too_long_for_time_sleep_keeps_the_run(tmp_path, monkeypatch, capsys, name):
    client, fault, slept = HUGE_SLEEPS[name]
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    faults = [fault]
    replies = json.loads((FIXTURE_DIR / "responses.json").read_text(encoding="utf-8"))
    provider = ScriptedProvider(replies, lambda reply: faults.pop() if faults else ok_response(reply))
    monkeypatch.setattr("btagents.transport.default_session", lambda: provider)
    assert main(["backtest", "--config", str(write_config(tmp_path, client=client))]) == 0
    assert capsys.readouterr().err == f"journal written to {tmp_path / 'journal.jsonl'}\n"
    assert sleeps == [slept]
    assert time.monotonic_ns() + slept * 1e9 < 2**63  # `time.sleep` refuses a sleep that ends past this
    replay(read_journal(str(tmp_path / "journal.jsonl")))


# what a faulty provider can send a call instead of its scripted reply
PROVIDER_FAULTS = (
    lambda reply: FakeResponse(500),
    lambda reply: FakeResponse(503),
    lambda reply: limited(408),
    *(lambda reply, wait=wait: limited(429, wait) for wait in ("0", "3", "abc", "", "9" * 30)),
    lambda reply: requests.ConnectionError("reset"),
    lambda reply: requests.Timeout("slow"),
    lambda reply: FakeResponse(200),  # a body that is not JSON
    lambda reply: FakeResponse(200, [reply]),
    lambda reply: FakeResponse(200, {"choices": []}),
    lambda reply: FakeResponse(200, {"choices": [{"message": {"content": 7}}]}),
    lambda reply: ok_response("x" * 2**21 + reply),  # 2 MB
    lambda reply: ok_response("Grüße € \U0001d11e " + reply),
    lambda reply: ok_response(reply + " \ud800"),  # a lone surrogate, as JSON's \ud800 escape decodes
    lambda reply: ok_response("{" * 5000 + reply),
    lambda reply: ok_response(reply.replace('"state"', '"stat"', 1).replace('"quants"', '"quant"', 1)),
)


def faulty_run(seed, client, path):
    """A 14-day run, with daily and weekly feedback, whose calls each get a
    fault drawn from PROVIDER_FAULTS half the time; its journal goes to `path`."""
    dataset = synth_dataset(32 + 14 + 2)
    days = dataset.dates[32:46]
    config = RunConfig(start=days[0], end=days[-1], client=ChatClientConfig(base_url="http://fake/v1", **client))
    rng = random.Random(seed)

    def outcome(reply):
        return ok_response(reply) if rng.random() < 0.5 else rng.choice(PROVIDER_FAULTS)(reply)

    session = ScriptedProvider(scripted_plan(days), outcome)
    write_journal(run_backtest(config, dataset, ChatClient(config.client, session=session)), str(path))


@pytest.mark.parametrize("seed", range(6))
def test_provider_faults_keep_a_run_complete_and_replayable(tmp_path, monkeypatch, seed):
    client = [{}, *(settings for settings, _, _ in HUGE_SLEEPS.values())][seed % 3]
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    faulty_run(seed, client, tmp_path / "a.jsonl")
    faulty_run(seed, client, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    journal = read_journal(str(tmp_path / "a.jsonl"))
    replay(journal)
    assert len(journal.days) == 14
    for day in journal.days:
        for role in AGENT_ROLES:
            entry = day["roles"][role]
            assert entry["fallback"] == (entry["raw"] is None and entry["attempts"][-1]["error"] is not None)
    longest = min(journal.header["config"]["client"]["timeout"], LONGEST_SLEEP)
    assert sleeps and all(0 < wait <= longest for wait in sleeps)
