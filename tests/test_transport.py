"""The one retry loop, `transport.request`, as the chat client sends through it."""

import socket
import threading

import pytest
import requests

from btagents.agents import ChatClient, ChatClientConfig
from btagents.errors import ConfigError, NetworkError

from test_agents import FakeResponse, FakeSession, any_bundle, ok_response


# a plan lists what each attempt gets: an HTTP status (200 is a usable reply)
# or an exception raised by the session


def chat(plan, **retry):
    """A call through ChatClient, and its fake session holding the unused plan."""
    session = FakeSession(
        [a if isinstance(a, Exception) else FakeResponse(a) if a != 200 else ok_response("ok") for a in plan]
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
