"""The one retry loop, as the chat client and the feed fetchers both use it."""

from datetime import date

import pytest
import requests

from btagents.agents import ChatClient, ChatClientConfig
from btagents.errors import InvariantViolation, NetworkError
from btagents.fetchers import EndpointConfig, fetch_social

from test_agents import FakeResponse, FakeSession, any_bundle, ok_response
from test_fetchers import StubSession


# a plan lists what each attempt gets: an HTTP status (200 is a usable reply)
# or an exception raised by the session


def chat(plan, **retry):
    """A call through ChatClient, and its fake session holding the unused plan."""
    session = FakeSession(
        [a if isinstance(a, Exception) else FakeResponse(a) if a != 200 else ok_response("ok") for a in plan]
    )
    client = ChatClient(ChatClientConfig(base_url="http://fake/v1", **retry), session=session)
    return lambda: client.complete(any_bundle()), session


def fetch(plan, **retry):
    """A call through fetch_social, and its stub session holding the unused plan."""
    session = StubSession([a if isinstance(a, Exception) else (a, '{"mean": 0.1}') for a in plan])
    config = EndpointConfig(base_url="http://social.test", **retry)
    day = date(2024, 11, 4)
    return lambda: fetch_social(config, day, day, session=session), session


CLIENTS = pytest.mark.parametrize("client", [chat, fetch], ids=["chat", "fetch"])


@CLIENTS
def test_backoff_doubles_before_each_retry(client, monkeypatch):
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    call, fake = client([503, requests.ConnectionError("reset"), 200], max_retries=3, backoff_seconds=0.5)
    call()
    assert sleeps == [0.5, 1.0]
    assert fake.plan == []


@CLIENTS
def test_no_sleep_without_backoff(client, monkeypatch):
    sleeps = []
    monkeypatch.setattr("btagents.transport.time.sleep", sleeps.append)
    call, _ = client([503, 200], max_retries=3, backoff_seconds=0.0)
    call()
    assert sleeps == []


@CLIENTS
def test_4xx_uses_one_attempt(client):
    call, fake = client([404, 200], max_retries=3, backoff_seconds=0.0)
    with pytest.raises(NetworkError) as exc:
        call()
    assert exc.value.attempts == 1
    assert "rejected with 404" in str(exc.value)
    assert len(fake.plan) == 1


@CLIENTS
def test_last_failure_sets_the_error(client):
    call, _ = client([requests.Timeout("slow"), 503, 503], max_retries=3, backoff_seconds=0.0)
    with pytest.raises(NetworkError) as exc:
        call()
    assert exc.value.attempts == 3


@CLIENTS
def test_every_attempt_timing_out_raises_timeout(client):
    call, fake = client([requests.Timeout("slow")] * 3, max_retries=3, backoff_seconds=0.0)
    with pytest.raises(TimeoutError, match=r"timed out after 3 attempt\(s\)"):
        call()
    assert fake.plan == []


@CLIENTS
def test_5xx_exhaustion_names_the_attempts_once(client):
    call, _ = client([500, 502, 503], max_retries=3, backoff_seconds=0.0)
    with pytest.raises(NetworkError) as exc:
        call()
    assert str(exc.value).count("(after 3 attempt(s))") == 1
    assert "server error 503" in str(exc.value)


@CLIENTS
def test_zero_retries_still_makes_one_attempt(client):
    call, fake = client([503, 200], max_retries=0, backoff_seconds=0.0)
    with pytest.raises(NetworkError) as exc:
        call()
    assert exc.value.attempts == 1
    assert len(fake.plan) == 1


@CLIENTS
@pytest.mark.parametrize("timeout", [0, 0.0, -1.0, float("nan")], ids=["0", "0.0", "-1", "nan"])
def test_timeout_must_be_positive(client, timeout):
    """No config with a timeout `requests` would refuse is built, so no call is made."""
    with pytest.raises(InvariantViolation, match="timeout must be > 0"):
        client([200], timeout=timeout)


def test_bearer_headers(monkeypatch):
    """Both clients send the key held in `api_key_env_var` as a bearer token,
    and no Authorization header when that variable is unset or unnamed."""
    monkeypatch.setenv("FEED_KEY", "k1")
    monkeypatch.delenv("UNSET_KEY", raising=False)
    sent = {}
    for env_var in ("FEED_KEY", "UNSET_KEY", ""):
        chat_call, chat_session = chat([200], api_key_env_var=env_var)
        fetch_call, fetch_session = fetch([200], api_key_env_var=env_var)
        chat_call(), fetch_call()
        sent[env_var] = (chat_session.requests[0]["headers"], fetch_session.calls[0]["headers"])
    bearer = {"Authorization": "Bearer k1"}
    assert sent == {"FEED_KEY": (bearer, bearer), "UNSET_KEY": ({}, {}), "": ({}, {})}
