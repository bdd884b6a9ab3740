"""The one HTTP seam, the chat client's retry loop: transport failures, 5xx
replies and 408 and 429 replies are retried, other 4xx replies fail. `requests`
is imported here only, and only on use, so offline runs never load it."""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable

from .errors import ConfigError, NetworkError

# `time.sleep` refuses a sleep whose end, on the monotonic clock, is past 2**63
# ns; half of that leaves about 146 years of clock, as `client.timeout` may be
# as large as `threading.TIMEOUT_MAX`
LONGEST_SLEEP = threading.TIMEOUT_MAX / 2


@functools.cache
def default_session():
    """One `requests.Session` per process, made on first use."""
    import requests

    return requests.Session()


def request(send: Callable[..., Any], url: str, config, what: str, **kwargs) -> tuple[Any, int]:
    """Call `send(url, headers=, timeout=, **kwargs)` (a session's bound `.get`
    or `.post`) until a reply with a status below 400.

    `config` supplies `api_key_env_var` (its value, if set, goes out as a
    bearer token; a CR, LF or non-Latin-1 character in it raises
    ConfigError before any attempt), `timeout`, `max_retries` and
    `backoff_seconds`. Allows max(1, max_retries) attempts and sleeps
    backoff_seconds * 2**(k-2) before attempt k >= 2, or, after a 408 or 429
    reply whose Retry-After header is a whole number of seconds, that many
    seconds; every sleep is at most `timeout` and at most LONGEST_SLEEP, and
    none is taken when it is not above 0. Returns the reply and the attempt
    that got it.
    When every attempt fails, the last failure sets the error: TimeoutError for
    a timeout, NetworkError otherwise.
    """
    import requests

    key = os.environ.get(config.api_key_env_var, "")
    if "\r" in key or "\n" in key or any(ord(c) > 0xFF for c in key):  # not Latin-1
        raise ConfigError(
            f"environment variable {config.api_key_env_var!r} holds a character an HTTP header cannot carry"
        )
    headers = {"Authorization": f"Bearer {key}"} if key else {}
    attempts_allowed = max(1, config.max_retries)
    last_error: object = None
    longest = min(config.timeout, LONGEST_SLEEP)
    backoff = config.backoff_seconds  # doubled after each retry, never past `longest`
    retry_after = None  # the seconds the last reply asked to wait, if it was a 408 or 429
    for attempt in range(1, attempts_allowed + 1):
        if attempt > 1:
            wait = backoff if retry_after is None else retry_after
            if wait > 0:
                time.sleep(min(wait, longest))
            backoff = min(backoff * 2, longest)
            retry_after = None
        try:
            resp = send(url, headers=headers, timeout=config.timeout, **kwargs)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code in (408, 429):  # a request timeout or a rate limit
            last_error = f"rejected with {resp.status_code}"
            value = resp.headers.get("Retry-After", "").strip()  # an HTTP-date is left to the backoff
            retry_after = float(value) if value.isascii() and value.isdigit() else None
            continue
        if resp.status_code >= 500:
            last_error = f"server error {resp.status_code}"
            continue
        if resp.status_code >= 400:
            raise NetworkError(f"{what} rejected with {resp.status_code}", attempt)
        return resp, attempt
    if isinstance(last_error, requests.Timeout):
        raise TimeoutError(f"{what} timed out after {attempts_allowed} attempt(s)")
    raise NetworkError(f"{what} failed: {last_error}", attempts_allowed)
