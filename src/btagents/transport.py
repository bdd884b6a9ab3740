"""The one HTTP seam, the chat client's retry loop: transport failures, 5xx
replies and 408 and 429 replies are retried, other 4xx replies fail. `requests`
is imported here only, and only on use, so offline runs never load it."""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Callable

from .errors import ConfigError, NetworkError


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
    seconds, at most `timeout`. Returns the reply and the attempt that got it.
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
    retry_after = None  # the seconds the last reply asked to wait, if it was a 408 or 429
    for attempt in range(1, attempts_allowed + 1):
        if retry_after is not None:
            if retry_after > 0:
                time.sleep(retry_after)
            retry_after = None
        elif attempt > 1 and config.backoff_seconds > 0:
            time.sleep(config.backoff_seconds * 2 ** (attempt - 2))
        try:
            resp = send(url, headers=headers, timeout=config.timeout, **kwargs)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code in (408, 429):  # a request timeout or a rate limit
            last_error = f"rejected with {resp.status_code}"
            value = resp.headers.get("Retry-After", "").strip()  # an HTTP-date is left to the backoff
            retry_after = min(float(value), config.timeout) if value.isascii() and value.isdigit() else None
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
