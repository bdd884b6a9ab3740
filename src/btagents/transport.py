"""The one retry policy for HTTP calls, shared by the chat client and the feed
fetchers: transport failures and 5xx replies are retried, 4xx replies fail."""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from .errors import NetworkError


def bearer_headers(env_var: str) -> dict[str, str]:
    """An Authorization header with the key held in `env_var`, if it is set."""
    key = os.environ.get(env_var, "")
    return {"Authorization": f"Bearer {key}"} if key else {}


def send_with_retries(
    send: Callable[[], tuple[int, Any]], max_retries: int, backoff_seconds: float, what: str
) -> tuple[Any, int]:
    """Call `send` (returning (status, reply)) until a status below 400.

    Allows max(1, max_retries) attempts and sleeps backoff_seconds * 2**(k-2)
    before attempt k >= 2. Returns the reply and the attempt that got it.
    When every attempt fails, the last failure sets the error: TimeoutError
    for a timeout, NetworkError otherwise.
    """
    import requests  # here, not at module level, so offline runs never load it

    attempts_allowed = max(1, max_retries)
    last_error: object = None
    for attempt in range(1, attempts_allowed + 1):
        if attempt > 1 and backoff_seconds > 0:
            time.sleep(backoff_seconds * 2 ** (attempt - 2))
        try:
            status, reply = send()
        except requests.RequestException as exc:
            last_error = exc
            continue
        if status >= 500:
            last_error = f"server error {status}"
            continue
        if status >= 400:
            raise NetworkError(f"{what} rejected with {status}", attempt)
        return reply, attempt
    if isinstance(last_error, requests.Timeout):
        raise TimeoutError(f"{what} timed out after {attempts_allowed} attempt(s)")
    raise NetworkError(f"{what} failed: {last_error}", attempts_allowed)
