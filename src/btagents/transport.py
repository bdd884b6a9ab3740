"""The one HTTP seam, the live chat-completions client: its config, its
session and its retry loop. Transport failures and 5xx, 408 and 429 replies
are retried; other 4xx replies fail, and 401, 403 and 404 end the run.
`requests` is imported here only, on use, so offline runs never load it."""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass

from .agents import InvokeResult, PromptBundle
from .errors import ConfigError, NetworkError, ProviderRefused, SchemaError

# `time.sleep` refuses a sleep whose end, on the monotonic clock, is past 2**63
# ns; half of that leaves about 146 years of clock, as `client.timeout` may be
# as large as `threading.TIMEOUT_MAX`
LONGEST_SLEEP = threading.TIMEOUT_MAX / 2


@dataclass(frozen=True)
class ChatClientConfig:
    base_url: str = "http://localhost:8000/v1"
    model_name: str = "deepseek-r1"
    api_key_env_var: str = "BTAGENTS_API_KEY"
    timeout: float = 120.0
    max_retries: int = 3
    temperature: float = 0.0
    backoff_seconds: float = 0.5

    def __post_init__(self):
        if not self.max_retries >= 0:
            raise ConfigError("config key 'max_retries' must be >= 0")
        # socket.settimeout can raise OverflowError on a larger timeout
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(f"config key 'timeout' must be > 0 and at most {threading.TIMEOUT_MAX}")


@functools.cache
def default_session():
    """One `requests.Session` per process, made on first use."""
    import requests

    return requests.Session()


class ChatClient:
    """Minimal chat-completions client with bounded retries."""

    def __init__(self, config: ChatClientConfig, session=None):
        self.config = config
        self._session = session if session is not None else default_session()

    def complete(self, bundle: PromptBundle) -> InvokeResult:
        """Post the bundle's two texts to `base_url`/chat/completions until a
        reply with a status below 400, and return its message content.

        The value of `api_key_env_var`, if set, goes out as a bearer token; a
        CR, LF or non-Latin-1 character in it raises ConfigError before any
        attempt. Allows max(1, max_retries) attempts and sleeps
        backoff_seconds * 2**(k-2) before attempt k >= 2, or, after a 408 or
        429 reply whose Retry-After header is a whole number of seconds, that
        many seconds; every sleep is at most `timeout` and at most
        LONGEST_SLEEP, and none is taken when it is not above 0.
        When every attempt fails, the last failure sets the error: TimeoutError
        for a timeout, NetworkError otherwise. A 200 reply whose body holds no
        text content is a SchemaError, a 401, 403 or 404 reply ProviderRefused,
        and neither is retried.
        """
        import requests

        cfg = self.config
        key = os.environ.get(cfg.api_key_env_var, "")
        if "\r" in key or "\n" in key or any(ord(c) > 0xFF for c in key):  # not Latin-1
            raise ConfigError(
                f"environment variable {cfg.api_key_env_var!r} holds a character an HTTP header cannot carry"
            )
        headers = {"Authorization": f"Bearer {key}"} if key else {}
        url = cfg.base_url.rstrip("/") + "/chat/completions"
        payload = {
            "model": cfg.model_name,
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": bundle.user_text},
            ],
            "temperature": cfg.temperature,
        }
        attempts_allowed = max(1, cfg.max_retries)
        last_error: object = None
        longest = min(cfg.timeout, LONGEST_SLEEP)
        backoff = cfg.backoff_seconds  # doubled after each retry, never past `longest`
        retry_after = None  # the seconds the last reply asked to wait, if it was a 408 or 429
        for attempt in range(1, attempts_allowed + 1):
            if attempt > 1:
                wait = backoff if retry_after is None else retry_after
                if wait > 0:
                    time.sleep(min(wait, longest))
                backoff = min(backoff * 2, longest)
                retry_after = None
            try:
                # requests sets Content-Type: application/json from `json`
                resp = self._session.post(url, headers=headers, timeout=cfg.timeout, json=payload)
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
            if resp.status_code >= 400:  # 401, 403 and 404 name a wrong key, model or URL
                error = ProviderRefused if resp.status_code in (401, 403, 404) else NetworkError
                raise error(f"chat completion rejected with {resp.status_code}", attempt)
            # read outside the `except` above: requests' JSONDecodeError is a RequestException
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise SchemaError(f"malformed completion body: {exc}") from exc
            if not isinstance(content, str):
                raise SchemaError("completion content is not text")
            return InvokeResult(text=content, attempts=attempt)
        if isinstance(last_error, requests.Timeout):
            raise TimeoutError(f"chat completion timed out after {attempts_allowed} attempt(s)")
        raise NetworkError(f"chat completion failed: {last_error}", attempts_allowed)
