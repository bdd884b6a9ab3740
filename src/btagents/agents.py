"""Prompt construction, chat-completion transport, and decision parsing.

Each agent sees only its own inputs: the quants prompt carries prices,
gauges and chain activity; the signals prompt carries press items and mood
scores; the decision prompt reads only each upstream view's `state` and
`reasoning` (never its allocation) plus the portfolio value.
`lint_bundle` enforces those boundaries on every generated prompt.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from dataclasses import dataclass, replace
from datetime import date as Date
from enum import Enum
from functools import lru_cache, partial
from typing import Any, Callable, Mapping, Protocol, Sequence

from .errors import (
    BtAgentsError,
    ConfigError,
    InvariantViolation,
    NetworkError,
    ParseError,
    RangeError,
    SchemaError,
)
from .indicators import IndicatorSnapshot
from .market_data import Bar, NewsItem, OnChainDaily, SentimentDaily
from .transport import default_session, request


class MarketState(str, Enum):
    BULLISH = "bullish"
    BEARISH = "bearish"
    NEUTRAL = "neutral"


class Role(str, Enum):
    QUANTS = "quants"
    SIGNALS = "signals"
    DECISION = "decision"
    REFLECT = "reflect"


@dataclass(frozen=True)
class PromptBundle:
    role: Role
    date: Date
    system_text: str
    user_text: str


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


@dataclass(frozen=True)
class InvokeResult:
    text: str
    attempts: int


class CompletionClient(Protocol):
    def complete(self, bundle: PromptBundle) -> InvokeResult: ...


# ---------------------------------------------------------------------------
# prompt templates

OUTPUT_CONTRACT = (
    "Respond with exactly one JSON object of the form\n"
    '{"state": "bullish" | "bearish" | "neutral", '
    '"allocation_btc_pct": <number between 0 and 100>, '
    '"reasoning": "<your full reasoning>"}\n'
    "You may reason in prose first, but the JSON object must appear in your reply."
)

DAILY_FEEDBACK_HEADER = "Short-term feedback on your previous decision:"
WEEKLY_FEEDBACK_HEADER = "Weekly review guidance (applies all week):"

QUANTS_SYSTEM = (
    "You are the quantitative analyst of a Bitcoin trading desk. Using only "
    "the price history, gauge readings, and chain activity provided, classify "
    "the NEXT day's market state as bullish, bearish, or neutral, and propose "
    "a BTC/cash split for the portfolio you manage.\n\n" + OUTPUT_CONTRACT
)

SIGNALS_SYSTEM = (
    "You are the mood analyst of a Bitcoin trading desk. Using only the press "
    "coverage and crowd-mood scores provided, classify the NEXT day's market "
    "state as bullish, bearish, or neutral, and propose a BTC/cash split for "
    "the portfolio you manage.\n\n" + OUTPUT_CONTRACT
)

DECISION_SYSTEM = (
    "You are the final decision maker of a Bitcoin trading desk. Two analysts "
    "report their market view and reasoning; they do not share their own "
    "position sizes with you. Weigh both views and set the desk's BTC/cash "
    "split for the NEXT day. Treat daily market inputs as the primary basis "
    "for decision-making; use short-term and long-term feedback only to "
    "refine your reasoning. Your mandate is to beat a passive benchmark that "
    "keeps half its value in BTC and half in cash.\n\n" + OUTPUT_CONTRACT
)


def _feedback_sections(daily_feedback: str | None, weekly_feedback: str | None) -> str:
    parts = []
    if daily_feedback:
        parts.append(f"{DAILY_FEEDBACK_HEADER}\n{daily_feedback}")
    if weekly_feedback:
        parts.append(f"{WEEKLY_FEEDBACK_HEADER}\n{weekly_feedback}")
    return ("\n\n" + "\n\n".join(parts)) if parts else ""


def build_quants_prompt(
    bars: Sequence[Bar],
    snapshot: IndicatorSnapshot,
    onchain: Sequence[OnChainDaily],
    daily_feedback: str | None = None,
    weekly_feedback: str | None = None,
) -> PromptBundle:
    """Price window, full gauge set, and chain activity for one date."""
    if snapshot.date != bars[-1].date:
        raise InvariantViolation("snapshot date must match the window's last bar")
    shown = bars[-10:]
    price_rows = "\n".join(
        f"{b.date.isoformat()}  open {b.open:.2f}  high {b.high:.2f}  "
        f"low {b.low:.2f}  close {b.close:.2f}  volume {b.volume:.2f}"
        for b in shown
    )
    adx_line = (
        f"ADX: {snapshot.adx:.2f}"
        if not snapshot.adx_degenerate
        else "ADX: not defined (flat range)"
    )
    chain_rows = "\n".join(
        f"{o.date.isoformat()}  transactions {o.tx_count}  "
        f"active addresses {o.active_addresses}  transfer volume {o.transfer_volume_usd:,.0f} USD"
        for o in onchain[-5:]
    )
    user = (
        f"Date: {snapshot.date.isoformat()}\n\n"
        f"Daily prices, last {len(shown)} of a {len(bars)}-day window (oldest first):\n"
        f"{price_rows}\n\n"
        "Gauge readings for the latest close:\n"
        f"SMA: {snapshot.sma:.2f}\n"
        f"EMA: {snapshot.ema:.2f}\n"
        f"MACD: line {snapshot.macd_line:.2f}, signal {snapshot.macd_signal_line:.2f}, "
        f"histogram {snapshot.macd_hist:.2f}\n"
        f"RSI: {snapshot.rsi:.2f}\n"
        f"Bollinger: upper {snapshot.bb_upper:.2f}, mid {snapshot.bb_mid:.2f}, "
        f"lower {snapshot.bb_lower:.2f}\n"
        f"VWAP: {snapshot.vwap:.2f}, with {snapshot.pct_below_vwap * 100:.0f}% of recent "
        "closes below it\n"
        f"{adx_line}\n\n"
        "Chain activity, most recent days:\n"
        f"{chain_rows}"
        f"{_feedback_sections(daily_feedback, weekly_feedback)}"
    )
    return PromptBundle(
        role=Role.QUANTS, date=snapshot.date, system_text=QUANTS_SYSTEM, user_text=user
    )


def build_signals_prompt(
    news: Sequence[NewsItem],
    sentiment: SentimentDaily,
    daily_feedback: str | None = None,
    weekly_feedback: str | None = None,
) -> PromptBundle:
    """Press items and crowd-mood scores for one date."""
    if news:
        news_block = "\n".join(
            f"- [{n.source}] {n.headline}" + (f" :: {n.summary}" if n.summary else "")
            for n in news
        )
    else:
        news_block = "No news available for this date."
    user = (
        f"Date: {sentiment.date.isoformat()}\n\n"
        "Crowd-mood readings:\n"
        f"Fear & Greed Index: {sentiment.fgi_value} ({sentiment.fgi_label})\n"
        f"Aggregate social score (scale -1 to +1): {sentiment.social_score_mean:+.4f}\n\n"
        "Press coverage:\n"
        f"{news_block}"
        f"{_feedback_sections(daily_feedback, weekly_feedback)}"
    )
    return PromptBundle(
        role=Role.SIGNALS, date=sentiment.date, system_text=SIGNALS_SYSTEM, user_text=user
    )


def build_decision_prompt(
    date: Date,
    quants: Mapping,
    signals: Mapping,
    portfolio_value: float,
    daily_feedback: str | None = None,
    weekly_feedback: str | None = None,
) -> PromptBundle:
    """The two upstream entries' `state` and `reasoning` (no other field is
    read, so their allocations never reach the prompt) plus the book value."""
    user = (
        f"Date: {date.isoformat()}\n\n"
        f"Technical analyst's view: {quants['state']}\n"
        f"Technical analyst's reasoning: {quants['reasoning']}\n\n"
        f"Mood analyst's view: {signals['state']}\n"
        f"Mood analyst's reasoning: {signals['reasoning']}\n\n"
        f"Current portfolio value: {portfolio_value:,.2f} USD\n"
        "Set the BTC/cash split that you expect to beat the passive half-BTC, "
        "half-cash benchmark over the next day."
        f"{_feedback_sections(daily_feedback, weekly_feedback)}"
    )
    return PromptBundle(
        role=Role.DECISION, date=date, system_text=DECISION_SYSTEM, user_text=user
    )


# ---------------------------------------------------------------------------
# prompt linting

INDICATOR_TERMS = (
    "macd",
    "rsi",
    "vwap",
    "adx",
    "bollinger",
    "moving average",
    "sma",
    "ema",
    "macd_line",
    "macd_signal_line",
    "macd_hist",
    "bb_upper",
    "bb_mid",
    "bb_lower",
    "pct_below_vwap",
)

NEWS_SENTIMENT_TERMS = (
    "news",
    "headline",
    "sentiment",
    "fear",
    "greed",
    "fgi",
    "social",
    "press",
)


@lru_cache(maxsize=256)
def _word(term: str) -> re.Pattern:
    """Case-insensitive match of `term` as a whole word."""
    return re.compile(rf"(?<![a-z0-9_]){re.escape(term)}(?![a-z0-9_])", re.IGNORECASE)


# the three characters that IGNORECASE matches to an ASCII letter but that
# str.lower() does not lower to one ("\u0130".lower() is two characters)
_FOLD_TO_ASCII = str.maketrans({"\u017f": "s", "\u0131": "i", "\u0130": "i"})


def _fold(text: str) -> str:
    """`text` lower-cased one character for one, so every character that
    IGNORECASE matches to an ASCII letter is that letter."""
    return text.lower() if text.isascii() else text.translate(_FOLD_TO_ASCII).lower()


def _words_in(terms: Sequence[str], text: str) -> list[str]:
    """The terms `_word` finds in `text`, in order.

    Wherever `_word(t)` matches, `t` is a substring of the folded text, so
    the substring test skips the regex for every absent term.
    """
    folded = _fold(text)
    return [t for t in terms if t in folded and _word(t).search(text)]


def allocation_tokens(btc_fraction: float) -> list[str]:
    """Digit-bearing spellings of an allocation that must not leak downstream."""
    pct = btc_fraction * 100.0
    tokens = {f"{pct:.0f}%", f"{pct:.1f}%", f"{pct:.2f}%", f"{btc_fraction:.2f}", f"{btc_fraction:.3f}"}
    return sorted(tokens)


def _contains_token(text: str, token: str) -> bool:
    return token in text and re.search(rf"(?<![\d.]){re.escape(token)}(?!\d)", text) is not None


def lint_bundle(
    bundle: PromptBundle,
    upstream_allocations: Sequence[float] = (),
) -> list[str]:
    """Scope violations in a prompt: empty list means the bundle is clean."""
    text = bundle.system_text + "\n" + bundle.user_text
    violations = []
    if bundle.role == Role.SIGNALS:
        for term in _words_in(INDICATOR_TERMS, text):
            violations.append(f"signals prompt mentions indicator term '{term}'")
    elif bundle.role == Role.QUANTS:
        for term in _words_in(NEWS_SENTIMENT_TERMS, text):
            violations.append(f"quants prompt mentions news/sentiment term '{term}'")
    elif bundle.role == Role.DECISION:
        for frac in upstream_allocations:
            for token in allocation_tokens(frac):
                if _contains_token(text, token):
                    violations.append(
                        f"decision prompt leaks upstream allocation token '{token}'"
                    )
    return violations


# ---------------------------------------------------------------------------
# transports

class ChatClient:
    """Minimal chat-completions client with bounded retries.

    Retries follow `transport.request`; `max_retries` caps total attempts.
    """

    def __init__(self, config: ChatClientConfig, session=None):
        self.config = config
        self._session = session if session is not None else default_session()

    def complete(self, bundle: PromptBundle) -> InvokeResult:
        cfg = self.config
        payload = {
            "model": cfg.model_name,
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": bundle.user_text},
            ],
            "temperature": cfg.temperature,
        }
        resp, attempt = request(
            self._session.post,
            cfg.base_url.rstrip("/") + "/chat/completions",
            cfg,
            "chat completion",
            json=payload,  # requests sets Content-Type: application/json from it
        )
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise SchemaError(f"malformed completion body: {exc}") from exc
        if not isinstance(content, str):
            raise SchemaError("completion content is not text")
        return InvokeResult(text=content, attempts=attempt)


class ScriptedResponder:
    """Deterministic stand-in for the chat endpoint, keyed by role and date.

    The fixture file is a JSON object mapping "role:YYYY-MM-DD" to the full
    assistant reply for that invocation.
    """

    def __init__(self, responses: dict[str, str]):
        self.responses = dict(responses)

    @classmethod
    def from_file(cls, path: str) -> "ScriptedResponder":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SchemaError(f"{path}: fixture is not UTF-8 JSON: {exc}") from None
        if not isinstance(data, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in data.items()
        ):
            raise SchemaError(f"{path}: fixture must map 'role:date' strings to reply strings")
        return cls(data)

    def complete(self, bundle: PromptBundle) -> InvokeResult:
        key = f"{bundle.role.value}:{bundle.date.isoformat()}"
        if key not in self.responses:
            raise BtAgentsError(f"no scripted response for {key}")
        return InvokeResult(text=self.responses[key], attempts=1)


# ---------------------------------------------------------------------------
# output parsing

_DECODER = json.JSONDecoder()


def _iter_json_objects(text: str):
    i = text.find("{")
    while i != -1:
        try:
            obj, end = _DECODER.raw_decode(text, i)
        except ValueError:
            i = text.find("{", i + 1)
            continue
        if isinstance(obj, dict):
            yield obj
        i = text.find("{", end)


REQUIRED_KEYS = ("state", "allocation_btc_pct", "reasoning")
PARSE_ERRORS = (ParseError, SchemaError, RangeError)  # what a reply that does not parse raises
_REQUIRED = frozenset(REQUIRED_KEYS)
STATE_VALUES = frozenset(s.value for s in MarketState)


def _first_object_with(raw: str, keys: frozenset, who: str, missing: str) -> dict:
    """The first JSON object in a reply that has every key in `keys`; prose
    may surround it. Raises ParseError for an empty reply or one with no
    object, and SchemaError, naming what is `missing`, when no object has them."""
    if not raw or raw.isspace():
        raise ParseError(f"{who}: empty response")
    found_any = False
    for obj in _iter_json_objects(raw):
        if obj.keys() >= keys:
            return obj
        found_any = True
    if found_any:
        raise SchemaError(f"{who}: no JSON object with {missing}")
    raise ParseError(f"{who}: no JSON object found in response")


def parse_agent_output(raw: str, role: str = "agent") -> dict:
    """Extract the first JSON object carrying a full decision from a reply.

    The reply may contain prose before or after the object. Returns the
    role's journal fields: `state` (a lowercase STATE_VALUES member),
    `allocation` (the percent as a fraction in [0, 1]), `reasoning` (non-empty)
    and `confidence`, an optional finite number kept but unused downstream.
    """
    obj = _first_object_with(raw, _REQUIRED, role, f"fields {', '.join(REQUIRED_KEYS)}")
    state_raw = obj["state"]
    if not isinstance(state_raw, str) or state_raw.lower() not in STATE_VALUES:
        raise SchemaError(f"{role}: invalid state {state_raw!r}")
    pct = obj["allocation_btc_pct"]
    if isinstance(pct, bool) or not isinstance(pct, (int, float)):
        raise SchemaError(f"{role}: allocation_btc_pct must be a number")
    if not 0 <= pct <= 100:  # compared exactly: an int too large for a float is out of range
        raise RangeError(f"{role}: allocation_btc_pct {pct} outside [0, 100]")
    reasoning = obj["reasoning"]
    if not isinstance(reasoning, str) or not reasoning.strip():
        raise SchemaError(f"{role}: reasoning must be a non-empty string")
    confidence = obj.get("confidence")
    # NaN, which equals nothing, the infinities and ints too large for a float are dropped too
    if (
        isinstance(confidence, bool)
        or not isinstance(confidence, (int, float))
        or not abs(confidence) <= sys.float_info.max
    ):
        confidence = None
    return {
        "state": state_raw.lower(),
        "allocation": float(pct) / 100.0,
        "reasoning": reasoning,
        "confidence": float(confidence) if confidence is not None else None,
    }


FORMAT_REMINDER = (
    "Your previous reply could not be parsed. " + OUTPUT_CONTRACT
)


def _check_unicode(text: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError(
            f"reply is not valid Unicode text: {exc.reason} at position {exc.start}"
        ) from None


def ask_until_parsed(
    client: CompletionClient,
    bundle: PromptBundle,
    parse: Callable[[str], Any],
    reminder: str,
    rounds: int,
) -> tuple[Any, list[dict]]:
    """Invoke and parse up to `rounds` times, appending `reminder` to the
    prompt after each malformed reply. A failed call ends the loop: a 200
    reply with a malformed body counts as one, and so does a reply that is
    not valid Unicode text (a lone surrogate, which a JSON `\\ud800` escape
    decodes to), since no journal line could hold it.

    Returns the parsed reply (None if there is none) and every attempt in
    the journal's {"raw", "error"} form.
    """
    attempts: list[dict] = []
    for _ in range(rounds):
        try:
            result = client.complete(bundle)
            _check_unicode(result.text)
        except (NetworkError, TimeoutError, SchemaError) as exc:
            attempts.append({"raw": None, "error": f"{type(exc).__name__}: {exc}"})
            break
        try:
            parsed = parse(result.text)
        except PARSE_ERRORS as exc:
            attempts.append({"raw": result.text, "error": f"{type(exc).__name__}: {exc}"})
            bundle = replace(bundle, user_text=bundle.user_text + "\n\n" + reminder)
            continue
        attempts.append({"raw": result.text, "error": None})
        return parsed, attempts
    return None, attempts


def fallback_decision(btc_fraction: float) -> dict:
    """The fields `parse_agent_output` returns, for the decision taken when no
    reply parses: hold `btc_fraction`, state neutral."""
    reasoning = "fallback: previous allocation held after unusable responses"
    return {"state": "neutral", "allocation": btc_fraction, "reasoning": reasoning, "confidence": None}


def decide_with_retry(
    client: CompletionClient, bundle: PromptBundle, retry_limit: int, fallback_allocation: float
) -> dict:
    """Ask for a decision, with up to `retry_limit` format-reminder re-asks.

    When no reply parses, `fallback_decision(fallback_allocation)` is taken.
    Returns the role's journal fields: the decision's, `raw`, the reply it
    was parsed from (None on a fallback), every attempt and `fallback`.
    """
    parse = partial(parse_agent_output, role=bundle.role.value)
    decision, attempts = ask_until_parsed(client, bundle, parse, FORMAT_REMINDER, retry_limit + 1)
    fallback = decision is None
    if fallback:
        decision = fallback_decision(fallback_allocation)
    raw = None if fallback else attempts[-1]["raw"]
    return {**decision, "raw": raw, "attempts": attempts, "fallback": fallback}
