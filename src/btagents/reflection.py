"""Daily critic and weekly template feedback.

Both read settled days: the dict `Ledger.settle` returns, whose fields the
day record carries (`date`, `btc_return`, `baseline` and each role's
outcome). The daily critic is an LLM pass over one settled day; its
feedback is lexically scope-filtered before it may enter the next day's
prompts. The weekly reviewer is deliberately not an LLM: it selects one
hardcoded template per role from the stats of the last seven settled days
and never touches any quantitative parameter.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from datetime import date as Date
from importlib import resources
from typing import Mapping, Sequence

from .agents import (
    CompletionClient,
    INDICATOR_TERMS,
    PromptBundle,
    Role,
    _first_object_with,
    _words_in,
    ask_until_parsed,
)
from .errors import (
    IncompleteWeek,
    InvariantViolation,
    MissingAgentRecord,
    SchemaError,
)
from .journal import LONE_SURROGATE
from .metrics import prediction_correct, regret, sharpe, total_return

AGENT_ROLES = ("quants", "signals", "decision")
_REFLECT_KEYS = frozenset(AGENT_ROLES)

# verbatim phrases the default weekly templates are built around
PRAISE_PHRASE = "your signals consistently beat the baseline"
CORRECTIVE_QUANTS_PHRASE = "reconstruct your indicator selection"
NEUTRAL_PHRASE = "prioritize high-confidence inputs"
TEMPLATE_KINDS = ("praise", "corrective", "neutral")

NO_ALLOCATION_ADVICE = (
    "Never tell any agent to set, raise, or lower a specific allocation "
    "percentage; critique the reasoning, not the position size."
)


def evaluate_day(
    decisions: Mapping[str, Mapping],
    portfolio_returns: Mapping[str, float],
    btc_return: float,
    neutral_band: float,
    prior_counts: Mapping[str, tuple[int, int]],
) -> dict[str, dict]:
    """Each role's outcome in the day record: a copy of its decision entry (the
    fields of `parse_agent_output` and any others) plus `portfolio_return`,
    `correct` (its `state` scored against btc_return) and `running_accuracy`."""
    roles = {}
    for role in AGENT_ROLES:
        if role not in decisions or role not in portfolio_returns:
            raise MissingAgentRecord(f"{role} has no record for the day")
        prev_ok, prev_n = prior_counts[role]
        correct = prediction_correct(decisions[role]["state"], btc_return, neutral_band)
        roles[role] = {
            **decisions[role],
            "portfolio_return": portfolio_returns[role],
            "correct": correct,
            "running_accuracy": (prev_ok + correct) / (prev_n + 1),
        }
    return roles


REFLECT_SYSTEM = (
    "You are the performance critic of a Bitcoin trading desk. Each evening "
    "you review what every agent predicted, how it reasoned, and what the "
    "market actually did. Judge whether each decision was justified by the "
    "reasoning provided, rather than purely by its portfolio performance "
    "outcome: a sound argument can lose to an unpredictable market, and a "
    "sloppy one can get lucky. Critique the reasoning, identify errors, and "
    "suggest how the analysis could improve. Each agent may only be told "
    "about data it can see: the technical analyst sees prices, gauges, and "
    "chain activity; the mood analyst sees press coverage and crowd scores. "
    + NO_ALLOCATION_ADVICE
    + "\n\nRespond with exactly one JSON object of the form "
    '{"quants": "<feedback>", "signals": "<feedback>", "decision": "<feedback>"} '
    "with one non-empty feedback string per agent."
)


def build_reflect_prompt(day: Mapping) -> PromptBundle:
    """The critic's prompt for one settled day (see `Ledger.settle`)."""
    lines = [
        f"Date: {day['date']}",
        f"Realized BTC move next day: {day['btc_return'] * 100:+.4f}%",
        f"Passive half-BTC baseline day return: {day['baseline']['day_return_5050'] * 100:+.4f}%",
        "",
    ]
    titles = {
        "quants": "Technical analyst (quants)",
        "signals": "Mood analyst (signals)",
        "decision": "Final decision maker (decision)",
    }
    for role in AGENT_ROLES:
        a = day["roles"][role]
        lines += [
            f"{titles[role]}:",
            f"  predicted: {a['state']}",
            f"  allocation taken: {a['allocation'] * 100:.0f}% BTC",
            f"  day portfolio return: {a['portfolio_return'] * 100:+.4f}%",
            f"  prediction correct: {'yes' if a['correct'] else 'no'}"
            f" (running accuracy {a['running_accuracy']:.2f})",
            f"  reasoning given: {a['reasoning']}",
            "",
        ]
    lines.append(
        "Write one feedback paragraph per agent, judging whether its "
        "reasoning justified its decision."
    )
    return PromptBundle(
        role=Role.REFLECT,
        date=Date.fromisoformat(day["date"]),
        system_text=REFLECT_SYSTEM,
        user_text="\n".join(lines),
    )


def parse_reflect_output(raw: str) -> dict[str, str]:
    """Extract the per-role feedback object from a critic reply."""
    obj = _first_object_with(raw, _REFLECT_KEYS, "reflect", "quants/signals/decision keys")
    texts = {}
    for role in AGENT_ROLES:
        value = obj[role]
        if not isinstance(value, str) or not value.strip():
            raise SchemaError(f"reflect: feedback for {role} must be a non-empty string")
        texts[role] = value.strip()
    return texts


# ---------------------------------------------------------------------------
# scope filtering

SIGNALS_BANNED_TERMS = INDICATOR_TERMS + ("technical indicator", "technical indicators")

ALLOCATION_VERBS = (
    "increase", "decrease", "raise", "lower", "cut", "reduce",
    "boost", "set", "shift", "move", "bump", "trim",
)
ALLOCATION_NOUNS = ("allocation", "exposure", "position", "split")
# a percentage figure is digits before "%" or its fullwidth form, or one of these words
_PERCENT_RE = re.compile(r"\d+(?:\.\d+)?\s*[%\uff05]")
PERCENT_WORDS = ("percent", "per cent")
# a sentence ends at "!", "?", a newline or a "." that is not a decimal point
_SENTENCE_END_RE = re.compile(r"[!?\n]|(?<!\d)\.|\.(?!\d)")


def _has_allocation_directive(text: str) -> bool:
    # a percentage figure sharing a sentence with an allocation verb and noun;
    # every percentage figure holds "%", its fullwidth form or "cent"
    if "%" not in text and "\uff05" not in text and "cent" not in text.lower():
        return False
    for sentence in _SENTENCE_END_RE.split(text):
        if (
            (_PERCENT_RE.search(sentence) or _words_in(PERCENT_WORDS, sentence))
            and _words_in(ALLOCATION_VERBS, sentence)
            and _words_in(ALLOCATION_NOUNS, sentence)
        ):
            return True
    return False


def scope_filter(feedback: Mapping[str, str]) -> list[dict]:
    """Detect out-of-scope feedback as the reflect entry's {"role", "reason"}
    violations. Empty result means all texts pass.

    The signals agent must not be told about technical-indicator data it
    cannot see, and no agent may receive an explicit percentage allocation
    directive.
    """
    violations = []
    signals_text = feedback.get("signals", "")
    banned = _words_in(SIGNALS_BANNED_TERMS, signals_text)
    if banned:
        violations.append({"role": "signals", "reason": f"mentions indicator term '{banned[0]}'"})
    for role in AGENT_ROLES:
        if _has_allocation_directive(feedback.get(role, "")):
            violations.append({"role": role, "reason": "contains an explicit allocation directive"})
    return violations


REFLECT_FORMAT_REMINDER = (
    "Your previous reply could not be parsed. Respond with exactly one JSON "
    'object of the form {"quants": "...", "signals": "...", "decision": "..."} '
    "with one non-empty feedback string per agent."
)


def run_daily_reflection(
    client: CompletionClient,
    day: Mapping,
    retry_limit: int = 1,
) -> dict:
    """Invoke the critic on one settled day, parse, and scope-filter its feedback.

    Malformed replies get `retry_limit` format-reminder re-asks; a scope
    violation gets exactly one re-ask naming the violation. Roles that
    still violate end up with empty feedback so the next day simply runs
    without it. Returns the day record's `reflect` entry: the prompt, every
    attempt, the feedback per role, the first pass's violations and the flags.
    """
    bundle = build_reflect_prompt(day)
    texts, attempts = ask_until_parsed(
        client, bundle, parse_reflect_output, REFLECT_FORMAT_REMINDER, retry_limit + 1
    )
    violations: list[dict] = []
    flags: list[str] = []
    if texts is None:
        texts = dict.fromkeys(AGENT_ROLES, "")
        flags.append("reflect_fallback_empty")
    else:
        violations = scope_filter(texts)
    if violations:
        flags.append("reflect_scope_retry")
        note = "; ".join(f"{v['role']}: {v['reason']}" for v in violations)
        retry_bundle = replace(
            bundle,
            user_text=bundle.user_text
            + "\n\nYour previous feedback crossed role boundaries ("
            + note
            + "). Rewrite it within each agent's own data scope.",
        )
        retry_texts, retry_attempts = ask_until_parsed(
            client, retry_bundle, parse_reflect_output, REFLECT_FORMAT_REMINDER, 1
        )
        attempts += retry_attempts
        still = violations
        if retry_texts is not None:
            texts, still = retry_texts, scope_filter(retry_texts)
        dropped = {v["role"] for v in still}
        for role in AGENT_ROLES:
            if role in dropped:
                texts[role] = ""
                flags.append(f"reflect_scope_dropped_{role}")

    return {
        "system": bundle.system_text,
        "user": bundle.user_text,
        "attempts": attempts,
        "feedback": texts,
        "violations": violations,
        "flags": flags,
    }


# ---------------------------------------------------------------------------
# weekly templates

def load_weekly_templates(path: str | None = None) -> dict[str, dict[str, str]]:
    """Template pool: role -> {praise, corrective, neutral} -> text.

    Reads the packaged defaults unless an override file is given, so the
    phrases stay editable without touching code.
    """
    try:
        if path is None:
            raw = (
                resources.files("btagents")
                .joinpath("templates/weekly_templates.json")
                .read_text(encoding="utf-8")
            )
        else:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
        pool = json.loads(raw)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise SchemaError(f"{path}: weekly templates are not UTF-8 JSON: {exc}") from None
    for role in AGENT_ROLES:
        if not isinstance(pool, dict) or not isinstance(pool.get(role), dict):
            raise SchemaError(f"{path}: weekly templates need an object for role '{role}'")
        for kind in TEMPLATE_KINDS:
            text = pool[role].get(kind)
            if not isinstance(text, str) or not text.strip() or LONE_SURROGATE.search(text):
                raise SchemaError(f"{path}: weekly template {role}/{kind} must be a non-empty UTF-8 string")
    return pool


def select_template_kind(
    return_diff: float,
    regret_value: float,
    praise_threshold: float = 0.0,
    regret_threshold: float = 0.01,
) -> str:
    """Pure selection rule: outperform -> praise, deep shortfall -> corrective."""
    if return_diff > praise_threshold:
        return "praise"
    if regret_value > regret_threshold:
        return "corrective"
    return "neutral"


def weekly_feedback(
    days: Sequence[Mapping],
    templates: Mapping[str, Mapping[str, str]],
    praise_threshold: float = 0.0,
    regret_threshold: float = 0.01,
) -> dict:
    """Condense exactly seven settled days into per-role template feedback.

    Stats (weekly return vs the passive baseline, weekly Sharpe, weekly
    regret) drive template selection; nothing numeric flows back into the
    agents, only the selected text. Returns the weekly record's fields:
    `week_start` and `week_end` as ISO dates, and `texts`, `kinds` and
    `stats` per role.
    """
    if len(days) != 7:
        raise IncompleteWeek(f"weekly feedback needs 7 days, got {len(days)}")
    for a, b in zip(days, days[1:]):
        if b["date"] <= a["date"]:
            raise InvariantViolation("weekly days must be in date order")

    baseline_returns = [d["baseline"]["day_return_5050"] for d in days]
    baseline_week = total_return(baseline_returns)
    texts: dict[str, str] = {}
    stats: dict[str, dict] = {}
    kinds: dict[str, str] = {}
    for role in AGENT_ROLES:
        returns = [d["roles"][role]["portfolio_return"] for d in days]
        week_return = total_return(returns)
        diff = week_return - baseline_week
        reg = regret(returns, baseline_returns)
        kind = select_template_kind(diff, reg, praise_threshold, regret_threshold)
        texts[role] = templates[role][kind]
        kinds[role] = kind
        stats[role] = {
            "week_return": week_return,
            "baseline_return": baseline_week,
            "return_diff": diff,
            "sharpe": sharpe(returns),
            "regret": reg,
        }
    return {
        "week_start": days[0]["date"],
        "week_end": days[-1]["date"],
        "texts": texts,
        "kinds": kinds,
        "stats": stats,
    }
