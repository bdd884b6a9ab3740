"""Seeded inputs for the benchmark: market CSVs, LLM replies, faults and latencies.

Everything here is a pure function of the benchmark seed. Replies, faults
and latencies are drawn per (seed, role, date, attempt), never from call
order, so a dispatch that issues independent calls concurrently or in
another order still gets the same replies and the same sleeps.
"""

from __future__ import annotations

import csv
import json
import random
import time
from dataclasses import dataclass, field
from datetime import date as Date, timedelta
from pathlib import Path

from btagents.agents import FORMAT_REMINDER, InvokeResult, PromptBundle
from btagents.errors import NetworkError
from btagents.reflection import AGENT_ROLES, REFLECT_FORMAT_REMINDER

FIRST_DATE = Date(2021, 1, 1)
WARMUP_DAYS = 40  # history before the first trading day; covers the 30-day lookback
SCOPE_RETRY_MARK = "crossed role boundaries"  # in the reflect scope-retry prompt


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    latency_ms: dict = field(default_factory=dict)  # role -> mean per-call latency
    noisy: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("offline-1460", days=1460),
        Workload(
            "live-latency",
            days=120,
            latency_ms={"quants": 10.0, "signals": 10.0, "decision": 20.0, "reflect": 20.0},
        ),
        Workload("noisy-replies", days=365, noisy=True),
    )
}

# noisy-replies fault rates, per role-day
P_NETWORK_FIRST = 0.05  # NetworkError on the first attempt -> fallback
P_MALFORMED_FIRST = 0.18  # malformed first reply -> re-ask
P_MALFORMED_REASK = 0.10  # malformed re-ask -> fallback
P_SCOPE_DIRTY = 0.15  # reflect feedback that breaks scope -> scope retry
P_ALLOCATION_LEAK = 0.05  # upstream reasoning that names its own allocation -> lint hit
PROSE_BYTES = 2500


def trading_days(w: Workload) -> list[Date]:
    first = FIRST_DATE + timedelta(days=WARMUP_DAYS)
    return [first + timedelta(days=i) for i in range(w.days)]


# ---------------------------------------------------------------------------
# market data


def write_market_csvs(directory: Path, seed: int, w: Workload) -> None:
    """bars/onchain/sentiment/news CSVs covering warm-up, trading days and one mark day.

    The seed changes the values but not the amount of work: the price path
    follows a fixed schedule of trend phases, so every seed yields about the
    same number of regime spans, and the gaps and news counts follow fixed
    patterns.
    """
    rng = random.Random(f"market|{seed}")
    n = WARMUP_DAYS + w.days + 1
    dates = [FIRST_DATE + timedelta(days=i) for i in range(n)]
    directory.mkdir(parents=True, exist_ok=True)

    # closes scatter around a trend path instead of walking away from it, so
    # the noise never adds up to a trend of its own
    trend = 30000.0 + rng.uniform(-5000.0, 5000.0)
    close = trend
    bars = []
    for i, d in enumerate(dates):
        open_ = close
        trend *= 1.0 + TREND_DRIFT[(i // TREND_PHASE_DAYS) % len(TREND_DRIFT)]
        close = round(trend * (1.0 + rng.uniform(-0.02, 0.02)), 2)
        high = round(max(open_, close) * (1.0 + rng.uniform(0.0, 0.02)), 2)
        low = round(min(open_, close) * (1.0 - rng.uniform(0.0, 0.02)), 2)
        bars.append((d.isoformat(), f"{open_:.2f}", high, low, close, round(rng.uniform(1e3, 9e4), 3)))

    # a few missing on-chain and sentiment days exercise the carry-forward path
    onchain, sentiment, news = [], [], []
    for i, d in enumerate(dates):
        if i % 47 != 46:
            onchain.append(
                (d.isoformat(), rng.randint(200_000, 700_000), rng.randint(500_000, 1_100_000),
                 round(rng.uniform(5e9, 6e10), 2))
            )
        if i % 53 != 52:
            fgi = rng.randint(5, 95)
            sentiment.append((d.isoformat(), round(rng.uniform(-0.6, 0.6), 4), fgi, _fgi_label(fgi)))
        for _ in range(NEWS_PER_DAY[i % len(NEWS_PER_DAY)]):
            source = rng.choice(NEWS_SOURCES)
            subject, verb, obj = rng.choice(SUBJECTS), rng.choice(VERBS), rng.choice(OBJECTS)
            news.append(
                (d.isoformat(), source, f"{subject} {verb} {obj} ({rng.randint(1, 9999)})",
                 f"{source} reports that {subject.lower()} {verb} {obj}, citing desk flows.")
            )

    _write_csv(directory / "bars.csv", ("date", "open", "high", "low", "close", "volume"), bars)
    _write_csv(
        directory / "onchain.csv",
        ("date", "tx_count", "active_addresses", "transfer_volume_usd"),
        onchain,
    )
    _write_csv(
        directory / "sentiment.csv",
        ("date", "social_score_mean", "fgi_value", "fgi_label"),
        sentiment,
    )
    _write_csv(directory / "news.csv", ("date", "source", "headline", "summary"), news)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fgi_label(v: int) -> str:
    if v < 25:
        return "Extreme Fear"
    if v < 45:
        return "Fear"
    if v <= 55:
        return "Neutral"
    if v < 75:
        return "Greed"
    return "Extreme Greed"


TREND_DRIFT = (0.004, 0.0, -0.004, 0.0)  # daily drift of successive phases: up, flat, down, flat
TREND_PHASE_DAYS = 90
NEWS_PER_DAY = (0, 1, 2, 1, 3)
NEWS_SOURCES = ("CNBC", "Reuters", "CoinDesk", "Bloomberg", "The Block")
SUBJECTS = ("Miners", "Exchanges", "Funds", "Regulators", "Large holders", "Payment firms")
VERBS = ("weigh", "expand", "pause", "revisit", "accelerate", "question")
OBJECTS = ("custody plans", "spot flows", "fee policy", "treasury buys", "listing rules")

# ---------------------------------------------------------------------------
# replies

STATES = ("bullish", "bearish", "neutral")
DECIDE_VIEWS = {
    "quants": (
        "trend and momentum readings line up",
        "the close sits inside its recent band",
        "chain activity has cooled against the price",
        "the last ten closes show a steady drift",
    ),
    "signals": (
        "coverage tone has turned cautious",
        "crowd mood is drifting upward",
        "reports are mixed with no clear story",
        "large holders are the main story of the day",
    ),
    "decision": (
        "both analysts broadly agree",
        "the analysts disagree so the view is balanced",
        "the technical view carries more conviction",
        "the mood view carries more conviction",
    ),
}
FEEDBACK = {
    "quants": (
        "The trend reading was weighed carefully but the chain data deserved more attention.",
        "Your argument followed the price path well; state the counter case next time.",
        "The reasoning leaned on a single day of movement; widen the view.",
    ),
    "signals": (
        "The story selection was sound, though the tone shift came late.",
        "You leaned on one outlet; weigh the other sources as well.",
        "The crowd mood reading was used sensibly in the argument.",
    ),
    "decision": (
        "The weighting of the two views was explained clearly.",
        "You sided with the weaker argument; say why next time.",
        "The balance between the desks was reasonable given their conviction.",
    ),
}
DIRTY_FEEDBACK = (
    ("signals", " The RSI and MACD readings should have shaped this view."),
    ("quants", " Raise your allocation to 80% tomorrow."),
    ("decision", " Cut the exposure to 20% after a day like this."),
)
PROSE = (
    "Let me think through the inputs before answering.",
    "The day looked ordinary at first glance, but the details matter.",
    "I will weigh what I can see against what I cannot know.",
    "There is always noise in a single session and I should not overreact to it.",
    "Looking back over the window, the picture is less clear than it seems.",
    "A careful reading favours patience over a sharp change of course.",
    "Several readings point the same way, and a few point the other.",
    "I should be explicit about the uncertainty in this call.",
    "The answer below is my final view after this reasoning.",
    "None of this is certain, and the reply should reflect that.",
)


@dataclass(frozen=True)
class Reply:
    kind: str  # "ok", "malformed" or "network"
    text: str | None
    latency_s: float
    dirty: bool = False  # reflect feedback that breaks scope


class ReplyPlan:
    """Every reply the benchmark's LLM would give, keyed by (role, date, attempt).

    An attempt is (format re-asks, scope retries) as seen in the prompt:
    each re-ask appends a fixed reminder to the prompt, so the attempt is
    read from the prompt text, not from the number of calls so far.
    """

    def __init__(self, seed: int, workload: Workload):
        self.seed = seed
        self.workload = workload
        self._cache: dict[tuple, Reply] = {}

    def reply(self, role: str, day: Date, attempt: tuple[int, int]) -> Reply:
        key = (role, day, attempt)
        r = self._cache.get(key)
        if r is None:
            r = self._cache[key] = self._draw(role, day, attempt)
        return r

    def _draw(self, role: str, day: Date, attempt: tuple[int, int]) -> Reply:
        iso = day.isoformat()
        rng = random.Random(f"reply|{self.seed}|{role}|{iso}|{attempt[0]}.{attempt[1]}")
        u_fault, u_dirty, u_latency = rng.random(), rng.random(), rng.random()
        mean_ms = self.workload.latency_ms.get(role, 0.0)
        latency = mean_ms * (0.5 + u_latency) / 1000.0
        kind, dirty = "ok", False
        if self.workload.noisy and attempt[1] == 0:  # a scope retry always gets a clean reply
            first = attempt[0] == 0
            if first and u_fault < P_NETWORK_FIRST:
                kind = "network"
            elif u_fault < (P_NETWORK_FIRST + P_MALFORMED_FIRST if first else P_MALFORMED_REASK):
                kind = "malformed"
            dirty = role == "reflect" and u_dirty < P_SCOPE_DIRTY
        if kind == "network":
            return Reply(kind, None, latency)
        if role == "reflect":
            body = _reflect_body(rng, iso, kind, dirty)
        else:
            body = _decide_body(rng, role, iso, kind, self.workload.noisy)
        if self.workload.noisy:
            body = _prose(rng, PROSE_BYTES // 2) + "\n\n" + body + "\n\n" + _prose(rng, PROSE_BYTES // 2)
        return Reply(kind, body, latency, dirty)


def _decide_body(rng: random.Random, role: str, iso: str, kind: str, noisy: bool) -> str:
    pct = rng.randint(0, 100)
    reasoning = f"{rng.choice(DECIDE_VIEWS[role])}; marker {role[0].upper()}-{iso}"
    if noisy and role != "decision" and rng.random() < P_ALLOCATION_LEAK:
        reasoning += f"; I would hold {pct}% in BTC"
    obj = {
        "state": rng.choice(STATES),
        "allocation_btc_pct": pct,
        "reasoning": reasoning,
        "confidence": round(rng.random(), 2),
    }
    if kind == "malformed":
        variant = rng.randrange(4)
        if variant == 0:
            return "I could not settle on a view today."
        if variant == 1:
            del obj["reasoning"]
        elif variant == 2:
            obj["allocation_btc_pct"] = 100 + pct + 1
        else:
            obj["state"] = "sideways"
    return json.dumps(obj)


def _reflect_body(rng: random.Random, iso: str, kind: str, dirty: bool) -> str:
    obj = {role: f"{rng.choice(FEEDBACK[role])} (review {iso})" for role in AGENT_ROLES}
    if dirty:
        role, text = rng.choice(DIRTY_FEEDBACK)
        obj[role] += text
    if kind == "malformed":
        variant = rng.randrange(3)
        if variant == 0:
            return "The desk did fine overall."
        if variant == 1:
            del obj["decision"]
        else:
            obj["signals"] = "  "
    return json.dumps(obj)


def _prose(rng: random.Random, n_bytes: int) -> str:
    parts, size = [], 0
    while size < n_bytes:
        s = rng.choice(PROSE)
        parts.append(s)
        size += len(s) + 1
    return " ".join(parts)


# ---------------------------------------------------------------------------
# the client


def attempt_of(bundle: PromptBundle) -> tuple[int, int]:
    text = bundle.user_text
    reminder = REFLECT_FORMAT_REMINDER if bundle.role.value == "reflect" else FORMAT_REMINDER
    return text.count(reminder), text.count(SCOPE_RETRY_MARK)


class PlannedClient:
    """A `CompletionClient` that answers from a `ReplyPlan`.

    It sleeps the planned latency and raises the planned `NetworkError`.
    It stamps the start of each day's first quants call (`day_marks`) and
    the interval of every call (`calls`); list appends keep both safe to
    call from more than one thread.
    """

    def __init__(self, plan: ReplyPlan):
        self.plan = plan
        self.calls: list[tuple[float, float]] = []
        self.day_marks: list[float] = []

    def complete(self, bundle: PromptBundle) -> InvokeResult:
        t0 = time.perf_counter()
        role = bundle.role.value
        attempt = attempt_of(bundle)
        if role == "quants" and attempt == (0, 0):
            self.day_marks.append(t0)
        reply = self.plan.reply(role, bundle.date, attempt)
        try:
            if reply.latency_s:
                time.sleep(reply.latency_s)
            if reply.text is None:
                raise NetworkError(f"injected network failure for {role} {bundle.date}", 1)
            return InvokeResult(text=reply.text, attempts=1)
        finally:
            self.calls.append((t0, time.perf_counter()))


# ---------------------------------------------------------------------------
# expected counts


@dataclass(frozen=True)
class Expected:
    llm_calls: int
    fallback_days: dict


def expected_counts(plan: ReplyPlan, days, retry_limit: int, daily_feedback: bool) -> Expected:
    """Calls and fallback days the documented retry rules imply for this plan.

    Walking the plan also draws every reply the run will ask for, so the
    timed run finds them ready.
    """
    calls = 0
    fallback = {role: 0 for role in AGENT_ROLES}
    for day in days:
        for role in AGENT_ROLES:
            for n in range(retry_limit + 1):
                calls += 1
                kind = plan.reply(role, day, (n, 0)).kind
                if kind == "ok":
                    break
                if kind == "network" or n == retry_limit:
                    fallback[role] += 1
                    break
        if daily_feedback:
            for n in range(retry_limit + 1):
                calls += 1
                r = plan.reply("reflect", day, (n, 0))
                if r.kind == "ok":
                    if r.dirty:
                        calls += 1
                        plan.reply("reflect", day, (0, 1))
                    break
                if r.kind == "network":
                    break
    return Expected(llm_calls=calls, fallback_days=fallback)
