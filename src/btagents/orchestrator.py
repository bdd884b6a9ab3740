"""Day loop, run journal assembly, and deterministic replay.

Each simulated day: slice the data window, compute the gauge snapshot,
invoke quants and signals, feed their views (never their allocations) to
the decision agent, rebalance all three tracked portfolios at the day's
close, mark at the next close, score the day, reflect, and inject the
feedback into the following day. Every nondeterministic input is recorded
verbatim, so the journal alone reproduces the run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from datetime import date as Date
from typing import Mapping

from .agents import (
    Allocation,
    ChatClientConfig,
    CompletionClient,
    MarketState,
    PromptBundle,
    build_decision_prompt,
    build_quants_prompt,
    build_signals_prompt,
    decide_with_retry,
    lint_bundle,
    parse_agent_output,
)
from .errors import ConfigError, DateNotFound, GapError, JournalCorrupt, WindowTooShort
from .indicators import IndicatorParams, snapshot
from .journal import JOURNAL_VERSION, RunJournal, dataset_digest, inputs_digest, seal
from .market_data import MarketDataset, slice_window
from .portfolio import FeeModel, PortfolioState, mark, rebalance
from .portfolio import baseline_buy_and_hold, baseline_static_5050
from .reflection import (
    AGENT_ROLES,
    evaluate_day,
    load_weekly_templates,
    run_daily_reflection,
    weekly_feedback,
)
from .regime import RegimeParams

BASELINE_NAMES = ("buyhold", "static5050")


@dataclass
class RunConfig:
    """Everything a run needs; the journal header snapshots it verbatim."""

    start: Date
    end: Date
    initial_value_usd: float = 10_000.0
    lookback_days: int = 30
    neutral_band: float = 0.005
    fee_bps: float = 0.0
    indicator_params: IndicatorParams = field(default_factory=IndicatorParams)
    regime_params: RegimeParams = field(default_factory=RegimeParams)
    daily_feedback: bool = True
    weekly_feedback: bool = True
    praise_threshold: float = 0.0
    regret_threshold: float = 0.01
    parse_retry_limit: int = 1
    weekly_template_path: str | None = None
    client: ChatClientConfig = field(default_factory=ChatClientConfig)

    def __post_init__(self):
        # a RunConfig built in Python gets the same type check as a config file
        if not (isinstance(self.start, Date) and isinstance(self.end, Date)):
            raise ConfigError("config keys 'start' and 'end' must be dates")
        _check_types(RunConfig, vars(self))
        for name, kind in _PARTS:
            part = getattr(self, name)
            if not isinstance(part, kind):
                raise ConfigError(f"config key '{name}' must be a {kind.__name__}")
            _check_types(kind, vars(part))
        if self.end < self.start:
            raise ValueError("end date before start date")
        if self.initial_value_usd <= 0:
            raise ValueError("initial value must be > 0")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["start"] = self.start.isoformat()
        d["end"] = self.end.isoformat()
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunConfig":
        """Inverse of to_dict. Absent keys take the dataclass defaults; unknown
        keys at any level and values the dataclasses reject raise ConfigError."""
        try:
            kwargs = dict(d)
            kwargs["start"] = Date.fromisoformat(kwargs["start"])
            kwargs["end"] = Date.fromisoformat(kwargs["end"])
            for name, kind in _PARTS:
                tree = kwargs.get(name, {})
                _check_types(kind, tree)  # before the part's own checks compare values
                kwargs[name] = kind(**tree)
            return cls(**kwargs)
        except KeyError as exc:
            raise ConfigError(f"config has no {exc} key") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc


# the JSON types a config value may take, by the type of its field's default
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), type(None): (str, type(None))}


_PARTS = (
    ("indicator_params", IndicatorParams),
    ("regime_params", RegimeParams),
    ("client", ChatClientConfig),
)


def _check_types(kind, values: Mapping) -> None:
    """Check each value's JSON type against that of its field default in `kind`
    (fields without a default are the caller's to check)."""
    for f in dataclasses.fields(kind):
        value = values.get(f.name, f.default)
        if f.default is not dataclasses.MISSING and type(value) not in _JSON_TYPES[type(f.default)]:
            raise ConfigError(f"config key '{f.name}' has a bad value {value!r}")


def _portfolio_dict(state: PortfolioState) -> dict:
    return {
        "btc_units": state.btc_units,
        "cash_usd": state.cash_usd,
        "mark_price": state.mark_price,
        "value_usd": state.value_usd,
    }


def step_day(
    books: Mapping[str, PortfolioState],
    allocations: Mapping[str, Allocation],
    close_t: float,
    next_date: Date,
    close_next: float,
    fees: FeeModel,
    initial: float,
    p0: float,
) -> tuple[dict[str, PortfolioState], dict[str, float], dict[str, float]]:
    """One simulated day: trade each book to its allocation at close_t, mark
    it at close_next, and value the baselines bought at p0.

    Returns (new books, per-role day returns, the journal's baseline record).
    """
    new_books = {}
    day_returns = {}
    for role in AGENT_ROLES:
        traded = rebalance(books[role], allocations[role], close_t, fees)
        new_books[role] = mark(traded, next_date, close_next)
        day_returns[role] = new_books[role].value_usd / traded.value_usd - 1.0
    _, bl_now, bl_next = baseline_static_5050(initial, (p0, close_t, close_next))
    baseline = {
        "static5050_value": bl_next,
        "buyhold_value": baseline_buy_and_hold(initial, (p0, close_next))[1],
        "day_return_5050": bl_next / bl_now - 1.0,
    }
    return new_books, day_returns, baseline


def run_backtest(
    config: RunConfig, dataset: MarketDataset, client: CompletionClient
) -> RunJournal:
    """Simulate the full pipeline over the configured date range."""
    days = [d for d in dataset.dates if config.start <= d <= config.end]
    if not days:
        raise DateNotFound(f"no trading days in {config.start}..{config.end}")
    min_win = config.indicator_params.min_window()
    if config.lookback_days < min_win:
        raise WindowTooShort(
            f"lookback_days {config.lookback_days} is shorter than the "
            f"indicator warm-up of {min_win} bars"
        )
    first_idx = dataset.index_of(days[0])
    if first_idx + 1 < min_win:
        raise WindowTooShort(
            f"need {min_win} bars of history up to {days[0]}, have {first_idx + 1}"
        )
    last_idx = dataset.index_of(days[-1])
    if last_idx + 1 >= len(dataset):
        raise WindowTooShort(f"need a bar after {days[-1]} to mark the last day")
    first_rec = dataset.record(days[0])
    if first_rec.onchain is None:
        raise GapError("onchain", days[0])
    if first_rec.sentiment is None:
        raise GapError("sentiment", days[0])

    templates = load_weekly_templates(config.weekly_template_path)
    fees = FeeModel(fee_bps=config.fee_bps)
    p0 = dataset.record(days[0]).bar.close
    ports = {
        role: PortfolioState.all_cash(days[0], config.initial_value_usd, p0)
        for role in AGENT_ROLES
    }
    prev_alloc = {role: 0.5 for role in AGENT_ROLES}  # the fallback before any decision
    counts = {role: (0, 0) for role in AGENT_ROLES}

    def decide(bundle: PromptBundle):
        return decide_with_retry(
            client,
            bundle,
            retry_limit=config.parse_retry_limit,
            fallback_allocation=prev_alloc[bundle.role.value],
        )

    packets = []
    entries: list[dict] = []
    pending_daily = None  # reflection from day t, injected into day t+1
    active_weekly = None  # (WeeklyFeedback, first_day_index, last_day_index)

    header = seal(
        {
            "type": "header",
            "version": JOURNAL_VERSION,
            "config": config.to_dict(),
            "dataset_digest": dataset_digest(dataset),
            "n_days": len(days),
            "roles": list(AGENT_ROLES),
        }
    )

    for i, day in enumerate(days):
        idx = dataset.index_of(day)
        rec = dataset.records[idx]
        next_rec = dataset.records[idx + 1]
        close_t = rec.bar.close
        close_next = next_rec.bar.close

        daily_texts = {role: "" for role in AGENT_ROLES}
        if config.daily_feedback and pending_daily is not None:
            daily_texts = {role: pending_daily.text_for(role) for role in AGENT_ROLES}
        weekly_texts = {role: "" for role in AGENT_ROLES}
        if active_weekly is not None and active_weekly[1] <= i <= active_weekly[2]:
            weekly_texts = {role: active_weekly[0].text_for(role) for role in AGENT_ROLES}

        window = slice_window(dataset, day, config.lookback_days)
        snap = snapshot([r.bar for r in window], config.indicator_params)

        quants_bundle = build_quants_prompt(
            bars=[r.bar for r in window],
            snapshot=snap,
            onchain=[r.onchain for r in window],
            daily_feedback=daily_texts["quants"] or None,
            weekly_feedback=weekly_texts["quants"] or None,
        )
        signals_bundle = build_signals_prompt(
            news=rec.news,
            sentiment=rec.sentiment,
            daily_feedback=daily_texts["signals"] or None,
            weekly_feedback=weekly_texts["signals"] or None,
        )
        lint: dict[str, list[str]] = {
            "quants": lint_bundle(quants_bundle),
            "signals": lint_bundle(signals_bundle),
        }

        outcomes = {"quants": decide(quants_bundle), "signals": decide(signals_bundle)}

        decision_value = ports["decision"].btc_units * close_t + ports["decision"].cash_usd
        decision_bundle = build_decision_prompt(
            date=day,
            quants=outcomes["quants"].decision.prediction,
            signals=outcomes["signals"].decision.prediction,
            portfolio_value=decision_value,
            daily_feedback=daily_texts["decision"] or None,
            weekly_feedback=weekly_texts["decision"] or None,
        )
        lint["decision"] = lint_bundle(
            decision_bundle,
            upstream_allocations=[
                outcomes["quants"].decision.allocation.btc_fraction,
                outcomes["signals"].decision.allocation.btc_fraction,
            ],
        )
        outcomes["decision"] = decide(decision_bundle)

        bundles = {"quants": quants_bundle, "signals": signals_bundle, "decision": decision_bundle}
        new_states, day_returns, baseline = step_day(
            ports,
            {role: outcomes[role].decision.allocation for role in AGENT_ROLES},
            close_t,
            next_rec.date,
            close_next,
            fees,
            config.initial_value_usd,
            p0,
        )
        btc_return = close_next / close_t - 1.0

        packet = evaluate_day(
            date=day,
            realized_btc_return=btc_return,
            decisions={role: outcomes[role].decision for role in AGENT_ROLES},
            portfolio_returns=day_returns,
            baseline_return=baseline["day_return_5050"],
            neutral_band=config.neutral_band,
            prior_counts=counts,
        )
        counts = {
            role: (
                counts[role][0] + (1 if packet.agents[role].correct else 0),
                counts[role][1] + 1,
            )
            for role in AGENT_ROLES
        }
        packets.append(packet)

        reflect_entry = None
        if config.daily_feedback:
            reflection = run_daily_reflection(
                client, packet, retry_limit=config.parse_retry_limit
            )
            pending_daily = reflection.feedback
            reflect_entry = {
                "system": reflection.bundle.system_text,
                "user": reflection.bundle.user_text,
                "attempts": [dict(a) for a in reflection.attempts],
                "feedback": {role: reflection.feedback.text_for(role) for role in AGENT_ROLES},
                "violations": [
                    {"role": v.role, "reason": v.reason} for v in reflection.violations
                ],
                "flags": list(reflection.flags),
            }
        else:
            pending_daily = None

        roles_entry = {}
        for role in AGENT_ROLES:
            out = outcomes[role]
            a = packet.agents[role]
            roles_entry[role] = {
                "system": bundles[role].system_text,
                "user": bundles[role].user_text,
                "raw": out.raw_used,
                "attempts": [dict(x) for x in out.attempts],
                "fallback": out.fallback_used,
                "state": a.state,
                "allocation": a.allocation,
                "reasoning": a.reasoning,
                "confidence": out.decision.confidence,
                "portfolio": _portfolio_dict(new_states[role]),
                "portfolio_return": a.portfolio_return,
                "correct": a.correct,
                "running_accuracy": a.running_accuracy,
            }

        entries.append(
            seal(
                {
                    "type": "day",
                    "seq": i,
                    "date": day.isoformat(),
                    "close": close_t,
                    "next_date": next_rec.date.isoformat(),
                    "next_close": close_next,
                    "inputs_digest": inputs_digest(rec),
                    "btc_return": btc_return,
                    "daily_feedback_in": {k: v for k, v in daily_texts.items() if v},
                    "weekly_feedback_in": {k: v for k, v in weekly_texts.items() if v},
                    "roles": roles_entry,
                    "baseline": baseline,
                    "reflect": reflect_entry,
                    "lint": lint,
                }
            )
        )

        ports = new_states
        for role in AGENT_ROLES:
            prev_alloc[role] = outcomes[role].decision.allocation.btc_fraction

        if config.weekly_feedback and (i + 1) % 7 == 0:
            wf = weekly_feedback(
                packets[i - 6 : i + 1],
                templates,
                praise_threshold=config.praise_threshold,
                regret_threshold=config.regret_threshold,
            )
            entries.append(
                seal(
                    {
                        "type": "weekly",
                        "after_day": day.isoformat(),
                        "week_start": wf.week_start.isoformat(),
                        "week_end": wf.week_end.isoformat(),
                        "texts": dict(wf.texts),
                        "kinds": dict(wf.kinds),
                        "stats": {
                            role: dataclasses.asdict(wf.stats[role]) for role in AGENT_ROLES
                        },
                    }
                )
            )
            active_weekly = (wf, i + 1, i + 7)

    return RunJournal(header=header, entries=entries)


# ---------------------------------------------------------------------------
# journal-derived outputs and replay

@dataclass
class RunOutputs:
    """Value paths and predictions reconstructed from a journal."""

    config: RunConfig
    neutral_band: float
    value_dates: list[Date]
    closes: list[float]
    values: dict[str, list[float]]
    predictions: dict[str, list[str]]
    fallback_days: dict[str, int]


def outputs_from_journal(journal: RunJournal, neutral_band: float | None = None) -> RunOutputs:
    """Read the run's value paths from its journal.

    Checks every digest and the journal's structure: the header's `n_days`
    day records, numbered in order, each starting on the date the one before
    it ends, and a weekly record after every seventh day when weekly
    feedback is on, and only then. Raises JournalCorrupt otherwise.
    """
    journal.verify()
    config = RunConfig.from_dict(journal.header["config"])
    band = config.neutral_band if neutral_band is None else neutral_band
    n_days = journal.header.get("n_days", 0)
    kinds = []  # the record types a run of n_days writes, in order
    for i in range(n_days):
        kinds += ["day", "weekly"] if config.weekly_feedback and (i + 1) % 7 == 0 else ["day"]
    if [e.get("type") for e in journal.entries] != kinds:
        raise JournalCorrupt(
            f"records are not those of a {n_days}-day run: one day record"
            " per day and, with weekly feedback on, a weekly record after every seventh"
        )
    days = journal.days
    if not days:
        raise JournalCorrupt("journal has no day records")
    for i, day in enumerate(days):
        if day["seq"] != i or (i > 0 and day["date"] != days[i - 1]["next_date"]):
            raise JournalCorrupt(f"day record {i} ({day['date']}) is out of sequence")

    initial = config.initial_value_usd
    value_dates = [Date.fromisoformat(days[0]["date"])]
    closes = [days[0]["close"]]
    values: dict[str, list[float]] = {name: [initial] for name in (*AGENT_ROLES, *BASELINE_NAMES)}
    predictions: dict[str, list[str]] = {role: [] for role in AGENT_ROLES}
    fallback_days = {role: 0 for role in AGENT_ROLES}

    for day in days:
        value_dates.append(Date.fromisoformat(day["next_date"]))
        closes.append(day["next_close"])
        roles = day["roles"]
        for role in AGENT_ROLES:
            predictions[role].append(roles[role]["state"])
            fallback_days[role] += 1 if roles[role]["fallback"] else 0
            values[role].append(roles[role]["portfolio"]["value_usd"])
        values["static5050"].append(day["baseline"]["static5050_value"])
        values["buyhold"].append(day["baseline"]["buyhold_value"])

    return RunOutputs(
        config=config,
        neutral_band=band,
        value_dates=value_dates,
        closes=closes,
        values=values,
        predictions=predictions,
        fallback_days=fallback_days,
    )


def replay(journal: RunJournal, neutral_band: float | None = None) -> RunOutputs:
    """Recompute the whole run from recorded responses; no network involved.

    Reads the journal with `outputs_from_journal`, then re-parses every
    recorded response and re-runs every day step from the recorded closes:
    each recorded allocation, state, book, day return and baseline must
    reproduce exactly, or JournalCorrupt is raised.
    """
    outputs = outputs_from_journal(journal, neutral_band)
    config = outputs.config
    days = journal.days
    p0 = days[0]["close"]
    initial = config.initial_value_usd
    fees = FeeModel(fee_bps=config.fee_bps)
    start = outputs.value_dates[0]
    books = {role: PortfolioState.all_cash(start, initial, p0) for role in AGENT_ROLES}
    # the allocation a fallback holds; 0.5 before any decision
    prev = {role: Allocation(btc_fraction=0.5) for role in AGENT_ROLES}

    for day, next_date in zip(days, outputs.value_dates[1:]):
        roles = day["roles"]
        decisions = {}
        for role in AGENT_ROLES:
            if roles[role]["fallback"]:
                decisions[role] = (prev[role], MarketState.NEUTRAL)
            else:
                parsed = parse_agent_output(roles[role]["raw"], role=role)
                decisions[role] = (parsed.allocation, parsed.prediction.state)
        prev = {role: allocation for role, (allocation, _) in decisions.items()}
        books, day_returns, baseline = step_day(
            books, prev, day["close"], next_date, day["next_close"], fees, initial, p0
        )
        for role, (allocation, state) in decisions.items():
            reproduced = {
                "allocation": allocation.btc_fraction,
                "state": state.value,
                "portfolio": _portfolio_dict(books[role]),
                "portfolio_return": day_returns[role],
            }
            for key, value in reproduced.items():
                if value != roles[role][key]:
                    raise JournalCorrupt(f"{day['date']} {role}: recorded {key} does not reproduce")
        if baseline != day["baseline"]:
            raise JournalCorrupt(f"{day['date']}: recorded baselines do not reproduce")
    return outputs
