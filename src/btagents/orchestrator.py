"""Day loop, run journal assembly, and deterministic replay.

Before the first LLM call, each bar's gauge terms and quants-prompt rows
are computed once, and every day's data window is sliced and its gauge
snapshot computed from its share of them, so bad data fails before a call
is paid. Then, each simulated day: invoke quants and signals, feed their
views to the decision agent (whose prompt reads only each view's `state`
and `reasoning`, never its allocation), rebalance all three tracked
portfolios at the day's close, mark at the next close, score the day,
reflect, and inject the feedback into the following day. Every
nondeterministic input is recorded verbatim, so the journal alone
reproduces the run.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from datetime import date as Date
from typing import Iterator, Mapping

from .agents import (
    PARSE_ERRORS,
    STATE_VALUES,
    CompletionClient,
    PromptBundle,
    build_decision_prompt,
    build_quants_prompt,
    build_signals_prompt,
    decide_with_retry,
    fallback_decision,
    lint_bundle,
    onchain_row,
    parse_agent_output,
    price_row,
)
from .errors import (
    ConfigError, DateNotFound, GapError, InvariantViolation, JournalCorrupt, ProviderRefused, WindowTooShort,
)
from .indicators import IndicatorParams, pair_terms, snapshot
from .journal import JOURNAL_VERSION, LONE_SURROGATE, RunJournal, dataset_digest, seal
from .market_data import MarketDataset, parse_date, slice_window
from .metrics import prediction_correct
from .portfolio import PortfolioState, mark, rebalance
from .reflection import (
    AGENT_ROLES,
    evaluate_day,
    load_weekly_templates,
    parse_reflect_output,
    run_daily_reflection,
    weekly_feedback,
)
from .regime import RegimeParams
from .transport import ChatClientConfig

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
        for name in ("parse_retry_limit", "neutral_band", "fee_bps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"config key '{name}' must be >= 0")
        if self.fee_bps >= 10_000:  # a fee of the whole notional could empty a book
            raise ConfigError("config key 'fee_bps' must be < 10000")
        if not 100.0 * self.neutral_band <= sys.float_info.max:  # the report prints it in percent
            raise ConfigError("config key 'neutral_band' must be finite in percent")
        if self.end < self.start:
            raise ConfigError("end date before start date")
        if not self.initial_value_usd >= 0.01:  # one cent, the least value the report prints
            raise ConfigError("config key 'initial_value_usd' must be >= 0.01")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        # a float setting given as an int seals as the float the run computes with
        for tree, kind in ((d, RunConfig), *((d[name], kind) for name, kind in _PARTS)):
            for f in dataclasses.fields(kind):
                if type(f.default) is float:
                    tree[f.name] = float(tree[f.name])
        d["start"] = self.start.isoformat()
        d["end"] = self.end.isoformat()
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunConfig":
        """Inverse of to_dict. Absent keys take the dataclass defaults; unknown
        keys at any level and values the dataclasses reject raise ConfigError."""
        try:
            kwargs = dict(d)
            kwargs["start"] = parse_date(kwargs["start"])
            kwargs["end"] = parse_date(kwargs["end"])
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
    """Check each value's JSON type against that of its field default in `kind`, that
    a float field's is finite and that a string field's holds no lone surrogate, which
    cannot be sealed (fields without a default are the caller's to check)."""
    for f in dataclasses.fields(kind):
        value = values.get(f.name, f.default)
        if f.default is not dataclasses.MISSING and (
            type(value) not in _JSON_TYPES[type(f.default)]
            or (type(f.default) is float and not abs(value) <= sys.float_info.max)
        ):
            raise ConfigError(f"config key '{f.name}' has a bad value {value!r}")
        if isinstance(value, str) and LONE_SURROGATE.search(value):
            raise ConfigError(f"config key '{f.name}' holds a lone surrogate (a \\ud800-\\udfff escape)")


def _portfolio_dict(state: PortfolioState) -> dict:
    return {
        "btc_units": state.btc_units,
        "cash_usd": state.cash_usd,
        "mark_price": state.mark_price,
        "value_usd": state.value_usd,
    }


class Ledger:
    """What each simulated day hands the next, in a run and in its replay: the
    books, the running prediction scores, the allocation a fallback holds, the
    last seven settled days and the records the next day's feedback comes from."""

    def __init__(self, config: RunConfig, p0: float):
        self.config = config
        self.p0 = p0  # the first close, at which the baselines buy
        cash = config.initial_value_usd
        self.books = {role: PortfolioState.all_cash(cash, p0) for role in AGENT_ROLES}
        self.counts = {role: (0, 0) for role in AGENT_ROLES}  # (correct, scored)
        self.held = {role: 0.5 for role in AGENT_ROLES}  # the fallback before any decision
        self.week: list[dict] = []  # the settled days the weekly review reads
        self.last_day: dict | None = None
        self.last_weekly: dict | None = None

    def feedback_in(self) -> tuple[dict, dict]:
        """The non-empty daily and weekly feedback texts the next day's prompts
        carry: the last day's reflect feedback and the last weekly record's texts."""
        reflect = self.last_day and self.last_day["reflect"]  # None with daily feedback off
        daily = reflect["feedback"] if reflect else {}
        weekly = self.last_weekly["texts"] if self.last_weekly else {}
        return {k: v for k, v in daily.items() if v}, {k: v for k, v in weekly.items() if v}

    def settle(self, day: Date, entries: Mapping[str, dict], close_t: float, close_next: float) -> dict:
        """Settle one day: trade each book to its entry's `allocation` at close_t,
        mark it at close_next, value the baselines and score the predictions.
        Returns the settled day, the day record's fields derived here: `date` (ISO),
        `btc_return`, `baseline` and `roles`, each role's `evaluate_day` outcome (its
        entry with the day's scores), its `running_accuracy` over the days settled so
        far, counted in `counts`, and `portfolio`. The critic and the weekly review
        read it as it is. Raises InvariantViolation, naming `day`, when a book's value
        is not a positive float or a `market_moves` figure leaves the float range."""
        config = self.config
        btc_return, baseline = self.market_moves(day, close_t, close_next)
        day_returns = {}
        for role in AGENT_ROLES:
            before = self.books[role].value_usd  # marked at close_t; the day's fee comes out after
            traded = rebalance(self.books[role], entries[role]["allocation"], close_t, config.fee_bps)
            self.books[role] = mark(traded, close_next)
            after = self.books[role].value_usd
            if not 0 < after <= sys.float_info.max:
                raise InvariantViolation(f"{day}: the {role} book's value {after} is not a positive float")
            day_returns[role] = after / before - 1.0
        roles = evaluate_day(entries, day_returns, btc_return, config.neutral_band)
        for role, outcome in roles.items():
            ok, n = self.counts[role][0] + outcome["correct"], self.counts[role][1] + 1
            self.counts[role] = (ok, n)
            outcome["running_accuracy"] = ok / n
            self.held[role] = outcome["allocation"]
            outcome["portfolio"] = _portfolio_dict(self.books[role])
        settled = {"date": day.isoformat(), "btc_return": btc_return, "baseline": baseline, "roles": roles}
        self.week = [*self.week[-6:], settled]
        return settled

    def market_moves(self, day: Date, close_t: float, close_next: float) -> tuple[float, dict]:
        """The day's `btc_return` and `baseline`, which the closes alone decide.
        Raises InvariantViolation, naming `day`, when one is outside the float range."""
        # buy-and-hold holds initial / p0 BTC; static 50/50 half that plus initial / 2 cash
        initial, p0 = self.config.initial_value_usd, self.p0
        half = initial / 2.0
        bl_next = half + half * close_next / p0
        baseline = {
            "static5050_value": bl_next,
            "buyhold_value": initial * close_next / p0,
            "day_return_5050": bl_next / (half + half * close_t / p0) - 1.0,
        }
        btc_return = close_next / close_t - 1.0
        if not all(abs(x) <= sys.float_info.max for x in (btc_return, *baseline.values())):
            raise InvariantViolation(f"{day}: the BTC return or a baseline is outside the float range")
        return btc_return, baseline

    def weekly_record(self) -> dict:
        """The fields of the weekly record written after the last seven settled
        days that `weekly_feedback` derives from them; the run adds `texts`."""
        week = weekly_feedback(self.week, self.config.praise_threshold, self.config.regret_threshold)
        return {"type": "weekly", "after_day": week["week_end"], **week}


def run_backtest(
    config: RunConfig, dataset: MarketDataset, client: CompletionClient
) -> RunJournal:
    """Simulate the full pipeline over the configured date range, holding every record in memory."""
    header, *entries = run_records(config, dataset, client)
    return RunJournal(header=header, entries=entries)


def run_records(config: RunConfig, dataset: MarketDataset, client: CompletionClient) -> Iterator[dict]:
    """Yield the sealed header, then each sealed day and weekly record; bad data raises before the header."""
    days = [d for d in dataset.dates if config.start <= d <= config.end]
    if not days:
        raise DateNotFound(f"no trading days in {config.start}..{config.end}")
    min_win = config.indicator_params.min_window()
    if config.lookback_days < min_win:
        raise WindowTooShort(
            f"lookback_days {config.lookback_days} is shorter than the "
            f"indicator warm-up of {min_win} bars"
        )
    last = dataset.index_of(days[-1])
    if last + 1 >= len(dataset):
        raise WindowTooShort(f"need a bar after {days[-1]} to mark the last day")
    # dates strictly increase, so day i is record first + i; the run reads the
    # records from the first day's window to the bar that marks the last day
    first = last - len(days) + 1
    lo = max(0, first - config.lookback_days + 1)
    records = dataset.records[lo : last + 2]
    bars = [r.bar for r in records]
    # each bar's gauge terms and prompt rows, computed once for every window
    terms = pair_terms(bars)
    price_rows = [price_row(b) for b in bars]
    chain_rows = [None if r.onchain is None else onchain_row(r.onchain) for r in records]
    ledger = Ledger(config, bars[first - lo].close)
    market = []  # each day's window as positions in records, and its gauges
    for i, day in enumerate(days):
        window = slice_window(dataset, day, config.lookback_days)
        for r in window:  # the quants prompt reads the window's on-chain rows
            if r.onchain is None:
                raise GapError("onchain", r.date)
        if window[-1].sentiment is None:
            raise GapError("sentiment", day)
        stop = first - lo + i + 1
        start = stop - len(window)
        ledger.market_moves(day, bars[stop - 1].close, bars[stop].close)
        snap = snapshot(bars[start:stop], config.indicator_params, terms.window(start, stop))
        market.append((start, stop, snap))

    templates = load_weekly_templates(config.weekly_template_path)

    def decide(bundle: PromptBundle) -> dict:
        """The role's journal entry: its prompt and `decide_with_retry`'s fields."""
        held = ledger.held[bundle.role.value]
        entry = decide_with_retry(client, bundle, config.parse_retry_limit, held)
        return {"system": bundle.system_text, "user": bundle.user_text, **entry}

    digest, inputs_digests = dataset_digest(dataset)
    yield seal(
        {
            "type": "header",
            "version": JOURNAL_VERSION,
            "config": config.to_dict(),
            "dataset_digest": digest,
            "n_days": len(days),
            "roles": list(AGENT_ROLES),
        }
    )

    for i, (day, (start, stop, snap)) in enumerate(zip(days, market)):
        rec, next_rec = records[stop - 1], records[stop]
        close_t = rec.bar.close
        close_next = next_rec.bar.close
        daily_in, weekly_in = ledger.feedback_in()

        quants_bundle = build_quants_prompt(
            bars=bars[start:stop],
            snapshot=snap,
            rows=(price_rows[start:stop], chain_rows[start:stop]),
            daily_feedback=daily_in.get("quants"),
            weekly_feedback=weekly_in.get("quants"),
        )
        signals_bundle = build_signals_prompt(
            news=rec.news,
            sentiment=rec.sentiment,
            daily_feedback=daily_in.get("signals"),
            weekly_feedback=weekly_in.get("signals"),
        )
        lint: dict[str, list[str]] = {
            "quants": lint_bundle(quants_bundle),
            "signals": lint_bundle(signals_bundle),
        }

        decided = {"quants": decide(quants_bundle), "signals": decide(signals_bundle)}
        quants, signals = decided["quants"], decided["signals"]

        decision_bundle = build_decision_prompt(
            date=day,
            quants=quants,
            signals=signals,
            portfolio_value=ledger.books["decision"].value_usd,  # marked at close_t
            daily_feedback=daily_in.get("decision"),
            weekly_feedback=weekly_in.get("decision"),
        )
        lint["decision"] = lint_bundle(
            decision_bundle,
            upstream_allocations=[quants["allocation"], signals["allocation"]],
        )
        decided["decision"] = decide(decision_bundle)

        settled = ledger.settle(day, decided, close_t, close_next)
        reflect = None
        if config.daily_feedback:
            reflect = run_daily_reflection(client, settled, config.parse_retry_limit)
        tried = [a for entry in (*decided.values(), reflect) if entry for a in entry["attempts"]]
        if all(a["raw"] is None for a in tried):  # no reply all day: the provider is down, so the run ends
            failed = f"{day}: the last call failed with {tried[-1]['error']}; no call of the day got a reply"
            raise ProviderRefused(failed, len(tried))

        ledger.last_day = seal(
            {
                "type": "day",
                "seq": i,
                "close": close_t,
                "next_date": next_rec.date.isoformat(),
                "next_close": close_next,
                "inputs_digest": inputs_digests[lo + stop - 1],  # rec is dataset record lo + stop - 1
                "daily_feedback_in": daily_in,
                "weekly_feedback_in": weekly_in,
                **settled,
                "reflect": reflect,
                "lint": lint,
            }
        )
        yield ledger.last_day

        if config.weekly_feedback and (i + 1) % 7 == 0:
            week = ledger.weekly_record()
            texts = {role: templates[role][kind] for role, kind in week["kinds"].items()}
            ledger.last_weekly = seal({**week, "texts": texts})
            yield ledger.last_weekly


# ---------------------------------------------------------------------------
# journal-derived outputs and replay

@dataclass
class RunOutputs:
    """Value paths and scored predictions reconstructed from a journal.
    `hits` holds, per role and day, whether the recorded state was correct
    for the day's BTC move at `neutral_band`."""

    config: RunConfig
    neutral_band: float
    value_dates: list[Date]
    closes: list[float]
    values: dict[str, list[float]]
    hits: dict[str, list[bool]]
    fallback_days: dict[str, int]


def _checker(shape: dict):
    """Compile a shape into a function that returns the key path to the first
    part of a value that does not fit it, or None. A shape maps each key a JSON
    object must have to a type, a tuple of types or a nested shape. Types match
    exactly, so a bool is not an int, and a number must lie within the float
    range, so NaN, an infinity or 10**400 fits no number type."""
    nested = {key: _checker(sub) for key, sub in shape.items() if isinstance(sub, dict)}
    shape = {key: sub if isinstance(sub, (tuple, dict)) else (sub,) for key, sub in shape.items()}
    numbers = {key for key, sub in shape.items() if key not in nested and (int in sub or float in sub)}
    most = sys.float_info.max

    def misfit(value):
        if not isinstance(value, dict):
            return ()
        for key, sub in shape.items():
            if key not in value:
                return (key,)
            if key in nested:
                bad = nested[key](value[key])
                if bad is not None:
                    return (key, *bad)
            elif type(value[key]) not in sub or (
                key in numbers and value[key] is not None and not -most <= value[key] <= most
            ):
                return (key,)
        return None

    return misfit


def _record_checkers(daily_feedback: bool) -> dict:
    """The fields `report` and `replay` read in day and weekly records, and
    every number and bool `replay` re-derives."""
    number = (int, float)
    maybe_number = (int, float, type(None))
    texts = dict.fromkeys(AGENT_ROLES, str)
    role = {
        "raw": (str, type(None)),
        "attempts": list,
        "fallback": bool,
        "state": str,
        "allocation": number,
        "confidence": maybe_number,
        "portfolio": dict.fromkeys(("btc_units", "cash_usd", "mark_price", "value_usd"), number),
        "portfolio_return": number,
        "correct": bool,
        "running_accuracy": number,
    }
    day = {
        "seq": int,
        "date": str,
        "close": number,
        "next_date": str,
        "next_close": number,
        "btc_return": number,
        "roles": dict.fromkeys(AGENT_ROLES, role),
        "baseline": dict.fromkeys(("static5050_value", "buyhold_value", "day_return_5050"), number),
        "reflect": {"feedback": texts, "attempts": list} if daily_feedback else type(None),
    }
    stats = dict.fromkeys(("week_return", "baseline_return", "return_diff", "regret"), number)
    weekly = {
        "after_day": str,
        "texts": texts,
        "stats": dict.fromkeys(AGENT_ROLES, {**stats, "sharpe": maybe_number}),
    }
    return {"day": _checker(day), "weekly": _checker(weekly)}


_HEADER_MISFIT = _checker({"config": dict, "n_days": int})
_RECORD_MISFITS = {daily: _record_checkers(daily) for daily in (True, False)}
_ATTEMPT_MISFIT = _checker({"raw": (str, type(None)), "error": (str, type(None))})


def _check_shape(record: dict, misfit, where: str) -> None:
    bad = misfit(record)
    if bad is not None:
        raise JournalCorrupt(f"{where}: field {'.'.join(bad)} is missing, of the wrong type or out of range")


def outputs_from_journal(journal: RunJournal, neutral_band: float | None = None) -> RunOutputs:
    """Read the run's value paths from its journal, and score each day's
    recorded state against its recorded `btc_return` at the run's band, or at
    `neutral_band` if given, by the rule the run scored `correct` with.

    Checks every digest, the type of every field `report` and `replay` read
    or `replay` re-derives (a number must lie within the float range, and a
    close above 0), and the journal's structure: the header's `n_days` day
    records, numbered in order, each ending after it starts and starting on
    the date the one before it ends, and a weekly record after every seventh
    day when weekly feedback is on, and only then. Raises JournalCorrupt
    otherwise.
    """
    journal.verify()
    _check_shape(journal.header, _HEADER_MISFIT, "journal header")
    config = RunConfig.from_dict(journal.header["config"])
    band = config.neutral_band
    if neutral_band is not None:  # an override passes the config's own checks
        band = dataclasses.replace(config, neutral_band=neutral_band).neutral_band
    n_days = journal.header["n_days"]
    kinds = []  # the record types a run of n_days writes, in order, as far as the records go
    for i in range(min(n_days, len(journal.entries) + 1)):
        kinds += ["day", "weekly"] if config.weekly_feedback and (i + 1) % 7 == 0 else ["day"]
    if [e.get("type") for e in journal.entries] != kinds:
        raise JournalCorrupt(
            f"records are not those of a {n_days}-day run: one day record"
            " per day and, with weekly feedback on, a weekly record after every seventh"
        )
    misfits = _RECORD_MISFITS[config.daily_feedback]
    for line, entry in enumerate(journal.entries, start=2):
        _check_shape(entry, misfits[entry["type"]], f"journal line {line}")
        if entry["type"] == "day":
            for key in ("close", "next_close"):
                if not entry[key] > 0:  # as every bar's price is
                    raise JournalCorrupt(f"journal line {line}: field {key} is not above 0")
    days = journal.days
    if not days:
        raise JournalCorrupt("journal has no day records")
    try:
        value_dates = [parse_date(days[0]["date"])]
        value_dates += [parse_date(day["next_date"]) for day in days]
    except ValueError as exc:
        raise JournalCorrupt(f"bad day record date: {exc}") from None
    for i, day in enumerate(days):
        if day["seq"] != i or (i > 0 and day["date"] != days[i - 1]["next_date"]):
            raise JournalCorrupt(f"day record {i} ({day['date']}) is out of sequence")
        if value_dates[i + 1] <= value_dates[i]:
            raise JournalCorrupt(f"day record {i} ({day['date']}) does not end after it starts")

    initial = config.initial_value_usd
    closes = [days[0]["close"]]
    values: dict[str, list[float]] = {name: [initial] for name in (*AGENT_ROLES, *BASELINE_NAMES)}
    hits: dict[str, list[bool]] = {role: [] for role in AGENT_ROLES}
    fallback_days = {role: 0 for role in AGENT_ROLES}

    for day in days:
        closes.append(day["next_close"])
        roles = day["roles"]
        for role in AGENT_ROLES:
            state = roles[role]["state"]
            if state not in STATE_VALUES:
                raise JournalCorrupt(f"a recorded {role} state is not a market state")
            hits[role].append(prediction_correct(state, day["btc_return"], band))
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
        hits=hits,
        fallback_days=fallback_days,
    )


def _check_reproduced(where: str, derived: dict, recorded: dict) -> None:
    """Raise JournalCorrupt unless every derived field equals the recorded one.
    `roles` maps each role to its derived fields, beside others only recorded.
    Neither argument is changed. `==` takes 1 and 1.0 for one JSON number, and
    true for 1; the shape check in `outputs_from_journal` keeps a bool from
    standing for a number."""
    for key, value in derived.items():
        if key == "roles":
            for role, fields in value.items():
                _check_reproduced(f"{where} {role}", fields, recorded["roles"][role])
        elif key not in recorded or recorded[key] != value:
            raise JournalCorrupt(f"{where}: recorded {key} does not reproduce")


def _check_feedback(where: str, reflect: dict) -> None:
    """Raise JournalCorrupt unless each role's reflect feedback is "" (dropped) or the
    text the last error-free attempt parses to; with no such attempt, all are ""."""
    if any(_ATTEMPT_MISFIT(attempt) is not None for attempt in reflect["attempts"]):
        raise JournalCorrupt(f"{where} reflect: an attempt is not a raw reply and an error")
    raws = [attempt["raw"] for attempt in reflect["attempts"] if attempt["error"] is None]
    try:
        texts = parse_reflect_output(raws[-1]) if raws else {}
    except PARSE_ERRORS as exc:
        raise JournalCorrupt(f"{where} reflect: last error-free reply does not parse: {exc}") from None
    if any(text not in ("", texts.get(role)) for role, text in reflect["feedback"].items()):
        raise JournalCorrupt(f"{where} reflect: recorded feedback is not the last reply's")


def replay(journal: RunJournal, neutral_band: float | None = None) -> RunOutputs:
    """Recompute the whole run from recorded responses; no network involved.

    After `outputs_from_journal`, rebuilds each decision from its recorded
    reply (with no reply, the run's fallback) and settles each day and builds
    each weekly record with the run's own `Ledger`. Raises JournalCorrupt
    unless every field so derived, and each day's feedback in, equals the
    recorded one, unless each role's attempts are all raw replies and errors
    and its last one is its recorded reply with no error or, on a fallback,
    carries an error, and unless `_check_feedback` passes.
    """
    outputs = outputs_from_journal(journal, neutral_band)
    dates = outputs.value_dates
    ledger = Ledger(outputs.config, outputs.closes[0])
    for record in journal.entries:
        if record["type"] == "weekly":
            # the texts come from a template file replay does not read; the
            # next days' weekly_feedback_in checks them
            _check_reproduced(f"weekly record after {record['after_day']}", ledger.weekly_record(), record)
            ledger.last_weekly = record
            continue
        i, where, roles = record["seq"], record["date"], record["roles"]
        if record["reflect"] is not None:
            _check_feedback(where, record["reflect"])
        daily_in, weekly_in = ledger.feedback_in()
        decided = {}
        for role in AGENT_ROLES:
            raw, attempts = roles[role]["raw"], roles[role]["attempts"]  # raw is None on a fallback
            # the last attempt is checked below; most lists hold only that one
            if len(attempts) > 1 and any(_ATTEMPT_MISFIT(a) is not None for a in attempts[:-1]):
                raise JournalCorrupt(f"{where} {role}: an attempt is not a raw reply and an error")
            last = attempts[-1] if attempts else None
            if raw is None and (_ATTEMPT_MISFIT(last) is not None or last["error"] is None):
                raise JournalCorrupt(f"{where} {role}: the fallback's last attempt has no error")
            if raw is not None and last != {"raw": raw, "error": None}:
                raise JournalCorrupt(f"{where} {role}: recorded reply is not the last attempt's")
            try:
                parsed = None if raw is None else parse_agent_output(raw, role=role)
            except PARSE_ERRORS as exc:
                raise JournalCorrupt(f"{where} {role}: recorded reply does not parse: {exc}") from None
            decided[role] = {**(parsed or fallback_decision(ledger.held[role])), "fallback": raw is None}
        settled = ledger.settle(dates[i], decided, record["close"], record["next_close"])
        derived = {**settled, "daily_feedback_in": daily_in, "weekly_feedback_in": weekly_in}
        _check_reproduced(where, derived, record)
        ledger.last_day = record
    return outputs
