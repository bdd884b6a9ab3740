"""Per-date market inputs: domain types, CSV loaders, alignment and slicing.

One CSV file per series, UTF-8 (a leading BOM is skipped), `YYYY-MM-DD`
dates, header required:

    bars.csv       date,open,high,low,close,volume
    onchain.csv    date,tx_count,active_addresses,transfer_volume_usd
    sentiment.csv  date,social_score_mean,fgi_value,fgi_label
    news.csv       date,source,headline,summary
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import date as Date, timedelta
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .errors import (
    DateNotFound,
    DuplicateDate,
    GapError,
    InvariantViolation,
    MalformedRow,
)

GAP_CARRY = "carry"
GAP_STRICT = "strict"

_by_day = attrgetter("date")


def parse_date(text: str) -> Date:
    """The one date rule, `YYYY-MM-DD` on every supported Python: from 3.11 on,
    `date.fromisoformat` also takes `20240101` and week dates such as
    `2024-W01-2`, which 3.10 rejects in these words."""
    day = Date.fromisoformat(text)
    if len(text) != 10 or text[7] != "-":
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return day


@dataclass(frozen=True)
class Bar:
    """One day of OHLCV trade data."""

    date: Date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self):
        # written as bounds on both sides so that NaN, for which every
        # comparison is false, fails them too
        prices = self.open, self.high, self.low, self.close
        for name, price in zip(("open", "high", "low", "close"), prices):
            if not 0 < price < math.inf:
                raise InvariantViolation(f"{self.date}: {name} must be finite and > 0")
        if not 0 <= self.volume < math.inf:
            raise InvariantViolation(f"{self.date}: volume must be finite and >= 0")
        if self.low > min(self.open, self.close):
            raise InvariantViolation(f"{self.date}: low above open/close")
        if self.high < max(self.open, self.close):
            raise InvariantViolation(f"{self.date}: high below open/close")
        if self.low > self.high:
            raise InvariantViolation(f"{self.date}: low above high")


@dataclass(frozen=True)
class OnChainDaily:
    """Daily network activity read from the chain."""

    date: Date
    tx_count: int
    active_addresses: int
    transfer_volume_usd: float

    def __post_init__(self):
        if self.tx_count < 0 or self.active_addresses < 0:
            raise InvariantViolation(f"{self.date}: on-chain counts must be >= 0")
        if not 0 <= self.transfer_volume_usd < math.inf:
            raise InvariantViolation(f"{self.date}: transfer volume must be finite and >= 0")


@dataclass(frozen=True)
class SentimentDaily:
    """Daily crowd-mood inputs: social score mean and the fear/greed index."""

    date: Date
    social_score_mean: float
    fgi_value: int
    fgi_label: str

    def __post_init__(self):
        if not -1.0 <= self.social_score_mean <= 1.0:
            raise InvariantViolation(f"{self.date}: social score outside [-1, 1]")
        if not 0 <= self.fgi_value <= 100:
            raise InvariantViolation(f"{self.date}: fgi_value outside [0, 100]")


@dataclass(frozen=True)
class NewsItem:
    date: Date
    source: str
    headline: str
    summary: str

    def __post_init__(self):
        if not self.headline.strip():
            raise InvariantViolation(f"{self.date}: empty headline")


@dataclass(frozen=True)
class MarketRecord:
    """Everything known for a single trading day."""

    bar: Bar
    onchain: OnChainDaily | None
    sentiment: SentimentDaily | None
    news: tuple[NewsItem, ...]

    @property
    def date(self) -> Date:
        return self.bar.date


@dataclass(frozen=True)
class MarketDataset:
    """Immutable per-date join of all input series, one record per bar date,
    in strictly increasing date order (a repeat raises DuplicateDate, a record
    dated before the one ahead of it InvariantViolation)."""

    records: tuple[MarketRecord, ...]

    def __post_init__(self):
        # a day's window, and the next bar that marks it, are read by position
        dates = [r.bar.date for r in self.records]
        for prev, cur in zip(dates, dates[1:]):
            if cur == prev:
                raise DuplicateDate(f"duplicate bar date {cur}")
            if cur < prev:
                raise InvariantViolation(f"bar date {cur} is listed after {prev}")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dates(self) -> tuple[Date, ...]:
        return tuple(r.date for r in self.records)

    @cached_property
    def _positions(self) -> dict[Date, int]:
        return {r.date: i for i, r in enumerate(self.records)}

    def index_of(self, date: Date) -> int:
        try:
            return self._positions[date]
        except KeyError:
            raise DateNotFound(f"{date} not in dataset") from None


def _not_utf8(path: str) -> MalformedRow:
    """The error for a file that failed to decode, naming its first bad line.
    Lines end at \n, \r or \r\n, as they do for `reader.line_num` in read_csv."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh.read().splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return MalformedRow(path, line_no, f"byte 0x{line[exc.start]:02x} is not UTF-8")
    return MalformedRow(path, 1, "not UTF-8 text")


def read_csv(path: str, expected_header: Sequence[str], build: Callable[..., object]) -> list:
    """The CSV reader every input file goes through: checks the header, skips
    blank rows and builds one item per row with `build(*fields)`, the fields
    in header order. A row it cannot build or split, and a byte that is not
    UTF-8, fail with MalformedRow naming the file and the physical line."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a leading BOM
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MalformedRow(path, 1, "empty file, header required") from None
            header = [h.strip() for h in header]
            if header != list(expected_header):
                raise MalformedRow(
                    path, 1, f"expected header {','.join(expected_header)}, got {','.join(header)}"
                )
            width = len(header)
            for raw in reader:
                if not "".join(raw).strip():
                    continue
                if len(raw) != width:
                    raise MalformedRow(path, reader.line_num, f"expected {width} fields, got {len(raw)}")
                try:
                    rows.append(build(*raw))
                except ValueError as exc:
                    raise MalformedRow(path, reader.line_num, str(exc)) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except csv.Error as exc:  # a field over the csv module's size limit, or a NUL on Python 3.10
        raise MalformedRow(path, reader.line_num, str(exc)) from None
    return rows


def _load_series(path: str, header: Sequence[str], build: Callable) -> list:
    """A dated series read by read_csv, sorted by date; a repeated date raises DuplicateDate."""
    rows = sorted(read_csv(path, header, build), key=_by_day)
    for a, b in zip(rows, rows[1:]):
        if a.date == b.date:
            raise DuplicateDate(f"{path}: duplicate date {a.date}")
    return rows


def _bar(date, open_, high, low, close, volume) -> Bar:
    return Bar(parse_date(date.strip()), float(open_), float(high), float(low), float(close), float(volume))


def _onchain(date, tx_count, active_addresses, transfer_volume_usd) -> OnChainDaily:
    return OnChainDaily(
        parse_date(date.strip()), int(tx_count), int(active_addresses), float(transfer_volume_usd)
    )


def _sentiment(date, social_score_mean, fgi_value, fgi_label) -> SentimentDaily:
    return SentimentDaily(
        parse_date(date.strip()), float(social_score_mean), int(fgi_value), fgi_label.strip()
    )


def _news(date, source, headline, summary) -> NewsItem:
    return NewsItem(parse_date(date.strip()), source.strip(), headline.strip(), summary.strip())


def load_bars(path: str) -> list[Bar]:
    """Load and validate an OHLCV series, sorted ascending by date."""
    return _load_series(path, ("date", "open", "high", "low", "close", "volume"), _bar)


def load_onchain(path: str) -> list[OnChainDaily]:
    return _load_series(path, ("date", "tx_count", "active_addresses", "transfer_volume_usd"), _onchain)


def load_sentiment(path: str) -> list[SentimentDaily]:
    return _load_series(path, ("date", "social_score_mean", "fgi_value", "fgi_label"), _sentiment)


def load_news(path: str) -> list[NewsItem]:
    """Load news items sorted by date, in file order within a date; `align` drops repeats."""
    return sorted(read_csv(path, ("date", "source", "headline", "summary"), _news), key=_by_day)


def _by_date(series: str, items: Iterable) -> dict:
    """Map each item's date to it; a repeated date raises DuplicateDate."""
    table = {}
    for item in items:
        if item.date in table:
            raise DuplicateDate(f"duplicate {series} date {item.date}")
        table[item.date] = item
    return table


def align(
    bars: Sequence[Bar],
    onchain: Sequence[OnChainDaily] = (),
    sentiment: Sequence[SentimentDaily] = (),
    news: Sequence[NewsItem] = (),
    gap_policy: str = GAP_CARRY,
) -> MarketDataset:
    """Join all series onto the bar dates.

    Bars define the calendar and are always strict: the market trades every
    day, so a hole in the bar series is an error. Missing on-chain/sentiment
    values are carried forward from the most recent prior date under the
    default policy; under GAP_STRICT any missing date raises. A gap before
    the first available value cannot be carried and always raises. A series
    that is absent altogether (empty) is allowed and yields None fields;
    the backtest itself requires both series to be present. A date repeated
    in the bar, on-chain or sentiment series raises DuplicateDate; news may
    hold many items per date, and of a repeated (date, source, headline) the
    first is kept.
    """
    if not bars:
        raise InvariantViolation("align requires at least one bar")
    if gap_policy not in (GAP_CARRY, GAP_STRICT):
        raise ValueError(f"unknown gap policy {gap_policy!r}")

    _by_date("bar", bars)
    ordered = sorted(bars, key=_by_day)
    one_day = timedelta(days=1)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.date != prev.date + one_day:
            raise GapError("bars", prev.date + one_day)

    onchain_by_date = _by_date("onchain", onchain)
    sentiment_by_date = _by_date("sentiment", sentiment)
    # the first of a repeated (date, source, headline) is kept, and the keys
    # are sorted once, so each day's items are listed by (source, headline)
    unique_news: dict[tuple[Date, str, str], NewsItem] = {}
    for item in news:
        unique_news.setdefault((item.date, item.source, item.headline), item)
    news_by_date: dict[Date, list[NewsItem]] = {}
    for key in sorted(unique_news):
        news_by_date.setdefault(key[0], []).append(unique_news[key])

    def resolve(series: str, table: dict, day: Date, last):
        if not table:
            return None
        if day in table:
            return table[day]
        if gap_policy == GAP_STRICT or last is None:
            raise GapError(series, day)
        return replace(last, date=day)

    records = []
    last_onchain: OnChainDaily | None = None
    last_sentiment: SentimentDaily | None = None
    for bar in ordered:
        last_onchain = resolve("onchain", onchain_by_date, bar.date, last_onchain)
        last_sentiment = resolve("sentiment", sentiment_by_date, bar.date, last_sentiment)
        day_news = tuple(news_by_date.get(bar.date, ()))
        records.append(MarketRecord(bar, last_onchain, last_sentiment, day_news))
    return MarketDataset(records=tuple(records))


def slice_window(dataset: MarketDataset, date: Date, lookback_days: int) -> tuple[MarketRecord, ...]:
    """Window of up to lookback_days records ending at (and including) date."""
    if lookback_days < 1:
        raise ValueError("lookback_days must be >= 1")
    end = dataset.index_of(date)
    return dataset.records[max(0, end - lookback_days + 1) : end + 1]
