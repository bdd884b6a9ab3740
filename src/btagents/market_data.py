"""Per-date market inputs: domain types, CSV loaders, alignment and slicing.

One CSV file per series, UTF-8 (a leading BOM is skipped), ISO-8601 dates,
header required:

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
        for name in ("open", "high", "low", "close"):
            if not 0 < getattr(self, name) < math.inf:
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
    """Immutable per-date join of all input series, one record per bar date."""

    records: tuple[MarketRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dates(self) -> tuple[Date, ...]:
        return tuple(r.date for r in self.records)

    @cached_property
    def _positions(self) -> dict[Date, int]:
        # first position wins, as a scan from the start would find it
        positions: dict[Date, int] = {}
        for i, r in enumerate(self.records):
            positions.setdefault(r.date, i)
        return positions

    def index_of(self, date: Date) -> int:
        try:
            return self._positions[date]
        except KeyError:
            raise DateNotFound(f"{date} not in dataset") from None

    def record(self, date: Date) -> MarketRecord:
        return self.records[self.index_of(date)]


def _parse_date(raw: str) -> Date:
    return Date.fromisoformat(raw.strip())


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


def read_csv(path: str, expected_header: Sequence[str], build: Callable[[dict[str, str]], object]) -> list:
    """The CSV reader every input file goes through: checks the header, skips
    blank rows and builds one item per row from its fields by header name. A
    row it cannot build, and a byte that is not UTF-8, fail with MalformedRow
    naming the file and the physical line."""
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
            for raw in reader:
                if not any(cell.strip() for cell in raw):
                    continue
                if len(raw) != len(expected_header):
                    raise MalformedRow(
                        path, reader.line_num, f"expected {len(expected_header)} fields, got {len(raw)}"
                    )
                try:
                    rows.append(build(dict(zip(expected_header, raw))))
                except ValueError as exc:
                    raise MalformedRow(path, reader.line_num, str(exc)) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return rows


def _load_series(path: str, header: Sequence[str], build: Callable, allow_duplicate_dates: bool = False) -> list:
    """A dated series read by read_csv, sorted by date."""
    rows = sorted(read_csv(path, header, build), key=lambda item: item.date)
    if not allow_duplicate_dates:
        for a, b in zip(rows, rows[1:]):
            if a.date == b.date:
                raise DuplicateDate(f"{path}: duplicate date {a.date}")
    return rows


def load_bars(path: str) -> list[Bar]:
    """Load and validate an OHLCV series, sorted ascending by date."""
    return _load_series(
        path,
        ("date", "open", "high", "low", "close", "volume"),
        lambda f: Bar(
            date=_parse_date(f["date"]),
            open=float(f["open"]),
            high=float(f["high"]),
            low=float(f["low"]),
            close=float(f["close"]),
            volume=float(f["volume"]),
        ),
    )


def load_onchain(path: str) -> list[OnChainDaily]:
    return _load_series(
        path,
        ("date", "tx_count", "active_addresses", "transfer_volume_usd"),
        lambda f: OnChainDaily(
            date=_parse_date(f["date"]),
            tx_count=int(f["tx_count"]),
            active_addresses=int(f["active_addresses"]),
            transfer_volume_usd=float(f["transfer_volume_usd"]),
        ),
    )


def load_sentiment(path: str) -> list[SentimentDaily]:
    return _load_series(
        path,
        ("date", "social_score_mean", "fgi_value", "fgi_label"),
        lambda f: SentimentDaily(
            date=_parse_date(f["date"]),
            social_score_mean=float(f["social_score_mean"]),
            fgi_value=int(f["fgi_value"]),
            fgi_label=f["fgi_label"].strip(),
        ),
    )


def load_news(path: str) -> list[NewsItem]:
    """Load news items; multiple items per date are expected."""
    return _load_series(
        path,
        ("date", "source", "headline", "summary"),
        lambda f: NewsItem(
            date=_parse_date(f["date"]),
            source=f["source"].strip(),
            headline=f["headline"].strip(),
            summary=f["summary"].strip(),
        ),
        allow_duplicate_dates=True,
    )


def dedupe_news(items: Iterable[NewsItem]) -> list[NewsItem]:
    """Drop exact (date, source, headline) repeats; a news file may repeat an item."""
    seen = set()
    out = []
    for item in items:
        key = (item.date, item.source, item.headline)
        if key in seen:
            continue
        seen.add(key)
        out.append(item)
    return out


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
    the backtest itself requires both series to be present.
    """
    if not bars:
        raise InvariantViolation("align requires at least one bar")
    if gap_policy not in (GAP_CARRY, GAP_STRICT):
        raise ValueError(f"unknown gap policy {gap_policy!r}")

    ordered = sorted(bars, key=lambda b: b.date)
    seen_dates = set()
    for b in ordered:
        if b.date in seen_dates:
            raise DuplicateDate(f"duplicate bar date {b.date}")
        seen_dates.add(b.date)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.date != prev.date + timedelta(days=1):
            raise GapError("bars", prev.date + timedelta(days=1))

    onchain_by_date = {o.date: o for o in onchain}
    sentiment_by_date = {s.date: s for s in sentiment}
    news_by_date: dict[Date, list[NewsItem]] = {}
    for item in dedupe_news(news):
        news_by_date.setdefault(item.date, []).append(item)

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
        day_news = tuple(sorted(news_by_date.get(bar.date, ()), key=lambda n: (n.source, n.headline)))
        records.append(
            MarketRecord(bar=bar, onchain=last_onchain, sentiment=last_sentiment, news=day_news)
        )
    return MarketDataset(records=tuple(records))


def slice_window(dataset: MarketDataset, date: Date, lookback_days: int) -> tuple[MarketRecord, ...]:
    """Window of up to lookback_days records ending at (and including) date."""
    if lookback_days < 1:
        raise ValueError("lookback_days must be >= 1")
    end = dataset.index_of(date)
    return dataset.records[max(0, end - lookback_days + 1) : end + 1]
