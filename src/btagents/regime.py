"""Ex-post bullish/bearish/sideways segmentation of a close series.

Labels come from a moving-average trend rule and are used only to bucket
report rows; they are never shown to the trading agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from enum import Enum
from typing import Sequence

from .errors import ConfigError, CoverageError, WindowTooShort
from .market_data import read_csv


class RegimeLabel(str, Enum):
    BULLISH = "Bullish"
    BEARISH = "Bearish"
    SIDEWAYS = "Sideways"


@dataclass(frozen=True)
class RegimeParams:
    ma_window: int = 50
    slope_lookback: int = 10
    slope_threshold: float = 0.001  # fraction of MA per day
    min_span_days: int = 14

    def __post_init__(self):
        # written so that NaN fails each bound
        if not self.ma_window >= 2:
            raise ConfigError("config key 'ma_window' must be >= 2")
        for name in ("slope_lookback", "min_span_days"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"config key '{name}' must be >= 1")
        if not 0 <= self.slope_threshold < math.inf:
            raise ConfigError("config key 'slope_threshold' must be finite and >= 0")

    def warmup(self) -> int:
        return self.ma_window + self.slope_lookback


@dataclass(frozen=True)
class RegimeSpan:
    start_date: Date
    end_date: Date
    label: RegimeLabel


@dataclass(frozen=True)
class RegimeSegmentation:
    spans: tuple[RegimeSpan, ...]

    def label_for(self, date: Date) -> RegimeLabel:
        for span in self.spans:
            if span.start_date <= date <= span.end_date:
                return span.label
        raise CoverageError(f"{date} not covered by segmentation")


def classify_day(closes: Sequence[float], params: RegimeParams) -> RegimeLabel:
    """Label the last day of a close window.

    Bullish: close above its MA and the MA rising faster than the threshold.
    Bearish: close below its MA and the MA falling faster than it.
    Everything else is sideways. Slope is normalized per day:
    (MA_t - MA_{t-L}) / (L * MA_{t-L}).
    """
    need = params.warmup()
    if len(closes) < need:
        raise WindowTooShort(f"classify_day needs {need} closes, got {len(closes)}")
    w = params.ma_window
    lb = params.slope_lookback
    ma_now = sum(closes[-w:]) / w
    earlier = closes[-(w + lb) : -lb]
    ma_then = sum(earlier) / w
    slope = (ma_now - ma_then) / (lb * ma_then)
    close = closes[-1]
    if close > ma_now and slope > params.slope_threshold:
        return RegimeLabel.BULLISH
    if close < ma_now and slope < -params.slope_threshold:
        return RegimeLabel.BEARISH
    return RegimeLabel.SIDEWAYS


def segment(
    dates: Sequence[Date], closes: Sequence[float], params: RegimeParams
) -> RegimeSegmentation:
    """Per-day labels merged into spans covering the whole date range.

    Days before the first classifiable one take its label. Spans shorter
    than min_span_days are absorbed into their neighbor (the previous span,
    or the next one for a short leading span); the final span may stay short.
    """
    if len(dates) != len(closes):
        raise ValueError("dates and closes must align")
    if not dates:
        raise ValueError("segment needs at least one day")
    warmup = params.warmup()
    if len(closes) < warmup:
        raise WindowTooShort(f"segment needs {warmup} closes, got {len(closes)}")

    # classify_day reads only the last `warmup` closes, so each day gets the
    # same label from a fixed-length window as from its whole prefix
    first_label = classify_day(closes[:warmup], params)
    labels = [first_label] * (warmup - 1) + [
        classify_day(closes[i + 1 - warmup : i + 1], params)
        for i in range(warmup - 1, len(dates))
    ]

    # one pass: a span that a different label closes while shorter than
    # min_span_days joins the span before it, or, leading, the one that closes
    # it; only spans before the last are ever closed
    runs: list[list] = []  # [label, start_idx, end_idx]
    for i, lab in enumerate(labels):
        if runs and runs[-1][0] != lab and runs[-1][2] - runs[-1][1] + 1 < params.min_span_days:
            short = runs.pop()
            if runs:
                runs[-1][2] = short[2]
            else:
                runs.append([lab, short[1], short[2]])
        if runs and runs[-1][0] == lab:
            runs[-1][2] = i
        else:
            runs.append([lab, i, i])

    spans = tuple(
        RegimeSpan(start_date=dates[start], end_date=dates[end], label=lab)
        for lab, start, end in runs
    )
    return RegimeSegmentation(spans=spans)


def _override_span(fields: dict[str, str]) -> RegimeSpan:
    start = Date.fromisoformat(fields["start_date"].strip())
    end = Date.fromisoformat(fields["end_date"].strip())
    label = RegimeLabel(fields["label"].strip())
    if end < start:
        raise ValueError("end_date before start_date")
    return RegimeSpan(start_date=start, end_date=end, label=label)


def load_segmentation(path: str) -> RegimeSegmentation:
    """Read a user-supplied override: CSV start_date,end_date,label."""
    spans = read_csv(path, ("start_date", "end_date", "label"), _override_span)
    spans.sort(key=lambda s: s.start_date)
    for a, b in zip(spans, spans[1:]):
        if b.start_date <= a.end_date:
            raise CoverageError(f"overlapping spans at {b.start_date}")
    return RegimeSegmentation(spans=tuple(spans))
