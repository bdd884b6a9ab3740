"""Ex-post bullish/bearish/sideways segmentation of a close series.

Labels come from a moving-average trend rule and are used only to bucket
report rows; they are never shown to the trading agents.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date as Date
from enum import Enum
from typing import Sequence

from .errors import CoverageError, MalformedRow, WindowTooShort


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
        if self.ma_window < 2:
            raise ValueError("ma_window must be >= 2")
        if self.slope_lookback < 1 or self.min_span_days < 1:
            raise ValueError("lookbacks must be >= 1")
        if self.slope_threshold < 0:
            raise ValueError("slope_threshold must be >= 0")

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

    def covers(self, dates: Sequence[Date]) -> bool:
        try:
            for d in dates:
                self.label_for(d)
        except CoverageError:
            return False
        return True


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

    # collapse per-day labels into runs
    runs: list[list] = []  # [label, start_idx, end_idx]
    for i, lab in enumerate(labels):
        if runs and runs[-1][0] == lab:
            runs[-1][2] = i
        else:
            runs.append([lab, i, i])

    def run_len(run) -> int:
        return run[2] - run[1] + 1

    merged = True
    while merged and len(runs) > 1:
        merged = False
        for idx, run in enumerate(runs):
            if idx == len(runs) - 1:
                continue  # the trailing span may legitimately be short
            if run_len(run) >= params.min_span_days:
                continue
            if idx == 0:
                absorber = runs[1]
                absorber[1] = run[1]
            else:
                absorber = runs[idx - 1]
                absorber[2] = run[2]
            runs.pop(idx)
            # re-join neighbors that now carry the same label
            j = 0
            while j + 1 < len(runs):
                if runs[j][0] == runs[j + 1][0]:
                    runs[j][2] = runs[j + 1][2]
                    runs.pop(j + 1)
                else:
                    j += 1
            merged = True
            break

    spans = tuple(
        RegimeSpan(start_date=dates[start], end_date=dates[end], label=lab)
        for lab, start, end in runs
    )
    return RegimeSegmentation(spans=spans)


def load_segmentation(path: str) -> RegimeSegmentation:
    """Read a user-supplied override: CSV start_date,end_date,label."""
    spans = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["start_date", "end_date", "label"]:
            raise MalformedRow(path, 1, "expected header start_date,end_date,label")
        for line_no, raw in enumerate(reader, start=2):
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != 3:
                raise MalformedRow(path, line_no, f"expected 3 fields, got {len(raw)}")
            try:
                start = Date.fromisoformat(raw[0].strip())
                end = Date.fromisoformat(raw[1].strip())
                label = RegimeLabel(raw[2].strip())
            except ValueError as exc:
                raise MalformedRow(path, line_no, str(exc)) from None
            if end < start:
                raise MalformedRow(path, line_no, "end_date before start_date")
            spans.append(RegimeSpan(start_date=start, end_date=end, label=label))
    spans.sort(key=lambda s: s.start_date)
    for a, b in zip(spans, spans[1:]):
        if b.start_date <= a.end_date:
            raise CoverageError(f"overlapping spans at {b.start_date}")
    return RegimeSegmentation(spans=tuple(spans))
