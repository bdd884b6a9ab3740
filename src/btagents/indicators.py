"""Technical indicators computed from bar windows.

All functions are pure and operate on the window they are given: trailing
statistics (sma, bollinger, vwap) use the last n observations, recursive
ones (ema, macd, rsi, adx) run over the whole window so their smoothing
state is reproducible from the window alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from datetime import date as Date
from typing import Sequence

from .errors import ConfigError, DegenerateRange, EmptyWindow, WindowTooShort, ZeroVolume
from .market_data import Bar


@dataclass(frozen=True)
class IndicatorParams:
    """Window lengths for the indicator set; defaults are the common ones."""

    sma_window: int = 20
    ema_window: int = 12
    rsi_window: int = 14
    bb_window: int = 20
    bb_k: float = 2.0
    adx_window: int = 14
    macd_fast: int = 12
    macd_slow: int = 26
    macd_signal: int = 9
    vwap_lookback: int = 10

    def __post_init__(self):
        # written so that NaN fails each bound
        for f in fields(self):
            if f.name != "bb_k" and not getattr(self, f.name) >= 1:
                raise ConfigError(f"config key '{f.name}' must be >= 1")
        if not self.macd_fast < self.macd_slow:
            raise ConfigError("config key 'macd_fast' must be < macd_slow")
        if not 0 < self.bb_k < math.inf:
            raise ConfigError("config key 'bb_k' must be finite and > 0")

    def window_requirements(self) -> dict[str, int]:
        """Bars each indicator needs before it can run."""
        return {
            "sma": self.sma_window,
            "ema": 1,
            "macd": self.macd_slow,
            "rsi": self.rsi_window + 1,
            "bollinger": self.bb_window,
            "vwap": self.vwap_lookback,
            "adx": 2 * self.adx_window + 1,
        }

    def min_window(self) -> int:
        """Shortest bar window that lets every indicator run."""
        return max(self.window_requirements().values())


@dataclass(frozen=True)
class IndicatorSnapshot:
    """All indicator values for one date."""

    date: Date
    sma: float
    ema: float
    macd_line: float
    macd_signal_line: float
    macd_hist: float
    rsi: float
    bb_upper: float
    bb_mid: float
    bb_lower: float
    vwap: float
    pct_below_vwap: float
    adx: float
    adx_degenerate: bool = field(default=False)

    def __post_init__(self):
        if not (self.bb_lower <= self.bb_mid <= self.bb_upper):
            raise ValueError("bollinger bands out of order")
        if not 0.0 <= self.rsi <= 100.0:
            raise ValueError("rsi outside [0, 100]")
        if not 0.0 <= self.adx <= 100.0:
            raise ValueError("adx outside [0, 100]")
        if not 0.0 <= self.pct_below_vwap <= 1.0:
            raise ValueError("pct_below_vwap outside [0, 1]")


def sma(closes: Sequence[float], n: int) -> float:
    """Arithmetic mean of the last n closes."""
    if len(closes) < n:
        raise WindowTooShort(f"sma needs {n} closes, got {len(closes)}")
    tail = closes[-n:]
    return math.fsum(tail) / n


def _ema_series(values: Sequence[float], n: int) -> list[float]:
    # seeded with the first value, alpha = 2 / (n + 1)
    alpha = 2.0 / (n + 1.0)
    out = [values[0]]
    for v in values[1:]:
        out.append(alpha * v + (1.0 - alpha) * out[-1])
    return out


def ema(closes: Sequence[float], n: int) -> float:
    """Exponential moving average over the whole window, seeded with its first close."""
    if not closes:
        raise EmptyWindow("ema needs at least one close")
    return _ema_series(closes, n)[-1]


def macd(
    closes: Sequence[float], fast: int = 12, slow: int = 26, signal_n: int = 9
) -> tuple[float, float, float]:
    """(macd_line, signal_line, histogram) at the window's last close."""
    if fast >= slow:
        raise ValueError("fast period must be < slow period")
    if len(closes) < slow:
        raise WindowTooShort(f"macd needs {slow} closes, got {len(closes)}")
    fast_series = _ema_series(closes, fast)
    slow_series = _ema_series(closes, slow)
    macd_series = [f - s for f, s in zip(fast_series, slow_series)]
    signal_line = _ema_series(macd_series, signal_n)[-1]
    line = macd_series[-1]
    return line, signal_line, line - signal_line


def rsi(closes: Sequence[float], n: int = 14) -> float:
    """Relative strength index with Wilder smoothing over the whole window.

    The first n differences seed the average gain/loss; later differences
    update them with Wilder's recursion. A window with zero gains and zero
    losses (constant prices) reads as neutral 50.
    """
    if len(closes) < n + 1:
        raise WindowTooShort(f"rsi needs {n + 1} closes, got {len(closes)}")
    deltas = [b - a for a, b in zip(closes, closes[1:])]
    gains = [max(d, 0.0) for d in deltas]
    losses = [max(-d, 0.0) for d in deltas]
    avg_gain = sum(gains[:n]) / n
    avg_loss = sum(losses[:n]) / n
    for g, l in zip(gains[n:], losses[n:]):
        avg_gain = (avg_gain * (n - 1) + g) / n
        avg_loss = (avg_loss * (n - 1) + l) / n
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    if avg_gain == 0.0:
        return 0.0
    rs = avg_gain / avg_loss
    return 100.0 - 100.0 / (1.0 + rs)


def bollinger(closes: Sequence[float], n: int = 20, k: float = 2.0) -> tuple[float, float, float]:
    """(upper, mid, lower) with mid = sma(n) and bands mid +/- k * population sigma."""
    if len(closes) < n:
        raise WindowTooShort(f"bollinger needs {n} closes, got {len(closes)}")
    tail = closes[-n:]
    mid = math.fsum(tail) / n
    variance = math.fsum((c - mid) ** 2 for c in tail) / n
    sigma = math.sqrt(variance)
    return mid + k * sigma, mid, mid - k * sigma


def vwap(bars: Sequence[Bar], lookback: int) -> tuple[float, float]:
    """Volume-weighted average of typical prices over the last lookback bars.

    Returns (vwap, fraction of those closes strictly below it).
    """
    if len(bars) < lookback:
        raise WindowTooShort(f"vwap needs {lookback} bars, got {len(bars)}")
    tail = bars[-lookback:]
    total_volume = math.fsum(b.volume for b in tail)
    if total_volume <= 0.0:
        raise ZeroVolume("vwap window has zero total volume")
    weighted = math.fsum(((b.high + b.low + b.close) / 3.0) * b.volume for b in tail)
    value = weighted / total_volume
    below = sum(1 for b in tail if b.close < value)
    return value, below / lookback


def adx(bars: Sequence[Bar], n: int = 14) -> float:
    """Wilder average directional index over the whole window.

    Requires 2n+1 bars: n differences to seed the smoothed TR/DM sums, and
    n more DX values to seed the ADX average. Raises DegenerateRange when
    the seeding true ranges are all zero (flat OHLC), since direction
    strength is undefined there.
    """
    if len(bars) < 2 * n + 1:
        raise WindowTooShort(f"adx needs {2 * n + 1} bars, got {len(bars)}")

    trs: list[float] = []
    plus_dms: list[float] = []
    minus_dms: list[float] = []
    for prev, cur in zip(bars, bars[1:]):
        tr = max(cur.high - cur.low, abs(cur.high - prev.close), abs(cur.low - prev.close))
        up_move = cur.high - prev.high
        down_move = prev.low - cur.low
        plus_dm = up_move if (up_move > down_move and up_move > 0) else 0.0
        minus_dm = down_move if (down_move > up_move and down_move > 0) else 0.0
        trs.append(tr)
        plus_dms.append(plus_dm)
        minus_dms.append(minus_dm)

    sm_tr = sum(trs[:n])
    sm_plus = sum(plus_dms[:n])
    sm_minus = sum(minus_dms[:n])

    def dx_at(tr_sum: float, plus_sum: float, minus_sum: float) -> float:
        if tr_sum == 0.0:
            raise DegenerateRange("true range collapsed to zero")
        plus_di = 100.0 * plus_sum / tr_sum
        minus_di = 100.0 * minus_sum / tr_sum
        di_sum = plus_di + minus_di
        if di_sum == 0.0:
            return 0.0
        return 100.0 * abs(plus_di - minus_di) / di_sum

    dxs = [dx_at(sm_tr, sm_plus, sm_minus)]
    for tr, pdm, mdm in zip(trs[n:], plus_dms[n:], minus_dms[n:]):
        sm_tr = sm_tr - sm_tr / n + tr
        sm_plus = sm_plus - sm_plus / n + pdm
        sm_minus = sm_minus - sm_minus / n + mdm
        dxs.append(dx_at(sm_tr, sm_plus, sm_minus))

    value = sum(dxs[:n]) / n
    for dx in dxs[n:]:
        value = (value * (n - 1) + dx) / n
    return value


def snapshot(bars: Sequence[Bar], params: IndicatorParams) -> IndicatorSnapshot:
    """Compute the full indicator set for the window's last date.

    A flat window makes ADX degenerate; the snapshot substitutes adx=0 and
    sets adx_degenerate so callers can tell a real zero from a flat fixture.
    """
    need = params.min_window()
    if len(bars) < need:
        binding = max(params.window_requirements().items(), key=lambda kv: kv[1])[0]
        raise WindowTooShort(
            f"snapshot needs {need} bars (binding indicator: {binding}), got {len(bars)}"
        )
    closes = [b.close for b in bars]
    line, signal_line, hist = macd(closes, params.macd_fast, params.macd_slow, params.macd_signal)
    upper, mid, lower = bollinger(closes, params.bb_window, params.bb_k)
    vw, pct_below = vwap(bars, params.vwap_lookback)
    try:
        adx_value = adx(bars, params.adx_window)
        degenerate = False
    except DegenerateRange:
        adx_value = 0.0
        degenerate = True
    return IndicatorSnapshot(
        date=bars[-1].date,
        sma=sma(closes, params.sma_window),
        ema=ema(closes, params.ema_window),
        macd_line=line,
        macd_signal_line=signal_line,
        macd_hist=hist,
        rsi=rsi(closes, params.rsi_window),
        bb_upper=upper,
        bb_mid=mid,
        bb_lower=lower,
        vwap=vw,
        pct_below_vwap=pct_below,
        adx=adx_value,
        adx_degenerate=degenerate,
    )
