"""The quants agent's gauges, computed from one bar window by `snapshot`.

`snapshot` is the one entry point: it checks the window is long enough for
every gauge and computes them all. Trailing gauges (SMA, Bollinger, VWAP)
read the last n bars; recursive ones (EMA, MACD, RSI, ADX) run over the
whole window, so their smoothing state is reproducible from the window
alone. RSI's and ADX's terms for a pair of adjacent bars do not depend on
the window, so `pair_terms` computes them once for a run of bars and each
window's snapshot reads its slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from datetime import date as Date
from typing import NamedTuple, Sequence

from .errors import ConfigError, DegenerateRange, InvariantViolation, WindowTooShort, ZeroVolume
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
        for name, value in vars(self).items():  # first, so NaN is not told as out of range
            if isinstance(value, float) and not math.isfinite(value):
                raise InvariantViolation(f"{self.date}: gauge {name} is {value}")
        if not (self.bb_lower <= self.bb_mid <= self.bb_upper):
            raise InvariantViolation(f"{self.date}: bollinger bands out of order")
        if not 0.0 <= self.rsi <= 100.0:
            raise InvariantViolation(f"{self.date}: rsi outside [0, 100]")
        if not 0.0 <= self.adx <= 100.0:
            raise InvariantViolation(f"{self.date}: adx outside [0, 100]")
        if not 0.0 <= self.pct_below_vwap <= 1.0:
            raise InvariantViolation(f"{self.date}: pct_below_vwap outside [0, 1]")


def _sma(closes: Sequence[float], n: int) -> float:
    # the mean of the last n closes: SMA, and Bollinger's mid
    return math.fsum(closes[-n:]) / n


def _ema_series(values: Sequence[float], n: int) -> list[float]:
    # seeded with the first value, alpha = 2 / (n + 1)
    alpha = 2.0 / (n + 1.0)
    keep = 1.0 - alpha
    value = values[0]
    out = [value]
    for v in values[1:]:
        value = alpha * v + keep * value
        out.append(value)
    return out


def _wilder_mean(values: Sequence[float], n: int) -> float:
    """Wilder's average: the mean of the first n values, then
    avg = (avg * (n - 1) + v) / n for each later value v."""
    avg = sum(values[:n]) / n
    for v in values[n:]:
        avg = (avg * (n - 1) + v) / n
    return avg


class PairTerms(NamedTuple):
    """The gauge terms of each adjacent pair of bars, in bar order: RSI's
    close-to-close gain and loss, and ADX's true range and directional moves.
    Entry i belongs to bars i and i + 1."""

    gains: list[float]
    losses: list[float]
    trs: list[float]
    plus_dms: list[float]
    minus_dms: list[float]

    def window(self, start: int, stop: int) -> "PairTerms":
        """The terms of the pairs within bars[start:stop]."""
        return PairTerms(*(terms[start : stop - 1] for terms in self))


def pair_terms(bars: Sequence[Bar]) -> PairTerms:
    """RSI's and ADX's terms for each adjacent pair of bars, computed once so
    that every window over the bars can share them. Never raises."""
    terms = PairTerms([], [], [], [], [])
    for prev, cur in zip(bars, bars[1:]):
        move = cur.close - prev.close
        up_move = cur.high - prev.high
        down_move = prev.low - cur.low
        terms.gains.append(max(move, 0.0))
        terms.losses.append(max(-move, 0.0))
        terms.trs.append(max(cur.high - cur.low, abs(cur.high - prev.close), abs(cur.low - prev.close)))
        terms.plus_dms.append(up_move if (up_move > down_move and up_move > 0) else 0.0)
        terms.minus_dms.append(down_move if (down_move > up_move and down_move > 0) else 0.0)
    return terms


def _wilder_rsi(gains: Sequence[float], losses: Sequence[float], n: int) -> float:
    avg_gain = _wilder_mean(gains, n)
    avg_loss = _wilder_mean(losses, n)
    if avg_loss == 0.0 and avg_gain == 0.0:  # constant prices read as neutral
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    if avg_gain == 0.0:
        return 0.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def _bollinger(closes: Sequence[float], n: int, k: float) -> tuple[float, float, float]:
    """(upper, mid, lower) with mid = the SMA of n closes and bands mid +/- k * population sigma."""
    tail = closes[-n:]
    mid = _sma(tail, n)
    sigma = math.sqrt(math.fsum((c - mid) ** 2 for c in tail) / n)
    return mid + k * sigma, mid, mid - k * sigma


def _vwap(bars: Sequence[Bar], lookback: int) -> tuple[float, float]:
    """(volume-weighted average of the typical prices of the last lookback
    bars, fraction of their closes strictly below it)"""
    tail = bars[-lookback:]
    total_volume = math.fsum(b.volume for b in tail)
    if total_volume <= 0.0:
        raise ZeroVolume("vwap window has zero total volume")
    weighted = math.fsum(((b.high + b.low + b.close) / 3.0) * b.volume for b in tail)
    value = weighted / total_volume
    below = sum(1 for b in tail if b.close < value)
    return value, below / lookback


def _wilder_adx(trs: Sequence[float], plus_dms: Sequence[float], minus_dms: Sequence[float], n: int) -> float:
    """Wilder's ADX over 2n or more pairs: n pairs seed the smoothed TR/DM sums,
    and n DX values seed the average. Raises DegenerateRange when the
    smoothed true range is zero (flat OHLC), since direction strength is
    undefined there. With one DI zero, DX is 100 * DI / DI, which can round
    to just above 100, so the average is capped at 100."""
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
    return min(_wilder_mean(dxs, n), 100.0)


def snapshot(bars: Sequence[Bar], params: IndicatorParams, terms: PairTerms) -> IndicatorSnapshot:
    """Compute the full indicator set for the window's last date.

    `terms` are the window's pair terms: `pair_terms(bars)`, or a longer
    run's terms cut to the window with `PairTerms.window`. No gauge is
    computed twice: EMA is MACD's fast average when their windows agree,
    and SMA Bollinger's mid.

    A flat window makes ADX degenerate; the snapshot substitutes adx=0 and
    sets adx_degenerate so callers can tell a real zero from a flat fixture.
    A gauge that overflows or is not finite raises InvariantViolation, and a
    VWAP window with no volume ZeroVolume, each naming the window's last date.
    """
    need = params.min_window()
    if len(bars) < need:
        binding = max(params.window_requirements().items(), key=lambda kv: kv[1])[0]
        raise WindowTooShort(
            f"snapshot needs {need} bars (binding indicator: {binding}), got {len(bars)}"
            + (f" up to {bars[-1].date}" if bars else "")
        )
    day = bars[-1].date
    closes = [b.close for b in bars]
    try:
        fast_series = _ema_series(closes, params.macd_fast)
        macd_series = [f - s for f, s in zip(fast_series, _ema_series(closes, params.macd_slow))]
        line = macd_series[-1]
        signal_line = _ema_series(macd_series, params.macd_signal)[-1]
        upper, mid, lower = _bollinger(closes, params.bb_window, params.bb_k)
        vw, pct_below = _vwap(bars, params.vwap_lookback)
        try:
            adx_value = _wilder_adx(terms.trs, terms.plus_dms, terms.minus_dms, params.adx_window)
            degenerate = False
        except DegenerateRange:
            adx_value = 0.0
            degenerate = True
        return IndicatorSnapshot(
            date=day,
            sma=mid if params.sma_window == params.bb_window else _sma(closes, params.sma_window),
            ema=(fast_series if params.ema_window == params.macd_fast
                 else _ema_series(closes, params.ema_window))[-1],
            macd_line=line,
            macd_signal_line=signal_line,
            macd_hist=line - signal_line,
            rsi=_wilder_rsi(terms.gains, terms.losses, params.rsi_window),
            bb_upper=upper,
            bb_mid=mid,
            bb_lower=lower,
            vwap=vw,
            pct_below_vwap=pct_below,
            adx=adx_value,
            adx_degenerate=degenerate,
        )
    except OverflowError:  # math.fsum, or the squares in bollinger
        raise InvariantViolation(f"{day}: a gauge overflows the float range") from None
    except ZeroVolume as exc:
        raise ZeroVolume(f"{day}: {exc}") from None
