"""Independent brute-force oracles the indicator, metric and scope-check tests check against.

These deliberately recompute everything from scratch (closed-form weights,
explicit loops, no shared helpers with the package) so a bug in the
implementation cannot hide in its own oracle. The reference CSV loader reads
each field by its header name, where the package reads fields by position.
"""

import csv
import hashlib
import json
import math
import re
from datetime import date

from btagents.agents import INDICATOR_TERMS, NEWS_SENTIMENT_TERMS
from btagents.errors import DegenerateRange, InvariantViolation, WindowTooShort, ZeroVolume
from btagents.indicators import IndicatorSnapshot
from btagents.reflection import (
    AGENT_ROLES,
    ALLOCATION_NOUNS,
    ALLOCATION_VERBS,
    SIGNALS_BANNED_TERMS,
)


def oracle_sma(closes, n):
    total = 0.0
    for c in closes[len(closes) - n :]:
        total += c
    return total / n


def oracle_ema(closes, n):
    # closed-form: e_T = (1-a)^T c_0 + a * sum_{t=1..T} (1-a)^(T-t) c_t
    a = 2.0 / (n + 1.0)
    T = len(closes) - 1
    value = (1.0 - a) ** T * closes[0]
    for t in range(1, T + 1):
        value += a * (1.0 - a) ** (T - t) * closes[t]
    return value


def oracle_macd(closes, fast, slow, signal_n):
    macd_series = [
        oracle_ema(closes[: t + 1], fast) - oracle_ema(closes[: t + 1], slow)
        for t in range(len(closes))
    ]
    line = macd_series[-1]
    signal = oracle_ema(macd_series, signal_n)
    return line, signal, line - signal


def oracle_rsi(closes, n):
    ups, downs = [], []
    for i in range(1, len(closes)):
        change = closes[i] - closes[i - 1]
        ups.append(change if change > 0 else 0.0)
        downs.append(-change if change < 0 else 0.0)
    up = sum(ups[:n]) / n
    down = sum(downs[:n]) / n
    for i in range(n, len(ups)):
        up = (up * (n - 1) + ups[i]) / n
        down = (down * (n - 1) + downs[i]) / n
    if up == 0.0 and down == 0.0:
        return 50.0
    if down == 0.0:
        return 100.0
    if up == 0.0:
        return 0.0
    return 100.0 - 100.0 / (1.0 + up / down)


def oracle_bollinger(closes, n, k):
    tail = closes[len(closes) - n :]
    mean = sum(tail) / n
    var = sum((x - mean) * (x - mean) for x in tail) / n
    sd = math.sqrt(var)
    return mean + k * sd, mean, mean - k * sd


def oracle_vwap(bars, lookback):
    tail = bars[len(bars) - lookback :]
    num = 0.0
    den = 0.0
    for b in tail:
        typical = (b.high + b.low + b.close) / 3.0
        num += typical * b.volume
        den += b.volume
    value = num / den
    below = [b for b in tail if b.close < value]
    return value, len(below) / lookback


def oracle_adx(bars, n):
    highs = [b.high for b in bars]
    lows = [b.low for b in bars]
    closes = [b.close for b in bars]
    tr, pdm, mdm = [], [], []
    for i in range(1, len(bars)):
        tr.append(
            max(
                highs[i] - lows[i],
                abs(highs[i] - closes[i - 1]),
                abs(lows[i] - closes[i - 1]),
            )
        )
        up = highs[i] - highs[i - 1]
        down = lows[i - 1] - lows[i]
        pdm.append(up if up > down and up > 0 else 0.0)
        mdm.append(down if down > up and down > 0 else 0.0)

    str_, spdm, smdm = sum(tr[:n]), sum(pdm[:n]), sum(mdm[:n])

    def dx(tr_s, p_s, m_s):
        pdi = 100.0 * p_s / tr_s
        mdi = 100.0 * m_s / tr_s
        if pdi + mdi == 0.0:
            return 0.0
        return 100.0 * abs(pdi - mdi) / (pdi + mdi)

    dxs = [dx(str_, spdm, smdm)]
    for i in range(n, len(tr)):
        str_ = str_ - str_ / n + tr[i]
        spdm = spdm - spdm / n + pdm[i]
        smdm = smdm - smdm / n + mdm[i]
        dxs.append(dx(str_, spdm, smdm))

    adx = sum(dxs[:n]) / n
    for d in dxs[n:]:
        adx = (adx * (n - 1) + d) / n
    return adx


def _oracle_word(term, text):
    # whole word, any case: no ASCII letter, digit or underscore on either side
    pattern = r"(?<![a-z0-9_])" + re.escape(term) + r"(?![a-z0-9_])"
    return re.search(pattern, text, re.IGNORECASE) is not None


def oracle_lint(role, text, upstream_allocations=()):
    """Prompt-lint messages, one regex search per term and per token."""
    if role == "signals":
        return [
            f"signals prompt mentions indicator term '{t}'"
            for t in INDICATOR_TERMS
            if _oracle_word(t, text)
        ]
    if role == "quants":
        return [
            f"quants prompt mentions news/sentiment term '{t}'"
            for t in NEWS_SENTIMENT_TERMS
            if _oracle_word(t, text)
        ]
    if role != "decision":
        return []
    found = []
    for frac in upstream_allocations:
        pct = frac * 100.0
        tokens = {f"{pct:.0f}%", f"{pct:.1f}%", f"{pct:.2f}%", f"{frac:.2f}", f"{frac:.3f}"}
        for token in sorted(tokens):
            if re.search(r"(?<![\d.])" + re.escape(token) + r"(?!\d)", text):
                found.append(f"decision prompt leaks upstream allocation token '{token}'")
    return found


def oracle_input_digests(dataset):
    """The header's `dataset_digest` and each record's `inputs_digest`: the sha256 of
    `json.dumps`'s canonical form of every record's inputs with its date, and of one
    record's inputs alone, each built afresh."""

    def digest(value):
        text = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def inputs(rec):
        bar, chain, mood = rec.bar, rec.onchain, rec.sentiment
        return {
            "bar": [bar.open, bar.high, bar.low, bar.close, bar.volume],
            "onchain": None if chain is None else [chain.tx_count, chain.active_addresses, chain.transfer_volume_usd],
            "sentiment": None if mood is None else [mood.social_score_mean, mood.fgi_value, mood.fgi_label],
            "news": [[n.source, n.headline, n.summary] for n in rec.news],
        }

    dated = [{"date": rec.date.isoformat(), **inputs(rec)} for rec in dataset.records]
    return digest(dated), [digest(inputs(rec)) for rec in dataset.records]


def oracle_scope_filter(feedback):
    """(role, reason) pairs of reflect scope violations, term by term."""
    found = []
    quants = feedback.get("quants", "")
    for term in NEWS_SENTIMENT_TERMS:
        if _oracle_word(term, quants):
            found.append(("quants", f"mentions news/sentiment term '{term}'"))
            break
    signals = feedback.get("signals", "")
    for term in SIGNALS_BANNED_TERMS:
        if _oracle_word(term, signals):
            found.append(("signals", f"mentions indicator term '{term}'"))
            break
    for role in AGENT_ROLES:
        # sentences end at "!", "?", a newline or a "." outside a decimal number
        for sentence in re.split(r"[!?\n]|(?<!\d)\.|\.(?!\d)", feedback.get(role, "")):
            if (
                (
                    re.search(r"\d+(?:\.\d+)?\s*[%\uff05]", sentence)
                    or any(
                        _oracle_word(w, sentence)
                        or re.search(r"\d\s*" + re.escape(w) + r"(?![a-z0-9_])", sentence, re.IGNORECASE)
                        for w in ("percent", "per cent", "per-cent", "pct")
                    )
                )
                and any(_oracle_word(v, sentence) for v in ALLOCATION_VERBS)
                and any(_oracle_word(n, sentence) for n in ALLOCATION_NOUNS)
            ):
                found.append((role, "contains an explicit allocation directive"))
                break
    return found


def oracle_merge_runs(labels, min_span_days):
    """Regime spans as [label, start, end] index runs, by the rescan loop:
    collapse equal neighbours, then absorb the first short span that is not
    last (into the span before it, or the next one when leading), re-join
    equal neighbours and start over."""
    runs = []
    for i, lab in enumerate(labels):
        if runs and runs[-1][0] == lab:
            runs[-1][2] = i
        else:
            runs.append([lab, i, i])
    merged = True
    while merged and len(runs) > 1:
        merged = False
        for idx, run in enumerate(runs[:-1]):
            if run[2] - run[1] + 1 >= min_span_days:
                continue
            if idx == 0:
                runs[1][1] = run[1]
            else:
                runs[idx - 1][2] = run[2]
            del runs[idx]
            j = 0
            while j + 1 < len(runs):
                if runs[j][0] == runs[j + 1][0]:
                    runs[j][2] = runs[j + 1][2]
                    del runs[j + 1]
                else:
                    j += 1
            merged = True
            break
    return runs


# ---------------------------------------------------------------------------
# The gauges and quants-prompt rows as computed window by window, each from
# the window's own bars with nothing shared between windows: the reference
# the shared per-pair terms and per-record rows must reproduce bit for bit.

def window_sma(closes: list, n: int) -> float:
    """Arithmetic mean of the last n closes."""
    if len(closes) < n:
        raise WindowTooShort(f"sma needs {n} closes, got {len(closes)}")
    tail = closes[-n:]
    return math.fsum(tail) / n


def window_ema_series(values: list, n: int) -> list[float]:
    # seeded with the first value, alpha = 2 / (n + 1)
    alpha = 2.0 / (n + 1.0)
    out = [values[0]]
    for v in values[1:]:
        out.append(alpha * v + (1.0 - alpha) * out[-1])
    return out


def window_ema(closes: list, n: int) -> float:
    """Exponential moving average over the whole window, seeded with its first close."""
    return window_ema_series(closes, n)[-1]


def window_macd(
    closes: list, fast: int = 12, slow: int = 26, signal_n: int = 9
) -> tuple[float, float, float]:
    """(macd_line, signal_line, histogram) at the window's last close."""
    if fast >= slow:
        raise ValueError("fast period must be < slow period")
    if len(closes) < slow:
        raise WindowTooShort(f"macd needs {slow} closes, got {len(closes)}")
    fast_series = window_ema_series(closes, fast)
    slow_series = window_ema_series(closes, slow)
    macd_series = [f - s for f, s in zip(fast_series, slow_series)]
    signal_line = window_ema_series(macd_series, signal_n)[-1]
    line = macd_series[-1]
    return line, signal_line, line - signal_line


def window_rsi(closes: list, n: int = 14) -> float:
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


def window_bollinger(closes: list, n: int = 20, k: float = 2.0) -> tuple[float, float, float]:
    """(upper, mid, lower) with mid = sma(n) and bands mid +/- k * population sigma."""
    if len(closes) < n:
        raise WindowTooShort(f"bollinger needs {n} closes, got {len(closes)}")
    tail = closes[-n:]
    mid = math.fsum(tail) / n
    variance = math.fsum((c - mid) ** 2 for c in tail) / n
    sigma = math.sqrt(variance)
    return mid + k * sigma, mid, mid - k * sigma


def window_vwap(bars: list, lookback: int) -> tuple[float, float]:
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


def window_adx(bars: list, n: int = 14) -> float:
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
    return min(value, 100.0)  # a one-sided DX can round to just above 100


def window_snapshot(bars, params):
    """Compute the full indicator set for the window's last date.

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
        line, signal_line, hist = window_macd(closes, params.macd_fast, params.macd_slow, params.macd_signal)
        upper, mid, lower = window_bollinger(closes, params.bb_window, params.bb_k)
        vw, pct_below = window_vwap(bars, params.vwap_lookback)
        try:
            adx_value = window_adx(bars, params.adx_window)
            degenerate = False
        except DegenerateRange:
            adx_value = 0.0
            degenerate = True
        return IndicatorSnapshot(
            date=day,
            sma=window_sma(closes, params.sma_window),
            ema=window_ema(closes, params.ema_window),
            macd_line=line,
            macd_signal_line=signal_line,
            macd_hist=hist,
            rsi=window_rsi(closes, params.rsi_window),
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


def window_price_rows(bars):
    """The quants prompt's price lines for a window: its last 10 bars."""
    return [
        f"{b.date.isoformat()}  open {b.open:.2f}  high {b.high:.2f}  "
        f"low {b.low:.2f}  close {b.close:.2f}  volume {b.volume:.2f}"
        for b in bars[-10:]
    ]


def window_chain_rows(onchain):
    """The quants prompt's chain activity lines for a window: its last 5 days."""
    return [
        f"{o.date.isoformat()}  transactions {o.tx_count}  "
        f"active addresses {o.active_addresses}  transfer volume {o.transfer_volume_usd:,.0f} USD"
        for o in onchain[-5:]
    ]


def _reference_date(cell):
    text = cell.strip()
    return date(int(text[0:4]), int(text[5:7]), int(text[8:10]))


# each input file's columns, by header name, and how a cell is read
REFERENCE_COLUMNS = {
    "bars": {"date": _reference_date, "open": float, "high": float, "low": float, "close": float, "volume": float},
    "onchain": {"date": _reference_date, "tx_count": int, "active_addresses": int, "transfer_volume_usd": float},
    "sentiment": {"date": _reference_date, "social_score_mean": float, "fgi_value": int, "fgi_label": str.strip},
    "news": {"date": _reference_date, "source": str.strip, "headline": str.strip, "summary": str.strip},
}


def reference_load(path, series):
    """A well-formed input file as one {column: value} dict per row, read with
    csv.DictReader: rows whose cells are all blank are skipped and the rest are
    sorted by date, keeping file order within a date."""
    columns = REFERENCE_COLUMNS[series]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [
            {name: read(row[name]) for name, read in columns.items()}
            for row in csv.DictReader(fh)
            if any(cell.strip() for cell in row.values())
        ]
    return sorted(rows, key=lambda row: row["date"])
