"""Independent brute-force oracles the indicator, metric and scope-check tests check against.

These deliberately recompute everything from scratch (closed-form weights,
explicit loops, no shared helpers with the package) so a bug in the
implementation cannot hide in its own oracle.
"""

import math
import re

from btagents.agents import INDICATOR_TERMS, NEWS_SENTIMENT_TERMS
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


def oracle_scope_filter(feedback):
    """(role, reason) pairs of reflect scope violations, term by term."""
    found = []
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
                    or any(_oracle_word(w, sentence) for w in ("percent", "per cent"))
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
