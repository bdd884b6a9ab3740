"""Evaluation quantities: returns, Sharpe, prediction accuracy, regret.

The Sharpe convention throughout is mean daily return over sample standard
deviation, risk-free rate zero, not annualized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import LengthMismatch, NonPositiveValue, ZeroDispersion


def daily_returns(values: Sequence[float]) -> list[float]:
    """Simple returns r_t = V_t / V_{t-1} - 1, one per value after the first."""
    if len(values) < 2:
        raise ValueError("need at least two values")
    if any(v <= 0 for v in values):
        raise NonPositiveValue("values must be > 0")
    return [cur / prev - 1.0 for prev, cur in zip(values, values[1:])]


def total_return(returns: Sequence[float]) -> float:
    """Compounded return: product of (1 + r_t) minus 1."""
    acc = 1.0
    for r in returns:
        acc *= 1.0 + r
    return acc - 1.0


def mean_std(returns: Sequence[float]) -> tuple[float, float]:
    """(mean, sample standard deviation) of a return series."""
    n = len(returns)
    if n < 2:
        raise ZeroDispersion("need at least two returns for dispersion")
    mu = math.fsum(returns) / n
    var = math.fsum((r - mu) ** 2 for r in returns) / (n - 1)
    return mu, math.sqrt(var)


def sharpe(returns: Sequence[float]) -> float | None:
    """mean(r) / sample_std(r); None for fewer than two returns or all equal."""
    if len(returns) < 2:
        return None
    mu, sigma = mean_std(returns)
    return mu / sigma if sigma > 0.0 else None


def prediction_correct(state: str, realized_return: float, neutral_band: float) -> bool:
    """Scoring rule for one day.

    bullish is right above +band, bearish below -band, neutral inside it.
    `state` is the lowercase market-state string.
    """
    if state == "bullish":
        return realized_return > neutral_band
    if state == "bearish":
        return realized_return < -neutral_band
    if state == "neutral":
        return abs(realized_return) <= neutral_band
    raise ValueError(f"unknown market state {state!r}")


def regret(agent_returns: Sequence[float], baseline_returns: Sequence[float]) -> float:
    """Clamped shortfall of the agent's compounded return versus the baseline's."""
    if len(agent_returns) != len(baseline_returns):
        raise LengthMismatch("agent and baseline return series differ in length")
    return max(0.0, total_return(baseline_returns) - total_return(agent_returns))


@dataclass(frozen=True)
class MetricsRow:
    """One table row: a regime label (or All Periods) for one portfolio."""

    n_days: int
    total_return: float
    mean_daily_pct: float | None
    std_daily_pct: float | None
    sharpe: float | None
    accuracy: float | None
    regret: float | None


def _row(
    returns: Sequence[float],
    hits: Sequence[bool] | None,
    baseline_returns: Sequence[float] | None,
) -> MetricsRow:
    mean_pct = std_pct = None
    if len(returns) >= 2:
        mu, sigma = mean_std(returns)
        mean_pct = 100.0 * mu
        std_pct = 100.0 * sigma
    acc = sum(hits) / len(hits) if hits else None
    reg = None if baseline_returns is None else regret(returns, baseline_returns)
    return MetricsRow(
        n_days=len(returns),
        total_return=total_return(returns),
        mean_daily_pct=mean_pct,
        std_daily_pct=std_pct,
        sharpe=sharpe(returns),
        accuracy=acc,
        regret=reg,
    )


def regime_report(
    returns: Sequence[float],
    labels: Sequence[str] | None = None,
    hits: Sequence[bool] | None = None,
    baseline: Sequence[float] | None = None,
) -> dict[str, MetricsRow]:
    """One row per label: "All Periods" first, then each regime label in the
    order it first occurs.

    `labels` holds each day's regime label, `hits` whether its prediction
    was correct and `baseline` the baseline's return that day; a row's
    accuracy is the share of hits that are true. Days sharing a label are
    concatenated across spans before computing the row, so repeated
    sideways periods report as one line.
    """
    for name, given in (("regime label", labels), ("prediction", hits), ("baseline return", baseline)):
        if given is not None and len(given) != len(returns):
            raise LengthMismatch(f"one {name} per return required")

    groups: dict[str, list[int]] = {"All Periods": list(range(len(returns)))}
    for i, label in enumerate(labels or ()):
        groups.setdefault(label, []).append(i)
    return {
        lab: _row(
            [returns[i] for i in idx],
            [hits[i] for i in idx] if hits is not None else None,
            [baseline[i] for i in idx] if baseline is not None else None,
        )
        for lab, idx in groups.items()
    }
