import json
import math
import random
from datetime import date, timedelta
from pathlib import Path

import pytest

from btagents.agents import ScriptedResponder
from btagents.market_data import (
    Bar,
    NewsItem,
    OnChainDaily,
    SentimentDaily,
    align,
    load_bars,
    load_news,
    load_onchain,
    load_sentiment,
)
from btagents.orchestrator import RunConfig, run_backtest

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "case_study"


def weeklies(journal):
    """The weekly records of a journal, in order."""
    return [e for e in journal.entries if e["type"] == "weekly"]

STATES = ("bullish", "neutral", "bearish")


def bars_from_closes(closes, start_date=date(2024, 1, 1), volumes=None):
    """Well-formed bars around a close path."""
    bars = []
    prev = round(closes[0] * 0.995, 2)
    for i, c in enumerate(closes):
        o = prev
        hi = round(max(o, c) * 1.01, 2)
        lo = round(min(o, c) * 0.99, 2)
        vol = volumes[i] if volumes is not None else 1000.0 + 10.0 * i
        bars.append(
            Bar(
                date=start_date + timedelta(days=i),
                open=o,
                high=hi,
                low=lo,
                close=c,
                volume=vol,
            )
        )
        prev = c
    return bars


def random_bars(rng, n, start_price=100.0, start_date=date(2024, 1, 1)):
    closes = [start_price]
    for _ in range(n - 1):
        closes.append(round(closes[-1] * (1.0 + rng.uniform(-0.03, 0.032)), 6))
    volumes = [rng.uniform(1.0, 100.0) for _ in range(n)]
    return bars_from_closes(closes, start_date, volumes)


def synth_dataset(n_total, start_date=date(2024, 1, 1), seed=3, price_step=None):
    """Aligned dataset with bars, on-chain, sentiment, and sparse news."""
    rng = random.Random(seed)
    closes = [50000.0]
    for i in range(n_total - 1):
        step = price_step(i) if price_step else rng.uniform(-0.015, 0.017)
        closes.append(round(closes[-1] * (1.0 + step), 2))
    bars = bars_from_closes(closes, start_date)
    onchain = [
        OnChainDaily(
            date=b.date,
            tx_count=600000 + (i * 311) % 50000,
            active_addresses=450000 + (i * 173) % 40000,
            transfer_volume_usd=3.0e10 + (i * 9.7e8) % 1.0e10,
        )
        for i, b in enumerate(bars)
    ]
    sentiment = [
        SentimentDaily(
            date=b.date,
            social_score_mean=round(0.08 * math.sin(i * 0.7), 4),
            fgi_value=45 + (i * 5) % 30,
            fgi_label="Greed" if 45 + (i * 5) % 30 >= 55 else "Neutral",
        )
        for i, b in enumerate(bars)
    ]
    news = []
    for i, b in enumerate(bars):
        if i % 3 == 0:
            news.append(
                NewsItem(
                    date=b.date,
                    source="CNBC",
                    headline=f"Desk note {i}: market balance shifting",
                    summary="Flows remain orderly.",
                )
            )
    return align(bars, onchain=onchain, sentiment=sentiment, news=news)


def scripted_plan(dates, alloc_plan=None):
    """Deterministic scripted responses with unique per-day markers.

    alloc_plan maps the day index to (quants_pct, signals_pct, decision_pct).
    """
    responses = {}
    for i, d in enumerate(dates):
        iso = d.isoformat()
        if alloc_plan is not None:
            q_pct, s_pct, dec_pct = alloc_plan(i)
        else:
            q_pct = 30 + (i * 7) % 41
            s_pct = 25 + (i * 11) % 51
            dec_pct = 35 + (i * 9) % 31
        q_state = STATES[i % 3]
        s_state = STATES[(i + 1) % 3]
        d_state = STATES[(i + 2) % 3]
        responses[f"quants:{iso}"] = json.dumps(
            {
                "state": q_state,
                "allocation_btc_pct": q_pct,
                "reasoning": f"gauges read {q_state} today; marker RQ-{iso}",
            }
        )
        responses[f"signals:{iso}"] = json.dumps(
            {
                "state": s_state,
                "allocation_btc_pct": s_pct,
                "reasoning": f"coverage flow reads {s_state} today; marker RS-{iso}",
            }
        )
        responses[f"decision:{iso}"] = json.dumps(
            {
                "state": d_state,
                "allocation_btc_pct": dec_pct,
                "reasoning": f"balancing both desks reads {d_state}; marker RD-{iso}",
            }
        )
        responses[f"reflect:{iso}"] = json.dumps(
            {
                "quants": f"technical desk critique after {iso}: sizing matched the gauges; marker FBQ-{iso}",
                "signals": f"mood desk critique after {iso}: story selection was sound; marker FBS-{iso}",
                "decision": f"final desk critique after {iso}: the weighting was explained; marker FBD-{iso}",
            }
        )
    return responses


def run_synth(
    n_days,
    daily=True,
    weekly=True,
    warmup=32,
    seed=3,
    alloc_plan=None,
    price_step=None,
    **config_kwargs,
):
    """Run a scripted synthetic backtest; returns (journal, config, dataset, responder)."""
    dataset = synth_dataset(warmup + n_days + 2, seed=seed, price_step=price_step)
    days = dataset.dates[warmup : warmup + n_days]
    config = RunConfig(
        start=days[0],
        end=days[-1],
        daily_feedback=daily,
        weekly_feedback=weekly,
        **config_kwargs,
    )
    responder = ScriptedResponder(scripted_plan(days, alloc_plan))
    journal = run_backtest(config, dataset, responder)
    return journal, config, dataset, responder


@pytest.fixture(scope="session")
def case_study_dataset():
    return align(
        load_bars(str(FIXTURE_DIR / "bars.csv")),
        onchain=load_onchain(str(FIXTURE_DIR / "onchain.csv")),
        sentiment=load_sentiment(str(FIXTURE_DIR / "sentiment.csv")),
        news=load_news(str(FIXTURE_DIR / "news.csv")),
    )


@pytest.fixture()
def case_study_responder():
    return ScriptedResponder.from_file(str(FIXTURE_DIR / "responses.json"))


@pytest.fixture()
def case_study_config():
    return RunConfig(start=date(2024, 11, 4), end=date(2024, 11, 5))
