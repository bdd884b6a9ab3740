"""No record reads an input dated after its marking bar.

Day t's record may read its window's inputs and the bar that marks it (the
next close); anything later is the future. Each cut perturbs every input
dated after day t's marking bar, keeping each value valid, and requires every
record through day t, and the weekly record right after it, to stay byte for
byte as it was. Perturbing from the marking bar on must leave day t's three
deciding prompts as they were. Only entries are compared: the header's
`dataset_digest` covers the whole dataset by design. The records are taken
lazily from `run_records`, so a cut pays for no later day.
"""

import dataclasses
import itertools
import random
from datetime import date

import pytest

from btagents.agents import ScriptedResponder
from btagents.journal import canonical_json
from btagents.market_data import MarketDataset, NewsItem
from btagents.orchestrator import RunConfig, run_backtest, run_records

from conftest import scripted_plan, synth_dataset
from test_simulation_core import FEEDBACK_TOGGLES

WARMUP, N_DAYS = 32, 28
CUTS = range(0, 25, 3)
DECIDING = ("quants", "signals", "decision")


def perturbed(dataset, after, seed):
    """`dataset` with every input of each record dated after `after` changed:
    prices scaled by U(0.8, 1.2), Fear & Greed shifted, the social score
    negated, the on-chain counts and volume changed and one news item added."""
    rng = random.Random(seed)

    def change(rec):
        if rec.date <= after:
            return rec
        f = rng.uniform(0.8, 1.2)
        bar = rec.bar
        s = rec.sentiment
        return dataclasses.replace(
            rec,
            bar=dataclasses.replace(bar, open=bar.open * f, high=bar.high * f, low=bar.low * f, close=bar.close * f),
            onchain=dataclasses.replace(
                rec.onchain,
                tx_count=rec.onchain.tx_count + 4321,
                active_addresses=rec.onchain.active_addresses + 1234,
                transfer_volume_usd=rec.onchain.transfer_volume_usd * 1.5,
            ),
            sentiment=dataclasses.replace(
                s, social_score_mean=-s.social_score_mean, fgi_value=(s.fgi_value + 37) % 101, fgi_label="Shifted"
            ),
            news=(*rec.news, NewsItem(rec.date, "Reuters", f"Late wire of {rec.date}", "Not known before.")),
        )

    return MarketDataset(tuple(change(rec) for rec in dataset.records))


@pytest.fixture(scope="module")
def base():
    dataset = synth_dataset(WARMUP + N_DAYS + 2, seed=3)
    days = dataset.dates[WARMUP : WARMUP + N_DAYS]
    return dataset, days, scripted_plan(days)


@pytest.fixture(scope="module")
def reference(base):
    """Each feedback toggle's config and its run's entries."""
    dataset, days, plan = base
    out = {}
    for daily, weekly in FEEDBACK_TOGGLES:
        config = RunConfig(start=days[0], end=days[-1], daily_feedback=daily, weekly_feedback=weekly)
        out[daily, weekly] = config, run_backtest(config, dataset, ScriptedResponder(plan)).entries
    return out


def entries_through(config, dataset, plan, t):
    """A run's entries through day t's record and the weekly record right after it, if any."""
    n = t + 1 + ((t + 1) // 7 if config.weekly_feedback else 0)
    return list(itertools.islice(run_records(config, dataset, ScriptedResponder(plan)), 1, 1 + n))


def day_record(entries, t):
    return next(e for e in entries if e["type"] == "day" and e["seq"] == t)


def prompts(day):
    return {role: (day["roles"][role]["system"], day["roles"][role]["user"]) for role in DECIDING}


@pytest.mark.parametrize("t", CUTS)
@pytest.mark.parametrize("toggles", FEEDBACK_TOGGLES, ids=lambda t: f"daily={t[0]}-weekly={t[1]}")
def test_no_record_reads_past_its_marking_bar(base, reference, toggles, t):
    dataset, _, plan = base
    config, entries = reference[toggles]
    marked = date.fromisoformat(day_record(entries, t)["next_date"])
    got = entries_through(config, perturbed(dataset, marked, seed=t), plan, t)
    want = entries[: len(got)]
    assert got[-1]["type"] == ("weekly" if config.weekly_feedback and (t + 1) % 7 == 0 else "day")
    assert [canonical_json(e) for e in got] == [canonical_json(e) for e in want]


@pytest.mark.parametrize("t", CUTS)
@pytest.mark.parametrize("toggles", FEEDBACK_TOGGLES, ids=lambda t: f"daily={t[0]}-weekly={t[1]}")
def test_no_prompt_reads_its_marking_bar(base, reference, toggles, t):
    dataset, days, plan = base
    config, entries = reference[toggles]
    got = entries_through(config, perturbed(dataset, days[t], seed=t), plan, t)
    day, want = day_record(got, t), day_record(entries, t)
    assert day["next_close"] != want["next_close"]  # the perturbation reached the run
    assert prompts(day) == prompts(want)
