"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import math
import random
import re
import time
from datetime import date, timedelta

import pytest

from btagents.agents import (
    STATE_VALUES,
    build_decision_prompt,
    build_quants_prompt,
    build_signals_prompt,
    lint_bundle,
)
from btagents.indicators import IndicatorParams, pair_terms, snapshot
from btagents.journal import read_journal, write_journal
from btagents.market_data import NewsItem, OnChainDaily, SentimentDaily
from btagents.metrics import mean_std, sharpe
from btagents.orchestrator import outputs_from_journal, replay, run_backtest
from btagents.portfolio import (
    PortfolioState,
    mark,
    rebalance,
)
from btagents.reflection import (
    AGENT_ROLES,
    CORRECTIVE_QUANTS_PHRASE,
    NEUTRAL_PHRASE,
    PRAISE_PHRASE,
    load_weekly_templates,
    scope_filter,
    weekly_feedback,
)
from btagents.regime import RegimeLabel, RegimeParams, segment
from btagents.report import cumrets_csv, render, resolve_segmentation, table_csv

from conftest import bars_from_closes, quants_rows, random_bars, run_synth, weeklies
from oracles import (
    oracle_adx,
    oracle_bollinger,
    oracle_ema,
    oracle_macd,
    oracle_rsi,
    oracle_sma,
    oracle_vwap,
)
from test_agents import SNAPSHOT_FIELD_NAMES
from test_portfolio import settled_baselines
from test_reflection import decision_for, settled_day


def ok(n, text):
    print(f"[acceptance {n:02d}] PASS  {text}")


def test_criterion_01_sharpe_definition():
    started = time.monotonic()
    m, s = 0.0008, 0.01582
    d = s / math.sqrt(2.0)
    returns = [m + d, m - d]
    mu, sigma = mean_std(returns)
    assert mu == pytest.approx(0.0008, abs=1e-15)
    assert sigma == pytest.approx(0.01582, abs=1e-12)
    value = sharpe(returns)
    assert value == pytest.approx(0.0506, abs=5e-5)
    assert abs(value - 0.0504) <= 0.0005
    assert time.monotonic() - started < 1.0
    ok(1, f"sharpe(mean 0.08%, std 1.582%) = {value:.4f}, within 0.0005 of 0.0504")


def test_criterion_02_case_study_replay(
    case_study_dataset, case_study_responder, case_study_config
):
    started = time.monotonic()
    journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
    days = journal.days
    allocations = {
        role: [day["roles"][role]["allocation"] for day in days] for role in AGENT_ROLES
    }
    assert allocations["decision"] == [0.40, 0.55]
    assert allocations["quants"] == [0.35, 0.60]
    assert allocations["signals"] == [0.70, 0.65]
    day1_return = days[0]["roles"]["decision"]["portfolio_return"]
    assert day1_return == pytest.approx(0.4 * 0.0224, abs=1e-9)
    assert time.monotonic() - started < 1.0
    ok(2, "case-study run: decision 40%->55%, quants 35%->60%, signals 70%->65%, "
          f"day-1 decision return {day1_return:.6%}")


def test_criterion_03_indicator_oracle_suite():
    def gauges(bars, params):
        return snapshot(bars, params, pair_terms(bars))

    started = time.monotonic()
    rng = random.Random(71)
    # SMA and EMA on windows of their own, not Bollinger's mid and MACD's fast average
    params = IndicatorParams(sma_window=14, ema_window=12, macd_fast=5)
    for _ in range(1000):
        closes = [rng.uniform(50.0, 150.0) for _ in range(50)]
        snap = gauges(bars_from_closes(closes), params)
        assert snap.sma == pytest.approx(oracle_sma(closes, 14), abs=1e-9)
        assert snap.ema == pytest.approx(oracle_ema(closes, 12), abs=1e-9)
        assert snap.rsi == pytest.approx(oracle_rsi(closes, 14), abs=1e-9)
        bands = (snap.bb_upper, snap.bb_mid, snap.bb_lower)
        for got, want in zip(bands, oracle_bollinger(closes, 20, 2.0)):
            assert got == pytest.approx(want, abs=1e-9)
    for _ in range(1000):
        closes = [rng.uniform(50.0, 150.0) for _ in range(60)]
        snap = gauges(bars_from_closes(closes), IndicatorParams())
        lines = (snap.macd_line, snap.macd_signal_line, snap.macd_hist)
        for got, want in zip(lines, oracle_macd(closes, 12, 26, 9)):
            assert got == pytest.approx(want, abs=1e-9)
    for _ in range(1000):
        bars = random_bars(rng, 30)
        snap = gauges(bars, IndicatorParams(vwap_lookback=30))
        want_v, want_p = oracle_vwap(bars, 30)
        assert snap.vwap == pytest.approx(want_v, abs=1e-9)
        assert snap.pct_below_vwap == want_p
    for _ in range(1000):
        bars = random_bars(rng, 60)
        assert gauges(bars, IndicatorParams()).adx == pytest.approx(oracle_adx(bars, 14), abs=1e-6)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    ok(3, f"7 indicators x 1000 random windows vs brute-force oracles in {elapsed:.2f}s")


def test_criterion_04_accounting_conservation():
    rng = random.Random(72)
    checked = 0
    for _ in range(200):
        price = rng.uniform(100.0, 90_000.0)
        state = PortfolioState.all_cash(rng.uniform(1_000.0, 100_000.0), price)
        for _ in range(50):
            marked = mark(state, price)
            pre_value = marked.value_usd
            state = rebalance(marked, rng.random(), price, 0.0)
            assert state.value_usd == pre_value  # exact, zero fees
            next_price = price * (1.0 + rng.uniform(-0.15, 0.15))
            moved = mark(state, next_price)
            portfolio_return = moved.value_usd / state.value_usd - 1.0
            btc_return = next_price / price - 1.0
            btc_fraction = state.btc_units * price / state.value_usd
            assert abs(portfolio_return - btc_fraction * btc_return) <= 1e-12
            price = next_price
            state = moved
            checked += 1
    assert checked == 10_000
    ok(4, "10,000 zero-fee rebalances: value preserved exactly, "
          "daily return == fraction x BTC return within 1e-12")


CLEAN_REASONS = (
    "flows look orderly into the close",
    "the tape absorbed supply without slipping",
    "coverage stayed constructive all session",
    "positioning remains balanced",
    "the bid thinned late in the day",
)

CLEAN_HEADLINES = (
    "Markets weigh fresh inflows",
    "Institutions keep accumulating",
    "Exchange flows stay balanced",
    "Desks brace for event risk",
)


def test_criterion_05_prompt_scoping():
    rng = random.Random(73)
    base_day = date(2024, 3, 1)
    for i in range(500):
        day = base_day + timedelta(days=i)
        bars = random_bars(rng, 30, start_price=rng.uniform(100.0, 90_000.0),
                           start_date=day - timedelta(days=29))
        snap = snapshot(bars, IndicatorParams(), pair_terms(bars))
        onchain = [
            OnChainDaily(date=b.date, tx_count=rng.randint(0, 10**6),
                         active_addresses=rng.randint(0, 10**6),
                         transfer_volume_usd=rng.uniform(0, 1e11))
            for b in bars[-5:]
        ]
        sentiment = SentimentDaily(
            date=day, social_score_mean=rng.uniform(-1, 1),
            fgi_value=rng.randint(0, 100), fgi_label=rng.choice(["Fear", "Neutral", "Greed"]),
        )
        news = [
            NewsItem(date=day, source=rng.choice(["CNBC", "Forbes"]),
                     headline=rng.choice(CLEAN_HEADLINES), summary="")
            for _ in range(rng.randint(0, 3))
        ]
        quants_bundle = build_quants_prompt(bars, snap, quants_rows(bars, onchain))
        signals_bundle = build_signals_prompt(news, sentiment)
        assert lint_bundle(quants_bundle) == []
        assert lint_bundle(signals_bundle) == []
        signals_text = signals_bundle.system_text + "\n" + signals_bundle.user_text
        for label in SNAPSHOT_FIELD_NAMES:
            assert not re.search(rf"(?<![a-z0-9_]){label}(?![a-z0-9_])", signals_text, re.I)

        upstream = [rng.randint(0, 100) / 100.0, rng.randint(0, 100) / 100.0]
        decision_bundle = build_decision_prompt(
            day,
            {"state": rng.choice(sorted(STATE_VALUES)), "allocation": upstream[0],
             "reasoning": rng.choice(CLEAN_REASONS)},
            {"state": rng.choice(sorted(STATE_VALUES)), "allocation": upstream[1],
             "reasoning": rng.choice(CLEAN_REASONS)},
            portfolio_value=rng.uniform(1_000.0, 100_000.0),
            daily_feedback=rng.choice((None, "yesterday's sizing was defensible")),
        )
        assert lint_bundle(decision_bundle, upstream_allocations=upstream) == []

    violations = scope_filter(
        {"quants": "ok", "signals": "you should incorporate technical indicators", "decision": "ok"}
    )
    assert [v["role"] for v in violations] == ["signals"]
    violations = scope_filter(
        {"quants": "ok", "signals": "ok", "decision": "increase its Bitcoin allocation by 10%"}
    )
    assert [v["role"] for v in violations] == ["decision"]
    ok(5, "500 randomized days lint clean; both scope-violation exemplars rejected")


def two_phase_alloc(i):
    if i < 7:
        return (80, 80, 80)
    if i < 14:
        return (20, 20, 20)
    return (50, 50, 50)


def test_criterion_06_feedback_injection_windows():
    journal_on, config_on, _, _ = run_synth(
        21, weekly=True, alloc_plan=two_phase_alloc, price_step=lambda i: 0.02
    )
    days = journal_on.days
    assert len(days) == 21
    assert len(weeklies(journal_on)) == 3

    # daily feedback from day t shows up in day t+1 prompts and nowhere else
    for t, day in enumerate(days):
        for role, marker_prefix in (("quants", "FBQ"), ("signals", "FBS"), ("decision", "FBD")):
            marker = f"{marker_prefix}-{day['date']}"
            for u, other in enumerate(days):
                assert (marker in other["roles"][role]["user"]) == (u == t + 1)

    # weekly feedback from days 1-7 covers exactly days 8-14
    week1 = weeklies(journal_on)[0]["texts"]
    for i, day in enumerate(days):
        injected = day["weekly_feedback_in"]
        if 7 <= i < 14:
            assert injected == week1
            for role in AGENT_ROLES:
                assert week1[role] in day["roles"][role]["user"]
        else:
            assert injected != week1 or injected == {}
            if i < 7:
                assert injected == {}
                for role in AGENT_ROLES:
                    assert week1[role] not in day["roles"][role]["user"]

    # disabling weekly feedback removes exactly those sections
    journal_off, config_off, _, _ = run_synth(
        21, weekly=False, alloc_plan=two_phase_alloc, price_step=lambda i: 0.02
    )
    from btagents.agents import WEEKLY_FEEDBACK_HEADER

    for day_on, day_off in zip(days, journal_off.days):
        for role in AGENT_ROLES:
            injected = day_on["weekly_feedback_in"].get(role, "")
            text_on = day_on["roles"][role]["user"]
            text_off = day_off["roles"][role]["user"]
            if injected:
                assert text_off == text_on.replace(
                    "\n\n" + WEEKLY_FEEDBACK_HEADER + "\n" + injected, ""
                )
            else:
                assert text_off == text_on

    on_dict, off_dict = config_on.to_dict(), config_off.to_dict()
    assert on_dict.pop("weekly_feedback") != off_dict.pop("weekly_feedback")
    assert on_dict == off_dict  # no quantitative parameter changed
    ok(6, "21-day run: daily feedback lands on t+1 only; weekly block covers days 8-14; "
          "toggle removes sections without touching config values")


def test_criterion_07_deterministic_replay(
    tmp_path, case_study_dataset, case_study_responder, case_study_config
):
    journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
    path = tmp_path / "run.jsonl"
    write_journal(journal, str(path))
    loaded = read_journal(str(path))

    recorded = outputs_from_journal(loaded)
    recomputed = replay(loaded)
    art_recorded = render(recorded, resolve_segmentation(recorded))
    art_recomputed = render(recomputed, resolve_segmentation(recomputed))
    assert art_recomputed.text.encode() == art_recorded.text.encode()
    assert table_csv(art_recomputed) == table_csv(art_recorded)
    assert cumrets_csv(art_recomputed) == cumrets_csv(art_recorded)
    ok(7, "replay(journal) reproduces the report byte-for-byte")


def test_criterion_08_regime_segmentation():
    closes = [100.0] * 60
    for _ in range(80):
        closes.append(round(closes[-1] * 1.01, 6))
    for _ in range(60):
        closes.append(round(closes[-1] * 0.975, 6))
    days = [date(2024, 1, 1) + timedelta(days=i) for i in range(len(closes))]
    params = RegimeParams()
    seg = segment(days, closes, params)
    labels = [s.label for s in seg.spans]
    assert labels == [RegimeLabel.SIDEWAYS, RegimeLabel.BULLISH, RegimeLabel.BEARISH]
    half_ma = params.ma_window // 2
    bull_start = (seg.spans[1].start_date - days[0]).days
    bear_start = (seg.spans[2].start_date - days[0]).days
    assert abs(bull_start - 60) <= half_ma
    assert abs(bear_start - 140) <= half_ma
    for c in (2.0, 0.5, 4.0):
        assert segment(days, [x * c for x in closes], params) == seg
    ok(8, f"three-phase series -> Sideways/Bullish/Bearish at days {bull_start}/{bear_start} "
          "(bounds 60/140 +/- 25); scale-invariant exactly")


def test_criterion_09_template_selection():
    templates = load_weekly_templates()

    def week(agent_daily, baseline_daily):
        days = [
            settled_day(
                date(2024, 5, 1) + timedelta(days=i),
                agent_daily,
                {r: decision_for("bullish", 60) for r in AGENT_ROLES},
                {r: agent_daily for r in AGENT_ROLES},
                baseline_daily,
            )
            for i in range(7)
        ]
        # the paper's thresholds, which are RunConfig's defaults
        return weekly_feedback(days, praise_threshold=0.0, regret_threshold=0.01)

    def text(wf, role):
        return templates[role][wf["kinds"][role]]

    outperform = week(0.02, 0.01)
    assert all(outperform["kinds"][r] == "praise" for r in AGENT_ROLES)
    assert all(PRAISE_PHRASE in text(outperform, r) for r in AGENT_ROLES)

    underperform = week(0.0, 0.01)
    assert underperform["stats"]["quants"]["regret"] > 0.01
    assert all(underperform["kinds"][r] == "corrective" for r in AGENT_ROLES)
    assert CORRECTIVE_QUANTS_PHRASE in text(underperform, "quants")

    near = week(0.01, 0.01)
    assert all(near["kinds"][r] == "neutral" for r in AGENT_ROLES)
    assert all(NEUTRAL_PHRASE in text(near, r) for r in AGENT_ROLES)

    again = week(0.02, 0.01)
    assert again == outperform
    ok(9, "weekly stats select praise/corrective/neutral templates with the "
          "required phrases, deterministically")


def test_criterion_10_baseline_identities():
    rng = random.Random(74)
    for initial in (8192.0, 10_000.0):
        # dyadic price ratios keep every step of the arithmetic exact in floats
        p0 = 32_768.0
        prices = [p0 * (rng.randint(524_288, 2_097_152) / 2**20) for _ in range(200)]
        prices[0] = p0

        # each settled day's baselines, valued at that day's marking close
        for day, price in zip(settled_baselines(initial, prices), prices[1:]):
            bh_total = day["buyhold_value"] / initial - 1.0
            assert bh_total == price / prices[0] - 1.0  # exact

            static_total = day["static5050_value"] / initial - 1.0
            assert static_total == bh_total / 2.0  # exact linearity
    ok(10, "buy-and-hold return == price ratio - 1 and 50/50 return == half of it, "
           "bit-exact on a 200-day fixture")
