import dataclasses
import random
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from btagents.agents import build_quants_prompt, onchain_row, price_row

from btagents.errors import ConfigError, InvariantViolation, WindowTooShort, ZeroVolume
from btagents.indicators import IndicatorParams, pair_terms, snapshot
from btagents.market_data import Bar, OnChainDaily

from conftest import bars_from_closes, quants_rows, random_bars
from oracles import (
    oracle_adx,
    oracle_bollinger,
    oracle_ema,
    oracle_macd,
    oracle_rsi,
    oracle_sma,
    oracle_vwap,
    window_adx,
    window_bollinger,
    window_chain_rows,
    window_ema,
    window_macd,
    window_price_rows,
    window_rsi,
    window_sma,
    window_snapshot,
    window_vwap,
)

# the IndicatorParams fields that count bars
WINDOWS = (
    "sma_window", "ema_window", "rsi_window", "bb_window", "adx_window",
    "macd_fast", "macd_slow", "macd_signal", "vwap_lookback",
)


def mk_bar(d, o, h, lo, c, v=10.0):
    return Bar(date=d, open=o, high=h, low=lo, close=c, volume=v)


# the least windows: every window 1 but MACD's slow one 2, so 3 bars (ADX's
# need) make a whole window; a test widens the window of the gauge it checks
LEAST = dict(
    sma_window=1, ema_window=1, rsi_window=1, bb_window=1, adx_window=1,
    macd_fast=1, macd_slow=2, macd_signal=1, vwap_lookback=1,
)


def gauges(bars, params=IndicatorParams()):
    return snapshot(bars, params, pair_terms(bars))


def least(**windows):
    return IndicatorParams(**{**LEAST, **windows})


def close_gauges(closes, params=IndicatorParams()):
    return gauges(bars_from_closes(closes), params)


class TestSma:
    # bb_window differs from sma_window, so SMA is not Bollinger's mid
    def test_constant(self):
        assert close_gauges([10.0, 10.0, 10.0], least(sma_window=3)).sma == 10.0

    def test_hand_value(self):
        assert close_gauges([1.0, 2.0, 3.0, 4.0], least(sma_window=2, bb_window=3)).sma == 3.5

    def test_matches_oracle(self):
        rng = random.Random(1)
        closes = [rng.uniform(50, 150) for _ in range(50)]
        got = close_gauges(closes, IndicatorParams(sma_window=14)).sma
        assert got == pytest.approx(oracle_sma(closes, 14), abs=1e-9)


class TestEma:
    # macd_fast differs from ema_window, so EMA is not MACD's fast average
    def test_constant_fixed_point(self):
        assert close_gauges([7.5] * 20, least(ema_window=12)).ema == pytest.approx(7.5, abs=1e-12)

    def test_alpha_one_passthrough(self):
        assert close_gauges([5.0, 1.0, 10.0], least(macd_fast=2, macd_slow=3)).ema == 10.0

    def test_matches_oracle(self):
        rng = random.Random(2)
        closes = [rng.uniform(50, 150) for _ in range(40)]
        got = close_gauges(closes, IndicatorParams(macd_fast=5)).ema
        assert got == pytest.approx(oracle_ema(closes, 12), abs=1e-9)


def macd_of(snap):
    return snap.macd_line, snap.macd_signal_line, snap.macd_hist


class TestMacd:
    def test_constant_zero(self):
        line, signal, hist = macd_of(close_gauges([42.0] * 30))
        assert line == pytest.approx(0.0, abs=1e-12)
        assert signal == pytest.approx(0.0, abs=1e-12)
        assert hist == pytest.approx(0.0, abs=1e-12)

    def test_increasing_line_positive(self):
        closes = [100.0 + 2.0 * i for i in range(40)]
        assert close_gauges(closes).macd_line > 0

    def test_hist_is_line_minus_signal(self):
        rng = random.Random(3)
        closes = [rng.uniform(80, 120) for _ in range(60)]
        line, signal, hist = macd_of(close_gauges(closes))
        assert hist == line - signal

    def test_matches_composed_oracle(self):
        rng = random.Random(4)
        closes = [rng.uniform(50, 150) for _ in range(60)]
        got = macd_of(close_gauges(closes))
        want = oracle_macd(closes, 12, 26, 9)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)


class TestRsi:
    def test_all_gains(self):
        closes = [100.0 + i for i in range(15)]
        assert close_gauges(closes, least(rsi_window=14)).rsi == 100.0

    def test_all_losses(self):
        closes = [100.0 - i for i in range(15)]
        assert close_gauges(closes, least(rsi_window=14)).rsi == 0.0

    def test_constant_reads_neutral(self):
        assert close_gauges([50.0] * 20, least(rsi_window=14)).rsi == 50.0

    def test_matches_oracle(self):
        rng = random.Random(5)
        closes = [rng.uniform(50, 150) for _ in range(60)]
        assert close_gauges(closes).rsi == pytest.approx(oracle_rsi(closes, 14), abs=1e-9)

    def test_depends_only_on_differences(self):
        # integer closes and shift keep the difference sequence bit-identical
        rng = random.Random(6)
        closes = [float(rng.randint(100, 200)) for _ in range(30)]
        shifted = [c + 1000.0 for c in closes]
        assert close_gauges(closes).rsi == close_gauges(shifted).rsi


def bands_of(snap):
    return snap.bb_upper, snap.bb_mid, snap.bb_lower


class TestBollinger:
    def test_constant_collapses(self):
        upper, mid, lower = bands_of(close_gauges([5.0] * 20, least(bb_window=20)))
        assert upper == mid == lower == 5.0

    def test_hand_value(self):
        assert bands_of(close_gauges([2.0, 1.0, 3.0], least(bb_window=2, bb_k=2.0))) == (4.0, 2.0, 0.0)

    def test_matches_oracle(self):
        rng = random.Random(7)
        closes = [rng.uniform(50, 150) for _ in range(40)]
        got = bands_of(close_gauges(closes, IndicatorParams(sma_window=14)))
        want = oracle_bollinger(closes, 20, 2.0)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)

    def test_ordering_always_holds(self):
        rng = random.Random(8)
        for _ in range(50):
            closes = [rng.uniform(1, 1000) for _ in range(25)]
            upper, mid, lower = bands_of(close_gauges(closes, least(bb_window=20, bb_k=rng.uniform(0.5, 3))))
            assert lower <= mid <= upper


# bars before the one under test, in a window whose VWAP reads only the last bar or two
LEAD = [mk_bar(date(2023, 12, 30), 9.0, 10.0, 9.0, 9.5, 5.0), mk_bar(date(2023, 12, 31), 9.0, 10.0, 9.0, 9.5, 5.0)]


class TestVwap:
    def test_single_bar(self):
        bar = mk_bar(date(2024, 1, 1), 9.0, 12.0, 9.0, 9.0, 5.0)
        snap = gauges([*LEAD, bar], least(vwap_lookback=1))
        value, below = snap.vwap, snap.pct_below_vwap
        assert value == (12.0 + 9.0 + 9.0) / 3.0
        assert below in (0.0, 1.0)
        assert below == (1.0 if bar.close < value else 0.0)

    def test_equal_volume_average(self):
        bars = [
            mk_bar(date(2024, 1, 1), 9.0, 12.0, 9.0, 9.0, 5.0),    # typical 10
            mk_bar(date(2024, 1, 2), 18.0, 24.0, 18.0, 18.0, 5.0),  # typical 20
        ]
        assert gauges([LEAD[-1], *bars], least(vwap_lookback=2)).vwap == pytest.approx(15.0, abs=1e-12)

    def test_zero_volume(self):
        bars = [*LEAD, mk_bar(date(2024, 1, 1), 9.0, 12.0, 9.0, 9.0, 0.0)]
        with pytest.raises(ZeroVolume):
            gauges(bars, least(vwap_lookback=1))

    def test_matches_oracle(self):
        rng = random.Random(9)
        bars = random_bars(rng, 30)
        snap = gauges(bars, IndicatorParams(vwap_lookback=30))
        want_v, want_p = oracle_vwap(bars, 30)
        assert snap.vwap == pytest.approx(want_v, abs=1e-9)
        assert snap.pct_below_vwap == want_p


class TestAdx:
    def test_flat_bars_degenerate(self):
        bars = [mk_bar(date(2024, 1, 1 + i), 10.0, 10.0, 10.0, 10.0) for i in range(29)]
        snap = gauges(bars)
        assert snap.adx_degenerate is True and snap.adx == 0.0

    def test_pure_trend_saturates(self):
        # every low above the prior high: -DM is always zero, DX pegs at 100
        bars = []
        for i in range(29):
            c = 100.0 + 2.0 * i
            bars.append(mk_bar(date(2024, 1, 1 + i), c - 0.2, c + 0.5, c - 0.5, c))
        assert gauges(bars).adx >= 99.0

    def test_one_sided_trend_reads_100(self):
        # no down move in 40 bars: each DX is 100 * +DI / +DI, which on this
        # slope rounds to just above 100
        bars = [
            mk_bar(date(2024, 1, 1) + timedelta(days=i), 100.0 + 18.5 * i, 100.5 + 18.5 * i,
                   99.5 + 18.5 * i, 100.1 + 18.5 * i)
            for i in range(40)
        ]
        assert gauges(bars).adx == 100.0

    def test_bounds(self):
        rng = random.Random(10)
        for _ in range(30):
            bars = random_bars(rng, 40)
            value = gauges(bars).adx
            assert 0.0 <= value <= 100.0

    def test_matches_oracle(self):
        rng = random.Random(11)
        bars = random_bars(rng, 100)
        assert gauges(bars).adx == pytest.approx(oracle_adx(bars, 14), abs=1e-6)


class TestSnapshot:
    def test_fields_match_the_per_window_ops(self):
        rng = random.Random(12)
        bars = random_bars(rng, 40)
        closes = [b.close for b in bars]
        snap = gauges(bars)
        assert snap.sma == window_sma(closes, 20)
        assert snap.ema == window_ema(closes, 12)
        assert macd_of(snap) == window_macd(closes, 12, 26, 9)
        assert snap.rsi == window_rsi(closes, 14)
        assert bands_of(snap) == window_bollinger(closes, 20, 2.0)
        assert (snap.vwap, snap.pct_below_vwap) == window_vwap(bars, 10)
        assert snap.adx == window_adx(bars, 14)
        assert snap.date == bars[-1].date

    @pytest.mark.parametrize(
        "gauge, windows",
        [
            ("sma", {"sma_window": 10}),
            ("macd", {"macd_slow": 10}),
            ("rsi", {"rsi_window": 9}),
            ("bollinger", {"bb_window": 10}),
            ("vwap", {"vwap_lookback": 10}),
            ("adx", {"adx_window": 5}),
        ],
    )
    def test_window_one_bar_short_names_its_binding_gauge(self, gauge, windows):
        params = least(**windows)
        need = params.min_window()
        bars = bars_from_closes([100.0 + i for i in range(need)])
        gauges(bars, params)
        with pytest.raises(WindowTooShort) as exc:
            gauges(bars[1:], params)
        assert str(exc.value) == (
            f"snapshot needs {need} bars (binding indicator: {gauge}), got {need - 1} up to {bars[-1].date}"
        )

    def test_constant_window_handles_degenerate_range(self):
        bars = [mk_bar(date(2024, 1, 1 + i), 10.0, 10.0, 10.0, 10.0, 3.0) for i in range(30)]
        snap = snapshot(bars, IndicatorParams(), pair_terms(bars))
        assert snap.macd_hist == 0.0
        assert snap.bb_upper == snap.bb_mid == snap.bb_lower == 10.0
        assert snap.adx == 0.0
        assert snap.adx_degenerate is True

    def test_short_window_names_binding_indicator(self):
        bars = bars_from_closes([100.0 + i for i in range(25)])
        with pytest.raises(WindowTooShort) as exc:
            snapshot(bars, IndicatorParams(), pair_terms(bars))
        assert "adx" in str(exc.value)

    @pytest.mark.parametrize(
        "close, price, volume, message",
        [
            (1e200, 1.0, 1.0, "overflows"),  # a square in bollinger
            (1.0, 1.0, 1e308, "overflows"),  # fsum of the vwap volumes
            (1.0, 1e10, 1e300, "vwap is inf"),  # each typical price times volume
        ],
    )
    def test_gauge_out_of_float_range_names_the_date(self, close, price, volume, message):
        bars = bars_from_closes([price] * 29 + [close], volumes=[volume] * 30)
        with pytest.raises(InvariantViolation, match=f"^{bars[-1].date}: .*{message}"):
            snapshot(bars, IndicatorParams(), pair_terms(bars))

    def test_zero_volume_names_the_date(self):
        bars = bars_from_closes([100.0 + i for i in range(30)], volumes=[0.0] * 30)
        with pytest.raises(ZeroVolume, match=f"^{bars[-1].date}: "):
            snapshot(bars, IndicatorParams(), pair_terms(bars))

    def test_macd_slow_must_exceed_fast(self):
        with pytest.raises(ConfigError):
            IndicatorParams(macd_fast=26, macd_slow=12)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"bb_k": float("nan")}, "config key 'bb_k' must be finite and > 0"),
            ({"bb_k": float("inf")}, "config key 'bb_k' must be finite and > 0"),
            ({"bb_k": 0.0}, "config key 'bb_k' must be finite and > 0"),
            ({"bb_k": -2.0}, "config key 'bb_k' must be finite and > 0"),
            ({"rsi_window": float("nan")}, "config key 'rsi_window' must be >= 1"),
            ({"macd_fast": 12, "macd_slow": 12}, "config key 'macd_fast' must be < macd_slow"),
            *[({name: 0}, f"config key '{name}' must be >= 1") for name in WINDOWS],
        ],
        ids=[
            "nan-bb-k", "inf-bb-k", "zero-bb-k", "negative-bb-k", "nan-window", "equal-macd",
            *[f"zero-{name}" for name in WINDOWS],
        ],
    )
    def test_bad_value_names_its_key(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            IndicatorParams(**kwargs)

    def test_least_values_are_accepted(self):
        params = IndicatorParams(**{**{name: 1 for name in WINDOWS}, "macd_slow": 2}, bb_k=1e-9)
        assert params.min_window() == 3  # adx needs 2 * adx_window + 1 bars


# the default windows, where SMA is Bollinger's mid and EMA MACD's fast
# average, and windows where each has its own
PROPERTY_PARAMS = [IndicatorParams(), IndicatorParams(sma_window=15, ema_window=9)]


class TestProperties:
    @pytest.mark.parametrize("params", PROPERTY_PARAMS, ids=["shared", "own"])
    def test_scale_equivariance(self, params):
        rng = random.Random(13)
        bars = random_bars(rng, 40)
        c = 3.7
        scaled = [
            Bar(
                date=b.date,
                open=b.open * c,
                high=b.high * c,
                low=b.low * c,
                close=b.close * c,
                volume=b.volume,
            )
            for b in bars
        ]
        snap, scaled_snap = gauges(bars, params), gauges(scaled, params)
        assert scaled_snap.sma == pytest.approx(c * snap.sma, rel=1e-9)
        assert scaled_snap.ema == pytest.approx(c * snap.ema, rel=1e-9)
        for got, want in zip(macd_of(scaled_snap), macd_of(snap)):
            assert got == pytest.approx(c * want, rel=1e-9, abs=1e-9)
        assert scaled_snap.rsi == pytest.approx(snap.rsi, rel=1e-9)
        assert scaled_snap.adx == pytest.approx(snap.adx, rel=1e-9)
        assert scaled_snap.vwap == pytest.approx(c * snap.vwap, rel=1e-9)
        assert scaled_snap.pct_below_vwap == snap.pct_below_vwap
        for got, want in zip(bands_of(scaled_snap), bands_of(snap)):
            assert got == pytest.approx(c * want, rel=1e-9)

    @pytest.mark.parametrize("params", PROPERTY_PARAMS, ids=["shared", "own"])
    def test_shift_moves_price_level_indicators(self, params):
        rng = random.Random(14)
        closes = [float(rng.randint(100, 200)) for _ in range(40)]
        shift = 500.0
        snap, shifted = close_gauges(closes, params), close_gauges([c + shift for c in closes], params)
        assert shifted.sma == pytest.approx(snap.sma + shift, abs=1e-9)
        assert shifted.ema == pytest.approx(snap.ema + shift, abs=1e-9)
        up, mid, lo = bands_of(snap)
        assert bands_of(shifted) == pytest.approx((up + shift, mid + shift, lo + shift), abs=1e-9)
        # rsi depends only on close-to-close differences
        assert shifted.rsi == snap.rsi

    def test_rsi_and_adx_bounds_random(self):
        rng = random.Random(15)
        for _ in range(50):
            closes = [rng.uniform(10, 1000) for _ in range(20)]
            assert 0.0 <= close_gauges(closes, least(rsi_window=14)).rsi <= 100.0


# A bar series is drawn as segments, each (kind, bars, step, spread, volume)
# in price units of a quarter, then scaled: "flat" bars have open = high =
# low = close at the last close (a zero true range), "up" and "down" move the
# close by `step` quarters a bar, "walk" by a step drawn per bar.
SEGMENT = st.tuples(
    st.sampled_from(["flat", "up", "down", "walk"]),
    st.integers(1, 30),
    st.integers(1, 12),
    st.sampled_from([0, 1, 4]),
    st.sampled_from([0.0, -0.0, 7.5]) | st.floats(0.001, 1e6),
)
# 1.5e306 and 1e300 make fsum or bollinger's squares overflow the float range
SCALES = st.sampled_from([1.0, 1.0, 1e-3, 1e300, 1.5e306])


@st.composite
def series_specs(draw):
    n = draw(st.integers(29, 90))
    segments = draw(st.lists(SEGMENT, min_size=1, max_size=8))
    walk = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    return n, segments, walk, draw(SCALES)


def build_series(spec):
    """The bars a series spec draws; segments repeat until there are n bars."""
    n, segments, walk, scale = spec
    level = 200  # quarters, kept within [16, 400]
    bars = []
    day = date(2024, 1, 1)
    while len(bars) < n:
        for kind, count, step, spread, volume in segments:
            for _ in range(count):
                if len(bars) == n:
                    break
                move = {"flat": 0, "up": step, "down": -step, "walk": walk[len(bars)]}[kind]
                spread = 0 if kind == "flat" else spread
                o, c = level, min(400, max(16, level + move))
                level = c
                bars.append(
                    Bar(
                        date=day + timedelta(days=len(bars)),
                        open=o / 4 * scale,
                        high=(max(o, c) + spread) / 4 * scale,
                        low=(min(o, c) - spread) / 4 * scale,
                        close=c / 4 * scale,
                        volume=volume,
                    )
                )
    return bars


@st.composite
def small_params(draw):
    """Short windows, so a 29-bar series holds many whole windows. EMA and
    MACD's fast average, and SMA and Bollinger, share a window in some draws."""
    fast = draw(st.integers(1, 8))
    bb = draw(st.integers(1, 15))
    return IndicatorParams(
        sma_window=bb if draw(st.booleans()) else draw(st.integers(1, 15)),
        ema_window=fast if draw(st.booleans()) else draw(st.integers(1, 12)),
        rsi_window=draw(st.integers(1, 10)),
        bb_window=bb,
        bb_k=draw(st.sampled_from([0.5, 2.0, 3.0])),
        adx_window=draw(st.integers(1, 6)),
        macd_fast=fast,
        macd_slow=draw(st.integers(fast + 1, 12)),
        macd_signal=draw(st.integers(1, 9)),
        vwap_lookback=draw(st.integers(1, 10)),
    )


def outcome(compute):
    """A snapshot's fields, floats as float.hex so -0.0 is told from 0.0, or
    the type and message of what computing it raised."""
    try:
        snap = compute()
    except (WindowTooShort, ZeroVolume, InvariantViolation) as exc:
        return type(exc), str(exc)
    return [
        (f.name, v.hex() if isinstance(v, float) else v)
        for f in dataclasses.fields(snap)
        for v in [getattr(snap, f.name)]
    ]


FLAT = ("flat", 30, 1, 0, 7.5)
GAUGE_BARS = random_bars(random.Random(5), 30)
GAUGES = snapshot(GAUGE_BARS, IndicatorParams(), pair_terms(GAUGE_BARS))  # any will do


class TestSharedTerms:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(spec=series_specs(), params=st.one_of(st.just(IndicatorParams()), small_params()),
           lookback=st.integers(1, 40))
    # a flat series (RSI 50 and no ADX), a rise (RSI 100) and a fall (RSI 0)
    @example(spec=(40, [FLAT], [0] * 40, 1.0), params=IndicatorParams(), lookback=30)
    @example(spec=(40, [("up", 40, 2, 1, 7.5)], [0] * 40, 1.0), params=IndicatorParams(), lookback=30)
    @example(spec=(40, [("down", 40, 1, 1, 7.5)], [0] * 40, 1.0), params=IndicatorParams(), lookback=30)
    def test_every_window_matches_the_per_window_oracle(self, spec, params, lookback):
        """Each window's snapshot from the run's shared pair terms, and from
        the terms of its own bars alone, equals the per-window oracle's bit
        for bit, or raises the same error with the same message."""
        bars = build_series(spec)
        terms = pair_terms(bars)
        for stop in range(1, len(bars) + 1):
            start = max(0, stop - lookback)
            window = bars[start:stop]
            want = outcome(lambda: window_snapshot(window, params))
            assert outcome(lambda: snapshot(window, params, terms.window(start, stop))) == want
            assert outcome(lambda: snapshot(window, params, pair_terms(window))) == want

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(spec=series_specs(), lookback=st.integers(1, 40),
           transfer=st.sampled_from([0.0, -0.0, 0.5, 1.5, 2.5e10]) | st.floats(0, 1e15))
    @example(spec=(29, [("walk", 29, 1, 1, -0.0)], [1, -1] * 15, 1.0), lookback=30, transfer=-0.0)
    def test_rows_match_the_per_window_oracle(self, spec, lookback, transfer):
        """Rows rendered once per record and sliced per window are the lines
        the per-window oracle renders, and make the same quants prompt as
        rows rendered from the window's own bars."""
        bars = build_series(spec)
        chain = [
            OnChainDaily(date=b.date, tx_count=i * 997, active_addresses=i, transfer_volume_usd=transfer * i)
            for i, b in enumerate(bars)
        ]
        price_lines = [price_row(b) for b in bars]
        chain_lines = [onchain_row(o) for o in chain]
        for stop in range(1, len(bars) + 1):
            start = max(0, stop - lookback)
            rows = price_lines[start:stop], chain_lines[start:stop]
            assert rows[0][-10:] == window_price_rows(bars[start:stop])
            assert rows[1][-5:] == window_chain_rows(chain[start:stop])
            window = bars[start:stop]
            snap = dataclasses.replace(GAUGES, date=window[-1].date)
            own_rows = quants_rows(window, chain[start:stop])
            assert build_quants_prompt(window, snap, rows) == build_quants_prompt(window, snap, own_rows)

