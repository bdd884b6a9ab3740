import random
from datetime import date

import pytest

from btagents.errors import ConfigError, DegenerateRange, EmptyWindow, WindowTooShort, ZeroVolume
from btagents.indicators import (
    IndicatorParams,
    adx,
    bollinger,
    ema,
    macd,
    rsi,
    sma,
    snapshot,
    vwap,
)
from btagents.market_data import Bar

from conftest import bars_from_closes, random_bars
from oracles import (
    oracle_adx,
    oracle_bollinger,
    oracle_ema,
    oracle_macd,
    oracle_rsi,
    oracle_sma,
    oracle_vwap,
)

# the IndicatorParams fields that count bars
WINDOWS = (
    "sma_window", "ema_window", "rsi_window", "bb_window", "adx_window",
    "macd_fast", "macd_slow", "macd_signal", "vwap_lookback",
)


def mk_bar(d, o, h, lo, c, v=10.0):
    return Bar(date=d, open=o, high=h, low=lo, close=c, volume=v)


class TestSma:
    def test_constant(self):
        assert sma([10.0, 10.0, 10.0], 3) == 10.0

    def test_hand_value(self):
        assert sma([1.0, 2.0, 3.0, 4.0], 2) == 3.5

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            sma([1.0, 2.0], 3)

    def test_matches_oracle(self):
        rng = random.Random(1)
        closes = [rng.uniform(50, 150) for _ in range(50)]
        assert sma(closes, 14) == pytest.approx(oracle_sma(closes, 14), abs=1e-9)


class TestEma:
    def test_constant_fixed_point(self):
        assert ema([7.5] * 20, 12) == pytest.approx(7.5, abs=1e-12)

    def test_alpha_one_passthrough(self):
        assert ema([0.0, 10.0], 1) == 10.0

    def test_empty(self):
        with pytest.raises(EmptyWindow):
            ema([], 5)

    def test_matches_oracle(self):
        rng = random.Random(2)
        closes = [rng.uniform(50, 150) for _ in range(40)]
        assert ema(closes, 12) == pytest.approx(oracle_ema(closes, 12), abs=1e-9)


class TestMacd:
    def test_constant_zero(self):
        line, signal, hist = macd([42.0] * 30, 12, 26, 9)
        assert line == pytest.approx(0.0, abs=1e-12)
        assert signal == pytest.approx(0.0, abs=1e-12)
        assert hist == pytest.approx(0.0, abs=1e-12)

    def test_increasing_line_positive(self):
        closes = [100.0 + 2.0 * i for i in range(40)]
        line, _, _ = macd(closes)
        assert line > 0

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            macd([1.0] * 25, 12, 26, 9)

    def test_hist_is_line_minus_signal(self):
        rng = random.Random(3)
        closes = [rng.uniform(80, 120) for _ in range(60)]
        line, signal, hist = macd(closes)
        assert hist == line - signal

    def test_matches_composed_oracle(self):
        rng = random.Random(4)
        closes = [rng.uniform(50, 150) for _ in range(60)]
        got = macd(closes, 12, 26, 9)
        want = oracle_macd(closes, 12, 26, 9)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)


class TestRsi:
    def test_all_gains(self):
        closes = [100.0 + i for i in range(15)]
        assert rsi(closes, 14) == 100.0

    def test_all_losses(self):
        closes = [100.0 - i for i in range(15)]
        assert rsi(closes, 14) == 0.0

    def test_constant_reads_neutral(self):
        assert rsi([50.0] * 20, 14) == 50.0

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            rsi([1.0] * 14, 14)

    def test_matches_oracle(self):
        rng = random.Random(5)
        closes = [rng.uniform(50, 150) for _ in range(60)]
        assert rsi(closes, 14) == pytest.approx(oracle_rsi(closes, 14), abs=1e-9)

    def test_depends_only_on_differences(self):
        # integer closes and shift keep the difference sequence bit-identical
        rng = random.Random(6)
        closes = [float(rng.randint(100, 200)) for _ in range(30)]
        shifted = [c + 1000.0 for c in closes]
        assert rsi(closes, 14) == rsi(shifted, 14)


class TestBollinger:
    def test_constant_collapses(self):
        upper, mid, lower = bollinger([5.0] * 20, 20, 2.0)
        assert upper == mid == lower == 5.0

    def test_hand_value(self):
        assert bollinger([1.0, 3.0], 2, 2.0) == (4.0, 2.0, 0.0)

    def test_matches_oracle(self):
        rng = random.Random(7)
        closes = [rng.uniform(50, 150) for _ in range(40)]
        got = bollinger(closes, 20, 2.0)
        want = oracle_bollinger(closes, 20, 2.0)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)

    def test_ordering_always_holds(self):
        rng = random.Random(8)
        for _ in range(50):
            closes = [rng.uniform(1, 1000) for _ in range(25)]
            upper, mid, lower = bollinger(closes, 20, rng.uniform(0.5, 3))
            assert lower <= mid <= upper


class TestVwap:
    def test_single_bar(self):
        bar = mk_bar(date(2024, 1, 1), 9.0, 12.0, 9.0, 9.0, 5.0)
        value, below = vwap([bar], 1)
        assert value == (12.0 + 9.0 + 9.0) / 3.0
        assert below in (0.0, 1.0)
        assert below == (1.0 if bar.close < value else 0.0)

    def test_equal_volume_average(self):
        bars = [
            mk_bar(date(2024, 1, 1), 9.0, 12.0, 9.0, 9.0, 5.0),    # typical 10
            mk_bar(date(2024, 1, 2), 18.0, 24.0, 18.0, 18.0, 5.0),  # typical 20
        ]
        value, _ = vwap(bars, 2)
        assert value == pytest.approx(15.0, abs=1e-12)

    def test_zero_volume(self):
        bars = [mk_bar(date(2024, 1, 1), 9.0, 12.0, 9.0, 9.0, 0.0)]
        with pytest.raises(ZeroVolume):
            vwap(bars, 1)

    def test_matches_oracle(self):
        rng = random.Random(9)
        bars = random_bars(rng, 30)
        got_v, got_p = vwap(bars, 30)
        want_v, want_p = oracle_vwap(bars, 30)
        assert got_v == pytest.approx(want_v, abs=1e-9)
        assert got_p == want_p


class TestAdx:
    def test_flat_bars_degenerate(self):
        bars = [mk_bar(date(2024, 1, 1 + i), 10.0, 10.0, 10.0, 10.0) for i in range(29)]
        with pytest.raises(DegenerateRange):
            adx(bars, 14)

    def test_pure_trend_saturates(self):
        # every low above the prior high: -DM is always zero, DX pegs at 100
        bars = []
        for i in range(29):
            c = 100.0 + 2.0 * i
            bars.append(mk_bar(date(2024, 1, 1 + i), c - 0.2, c + 0.5, c - 0.5, c))
        assert adx(bars, 14) >= 99.0

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            adx([mk_bar(date(2024, 1, 1), 1, 2, 0.5, 1)] * 28, 14)

    def test_bounds(self):
        rng = random.Random(10)
        for _ in range(30):
            bars = random_bars(rng, 40)
            value = adx(bars, 14)
            assert 0.0 <= value <= 100.0

    def test_matches_oracle(self):
        rng = random.Random(11)
        bars = random_bars(rng, 100)
        assert adx(bars, 14) == pytest.approx(oracle_adx(bars, 14), abs=1e-6)


class TestSnapshot:
    def test_fields_match_standalone_ops(self):
        rng = random.Random(12)
        bars = random_bars(rng, 40)
        closes = [b.close for b in bars]
        params = IndicatorParams()
        snap = snapshot(bars, params)
        line, signal, hist = macd(closes, 12, 26, 9)
        upper, mid, lower = bollinger(closes, 20, 2.0)
        vw, below = vwap(bars, 10)
        assert snap.sma == sma(closes, 20)
        assert snap.ema == ema(closes, 12)
        assert (snap.macd_line, snap.macd_signal_line, snap.macd_hist) == (line, signal, hist)
        assert snap.rsi == rsi(closes, 14)
        assert (snap.bb_upper, snap.bb_mid, snap.bb_lower) == (upper, mid, lower)
        assert (snap.vwap, snap.pct_below_vwap) == (vw, below)
        assert snap.adx == adx(bars, 14)
        assert snap.date == bars[-1].date

    def test_constant_window_handles_degenerate_range(self):
        bars = [mk_bar(date(2024, 1, 1 + i), 10.0, 10.0, 10.0, 10.0, 3.0) for i in range(30)]
        snap = snapshot(bars, IndicatorParams())
        assert snap.macd_hist == 0.0
        assert snap.bb_upper == snap.bb_mid == snap.bb_lower == 10.0
        assert snap.adx == 0.0
        assert snap.adx_degenerate is True

    def test_short_window_names_binding_indicator(self):
        bars = bars_from_closes([100.0 + i for i in range(25)])
        with pytest.raises(WindowTooShort) as exc:
            snapshot(bars, IndicatorParams())
        assert "adx" in str(exc.value)

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


class TestProperties:
    def test_scale_equivariance(self):
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
        closes = [b.close for b in bars]
        scaled_closes = [b.close for b in scaled]
        assert sma(scaled_closes, 20) == pytest.approx(c * sma(closes, 20), rel=1e-9)
        assert ema(scaled_closes, 12) == pytest.approx(c * ema(closes, 12), rel=1e-9)
        for got, want in zip(macd(scaled_closes), macd(closes)):
            assert got == pytest.approx(c * want, rel=1e-9, abs=1e-9)
        assert rsi(scaled_closes, 14) == pytest.approx(rsi(closes, 14), rel=1e-9)
        assert adx(scaled, 14) == pytest.approx(adx(bars, 14), rel=1e-9)
        sv, sp = vwap(scaled, 10)
        v, p = vwap(bars, 10)
        assert sv == pytest.approx(c * v, rel=1e-9)
        assert sp == p
        for got, want in zip(bollinger(scaled_closes, 20, 2.0), bollinger(closes, 20, 2.0)):
            assert got == pytest.approx(c * want, rel=1e-9)

    def test_shift_moves_price_level_indicators(self):
        rng = random.Random(14)
        closes = [float(rng.randint(100, 200)) for _ in range(40)]
        shift = 500.0
        shifted = [c + shift for c in closes]
        assert sma(shifted, 20) == pytest.approx(sma(closes, 20) + shift, abs=1e-9)
        assert ema(shifted, 12) == pytest.approx(ema(closes, 12) + shift, abs=1e-9)
        up, mid, lo = bollinger(closes, 20, 2.0)
        up2, mid2, lo2 = bollinger(shifted, 20, 2.0)
        assert (up2, mid2, lo2) == pytest.approx((up + shift, mid + shift, lo + shift), abs=1e-9)
        # rsi depends only on close-to-close differences
        assert rsi(shifted, 14) == rsi(closes, 14)

    def test_rsi_and_adx_bounds_random(self):
        rng = random.Random(15)
        for _ in range(50):
            closes = [rng.uniform(10, 1000) for _ in range(20)]
            assert 0.0 <= rsi(closes, 14) <= 100.0
