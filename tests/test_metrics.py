import math
import random
from datetime import date, timedelta

import pytest

from btagents.errors import LengthMismatch, NonPositiveValue
from btagents.metrics import (
    daily_returns,
    mean_std,
    prediction_correct,
    regime_report,
    regret,
    sharpe,
    total_return,
)
from btagents.regime import RegimeLabel, RegimeSegmentation, RegimeSpan


def dates_for(n, start=date(2024, 1, 2)):
    return [start + timedelta(days=i) for i in range(n)]


class TestDailyReturns:
    def test_ten_percent(self):
        assert daily_returns([100.0, 110.0]) == [pytest.approx(0.10, abs=1e-12)]

    def test_constant_values_zero(self):
        assert daily_returns([50.0] * 4) == [0.0] * 3

    def test_matches_ratio_oracle(self):
        rng = random.Random(41)
        values = [rng.uniform(1_000.0, 50_000.0) for _ in range(80)]
        returns = daily_returns(values)
        assert len(returns) == 79
        for i, r in enumerate(returns):
            assert r == pytest.approx(values[i + 1] / values[i] - 1.0, abs=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveValue):
            daily_returns([100.0, 0.0])


class TestSharpe:
    def test_table_convention_value(self):
        # two-point series with sample mean 0.08% and sample std 1.582%
        m, s = 0.0008, 0.01582
        d = s / math.sqrt(2.0)
        returns = [m + d, m - d]
        mu, sigma = mean_std(returns)
        assert mu == pytest.approx(m, abs=1e-15)
        assert sigma == pytest.approx(s, abs=1e-12)
        value = sharpe(returns)
        assert value == pytest.approx(0.0506, abs=1e-4)
        assert abs(value - 0.0504) <= 0.0005

    def test_constant_returns_have_none(self):
        assert sharpe([0.01] * 10) is None

    @pytest.mark.parametrize("returns", [[], [0.01]])
    def test_fewer_than_two_returns_have_none(self, returns):
        assert sharpe(returns) is None

    def test_hand_series(self):
        returns = [0.01, -0.02, 0.005, 0.03, -0.01]
        n = len(returns)
        mu = sum(returns) / n
        var = sum((r - mu) ** 2 for r in returns) / (n - 1)
        assert sharpe(returns) == pytest.approx(mu / math.sqrt(var), abs=1e-12)

    def test_scale_invariance(self):
        rng = random.Random(42)
        returns = [rng.uniform(-0.05, 0.05) for _ in range(50)]
        assert sharpe([3.0 * r for r in returns]) == pytest.approx(sharpe(returns), rel=1e-9)


class TestPredictionCorrect:
    def test_matches_counting_oracle(self):
        rng = random.Random(43)
        band = 0.005
        for _ in range(100):
            s = rng.choice(["bullish", "bearish", "neutral"])
            r = rng.uniform(-0.03, 0.03)
            if s == "bullish":
                expected = r > band
            elif s == "bearish":
                expected = r < -band
            else:
                expected = abs(r) <= band
            assert prediction_correct(s, r, band) is expected

    def test_band_edges(self):
        assert prediction_correct("neutral", 0.005, 0.005) is True
        assert prediction_correct("bullish", 0.005, 0.005) is False
        assert prediction_correct("bearish", -0.005, 0.005) is False


class TestRegret:
    def test_equal_is_zero(self):
        assert regret([0.05], [0.05]) == 0.0

    def test_shortfall(self):
        assert regret([0.05], [0.08]) == pytest.approx(0.03, abs=1e-12)

    def test_outperformance_clamped(self):
        assert regret([0.10], [0.02]) == 0.0

    def test_always_non_negative(self):
        rng = random.Random(45)
        for _ in range(200):
            a = [rng.uniform(-0.05, 0.05) for _ in range(10)]
            b = [rng.uniform(-0.05, 0.05) for _ in range(10)]
            value = regret(a, b)
            assert value >= 0.0
            if total_return(a) >= total_return(b):
                assert value == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            regret([0.01, 0.02], [0.01])


class TestTotalReturnComposition:
    def test_composes_across_split(self):
        rng = random.Random(46)
        rets = [rng.uniform(-0.04, 0.04) for _ in range(30)]
        for split in (1, 7, 15, 29):
            left = total_return(rets[:split])
            right = total_return(rets[split:])
            assert (1.0 + left) * (1.0 + right) - 1.0 == pytest.approx(
                total_return(rets), abs=1e-9
            )


def single_span_segmentation(dates):
    return RegimeSegmentation(
        spans=(RegimeSpan(dates[0], dates[-1], RegimeLabel.SIDEWAYS),)
    )


def labels_of(seg, value_dates):
    """Each return date's regime label, as `report.render` passes them: a
    return is dated by the later of its two values."""
    return [seg.label_for(d).value for d in value_dates[1:]]


def per_regime(report):
    """The regime rows of a label map, after its leading All Periods row."""
    assert next(iter(report)) == "All Periods"
    return list(report.values())[1:]


class TestRegimeReport:
    def test_single_regime_equals_all_periods(self):
        rng = random.Random(47)
        values = [10_000.0]
        for _ in range(40):
            values.append(values[-1] * (1.0 + rng.uniform(-0.02, 0.02)))
        ds = dates_for(41)
        returns = daily_returns(values)
        hits = [rng.random() < 0.5 for _ in range(40)]
        report = regime_report(returns, labels_of(single_span_segmentation(ds), ds), hits)
        assert len(per_regime(report)) == 1
        row = per_regime(report)[0]
        assert row.total_return == report["All Periods"].total_return
        assert row.sharpe == report["All Periods"].sharpe
        assert row.accuracy == report["All Periods"].accuracy

    def test_span_with_zero_returns_totals_zero(self):
        ds = dates_for(11)
        values = [100.0]
        for i in range(10):
            values.append(values[-1] * (1.05 if i < 5 else 1.0))
        seg = RegimeSegmentation(
            spans=(
                RegimeSpan(ds[0], ds[5], RegimeLabel.BULLISH),
                RegimeSpan(ds[6], ds[10], RegimeLabel.SIDEWAYS),
            )
        )
        report = regime_report(daily_returns(values), labels_of(seg, ds))
        assert list(report) == ["All Periods", "Bullish", "Sideways"]
        assert report["Sideways"].total_return == 0.0
        assert report["Bullish"].total_return == pytest.approx(1.05 ** 5 - 1.0, abs=1e-9)

    def test_cells_equal_slice_recomputation(self):
        rng = random.Random(48)
        n = 120
        values = [10_000.0]
        for _ in range(n):
            values.append(values[-1] * (1.0 + rng.uniform(-0.02, 0.02)))
        ds = dates_for(n + 1)
        returns = daily_returns(values)
        hits = [rng.random() < 0.5 for _ in range(n)]
        bounds = [(0, 39, RegimeLabel.BULLISH), (40, 79, RegimeLabel.SIDEWAYS), (80, n - 1, RegimeLabel.BEARISH)]
        seg = RegimeSegmentation(
            spans=tuple(RegimeSpan(ds[a + 1], ds[b + 1], lab) for a, b, lab in bounds)
        )
        report = regime_report(returns, labels_of(seg, ds), hits)
        assert list(report)[1:] == [lab.value for _, _, lab in bounds]
        for (a, b, lab), row in zip(bounds, per_regime(report)):
            sliced = returns[a : b + 1]
            sliced_hits = hits[a : b + 1]
            assert row.total_return == pytest.approx(total_return(sliced), abs=1e-12)
            mu, sigma = mean_std(sliced)
            assert row.mean_daily_pct == pytest.approx(100.0 * mu, abs=1e-12)
            assert row.std_daily_pct == pytest.approx(100.0 * sigma, abs=1e-12)
            assert row.sharpe == pytest.approx(mu / sigma, abs=1e-12)
            assert row.accuracy == sum(sliced_hits) / len(sliced_hits)

    def test_same_label_spans_concatenate(self):
        ds = dates_for(9)
        values = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0]
        returns = daily_returns(values)
        seg = RegimeSegmentation(
            spans=(
                RegimeSpan(ds[1], ds[3], RegimeLabel.SIDEWAYS),
                RegimeSpan(ds[4], ds[6], RegimeLabel.BULLISH),
                RegimeSpan(ds[7], ds[8], RegimeLabel.SIDEWAYS),
            )
        )
        report = regime_report(returns, labels_of(seg, ds))
        assert list(report)[1:] == ["Sideways", "Bullish"]
        sideways = per_regime(report)[0]
        # spans 1 and 3 concatenated: returns at indices 0,1,2 and 6,7
        expected = [returns[i] for i in (0, 1, 2, 6, 7)]
        assert sideways.n_days == 5
        assert sideways.total_return == pytest.approx(total_return(expected), abs=1e-12)

    def test_hits_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            regime_report([0.01, 0.02], hits=[True])

    def test_labels_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            regime_report([0.01, 0.02], labels=["Bullish"])

    def test_baseline_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            regime_report([0.01, 0.02], baseline=[0.01, 0.02, 0.03])

