import random
from datetime import date, timedelta

import pytest

from btagents.errors import ConfigError, CoverageError, MalformedRow, WindowTooShort
from btagents.regime import (
    RegimeLabel,
    RegimeParams,
    RegimeSegmentation,
    RegimeSpan,
    classify_day,
    load_segmentation,
    segment,
)

from oracles import oracle_merge_runs


def dates_for(n, start=date(2024, 1, 1)):
    return [start + timedelta(days=i) for i in range(n)]


def three_phase_closes(flat=60, rising=80, falling=60, start=100.0):
    # the falling leg must overcome the 50-day MA's inertia within
    # ma_window/2 days, hence the steeper step
    closes = [start] * flat
    for _ in range(rising):
        closes.append(round(closes[-1] * 1.01, 6))
    for _ in range(falling):
        closes.append(round(closes[-1] * 0.975, 6))
    return closes


class TestClassifyDay:
    def test_rising_series_bullish(self):
        closes = [100.0 * 1.01 ** i for i in range(80)]
        assert classify_day(closes, RegimeParams()) is RegimeLabel.BULLISH

    def test_constant_series_sideways(self):
        assert classify_day([100.0] * 80, RegimeParams()) is RegimeLabel.SIDEWAYS

    def test_falling_series_bearish(self):
        closes = [100.0 * 0.99 ** i for i in range(80)]
        assert classify_day(closes, RegimeParams()) is RegimeLabel.BEARISH

    def test_too_short(self):
        with pytest.raises(WindowTooShort):
            classify_day([100.0] * 59, RegimeParams())


class TestRegimeParams:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"slope_threshold": float("nan")}, "config key 'slope_threshold' must be finite and >= 0"),
            ({"slope_threshold": float("inf")}, "config key 'slope_threshold' must be finite and >= 0"),
            ({"slope_threshold": -0.001}, "config key 'slope_threshold' must be finite and >= 0"),
            ({"ma_window": 1}, "config key 'ma_window' must be >= 2"),
            ({"ma_window": float("nan")}, "config key 'ma_window' must be >= 2"),
            ({"slope_lookback": 0}, "config key 'slope_lookback' must be >= 1"),
            ({"slope_lookback": float("nan")}, "config key 'slope_lookback' must be >= 1"),
            ({"min_span_days": 0}, "config key 'min_span_days' must be >= 1"),
            ({"min_span_days": float("nan")}, "config key 'min_span_days' must be >= 1"),
        ],
        ids=[
            "nan-threshold", "inf-threshold", "negative-threshold", "ma-window-1", "nan-ma-window",
            "zero-lookback", "nan-lookback", "zero-span", "nan-span",
        ],
    )
    def test_bad_value_names_its_key(self, kwargs, message):
        """A NaN fails the bounds too: a NaN threshold would label every day Sideways."""
        with pytest.raises(ConfigError, match=message):
            RegimeParams(**kwargs)

    def test_least_values_are_accepted(self):
        params = RegimeParams(ma_window=2, slope_lookback=1, min_span_days=1, slope_threshold=0.0)
        assert params.warmup() == 3


def day_label_merge_oracle(dates, closes, params):
    """Independent re-derivation: day labels, then the span-merge rule."""
    warmup = params.ma_window + params.slope_lookback
    first = classify_day(closes[:warmup], params)
    labels = [
        first if i + 1 < warmup else classify_day(closes[: i + 1], params)
        for i in range(len(closes))
    ]
    spans = oracle_merge_runs(labels, params.min_span_days)
    return [(lab, dates[a], dates[b]) for lab, a, b in spans]


class TestSegment:
    def test_three_phase_series(self):
        closes = three_phase_closes()
        days = dates_for(len(closes))
        seg = segment(days, closes, RegimeParams())
        labels = [s.label for s in seg.spans]
        assert labels == [RegimeLabel.SIDEWAYS, RegimeLabel.BULLISH, RegimeLabel.BEARISH]
        # construction boundaries at day 60 and 140: allow ma_window/2 lag
        half_ma = RegimeParams().ma_window // 2
        bull_start = (seg.spans[1].start_date - days[0]).days
        bear_start = (seg.spans[2].start_date - days[0]).days
        assert abs(bull_start - 60) <= half_ma
        assert abs(bear_start - 140) <= half_ma

    def test_constant_series_single_span(self):
        closes = [250.0] * 120
        days = dates_for(120)
        seg = segment(days, closes, RegimeParams())
        assert len(seg.spans) == 1
        assert seg.spans[0].label is RegimeLabel.SIDEWAYS
        assert seg.spans[0].start_date == days[0]
        assert seg.spans[0].end_date == days[-1]

    def test_noise_collapses_to_sideways(self):
        closes = [100.0]
        for i in range(149):
            closes.append(round(closes[-1] * (1.0 + (0.004 if i % 6 < 3 else -0.004)), 6))
        days = dates_for(len(closes))
        seg = segment(days, closes, RegimeParams())
        oracle = day_label_merge_oracle(days, closes, RegimeParams())
        assert [(s.label, s.start_date, s.end_date) for s in seg.spans] == oracle
        assert len(seg.spans) == 1
        assert seg.spans[0].label is RegimeLabel.SIDEWAYS

    def test_matches_merge_oracle_random(self):
        rng = random.Random(22)
        # the last trial is four years long, as a full backtest's report is
        for trial in range(11):
            closes = [1000.0]
            drift = rng.choice([-0.004, 0.0, 0.006])
            for i in range(rng.randint(80, 200) if trial < 10 else 1460):
                if i % 37 == 0:
                    drift = rng.choice([-0.008, -0.002, 0.0, 0.004, 0.009])
                closes.append(round(closes[-1] * (1.0 + drift + rng.uniform(-0.002, 0.002)), 6))
            days = dates_for(len(closes))
            seg = segment(days, closes, RegimeParams())
            oracle = day_label_merge_oracle(days, closes, RegimeParams())
            assert [(s.label, s.start_date, s.end_date) for s in seg.spans] == oracle

    def test_spans_cover_range_without_overlap(self):
        closes = three_phase_closes()
        days = dates_for(len(closes))
        seg = segment(days, closes, RegimeParams())
        assert seg.spans[0].start_date == days[0]
        assert seg.spans[-1].end_date == days[-1]
        for a, b in zip(seg.spans, seg.spans[1:]):
            assert (b.start_date - a.end_date).days == 1

    def test_scale_invariance_exact(self):
        closes = three_phase_closes()
        days = dates_for(len(closes))
        base = segment(days, closes, RegimeParams())
        for c in (2.0, 0.5, 4.0):
            scaled = segment(days, [x * c for x in closes], RegimeParams())
            assert scaled == base

    def test_depends_only_on_closes(self):
        closes = three_phase_closes()
        days = dates_for(len(closes))
        assert segment(days, closes, RegimeParams()) == segment(
            list(days), list(closes), RegimeParams()
        )


class TestSegmentationType:
    def test_label_for_and_coverage(self):
        days = dates_for(10)
        seg = RegimeSegmentation(
            spans=(
                RegimeSpan(days[0], days[4], RegimeLabel.BULLISH),
                RegimeSpan(days[5], days[9], RegimeLabel.BEARISH),
            )
        )
        assert seg.label_for(days[2]) is RegimeLabel.BULLISH
        assert seg.label_for(days[7]) is RegimeLabel.BEARISH
        with pytest.raises(CoverageError):
            seg.label_for(days[0] - timedelta(days=1))

    def test_load_segmentation_file(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text(
            "start_date,end_date,label\n"
            "2024-07-01,2024-08-15,Sideways\n"
            "2024-08-16,2024-11-30,Bullish\n",
            encoding="utf-8",
        )
        seg = load_segmentation(str(path))
        assert len(seg.spans) == 2
        assert seg.label_for(date(2024, 9, 1)) is RegimeLabel.BULLISH

    def test_load_segmentation_skips_a_leading_bom(self, tmp_path):
        text = "start_date,end_date,label\n2024-07-01,2024-08-15,Sideways\n2024-08-16,2024-11-30,Bullish\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_segmentation(str(marked)) == load_segmentation(str(plain))

    def test_load_segmentation_rejects_bad_label(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text(
            "start_date,end_date,label\n2024-07-01,2024-08-15,Sidewayz\n", encoding="utf-8"
        )
        with pytest.raises(MalformedRow):
            load_segmentation(str(path))

    def test_load_segmentation_names_the_physical_line_after_a_two_line_field(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text(
            'start_date,end_date,label\n2024-07-01,2024-08-15,"Sideways\n"\n2024-08-16,2024-11-30,Bullisch\n',
            encoding="utf-8",
        )
        with pytest.raises(MalformedRow) as exc:
            load_segmentation(str(path))
        assert exc.value.line_no == 4

    def test_load_segmentation_rejects_end_before_start(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text("start_date,end_date,label\n2024-08-15,2024-07-01,Sideways\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=r":2: end_date before start_date$"):
            load_segmentation(str(path))

    def test_load_segmentation_rejects_overlap(self, tmp_path):
        path = tmp_path / "seg.csv"
        path.write_text(
            "start_date,end_date,label\n"
            "2024-07-01,2024-08-15,Sideways\n"
            "2024-08-10,2024-09-01,Bullish\n",
            encoding="utf-8",
        )
        with pytest.raises(CoverageError):
            load_segmentation(str(path))
