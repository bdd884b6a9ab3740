"""`regime.segment`'s one-pass span merge gives the same spans as the
rescan loop in `oracles.oracle_merge_runs` on any sequence of day labels."""

from datetime import date, timedelta
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from btagents import regime
from btagents.regime import RegimeLabel, RegimeParams, segment

from oracles import oracle_merge_runs

# warmup is 3 days: the first two take the third day's label
PARAMS = dict(ma_window=2, slope_lookback=1)


@settings(max_examples=400, deadline=None)
@given(
    runs=st.lists(st.tuples(st.sampled_from(list(RegimeLabel)), st.integers(1, 20)), min_size=1, max_size=25),
    min_span_days=st.integers(1, 30),
)
def test_segment_matches_rescan_merge(runs, min_span_days):
    labels = [label for label, length in runs for _ in range(length)]
    labels = labels[:1] * 2 + labels
    days = [date(2024, 1, 1) + timedelta(days=i) for i in range(len(labels))]
    # each close is its day's index, so a stand-in classifier can look the label up
    closes = [float(i) for i in range(len(labels))]
    with mock.patch.object(regime, "classify_day", lambda window, params: labels[int(window[-1])]):
        seg = segment(days, closes, RegimeParams(min_span_days=min_span_days, **PARAMS))
    expected = [(lab, days[a], days[b]) for lab, a, b in oracle_merge_runs(labels, min_span_days)]
    assert [(s.label, s.start_date, s.end_date) for s in seg.spans] == expected
