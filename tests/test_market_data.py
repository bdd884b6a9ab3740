import random
from datetime import date

import pytest

from btagents.errors import (
    DateNotFound,
    DuplicateDate,
    GapError,
    InvariantViolation,
    MalformedRow,
)
from btagents.market_data import (
    Bar,
    MarketDataset,
    MarketRecord,
    NewsItem,
    OnChainDaily,
    SentimentDaily,
    align,
    dedupe_news,
    load_bars,
    load_news,
    load_onchain,
    load_sentiment,
    slice_window,
)

from conftest import FIXTURE_DIR, bars_from_closes


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadBars:
    def test_single_row(self, tmp_path):
        path = write(
            tmp_path,
            "bars.csv",
            "date,open,high,low,close,volume\n2024-07-01,60000,61000,59500,60500,12000\n",
        )
        bars = load_bars(path)
        assert len(bars) == 1
        assert bars[0].close == 60500
        assert bars[0].date == date(2024, 7, 1)

    def test_high_below_low_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "bars.csv",
            "date,open,high,low,close,volume\n2024-07-01,59400,59000,59500,59400,1\n",
        )
        with pytest.raises(InvariantViolation):
            load_bars(path)

    def test_unsorted_rows_sorted_ascending(self, tmp_path):
        path = write(
            tmp_path,
            "bars.csv",
            "date,open,high,low,close,volume\n"
            "2024-07-03,100,103,99,102,5\n"
            "2024-07-01,100,101,99,100,5\n"
            "2024-07-02,100,102,99,101,5\n",
        )
        bars = load_bars(path)
        got = [b.date for b in bars]
        assert got == sorted(got)
        assert got == [date(2024, 7, 1), date(2024, 7, 2), date(2024, 7, 3)]

    def test_duplicate_date(self, tmp_path):
        path = write(
            tmp_path,
            "bars.csv",
            "date,open,high,low,close,volume\n"
            "2024-07-01,100,101,99,100,5\n"
            "2024-07-01,100,101,99,100,5\n",
        )
        with pytest.raises(DuplicateDate):
            load_bars(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(
            tmp_path,
            "bars.csv",
            "date,open,high,low,close,volume\n"
            "2024-07-01,100,101,99,100,5\n"
            "2024-07-02,abc,101,99,100,5\n",
        )
        with pytest.raises(MalformedRow) as exc:
            load_bars(path)
        assert exc.value.line_no == 3

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "bars.csv", "day,o,h,l,c,v\n")
        with pytest.raises(MalformedRow):
            load_bars(path)

    def test_random_well_formed_files_roundtrip(self, tmp_path):
        # randomized property: rows parse, bar invariants hold, order ascending
        rng = random.Random(17)
        for trial in range(25):
            n = rng.randint(1, 40)
            days = rng.sample(range(1000), n)
            lines = ["date,open,high,low,close,volume"]
            for day_offset in days:
                d = date(2023, 1, 1).toordinal() + day_offset
                o = rng.uniform(100, 200)
                c = rng.uniform(100, 200)
                hi = max(o, c) * (1 + rng.random() * 0.05)
                lo = min(o, c) * (1 - rng.random() * 0.05)
                lines.append(
                    f"{date.fromordinal(d).isoformat()},{o:.4f},{hi:.4f},{lo:.4f},{c:.4f},{rng.uniform(0, 50):.4f}"
                )
            path = write(tmp_path, f"rand_{trial}.csv", "\n".join(lines) + "\n")
            bars = load_bars(path)
            assert len(bars) == n
            for bar in bars:
                assert bar.low <= min(bar.open, bar.close)
                assert bar.high >= max(bar.open, bar.close)
            assert all(a.date < b.date for a, b in zip(bars, bars[1:]))


class TestOtherLoaders:
    def test_sentiment_row(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "date,social_score_mean,fgi_value,fgi_label\n2024-11-04,0.1164,70,Greed\n",
        )
        rows = load_sentiment(path)
        assert rows[0].fgi_value == 70
        assert rows[0].fgi_label == "Greed"
        assert rows[0].social_score_mean == pytest.approx(0.1164)

    def test_fgi_out_of_range(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            "date,social_score_mean,fgi_value,fgi_label\n2024-11-04,0.0,101,Greed\n",
        )
        with pytest.raises(InvariantViolation):
            load_sentiment(path)

    def test_empty_news_file(self, tmp_path):
        path = write(tmp_path, "n.csv", "date,source,headline,summary\n")
        assert load_news(path) == []

    def test_onchain_negative_count(self, tmp_path):
        path = write(
            tmp_path,
            "o.csv",
            "date,tx_count,active_addresses,transfer_volume_usd\n2024-11-04,-1,5,0\n",
        )
        with pytest.raises(InvariantViolation):
            load_onchain(path)

    def test_news_empty_headline(self, tmp_path):
        path = write(tmp_path, "n.csv", "date,source,headline,summary\n2024-11-04,CNBC,,x\n")
        with pytest.raises(InvariantViolation):
            load_news(path)


# one (loader, header, row with a `{}` for its date, line end) per series
SERIES = pytest.mark.parametrize(
    "loader,header,row,eol",
    [
        (load_bars, "date,open,high,low,close,volume", "{},1,1,1,1,1", "\n"),
        (load_onchain, "date,tx_count,active_addresses,transfer_volume_usd", "{},1,1,1", "\n"),
        (load_sentiment, "date,social_score_mean,fgi_value,fgi_label", "{},0.1,70,Greed", "\n"),
        (load_news, "date,source,headline,summary", "{},CNBC,BTC rallies,x", "\n"),
        (load_news, "date,source,headline,summary", "{},CNBC,BTC rallies,x", "\r"),
    ],
    ids=["bars", "onchain", "sentiment", "news", "news-cr-line-ends"],
)


@SERIES
def test_byte_that_is_not_utf8_names_file_and_line(tmp_path, loader, header, row, eol):
    path = tmp_path / "series.csv"
    good = row.format("2024-11-03")
    bad = row.format("2024-11-04").encode() + b"\xff"
    path.write_bytes(f"{header}{eol}{good}{eol}".encode() + bad + eol.encode())
    with pytest.raises(MalformedRow) as exc:
        loader(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 3)
    assert exc.value.reason == "byte 0xff is not UTF-8"


def test_case_study_bars_with_a_leading_bom_load_equal(tmp_path):
    path = tmp_path / "bars.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURE_DIR / "bars.csv").read_bytes())
    assert load_bars(str(path)) == load_bars(str(FIXTURE_DIR / "bars.csv"))


@SERIES
def test_leading_bom_is_skipped(tmp_path, loader, header, row, eol):
    """A file saved with a UTF-8 byte order mark reads as the same file without
    one, and a bad byte after it still names its physical line."""
    text = f"{header}{eol}{row.format('2024-11-03')}{eol}{row.format('2024-11-04')}{eol}"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert len(loader(str(marked))) == 2
    assert loader(str(marked)) == loader(str(plain))
    marked.write_bytes(b"\xef\xbb\xbf" + f"{header}{eol}{row.format('2024-11-03')}{eol}2024-11-04".encode() + b"\xff" + eol.encode())
    with pytest.raises(MalformedRow) as exc:
        loader(str(marked))
    assert (exc.value.path, exc.value.line_no, exc.value.reason) == (str(marked), 3, "byte 0xff is not UTF-8")


def test_errors_name_the_physical_line_after_a_two_line_field(tmp_path):
    path = write(
        tmp_path,
        "n.csv",
        'date,source,headline,summary\n'
        '2024-11-04,CNBC,BTC rallies,"a summary\nthat spans two lines"\n'
        "2024-11-0x,CNBC,BTC slips,x\n",
    )
    with pytest.raises(MalformedRow) as exc:
        load_news(path)
    assert exc.value.line_no == 4


def mk_onchain(d):
    return OnChainDaily(date=d, tx_count=1, active_addresses=1, transfer_volume_usd=1.0)


def mk_sentiment(d, score=0.1):
    return SentimentDaily(date=d, social_score_mean=score, fgi_value=50, fgi_label="Neutral")


class TestAlign:
    def setup_method(self):
        self.bars = bars_from_closes([100.0, 101.0, 102.0], date(2024, 7, 1))
        self.dates = [b.date for b in self.bars]

    def test_complete_series(self):
        ds = align(
            self.bars,
            onchain=[mk_onchain(d) for d in self.dates],
            sentiment=[mk_sentiment(d) for d in self.dates],
        )
        assert len(ds) == 3
        assert all(r.onchain is not None and r.sentiment is not None for r in ds.records)

    def test_carry_forward_fills_gap(self):
        ds = align(
            self.bars,
            onchain=[mk_onchain(d) for d in self.dates],
            sentiment=[mk_sentiment(self.dates[0], 0.25), mk_sentiment(self.dates[2], -0.5)],
        )
        carried = ds.records[1].sentiment
        assert carried.social_score_mean == 0.25
        assert carried.date == self.dates[1]

    def test_strict_gap_raises(self):
        with pytest.raises(GapError) as exc:
            align(
                self.bars,
                onchain=[mk_onchain(d) for d in self.dates],
                sentiment=[mk_sentiment(self.dates[0]), mk_sentiment(self.dates[2])],
                gap_policy="strict",
            )
        assert "sentiment" in str(exc.value)
        assert self.dates[1].isoformat() in str(exc.value)

    def test_entirely_absent_series_yields_none_fields(self):
        ds = align(self.bars)
        assert all(r.onchain is None and r.sentiment is None for r in ds.records)
        assert len(ds) == 3

    def test_bar_calendar_hole_is_always_an_error(self):
        bars = bars_from_closes([100.0, 101.0, 102.0], date(2024, 7, 1))
        gappy = [bars[0], bars[2]]
        with pytest.raises(GapError) as exc:
            align(
                gappy,
                onchain=[mk_onchain(b.date) for b in gappy],
                sentiment=[mk_sentiment(b.date) for b in gappy],
            )
        assert "bars" in str(exc.value)

    def test_leading_gap_raises_even_when_carrying(self):
        with pytest.raises(GapError):
            align(
                self.bars,
                onchain=[mk_onchain(d) for d in self.dates],
                sentiment=[mk_sentiment(self.dates[1]), mk_sentiment(self.dates[2])],
            )

    def test_news_grouped_and_deduped(self):
        item = NewsItem(date=self.dates[1], source="CNBC", headline="h", summary="s")
        dup = NewsItem(date=self.dates[1], source="CNBC", headline="h", summary="other")
        ds = align(
            self.bars,
            onchain=[mk_onchain(d) for d in self.dates],
            sentiment=[mk_sentiment(d) for d in self.dates],
            news=[item, dup],
        )
        assert len(ds.records[1].news) == 1
        assert ds.records[0].news == ()

    def test_align_idempotent(self):
        ds = align(
            self.bars,
            onchain=[mk_onchain(self.dates[0])],
            sentiment=[mk_sentiment(self.dates[0])],
            news=[NewsItem(date=self.dates[2], source="A", headline="h", summary="")],
        )
        again = align(
            [r.bar for r in ds.records],
            onchain=[r.onchain for r in ds.records],
            sentiment=[r.sentiment for r in ds.records],
            news=[n for r in ds.records for n in r.news],
        )
        assert again == ds

    def test_dedupe_news_order_preserved(self):
        d = self.dates[0]
        items = [
            NewsItem(date=d, source="B", headline="2", summary=""),
            NewsItem(date=d, source="A", headline="1", summary=""),
            NewsItem(date=d, source="B", headline="2", summary="dup"),
        ]
        out = dedupe_news(items)
        assert [(n.source, n.headline) for n in out] == [("B", "2"), ("A", "1")]


class TestSlice:
    def setup_method(self):
        bars = bars_from_closes([float(100 + i) for i in range(10)], date(2024, 7, 1))
        dates = [b.date for b in bars]
        self.ds = align(
            bars,
            onchain=[mk_onchain(d) for d in dates],
            sentiment=[mk_sentiment(d) for d in dates],
        )

    def test_lookback_one(self):
        target = self.ds.dates[4]
        window = slice_window(self.ds, target, 1)
        assert len(window) == 1
        assert window[0].date == target

    def test_partial_window_truncates(self):
        window = slice_window(self.ds, self.ds.dates[4], 30)
        assert len(window) == 5
        assert window[-1].date == self.ds.dates[4]

    def test_date_not_found(self):
        with pytest.raises(DateNotFound):
            slice_window(self.ds, date(2030, 1, 1), 5)

    def test_window_ordered_and_ends_at_date(self):
        window = slice_window(self.ds, self.ds.dates[8], 4)
        assert [r.date for r in window] == list(self.ds.dates[5:9])


class TestIndexOf:
    def setup_method(self):
        # built directly, so nothing enforces contiguous dates: day 3 and 4 are missing
        bars = bars_from_closes([float(100 + i) for i in range(8)], date(2024, 7, 1))
        kept = bars[:3] + bars[5:]
        self.ds = MarketDataset(
            records=tuple(MarketRecord(bar=b, onchain=None, sentiment=None, news=()) for b in kept)
        )

    def test_every_date_maps_to_its_position(self):
        for i, d in enumerate(self.ds.dates):
            assert self.ds.index_of(d) == i
            assert self.ds.record(d).date == d

    def test_missing_date_raises(self):
        for missing in (date(2024, 7, 4), date(2024, 6, 30), date(2024, 7, 9)):
            with pytest.raises(DateNotFound):
                self.ds.index_of(missing)


class TestBarInvariants:
    def test_negative_price(self):
        with pytest.raises(InvariantViolation):
            Bar(date=date(2024, 1, 1), open=-1, high=2, low=0.5, close=1, volume=0)

    def test_zero_volume_allowed(self):
        bar = Bar(date=date(2024, 1, 1), open=1, high=2, low=0.5, close=1, volume=0)
        assert bar.volume == 0

    @pytest.mark.parametrize("name", ["open", "high", "low", "close", "volume"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, value):
        fields = dict(open=1.0, high=2.0, low=0.5, close=1.0, volume=10.0)
        fields[name] = value
        with pytest.raises(InvariantViolation):
            Bar(date=date(2024, 1, 1), **fields)


class TestOnChainInvariants:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_transfer_volume_rejected(self, value):
        with pytest.raises(InvariantViolation):
            OnChainDaily(
                date=date(2024, 1, 1),
                tx_count=1,
                active_addresses=1,
                transfer_volume_usd=value,
            )

    def test_nan_in_csv_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "onchain.csv",
            "date,tx_count,active_addresses,transfer_volume_usd\n2024-01-01,5,3,nan\n",
        )
        with pytest.raises(InvariantViolation):
            load_onchain(path)
