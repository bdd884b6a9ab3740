import collections
import dataclasses
import json
import math
from datetime import date

import pytest

import btagents.agents
import btagents.indicators
import btagents.journal
import btagents.orchestrator
from btagents.agents import (
    DAILY_FEEDBACK_HEADER,
    WEEKLY_FEEDBACK_HEADER,
    ScriptedResponder,
)
from btagents.errors import (
    ConfigError,
    DateNotFound,
    DuplicateDate,
    GapError,
    InvariantViolation,
    JournalCorrupt,
    WindowTooShort,
    ZeroVolume,
)
from btagents.indicators import IndicatorParams
from btagents.journal import read_journal, seal, write_journal
from btagents.market_data import MarketDataset, NewsItem, align, load_bars, load_onchain
from btagents.orchestrator import (
    RunConfig,
    outputs_from_journal,
    replay,
    run_backtest,
)
from btagents.reflection import AGENT_ROLES, TEMPLATE_KINDS
from btagents.report import render, resolve_segmentation
from btagents.transport import ChatClientConfig

from conftest import FIXTURE_DIR, run_synth, scripted_plan, synth_dataset, weeklies
from oracles import oracle_input_digests


class TestCaseStudyRun:
    @pytest.fixture(autouse=True)
    def _run(self, case_study_dataset, case_study_responder, case_study_config):
        self.journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
        self.days = self.journal.days

    def test_allocation_sequence_matches_case_study(self):
        seq = {role: [d["roles"][role]["allocation"] for d in self.days] for role in AGENT_ROLES}
        assert seq["decision"] == [0.40, 0.55]
        assert seq["quants"] == [0.35, 0.60]
        assert seq["signals"] == [0.70, 0.65]

    def test_day_one_decision_return_is_scaled_btc_move(self):
        day1 = self.days[0]
        assert day1["roles"]["decision"]["portfolio_return"] == pytest.approx(
            0.4 * 0.0224, abs=1e-9
        )

    def test_day_one_has_no_feedback_sections(self):
        day1 = self.days[0]
        for role in AGENT_ROLES:
            assert DAILY_FEEDBACK_HEADER not in day1["roles"][role]["user"]
            assert WEEKLY_FEEDBACK_HEADER not in day1["roles"][role]["user"]

    def test_day_two_carries_day_one_feedback(self):
        day1, day2 = self.days
        for role in AGENT_ROLES:
            fb = day1["reflect"]["feedback"][role]
            assert fb
            assert fb in day2["roles"][role]["user"]
            assert fb == day2["daily_feedback_in"][role]

    def test_prompts_lint_clean_every_day(self):
        for day in self.days:
            assert day["lint"] == {"quants": [], "signals": [], "decision": []}

    def test_no_weekly_entries_for_two_day_run(self):
        assert weeklies(self.journal) == []

    def test_journal_record_shape(self):
        day = self.days[0]
        assert day["type"] == "day"
        assert day["inputs_digest"]
        assert day["close"] == 62500.0
        assert day["next_close"] == 63900.0
        role = day["roles"]["decision"]
        assert role["raw"]
        assert role["portfolio"]["value_usd"] == pytest.approx(10089.6, abs=1e-9)

    def test_portfolio_value_identity_in_journal(self):
        for day in self.days:
            for role in AGENT_ROLES:
                p = day["roles"][role]["portfolio"]
                assert p["value_usd"] == p["btc_units"] * p["mark_price"] + p["cash_usd"]


class TestPreflight:
    def test_lookback_shorter_than_warmup(self, case_study_dataset, case_study_responder):
        config = RunConfig(start=date(2024, 11, 4), end=date(2024, 11, 5), lookback_days=10)
        with pytest.raises(WindowTooShort):
            run_backtest(config, case_study_dataset, case_study_responder)

    def test_insufficient_history(self, case_study_dataset, case_study_responder):
        config = RunConfig(start=date(2024, 10, 5), end=date(2024, 11, 5))
        with pytest.raises(WindowTooShort):
            run_backtest(config, case_study_dataset, case_study_responder)

    def test_missing_next_bar(self, case_study_dataset, case_study_responder):
        config = RunConfig(start=date(2024, 11, 4), end=date(2024, 11, 6))
        with pytest.raises(WindowTooShort):
            run_backtest(config, case_study_dataset, case_study_responder)

    def test_empty_range(self, case_study_dataset, case_study_responder):
        config = RunConfig(start=date(2030, 1, 1), end=date(2030, 1, 2))
        with pytest.raises(DateNotFound):
            run_backtest(config, case_study_dataset, case_study_responder)

    def test_dataset_without_sentiment_rejected(self, case_study_responder):
        from btagents.errors import GapError
        from btagents.market_data import align, load_bars

        from conftest import FIXTURE_DIR

        dataset = align(load_bars(str(FIXTURE_DIR / "bars.csv")))
        config = RunConfig(start=date(2024, 11, 4), end=date(2024, 11, 5))
        with pytest.raises(GapError):
            run_backtest(config, dataset, case_study_responder)

    def test_config_dates_validated(self):
        with pytest.raises(ConfigError, match="end date before start date"):
            RunConfig(start=date(2024, 11, 5), end=date(2024, 11, 4))

    # half of 5e-324 rounds to 0; a subnormal value carries almost no precision
    @pytest.mark.parametrize("value", [0.0, -1.0, 5e-324, 1e-320, 0.005])
    def test_config_initial_value_validated(self, value):
        with pytest.raises(ConfigError, match=r"^config key 'initial_value_usd' must be >= 0\.01$"):
            RunConfig(start=date(2024, 11, 4), end=date(2024, 11, 5), initial_value_usd=value)

    def test_least_initial_value_is_one_cent(self):
        """One cent is the least value the report's `Initial value: %.2f USD` prints."""
        dates = {"start": date(2024, 11, 4), "end": date(2024, 11, 5)}
        assert RunConfig(**dates, initial_value_usd=0.01).initial_value_usd == 0.01
        with pytest.raises(ConfigError, match="'initial_value_usd' must be >= 0.01"):
            RunConfig(**dates, initial_value_usd=math.nextafter(0.01, 0.0))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"neutral_band": "0.01"},
            {"lookback_days": 30.5},
            {"daily_feedback": 1},
            {"weekly_template_path": 3},
            {"end": "2024-11-05"},
            {"client": ChatClientConfig(temperature="0")},
            {"indicator_params": {"sma_window": 10}},
        ],
    )
    def test_python_config_types_checked(self, overrides):
        kwargs = {"start": date(2024, 11, 4), "end": date(2024, 11, 5), **overrides}
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_mistyped_config_stops_before_the_run(self):
        with pytest.raises(ConfigError, match="neutral_band"):
            run_synth(3, daily=False, weekly=False, neutral_band="0.01")


class NoCalls:
    """A client for runs that must fail before their first LLM call."""

    def complete(self, bundle):
        pytest.fail(f"a {bundle.role.value} call was made for {bundle.date}")


def edit_day(day, change):
    """Builds the given dataset again without `align`, with `change` applied to the record of `day`."""
    return lambda dataset: MarketDataset(
        tuple(change(r) if r.date == day else r for r in dataset.records)
    )


def edit_bar(**fields):
    return lambda record: dataclasses.replace(record, bar=dataclasses.replace(record.bar, **fields))


MID = date(2024, 11, 5)  # the case study's second and last day


@pytest.mark.parametrize(
    "config, build, error, match",
    [
        ({"start": date(2030, 1, 1), "end": date(2030, 1, 2)}, None, DateNotFound, "no trading days"),
        ({"lookback_days": 10}, None, WindowTooShort, "lookback_days 10"),
        ({"start": date(2024, 10, 5)}, None, WindowTooShort, "up to 2024-10-05"),
        ({"end": date(2024, 11, 6)}, None, WindowTooShort, "bar after 2024-11-06"),
        (
            {},
            lambda _: align(
                load_bars(str(FIXTURE_DIR / "bars.csv")),
                onchain=load_onchain(str(FIXTURE_DIR / "onchain.csv")),
            ),
            GapError,
            "'sentiment' has no value for 2024-11-04",
        ),
        (
            {},
            edit_day(MID, lambda r: dataclasses.replace(r, sentiment=None)),
            GapError,
            f"'sentiment' has no value for {MID}",
        ),
        (
            {},
            edit_day(date(2024, 11, 1), lambda r: dataclasses.replace(r, onchain=None)),
            GapError,
            "'onchain' has no value for 2024-11-01",
        ),
        (
            {"indicator_params": IndicatorParams(vwap_lookback=1)},
            edit_day(MID, edit_bar(volume=0.0)),
            ZeroVolume,
            f"^{MID}: vwap",
        ),
        (
            {},
            edit_day(MID, edit_bar(open=1e200, high=1e200, low=1e200, close=1e200)),
            InvariantViolation,
            f"^{MID}: a gauge overflows",
        ),
        (
            {},
            edit_day(date(2024, 11, 6), edit_bar(high=1e308, close=1e308)),
            InvariantViolation,
            f"^{MID}: the BTC return or a baseline is outside the float range$",
        ),
    ],
    ids=[
        "empty range",
        "lookback below warm-up",
        "short history",
        "no bar after the last day",
        "no sentiment on day 0",
        "no sentiment mid-range",
        "no on-chain value in the window before day 0",
        "zero-volume vwap window mid-range",
        "1e200 close mid-range",
        "1e308 marking close",
    ],
)
def test_data_fault_fails_before_any_call(case_study_dataset, config, build, error, match):
    config = RunConfig(**{"start": date(2024, 11, 4), "end": MID, **config})
    dataset = build(case_study_dataset) if build else case_study_dataset
    with pytest.raises(error, match=match):
        run_backtest(config, dataset, NoCalls())


def test_repeated_record_fails_before_the_run(case_study_dataset):
    records = case_study_dataset.records
    at = case_study_dataset.index_of(date(2024, 11, 4))
    with pytest.raises(DuplicateDate, match="^duplicate bar date 2024-11-04$"):
        MarketDataset(records[: at + 1] + records[at:])


def test_each_bar_is_worked_once_per_run(monkeypatch):
    """A run computes the pair terms of its bars in one call and renders each
    record's price row and on-chain row once, whatever the windows overlap."""
    terms_calls = []
    rendered = collections.Counter()
    real_terms = btagents.indicators.pair_terms

    def counted_terms(bars):
        terms_calls.append(len(bars))
        return real_terms(bars)

    def counted(kind, render):
        def row(item):
            rendered[kind, item.date] += 1
            return render(item)
        return row

    price_row = counted("price", btagents.agents.price_row)
    onchain_row = counted("onchain", btagents.agents.onchain_row)
    for module in (btagents.indicators, btagents.orchestrator):
        monkeypatch.setattr(module, "pair_terms", counted_terms)
    for module in (btagents.agents, btagents.orchestrator):
        monkeypatch.setattr(module, "price_row", price_row)
        monkeypatch.setattr(module, "onchain_row", onchain_row)
    journal, *_ = run_synth(40)
    assert len(journal.days) == 40
    assert len(terms_calls) == 1
    assert {kind for kind, _ in rendered} == {"price", "onchain"}
    assert max(rendered.values()) == 1


def test_each_record_input_is_encoded_once_per_run(monkeypatch):
    """The header's dataset digest and every day's inputs digest share one
    `inputs_payload` per dataset record."""
    built = []
    real_payload = btagents.journal.inputs_payload

    def counted(rec):
        built.append(rec.date)
        return real_payload(rec)

    monkeypatch.setattr(btagents.journal, "inputs_payload", counted)
    journal, _, dataset, _ = run_synth(21)
    assert len(journal.days) == 21
    assert len(built) == len(dataset)
    assert sorted(built) == list(dataset.dates)


def test_input_digests_equal_the_oracle():
    """Each digest equals a fresh encode of its inputs, for news holding what the
    dated encoding must pass through: "]", a quote, a backslash, the text
    `,"date":"`, non-ASCII text and DEL."""
    tricky = ("a ] b", 'say "hi"', "back\\slash", ',"date":"2024-01-02"', "Zürich €5 \U0001f600", "del\x7fete")
    records = synth_dataset(50).records
    dataset = MarketDataset(
        tuple(
            dataclasses.replace(r, news=(*r.news, NewsItem(r.date, tricky[i % 6], tricky[i % 5], tricky[i % 4])))
            for i, r in enumerate(records)
        )
    )
    days = dataset.dates[32:46]
    config = RunConfig(start=days[0], end=days[-1])
    journal = run_backtest(config, dataset, ScriptedResponder(scripted_plan(days)))
    header_digest, inputs_digests = oracle_input_digests(dataset)
    assert journal.header["dataset_digest"] == header_digest
    assert [day["inputs_digest"] for day in journal.days] == inputs_digests[32:46]


class TestJournalRoundTrip:
    def test_write_read_verify(self, tmp_path, case_study_dataset, case_study_responder, case_study_config):
        journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
        path = tmp_path / "run.jsonl"
        write_journal(journal, str(path))
        loaded = read_journal(str(path))
        assert loaded.header == journal.header
        assert loaded.entries == journal.entries

    def test_failed_write_leaves_old_file(self, tmp_path, case_study_dataset, case_study_responder, case_study_config):
        journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
        path = tmp_path / "run.jsonl"
        write_journal(journal, str(path))
        before = path.read_bytes()
        journal.entries.append({"type": "day", "unserializable": object()})
        with pytest.raises(TypeError):
            write_journal(journal, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]

    def test_edited_response_breaks_digest(self, tmp_path, case_study_dataset, case_study_responder, case_study_config):
        journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
        path = tmp_path / "run.jsonl"
        write_journal(journal, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        tampered = json.loads(lines[1])
        tampered["roles"]["decision"]["raw"] = tampered["roles"]["decision"]["raw"].replace(
            "40", "90"
        )
        lines[1] = json.dumps(tampered)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalCorrupt):
            read_journal(str(path))

    def test_resealed_tamper_caught_by_recompute(self, case_study_dataset, case_study_responder, case_study_config):
        journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
        record = dict(journal.days[0])
        record["roles"] = json.loads(json.dumps(record["roles"]))
        record["roles"]["decision"]["allocation"] = 0.9
        record.pop("digest")
        journal.entries[0] = seal(record)
        with pytest.raises(JournalCorrupt):
            replay(journal)


class TestReplay:
    def test_report_byte_identical(self, tmp_path, case_study_dataset, case_study_responder, case_study_config):
        journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
        path = tmp_path / "run.jsonl"
        write_journal(journal, str(path))
        loaded = read_journal(str(path))
        original = render(
            outputs_from_journal(loaded), resolve_segmentation(outputs_from_journal(loaded))
        )
        replayed_outputs = replay(loaded)
        replayed = render(replayed_outputs, resolve_segmentation(replayed_outputs))
        assert replayed.text == original.text
        assert replayed.table_rows == original.table_rows
        assert replayed.cumret_rows == original.cumret_rows

    def test_neutral_band_override_changes_accuracy_not_returns(self, case_study_dataset, case_study_responder, case_study_config):
        journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
        base = replay(journal)
        wide = replay(journal, neutral_band=0.10)
        assert wide.values == base.values
        base_art = render(base, None)
        wide_art = render(wide, None)
        acc_base = [r for r in base_art.table_rows if r["metric"] == "accuracy"]
        acc_wide = [r for r in wide_art.table_rows if r["metric"] == "accuracy"]
        assert acc_base != acc_wide  # every prediction lands inside a 10% band
        ret_base = [r for r in base_art.table_rows if r["metric"] == "total_return_pct"]
        ret_wide = [r for r in wide_art.table_rows if r["metric"] == "total_return_pct"]
        assert ret_base == ret_wide

    @pytest.mark.parametrize("band", [-0.5, float("nan"), float("inf"), "0.1", 1e308])
    @pytest.mark.parametrize("read", [outputs_from_journal, replay], ids=["outputs", "replay"])
    def test_bad_neutral_band_override_rejected(self, read, band):
        journal = run_synth(3, daily=False, weekly=False)[0]
        with pytest.raises(ConfigError, match="config key 'neutral_band'"):
            read(journal, band)


def two_phase_alloc(i):
    if i < 7:
        return (80, 80, 80)
    if i < 14:
        return (20, 20, 20)
    return (50, 50, 50)


class TestTwentyOneDayRun:
    @pytest.fixture(autouse=True)
    def _run(self):
        self.journal, self.config, self.dataset, self.responder = run_synth(
            21, alloc_plan=two_phase_alloc, price_step=lambda i: 0.02
        )
        self.days = self.journal.days
        self.weeklies = weeklies(self.journal)

    def test_journal_completeness(self):
        assert len(self.days) == 21
        assert len(self.weeklies) == 3  # one per completed 7-day block

    def test_weekly_kinds_follow_performance(self):
        assert self.weeklies[0]["kinds"]["quants"] == "praise"
        assert self.weeklies[1]["kinds"]["quants"] == "corrective"

    def test_daily_feedback_appears_only_next_day(self):
        for t, day in enumerate(self.days):
            marker = f"FBQ-{day['date']}"
            for u, other in enumerate(self.days):
                present = marker in other["roles"]["quants"]["user"]
                assert present == (u == t + 1), (t, u)

    def test_weekly_feedback_windows(self):
        week1 = self.weeklies[0]["texts"]
        for i, day in enumerate(self.days):
            quants_user = day["roles"]["quants"]["user"]
            if i < 7:
                assert WEEKLY_FEEDBACK_HEADER not in quants_user
                assert day["weekly_feedback_in"] == {}
            elif i < 14:
                assert week1["quants"] in quants_user
                assert day["weekly_feedback_in"]["quants"] == week1["quants"]
            else:
                assert day["weekly_feedback_in"]["quants"] == self.weeklies[1]["texts"]["quants"]
                assert week1["quants"] not in quants_user

    def test_weekly_stats_recorded(self):
        stats = self.weeklies[0]["stats"]["quants"]
        assert stats["return_diff"] > 0
        assert stats["regret"] == 0.0


class TestCustomTemplatePool:
    """The run picks each weekly text from the pool file by its kind; replay, which
    never reads the file, checks the texts through the next days' feedback in."""

    @pytest.fixture(autouse=True)
    def _run(self, tmp_path):
        # nine texts that all differ
        self.pool = {
            role: {kind: f"Week review {kind} for the {role} desk." for kind in TEMPLATE_KINDS} for role in AGENT_ROLES
        }
        pool_path = tmp_path / "pool.json"
        pool_path.write_text(json.dumps(self.pool), encoding="utf-8")
        self.journal = run_synth(
            21, alloc_plan=two_phase_alloc, price_step=lambda i: 0.02, weekly_template_path=str(pool_path)
        )[0]
        self.path = tmp_path / "run.jsonl"
        write_journal(self.journal, str(self.path))
        pool_path.unlink()

    def test_each_weekly_text_is_the_pools_for_its_kind(self):
        records = weeklies(self.journal)
        assert {kind for w in records for kind in w["kinds"].values()} >= {"praise", "corrective"}
        for k, week in enumerate(records[:-1]):
            assert week["texts"] == {role: self.pool[role][kind] for role, kind in week["kinds"].items()}
            next_day = self.journal.days[7 * k + 7]
            assert next_day["weekly_feedback_in"] == week["texts"]
            for role in AGENT_ROLES:
                assert WEEKLY_FEEDBACK_HEADER + "\n" + week["texts"][role] in next_day["roles"][role]["user"]

    def test_replay_reproduces_the_report_without_the_file(self):
        journal = read_journal(str(self.path))
        assert render(replay(journal), None).text == render(outputs_from_journal(journal), None).text

    def test_resealed_weekly_text_edit_fails_replay(self):
        journal = read_journal(str(self.path))
        line = next(i for i, e in enumerate(journal.entries) if e["type"] == "weekly")
        record = {k: v for k, v in journal.entries[line].items() if k != "digest"}
        kind = record["kinds"]["signals"]
        other = next(k for k in self.pool["signals"] if k != kind)
        record["texts"] = {**record["texts"], "signals": self.pool["signals"][other]}
        journal.entries[line] = seal(record)
        with pytest.raises(JournalCorrupt, match="recorded weekly_feedback_in does not reproduce"):
            replay(journal)


def test_week_return_counts_the_fees_paid():
    """A day's return runs from the book before its rebalance, so the fee it
    pays counts: each week's return is the change in the book's value."""
    journal = run_synth(14, fee_bps=25.0)[0]
    initial = journal.header["config"]["initial_value_usd"]
    for k, week in enumerate(weeklies(journal)):
        days = journal.days[7 * k : 7 * k + 7]
        for role in AGENT_ROLES:
            start = journal.days[7 * k - 1]["roles"][role]["portfolio"]["value_usd"] if k else initial
            end = days[-1]["roles"][role]["portfolio"]["value_usd"]
            assert week["stats"][role]["week_return"] == pytest.approx(end / start - 1.0, rel=1e-12)


class TestWeeklyToggle:
    def test_disabling_weekly_removes_exactly_those_sections(self):
        journal_on, config_on, _, _ = run_synth(
            21, weekly=True, alloc_plan=two_phase_alloc, price_step=lambda i: 0.02
        )
        config_snapshot_before = config_on.to_dict()
        journal_off, config_off, _, _ = run_synth(
            21, weekly=False, alloc_plan=two_phase_alloc, price_step=lambda i: 0.02
        )
        assert weeklies(journal_off) == []
        for day_on, day_off in zip(journal_on.days, journal_off.days):
            for role in AGENT_ROLES:
                text_on = day_on["roles"][role]["user"]
                text_off = day_off["roles"][role]["user"]
                injected = day_on["weekly_feedback_in"].get(role, "")
                if injected:
                    expected = text_on.replace(
                        "\n\n" + WEEKLY_FEEDBACK_HEADER + "\n" + injected, ""
                    )
                    assert text_off == expected
                else:
                    assert text_off == text_on

        # no quantitative parameter differs between the two configs
        on_dict = config_on.to_dict()
        off_dict = config_off.to_dict()
        assert on_dict.pop("weekly_feedback") is True
        assert off_dict.pop("weekly_feedback") is False
        assert on_dict == off_dict
        # and running the backtest never mutated the config snapshot
        assert config_on.to_dict() == config_snapshot_before

    def test_disabling_daily_removes_feedback_and_reflection(self):
        journal, _, _, _ = run_synth(9, daily=False, weekly=False)
        for day in journal.days:
            assert day["reflect"] is None
            assert day["daily_feedback_in"] == {}
            for role in AGENT_ROLES:
                assert DAILY_FEEDBACK_HEADER not in day["roles"][role]["user"]
                assert WEEKLY_FEEDBACK_HEADER not in day["roles"][role]["user"]

    def test_day_one_prompts_unchanged_by_daily_toggle(self):
        journal_on, _, _, _ = run_synth(3, daily=True, weekly=False)
        journal_off, _, _, _ = run_synth(3, daily=False, weekly=False)
        for role in AGENT_ROLES:
            assert (
                journal_on.days[0]["roles"][role]["user"]
                == journal_off.days[0]["roles"][role]["user"]
            )
        assert (
            journal_on.days[1]["roles"]["quants"]["user"]
            != journal_off.days[1]["roles"]["quants"]["user"]
        )


class TestIndependence:
    def test_upstream_portfolios_ignore_decision_changes(self):
        journal_a, config, dataset, _ = run_synth(5, daily=False, weekly=False)
        days = [d["date"] for d in journal_a.days]
        plan = scripted_plan([date.fromisoformat(d) for d in days])
        for d in days:
            plan[f"decision:{d}"] = json.dumps(
                {"state": "bearish", "allocation_btc_pct": 5, "reasoning": "changed plan"}
            )
        journal_b = run_backtest(config, dataset, ScriptedResponder(plan))
        out_a = outputs_from_journal(journal_a)
        out_b = outputs_from_journal(journal_b)
        assert out_a.values["quants"] == out_b.values["quants"]
        assert out_a.values["signals"] == out_b.values["signals"]
        assert out_a.values["decision"] != out_b.values["decision"]


class TestFallback:
    def test_unusable_response_carries_previous_allocation(self):
        journal, config, dataset, responder = run_synth(3, daily=False, weekly=False)
        days = [d["date"] for d in journal.days]
        plan = dict(responder.responses)
        plan[f"quants:{days[1]}"] = "word salad with no structure"
        journal2 = run_backtest(config, dataset, ScriptedResponder(plan))
        day1, day2 = journal2.days[0], journal2.days[1]
        assert day2["roles"]["quants"]["fallback"] is True
        assert day2["roles"]["quants"]["allocation"] == day1["roles"]["quants"]["allocation"]
        assert day2["roles"]["quants"]["state"] == "neutral"
        assert len(day2["roles"]["quants"]["attempts"]) == 2
        assert all(a["error"] for a in day2["roles"]["quants"]["attempts"])
        # replay reproduces the fallback rule
        replay(journal2)

    def test_fallback_day_one_is_half(self):
        journal, config, dataset, responder = run_synth(2, daily=False, weekly=False)
        days = [d["date"] for d in journal.days]
        plan = dict(responder.responses)
        plan[f"signals:{days[0]}"] = "nothing to parse"
        journal2 = run_backtest(config, dataset, ScriptedResponder(plan))
        assert journal2.days[0]["roles"]["signals"]["fallback"] is True
        assert journal2.days[0]["roles"]["signals"]["allocation"] == 0.5


class TestRunConfigDict:
    def test_round_trip(self, case_study_config):
        again = RunConfig.from_dict(case_study_config.to_dict())
        assert again == case_study_config

    @pytest.mark.parametrize(
        "key, value",
        [("parse_retry_limit", -1), ("neutral_band", -0.5), ("fee_bps", -5.0), ("fee_bps", 10_000.0)],
    )
    def test_negative_value_rejected(self, key, value):
        tree = {"start": "2024-11-04", "end": "2024-11-05", key: value}
        bound = "< 10000" if value >= 10_000 else ">= 0"
        with pytest.raises(ConfigError, match=f"config key '{key}' must be {bound}"):
            RunConfig.from_dict(tree)

    def test_negative_fee_rejected_in_python(self):
        with pytest.raises(ConfigError, match="config key 'fee_bps' must be >= 0"):
            RunConfig(start=date(2024, 11, 4), end=date(2024, 11, 5), fee_bps=-5)

    def test_fee_just_below_the_whole_notional_runs(self):
        """Full buys and full sells on alternate days at 9999 bps leave each book
        a sliver of value, which the next day's return divides by."""
        journal = run_synth(10, fee_bps=9999, alloc_plan=lambda i: (100, 0, 100) if i % 2 else (0, 100, 0))[0]
        assert all(day["roles"][role]["portfolio"]["value_usd"] > 0 for day in journal.days for role in AGENT_ROLES)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), 10**400], ids=["nan", "inf", "-inf", "huge"]
    )
    @pytest.mark.parametrize("part, key", [(None, "fee_bps"), (None, "neutral_band"), ("client", "timeout")])
    def test_non_finite_value_rejected(self, part, key, value):
        tree = {"start": "2024-11-04", "end": "2024-11-05"}
        if part:
            tree[part] = {key: value}
        else:
            tree[key] = value
        with pytest.raises(ConfigError, match=f"config key '{key}' has a bad value"):
            RunConfig.from_dict(tree)

    @pytest.mark.parametrize("key", ["fee_bps", "neutral_band", "initial_value_usd"])
    def test_non_finite_value_rejected_in_python(self, key):
        with pytest.raises(ConfigError, match=f"config key '{key}' has a bad value"):
            RunConfig(start=date(2024, 11, 4), end=date(2024, 11, 5), **{key: float("nan")})

    @pytest.mark.parametrize("key", ["weekly_template_path", "model_name", "base_url", "api_key_env_var"])
    def test_lone_surrogate_rejected_in_python(self, key):
        """A string no journal header could seal fails when the config is built."""
        value = "held-\ud800"
        kwargs = {key: value} if key == "weekly_template_path" else {"client": ChatClientConfig(**{key: value})}
        with pytest.raises(ConfigError, match=f"config key '{key}' holds a lone surrogate"):
            RunConfig(start=date(2024, 11, 4), end=date(2024, 11, 5), **kwargs)

    def test_header_snapshot_matches_config(self, case_study_dataset, case_study_responder, case_study_config):
        journal = run_backtest(case_study_config, case_study_dataset, case_study_responder)
        assert RunConfig.from_dict(journal.header["config"]) == case_study_config
