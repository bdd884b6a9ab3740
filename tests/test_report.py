import json
from datetime import date

import pytest

from btagents.agents import ScriptedResponder
from btagents.cli import main
from btagents.journal import write_journal
from btagents.orchestrator import outputs_from_journal, run_backtest
from btagents.regime import RegimeLabel, RegimeSegmentation, RegimeSpan
from btagents.report import (
    cumrets_csv,
    render,
    resolve_segmentation,
    table_csv,
)

from conftest import run_synth, scripted_plan


class TestRender:
    @pytest.fixture(autouse=True)
    def _run(self):
        self.journal, self.config, self.dataset, _ = run_synth(9, weekly=True)
        self.outputs = outputs_from_journal(self.journal)

    def test_all_periods_block_always_present(self):
        artifacts = render(self.outputs, None)
        assert "All Periods" in artifacts.text
        assert artifacts.text.startswith("Agent performance across market regimes")

    def test_table_rows_cover_metrics(self):
        artifacts = render(self.outputs, None)
        metrics = {row["metric"] for row in artifacts.table_rows}
        assert metrics == {
            "total_return_pct", "daily_mean_std", "sharpe", "accuracy", "regret_pct",
        }

    def test_cumrets_rows_start_at_zero(self):
        artifacts = render(self.outputs, None)
        first = artifacts.cumret_rows[0]
        assert first["quants"] == 0.0
        assert first["baseline"] == 0.0
        assert len(artifacts.cumret_rows) == len(self.outputs.value_dates)

    def test_cumrets_csv_header_and_determinism(self):
        artifacts = render(self.outputs, None)
        text = cumrets_csv(artifacts)
        assert text.splitlines()[0] == "date,quants,signals,decision,baseline"
        assert text == cumrets_csv(render(self.outputs, None))

    def test_table_csv_shape(self):
        artifacts = render(self.outputs, None)
        lines = table_csv(artifacts).splitlines()
        assert lines[0] == "regime,metric,quants,signals,decision,baseline"
        assert len(lines) == 1 + len(artifacts.table_rows)

    def test_baseline_has_no_accuracy_or_regret(self):
        artifacts = render(self.outputs, None)
        for row in artifacts.table_rows:
            if row["metric"] in ("accuracy", "regret_pct"):
                assert row["baseline"] == "--"

    def test_segmentation_override_adds_blocks(self):
        dates = self.outputs.value_dates
        seg = RegimeSegmentation(
            spans=(
                RegimeSpan(dates[0], dates[4], RegimeLabel.BULLISH),
                RegimeSpan(dates[5], dates[-1], RegimeLabel.SIDEWAYS),
            )
        )
        artifacts = render(self.outputs, seg)
        labels = {row["regime"] for row in artifacts.table_rows}
        assert labels == {"All Periods", "Bullish", "Sideways"}

    def test_short_run_resolves_to_no_segmentation(self):
        assert resolve_segmentation(self.outputs) is None

    def test_cli_report_matches_the_composition(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_journal(self.journal, str(path))
        assert main(["report", "--journal", str(path)]) == 0
        composed = render(self.outputs, resolve_segmentation(self.outputs))
        assert capsys.readouterr().out == composed.text


def report_of(journal):
    """The report the CLI renders from a journal."""
    outputs = outputs_from_journal(journal)
    return render(outputs, resolve_segmentation(outputs))


class TestSpecialCases:
    def test_single_day_run_all_periods_only(self):
        journal, _, _, _ = run_synth(1, weekly=False)
        artifacts = report_of(journal)
        assert {row["regime"] for row in artifacts.table_rows} == {"All Periods"}
        outputs = outputs_from_journal(journal)
        expected = outputs.values["decision"][-1] / outputs.values["decision"][0] - 1.0
        row = next(
            r for r in artifacts.table_rows if r["metric"] == "total_return_pct"
        )
        assert row["decision"] == f"{100.0 * expected:.2f}"
        # a single return has no dispersion: mean/std and sharpe are blank
        sharpe_row = next(r for r in artifacts.table_rows if r["metric"] == "sharpe")
        assert sharpe_row["decision"] == "--"

    def test_decision_mirroring_buy_and_hold_shows_identical_columns(self):
        journal, config, dataset, responder = run_synth(6, daily=False, weekly=False)
        days = [date.fromisoformat(d["date"]) for d in journal.days]
        plan = scripted_plan(days)
        for d in days:
            plan[f"decision:{d.isoformat()}"] = json.dumps(
                {"state": "bullish", "allocation_btc_pct": 100, "reasoning": "ride the market"}
            )
        mirrored = run_backtest(config, dataset, ScriptedResponder(plan))
        artifacts = report_of(mirrored)
        for row in artifacts.table_rows:
            if row["metric"] in ("total_return_pct", "daily_mean_std", "sharpe"):
                assert row["decision"] == row["baseline"]

    def test_fallback_days_noted(self):
        journal, config, dataset, responder = run_synth(3, daily=False, weekly=False)
        days = [d["date"] for d in journal.days]
        plan = dict(responder.responses)
        plan[f"quants:{days[1]}"] = "unusable"
        broken = run_backtest(config, dataset, ScriptedResponder(plan))
        artifacts = report_of(broken)
        assert "Fallback days" in artifacts.text
        assert "quants: 1" in artifacts.text


def test_report_accuracy_is_the_journals():
    """The report scores each recorded state against the day's BTC move, as
    the run scores `correct`: 10% books move inside the band while BTC moves
    2% a day, so scoring against a book's return would differ."""
    journal = run_synth(
        12, weekly=False, alloc_plan=lambda i: (10, 10, 10), price_step=lambda i: 0.02 if i % 2 else -0.02
    )[0]
    days = journal.days
    outputs = outputs_from_journal(journal)
    dates = outputs.value_dates
    seg = RegimeSegmentation(
        spans=(
            RegimeSpan(dates[0], dates[5], RegimeLabel.BULLISH),
            RegimeSpan(dates[6], dates[-1], RegimeLabel.SIDEWAYS),
        )
    )
    rows = {r["regime"]: r for r in render(outputs, seg).table_rows if r["metric"] == "accuracy"}
    for role in ("quants", "signals", "decision"):
        assert all(abs(d["roles"][role]["portfolio_return"]) < 0.005 for d in days)
        correct = [d["roles"][role]["correct"] for d in days]
        assert rows["All Periods"][role] == f"{days[-1]['roles'][role]['running_accuracy']:.4f}"
        # day i's return is dated dates[i + 1]: the first five days are Bullish
        assert rows["Bullish"][role] == f"{sum(correct[:5]) / 5:.4f}"
        assert rows["Sideways"][role] == f"{sum(correct[5:]) / 7:.4f}"
