import hashlib
import json
from datetime import date

import pytest

from btagents.agents import ScriptedResponder
from btagents.cli import main
from btagents.errors import CoverageError
from btagents.journal import write_journal
from btagents.orchestrator import outputs_from_journal, run_backtest
from btagents.regime import RegimeLabel, RegimeSegmentation, RegimeSpan
from btagents.report import (
    cumrets_csv,
    render,
    resolve_segmentation,
    table_csv,
)

from conftest import FIXTURE_DIR, run_synth, scripted_plan
from test_simulation_core import fees_fallback_run

REPORT_FILES = ("report.txt", "report.csv", "cumrets.csv")
# sha256 of each of REPORT_FILES, in that order, for three runs
REPORT_SHA256 = {
    "case-study": (
        "f40ee99ac74efca4908d64b033bb72a60aa99ab6eda4db10dcdaa895ad1d4d9c",
        "a49869dd9e5326f9926b2d542d737b80bf30483347f21442ded5b04c3695e948",
        "eea7dd3856c78d74230467da8d0b7af60e7e64f4d09d167513f8b49b280bb853",
    ),
    "synth-400": (
        "270226f2444e9a754dd8aeea0e33135636471467c775dc774d3d4d4edecd9167",
        "dce75cdb222057caf2bd4ca2b31639cf966394f689ec9940495ff5c6fd86c252",
        "bbef75214bcd8f873c8158e642b1237f53cf76f85461c8054d15a0196b67986c",
    ),
    "fees-fallback": (
        "108ece7de58ca7b54a3cbe1bb02ccf53eba92cb06cb7c2475f2fc1bdb1ab7094",
        "c7314ceff935fb06cee7fb84f9b9505da110af6af10f56f02320952e5f1b5fc8",
        "39c20c5426e04dd7d4e5d3fa109102ef077f2e21903eb8cba60e63dc8a647cf4",
    ),
}


def report_sha256s(out_dir):
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in REPORT_FILES)


class TestPinnedReportBytes:
    """The report files may change only in ways that leave these bytes unchanged."""

    def test_case_study_quickstart(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURE_DIR)
        out = tmp_path / "out"
        args = ["backtest", "--config", "config.json", "--fixtures", "responses.json"]
        assert main([*args, "--journal", str(tmp_path / "journal.jsonl"), "--report-dir", str(out)]) == 0
        assert report_sha256s(out) == REPORT_SHA256["case-study"]

    @pytest.mark.parametrize(
        "name, run",
        [
            ("synth-400", lambda: run_synth(400)[0]),  # several regime blocks
            ("fees-fallback", fees_fallback_run),  # a "Fallback days" line
        ],
    )
    def test_report_command(self, tmp_path, capsys, name, run):
        path, out = tmp_path / "run.jsonl", tmp_path / "out"
        write_journal(run(), str(path))
        assert main(["report", "--journal", str(path), "--out-dir", str(out)]) == 0
        assert report_sha256s(out) == REPORT_SHA256[name]


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

    def test_override_not_covering_the_run_raises(self):
        dates = self.outputs.value_dates
        seg = RegimeSegmentation(spans=(RegimeSpan(dates[1], dates[2], RegimeLabel.BULLISH),))
        with pytest.raises(CoverageError, match=f"{dates[3]} not covered"):
            render(self.outputs, resolve_segmentation(self.outputs, seg))

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
