import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import btagents
from btagents.cli import main
from btagents.journal import canonical_json, read_journal, seal, write_journal
from btagents.reflection import load_weekly_templates

from conftest import FIXTURE_DIR, run_synth
from test_simulation_core import CASE_STUDY_SHA256, leaves

# sha256 of what `backtest` prints for `write_config`'s run of the case study
CASE_STUDY_STDOUT_SHA256 = "f40ee99ac74efca4908d64b033bb72a60aa99ab6eda4db10dcdaa895ad1d4d9c"
# the case study's four data files
CASE_DATA = {name: str(FIXTURE_DIR / f"{name}.csv") for name in ("bars", "onchain", "sentiment", "news")}


def write_config(tmp_path, **overrides):
    cfg = {
        "data": dict(CASE_DATA),
        "run": {"start": "2024-11-04", "end": "2024-11-05"},
        "journal": str(tmp_path / "journal.jsonl"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def in_case_study_copy(tmp_path, monkeypatch):
    """Copy the case study's directory to `tmp_path` and work there, as the README quickstart does."""
    for path in FIXTURE_DIR.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    monkeypatch.chdir(tmp_path)


def before_each_reply(monkeypatch, hook):
    """Call `hook(bundle)` before each reply a `ScriptedResponder` gives."""
    complete = btagents.agents.ScriptedResponder.complete
    monkeypatch.setattr(btagents.agents.ScriptedResponder, "complete", lambda self, bundle: hook(bundle) or complete(self, bundle))


class TestIngest:
    """`ingest` reads a backtest's config, summarizes its inputs and takes its
    run's header: every data fault met before the first call, for no call."""

    def test_exit_zero_and_summary(self, tmp_path, capsys):
        assert main(["ingest", "--config", str(write_config(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "aligned dataset: 37 records" in out

    def test_each_file_is_read_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("load_bars", "load_onchain", "load_sentiment", "load_news"):
            loader = getattr(btagents.cli, name)
            monkeypatch.setattr(
                btagents.cli, name, lambda path, _f=loader, _n=name: calls.append(_n) or _f(path)
            )
        rows = (FIXTURE_DIR / "onchain.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        onchain = tmp_path / "onchain.csv"
        onchain.write_text("".join(rows[:10] + rows[12:]), encoding="utf-8")  # two dates carried
        config = write_config(tmp_path, data={**CASE_DATA, "onchain": str(onchain)})
        assert main(["ingest", "--config", str(config)]) == 0
        assert sorted(calls) == ["load_bars", "load_news", "load_onchain", "load_sentiment"]
        out = capsys.readouterr().out
        assert out.startswith(
            "aligned dataset: 37 records, 2024-10-01 .. 2024-11-06\n"
            "onchain: 35 rows, 2 dataset date(s) carried forward\n"
            "sentiment: 37 rows, 0 dataset date(s) carried forward\n"
            "news: 6 items after dedup\n"
            "run: 2 day(s), 2024-11-04 .. 2024-11-05, dataset digest "
        )
        assert out.count("\n") == 5

    def test_nan_close_is_runtime_error(self, tmp_path, capsys):
        bars = tmp_path / "bars.csv"
        bars.write_text(
            "date,open,high,low,close,volume\n"
            "2024-01-01,1,2,0.5,1,10\n"
            "2024-01-02,1,2,0.5,nan,10\n",
            encoding="utf-8",
        )
        assert main(["ingest", "--config", str(write_config(tmp_path, data={"bars": str(bars)}))]) == 1
        assert "close must be finite" in capsys.readouterr().err

    def test_bad_file_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bars.csv"
        bad.write_text("date,open,high,low,close,volume\n2024-01-01,1,0.5,2,1,0\n", encoding="utf-8")
        code = main(["ingest", "--config", str(write_config(tmp_path, data={"bars": str(bad)}))])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bars_with_a_leading_bom(self, tmp_path, capsys):
        bars = tmp_path / "bars.csv"
        bars.write_bytes(b"\xef\xbb\xbf" + (FIXTURE_DIR / "bars.csv").read_bytes())
        config = write_config(tmp_path, data={**CASE_DATA, "bars": str(bars)})
        assert main(["ingest", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("aligned dataset: 37 records, 2024-10-01 .. 2024-11-06\n")

    def test_news_byte_that_is_not_utf8_is_runtime_error(self, tmp_path, capsys):
        news = tmp_path / "news.csv"
        news.write_bytes(b"date,source,headline,summary\n2024-11-04,CNBC,BTC \xff rallies,x\n")
        config = write_config(tmp_path, data={"bars": CASE_DATA["bars"], "news": str(news)})
        code = main(["ingest", "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {news}:2: byte 0xff is not UTF-8\n"

    def test_case_study_summary(self, tmp_path, monkeypatch, capsys):
        """The README's `ingest` of the case study, in a copy of its directory."""
        in_case_study_copy(tmp_path, monkeypatch)
        assert main(["ingest", "--config", "config.json"]) == 0
        assert capsys.readouterr().out == (
            "aligned dataset: 37 records, 2024-10-01 .. 2024-11-06\n"
            "onchain: 37 rows, 0 dataset date(s) carried forward\n"
            "sentiment: 37 rows, 0 dataset date(s) carried forward\n"
            "news: 6 items after dedup\n"
            "run: 2 day(s), 2024-11-04 .. 2024-11-05, "
            "dataset digest 7ed55e7c7458ad1e5946fd8bca94d34aa119ccb5df20c6fccc6775bca8e28c9a\n"
        )

    def test_makes_no_call_and_writes_no_file(self, tmp_path, monkeypatch, capsys):
        calls = []
        before_each_reply(monkeypatch, calls.append)
        monkeypatch.setattr(btagents.cli, "ChatClient", lambda config: pytest.fail("ingest built a ChatClient"))
        config = write_config(tmp_path, journal=str(tmp_path / "runs" / "journal.jsonl"))
        assert main(["ingest", "--config", str(config)]) == 0
        assert calls == []
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"run": {"start": "2024-11-04", "end": "2024-11-05", "lookback_days": 5}},
                "lookback_days 5 is shorter than the indicator warm-up of 29 bars",
            ),
            ({"run": {"start": "2024-11-04", "end": "2024-11-06"}}, "need a bar after 2024-11-06 to mark the last day"),
            (
                {"data": {"bars": CASE_DATA["bars"], "onchain": CASE_DATA["onchain"]}},
                "series 'sentiment' has no value for 2024-11-04",
            ),
            ({"feedback": {"templates": "missing.json"}}, "missing.json"),
        ],
        ids=["lookback below warm-up", "no bar after the last day", "no sentiment on day 0", "no templates file"],
    )
    def test_data_fault_fails_before_any_call(self, tmp_path, monkeypatch, capsys, overrides, message):
        calls = []
        before_each_reply(monkeypatch, calls.append)
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--config", str(write_config(tmp_path, **overrides))]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("aligned dataset: 37 records")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert calls == []

    @pytest.mark.parametrize("kind", ["under-a-file", "directory"])
    def test_journal_path_backtest_rejects_fails(self, tmp_path, monkeypatch, capsys, kind):
        calls = []
        before_each_reply(monkeypatch, calls.append)
        (tmp_path / "file").write_text("", encoding="utf-8")
        (tmp_path / "dir").mkdir()
        journal = {"under-a-file": tmp_path / "file" / "runs" / "j.jsonl", "directory": tmp_path / "dir"}[kind]
        config = write_config(tmp_path, journal=str(journal))
        assert main(["ingest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {journal}: journal path ") and err.count("\n") == 1
        assert calls == []
        assert sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")) == ["config.json", "dir", "file"]

    def test_data_flags_are_gone(self, capsys):
        assert main(["ingest", "--bars", CASE_DATA["bars"]]) == 2
        assert "--config" in capsys.readouterr().err


class TestBacktest:
    def test_full_offline_run(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        report_dir = tmp_path / "out"
        code = main(
            [
                "backtest",
                "--config", str(config_path),
                "--fixtures", str(FIXTURE_DIR / "responses.json"),
                "--report-dir", str(report_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Agent performance across market regimes" in captured.out
        journal = read_journal(str(tmp_path / "journal.jsonl"))
        assert len(journal.days) == 2
        assert (report_dir / "report.txt").exists()
        assert (report_dir / "report.csv").exists()
        cumrets = (report_dir / "cumrets.csv").read_text(encoding="utf-8")
        assert cumrets.splitlines()[0] == "date,quants,signals,decision,baseline"
        assert len(cumrets.splitlines()) == 4  # header + start + two marks

    def test_journal_and_report_bytes(self, tmp_path, capsys):
        """The journal the CLI streams to disk is the library's, byte for byte."""
        report_dir = tmp_path / "out"
        args = ["backtest", "--config", str(write_config(tmp_path)), "--fixtures", str(FIXTURE_DIR / "responses.json")]
        assert main([*args, "--report-dir", str(report_dir)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256((tmp_path / "journal.jsonl").read_bytes()).hexdigest() == CASE_STUDY_SHA256
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CASE_STUDY_STDOUT_SHA256
        assert (report_dir / "report.txt").read_text(encoding="utf-8") == out

    def test_quickstart_journal_is_the_library_run(self, tmp_path, monkeypatch, capsys):
        """The README quickstart, in a copy of the case study's directory: its
        config writes `initial_value_usd` as an int, and the journal seals it as a float."""
        in_case_study_copy(tmp_path, monkeypatch)
        assert main(["backtest", "--config", "config.json", "--fixtures", "responses.json"]) == 0
        assert hashlib.sha256((tmp_path / "journal.jsonl").read_bytes()).hexdigest() == CASE_STUDY_SHA256

    def test_journal_temp_file_is_open_at_every_call(self, tmp_path, capsys, monkeypatch):
        temp_files = []
        before_each_reply(monkeypatch, lambda bundle: temp_files.append(len(list(tmp_path.glob("*.tmp")))))
        assert main(["backtest", "--config", str(write_config(tmp_path)), "--fixtures", str(FIXTURE_DIR / "responses.json")]) == 0
        assert temp_files == [1] * 8  # four calls on each of two days
        assert list(tmp_path.glob("*.tmp")) == []

    def test_data_fault_makes_no_journal_directory(self, tmp_path, capsys):
        run = {"start": "2024-11-04", "end": "2024-11-05", "lookback_days": 5}  # below the warm-up
        config = write_config(tmp_path, run=run, journal=str(tmp_path / "runs" / "journal.jsonl"))
        assert main(["backtest", "--config", str(config), "--fixtures", str(FIXTURE_DIR / "responses.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lookback_days 5 is shorter than the indicator warm-up") and err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("kind", ["under-a-file", "directory"])
    def test_journal_path_that_cannot_be_written_fails_before_any_call(self, tmp_path, capsys, monkeypatch, kind):
        calls = []
        before_each_reply(monkeypatch, calls.append)
        (tmp_path / "file").write_text("", encoding="utf-8")
        (tmp_path / "dir").mkdir()
        named, journal = {
            "under-a-file": (tmp_path / "file", tmp_path / "file" / "j.jsonl"),
            "directory": (tmp_path / "dir", tmp_path / "dir"),
        }[kind]
        args = ["backtest", "--config", str(write_config(tmp_path)), "--journal", str(journal)]
        assert main([*args, "--fixtures", str(FIXTURE_DIR / "responses.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(named) in err
        assert calls == []
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_reply_with_lone_surrogate_falls_back_and_replays(self, tmp_path, capsys):
        responses = json.loads((FIXTURE_DIR / "responses.json").read_text(encoding="utf-8"))
        responses["quants:2024-11-04"] += " \ud800"
        fixtures = tmp_path / "responses.json"
        fixtures.write_text(json.dumps(responses), encoding="utf-8")
        journal_path = str(tmp_path / "journal.jsonl")
        args = ["backtest", "--config", str(write_config(tmp_path)), "--fixtures", str(fixtures)]
        assert main(args) == 0
        backtest_out = capsys.readouterr().out
        quants = read_journal(journal_path).days[0]["roles"]["quants"]
        assert quants["fallback"] is True
        assert quants["attempts"] == [
            {
                "raw": None,
                "error": "SchemaError: reply is not valid Unicode text: "
                f"surrogates not allowed at position {len(responses['quants:2024-11-04']) - 1}",
            }
        ]
        assert main(["replay", "--journal", journal_path]) == 0
        assert capsys.readouterr().out == backtest_out

    def test_missing_config_flag_is_usage_error(self, capsys):
        assert main(["backtest"]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 2

    def test_nonexistent_config_is_runtime_error(self, tmp_path, capsys):
        code = main(["backtest", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_invalid_config_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["backtest", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_fixture_that_is_not_json_is_runtime_error(self, tmp_path, capsys):
        fixtures = tmp_path / "responses.json"
        fixtures.write_text("{not json", encoding="utf-8")
        assert main(["backtest", "--config", str(write_config(tmp_path)), "--fixtures", str(fixtures)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {fixtures}: fixture is not UTF-8 JSON: ")
        assert not (tmp_path / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "kind, reason",
        [
            ("config", "config is not valid JSON: "),
            ("fixtures", "fixture is not UTF-8 JSON: "),
            ("templates", "weekly templates are not UTF-8 JSON: "),
        ],
        ids=["config", "fixtures", "templates"],
    )
    def test_file_nested_too_deeply_is_runtime_error(self, tmp_path, capsys, kind, reason):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        feedback = {"templates": str(deep)} if kind == "templates" else {}
        files = {"config": write_config(tmp_path, feedback=feedback), "fixtures": FIXTURE_DIR / "responses.json", kind: deep}
        assert main(["backtest", "--config", str(files["config"]), "--fixtures", str(files["fixtures"])]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {deep}: {reason}") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "journal.jsonl").exists()

    def test_reply_nested_too_deeply_falls_back_and_replays(self, tmp_path, capsys):
        responses = json.loads((FIXTURE_DIR / "responses.json").read_text(encoding="utf-8"))
        responses["decision:2024-11-04"] = '{"a":' * 50_000 + responses["decision:2024-11-04"]
        fixtures = tmp_path / "responses.json"
        fixtures.write_text(json.dumps(responses), encoding="utf-8")
        journal_path = str(tmp_path / "journal.jsonl")
        args = ["backtest", "--config", str(write_config(tmp_path)), "--fixtures", str(fixtures)]
        assert main(args) == 0
        backtest_out = capsys.readouterr().out
        decision = read_journal(journal_path).days[0]["roles"]["decision"]
        assert decision["fallback"] is True
        assert [a["error"] for a in decision["attempts"]] == [
            "ParseError: decision: JSON nested too deeply to decode"
        ] * 2
        assert main(["replay", "--journal", journal_path]) == 0
        assert capsys.readouterr().out == backtest_out

    def test_close_out_of_float_range_fails_before_any_call(self, tmp_path, capsys):
        text = (FIXTURE_DIR / "bars.csv").read_text(encoding="utf-8")
        row = "2024-11-05,62500.00,64666.80,61937.50,63900.00,14994.94"
        assert row in text
        bars = tmp_path / "bars.csv"
        bars.write_text(text.replace(row, "2024-11-05,1e200,1e200,1e200,1e200,14994.94"), encoding="utf-8")
        data = {name: str(FIXTURE_DIR / f"{name}.csv") for name in ("onchain", "sentiment", "news")}
        config = write_config(tmp_path, data={**data, "bars": str(bars)})
        fixtures = str(FIXTURE_DIR / "responses.json")
        assert main(["backtest", "--config", str(config), "--fixtures", fixtures]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 2024-11-05: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "journal.jsonl").exists()

    def test_extreme_marking_close_fails_after_the_journal_is_written(self, tmp_path, capsys):
        # the bar that marks the last day lies in no gauge window, so only the report sees it
        text = (FIXTURE_DIR / "bars.csv").read_text(encoding="utf-8")
        row = "2024-11-06,63900.00,66792.00,63324.90,66000.00,15685.03"
        assert row in text
        bars = tmp_path / "bars.csv"
        bars.write_text(text.replace(row, "2024-11-06,63900.00,1e200,63324.90,1e200,15685.03"), encoding="utf-8")
        data = {name: str(FIXTURE_DIR / f"{name}.csv") for name in ("onchain", "sentiment", "news")}
        config = write_config(tmp_path, data={**data, "bars": str(bars)})
        fixtures = str(FIXTURE_DIR / "responses.json")
        assert main(["backtest", "--config", str(config), "--fixtures", fixtures]) == 1
        journal_path = tmp_path / "journal.jsonl"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"journal written to {journal_path}\n"
            "error: the spread of the daily returns is outside the float range\n"
        )
        assert read_journal(str(journal_path)).days[-1]["next_close"] == 1e200

    def test_marking_close_past_the_baselines_float_range_fails_before_any_call(self, tmp_path, capsys):
        # 1e308 is a float, but the baselines' initial * close / p0 overflows
        text = (FIXTURE_DIR / "bars.csv").read_text(encoding="utf-8")
        row = "2024-11-06,63900.00,66792.00,63324.90,66000.00,15685.03"
        assert row in text
        bars = tmp_path / "bars.csv"
        bars.write_text(text.replace(row, "2024-11-06,63900.00,1e308,63324.90,1e308,15685.03"), encoding="utf-8")
        data = {name: str(FIXTURE_DIR / f"{name}.csv") for name in ("onchain", "sentiment", "news")}
        config = write_config(tmp_path, data={**data, "bars": str(bars)})
        assert main(["backtest", "--config", str(config), "--fixtures", str(FIXTURE_DIR / "responses.json")]) == 1
        assert capsys.readouterr().err == (
            "error: 2024-11-05: the BTC return or a baseline is outside the float range\n"
        )
        assert not (tmp_path / "journal.jsonl").exists()

    # 5e-324 is the least float above 0, and half of it rounds to 0; 1e-320 is
    # subnormal, and a run from it reported 0.00% for every agent with exit 0
    @pytest.mark.parametrize("value", [5e-324, 1e-320], ids=["least-float", "subnormal"])
    def test_initial_value_below_one_cent_is_a_config_error(self, tmp_path, capsys, value):
        run = {"start": "2024-11-04", "end": "2024-11-05", "initial_value_usd": value}
        args = ["backtest", "--config", str(write_config(tmp_path, run=run)), "--fixtures", str(FIXTURE_DIR / "responses.json")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'config.json'}: config key 'initial_value_usd' must be >= 0.01\n"
        assert not (tmp_path / "journal.jsonl").exists()

    def test_neutral_band_past_the_float_range_in_percent_is_a_config_error(self, tmp_path, capsys):
        # the report prints the band in percent, and 100 * 1e308 is inf
        run = {"start": "2024-11-04", "end": "2024-11-05", "neutral_band": 1e308}
        args = ["backtest", "--config", str(write_config(tmp_path, run=run)), "--fixtures", str(FIXTURE_DIR / "responses.json")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'config.json'}: config key 'neutral_band' must be finite in percent\n"
        assert not (tmp_path / "journal.jsonl").exists()


class TestReplayAndReport:
    @pytest.fixture()
    def journal_path(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert (
            main(
                [
                    "backtest",
                    "--config", str(config_path),
                    "--fixtures", str(FIXTURE_DIR / "responses.json"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return str(tmp_path / "journal.jsonl")

    def test_replay_matches_report(self, journal_path, capsys):
        assert main(["replay", "--journal", journal_path]) == 0
        replay_out = capsys.readouterr().out
        assert main(["report", "--journal", journal_path]) == 0
        report_out = capsys.readouterr().out
        assert replay_out == report_out

    def test_report_writes_files(self, journal_path, tmp_path, capsys):
        out_dir = tmp_path / "report_out"
        assert main(["report", "--journal", journal_path, "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "report.txt").read_text(encoding="utf-8") == capsys.readouterr().out

    def test_neutral_band_flag_changes_accuracy(self, journal_path, capsys):
        assert main(["report", "--journal", journal_path]) == 0
        base = capsys.readouterr().out
        assert main(["report", "--journal", journal_path, "--neutral-band", "0.10"]) == 0
        wide = capsys.readouterr().out
        assert base != wide

    @pytest.mark.parametrize("command", ["replay", "report"])
    def test_neutral_band_rescores_the_recorded_btc_moves(self, command, journal_path, capsys):
        # BTC moved +2.24% and +3.29%: one move inside a 3% band, one outside
        assert main([command, "--journal", journal_path, "--neutral-band", "0.03"]) == 0
        accuracy = next(line for line in capsys.readouterr().out.splitlines() if "Accuracy" in line)
        assert accuracy.split()[1:] == ["0.0000", "0.5000", "1.0000", "--"]

    @pytest.mark.parametrize("band", ["-0.5", "nan", "inf", "1e308"])
    @pytest.mark.parametrize("command", ["replay", "report"])
    def test_bad_neutral_band_is_runtime_error(self, command, band, journal_path, capsys):
        assert main([command, "--journal", journal_path, f"--neutral-band={band}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "config key 'neutral_band'" in captured.err

    @pytest.mark.parametrize("command", ["replay", "report"])
    def test_corrupt_journal_fails(self, command, journal_path, capsys):
        with open(journal_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        record = json.loads(lines[1])
        record["close"] = 1.0
        lines[1] = json.dumps(record)
        with open(journal_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main([command, "--journal", journal_path]) == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_resealed_raw_edit_fails_replay(self, journal_path, capsys):
        def add_prose(day):
            day["roles"]["quants"]["raw"] += " and some added prose"

        reseal_line(journal_path, 1, add_prose)
        assert main(["report", "--journal", journal_path]) == 0
        capsys.readouterr()
        assert main(["replay", "--journal", journal_path]) == 1
        assert "not the last attempt's" in capsys.readouterr().err

    def test_resealed_reflect_reply_edit_fails_replay(self, journal_path, capsys):
        def edit_reply(day):
            attempt = day["reflect"]["attempts"][0]
            attempt["raw"] = json.dumps({**json.loads(attempt["raw"]), "quants": "another note"})

        reseal_line(journal_path, 1, edit_reply)
        assert main(["replay", "--journal", journal_path]) == 1
        assert "recorded feedback is not the last reply's" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay", "report"])
    def test_value_inside_the_float_range_that_overflows_the_report(self, command, tmp_path, capsys):
        path = str(tmp_path / "synth.jsonl")
        write_journal(run_synth(14)[0], path)
        reseal_line(path, 4, lambda day: day["roles"]["decision"]["portfolio"].update(value_usd=1e308))
        assert main([command, "--journal", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == {
            "report": "error: the spread of the daily returns is outside the float range\n",
            "replay": "error: 2024-02-05 decision: recorded portfolio does not reproduce\n",
        }[command]

    def test_segmentation_override(self, journal_path, tmp_path, capsys):
        seg = tmp_path / "seg.csv"
        seg.write_text(
            "start_date,end_date,label\n2024-11-04,2024-11-06,Bullish\n", encoding="utf-8"
        )
        assert main(["report", "--journal", journal_path, "--segmentation", str(seg)]) == 0
        out = capsys.readouterr().out
        assert "Bullish" in out

    def test_segmentation_with_a_leading_bom(self, journal_path, tmp_path, capsys):
        text = "start_date,end_date,label\n2024-11-04,2024-11-06,Bullish\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert main(["report", "--journal", journal_path, "--segmentation", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["report", "--journal", journal_path, "--segmentation", str(marked)]) == 0
        assert capsys.readouterr().out == expected

    def test_segmentation_byte_that_is_not_utf8_is_runtime_error(self, journal_path, tmp_path, capsys):
        seg = tmp_path / "seg.csv"
        seg.write_bytes(b"start_date,end_date,label\n2024-11-04,2024-11-06,Bull\xffish\n")
        assert main(["report", "--journal", journal_path, "--segmentation", str(seg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {seg}:2: byte 0xff is not UTF-8\n"


def reseal_line(journal_path, index, edit):
    with open(journal_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    record = json.loads(lines[index])
    edit(record)
    record.pop("digest")
    lines[index] = json.dumps(seal(record))
    with open(journal_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reseal_header(journal_path, edit):
    reseal_line(journal_path, 0, edit)


class TestStrictConfig:
    def run_backtest(self, tmp_path, **overrides):
        return self.run_backtest_at(write_config(tmp_path, **overrides))

    @staticmethod
    def run_backtest_at(config_path):
        return main(
            [
                "backtest",
                "--config", str(config_path),
                "--fixtures", str(FIXTURE_DIR / "responses.json"),
            ]
        )

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"run": {"start": "2024-11-04", "end": "2024-11-05", "neutal_band": 0.01}}, "neutal_band"),
            ({"feedback": {"dialy": False}}, "dialy"),
            ({"indicators": {"sma_windw": 10}}, "sma_windw"),
            ({"client": {"model": "x"}}, "model"),
            ({"jounral": "j.jsonl"}, "jounral"),
        ],
    )
    def test_unknown_key_is_runtime_error(self, tmp_path, capsys, overrides, key):
        assert self.run_backtest(tmp_path, **overrides) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert not (tmp_path / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "section, keys, key",
        [
            ("feedback", {"fee_bps": 7}, "fee_bps"),
            ("run", {"daily_feedback": False}, "daily_feedback"),
            ("run", {"client": {"model_name": "x"}}, "client"),
        ],
    )
    def test_key_of_another_section_is_runtime_error(self, tmp_path, capsys, section, keys, key):
        cfg = {"run": {"start": "2024-11-04", "end": "2024-11-05"}}
        cfg.setdefault(section, {}).update(keys)
        assert self.run_backtest(tmp_path, **cfg) == 1
        assert f"unknown config key '{key}' in section '{section}'" in capsys.readouterr().err
        assert not (tmp_path / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "start, end, bad",
        [("20241104", "2024-11-05", "20241104"), ("2024-11-04", "2024-W45-2", "2024-W45-2")],
        ids=["basic", "week"],
    )
    def test_date_not_spelled_yyyy_mm_dd_is_runtime_error(self, tmp_path, capsys, start, end, bad):
        """Python 3.11 and later read both spellings as dates, 3.10 does not;
        a config date is `YYYY-MM-DD` on every supported Python."""
        config = write_config(tmp_path, run={"start": start, "end": end})
        assert self.run_backtest_at(config) == 1
        assert capsys.readouterr().err == f"error: {config}: bad config: Invalid isoformat string: '{bad}'\n"
        assert not (tmp_path / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"run": {"start": "2024-11-04", "end": "2024-11-05", "neutral_band": "0.01"}},
            {"run": {"start": "2024-11-04", "end": "2024-11-05", "lookback_days": 30.5}},
            {"run": {"start": "2024-11-05", "end": "2024-11-04"}},
            {"run": {"start": "11/04/2024", "end": "2024-11-05"}},
            {"run": {"end": "2024-11-05"}},
            {"feedback": {"daily": "yes"}},
            {"regime": {"ma_window": 1}},
            {"regime": {"slope_lookback": 0}},
            {"regime": {"min_span_days": 0}},
            {"regime": {"slope_threshold": -0.01}},
            {"client": {"max_retries": -1}},
            {"client": {"timeout": 0}},
            {"client": {"timeout": -1.5}},
            {"client": {"timeout": 1e10}},
            {"indicators": [20]},
            {"indicators": {"macd_fast": 30}},
            {"indicators": {"rsi_window": 0}},
            {"indicators": {"bb_k": 0}},
        ],
    )
    def test_bad_value_is_runtime_error(self, tmp_path, capsys, overrides):
        assert self.run_backtest(tmp_path, **overrides) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "journal.jsonl").exists()
        ((section, keys),) = overrides.items()
        if section in ("client", "regime", "indicators") and isinstance(keys, dict):
            ((key, _),) = keys.items()
            assert err.startswith(f"error: {tmp_path / 'config.json'}: config key '{key}' must be ")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("journal", 3),
            ("journal", ""),
            ("data.bars", 3),
            ("data.bars", ["bars.csv"]),
            ("data.bars", ""),
            ("data.onchain", True),
            ("data.sentiment", 1),
            ("data.news", 0),
            ("data.news", ""),
        ],
    )
    def test_path_that_is_not_a_string_is_runtime_error(self, tmp_path, capsys, key, value):
        data = {"bars": str(FIXTURE_DIR / "bars.csv")}
        if key == "journal":
            path = write_config(tmp_path, data=data, journal=value)
        else:
            path = write_config(tmp_path, data={**data, key.removeprefix("data."): value})
        assert self.run_backtest_at(path) == 1
        assert capsys.readouterr().err == f"error: {path}: config key '{key}' must be a file path\n"
        assert not (tmp_path / "journal.jsonl").exists()

    def test_null_news_path_runs_without_news(self, tmp_path, capsys):
        data = {name: str(FIXTURE_DIR / f"{name}.csv") for name in ("bars", "onchain", "sentiment")}
        assert self.run_backtest(tmp_path, data={**data, "news": None}) == 0
        assert len(read_journal(str(tmp_path / "journal.jsonl")).days) == 2

    def test_api_key_no_header_can_carry_stops_the_live_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BTAGENTS_API_KEY", "s3cret\n")
        assert main(["backtest", "--config", str(write_config(tmp_path))]) == 1
        assert capsys.readouterr().err == (
            "error: environment variable 'BTAGENTS_API_KEY' holds a character an HTTP header cannot carry\n"
        )
        assert not (tmp_path / "journal.jsonl").exists()

    def test_unknown_gap_policy_is_runtime_error(self, tmp_path, capsys):
        data = {"bars": str(FIXTURE_DIR / "bars.csv"), "gap_policy": "fill"}
        assert self.run_backtest(tmp_path, data=data) == 1
        assert "config key 'data.gap_policy' must be 'carry' or 'strict'" in capsys.readouterr().err
        assert not (tmp_path / "journal.jsonl").exists()

    def test_lone_surrogate_is_runtime_error(self, tmp_path, capsys):
        path = write_config(tmp_path, client={"model_name": "SURROGATE"})
        path.write_text(path.read_text(encoding="utf-8").replace("SURROGATE", "\\ud800"), encoding="utf-8")
        assert self.run_backtest_at(path) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: config text holds a lone surrogate")
        assert not (tmp_path / "journal.jsonl").exists()

    def test_weekly_template_with_lone_surrogate_is_runtime_error(self, tmp_path, capsys):
        templates = tmp_path / "templates.json"
        pool = load_weekly_templates()
        pool["signals"]["neutral"] = "SURROGATE"
        templates.write_text(json.dumps(pool).replace("SURROGATE", "\\udfff"), encoding="utf-8")
        assert self.run_backtest(tmp_path, feedback={"templates": str(templates)}) == 1
        assert capsys.readouterr().err == (
            f"error: {templates}: weekly template signals/neutral must be a non-empty UTF-8 string\n"
        )
        assert not (tmp_path / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "key, value", [("parse_retry_limit", -1), ("neutral_band", -0.5), ("fee_bps", -5), ("fee_bps", 10_000)]
    )
    def test_negative_value_is_runtime_error(self, tmp_path, capsys, key, value):
        assert self.run_backtest(tmp_path, run={"start": "2024-11-04", "end": "2024-11-05", key: value}) == 1
        bound = "< 10000" if value >= 10_000 else ">= 0"
        assert f"'{key}' must be {bound}" in capsys.readouterr().err
        assert not (tmp_path / "journal.jsonl").exists()

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"run": {"start": "2024-11-04", "end": "2024-11-05", "fee_bps": 0.125}}, "fee_bps"),
            ({"client": {"timeout": 0.125}}, "timeout"),
        ],
    )
    def test_non_finite_number_is_runtime_error(self, tmp_path, capsys, overrides, key, text):
        path = write_config(tmp_path, **overrides)
        path.write_text(path.read_text(encoding="utf-8").replace("0.125", text), encoding="utf-8")
        assert self.run_backtest_at(path) == 1
        assert f"config key '{key}' has a bad value" in capsys.readouterr().err
        assert not (tmp_path / "journal.jsonl").exists()

    def test_readme_example_loads(self, tmp_path, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config file", 1)[1]
        example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        example["data"] = {
            "bars": str(FIXTURE_DIR / "bars.csv"),
            "onchain": str(FIXTURE_DIR / "onchain.csv"),
            "sentiment": str(FIXTURE_DIR / "sentiment.csv"),
            "news": str(FIXTURE_DIR / "news.csv"),
            "gap_policy": example["data"]["gap_policy"],
        }
        example["journal"] = str(tmp_path / "journal.jsonl")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(example), encoding="utf-8")
        assert main(["backtest", "--config", str(path), "--fixtures", str(FIXTURE_DIR / "responses.json")]) == 0
        assert len(read_journal(example["journal"]).days) == 2


class TestForeignJournalHeader:
    @pytest.fixture()
    def journal_path(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        args = ["backtest", "--config", str(config_path), "--fixtures", str(FIXTURE_DIR / "responses.json")]
        assert main(args) == 0
        capsys.readouterr()
        return str(tmp_path / "journal.jsonl")

    def test_unknown_config_key_in_header(self, journal_path, capsys):
        reseal_header(journal_path, lambda h: h["config"].update(neutal_band=0.01))
        assert main(["replay", "--journal", journal_path]) == 1
        assert "'neutal_band'" in capsys.readouterr().err

    def test_foreign_version(self, journal_path, capsys):
        reseal_header(journal_path, lambda h: h.update(version=99))
        assert main(["replay", "--journal", journal_path]) == 1
        assert "journal version 99" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["replay", "report"])
class TestMalformedJournal:
    """Sealed journals whose records lack a field or have one of the wrong type."""

    @pytest.fixture()
    def journal_path(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        args = ["backtest", "--config", str(config_path), "--fixtures", str(FIXTURE_DIR / "responses.json")]
        assert main(args) == 0
        capsys.readouterr()
        return str(tmp_path / "journal.jsonl")

    def fails(self, command, journal_path, capsys, message):
        assert main([command, "--journal", journal_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_header_without_config(self, command, journal_path, capsys):
        reseal_header(journal_path, lambda h: h.pop("config"))
        self.fails(command, journal_path, capsys, "field config is missing")

    def test_n_days_not_an_int(self, command, journal_path, capsys):
        reseal_header(journal_path, lambda h: h.update(n_days=str(h["n_days"])))
        self.fails(command, journal_path, capsys, "field n_days is missing, of the wrong type or out of range")

    def test_day_without_roles(self, command, journal_path, capsys):
        reseal_line(journal_path, 1, lambda day: day.pop("roles"))
        self.fails(command, journal_path, capsys, "journal line 2: field roles is missing")

    @pytest.mark.parametrize(
        "path, number",
        [
            (("roles", "decision", "portfolio", "value_usd"), float("nan")),
            (("baseline", "static5050_value"), 10**400),
            (("next_close",), float("inf")),
            (("roles", "quants", "confidence"), float("-inf")),
        ],
        ids=["nan", "1e400", "inf", "-inf"],
    )
    def test_number_out_of_float_range(self, command, journal_path, capsys, path, number):
        def edit(day):
            for key in path[:-1]:
                day = day[key]
            day[path[-1]] = number

        reseal_line(journal_path, 1, edit)
        assert main([command, "--journal", journal_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: journal line 2: field {'.'.join(path)} is missing, of the wrong type or out of range\n"
        )

    @pytest.mark.parametrize("key", ["close", "next_close"])
    @pytest.mark.parametrize("price", [0.0, -63900.0])
    def test_close_not_above_0(self, command, journal_path, capsys, key, price):
        reseal_line(journal_path, 1, lambda day: day.update({key: price}))
        assert main([command, "--journal", journal_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: journal line 2: field {key} is not above 0\n"

    def test_day_that_ends_on_its_own_date(self, command, tmp_path, capsys):
        # day 5 starts where day 4 ends, so only the order of dates is broken
        path = str(tmp_path / "six_days.jsonl")
        write_journal(run_synth(6, weekly=False)[0], path)
        start = read_journal(path).days[4]["date"]
        reseal_line(path, 5, lambda day: day.update(next_date=start))
        reseal_line(path, 6, lambda day: day.update(date=start))
        assert main([command, "--journal", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: day record 4 ({start}) does not end after it starts\n"

    def test_first_line_not_an_object(self, command, journal_path, capsys):
        with open(journal_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(journal_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(["3"] + lines[1:]) + "\n")
        self.fails(command, journal_path, capsys, ":1: not a JSON object")


SRC = str(Path(btagents.__file__).resolve().parents[1])


def fresh_python(code: str) -> str:
    """Run `code` in a new interpreter that imports the package from this checkout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportBoundary:
    """Offline commands never load the HTTP stack; a live client still does."""

    def test_offline_commands_never_import_requests(self, tmp_path):
        config_path = write_config(tmp_path)
        journal_path = tmp_path / "journal.jsonl"
        code = f"""
import sys
import btagents, btagents.cli, btagents.report
from btagents.cli import main
codes = [
    main(["ingest", "--config", {str(config_path)!r}]),
    main(["backtest", "--config", {str(config_path)!r}, "--fixtures", {str(FIXTURE_DIR / "responses.json")!r}]),
    main(["replay", "--journal", {str(journal_path)!r}, "--out-dir", {str(tmp_path / "replay")!r}]),
    main(["report", "--journal", {str(journal_path)!r}, "--out-dir", {str(tmp_path / "report")!r}]),
]
print(codes, "requests" in sys.modules)
"""
        assert fresh_python(code).splitlines()[-1] == "[0, 0, 0, 0] False"
        assert (tmp_path / "replay" / "report.txt").read_text(encoding="utf-8") == (
            tmp_path / "report" / "report.txt"
        ).read_text(encoding="utf-8")

    def test_live_client_loads_requests_session(self):
        code = """
import sys
from btagents import ChatClient
from btagents.transport import ChatClientConfig
before = "requests" in sys.modules
client = ChatClient(ChatClientConfig())
import requests
print(before, isinstance(client._session, requests.Session))
"""
        assert fresh_python(code).splitlines()[-1] == "False True"


# ---------------------------------------------------------------------------
# a seeded property over resealed journal leaves: whatever one or two leaves of
# a sealed journal hold, `report` and `replay` exit 0, or 1 with one error line

# 59 days leave 60 closes, enough for `report` to segment them at the default RegimeParams
PROPERTY_JOURNAL = run_synth(59)[0]
PROPERTY_RECORDS = [PROPERTY_JOURNAL.header, *PROPERTY_JOURNAL.entries]
# day 48's next_close is the 50th close; minus the sum of the 49 before it, it
# makes the moving average of the first regime window 0
DAY_48 = next(i for i, r in enumerate(PROPERTY_RECORDS) if r.get("type") == "day" and r["seq"] == 48)
ZEROING_CLOSE = -sum([PROPERTY_JOURNAL.days[0]["close"], *(day["next_close"] for day in PROPERTY_JOURNAL.days[:48])])
PROPERTY_LEAVES = [(line, path) for line, record in enumerate(PROPERTY_RECORDS) for path in leaves(record)]
# a typed pool: each JSON type, the edges of the int and float ranges, and texts
# that are a market state, a date no calendar has, or not ASCII
LEAF_VALUES = (
    None, True, False,
    0, -1, 2**63, 10**20,
    0.0, -0.0, 1.5, 1e308, -1e308, 5e-324,
    "", "x", "bullish", "2024-13-40", "Grüße € \U0001d11e",
    [], {},
)


def resealed_journal(path, edits):
    """Write the 59-day journal with each (line, leaf path, value) edit made and its record resealed."""
    records = json.loads(json.dumps(PROPERTY_RECORDS))
    for line, leaf, value in edits:
        owner = records[line]
        for key in leaf[:-1]:
            owner = owner[key]
        owner[leaf[-1]] = value
    for line in {edit[0] for edit in edits}:
        records[line].pop("digest")
        records[line] = seal(records[line])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(canonical_json(record) + "\n" for record in records)


@settings(
    max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(PROPERTY_LEAVES), st.sampled_from(LEAF_VALUES)).map(lambda e: (*e[0], e[1])),
        min_size=1,
        max_size=2,
    )
)
@example(edits=[(4, ("roles", "decision", "portfolio", "value_usd"), 1e308)])  # day 3's decision book
@example(edits=[(DAY_48, ("next_close",), ZEROING_CLOSE)])
# odd shapes at the sites where a read keeps one copy of a repeated text (record 8 is
# the first weekly record, record 9 the day after it)
@example(edits=[(9, ("roles",), ["quants", "signals", "decision"])])
@example(edits=[(9, ("roles", "quants", "attempts"), [])])
@example(edits=[(9, ("roles", "quants", "raw"), 3)])
@example(edits=[(9, ("reflect",), "x")])
@example(edits=[(8, ("texts",), None)])
def test_resealed_leaves_exit_cleanly(tmp_path, edits):
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:  # a new file: rewriting one can wait on the disk
        path = str(Path(root) / "edited.jsonl")
        resealed_journal(path, edits)
        for command in ("report", "replay"):
            exits_cleanly([command, "--journal", path])


def exits_cleanly(argv):
    """`main(argv)` returns 0 or 1, and on 1 prints one `error:` line; a
    backtest may print the line naming its journal once, first. An exception
    fails the test. Returns the exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        text = err.getvalue()
        if argv[0] == "backtest" and text.startswith("journal written to "):
            text = text.partition("\n")[2]
        assert text.startswith("error: ") and text.count("\n") == 1, err.getvalue()
    return code


# ---------------------------------------------------------------------------
# seeded properties over edited inputs: whatever one or two edits make of the
# case study's files, `backtest` exits cleanly, and so do `report` and
# `replay` whatever one to three byte edits make of a 14-day journal

CASE_CSV = {
    name: list(csv.reader(io.StringIO((FIXTURE_DIR / name).read_text(encoding="utf-8"))))
    for name in ("bars.csv", "onchain.csv", "sentiment.csv", "news.csv")
}
CASE_CELLS = [(name, row, col) for name, rows in CASE_CSV.items() for row in range(len(rows)) for col in range(len(rows[row]))]
CELL_VALUES = (
    "", " ", "0", "-1", "-0", "1e-320", "1e400", "nan", "inf", "99999999999999999999",
    "2024-11-05", "2024-13-40", "20241105", "x", "Grüße € \U0001d11e", '"', "a,b", "a\nb", "\0", "9" * 2**17 + "9",
)
CONFIG_KEYS = (
    ("data", "bars"), ("data", "news"), ("data", "gap_policy"), ("data",), ("journal",), ("bogus",),
    ("run", "start"), ("run", "end"), ("run", "initial_value_usd"), ("run", "lookback_days"),
    ("run", "neutral_band"), ("run", "fee_bps"), ("run", "parse_retry_limit"), ("run", "bogus"),
    ("feedback", "daily"), ("feedback", "weekly"), ("feedback", "regret_threshold"), ("feedback", "templates"),
    ("indicators", "rsi_window"), ("indicators", "bb_k"), ("indicators", "macd_fast"), ("regime", "ma_window"),
    ("regime", "slope_threshold"), ("client", "timeout"), ("client", "max_retries"), ("client", "model_name"),
)
# a typed pool: each JSON type, values that are no file path, and numbers past the float range
CONFIG_VALUES = (
    None, True, False, 0, -1, 1, 7, 2.5, 1e308, 10**400, "", "x", "carry", "strict",
    "2024-10-01", "2024-11-05", "2024-11-06", "\ud800", [], {}, ["bars.csv"],
)
CASE_REPLIES = json.loads((FIXTURE_DIR / "responses.json").read_text(encoding="utf-8"))
DROPPED = object()  # a reply edit that deletes the reply
REPLY_VALUES = (
    DROPPED, None, 7, [], "", "x", "{", "{}", "{" * 5000, "Grüße \ud800",
    '{"state": "bullish", "allocation_btc_pct": 1e400, "reasoning": "r"}',
    '{"state": "bullish", "allocation_btc_pct": NaN, "reasoning": "r"}',
    '{"state": "bullish", "allocation_btc_pct": 101, "reasoning": "r"}',
    '{"quants": "q", "signals": "s", "decision": 5}',
)
TEMPLATES = (Path(btagents.__file__).parent / "templates" / "weekly_templates.json").read_text(encoding="utf-8")
# each makes a templates file of the packaged text and a number k
TEMPLATE_EDITS = (
    lambda text, k: json.dumps([k]),
    lambda text, k: json.dumps({**json.loads(text), "signals": k}),
    lambda text, k: json.dumps({**json.loads(text), "quants": {**json.loads(text)["quants"], "neutral": k}}),
    lambda text, k: text.replace('": "', '": "\\ud800', 1),  # an escape for a lone surrogate
    lambda text, k: "[" * (k * 50) + "]" * (k * 50),
    lambda text, k: text[:k],
    lambda text, k: text[:k] + "}" + text[k + 1 :],
)
FILE_EDIT = st.one_of(
    st.tuples(st.just("cell"), st.sampled_from(CASE_CELLS), st.sampled_from(CELL_VALUES)),
    st.tuples(st.just("config"), st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES)),
    st.tuples(st.just("reply"), st.sampled_from(sorted(CASE_REPLIES)), st.sampled_from(REPLY_VALUES)),
    st.tuples(st.just("templates"), st.sampled_from(TEMPLATE_EDITS), st.integers(0, len(TEMPLATES))),
)


def edited_case(root: Path, edits, csv_bytes=None) -> list[str]:
    """Write the case study under `root`, every path in its config absolute,
    with each (kind, where, what) edit made, and with the CSV files `csv_bytes`
    holds, if given, in place of its tables; returns its backtest arguments."""
    tables = {name: [row[:] for row in rows] for name, rows in CASE_CSV.items()}
    config = json.loads((FIXTURE_DIR / "config.json").read_text(encoding="utf-8"))
    for key in ("bars", "onchain", "sentiment", "news"):
        config["data"][key] = str(root / config["data"][key])
    config["feedback"]["templates"] = str(root / "templates.json")
    replies, templates = dict(CASE_REPLIES), TEMPLATES
    for kind, where, what in edits:
        if kind == "cell":
            name, row, col = where
            tables[name][row][col] = what
        elif kind == "config":
            owner = config
            for key in where[:-1]:
                owner = owner.get(key) if isinstance(owner, dict) else None
            if isinstance(owner, dict):
                owner[where[-1]] = what
        elif kind == "reply":
            if what is DROPPED:
                replies.pop(where, None)
            else:
                replies[where] = what
        else:
            templates = where(TEMPLATES, what)
    for name, rows in tables.items():
        if csv_bytes is not None:
            (root / name).write_bytes(csv_bytes[name])
            continue
        with open(root / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    (root / "templates.json").write_text(templates, encoding="utf-8")
    (root / "responses.json").write_text(json.dumps(replies), encoding="utf-8")
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    # the journal goes where --journal says, whatever the edited config names
    return ["--config", str(root / "config.json"), "--fixtures", str(root / "responses.json"), "--journal", str(root / "journal.jsonl")]


def test_the_unedited_case_runs(tmp_path):
    assert main(["backtest", *edited_case(tmp_path, [])]) == 0


@settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(edits=st.lists(FILE_EDIT, min_size=1, max_size=2))
@example(edits=[("cell", ("bars.csv", 37, col), "1e200") for col in (2, 4)])  # the 2024-11-06 marking bar
def test_edited_inputs_exit_cleanly(tmp_path, edits):
    """`ingest` of the edited case exits cleanly too, and fails only where the
    backtest fails; a call it made would fail it, as its responder has no reply."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        args = edited_case(Path(root), edits)
        checked = exits_cleanly(["ingest", *args[:2]])
        assert exits_cleanly(["backtest", *args]) == 1 or checked == 0


CSV_BYTES = {name: (FIXTURE_DIR / name).read_bytes() for name in CASE_CSV}
# what an insert puts in a CSV: NUL, bytes that are not UTF-8 (0xff, an encoded
# surrogate), line ends, a quote, a BOM, U+2028 and numbers no float holds
CSV_INSERTS = (
    b"\0", b"\xff", "\ud800".encode("utf-8", "surrogatepass"), b"\r", b"\n", b"\r\n", b'"',
    b"\xef\xbb\xbf", "\u2028".encode(), b"9" * 400, b"1e400", b"nan",
)
CSV_EDIT = st.tuples(
    st.sampled_from(sorted(CSV_BYTES)),
    st.sampled_from(("flip", "insert", "delete", "duplicate", "duplicate row", "delete row", "swap rows")),
    st.integers(0, max(map(len, CSV_BYTES.values()))),
    st.integers(0, 255),
)


def csv_edited(data: bytes, kind: str, pos: int, n: int) -> bytes:
    """`data` with one edit made: `byte_edited`'s flip, delete or duplicate, an
    insert of CSV_INSERTS[n], or line pos duplicated before line n, deleted or
    swapped with line n (positions taken modulo the count)."""
    if kind == "insert":
        pos %= len(data) + 1
        return data[:pos] + CSV_INSERTS[n % len(CSV_INSERTS)] + data[pos:]
    if kind.endswith(("row", "rows")):
        rows = data.splitlines(keepends=True)
        i, j = pos % len(rows), n % len(rows)
        if kind == "duplicate row":
            rows.insert(j, rows[i])
        elif kind == "delete row":
            del rows[i]
        else:
            rows[i], rows[j] = rows[j], rows[i]
        return b"".join(rows)
    return byte_edited(data, [(kind, pos, n)])


@settings(
    max_examples=300,
    deadline=5000,  # ms a case may take
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edits=st.lists(CSV_EDIT, min_size=1, max_size=2))
def test_edited_csv_bytes_exit_cleanly(tmp_path, edits):
    files = dict(CSV_BYTES)
    for name, *edit in edits:
        files[name] = csv_edited(files[name], *edit)
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:  # each file written once: a rewrite can wait on the disk
        exits_cleanly(["backtest", *edited_case(Path(root), [], files)])


BYTES_JOURNAL = run_synth(14)[0]
JOURNAL_BYTES = "".join(canonical_json(record) + "\n" for record in [BYTES_JOURNAL.header, *BYTES_JOURNAL.entries]).encode()


def byte_edited(data: bytes, edits) -> bytes:
    """`data` with each (kind, position, n) edit made: flip bit n % 8 of a byte,
    insert byte n, or delete or duplicate the 1 + n % 64 bytes at the position."""
    for kind, pos, n in edits:
        pos %= len(data)
        end = pos + 1 + n % 64
        if kind == "flip":
            data = data[:pos] + bytes([data[pos] ^ 1 << n % 8]) + data[pos + 1 :]
        elif kind == "insert":
            data = data[:pos] + bytes([n]) + data[pos:]
        elif kind == "delete":
            data = data[:pos] + data[end:]
        else:
            data = data[:end] + data[pos:end] + data[end:]
    return data


@settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(("flip", "insert", "delete", "duplicate")),
            st.integers(0, len(JOURNAL_BYTES) - 1),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_edited_journal_bytes_exit_cleanly(tmp_path, edits):
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        path = Path(root) / "edited.jsonl"
        path.write_bytes(byte_edited(JOURNAL_BYTES, edits))
        for command in ("report", "replay"):
            exits_cleanly([command, "--journal", str(path)])
