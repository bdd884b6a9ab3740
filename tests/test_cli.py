import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import btagents
from btagents.cli import main
from btagents.journal import read_journal, seal, write_journal
from btagents.reflection import load_weekly_templates

from conftest import FIXTURE_DIR, run_synth


def write_config(tmp_path, **overrides):
    cfg = {
        "data": {
            "bars": str(FIXTURE_DIR / "bars.csv"),
            "onchain": str(FIXTURE_DIR / "onchain.csv"),
            "sentiment": str(FIXTURE_DIR / "sentiment.csv"),
            "news": str(FIXTURE_DIR / "news.csv"),
        },
        "run": {"start": "2024-11-04", "end": "2024-11-05"},
        "journal": str(tmp_path / "journal.jsonl"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestIngest:
    def test_exit_zero_and_summary(self, capsys):
        code = main(
            [
                "ingest",
                "--bars", str(FIXTURE_DIR / "bars.csv"),
                "--onchain", str(FIXTURE_DIR / "onchain.csv"),
                "--sentiment", str(FIXTURE_DIR / "sentiment.csv"),
                "--news", str(FIXTURE_DIR / "news.csv"),
            ]
        )
        assert code == 0
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
        args = ["--bars", str(FIXTURE_DIR / "bars.csv"), "--onchain", str(onchain)]
        args += ["--sentiment", str(FIXTURE_DIR / "sentiment.csv"), "--news", str(FIXTURE_DIR / "news.csv")]
        assert main(["ingest", *args]) == 0
        assert sorted(calls) == ["load_bars", "load_news", "load_onchain", "load_sentiment"]
        assert capsys.readouterr().out == (
            "aligned dataset: 37 records, 2024-10-01 .. 2024-11-06\n"
            "onchain: 35 rows, 2 dataset date(s) carried forward\n"
            "sentiment: 37 rows, 0 dataset date(s) carried forward\n"
            "news: 6 items after dedup\n"
        )

    def test_nan_close_is_runtime_error(self, tmp_path, capsys):
        bars = tmp_path / "bars.csv"
        bars.write_text(
            "date,open,high,low,close,volume\n"
            "2024-01-01,1,2,0.5,1,10\n"
            "2024-01-02,1,2,0.5,nan,10\n"
        )
        assert main(["ingest", "--bars", str(bars)]) == 1
        assert "close must be finite" in capsys.readouterr().err

    def test_bad_file_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bars.csv"
        bad.write_text("date,open,high,low,close,volume\n2024-01-01,1,0.5,2,1,0\n")
        code = main(["ingest", "--bars", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bars_with_a_leading_bom(self, tmp_path, capsys):
        bars = tmp_path / "bars.csv"
        bars.write_bytes(b"\xef\xbb\xbf" + (FIXTURE_DIR / "bars.csv").read_bytes())
        assert main(["ingest", "--bars", str(bars)]) == 0
        assert capsys.readouterr().out.startswith("aligned dataset: 37 records, 2024-10-01 .. 2024-11-06\n")

    def test_news_byte_that_is_not_utf8_is_runtime_error(self, tmp_path, capsys):
        news = tmp_path / "news.csv"
        news.write_bytes(b"date,source,headline,summary\n2024-11-04,CNBC,BTC \xff rallies,x\n")
        code = main(["ingest", "--bars", str(FIXTURE_DIR / "bars.csv"), "--news", str(news)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {news}:2: byte 0xff is not UTF-8\n"


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

    @pytest.mark.parametrize("band", ["-0.5", "nan", "inf"])
    @pytest.mark.parametrize("command", ["replay", "report"])
    def test_bad_neutral_band_is_runtime_error(self, command, band, journal_path, capsys):
        assert main([command, "--journal", journal_path, f"--neutral-band={band}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
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
        self.fails(command, journal_path, capsys, "field n_days is missing or of the wrong type")

    def test_day_without_roles(self, command, journal_path, capsys):
        reseal_line(journal_path, 1, lambda day: day.pop("roles"))
        self.fails(command, journal_path, capsys, "journal line 2: field roles is missing")

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
        text=True,
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
    main(["backtest", "--config", {str(config_path)!r}, "--fixtures", {str(FIXTURE_DIR / "responses.json")!r}]),
    main(["replay", "--journal", {str(journal_path)!r}, "--out-dir", {str(tmp_path / "replay")!r}]),
    main(["report", "--journal", {str(journal_path)!r}, "--out-dir", {str(tmp_path / "report")!r}]),
]
print(codes, "requests" in sys.modules)
"""
        assert fresh_python(code).splitlines()[-1] == "[0, 0, 0] False"
        assert (tmp_path / "replay" / "report.txt").read_text(encoding="utf-8") == (
            tmp_path / "report" / "report.txt"
        ).read_text(encoding="utf-8")

    def test_live_client_loads_requests_session(self):
        code = """
import sys
from btagents import ChatClient
from btagents.agents import ChatClientConfig
before = "requests" in sys.modules
client = ChatClient(ChatClientConfig())
import requests
print(before, isinstance(client._session, requests.Session))
"""
        assert fresh_python(code).splitlines()[-1] == "False True"
