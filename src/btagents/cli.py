"""Command-line entry points: ingest, backtest, replay, report.

Exit codes: 0 success, 1 runtime error, 2 usage error. The backtest
subcommand runs fully offline when given a scripted-responder fixture.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .agents import ChatClient, ScriptedResponder
from .errors import BtAgentsError, ConfigError
from .journal import LONE_SURROGATE, read_journal, write_journal
from .market_data import (
    GAP_CARRY,
    GAP_STRICT,
    align,
    load_bars,
    load_news,
    load_onchain,
    load_sentiment,
)
from .orchestrator import RunConfig, outputs_from_journal, replay, run_backtest
from .regime import load_segmentation
from .report import cumrets_csv, render, resolve_segmentation, table_csv


# the RunConfig field each key of the "run" and "feedback" sections sets; no
# other key is taken there
SECTION_KEYS = {
    "run": {
        key: key
        for key in (
            "start", "end", "initial_value_usd", "lookback_days",
            "neutral_band", "fee_bps", "parse_retry_limit",
        )
    },
    "feedback": {
        "daily": "daily_feedback",
        "weekly": "weekly_feedback",
        "praise_threshold": "praise_threshold",
        "regret_threshold": "regret_threshold",
        "templates": "weekly_template_path",
    },
}
# the RunConfig part each of these sections sets; the part's own fields are its keys
PART_SECTIONS = {"indicators": "indicator_params", "regime": "regime_params", "client": "client"}
TOP_KEYS = ("data", "journal", *SECTION_KEYS, *PART_SECTIONS)
DATA_KEYS = ("bars", "onchain", "sentiment", "news", "gap_policy")


def _load_config_file(path: str) -> tuple[RunConfig, dict, str]:
    """Parse the JSON config tree into a RunConfig plus data paths."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:
        raise BtAgentsError(f"{path}: config is not valid JSON: {exc}") from exc
    if LONE_SURROGATE.search(json.dumps(cfg, ensure_ascii=False)):
        raise ConfigError(f"{path}: config text holds a lone surrogate (a \\ud800-\\udfff escape)")
    try:
        data = cfg["data"]
        unknown = [k for k in cfg if k not in TOP_KEYS] + [
            f"data.{k}" for k in data if k not in DATA_KEYS
        ]
        if unknown:
            raise ConfigError(f"unknown config key '{unknown[0]}'")
        if "bars" not in data:
            raise KeyError("data.bars")
        journal = cfg.get("journal", "journal.jsonl")
        paths = {"data.bars": data["bars"], "journal": journal}
        for name in ("onchain", "sentiment", "news"):  # optional inputs may be null
            if data.get(name) is not None:
                paths[f"data.{name}"] = data[name]
        for key, value in paths.items():
            if not isinstance(value, str) or not value:
                raise ConfigError(f"config key '{key}' must be a file path")
        if data.get("gap_policy", GAP_CARRY) not in (GAP_CARRY, GAP_STRICT):
            raise ConfigError(f"config key 'data.gap_policy' must be {GAP_CARRY!r} or {GAP_STRICT!r}")
        tree = {}
        for section, fields in SECTION_KEYS.items():
            for key, value in cfg.get(section, {}).items():
                if key not in fields:
                    raise ConfigError(f"unknown config key '{key}' in section '{section}'")
                tree[fields[key]] = value
        for section, part in PART_SECTIONS.items():
            if section in cfg:
                tree[part] = cfg[section]
        return RunConfig.from_dict(tree), data, journal
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: missing or invalid config key: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build_dataset(data: dict):
    """The aligned dataset and the loaded optional inputs, () where no file is given."""
    bars = load_bars(data["bars"])
    inputs = {
        name: loader(data[name]) if data.get(name) else ()
        for name, loader in (("onchain", load_onchain), ("sentiment", load_sentiment), ("news", load_news))
    }
    return align(bars, **inputs, gap_policy=data.get("gap_policy", GAP_CARRY)), inputs


def cmd_ingest(args) -> int:
    data = {
        "bars": args.bars,
        "onchain": args.onchain,
        "sentiment": args.sentiment,
        "news": args.news,
        "gap_policy": args.gap_policy,
    }
    dataset, inputs = _build_dataset(data)
    dates = dataset.dates
    print(f"aligned dataset: {len(dataset)} records, {dates[0]} .. {dates[-1]}")
    for name in ("onchain", "sentiment"):
        if data[name]:
            have = {row.date for row in inputs[name]}
            carried = sum(1 for d in dates if d not in have)
            print(f"{name}: {len(have)} rows, {carried} dataset date(s) carried forward")
    if args.news:
        n_items = sum(len(r.news) for r in dataset.records)
        print(f"news: {n_items} items after dedup")
    return 0


def _emit_report(outputs, segmentation_path: str | None, out_dir: str | None) -> str:
    override = load_segmentation(segmentation_path) if segmentation_path else None
    segmentation = resolve_segmentation(outputs, override)
    artifacts = render(outputs, segmentation)
    if out_dir:
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "report.txt").write_text(artifacts.text, encoding="utf-8")
        (target / "report.csv").write_text(table_csv(artifacts), encoding="utf-8")
        (target / "cumrets.csv").write_text(cumrets_csv(artifacts), encoding="utf-8")
    return artifacts.text


def cmd_backtest(args) -> int:
    run_config, data, journal_path = _load_config_file(args.config)
    dataset = _build_dataset(data)[0]
    if args.fixtures:
        client = ScriptedResponder.from_file(args.fixtures)
    else:
        client = ChatClient(run_config.client)
    journal = run_backtest(run_config, dataset, client)
    out_path = args.journal or journal_path
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_journal(journal, out_path)
    print(f"journal written to {out_path}", file=sys.stderr)
    outputs = outputs_from_journal(journal)
    print(_emit_report(outputs, None, args.report_dir), end="")
    return 0


def cmd_report(args) -> int:
    """`report` reads the recorded values; `replay` recomputes them first.
    Both check every digest, so the journal is read without verifying."""
    journal = read_journal(args.journal, verify=False)
    outputs = args.outputs(journal, args.neutral_band)
    print(_emit_report(outputs, args.segmentation, args.out_dir), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btagents",
        description="Deterministic backtester for an LLM multi-agent BTC trading loop",
    )
    sub = parser.add_subparsers(dest="command")

    p_ingest = sub.add_parser("ingest", help="validate and align data files")
    p_ingest.add_argument("--bars", required=True, help="OHLCV CSV path")
    p_ingest.add_argument("--onchain", help="on-chain CSV path")
    p_ingest.add_argument("--sentiment", help="sentiment CSV path")
    p_ingest.add_argument("--news", help="news CSV path")
    p_ingest.add_argument(
        "--gap-policy", choices=[GAP_CARRY, GAP_STRICT], default=GAP_CARRY
    )
    p_ingest.set_defaults(func=cmd_ingest)

    p_backtest = sub.add_parser("backtest", help="run a backtest from a config file")
    p_backtest.add_argument("--config", required=True, help="JSON config path")
    p_backtest.add_argument(
        "--fixtures", help="scripted responder JSON; run offline against it"
    )
    p_backtest.add_argument("--journal", help="override journal output path")
    p_backtest.add_argument("--report-dir", help="also write report files here")
    p_backtest.set_defaults(func=cmd_backtest)

    for name, help_text, outputs in (
        ("replay", "recompute a run from its journal", replay),
        ("report", "render the report from a journal", outputs_from_journal),
    ):
        p_journal = sub.add_parser(name, help=help_text)
        p_journal.add_argument("--journal", required=True)
        p_journal.add_argument("--neutral-band", type=float, default=None)
        p_journal.add_argument("--segmentation", help="override segmentation CSV")
        p_journal.add_argument("--out-dir", help="write report files here")
        p_journal.set_defaults(func=cmd_report, outputs=outputs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except BtAgentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
