"""Regime-bucketed performance report and plot-ready CSV emission.

The text table mirrors the evaluation layout: one block per regime plus an
all-period block, columns for each tracked agent and the buy-and-hold
baseline. Regret is reported against the passive half-BTC baseline.
Rendering is a pure function of the journal-derived outputs, so a replayed
run reproduces the report byte-for-byte.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import WindowTooShort
from .metrics import MetricsReport, ReturnSeries, daily_returns, regime_report
from .orchestrator import AGENT_ROLES, RunOutputs
from .regime import RegimeSegmentation, segment

COLUMNS = ("quants", "signals", "decision", "baseline")
COLUMN_TITLES = {
    "quants": "Quants",
    "signals": "Signals",
    "decision": "Decision",
    "baseline": "Baseline",
}
METRIC_ROWS = (
    ("total_return_pct", "Total Return (%)"),
    ("daily_mean_std", "Daily Return (mean +/- std %)"),
    ("sharpe", "Sharpe Ratio"),
    ("accuracy", "Accuracy"),
    ("regret_pct", "Regret vs 50/50 (%)"),
)


@dataclass
class ReportArtifacts:
    text: str
    table_rows: list[dict]
    cumret_rows: list[dict]


def resolve_segmentation(
    outputs: RunOutputs, override: RegimeSegmentation | None = None
) -> RegimeSegmentation | None:
    """Use the supplied segmentation, else derive one from the run's closes.

    Short runs cannot warm up the regime moving average; they report the
    all-period block only.
    """
    if override is not None:
        return override
    try:
        return segment(outputs.value_dates, outputs.closes, outputs.config.regime_params)
    except WindowTooShort:
        return None


def _series(outputs: RunOutputs, name: str) -> ReturnSeries:
    return daily_returns(outputs.value_dates, outputs.values[name])


def build_reports(
    outputs: RunOutputs, segmentation: RegimeSegmentation | None
) -> dict[str, MetricsReport]:
    """Per-portfolio MetricsReport keyed by column name."""
    baseline_5050 = _series(outputs, "static5050")
    reports = {}
    for role in AGENT_ROLES:
        reports[role] = regime_report(
            _series(outputs, role),
            segmentation=segmentation,
            hits=outputs.hits[role],
            baseline=baseline_5050,
        )
    reports["baseline"] = regime_report(_series(outputs, "buyhold"), segmentation=segmentation)
    return reports


def _fmt(metric: str, row) -> str:
    if row is None:
        return "--"
    if metric == "total_return_pct":
        return f"{100.0 * row.total_return:.2f}"
    if metric == "daily_mean_std":
        if row.mean_daily_pct is None:
            return "--"
        return f"{row.mean_daily_pct:.2f} +/- {row.std_daily_pct:.2f}"
    if metric == "sharpe":
        return "--" if row.sharpe is None else f"{row.sharpe:.4f}"
    if metric == "accuracy":
        return "--" if row.accuracy is None else f"{row.accuracy:.4f}"
    if metric == "regret_pct":
        return "--" if row.regret is None else f"{100.0 * row.regret:.2f}"
    raise ValueError(metric)


def _row_for_label(report: MetricsReport, label: str):
    if label == "All Periods":
        return report.all_periods
    for row in report.per_regime:
        if row.label == label:
            return row
    return None


def render(outputs: RunOutputs, segmentation: RegimeSegmentation | None) -> ReportArtifacts:
    reports = build_reports(outputs, segmentation)
    labels = ["All Periods"]
    if segmentation is not None:
        for row in reports["quants"].per_regime:
            labels.append(row.label)

    width_regime, width_metric, width_cell = 13, 30, 16
    lines = []
    lines.append("Agent performance across market regimes")
    lines.append("")
    lines.append(
        f"Period: {outputs.value_dates[0].isoformat()} .. {outputs.value_dates[-1].isoformat()}"
        f" ({len(outputs.value_dates) - 1} trading days)"
    )
    lines.append(f"Initial value: {outputs.config.initial_value_usd:.2f} USD")
    lines.append(f"Neutral band for accuracy: {100.0 * outputs.neutral_band:.2f}%")
    lines.append("")
    header_cells = "".join(COLUMN_TITLES[c].rjust(width_cell) for c in COLUMNS)
    lines.append("Regime".ljust(width_regime) + "Metric".ljust(width_metric) + header_cells)
    lines.append("-" * (width_regime + width_metric + width_cell * len(COLUMNS)))

    table_rows = []
    for label in labels:
        for j, (metric, metric_title) in enumerate(METRIC_ROWS):
            cells = []
            csv_row = {"regime": label, "metric": metric}
            for col in COLUMNS:
                row = _row_for_label(reports[col], label)
                cells.append(_fmt(metric, row).rjust(width_cell))
                csv_row[col] = _fmt(metric, row)
            prefix = label if j == 0 else ""
            lines.append(prefix.ljust(width_regime) + metric_title.ljust(width_metric) + "".join(cells))
            table_rows.append(csv_row)
        lines.append("")

    fallback_total = sum(outputs.fallback_days.values())
    if fallback_total:
        per_role = ", ".join(
            f"{role}: {n}" for role, n in outputs.fallback_days.items() if n
        )
        lines.append(f"Fallback days (unusable responses): {per_role}")
        lines.append("")

    cumret_rows = []
    v0 = {name: outputs.values[name][0] for name in outputs.values}
    for i, d in enumerate(outputs.value_dates):
        cumret_rows.append(
            {
                "date": d.isoformat(),
                "quants": outputs.values["quants"][i] / v0["quants"] - 1.0,
                "signals": outputs.values["signals"][i] / v0["signals"] - 1.0,
                "decision": outputs.values["decision"][i] / v0["decision"] - 1.0,
                "baseline": outputs.values["buyhold"][i] / v0["buyhold"] - 1.0,
            }
        )

    return ReportArtifacts(
        text="\n".join(lines).rstrip("\n") + "\n",
        table_rows=table_rows,
        cumret_rows=cumret_rows,
    )


def table_csv(artifacts: ReportArtifacts) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["regime", "metric", *COLUMNS], lineterminator="\n")
    writer.writeheader()
    for row in artifacts.table_rows:
        writer.writerow(row)
    return buf.getvalue()


def cumrets_csv(artifacts: ReportArtifacts) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["date", "quants", "signals", "decision", "baseline"], lineterminator="\n"
    )
    writer.writeheader()
    for row in artifacts.cumret_rows:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    return buf.getvalue()
