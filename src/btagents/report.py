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
from .metrics import daily_returns, regime_report
from .orchestrator import AGENT_ROLES, RunOutputs
from .regime import RegimeSegmentation, segment


def _num(value: float | None, spec: str, scale: float = 1.0) -> str:
    return "--" if value is None else format(scale * value, spec)


# each metric's CSV name, its title in the text table and its cell for a MetricsRow
METRICS = (
    ("total_return_pct", "Total Return (%)", lambda r: _num(r.total_return, ".2f", 100.0)),
    (
        "daily_mean_std",
        "Daily Return (mean +/- std %)",
        lambda r: (
            "--" if r.mean_daily_pct is None else f"{r.mean_daily_pct:.2f} +/- {r.std_daily_pct:.2f}"
        ),
    ),
    ("sharpe", "Sharpe Ratio", lambda r: _num(r.sharpe, ".4f")),
    ("accuracy", "Accuracy", lambda r: _num(r.accuracy, ".4f")),
    ("regret_pct", "Regret vs 50/50 (%)", lambda r: _num(r.regret, ".2f", 100.0)),
)
# each column's CSV name, its title and the `RunOutputs.values` series it reads;
# an agent column is also scored on its role's hits and its regret vs static5050
COLUMNS = {
    "quants": ("Quants", "quants"),
    "signals": ("Signals", "signals"),
    "decision": ("Decision", "decision"),
    "baseline": ("Baseline", "buyhold"),
}


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


def render(outputs: RunOutputs, segmentation: RegimeSegmentation | None) -> ReportArtifacts:
    """The report of a run. A return date `segmentation` does not cover raises CoverageError."""
    baseline_5050 = daily_returns(outputs.values["static5050"])
    labels = None  # each return date's regime label, shared by every column
    if segmentation is not None:
        labels = [segmentation.label_for(d).value for d in outputs.value_dates[1:]]
    by_column = {}  # column -> label -> MetricsRow
    for col, (_, key) in COLUMNS.items():
        agent = col in AGENT_ROLES
        by_column[col] = regime_report(
            daily_returns(outputs.values[key]),
            labels=labels,
            hits=outputs.hits[col] if agent else None,
            baseline=baseline_5050 if agent else None,
        )

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
    header_cells = "".join(title.rjust(width_cell) for title, _ in COLUMNS.values())
    lines.append("Regime".ljust(width_regime) + "Metric".ljust(width_metric) + header_cells)
    lines.append("-" * (width_regime + width_metric + width_cell * len(COLUMNS)))

    table_rows = []
    for label in by_column["quants"]:
        for j, (metric, metric_title, cell) in enumerate(METRICS):
            csv_row = {"regime": label, "metric": metric}
            csv_row.update((col, cell(by_column[col][label])) for col in COLUMNS)
            prefix = label if j == 0 else ""
            cells = "".join(csv_row[col].rjust(width_cell) for col in COLUMNS)
            lines.append(prefix.ljust(width_regime) + metric_title.ljust(width_metric) + cells)
            table_rows.append(csv_row)
        lines.append("")

    fallback_total = sum(outputs.fallback_days.values())
    if fallback_total:
        per_role = ", ".join(
            f"{role}: {n}" for role, n in outputs.fallback_days.items() if n
        )
        lines.append(f"Fallback days (unusable responses): {per_role}")
        lines.append("")

    values = {col: outputs.values[key] for col, (_, key) in COLUMNS.items()}
    cumret_rows = [
        {"date": d.isoformat(), **{col: v[i] / v[0] - 1.0 for col, v in values.items()}}
        for i, d in enumerate(outputs.value_dates)
    ]

    return ReportArtifacts(
        text="\n".join(lines).rstrip("\n") + "\n",
        table_rows=table_rows,
        cumret_rows=cumret_rows,
    )


def _csv(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def table_csv(artifacts: ReportArtifacts) -> str:
    return _csv(["regime", "metric", *COLUMNS], artifacts.table_rows)


def cumrets_csv(artifacts: ReportArtifacts) -> str:
    return _csv(["date", *COLUMNS], artifacts.cumret_rows)
