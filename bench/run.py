"""Benchmark for btagents: one workload, end to end or traced per layer.

    python3 bench/run.py --workload offline-1460 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
It writes the workload's market data as CSV files, then repeats one cycle
until `--seconds` are used (at least three cycles): load the CSVs, run the
backtest against the benchmark's own seeded LLM client, write the journal,
read it back, replay it and render the report. Every cycle checks its
outputs. Medians over the cycles are reported.

With `--trace 0` nothing in the program is replaced and the metrics are
the end-to-end ones. With `--trace 1` untraced and traced cycles
alternate; a traced cycle wraps public functions where the program looks
them up, records spans in memory, writes them to
`bench/.work/spans-<workload>-seed<seed>.jsonl` at the end and restores
every wrapped name. The metrics are then the per-layer ones.

Every time reported is host-speed scaled: a second process (`host.py`)
times fixed code every 50 ms, and each phase's wall time is scaled by the
reference probe time over the mean probe time seen while the phase ran.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; metric names and units come
from `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "btagents" / "__init__.py").is_file():
    sys.exit(f"bench: no btagents package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import btagents.agents  # noqa: E402
import btagents.orchestrator  # noqa: E402
import btagents.reflection  # noqa: E402
import btagents.report  # noqa: E402
from btagents.journal import RunJournal, read_journal, write_journal  # noqa: E402
from btagents.market_data import (  # noqa: E402
    MarketDataset,
    align,
    load_bars,
    load_news,
    load_onchain,
    load_sentiment,
)
from btagents.orchestrator import RunConfig, outputs_from_journal, replay, run_backtest  # noqa: E402
from btagents.reflection import AGENT_ROLES  # noqa: E402
from btagents.report import cumrets_csv, render, resolve_segmentation, table_csv  # noqa: E402

from inputs import (  # noqa: E402
    WORKLOADS,
    PlannedClient,
    ReplyPlan,
    expected_counts,
    trading_days,
    write_market_csvs,
)
from host import REFERENCE_S, HostProbe  # noqa: E402
from spans import END, NAME, START, Recorder, union_ns  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / ".work"
# an untraced cycle repeats set-up and each phase after the backtest for
# PHASE_SECONDS, so the short phases are sampled many times per run
PHASE_SECONDS = 0.5
MIN_CYCLES = 3
MIN_TRACED_PAIRS = 2
TAIL_LADDER = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0)
BACKTEST = "orchestrator.run_backtest"

# per-layer metrics of the backtest phase; together they account for it
BACKTEST_PARTS = (
    "market_data.index_of.s",
    "market_data.slice_window.self_s",
    "indicators.snapshot.s",
    "agents.prompt.s",
    "agents.lint.s",
    "agents.parse.s",
    "agents.llm.wait_s",
    "reflection.daily.self_s",
    "reflection.scope_filter.s",
    "reflection.evaluate.s",
    "reflection.weekly.s",
    "portfolio.rebalance.s",
    "portfolio.mark.s",
    "journal.seal.s",
    "journal.dataset_digest.s",
    "orchestrator.run_backtest.self_s",
)


def wrap_program(rec: Recorder, client: PlannedClient) -> None:
    """Wrap each layer's entry points where the program looks them up."""
    o = btagents.orchestrator
    rec.wrap(MarketDataset, "index_of", "market_data.index_of")
    rec.wrap(o, "slice_window", "market_data.slice_window", day_arg=1)
    rec.wrap(o, "snapshot", "indicators.snapshot")
    for name in ("build_quants_prompt", "build_signals_prompt", "build_decision_prompt"):
        rec.wrap(o, name, "agents.prompt")
    rec.wrap(o, "lint_bundle", "agents.lint")
    rec.wrap(btagents.agents, "parse_agent_output", "agents.parse")
    rec.wrap(client, "complete", "agents.llm")
    rec.wrap(o, "run_daily_reflection", "reflection.daily")
    rec.wrap(btagents.reflection, "scope_filter", "reflection.scope_filter")
    rec.wrap(o, "evaluate_day", "reflection.evaluate")
    rec.wrap(o, "weekly_feedback", "reflection.weekly")
    rec.wrap(o, "rebalance", "portfolio.rebalance")
    rec.wrap(o, "mark", "portfolio.mark")
    rec.wrap(o, "seal", "journal.seal")
    rec.wrap(o, "dataset_digest", "journal.dataset_digest")
    rec.wrap(btagents.report, "segment", "regime.segment")
    rec.wrap(btagents.report, "regime_report", "metrics.regime_report")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Run:
    """One workload and seed: its inputs, expectations and check tally."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.data_dir = work_dir / "data"
        write_market_csvs(self.data_dir, seed, self.w)
        self.days = trading_days(self.w)
        self.config = RunConfig(start=self.days[0], end=self.days[-1])
        self.plan = ReplyPlan(seed, self.w)
        self.expected = expected_counts(
            self.plan, self.days, self.config.parse_retry_limit, self.config.daily_feedback
        )
        pins = json.loads((BENCH_DIR / "pins.json").read_text(encoding="utf-8"))
        self.pin = pins.get(workload, {}).get(str(seed))
        self.reference_sha = self.pin["journal_sha256"] if self.pin else None
        self.checks = Checks()
        self.observed: dict = {}

    def cycle(self, traced: bool) -> tuple[Recorder, PlannedClient, RunJournal]:
        """Set up, run the backtest and the phases after it, and check the outputs."""
        gc.collect()
        rec = Recorder()
        d = self.data_dir

        def setup():
            with rec.span("market_data.load"):
                bars = load_bars(str(d / "bars.csv"))
                onchain = load_onchain(str(d / "onchain.csv"))
                sentiment = load_sentiment(str(d / "sentiment.csv"))
                news = load_news(str(d / "news.csv"))
            with rec.span("market_data.align"):
                return align(bars, onchain=onchain, sentiment=sentiment, news=news)

        # each write goes to a new file, as a run writes its journal: overwriting
        # one would make ext4 flush the old blocks, timing the disk instead
        written = []

        def write():
            written.append(self.work_dir / f"journal-{len(written)}.jsonl")
            write_journal(journal, str(written[-1]))

        def report():
            segmentation = resolve_segmentation(outputs)
            with rec.span("report.render"):
                artifacts = render(outputs, segmentation)
            table_csv(artifacts)
            cumrets_csv(artifacts)
            return artifacts

        dataset = timed(rec, "setup", setup, traced)
        client = PlannedClient(self.plan)
        if traced:
            wrap_program(rec, client)
        try:
            with rec.span(BACKTEST):
                journal = run_backtest(self.config, dataset, client)
            timed(rec, "journal.write", write, traced)
            path = str(written[-1])
            if traced:
                with rec.span("journal.parse"):
                    back = read_journal(path, verify=False)
                with rec.span("journal.verify"):
                    back.verify()
            else:
                back = timed(rec, "journal.read", lambda: read_journal(path), traced)
            replayed = timed(rec, "orchestrator.replay", lambda: replay(back), traced)
            with rec.span("orchestrator.outputs_from_journal"):
                outputs = outputs_from_journal(journal)
            artifacts = timed(rec, "report", report, traced)
        finally:
            if traced:
                self.checks.check(rec.restore(), "traced names restored")
        self._check(path, journal, client, back, replayed, outputs, artifacts)
        for p in written:
            p.unlink()
        return rec, client, journal

    def _check(self, path, journal, client, back, replayed, outputs, artifacts) -> None:
        c = self.checks
        with open(path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        if self.reference_sha is None:
            self.reference_sha = sha
        c.check(sha == self.reference_sha, f"journal sha256 {sha} != {self.reference_sha}")
        c.check(
            back.header == journal.header and back.entries == journal.entries,
            "journal read back differs from the journal written",
        )
        replay_text = render(replayed, resolve_segmentation(replayed)).text
        c.check(replay_text == artifacts.text, "replayed report differs from the backtest report")
        calls, fallback = len(client.calls), dict(outputs.fallback_days)
        c.check(
            calls == self.expected.llm_calls and fallback == self.expected.fallback_days,
            f"calls {calls} / fallback days {fallback} differ from the reply plan's "
            f"{self.expected.llm_calls} / {self.expected.fallback_days}",
        )
        if self.pin:
            c.check(
                calls == self.pin["llm_calls"] and fallback == self.pin["fallback_days"],
                f"calls {calls} / fallback days {fallback} differ from the pinned "
                f"{self.pin['llm_calls']} / {self.pin['fallback_days']}",
            )
        self.observed = {"journal_sha256": sha, "llm_calls": calls, "fallback_days": fallback}
        self.journal_bytes = os.path.getsize(path)


def timed(rec: Recorder, name: str, fn, once: bool):
    """Call fn in a span; unless once, call it again until PHASE_SECONDS have passed.

    Returns the last result; the one before is dropped before each new call,
    so repeating a phase does not raise the peak memory.
    """
    until = time.perf_counter() + PHASE_SECONDS
    while True:
        with rec.span(name):
            result = fn()
        if once or time.perf_counter() >= until:
            return result
        del result


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(k)]


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least ten of n samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def host_scales(rec: Recorder, probe: HostProbe) -> list[float]:
    """Each span's host-speed factor: the one measured while its root span ran."""
    by_root = {}
    out = []
    for r in rec.roots():
        if r not in by_root:
            by_root[r] = probe.scale(rec.spans[r][START], rec.spans[r][END])
        out.append(by_root[r])
    return out


def end_to_end(rec: Recorder, probe: HostProbe, client: PlannedClient, journal_bytes: int) -> dict:
    """One untraced cycle's scaled samples: a list per metric, and its day steps in day order."""
    samples = defaultdict(list)
    scales = host_scales(rec, probe)
    for i, s in enumerate(rec.spans):
        samples[s[NAME]].append((s[END] - s[START]) * scales[i] / 1e9)
    # each day step is scaled by the host speed seen around that step
    marks = [int(t * 1e9) for t in client.day_marks]
    steps = [(b - a) * probe.scale(a, b) / 1e6 for a, b in zip(marks, marks[1:])]
    return {
        "setup_s": samples["setup"],
        "backtest_s": samples[BACKTEST],
        "day_steps": [steps],
        "journal_write_s": samples["journal.write"],
        "journal_read_s": samples["journal.read"],
        "replay_s": samples["orchestrator.replay"],
        "report_s": samples["report"],
        "journal_bytes": [journal_bytes],
        "backtest_wall_s": [s[END] - s[START] for s in rec.spans if s[NAME] == BACKTEST],
    }


def per_layer(
    rec: Recorder, probe: HostProbe, journal: RunJournal, journal_bytes: int, checks: Checks
) -> dict:
    roots = rec.roots()
    scales = host_scales(rec, probe)
    self_ns = rec.self_ns()
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    llm = []
    for i, s in enumerate(rec.spans):
        key = (rec.spans[roots[i]][NAME], s[NAME])
        calls[key] += 1
        total[key] += (s[END] - s[START]) * scales[i]
        own[key] += self_ns[i] * scales[i]
        if key == (BACKTEST, "agents.llm"):
            llm.append((s[START], s[END]))
            llm_scale = scales[i]

    def bt(name):
        return (BACKTEST, name)

    def root(name):
        return (name, name)

    days = journal.days
    decide = [day["roles"][role] for day in days for role in AGENT_ROLES]
    ns = {
        "market_data.load.s": total[("setup", "market_data.load")],
        "market_data.align.s": total[("setup", "market_data.align")],
        "market_data.index_of.s": total[bt("market_data.index_of")],
        "market_data.slice_window.self_s": own[bt("market_data.slice_window")],
        "indicators.snapshot.s": total[bt("indicators.snapshot")],
        "agents.prompt.s": total[bt("agents.prompt")],
        "agents.lint.s": total[bt("agents.lint")],
        "agents.parse.s": total[bt("agents.parse")],
        "agents.llm.wait_s": total[bt("agents.llm")],
        "agents.llm.inflight_s": union_ns(llm) * llm_scale if llm else 0.0,
        "reflection.daily.self_s": own[bt("reflection.daily")],
        "reflection.scope_filter.s": total[bt("reflection.scope_filter")],
        "reflection.evaluate.s": total[bt("reflection.evaluate")],
        "reflection.weekly.s": total[bt("reflection.weekly")],
        "portfolio.rebalance.s": total[bt("portfolio.rebalance")],
        "portfolio.mark.s": total[bt("portfolio.mark")],
        "journal.seal.s": total[bt("journal.seal")],
        "journal.dataset_digest.s": total[bt("journal.dataset_digest")],
        "journal.parse.s": total[root("journal.parse")],
        "journal.verify.s": total[root("journal.verify")],
        "orchestrator.run_backtest.self_s": own[root(BACKTEST)],
        "orchestrator.outputs_from_journal.s": total[root("orchestrator.outputs_from_journal")],
        "regime.segment.s": total[("report", "regime.segment")],
        "metrics.regime_report.s": total[("report", "metrics.regime_report")],
        "report.render.self_s": own[("report", "report.render")],
    }
    backtest_ns = total[root(BACKTEST)]
    accounted = sum(ns[name] for name in BACKTEST_PARTS)
    checks.check(
        abs(accounted - backtest_ns) <= backtest_ns / 1000,
        f"per-layer self times sum to {accounted:.0f} ns, traced backtest took {backtest_ns:.0f} ns",
    )
    out = {name: v / 1e9 for name, v in ns.items()}
    out.update(
        {
            "trace.backtest_s": backtest_ns / 1e9,
            "market_data.index_of.calls": calls[bt("market_data.index_of")],
            "indicators.snapshot.calls": calls[bt("indicators.snapshot")],
            "agents.lint.calls": calls[bt("agents.lint")],
            "agents.lint.violations": sum(len(v) for day in days for v in day["lint"].values()),
            "agents.parse.calls": calls[bt("agents.parse")],
            "agents.reask.count": sum(len(r["attempts"]) - 1 for r in decide),
            "agents.fallback.count": sum(1 for r in decide if r["fallback"]),
            "agents.first_try_ok_ratio": sum(1 for r in decide if r["attempts"][0]["error"] is None)
            / len(decide),
            "agents.llm.calls": calls[bt("agents.llm")],
            "reflection.scope_filter.calls": calls[bt("reflection.scope_filter")],
            "reflection.scope_retry.count": sum(
                1 for day in days if day["reflect"] and "reflect_scope_retry" in day["reflect"]["flags"]
            ),
            "journal.seal.calls": calls[bt("journal.seal")],
            # canonical JSON of every sealed record: the file without its newlines
            "journal.sealed_bytes": journal_bytes - 1 - len(journal.entries),
        }
    )
    wait, inflight = out["agents.llm.wait_s"], out["agents.llm.inflight_s"]
    out["agents.llm.overlap_ratio"] = wait / inflight if inflight else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, work_dir)
        e2e_rows, layer_rows, traced_recs = [], [], []
        with HostProbe(work_dir / "host-probe.txt") as probe:
            t0 = time.perf_counter()
            while True:
                rec, client, journal = run.cycle(traced=False)
                e2e_rows.append(end_to_end(rec, probe, client, run.journal_bytes))
                del rec, client, journal
                if args.trace:
                    rec, client, journal = run.cycle(traced=True)
                    layer_rows.append(per_layer(rec, probe, journal, run.journal_bytes, run.checks))
                    traced_recs.append(rec)
                    del client, journal
                n = len(e2e_rows)
                elapsed = time.perf_counter() - t0
                enough = n >= (MIN_TRACED_PAIRS if args.trace else MIN_CYCLES)
                if enough and elapsed * (n + 1) / n > args.seconds:
                    break
            host_probe_s = statistics.median(probe.times) / 1e9
            host_probes = len(probe.times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    pooled = defaultdict(list)
    for row in e2e_rows:
        for key, samples in row.items():
            pooled[key].extend(samples)
    steps = pooled.pop("day_steps")
    backtest_wall_s = [ns / 1e9 for ns in pooled.pop("backtest_wall_s")]
    values = {key: statistics.median(samples) for key, samples in pooled.items()}
    # every cycle runs the same days on the same inputs, so each day's median
    # step over the cycles is that day's cost with one-off stalls filtered out
    day_ms = sorted(statistics.median(day) for day in zip(*steps))
    tail_p = tail_percentile(len(day_ms))
    values["day_p50_ms"] = statistics.median(day_ms)
    values["day_tail_ms"] = percentile(day_ms, tail_p)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        for key in layer_rows[0]:
            values[key] = statistics.median(row[key] for row in layer_rows)
        values["trace.overhead_s"] = values["trace.backtest_s"] - values["backtest_s"]
        WORK.mkdir(parents=True, exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(traced_recs):
                rec.write(fh, i)

    checks = run.checks
    print(f"workload {args.workload}, seed {args.seed}: {len(e2e_rows)} untraced and "
          f"{len(layer_rows)} traced cycles")
    print(f"day_p50_ms and day_tail_ms (p{tail_p:g}) are over the per-day medians of "
          f"{len(day_ms)} day steps in {len(steps)} cycles ({len(day_ms) * len(steps)} steps)")
    print("samples per metric: " + ", ".join(f"{k} {len(v)}" for k, v in pooled.items()))
    print("backtest_s per untraced cycle, host-speed scaled: "
          + " ".join(f"{v:.3f}" for v in pooled["backtest_s"]))
    print("backtest wall time per untraced cycle, unscaled: "
          + " ".join(f"{v:.3f}" for v in backtest_wall_s))
    print(f"observed: {json.dumps(run.observed, sort_keys=True)}")
    print(f"host probe: {host_probes} samples, median {host_probe_s * 1e3:.3f} ms "
          f"(reference {REFERENCE_S * 1e3:g} ms)")
    if args.trace:
        share = values["agents.llm.wait_s"] / values["trace.backtest_s"]
        print(f"traced backtest {values['trace.backtest_s']:.4f} s, untraced {values['backtest_s']:.4f} s, "
              f"LLM wait {100 * share:.1f}% of traced backtest; spans in {spans_path.relative_to(ROOT)}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
