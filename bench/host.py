"""Host-speed probe: a second process that times fixed code all through a run.

The benchmark runs on shared virtual CPUs whose speed drifts by 20 to 60%
over seconds to minutes. Process CPU time drifts with wall time, so the
program is not waiting for a CPU: each instruction takes longer. A run's
wall times therefore say as much about the host's state as about the
program.

So while the benchmark runs, this file runs as a second process: every
PERIOD_S it times two fixed bodies of code that no change to the program
can alter, and appends both times to a file:

- a tight arithmetic loop. Phases over large data (journal write and read,
  replay, the backtest) slow down with host load as much as this loop does;
- a mixed body: CSV writing, JSON round trips, a regex scan and dict
  grouping over 150 small rows. Phases made of many small calls
  into varied code (set-up, the report) slow down as much as this does,
  and more than the tight loop.

A probe's time is the geometric mean of the two. The benchmark and the
probe are pinned to the same CPU, so the probe sees the speed of the CPU
the program runs on: a probe on the other CPU missed slowdowns that hit
one vCPU and not the other. The probe takes about 5% of that CPU, which
adds about 5% to every wall time alike. Each phase the benchmark measures
is then scaled by the host speed seen while it ran:

    reported = wall time * REFERENCE_S / mean probe time during the phase

A reported time reads as seconds on a host where a probe takes
REFERENCE_S. A change to the program moves it as it would move wall time
on a host of steady speed. For a phase shorter than MIN_PROBES probes, the
window is widened around it to MIN_PROBES probes.

Both processes stamp with `time.perf_counter_ns()`, which is
CLOCK_MONOTONIC on Linux and so shared by all processes; `HostProbe`
checks that the first stamp falls between the probe's launch and its
first reading.

    python3 bench/host.py <samples file> <parent pid>    # run by HostProbe
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from datetime import date, timedelta
from pathlib import Path

PROBE_LOOPS = 10_000
PERIOD_S = 0.05
REFERENCE_S = 0.001  # a probe's median time on 2 vCPUs with Python 3.11.7, rounded
MIN_PROBES = 16
START_TIMEOUT_S = 10.0

_ROWS = [
    {
        "date": (date(2021, 1, 1) + timedelta(days=i)).isoformat(),
        "close": 100 + i * 0.37,
        "state": ("bull", "bear", "flat")[i % 3],
        "note": f"w{i}",
    }
    for i in range(150)
]
_DATE = re.compile(r"(\d{4})-(\d{2})-(\d{2})")


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def _mixed() -> float:
    out = io.StringIO()
    writer = csv.writer(out)
    for row in _ROWS:
        writer.writerow([row["date"], f"{row['close']:.2f}", row["state"].upper(), row["note"]])
    rows = json.loads(json.dumps(_ROWS, sort_keys=True))
    by_state: dict = {}
    for row in rows:
        by_state.setdefault(row["state"], []).append(row["close"])
    return len(_DATE.findall(out.getvalue())) + sum(sum(v) / len(v) for v in by_state.values())


def probe_forever(path: str, parent: int) -> None:
    """Append "start_ns loop_ns mixed_ns" lines to path until the parent process is gone."""
    with open(path, "w", encoding="ascii") as fh:
        while os.getppid() == parent:
            t0 = time.perf_counter_ns()
            _loop(PROBE_LOOPS)
            t1 = time.perf_counter_ns()
            _mixed()
            t2 = time.perf_counter_ns()
            fh.write(f"{t0} {t1 - t0} {t2 - t1}\n")
            fh.flush()
            time.sleep(max(0.0, PERIOD_S - (t2 - t0) / 1e9))


class HostProbe:
    """Runs the probe process for the life of a `with` block and scales spans by its samples.

    For that time the calling process is pinned to one of its CPUs, and the
    probe process shares it.
    """

    def __init__(self, path: Path):
        self.path = path
        self.starts: list[int] = []
        self.times: list[int] = []
        self._proc = None
        self._fh = None
        self._affinity = None
        self._partial = ""

    def __enter__(self) -> "HostProbe":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("", encoding="ascii")
        # one CPU for both processes: the probe inherits this affinity
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        launched = time.perf_counter_ns()
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.path), str(os.getpid())]
        )
        try:
            self._fh = open(self.path, encoding="ascii")
            deadline = time.monotonic() + START_TIMEOUT_S
            while not self.times:
                if self._proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("host probe process gave no sample")
                time.sleep(0.01)
                self._read()
            if not launched <= self.starts[0] <= time.perf_counter_ns():
                raise RuntimeError("host probe clock is not the benchmark's clock")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._fh is not None:
            self._fh.close()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    def _read(self) -> None:
        text = self._partial + self._fh.read()
        lines = text.split("\n")
        self._partial = lines.pop()
        for line in lines:
            start, loop_ns, mixed_ns = map(int, line.split())
            self.starts.append(start)
            self.times.append(math.sqrt(loop_ns * mixed_ns))

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor that turns the wall time of [start_ns, end_ns) into reference seconds."""
        self._read()
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, start_ns)
        hi = bisect.bisect_left(self.starts, end_ns)
        if n < MIN_PROBES:
            raise RuntimeError(f"host probe has {n} samples, fewer than {MIN_PROBES}")
        while hi - lo < MIN_PROBES:
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return REFERENCE_S * 1e9 * (hi - lo) / sum(self.times[lo:hi])


if __name__ == "__main__":
    probe_forever(sys.argv[1], int(sys.argv[2]))
