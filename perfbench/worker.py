"""One round of one workload, in a fresh process.

    python3 worker.py --workload NAME --seed N [--setup-only] [--trace-dir DIR]

Imports plethtomo, builds the round's inputs from the seed, records the
moment it is ready (time.monotonic, which the parent compares with the
moment it spawned this process) and times the speed probe right then,
runs every op and prints one JSON record
as the last line of stdout: per op its kind, latency, status, detail and the
time of the probe run right after it on the same CPU (for a CLI child, the
mean of the probes before and after it), the op loop's wall time, and this
process's own peak RSS.  For cli_cold every op is a child process
that runs the CLI as `python -m plethtomo` does (through cli_shim.py), and
the peak RSS is that of the largest child.  With --trace-dir the round runs
under the layer tracer and the record carries the trace summary; spans are
written into DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import plethtomo  # noqa: F401  (import time is part of set-up)
import workloads
from metrics import PEAK_RSS_PREFIX, own_peak_rss_kb

HERE = Path(__file__).resolve().parent
CLI_OP_TIMEOUT_S = 120.0


PROBE_EVERY_S = 0.05


def probe() -> float:
    """Time one fixed piece of pure-Python work of the kind plethtomo does
    (tuple keys, dict updates, big integers, recursion), about 1.3 ms at
    full speed.  Run right after an op on the same CPU, it tells how fast
    the CPU was running just then."""
    t0 = time.perf_counter()
    table: dict = {}
    x = 1
    for i in range(600):
        key = (i % 31, i % 17, i & 3)
        table[key] = table.get(key, 0) + i * i
        x = x * 3 + i

    def parts(n: int, m: int) -> int:
        return 1 if n == 0 else sum(parts(n - k, k) for k in range(1, min(n, m) + 1))

    parts(17, 17)
    sorted(table.items())
    return time.perf_counter() - t0


class FastestCpu:
    """Keeps the worker on the currently fastest of its CPUs.

    On a shared host each CPU switches between full and about half speed
    every few tenths of a second, independently of the others.  Before an
    op, once PROBE_EVERY_S seconds have passed since the last check, the
    probe is timed on every CPU the worker may use and the worker (with any
    child it starts) is pinned to the fastest."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.last = -math.inf

    def pick(self):
        if len(self.cpus) < 2 or time.perf_counter() - self.last < PROBE_EVERY_S:
            return
        timed = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timed.append((probe(), cpu))
        os.sched_setaffinity(0, {min(timed)[1]})
        self.last = time.perf_counter()


def run_library(ops, tracer, cpu: FastestCpu) -> list:
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        cpu.pick()
        t0 = time.perf_counter()
        try:
            reason = op.run()
        except Exception as exc:  # one failing op must not end the round
            status, detail = "error", type(exc).__name__
        else:
            status, detail = ("ok", None) if reason is None else ("wrong", reason)
        latency = time.perf_counter() - t0
        records.append([op.kind, latency, status, detail, probe()])
    return records


def _error_class(stderr_lines: list[str]) -> str:
    last = stderr_lines[-1] if stderr_lines else ""
    head = last.split(":", 1)[0].strip()
    return head if head.isidentifier() else "exit"


def run_cli(queries, trace_dir: Path | None, cpu: FastestCpu) -> tuple[list, list, int]:
    """Run each query as its own process, one at a time, through cli_shim.py,
    which reports the child's own peak resident set on its last stderr line."""
    records, traces, peak_kb = [], [], 0
    for i, q in enumerate(queries):
        trace = [] if trace_dir is None else ["--trace", str(trace_dir / f"cli-{i}")]
        argv = [sys.executable, str(HERE / "cli_shim.py"), *trace, *q.argv]
        cpu.pick()
        before = probe()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            records.append([q.kind, time.perf_counter() - t0, "error", "timeout", (before + probe()) / 2])
            continue
        latency = time.perf_counter() - t0
        # a child runs for a few tenths of a second, long enough for the
        # CPU to change speed, so its reference is the mean of the probes
        # timed just before and just after it
        ref = (before + probe()) / 2
        stderr = [line for line in proc.stderr.splitlines() if line.strip()]
        if stderr and stderr[-1].startswith(PEAK_RSS_PREFIX):
            peak_kb = max(peak_kb, int(stderr.pop()[len(PEAK_RSS_PREFIX):]))
        reason = workloads.check_cli(q, proc.returncode, proc.stdout)
        if reason is None:
            records.append([q.kind, latency, "ok", None, ref])
        elif proc.returncode in (0, q.exit):
            records.append([q.kind, latency, "wrong", reason, ref])
        else:
            records.append([q.kind, latency, "error", f"{_error_class(stderr)} (exit {proc.returncode})", ref])
        if trace_dir is not None:
            summary = trace_dir / f"cli-{i}.json"
            if summary.exists():
                traces.append(json.loads(summary.read_text(encoding="utf-8")))
    return records, traces, peak_kb


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-dir", type=Path)
    args = ap.parse_args()

    ops = workloads.build_round(args.workload, args.seed)
    ready = time.monotonic()
    result: dict = {"ready": ready, "ready_probe": probe()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        if args.workload != "cli_cold":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
    cpu = FastestCpu()
    t0 = time.perf_counter()
    if args.workload == "cli_cold":
        records, traces, rss_kb = run_cli(ops, args.trace_dir, cpu)
        result["cli_traces"] = traces
    else:
        records = run_library(ops, tracer, cpu)
        rss_kb = own_peak_rss_kb()
    result["loop_s"] = time.perf_counter() - t0
    result["records"] = records
    result["peak_rss_mb"] = rss_kb / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write(args.trace_dir / f"{args.workload}-seed{args.seed}.spans.tsv.gz")
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
