"""plethtomo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from src/ as it is,
nothing is installed or downloaded.  Workloads (see workloads.py for why
each was chosen): plethysm_sweep, chain_resolve, bounds_sandwich, cli_cold.
All are closed loops with one client.  A run makes R replicate rounds of
the same ops in the same order, each in a fresh worker process with empty
memo tables; R is the run length S over ROUND_S (at least 1), so it is
fixed for a given S.  On a shared host each CPU switches between full and
about half speed every few tenths of a second, and its full speed drifts
over minutes.  So the worker keeps itself on whichever of its CPUs a short
fixed probe finds fastest (worker.FastestCpu) and times the probe again
right after every op (and before a CLI child as well); an op's time is reported in reference-speed seconds,
its latency over that probe time times PROBE_REF_MS, as the median over
the R replicates.  Each set-up is scaled the same way, by the probe the
worker times when it is ready.  The measured latencies are printed as
well.

--trace 0 prints the end-to-end metrics (set-up time, goodput, p50/p90
latency with failed ops ranked slowest, share of ops answered correctly,
peak RSS).  --trace 1 runs one round under the layer tracer and one
without it, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 when the run completed, whether or not some
ops failed; 2 when the checkout has no plethtomo source; 3 when a round
could not finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 11
# time, in ms, of worker.probe at full speed on the 2-vCPU x86_64 host the
# reference numbers come from: an op's time is reported as its latency over
# the probe time measured with it (see op_costs), times PROBE_REF_MS
PROBE_REF_MS = 1.35
# typical wall time of one round, worker start included, on a 2-vCPU
# x86_64 host: a run of S seconds makes round(S / ROUND_S) rounds
ROUND_S = {"plethysm_sweep": 1.33, "chain_resolve": 4.0, "bounds_sandwich": 2.0, "cli_cold": 22.0}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its record, with setup_s
    the time from just before the spawn to the worker's ready mark, in
    reference-speed seconds by the probe the worker timed at that mark."""
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(), cwd=ROOT, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(worker_args)} did not finish within the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(worker_args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_measured_s"] = record["ready"] - t0
    record["setup_s"] = record["setup_measured_s"] * PROBE_REF_MS / 1000.0 / record["ready_probe"]
    return record


def percentile_ms(records: list, q: float) -> float | None:
    """Nearest-rank percentile of op latency; failed ops rank slower than
    every completed op, and a percentile that lands on one is missing."""
    lat = sorted(r[1] if r[2] == "ok" else math.inf for r in records)
    value = lat[max(0, math.ceil(q * len(lat)) - 1)]
    return None if math.isinf(value) else value * 1000.0


def failure_lines(records: list) -> list[str]:
    groups: dict[tuple, int] = {}
    for kind, _, status, detail, *_ in records:
        if status != "ok":
            key = (kind, status, detail if status == "error" else "wrong answer")
            groups[key] = groups.get(key, 0) + 1
    lines = [f"  {n} x {kind}: {detail}" for (kind, _, detail), n in sorted(groups.items())]
    examples = [r[3] for r in records if r[2] == "wrong"][:3]
    return lines + [f"  e.g. {e}" for e in examples]


def op_costs(rounds: list[dict]) -> list:
    """One record per op: kind, cost in seconds, status, detail, median
    latency.  The cost is the op's latency over the probe time the worker
    recorded with it (the probe run right after the op on the same CPU, or
    for a CLI child the mean of the probes before and after it), times
    PROBE_REF_MS, as the median over the replicates; a failure in any
    replicate makes the op failed."""
    costs = []
    for reps in zip(*(r["records"] for r in rounds)):
        failed = [rec for rec in reps if rec[2] != "ok"]
        kind, _, status, detail, _ = failed[0] if failed else reps[0]
        cost = statistics.median(lat / ref for _, lat, _, _, ref in reps) * PROBE_REF_MS / 1000.0
        costs.append([kind, cost, status, detail, statistics.median(rec[1] for rec in reps)])
    return costs


def end_to_end(args, deadline: float) -> tuple[dict, list, list[str]]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    replicates = max(1, round(args.seconds / ROUND_S[args.workload]))
    rounds = [spawn(common, deadline) for _ in range(replicates)]
    setups = rounds + [spawn([*common, "--setup-only"], deadline) for _ in range(SETUP_SAMPLES - len(rounds))]
    records = op_costs(rounds)
    ok = sum(1 for r in records if r[2] == "ok")
    failed = len(records) - ok
    total = sum(r[1] for r in records)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "ok_ops_per_s": ok / total,
        "op_p50_ms": percentile_ms(records, 0.50),
        "op_p90_ms": percentile_ms(records, 0.90),
        "ops_ok_frac": ok / len(records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    raw = [[kind, latency, status] for kind, _, status, _, latency in records]
    raw_p50, raw_p90 = (percentile_ms(raw, q) for q in (0.50, 0.90))
    loops = [r["loop_s"] for r in rounds]
    notes = [
        f"replicate rounds {replicates}, ops {len(records)} per round, op loops {sum(loops):.3f} s "
        f"(median round {statistics.median(loops):.3f} s), set-ups sampled {len(setups)}",
        f"op times in reference-speed seconds (latency x {PROBE_REF_MS} ms / probe time at the op), "
        f"median of {replicates}; ok_ops_per_s = {ok} ok ops / {total:.4f} s; percentiles over {len(records)} ops",
        f"as measured (median latency of {replicates}): {ok} ok ops / {sum(r[1] for r in raw):.4f} s, "
        f"p50 {'missing' if raw_p50 is None else f'{raw_p50:.4g}'} ms, "
        f"p90 {'missing' if raw_p90 is None else f'{raw_p90:.4g}'} ms, "
        f"set-up {statistics.median(r['setup_measured_s'] for r in setups):.4f} s",
        f"ops_failed_frac = {failed / len(records):.4f} ({failed} of {len(records)} ops); "
        f"reported as ops_ok_frac = 1 - ops_failed_frac",
    ]
    if failed:
        notes += ["failures:", *failure_lines(records)]
    return values, [rec for r in rounds for rec in r["records"]], notes


def merge_traces(summaries: list[dict]) -> dict:
    functions: dict[str, dict] = {}
    counters: dict[str, int] = {}
    memo: dict[str, dict] = {}
    wrapped: set[str] = set()
    for s in summaries:
        wrapped.update(s["wrapped"])
        for name, f in s["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += f["calls"]
            acc["self_s"] += f["self_s"]
        for name, v in s["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for stem, reading in s["memo"].items():
            acc = memo.setdefault(stem, {})
            for k, v in reading.items():
                # hits and misses add up over processes; a table's size is
                # reported as the largest any one process held
                acc[k] = max(acc.get(k, 0), v) if k == "entries" else acc.get(k, 0) + v
    return {"functions": functions, "counters": counters, "memo": memo, "wrapped": wrapped}


def layer_values(trace: dict) -> dict:
    """Per-layer metric values; a metric whose function or memo the traced
    package does not have is left out."""
    funcs, counters, memo, wrapped = trace["functions"], trace["counters"], trace["memo"], trace["wrapped"]
    layers = {name.split(".", 1)[0] for name in wrapped}
    values: dict[str, float] = {}
    for layer in layers:
        mine = [f for name, f in funcs.items() if name.startswith(layer + ".")]
        values[f"{layer}.calls"] = sum(f["calls"] for f in mine)
        values[f"{layer}.self_s"] = sum(f["self_s"] for f in mine)
    for metric in metrics.NAMED:
        stem, _, stat = metric.rpartition(".")
        if metric in metrics.COUNTER_SOURCES:
            if metrics.COUNTER_SOURCES[metric] in wrapped:
                values[metric] = counters.get(metric, 0)
        elif stat == "self_s" and stem in wrapped:
            values[metric] = funcs.get(stem, {}).get("self_s", 0.0)
        elif stem in memo and stat in ("hit_ratio", "misses", "entries"):
            m = memo[stem]
            if stat == "hit_ratio":
                lookups = m["hits"] + m["misses"]
                values[metric] = m["hits"] / lookups if lookups else 0.0
            else:
                values[metric] = m[stat]
    return values


def traced(args, deadline: float) -> tuple[dict, list, list[str]]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    trace_dir = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    with_trace = spawn([*common, "--trace-dir", str(trace_dir)], deadline)
    plain = spawn(common, deadline)
    if args.workload == "cli_cold":
        summaries = with_trace["cli_traces"]
    else:
        summaries = [with_trace["trace"]]
    values = layer_values(merge_traces(summaries))
    cli_children = [s for s in summaries if "import_s" in s]
    values["cli.import_s"] = statistics.median(s["import_s"] for s in cli_children) if cli_children else 0.0
    for sub in metrics.CLI_SUBCOMMANDS:
        lat = [r[1] for r in plain["records"] if r[0].split("-")[0] == sub] if args.workload == "cli_cold" else []
        values[f"cli.{sub}.process_s"] = statistics.median(lat) if lat else 0.0
    values["trace.overhead_frac"] = with_trace["loop_s"] / plain["loop_s"]
    records = with_trace["records"] + plain["records"]
    spans = sum(s.get("spans", 0) for s in summaries)
    notes = [
        f"traced round: {len(with_trace['records'])} ops in {with_trace['loop_s']:.3f} s, {spans} spans written under {trace_dir}",
        f"untraced round: {len(plain['records'])} ops in {plain['loop_s']:.3f} s",
    ]
    if any(r[2] != "ok" for r in records):
        notes += ["failures:", *failure_lines(records)]
    return values, records, notes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def machine_line() -> str:
    return (
        f"machine: nproc {os.cpu_count()}, {platform.machine()} {cpu_model()!r}, Python {platform.python_version()}; "
        "the machine may be shared with other jobs, so timings carry their load"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "plethtomo" / "__init__.py").is_file():
        print(f"error: no plethtomo source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        values, records, notes = (traced if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    units = metrics.per_layer(LAYERS) if args.trace else metrics.END_TO_END
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(machine_line())
    for line in notes:
        print(line)
    out = {}
    for name, unit in units.items():
        value = values.get(name)
        shown = ("absent" if args.trace else "missing") if value is None else f"{value:.6g}"
        print(f"{name:44s} {shown} {unit}")
        if value is not None:
            out[name] = {"value": value, "unit": unit}
    failed = sum(1 for r in records if r[2] != "ok")
    correct = not any(r[2] == "wrong" for r in records)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
