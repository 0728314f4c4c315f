"""Tests of the benchmark itself, at a tiny size: its checkers, its seeded
inputs, its tracer and its metric names.  They test the benchmark, not
the program."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

TINY_CHAIN = ((1, (1, 2), 2, True), (2, (1,), 1, False))


def tiny_ops(rng):
    return (
        workloads.plethysm_sweep_ops(cap=3)
        + workloads.chain_resolve_ops(rng, mix=TINY_CHAIN)
        + workloads.bounds_sandwich_ops(n_max=2, mu_max=2)
    )


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer(LAYERS)
    assert spec["paths"] == ["perfbench"]


def test_tiny_ops_are_correct():
    for op in tiny_ops(random.Random(0)):
        assert op.run() is None, op


def test_seed_fixes_inputs():
    def signature(workload, seed):
        ops = workloads.build_round(workload, seed)
        return [(op.kind, op.run.args) for op in ops]

    for workload in ("plethysm_sweep", "chain_resolve", "bounds_sandwich"):
        assert signature(workload, 3) == signature(workload, 3)
    assert signature("chain_resolve", 3) != signature("chain_resolve", 4)
    cli = workloads.build_round("cli_cold", 3)
    assert cli == workloads.build_round("cli_cold", 3)
    assert len(cli) == sum(workloads.CLI_MIX.values()) >= 100


def test_library_checkers_flag_a_wrong_value(monkeypatch):
    from plethtomo import coefficients, tomography
    from plethtomo.tomography import XRayInstance2D

    inst = XRayInstance2D(1, (1, 1), (1, 1), (2, 0))
    assert workloads.chain_op(inst) is None
    real = tomography.count_2dxray
    monkeypatch.setattr(tomography, "count_2dxray", lambda i: real(i) + 1)
    assert workloads.chain_op(inst) is not None
    monkeypatch.undo()

    assert workloads.plethysm_table_op((2,), (2,)) is None
    real_gp = coefficients.general_plethysm
    monkeypatch.setattr(coefficients, "general_plethysm", lambda *a: replace(real_gp(*a), value=real_gp(*a).value + 1))
    assert workloads.plethysm_table_op((2,), (2,)) is not None
    from plethtomo.partitions import partitions_of

    assert any(workloads.sandwich_op(lam, 2) is not None for lam in partitions_of(6))


def test_cli_checker_and_exit_codes():
    pool = workloads.load_cli_pool()
    assert set(pool) == set(workloads.CLI_MIX)
    q = pool["coeff-a"][0]
    good = json.dumps({"method": "jacobi-trudi", **q.expect})
    assert workloads.check_cli(q, 0, good) is None
    wrong = replace(q, expect={"value": q.expect["value"] + 1})
    assert workloads.check_cli(wrong, 0, good) is not None
    assert workloads.check_cli(q, 1, "") is not None
    assert workloads.check_cli(q, 3, "") is not None
    infeasible = pool["reduce-infeasible"][0]
    assert workloads.check_cli(infeasible, 3, "") is None
    assert workloads.check_cli(infeasible, 0, "[]") is not None
    red = pool["reduce-r1"][0]
    stages = [{"stage": "plethysm", "value": red.expect}] * 2 + [{"stage": "kron-triple", "value": red.expect}]
    assert workloads.check_cli(red, 0, json.dumps(stages)) is None
    stages[-1] = {"stage": "kron-triple", "value": red.expect + 1}
    assert workloads.check_cli(red, 0, json.dumps(stages)) is not None


def test_cli_pool_answers_hold():
    from plethtomo import characters, tomography
    from plethtomo.partitions import parse_partition

    pool = workloads.load_cli_pool()
    for q in pool["coeff-p"][:3]:
        lam, mu, nu = (parse_partition(a) for a in q.argv[2:5])
        assert characters.plethysm_schur_multiplicity(lam, mu, nu) == q.expect["value"]
    for q in pool["reduce-r1"][:3]:
        inst = tomography.instance_from_dict(json.loads(q.argv[1]))
        assert tomography.count_2dxray(inst) == q.expect


def test_traced_run_reports_every_layer():
    import plethtomo.cli
    from plethtomo import tableaux

    original = tableaux.kostka
    tracer = Tracer()
    tracer.install()
    try:
        assert tableaux.kostka is not original
        for i, op in enumerate(tiny_ops(random.Random(1))):
            tracer.op_id = i
            assert op.run() is None
        with contextlib.redirect_stdout(io.StringIO()):
            assert plethtomo.cli.main(["coeff", "a", "[4,2]", "2", "3", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert tableaux.kostka is original
    summary = tracer.summary()
    assert summary["spans"] == len(tracer.start) > 0
    values = run.layer_values(run.merge_traces([summary]))
    for layer in LAYERS:
        assert values[f"{layer}.calls"] > 0, layer
        assert values[f"{layer}.self_s"] > 0, layer
    from_run = {"cli.import_s", "trace.overhead_frac"} | {f"cli.{s}.process_s" for s in metrics.CLI_SUBCOMMANDS}
    assert set(metrics.NAMED) - from_run <= set(values)
    # a function the package no longer has leaves its metric absent
    summary["wrapped"].remove("tableaux.count_weighted_ssyt")
    assert "tableaux.count_weighted_ssyt.self_s" not in run.layer_values(run.merge_traces([summary]))


def test_op_costs_scale_by_the_probe_and_keep_any_failure():
    ref = run.PROBE_REF_MS / 1000.0
    rounds = [
        {"records": [["a", 0.002, "ok", None, ref], ["b", 0.010, "ok", None, ref]]},
        {"records": [["a", 0.004, "ok", None, 2 * ref], ["b", 0.020, "error", "RecursionError", 2 * ref]]},
        {"records": [["a", 0.009, "ok", None, 2 * ref], ["b", 0.020, "ok", None, 2 * ref]]},
    ]
    (a, b) = run.op_costs(rounds)
    assert a[0] == "a" and a[2] == "ok" and math.isclose(a[1], 0.002) and math.isclose(a[4], 0.004)
    assert b[2:4] == ["error", "RecursionError"] and math.isclose(b[1], 0.010)


def test_cli_shim_reports_its_own_peak_rss():
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_shim.py"), "coeff", "a", "[2]", "1", "2", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 1
    last = proc.stderr.strip().splitlines()[-1].split()
    assert last[0] == "peak_rss_kb" and int(last[1]) > 0


def test_percentiles_rank_failed_ops_slowest():
    records = [["k", t, "ok", None] for t in (0.001, 0.002, 0.003)] + [["k", 0.0001, "error", "RecursionError"]]
    assert run.percentile_ms(records, 0.5) == 2.0
    assert run.percentile_ms(records, 0.9) is None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_resolve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
