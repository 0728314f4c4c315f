import io
import json
import time
from pathlib import Path

import pytest
from test_tomography import full_simplex, layer_sample

from plethtomo.cli import (
    EXIT_GATE_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    VERIFY_BOUNDS_N_MAX,
    VERIFY_CLOSED_FORMS_N_MAX,
    VERIFY_DUALITY_NM_MAX,
    VERIFY_PARSIMONY_RP_MAX,
    VERIFY_XI_I_MAX,
    GateError,
    build_parser,
    main,
)
from plethtomo.coefficients import KRON_N_MAX, POWER_SUM_N_MAX, CoefficientResult, jacobi_trudi_coeff
from plethtomo.partitions import add, format_partition, parse_partition, transpose
from plethtomo.reductions import REDUCE_R_MAX, embed_pyramid_3d, kronecker_plethysm_triple, promise_to_plethysm, symmetrize_2d
from plethtomo.tomography import (
    SizeCapError,
    axis_marginals,
    count_2dxray,
    count_sym_2dxray,
    in_cone,
    instance_from_dict,
    is_promise_instance,
    sum_marginal,
    xi,
)

BENCHMARK_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "cli_pool.json"


def run(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def feasible_reduce_queries():
    """(instance JSON, instance) of every gate-feasible reduce query in the
    benchmark's CLI pool."""
    pool = json.loads(BENCHMARK_POOL.read_text())
    return [
        (q["argv"][1], inst)
        for kind, queries in pool["queries"].items()
        if kind.startswith("reduce")
        for q in queries
        if (inst := instance_from_dict(json.loads(q["argv"][1]))).passes_gate()
    ]


def test_coeff_a(capsys, monkeypatch):
    code, out, _ = run(["coeff", "a", "[4]", "2", "2"], capsys=capsys)
    assert code == EXIT_OK
    assert "value: 1" in out


def test_coeff_b_trivial_no_instance(capsys, monkeypatch):
    code, out, _ = run(["coeff", "b", "[2,1]", "1", "3"], capsys=capsys)
    assert code == EXIT_OK
    assert "value: 0" in out


def test_coeff_general(capsys, monkeypatch):
    code, out, _ = run(["coeff", "p", "[2,2]", "[2]", "[2]"], capsys=capsys)
    assert code == EXIT_OK
    assert "value: 1" in out


def test_coeff_json_format(capsys, monkeypatch):
    code, out, _ = run(["coeff", "a", "[4]", "2", "2", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == 1


def test_coeff_malformed_input(capsys, monkeypatch):
    code, _, err = run(["coeff", "a", "[4", "2", "2"], capsys=capsys)
    assert code == EXIT_INPUT_ERROR
    assert "input error" in err


def test_coeff_missing_args(capsys, monkeypatch):
    code, _, err = run(["coeff", "a", "[4]"], capsys=capsys)
    assert code == EXIT_INPUT_ERROR
    code, _, err = run(["coeff", "p", "[4]", "[2]"], capsys=capsys)
    assert code == EXIT_INPUT_ERROR


def test_coeff_negative_outer_degree_is_an_input_error(capsys):
    # (1^-2) used to be the empty shape, so this printed 1
    code, out, err = run(["coeff", "b", "[]", "-2", "3"], capsys=capsys)
    assert code == EXIT_INPUT_ERROR
    assert out == "" and err.startswith("input error") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["coeff", "b", "[]", "2", "0"], ["coeff", "p", "[]", "[1,1]", "[]"]], ids=["b", "p"])
def test_coeff_inner_degree_zero(capsys, argv):
    # wedge^2 of a 1-dimensional space is 0
    code, out, _ = run(argv, capsys=capsys)
    assert code == EXIT_OK
    assert "value: 0" in out


def test_coeff_p_one_row_2400(capsys, monkeypatch):
    # one letter, (1200), where filling the 1200-box inner tableau box by
    # box ran out of interpreter stack
    code, out, err = run(["coeff", "p", "[2400]", "[2]", "[1200]", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert json.loads(out)["value"] == 1


def test_coeff_p_one_column_1200(capsys, monkeypatch):
    # an outer shape of 1200 rows, where a recursion frame per row in the
    # horizontal-strip step ran out of interpreter stack
    column = "[" + ",".join(["1"] * 1200) + "]"
    code, out, err = run(["coeff", "p", "[1200]", column, "[1]", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert json.loads(out)["value"] == 0


def test_coeff_p_tall_shape_takes_power_sum(capsys, monkeypatch):
    # ten rows, one over the Jacobi-Trudi cutoff; by omega-duality the value
    # is the Jacobi-Trudi coefficient of the transposes, mu transposed too
    # because |nu| is odd
    code, out, err = run(["coeff", "p", "[3,1,1,1,1,1,1,1,1,1]", "[3,1]", "[1,1,1]", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert json.loads(out) == {"value": jacobi_trudi_coeff((10, 1, 1), (2, 1, 1), (3,)), "method": "power-sum"}
    assert json.loads(out)["value"] == 1


def test_coeff_tall_over_the_power_sum_cap_builds_no_class(capsys, monkeypatch):
    def no_class(*args):
        raise AssertionError("coeff built a class over the power-sum cap")

    monkeypatch.setattr("plethtomo.characters.plethysm_power_expansion", no_class)
    # ten rows and ten columns: 100 boxes on the power-sum route, as neither
    # side has at most nine rows
    code, out, err = run(["coeff", "p", format_partition((10,) * 10), "[10]", "[10]"], capsys=capsys)
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap:") and "100" in err and len(err.splitlines()) == 1
    # twelve rows and 48 boxes, but lam' = (12,12,4^6) has eight rows.  Its
    # coordinate sum 120 >= beta(16, open) = 103, so no row answers first
    code, out, err = run(["coeff", "a", format_partition((8,) * 4 + (2,) * 8), "16", "3", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert out == '{"method":"omega-dual+jacobi-trudi","value":0}\n'


def test_coeff_below_beta_answers_zero_over_the_power_sum_cap(capsys):
    # lam' = (12^4) has coordinate sum 72, below beta(16, open) = 103: no
    # 16-point set of the open cone has it, and their count bounds a
    code, out, err = run(["coeff", "a", format_partition((4,) * 12), "16", "3", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert out == '{"method":"below-beta","value":0}\n'


def test_coeff_one_row_outer_counts_letters(capsys):
    # 231 Jacobi-Trudi keys of h_12[h_3], which took 9.9 s on the strip DP;
    # about 0.4-0.7 s here, bounded at 2 s for CPUs that drop to half speed
    t0 = time.perf_counter()
    code, out, err = run(["coeff", "a", "[6,6,6,6,6,6]", "12", "3", "--format", "json"], capsys=capsys)
    assert time.perf_counter() - t0 < 2.0
    assert code == EXIT_OK, err
    assert out == '{"method":"jacobi-trudi","value":1}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "b", "[65,54,46,39,32,23,17,12,9,7,5,2,1]", "104", "3"],
        ["coeff", "a", "[12,11,11,10,10,9,8,8,8,7,7,6,6,5,5,5,5,4,4,4,3,3,2,2,2,2,1,1,1,1,1,1]", "55", "3"],
    ],
    ids=["b", "a"],
)
def test_coeff_promise_shape_over_the_power_sum_cap(capsys, argv):
    # worked example 1's chain queries: the b shape has 13 rows and 312
    # boxes, the a shape 32 rows and 165, both over the power-sum cap, but
    # each is a promise instance's point-set count
    t0 = time.perf_counter()
    code, out, err = run([*argv, "--format", "json"], capsys=capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK, err
    assert out == '{"method":"promise-pyramid-count","value":1}\n'


@pytest.mark.parametrize(
    "argv, method, value",
    [
        (["coeff", "b", "[6,5,5,4,4,3,3,2]", "8", "4"], "column-peel+closed-form", 0),
        (["coeff", "a", "[4,4,4,4,4,4,4,4,4]", "9", "4"], "column-peel+jacobi-trudi", 1),
        (["coeff", "a", "[10,10,10,10,10,10]", "30", "2"], "closed-form", 1),
        (["coeff", "a", "[100000000000000000000]", "1", "100000000000000000000"], "column-peel+promise-pyramid-count", 1),
    ],
    ids=["b-peeled-twice", "a-square-peeled-to-degree-0", "a-degree-2", "a-one-row-of-1e20"],
)
def test_coeff_answers_by_column_peel_and_closed_form(capsys, argv, method, value):
    # on the Jacobi-Trudi route the first three took 25 s, over 60 s and
    # over 150 s; peeling one column per step, the last took 0.9 s per 10^6
    # columns
    t0 = time.perf_counter()
    code, out, err = run([*argv, "--format", "json"], capsys=capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK, err
    assert json.loads(out) == {"method": method, "value": value}


def test_power_sum_cap_admits_every_benchmark_query():
    pool = json.loads(BENCHMARK_POOL.read_text())
    sizes = [sum(parse_partition(q["argv"][2])) for kind in ("coeff-a", "coeff-b", "coeff-p") for q in pool["queries"][kind]]
    assert sizes and max(sizes) <= POWER_SUM_N_MAX


@pytest.mark.parametrize(
    "argv, want",
    [
        (["coeff", "a", "[4]", "2", "2"], "method,value\nclosed-form,1\n"),
        (["kron", "[2,1]", "[2,1]", "[2,1]"], "method,value\ncharacter-sum,1\n"),
        (["count", json.dumps({"kind": "sym3d", "cone": "closed", "marginals": {"sum": [3]}})], "count\n1\n"),
    ],
    ids=["coeff", "kron", "count"],
)
def test_csv_format(capsys, argv, want):
    code, out, err = run([*argv, "--format", "csv"], capsys=capsys)
    assert code == EXIT_OK, err
    assert out == want


def test_kron(capsys, monkeypatch):
    code, out, _ = run(["kron", "[2,1]", "[2,1]", "[1,1,1]"], capsys=capsys)
    assert code == EXIT_OK
    assert "value: 1" in out


def test_kron_one_row_answers_at_any_size(capsys):
    t0 = time.time()
    code, out, err = run(["kron", "[70]", "[70]", "[70]", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert json.loads(out) == {"value": 1, "method": "one-row-or-column"}
    assert time.time() - t0 < 1.0


def test_kron_over_the_cap_evaluates_no_character(capsys, monkeypatch):
    def no_character(*args):
        raise AssertionError("kron evaluated a character over its cap")

    monkeypatch.setattr("plethtomo.characters._mn", no_character)
    monkeypatch.setattr("plethtomo.characters.kronecker", no_character)
    monkeypatch.setattr("plethtomo.coefficients._kronecker", no_character)
    assert KRON_N_MAX == 40
    n = KRON_N_MAX + 1
    code, out, err = run(["kron", f"[{n - 1},1]", f"[{n - 1},1]", f"[{n - 2},2]"], capsys=capsys)
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap:") and len(err.splitlines()) == 1
    # one row or one column is answered first, at any size
    hook = (n - 1, 1)
    code, out, _ = run(["kron", f"[{n}]", format_partition(hook), format_partition(hook)], capsys=capsys)
    assert code == EXIT_OK and "value: 1" in out
    column = format_partition((1,) * n)
    code, out, _ = run(["kron", format_partition(hook), column, format_partition((2,) + (1,) * (n - 2))], capsys=capsys)
    assert code == EXIT_OK and "value: 1" in out
    # malformed input is still an input error over the cap
    code, _, err = run(["kron", f"[{n}]", f"[{n - 1}]", f"[{n}]"], capsys=capsys)
    assert code == EXIT_INPUT_ERROR and err.startswith("input error")
    # the cap itself takes the character route
    monkeypatch.setattr("plethtomo.coefficients._kronecker", lambda *args: 7)
    n = KRON_N_MAX
    code, out, _ = run(["kron", f"[{n - 1},1]", f"[{n - 1},1]", f"[{n - 2},2]"], capsys=capsys)
    assert code == EXIT_OK and "value: 7" in out and "character-sum" in out


def test_kron_cap_admits_every_benchmark_query():
    pool = json.loads(BENCHMARK_POOL.read_text())
    sizes = [sum(parse_partition(q["argv"][1])) for q in pool["queries"]["kron"]]
    assert sizes and max(sizes) <= KRON_N_MAX


def test_reduce_resolve_caps_the_kronecker_stage(capsys, monkeypatch):
    # range 6, one point: the triple has size 57, over KRON_N_MAX
    data = json.dumps({"kind": "2dxray", "r": 6, "marginals": {"x": [0, 0, 0, 0, 0, 0, 1], "y": [1], "z": [1]}})
    code, out, err = run(["reduce", data, "--to", "plethysm", "--resolve", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert [stage["value"] for stage in json.loads(out) if "value" in stage] == [1, 1]

    def no_work(*args):
        raise AssertionError("reduce resolved a stage over the Kronecker cap")

    monkeypatch.setattr("plethtomo.characters._mn", no_work)
    monkeypatch.setattr("plethtomo.coefficients._kronecker", no_work)
    monkeypatch.setattr("plethtomo.cli.resolve_coefficient", no_work)
    code, out, err = run(["reduce", data, "--resolve"], capsys=capsys)
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap:") and "57" in err
    # without --resolve the triple is only printed
    code, out, _ = run(["reduce", data, "--format", "json"], capsys=capsys)
    assert code == EXIT_OK
    triple = json.loads(out)[-1]
    assert triple["stage"] == "kron-triple" and sum(triple["mu"]) == 57 and "value" not in triple


def test_reduce_cap_admits_every_benchmark_query():
    queries = feasible_reduce_queries()
    sizes = [sum(kronecker_plethysm_triple(inst).mu) for _, inst in queries]
    assert len(sizes) == 120 and max(sizes) <= KRON_N_MAX
    assert max(inst.r for _, inst in queries) <= REDUCE_R_MAX


def one_point_reduce_query(r):
    """A feasible range-r instance with one point, (r, 0, 0)."""
    return json.dumps({"kind": "2dxray", "r": r, "marginals": {"x": [0] * r + [1], "y": [1], "z": [1]}})


def test_reduce_over_the_range_cap_embeds_nothing(capsys, monkeypatch):
    # the cap itself is allowed
    code, out, err = run(["reduce", one_point_reduce_query(REDUCE_R_MAX), "--to", "promise3d", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert [stage["promise"] for stage in json.loads(out) if stage["stage"] == "promise3d"] == [True, True]

    def no_embedding(*args):
        raise AssertionError("reduce built a pyramid embedding over its range cap")

    # the body that embed_pyramid_3d and the chain record's promise3d share
    monkeypatch.setattr("plethtomo.reductions._embed_pyramid_3d", no_embedding)
    data = one_point_reduce_query(REDUCE_R_MAX + 1)
    for target in ("promise3d", "plethysm", "kron-triple"):
        for resolve in ([], ["--resolve"]):
            code, out, err = run(["reduce", data, "--to", target, *resolve], capsys=capsys)
            assert code == EXIT_GATE_FAILED, (target, resolve)
            assert out == ""
            assert err.startswith("over the size cap:") and len(err.splitlines()) == 1
    # the layer instance answers at any range
    code, out, err = run(["reduce", data, "--to", "sym2d", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert [stage["r"] for stage in json.loads(out)] == [REDUCE_R_MAX + 1] + [13 * (REDUCE_R_MAX + 1)] * 2


def test_reduce_to_promise3d_builds_no_triple(capsys, monkeypatch):
    # the promise3d target prints the spread and embedding stages, built
    # once each under the range cap, and never the record's triple
    want = run(["reduce", one_point_reduce_query(3), "--to", "kron-triple", "--format", "json"], capsys=capsys)[1]

    def no_record(inst):
        raise AssertionError("reduce --to promise3d built the whole chain record")

    monkeypatch.setattr("plethtomo.cli.kronecker_plethysm_triple", no_record)
    code, out, err = run(["reduce", one_point_reduce_query(3), "--to", "promise3d", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert json.loads(out) == json.loads(want)[:5]


def stages_by_the_stage_functions(inst):
    """The `reduce --format json` stages of a feasible instance, assembled
    from the stage functions directly, with the triple padded by the axis
    marginals of the enumerated radius r-1 simplex."""
    cones = ("open", "closed")
    syms = {kind: symmetrize_2d(inst, kind) for kind in cones}
    embs = {kind: embed_pyramid_3d(syms[kind].marginal, syms[kind].grid_r, kind) for kind in cones}
    queries = {kind: promise_to_plethysm(embs[kind].marginal, kind) for kind in cones}
    pads = axis_marginals(full_simplex(inst.r - 1))
    triple = [transpose(tuple(sorted(add(m, pad), reverse=True))) for m, pad in zip((inst.mu, inst.nu, inst.rho), pads)]
    stages = [{"stage": "2dxray", "r": inst.r, "marginals": {"x": list(inst.mu), "y": list(inst.nu), "z": list(inst.rho)}}]
    for k in cones:
        stages.append({"stage": "sym2d", "cone": k, "r": syms[k].grid_r, "marginal": list(syms[k].marginal)})
    for k in cones:
        promise = is_promise_instance(embs[k].marginal, k)
        stages.append({"stage": "promise3d", "cone": k, "marginal": list(embs[k].marginal), "promise": promise})
    for k, q in queries.items():
        stages.append({"stage": "plethysm", "cone": k, "family": q.variant, "shape": list(q.lam), "n": q.n, "m": q.m})
    stages.append({"stage": "kron-triple", **{name: list(p) for name, p in zip(("mu", "nu", "rho"), triple)}})
    return stages


def test_reduce_targets_are_prefixes_of_the_stage_functions(capsys):
    # every feasible reduce query of the benchmark pool at each --to target:
    # a shorter target prints a prefix of the kron-triple stages, and those
    # are what the stage functions give when applied one by one
    queries = feasible_reduce_queries()
    assert len(queries) == 120
    for data, inst in queries:
        want = stages_by_the_stage_functions(inst)
        for target, length in (("sym2d", 3), ("promise3d", 5), ("plethysm", 7), ("kron-triple", 8)):
            code, out, err = run(["reduce", data, "--to", target, "--format", "json"], capsys=capsys)
            assert code == EXIT_OK, err
            assert json.loads(out) == want[:length], (target, inst)


def test_reduce_off_the_promise_fails_the_gate(capsys):
    # feasible, with count 0: its 15 points exceed the 14 of open layer 13,
    # so the open cone's embedding is not a promise instance
    data = json.dumps({"kind": "2dxray", "r": 1, "marginals": {"x": [15], "y": [15], "z": [0, 15]}})
    assert xi(13, "open") == 14
    code, out, err = run(["reduce", data, "--to", "sym2d", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert [stage["stage"] for stage in json.loads(out)] == ["2dxray", "sym2d", "sym2d"]
    for target in ("promise3d", "plethysm", "kron-triple"):
        for resolve in ([], ["--resolve"]):
            code, out, err = run(["reduce", data, "--to", target, *resolve], capsys=capsys)
            assert code == EXIT_GATE_FAILED, (target, resolve)
            assert out == ""
            assert err.startswith("gate failure:") and len(err.splitlines()) == 1


def test_count_stdin(capsys, monkeypatch):
    inst = json.dumps({"kind": "2dxray", "r": 1, "marginals": {"x": [1, 1], "y": [1, 1], "z": [2, 0]}})
    code, out, _ = run(["count", "-"], stdin_text=inst, monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_OK
    assert "count: 1" in out


def test_count_inline_and_file(tmp_path, capsys, monkeypatch):
    data = {"kind": "sym3d", "cone": "closed", "marginals": {"sum": [3]}}
    code, out, _ = run(["count", json.dumps(data)], capsys=capsys)
    assert code == EXIT_OK and "count: 1" in out
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(["count", str(path)], capsys=capsys)
    assert code == EXIT_OK and "count: 1" in out


def test_count_whole_closed_layer(capsys, monkeypatch):
    # every one of the 1261 closed-cone points of layer 120: the level
    # engine takes the layer whole, where a per-candidate recursion ran out
    # of interpreter stack
    r = 120
    layer = [(x, y, r - x - y) for x in range(r + 1) for y in range(r - x + 1) if in_cone((x, y, r - x - y), "closed")]
    assert len(layer) == xi(r, "closed") == 1261
    data = {"kind": "sym2d", "r": r, "cone": "closed", "marginals": {"sum": list(sum_marginal(layer))}}
    code, out, err = run(["count", json.dumps(data), "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert json.loads(out) == {"count": 1}


def test_count_range_45_layer(capsys, monkeypatch):
    # the 46 points (x, 45-x, 0): one solution, where a per-cell recursion
    # ran out of interpreter stack
    ones = [1] * 46
    data = {"kind": "2dxray", "r": 45, "marginals": {"x": ones, "y": ones, "z": [46]}}
    code, out, err = run(["count", json.dumps(data), "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    assert json.loads(out) == {"count": 1}


def test_count_2dxray_over_the_state_cap_exits_3(capsys):
    inst = layer_sample(20, 40, 1)
    data = {"kind": "2dxray", "r": inst.r, "marginals": {"x": list(inst.mu), "y": list(inst.nu), "z": list(inst.rho)}}
    code, out, err = run(["count", json.dumps(data)], capsys=capsys)
    assert code == EXIT_GATE_FAILED and out == ""
    assert err.startswith("over the size cap:") and len(err.splitlines()) == 1


def test_count_tall_sym3d_by_letters(capsys):
    # (1^18) closed sits far above the minimum coordinate sum, where the
    # letter counter answers and the level engine took seconds
    data = {"kind": "sym3d", "cone": "closed", "marginals": {"sum": [1] * 18}}
    t0 = time.perf_counter()
    code, out, err = run(["count", json.dumps(data)], capsys=capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK, err
    assert out == "count: 190590400\n"


def test_count_3dxray_over_the_size_cap(capsys, monkeypatch):
    # 4^12 residual pairs: refused before the DP starts
    ones = [1] * 12
    data = {"kind": "3dxray", "marginals": {"x": ones, "y": ones, "z": ones}}
    t0 = time.perf_counter()
    code, out, err = run(["count", json.dumps(data)], capsys=capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap") and len(err.splitlines()) == 1


def test_count_bad_schema(capsys, monkeypatch):
    code, _, err = run(["count", json.dumps({"kind": "mystery"})], capsys=capsys)
    assert code == EXIT_INPUT_ERROR


@pytest.mark.parametrize("argv", [["kron", "[0,0,2]", "[2]", "[1,1]"], ["kron", "[0,1,3]", "[4]", "[4]"]])
def test_kron_rejects_non_partitions(capsys, argv):
    code, out, err = run(argv, capsys=capsys)
    assert code == EXIT_INPUT_ERROR
    assert out == "" and err.startswith("input error")


SYM2D_CLOSED = {"kind": "sym2d", "r": 1, "cone": "closed", "marginals": {"sum": [2, 1]}}
MALFORMED_INSTANCES = [
    [1, 2],
    {"kind": "2dxray", "r": 1, "marginals": {"x": [1, "a"], "y": [1, 1], "z": [2]}},
    {"kind": "2dxray", "r": 1, "marginals": [1]},
    {"kind": "2dxray", "r": [1], "marginals": {"x": [1, 1], "y": [1, 1], "z": [2]}},
    {"kind": "3dxray", "marginals": {"x": 3, "y": [3], "z": [3]}},
    {**SYM2D_CLOSED, "cone": "weird"},
]


@pytest.mark.parametrize("command", ["count", "reduce"])
@pytest.mark.parametrize("data", MALFORMED_INSTANCES)
def test_malformed_instances_are_input_errors(capsys, monkeypatch, command, data):
    code, out, err = run([command, "-"], stdin_text=json.dumps(data), monkeypatch=monkeypatch, capsys=capsys)
    assert code == EXIT_INPUT_ERROR, err
    assert out == "" and err.startswith("input error") and len(err.splitlines()) == 1


NEGATIVE_RANGE_INSTANCES = [
    {"kind": "2dxray", "r": -1, "marginals": {"x": [], "y": [], "z": []}},
    {"kind": "2dxray", "r": -2, "marginals": {"x": [1], "y": [1], "z": [1]}},
    {"kind": "sym2d", "r": -1, "cone": "closed", "marginals": {"sum": []}},
]


@pytest.mark.parametrize("command", ["count", "reduce"])
@pytest.mark.parametrize("data", NEGATIVE_RANGE_INSTANCES)
def test_negative_grid_range_is_an_input_error(capsys, command, data):
    # a 2dxray at r = -1 used to count 1 and one at r = -2 to report a
    # marginal longer than [0,-2]; a sym2d at r = -1 counted 0
    code, out, err = run([command, json.dumps(data)], capsys=capsys)
    assert code == EXIT_INPUT_ERROR
    assert out == "" and err == f"input error: grid range must be >= 0, got {data['r']}\n"


def test_sym2d_cone_is_checked(capsys, monkeypatch):
    # the one point (1,0,0) of the closed layer; an unknown cone used to be
    # counted as the open one, which has no point there
    code, out, _ = run(["count", json.dumps(SYM2D_CLOSED)], capsys=capsys)
    assert code == EXIT_OK and "count: 1" in out
    with pytest.raises(ValueError, match="weird"):
        count_sym_2dxray((2, 1), 1, "weird")


def test_reduce_trace(capsys, monkeypatch):
    inst = json.dumps({"kind": "2dxray", "r": 1, "marginals": {"x": [1, 1], "y": [1, 1], "z": [2, 0]}})
    code, out, _ = run(["reduce", inst, "--to", "kron-triple", "--resolve", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK
    stages = json.loads(out)
    names = [s["stage"] for s in stages]
    assert names == ["2dxray", "sym2d", "sym2d", "promise3d", "promise3d", "plethysm", "plethysm", "kron-triple"]
    final = stages[-1]
    assert final["mu"] == [2, 1] and final["rho"] == [1, 1, 1] and final["value"] == 1
    a_stage = [s for s in stages if s["stage"] == "plethysm" and s["cone"] == "open"][0]
    assert a_stage["n"] == 55 and a_stage["value"] == 1


def test_reduce_text_format(capsys):
    inst = json.dumps({"kind": "2dxray", "r": 1, "marginals": {"x": [1, 1], "y": [1, 1], "z": [2, 0]}})
    code, out, err = run(["reduce", inst, "--to", "promise3d"], capsys=capsys)
    assert code == EXIT_OK, err
    lines = out.splitlines()
    assert lines[0] == "stage        cone     detail"
    assert lines[1] == "2dxray       -        marginals={'x': [1, 1], 'y': [1, 1], 'z': [2]}, r=1"
    code, out, _ = run(["reduce", inst, "--to", "promise3d", "--format", "json"], capsys=capsys)
    stages = json.loads(out)
    assert [line.split()[:2] for line in lines[2:]] == [[st["stage"], st["cone"]] for st in stages[1:]]
    assert lines[-1].endswith(f"marginal={stages[-1]['marginal']}, promise=True")


def test_reduce_rejects_other_instance_kinds(capsys):
    code, out, err = run(["reduce", json.dumps(SYM2D_CLOSED)], capsys=capsys)
    assert code == EXIT_INPUT_ERROR
    assert out == "" and err == "input error: reduce expects a 2dxray instance\n"


def test_reduce_gate_failure(capsys, monkeypatch):
    inst = json.dumps({"kind": "2dxray", "r": 1, "marginals": {"x": [1, 1], "y": [1, 1], "z": [1, 1]}})
    code, _, err = run(["reduce", inst], capsys=capsys)
    assert code == EXIT_GATE_FAILED
    assert "gate failure" in err


@pytest.mark.parametrize(
    "marginals, want",
    [
        ({"x": [3, 0, 1], "y": [1, 3], "z": [0, 1, 3]}, 0),
        ({"x": [2, 1, 1], "y": [2, 1, 1], "z": [1, 1, 1, 1]}, 2),
    ],
)
def test_reduce_resolve_range_three(capsys, marginals, want):
    # the promise instances of range 3 have over 8000 candidate points each
    data = {"kind": "2dxray", "r": 3, "marginals": marginals}
    code, out, err = run(["reduce", json.dumps(data), "--resolve", "--format", "json"], capsys=capsys)
    assert code == EXIT_OK, err
    values = [stage["value"] for stage in json.loads(out) if "value" in stage]
    assert values == [want] * 3
    assert count_2dxray(instance_from_dict(data)) == want


def test_recursion_error_maps_to_size_cap(capsys, monkeypatch):
    def too_deep(data):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("plethtomo.cli.count_instance", too_deep)
    data = {"kind": "sym3d", "cone": "closed", "marginals": {"sum": [3]}}
    code, out, err = run(["count", json.dumps(data)], capsys=capsys)
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap") and len(err.splitlines()) == 1


def test_deeply_nested_json_is_malformed_input(capsys, monkeypatch, tmp_path):
    # a JSON parser that runs out of recursion (depth 3000 on CPython 3.11)
    # used to exit 3 as an instance over the size cap; where it parses, the
    # marginal check refuses the input, so either way the exit is 2
    for depth in (500, 3000):
        text = '{"kind":"sym3d","cone":"open","marginals":{"sum":' + "[" * depth + "]" * depth + "}}"
        code, out, err = run(["count", text], capsys=capsys)
        assert code == EXIT_INPUT_ERROR, depth
        assert out == "" and err.startswith("input error") and len(err.splitlines()) == 1
    # the parser's RecursionError itself, on any interpreter, inline and from a file
    path = tmp_path / "deep.json"
    path.write_text("{}", encoding="utf-8")

    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded while decoding a JSON array")

    monkeypatch.setattr(json, "loads", too_deep)
    monkeypatch.setattr(json, "load", too_deep)
    for arg in ("{}", str(path)):
        code, out, err = run(["count", arg], capsys=capsys)
        assert code == EXIT_INPUT_ERROR, arg
        assert out == "" and err == "input error: the instance JSON is nested too deeply to parse\n"


@pytest.mark.parametrize(
    "exc, want",
    [
        (GateError("infeasible"), EXIT_GATE_FAILED),
        (SizeCapError("too many states"), EXIT_GATE_FAILED),
        (RecursionError("maximum recursion depth exceeded"), EXIT_GATE_FAILED),
        (MemoryError(), EXIT_GATE_FAILED),
        (ValueError("bad shape"), EXIT_INPUT_ERROR),
        (KeyError("marginals"), EXIT_INPUT_ERROR),
        (OSError("no such file"), EXIT_INPUT_ERROR),
        (json.JSONDecodeError("Expecting value", "{", 1), EXIT_INPUT_ERROR),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v),
)
def test_exit_code_of_each_handled_exception(capsys, monkeypatch, exc, want):
    def failing(args, out):
        raise exc

    monkeypatch.setattr("plethtomo.cli._cmd_coeff", failing)
    code, out, err = run(["coeff", "a", "[4]", "2", "2"], capsys=capsys)
    assert code == want
    assert out == ""
    assert len(err.splitlines()) == 1


def test_verify_suites_pass(capsys, monkeypatch):
    for argv in (
        ["verify", "xi", "--i-max", "25"],
        ["verify", "bounds", "--n-max", "2"],
        ["verify", "duality", "--nm", "2,2;2,3"],
        ["verify", "closed-forms", "--n-max", "3"],
        ["verify", "parsimony", "--rprime-max", "1"],
    ):
        code, out, _ = run(argv, capsys=capsys)
        assert code == EXIT_OK, argv
        assert "PASS" in out


def test_verify_failure_is_reported_with_exit_1(capsys, monkeypatch):
    monkeypatch.setattr("plethtomo.cli.xi", lambda i, kind: xi(i, kind) + 1)
    code, out, err = run(["verify", "xi", "--i-max", "40"], capsys=capsys)
    assert code == EXIT_VERIFY_FAILED
    assert err == ""
    lines = out.splitlines()
    # every i from 0 to 40 in both cones, reported by its first ten problems
    assert lines[0] == "verify xi: FAIL (82 problems)"
    assert len(lines) == 11
    assert lines[1] == "  xi(0,open): formula 1 != enumeration 0"
    assert all(line.startswith("  xi(") for line in lines[1:])


VERIFY_FAILURES = [
    (
        ["verify", "bounds", "--n-max", "1"],
        "general_plethysm",
        lambda lam, mu, nu: CoefficientResult(-1, "wrong"),
        "verify bounds: FAIL (6 problems)",
        "a-bounds fail at lam=(3,): 1 <= -1 <= 1",
    ),
    (
        ["verify", "duality", "--nm", "2,2;2,3"],
        "check_duality",
        lambda n, m: (False, ["one", "two", "three", "four"]),
        "verify duality: FAIL (2 problems)",
        "duality (2,2): one; two; three",
    ),
    (
        ["verify", "closed-forms", "--n-max", "1"],
        "jacobi_trudi_coeff",
        lambda lam, mu, nu: 7,
        "verify closed-forms: FAIL (4 problems)",
        "m=2 closed form (a, n=1) at (2,): Jacobi-Trudi 7, predicted 1",
    ),
    (
        ["verify", "closed-forms", "--n-max", "1"],
        "plethysm_schur_multiplicity",
        lambda lam, mu, nu: 7,
        "verify closed-forms: FAIL (4 problems)",
        "m=2 closed form (a, n=1) at (2,): power-sum 7, predicted 1",
    ),
    (
        ["verify", "parsimony", "--rprime-max", "1"],
        "count_sym_2dxray",
        lambda lam, r, kind: -1,
        "verify parsimony: FAIL (40 problems)",
        "symmetrize (open) broke count at (1, (0, 0), (0, 0), (0, 0)): 1 -> -1",
    ),
    (
        ["verify", "parsimony", "--rprime-max", "1"],
        "count_point_sets",
        lambda lam, kind: -1,
        "verify parsimony: FAIL (40 problems)",
        "embedding (open) broke count at (1, (0, 0), (0, 0), (0, 0)): 1 -> -1",
    ),
]


@pytest.mark.parametrize(
    "argv,name,wrong,head,first", VERIFY_FAILURES, ids=["bounds", "duality", "closed-forms", "closed-forms-power-sum", "parsimony-symmetrize", "parsimony-embedding"]
)
def test_verify_suite_reports_its_problems(capsys, monkeypatch, argv, name, wrong, head, first):
    # the function a suite checks gives a wrong value: exit 1, a count of
    # the problems and the first of them
    monkeypatch.setattr(f"plethtomo.cli.{name}", wrong)
    code, out, err = run(argv, capsys=capsys)
    assert code == EXIT_VERIFY_FAILED
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == head
    assert lines[1] == "  " + first


@pytest.mark.parametrize(
    "argv, want",
    [
        (["frobnicate"], EXIT_INPUT_ERROR),
        (["coeff", "a", "[4]", "2", "2", "--format", "xml"], EXIT_INPUT_ERROR),
        (["verify"], EXIT_INPUT_ERROR),
        (["verify", "--n-max", "3", "bounds"], EXIT_INPUT_ERROR),
        (["--version"], EXIT_OK),
    ],
    ids=["unknown-subcommand", "unknown-format", "verify-without-a-suite", "verify-bound-before-suite", "version"],
)
def test_argparse_exits_through_main(capsys, argv, want):
    code, out, err = run(argv, capsys=capsys)
    assert code == want
    if want == EXIT_OK:
        assert out.startswith("plethtomo ")
    else:
        assert out == "" and err.startswith("usage: plethtomo")


# each verify suite, the function it computes first, and its own bound flag
VERIFY_SUITES = {
    "xi": ("xi_by_enumeration", "--i-max"),
    "bounds": ("general_plethysm", "--n-max"),
    "duality": ("check_duality", "--nm"),
    "closed-forms": ("m2_closed_form", "--n-max"),
    "parsimony": ("count_2dxray", "--rprime-max"),
}


def forbid_verify_work(monkeypatch, suite, why):
    """Make the suite's first computation fail the test if it is reached."""

    def no_work(*args):
        raise AssertionError(f"verify {suite} started on {why}")

    monkeypatch.setattr(f"plethtomo.cli.{VERIFY_SUITES[suite][0]}", no_work)


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_rejects_a_negative_bound(capsys, monkeypatch, suite):
    # a negative bound made an empty family that passed at once; now it is
    # malformed input, refused before the suite computes anything
    flag = VERIFY_SUITES[suite][1]
    forbid_verify_work(monkeypatch, suite, "a negative bound")
    code, out, err = run(["verify", suite, f"{flag}=" + ("2,2;-5,4" if flag == "--nm" else "-1")], capsys=capsys)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "expected a nonnegative integer" in err


def test_verify_duality_reads_pairs_of_nonnegative_integers(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr("plethtomo.cli.check_duality", lambda n, m: seen.append((n, m)) or (True, []))
    code, out, _ = run(["verify", "duality", "--nm", "2, 3;0,4"], capsys=capsys)
    assert code == EXIT_OK and "PASS" in out
    assert seen == [(2, 3), (0, 4)]
    for nm in ("2,2;3", "2,x", "2,2,2", "1.5,2"):
        code, out, err = run(["verify", "duality", "--nm", nm], capsys=capsys)
        assert code == EXIT_INPUT_ERROR and out == "", nm
    assert seen == [(2, 3), (0, 4)]


def test_verify_bounds_over_the_cap_counts_nothing(capsys, monkeypatch):
    def no_count(*args):
        raise AssertionError("verify bounds started counting over its cap")

    monkeypatch.setattr("plethtomo.cli.general_plethysm", no_count)
    monkeypatch.setattr("plethtomo.cli.count_point_sets", no_count)
    code, out, err = run(["verify", "bounds", "--n-max", str(VERIFY_BOUNDS_N_MAX + 1)], capsys=capsys)
    assert VERIFY_BOUNDS_N_MAX == 7
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap:") and len(err.splitlines()) == 1
    # the cap itself is allowed; with no shapes to check it passes at once
    monkeypatch.setattr("plethtomo.cli.partitions_of", lambda n: [])
    code, out, _ = run(["verify", "bounds", "--n-max", str(VERIFY_BOUNDS_N_MAX)], capsys=capsys)
    assert code == EXIT_OK and "PASS" in out


def test_verify_closed_forms_over_the_cap_computes_nothing(capsys, monkeypatch):
    def no_coefficient(*args):
        raise AssertionError("verify closed-forms computed a coefficient over its cap")

    monkeypatch.setattr("plethtomo.cli.jacobi_trudi_coeff", no_coefficient)
    monkeypatch.setattr("plethtomo.cli.plethysm_schur_multiplicity", no_coefficient)
    monkeypatch.setattr("plethtomo.cli.m2_closed_form", no_coefficient)
    code, out, err = run(["verify", "closed-forms", "--n-max", str(VERIFY_CLOSED_FORMS_N_MAX + 1)], capsys=capsys)
    assert VERIFY_CLOSED_FORMS_N_MAX == 10
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap:") and len(err.splitlines()) == 1
    # the cap itself is allowed; with no shapes to check it passes at once
    monkeypatch.setattr("plethtomo.cli.m2_closed_form", lambda n, variant: set())
    monkeypatch.setattr("plethtomo.cli.partitions_of", lambda n: [])
    code, out, _ = run(["verify", "closed-forms", "--n-max", str(VERIFY_CLOSED_FORMS_N_MAX)], capsys=capsys)
    assert code == EXIT_OK and "PASS" in out


def test_verify_duality_over_the_cap_computes_nothing(capsys, monkeypatch):
    def no_check(*args):
        raise AssertionError("verify duality computed a coefficient over its cap")

    monkeypatch.setattr("plethtomo.cli.check_duality", no_check)
    # one pair over the cap refuses the whole list, the pairs before it too
    code, out, err = run(["verify", "duality", "--nm", f"2,2;{VERIFY_DUALITY_NM_MAX + 1},1"], capsys=capsys)
    assert VERIFY_DUALITY_NM_MAX == 20
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap:") and len(err.splitlines()) == 1
    # the cap itself is allowed; with every identity holding it passes at once
    monkeypatch.setattr("plethtomo.cli.check_duality", lambda n, m: (True, []))
    code, out, _ = run(["verify", "duality", "--nm", "10,2;5,4"], capsys=capsys)
    assert code == EXIT_OK and "PASS" in out


def test_verify_xi_over_the_cap_enumerates_nothing(capsys, monkeypatch):
    def no_layer(*args):
        raise AssertionError("verify xi enumerated a layer over its cap")

    monkeypatch.setattr("plethtomo.cli.xi_by_enumeration", no_layer)
    code, out, err = run(["verify", "xi", "--i-max", str(VERIFY_XI_I_MAX + 1)], capsys=capsys)
    assert VERIFY_XI_I_MAX == 500
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap:") and len(err.splitlines()) == 1
    # the cap itself is allowed; with the closed form as its own check it
    # passes at once
    monkeypatch.setattr("plethtomo.cli.xi_by_enumeration", xi)
    code, out, _ = run(["verify", "xi", "--i-max", str(VERIFY_XI_I_MAX)], capsys=capsys)
    assert code == EXIT_OK and "PASS" in out


def test_verify_parsimony_over_the_cap_counts_nothing(capsys, monkeypatch):
    def no_count(*args):
        raise AssertionError("verify parsimony started counting over its cap")

    monkeypatch.setattr("plethtomo.cli.count_2dxray", no_count)
    monkeypatch.setattr("plethtomo.cli.kronecker_plethysm_triple", no_count)
    code, out, err = run(["verify", "parsimony", "--rprime-max", str(VERIFY_PARSIMONY_RP_MAX + 1)], capsys=capsys)
    assert VERIFY_PARSIMONY_RP_MAX == 4
    assert code == EXIT_GATE_FAILED
    assert out == ""
    assert err.startswith("over the size cap:") and len(err.splitlines()) == 1
    # the cap itself is allowed; with no instances to check it passes at once
    monkeypatch.setattr("plethtomo.partitions.compositions_of", lambda total, length: [])
    code, out, _ = run(["verify", "parsimony", "--rprime-max", str(VERIFY_PARSIMONY_RP_MAX)], capsys=capsys)
    assert code == EXIT_OK and "PASS" in out


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_refuses_another_suites_flag(capsys, monkeypatch, suite):
    # every suite took all four bound flags and ignored three of them, so
    # `verify bounds --i-max 100000` passed; now each is malformed input,
    # refused before the suite computes anything
    forbid_verify_work(monkeypatch, suite, "another suite's flag")
    foreign = {flag for _, flag in VERIFY_SUITES.values()} - {VERIFY_SUITES[suite][1]}
    for flag in sorted(foreign):
        code, out, err = run(["verify", suite, flag, "9,9" if flag == "--nm" else "99"], capsys=capsys)
        assert code == EXIT_INPUT_ERROR, flag
        assert out == "" and "unrecognized arguments" in err


def test_verify_default_bounds():
    parser = build_parser()
    defaults = {suite: parser.parse_args(["verify", suite]).bound for suite in VERIFY_SUITES}
    assert defaults == {"xi": 40, "bounds": 3, "duality": [(2, 2), (2, 3), (3, 2)], "closed-forms": 3, "parsimony": 1}


def test_table_rows(capsys, monkeypatch):
    code, out, _ = run(["table"], capsys=capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("example-1,1,")
    assert lines[3].startswith("example-3,0,")


def test_output_determinism(capsys, monkeypatch):
    first = run(["table", "--format", "json"], capsys=capsys)
    second = run(["table", "--format", "json"], capsys=capsys)
    assert first == second
    a = run(["reduce", json.dumps({"kind": "2dxray", "r": 1, "marginals": {"x": [2, 1], "y": [2, 1], "z": [2, 1]}}), "--format", "json"], capsys=capsys)
    b = run(["reduce", json.dumps({"kind": "2dxray", "r": 1, "marginals": {"x": [2, 1], "y": [2, 1], "z": [2, 1]}}), "--format", "json"], capsys=capsys)
    assert a == b


BIG = 10**30
HUGE_2DXRAY = json.dumps({"kind": "2dxray", "r": 1, "marginals": {"x": [BIG, BIG], "y": [BIG, BIG], "z": [2 * BIG]}})


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["count", json.dumps({"kind": "sym3d", "cone": "closed", "marginals": {"sum": [3 * 10**24]}})], EXIT_OK, "count: 0\n", ""),
        (["coeff", "b", f"[{3 * 10**24}]", str(10**24), "3"], EXIT_OK, "method: below-beta\nvalue: 0\n", ""),
        (["coeff", "b", f"[{10**20}]", str(10**20), "1"], EXIT_GATE_FAILED, "", "over the size cap:"),
        (["coeff", "b", f"[{2 * 10**20},{2 * 10**20}]", str(10**20), "4"], EXIT_GATE_FAILED, "", "over the size cap:"),
        # both embeddings are off the promise; the Kronecker triple, whose
        # 10^30-column shapes overflow a machine index, is not built
        (["reduce", "--to", "promise3d", HUGE_2DXRAY], EXIT_GATE_FAILED, "", "gate failure: promise gate failed"),
        # the gate is read before the triple these two targets print
        (["reduce", "--to", "plethysm", HUGE_2DXRAY], EXIT_GATE_FAILED, "", "gate failure: promise gate failed"),
        (["reduce", "--to", "kron-triple", HUGE_2DXRAY], EXIT_GATE_FAILED, "", "gate failure: promise gate failed"),
    ],
    ids=[
        "count-sum-3e24",
        "coeff-below-beta-at-1e24",
        "coeff-b-1e20-columns",
        "coeff-b-n-1e20-m-4",
        "reduce-range-1-at-1e30",
        "reduce-plethysm-at-1e30",
        "reduce-kron-triple-at-1e30",
    ],
)
def test_huge_instances_answer_or_exit_3_in_a_fresh_process(argv, code, out, err):
    # beta(10^24) is read off block sums, not a walk of 3.3e8 levels; an
    # index too large for the machine, such as the (1^n) of b at n = 10^20,
    # is an OverflowError, reported like a MemoryError
    proc, seconds = run_fresh(argv)
    assert seconds < 10.0
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(err) and len(proc.stderr.splitlines()) == (1 if err else 0)


def test_reduce_to_sym2d_spreads_a_huge_instance(capsys):
    # the spread layer is linear in the range and exact at any entry size
    code, out, err = run(["reduce", "--to", "sym2d", HUGE_2DXRAY, "--format", "json"], capsys=capsys)
    assert (code, err) == (EXIT_OK, "")
    stages = json.loads(out)
    assert [(st["stage"], st.get("cone")) for st in stages] == [("2dxray", None), ("sym2d", "open"), ("sym2d", "closed")]
    want = [2 * BIG, 0, 0, BIG, BIG, 0, 0, 0, 0, BIG, BIG]
    assert all(st["marginal"] == want and st["r"] == 13 for st in stages[1:])


def run_fresh(argv):
    """Run the CLI in a new interpreter on the package this process
    imported; returns the finished process and its wall time in seconds."""
    import os
    import subprocess
    import sys

    import plethtomo

    # the child imports the same package as this process, whether it came
    # from PYTHONPATH or from pytest's pythonpath setting
    src = str(Path(plethtomo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "plethtomo", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    return proc, time.perf_counter() - t0


ONES_50 = format_partition((1,) * 50)


@pytest.mark.parametrize(
    "argv, method, value",
    [
        (["coeff", "a", "[6,6,6,6,6,6,6,6]", "16", "3"], "omega-dual+jacobi-trudi", 1),
        (["coeff", "b", "[6,6,6,6,6,6,6,6]", "16", "3"], "omega-dual+jacobi-trudi", 1),
        (["coeff", "p", "[5,5,5,5,5,5,5,5,5]", "[15]", "[3]"], "omega-dual+jacobi-trudi", 0),
        (["coeff", "b", format_partition((5,) * 12), "15", "4"], "omega-dual+jacobi-trudi", 0),
        (["coeff", "a", "[8,8,8,8,2,2,2,2,2,2,2,2]", "16", "3"], "omega-dual+jacobi-trudi", 0),
        (["coeff", "p", ONES_50, "[5]", "[10]"], "omega-dual+jacobi-trudi", 0),
        (["coeff", "p", ONES_50, "[50]", "[1]"], "omega-dual+jacobi-trudi", 0),
        (["coeff", "p", ONES_50, ONES_50, "[1]"], "omega-dual+jacobi-trudi", 1),
        (["coeff", "a", f"[{3 * 10**24}]", str(10**24), "3"], "jacobi-trudi", 1),
    ],
    ids=["a-6x8", "b-6x8", "p-5x9", "b-5x12", "a-12-rows-48", "p-1x50-column-inner", "p-1x50-one-box", "p-1x50-one-box-1", "a-one-row-3e24"],
)
def test_coeff_on_the_shorter_side_in_a_fresh_process(argv, method, value):
    # each ran past 60 s on lam, or exited 3 over the power-sum cap, or (the
    # one-row query) overflowed building a term table; lam' has at most nine
    # rows, or lam has one.  They took 0.07-0.7 s here, bounded at 2 s for
    # CPUs that drop to half speed
    proc, seconds = run_fresh([*argv, "--format", "json"])
    assert seconds < 2.0
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout) == {"method": method, "value": value}


@pytest.mark.parametrize(
    "argv, value",
    [
        (["coeff", "p", "[11,11,11,11,11,1,1,1,1,1]", "[1,1]", "[30]"], 0),
        (["coeff", "p", format_partition((10,) * 10), format_partition((10,) * 10), "[1]"], 1),
        (["coeff", "p", format_partition((10,) * 10), "[1]", format_partition((10,) * 10)], 1),
    ],
    ids=["p-outside-the-box", "p-one-box-inner", "p-one-box-outer"],
)
def test_coeff_over_the_power_sum_cap_without_a_table_in_a_fresh_process(argv, value):
    # over nine rows and over nine columns, above the power-sum cap, which
    # would refuse them: the support box or s_mu[s_1] = s_1[s_mu] = s_mu
    # answers each with no class and no term table
    proc, seconds = run_fresh([*argv, "--format", "json"])
    assert seconds < 2.0
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout) == {"method": "omega-dual+jacobi-trudi", "value": value}


def test_console_script_entry_point():
    proc, _ = run_fresh(["coeff", "a", "[4]", "2", "2", "--format", "json"])
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["value"] == 1
