"""Batch command-line front end.

Subcommands: coeff (plethysm coefficients), kron (Kronecker coefficients),
count (tomography instances from JSON), reduce (stage-by-stage reduction
traces), verify (invariant suites), table (worked-example summary rows).

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 semantic gate failure (infeasible instance, failed promise, ...) or an
instance over the size cap: a 3dxray count whose marginals exceed
tomography.AXIS_STATE_CAP is refused before it starts, so is
`verify xi` with --i-max above VERIFY_XI_I_MAX, `verify bounds` with
--n-max above VERIFY_BOUNDS_N_MAX, `verify parsimony` with --rprime-max
above VERIFY_PARSIMONY_RP_MAX, `reduce` past --to sym2d on a range above
REDUCE_R_MAX, and `kron` or `reduce --resolve` on a Kronecker triple of
size above coefficients.KRON_N_MAX, which coefficients.kronecker refuses
(a triple with a single-row or single-column shape is answered at any
size), `coeff` on a shape of over nine rows and size above
coefficients.POWER_SUM_N_MAX (general_plethysm's power-sum cap), and, as a
last resort, a RecursionError anywhere is reported the same way.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .coefficients import check_duality, general_plethysm, kronecker, m2_closed_form, plethysm_coeff
from .partitions import format_partition, parse_partition, partitions_of
from .reductions import _family_cone, kronecker_plethysm_triple, resolve_coefficient
from .tomography import (
    SizeCapError,
    XRayInstance2D,
    count_2dxray,
    count_instance,
    count_point_sets,
    count_pyramids,
    count_sym_2dxray,
    instance_from_dict,
    xi,
    xi_by_enumeration,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_GATE_FAILED = 3

# largest i for `verify xi`: it walks every point of each layer up to i in
# both cones, which took about 3.5 s at i = 400, 6.3 s at 500, 11 s at 600
# and 20 s at 800 on a shared 2-vCPU x86_64 host
VERIFY_XI_I_MAX = 500
# largest n for `verify bounds`: it counts the point sets of every lam |- 3n
# in both cones, which took about 2.5-2.8 s at n = 5 and 61 s at n = 6 on a
# shared 2-vCPU x86_64 host, almost all of it in count_point_sets on the
# long and tall lam (under cProfile at n = 6, 121 of 123 s)
VERIFY_BOUNDS_N_MAX = 6
# largest r' for `verify parsimony`: it counts every feasible instance of
# range up to r' through two chain stages in both cones, which took about
# 1.4 s at r' = 3, 10 s at r' = 4 and 66 s at r' = 5 on the same host
VERIFY_PARSIMONY_RP_MAX = 4
# largest range r for `reduce` past --to sym2d: the pyramid embedding sums
# the marginal of the complete pyramid below layer 13r, quadratic in r, and
# on the same host `--to promise3d` took about 0.5 s at r = 100 and 2.8 s at
# r = 200, `--to plethysm` 1.4 s and 6.1 s; `--to sym2d` is linear in r and
# answers at any range
REDUCE_R_MAX = 100


class GateError(Exception):
    """A semantic gate (feasibility, promise) rejected the input."""


def _emit(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(payload, out, sort_keys=True, separators=(",", ":"))
        out.write("\n")
    elif fmt == "csv":
        keys = sorted(payload)
        out.write(",".join(keys) + "\n")
        out.write(",".join(str(payload[k]) for k in keys) + "\n")
    else:
        for key in sorted(payload):
            out.write(f"{key}: {payload[key]}\n")


def _load_instance(arg: str) -> dict:
    if arg == "-":
        return json.load(sys.stdin)
    if arg.lstrip().startswith("{"):
        return json.loads(arg)
    with open(arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_coeff(args, out) -> int:
    lam = parse_partition(args.shape)
    if args.family in ("a", "b"):
        if len(args.params) != 2:
            raise ValueError("families a/b take two integers: n m")
        n, m = (int(p) for p in args.params)
        res = plethysm_coeff(lam, n, m, args.family)
    else:
        if len(args.params) != 2:
            raise ValueError("family p takes two partitions: mu nu")
        mu = parse_partition(args.params[0])
        nu = parse_partition(args.params[1])
        res = general_plethysm(lam, mu, nu)
    _emit({"value": res.value, "method": res.method}, args.format, out)
    return EXIT_OK


def _cmd_kron(args, out) -> int:
    mu, nu, rho = (parse_partition(p) for p in (args.mu, args.nu, args.rho))
    res = kronecker(mu, nu, rho)
    _emit({"value": res.value, "method": res.method}, args.format, out)
    return EXIT_OK


def _cmd_count(args, out) -> int:
    data = _load_instance(args.instance)
    value = count_instance(data)
    _emit({"count": value}, args.format, out)
    return EXIT_OK


def _reduce_stages(inst: XRayInstance2D, target: str, resolve: bool) -> list[dict]:
    if target != "sym2d" and inst.r > REDUCE_R_MAX:
        raise SizeCapError(f"reduce --to {target} at range {inst.r} is over the cap of {REDUCE_R_MAX}")
    chain = kronecker_plethysm_triple(inst)
    stages: list[dict] = [
        {
            "stage": "2dxray",
            "r": inst.r,
            "marginals": {"x": list(inst.mu), "y": list(inst.nu), "z": list(inst.rho)},
        }
    ]
    for kind, sym in chain.sym2d.items():
        stages.append({"stage": "sym2d", "cone": kind, "r": sym.grid_r, "marginal": list(sym.marginal)})
    if target == "sym2d":
        return stages
    for kind, emb in chain.promise3d.items():
        if not chain.promise[kind]:
            raise GateError(f"promise gate failed for the {kind} cone embedding")
        stages.append({"stage": "promise3d", "cone": kind, "marginal": list(emb.marginal), "promise": True})
    if target == "promise3d":
        return stages
    if resolve and target == "kron-triple":
        # an over-cap triple is refused before any stage is resolved
        kron = kronecker(chain.mu, chain.nu, chain.rho)
    for kind, q in chain.queries.items():
        entry = {
            "stage": "plethysm",
            "cone": kind,
            "family": q.variant,
            "shape": list(q.lam),
            "n": q.n,
            "m": q.m,
        }
        if resolve:
            res = resolve_coefficient(q)
            entry["value"] = res.value
            entry["method"] = res.method
        stages.append(entry)
    if target == "plethysm":
        return stages
    entry = {"stage": "kron-triple", "mu": list(chain.mu), "nu": list(chain.nu), "rho": list(chain.rho)}
    if resolve:
        entry["value"] = kron.value
    stages.append(entry)
    return stages


def _cmd_reduce(args, out) -> int:
    data = _load_instance(args.instance)
    inst = instance_from_dict(data)
    if not isinstance(inst, XRayInstance2D):
        raise ValueError("reduce expects a 2dxray instance")
    if not inst.passes_gate():
        raise GateError("instance fails the feasibility gate (marginal totals / coordinate sum)")
    stages = _reduce_stages(inst, args.to, args.resolve)
    if args.format == "json":
        json.dump(stages, out, sort_keys=True, separators=(",", ":"))
        out.write("\n")
    else:
        widths = ("stage", "cone", "detail")
        out.write(f"{widths[0]:<12} {widths[1]:<8} {widths[2]}\n")
        for st in stages:
            detail = {k: v for k, v in st.items() if k not in ("stage", "cone")}
            parts = ", ".join(f"{k}={v}" for k, v in sorted(detail.items()))
            out.write(f"{st['stage']:<12} {st.get('cone', '-'):<8} {parts}\n")
    return EXIT_OK


def _verify_xi(i_max: int) -> list[str]:
    if i_max > VERIFY_XI_I_MAX:
        raise SizeCapError(f"verify xi --i-max {i_max} is over the cap of {VERIFY_XI_I_MAX}")
    bad = []
    for i in range(i_max + 1):
        for kind in ("open", "closed"):
            if xi(i, kind) != xi_by_enumeration(i, kind):
                bad.append(f"xi({i},{kind}): formula {xi(i, kind)} != enumeration {xi_by_enumeration(i, kind)}")
    return bad


def _verify_bounds(n_max: int) -> list[str]:
    if n_max > VERIFY_BOUNDS_N_MAX:
        raise SizeCapError(f"verify bounds --n-max {n_max} is over the cap of {VERIFY_BOUNDS_N_MAX}")
    bad = []
    for n in range(1, n_max + 1):
        for lam in partitions_of(3 * n):
            for variant in ("a", "b"):
                value = plethysm_coeff(lam, n, 3, variant).value
                marg, kind = _family_cone(lam, variant)
                lo, hi = count_pyramids(marg, kind), count_point_sets(marg, kind)
                if not lo <= value <= hi:
                    bad.append(f"{variant}-bounds fail at lam={lam}: {lo} <= {value} <= {hi}")
    return bad


def _verify_duality(pairs: list[tuple[int, int]]) -> list[str]:
    bad = []
    for n, m in pairs:
        ok, report = check_duality(n, m)
        if not ok:
            bad.append(f"duality ({n},{m}): " + "; ".join(report[:3]))
    return bad


def _verify_closed_forms(n_max: int) -> list[str]:
    bad = []
    for n in range(1, n_max + 1):
        for variant in ("a", "b"):
            mu = (n,) if variant == "a" else (1,) * n
            support = m2_closed_form(n, variant)
            for lam in partitions_of(2 * n):
                got = general_plethysm(lam, mu, (2,)).value
                want = 1 if lam in support else 0
                if got != want:
                    bad.append(f"m=2 closed form ({variant}, n={n}) at {lam}: coefficient {got}, predicted {want}")
    return bad


def _verify_parsimony(rp_max: int) -> list[str]:
    from .partitions import compositions_of

    if rp_max > VERIFY_PARSIMONY_RP_MAX:
        raise SizeCapError(f"verify parsimony --rprime-max {rp_max} is over the cap of {VERIFY_PARSIMONY_RP_MAX}")
    bad = []
    for rp in range(1, rp_max + 1):
        tot_max = 3 if rp == 1 else 4
        for tot in range(tot_max + 1):
            for mu in compositions_of(tot, rp + 1):
                for nu in compositions_of(tot, rp + 1):
                    for rho in compositions_of(tot, rp + 1):
                        inst = XRayInstance2D(rp, mu, nu, rho)
                        if not inst.passes_gate():
                            continue
                        cnt = count_2dxray(inst)
                        chain = kronecker_plethysm_triple(inst)
                        for kind, sym in chain.sym2d.items():
                            c1 = count_sym_2dxray(sym.marginal, sym.grid_r, kind)
                            if c1 != cnt:
                                bad.append(f"symmetrize ({kind}) broke count at {(rp, mu, nu, rho)}: {cnt} -> {c1}")
                                continue
                            c2 = count_point_sets(chain.promise3d[kind].marginal, kind)
                            if c2 != cnt:
                                bad.append(f"embedding ({kind}) broke count at {(rp, mu, nu, rho)}: {cnt} -> {c2}")
    return bad


def _cmd_verify(args, out) -> int:
    suite = args.suite
    if suite == "xi":
        bad = _verify_xi(args.i_max)
    elif suite == "bounds":
        bad = _verify_bounds(args.n_max)
    elif suite == "duality":
        pairs = []
        for chunk in args.nm.split(";"):
            n_str, m_str = chunk.split(",")
            pairs.append((int(n_str), int(m_str)))
        bad = _verify_duality(pairs)
    elif suite == "closed-forms":
        bad = _verify_closed_forms(args.n_max)
    else:  # parsimony; argparse's choices admit no other suite
        bad = _verify_parsimony(args.rprime_max)
    if bad:
        out.write(f"verify {suite}: FAIL ({len(bad)} problems)\n")
        for line in bad[:10]:
            out.write("  " + line + "\n")
        return EXIT_VERIFY_FAILED
    out.write(f"verify {suite}: PASS\n")
    return EXIT_OK


WORKED_EXAMPLES = [
    ("example-1", XRayInstance2D(1, (1, 1), (1, 1), (2, 0))),
    ("example-2", XRayInstance2D(1, (2, 1), (2, 1), (2, 1))),
    ("example-3", XRayInstance2D(1, (2, 0), (2, 0), (0, 2))),
]


def _cmd_table(args, out) -> int:
    rows = []
    for name, inst in WORKED_EXAMPLES:
        cnt = count_2dxray(inst)
        trip = kronecker_plethysm_triple(inst)
        k = kronecker(trip.mu, trip.nu, trip.rho).value
        a = resolve_coefficient(trip.a_instance)
        b = resolve_coefficient(trip.b_instance)
        rows.append(
            {
                "name": name,
                "count": cnt,
                "mu": format_partition(trip.mu),
                "nu": format_partition(trip.nu),
                "rho": format_partition(trip.rho),
                "kronecker": k,
                "a_n": trip.a_instance.n,
                "a_value": a.value,
                "b_n": trip.b_instance.n,
                "b_value": b.value,
            }
        )
    if args.format == "json":
        json.dump(rows, out, sort_keys=True, separators=(",", ":"))
        out.write("\n")
    else:
        cols = ["name", "count", "mu", "nu", "rho", "kronecker", "a_n", "a_value", "b_n", "b_value"]
        out.write(",".join(cols) + "\n")
        for row in rows:
            out.write(",".join(str(row[c]).replace(",", " ") for c in cols) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plethtomo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="plethysm coefficient queries")
    p.add_argument("family", choices=["a", "b", "p"])
    p.add_argument("shape", help="partition like [4,2]")
    p.add_argument("params", nargs="*", help="n m for families a/b; mu nu partitions for family p")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("kron", help="Kronecker coefficient")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("rho")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_kron)

    p = sub.add_parser("count", help="count a tomography instance (JSON file, inline JSON, or - for stdin)")
    p.add_argument("instance")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("reduce", help="run the reduction chain on a 2dxray instance")
    p.add_argument("instance")
    p.add_argument("--to", choices=["sym2d", "promise3d", "plethysm", "kron-triple"], default="kron-triple")
    p.add_argument("--resolve", action="store_true", help="also compute coefficient values")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=["xi", "bounds", "duality", "closed-forms", "parsimony"])
    p.add_argument("--i-max", type=int, default=40)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--nm", default="2,2;2,3;3,2")
    p.add_argument("--rprime-max", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="summary rows for the three worked examples")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the input-error code
        return int(exc.code or 0)
    try:
        return args.func(args, sys.stdout)
    except GateError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE_FAILED
    except SizeCapError as exc:
        print(f"over the size cap: {exc}", file=sys.stderr)
        return EXIT_GATE_FAILED
    except RecursionError:
        print("over the size cap: the instance needs deeper recursion than the interpreter allows", file=sys.stderr)
        return EXIT_GATE_FAILED
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
