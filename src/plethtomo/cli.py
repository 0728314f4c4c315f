"""Batch command-line front end.

Subcommands: coeff (plethysm coefficients), kron (Kronecker coefficients),
count (tomography instances from JSON), reduce (stage-by-stage reduction
traces), verify (invariant suites), table (worked-example summary rows).
Each verify suite is a sub-command whose one bound follows its name: xi
--i-max, bounds and closed-forms --n-max, duality --nm, parsimony --rprime-max.

Exit codes: 0 success, 1 verification failure, 2 malformed input (another
suite's flag, JSON nested too deeply to parse, ...), 3 semantic gate
failure (infeasible instance, failed promise, ...) or an instance over the
size cap: a 3dxray count whose marginals exceed tomography.AXIS_STATE_CAP
is refused before it starts, so is a verify bound over its cap
(VERIFY_XI_I_MAX, VERIFY_BOUNDS_N_MAX, VERIFY_CLOSED_FORMS_N_MAX,
VERIFY_PARSIMONY_RP_MAX, and VERIFY_DUALITY_NM_MAX on n*m of each --nm
pair), `reduce` past --to sym2d on a range above
reductions.REDUCE_R_MAX, which the chain refuses before its embedding
(--to sym2d is answered at any range, and --to promise3d builds no
Kronecker triple), and `kron`
or `reduce --resolve` on a Kronecker triple of size above
coefficients.KRON_N_MAX, which coefficients.kronecker refuses (a triple
with a single-row or single-column shape is answered at any size), `coeff`
on a shape that has over nine rows and whose conjugate has too, of size
above characters.POWER_SUM_N_MAX (the power-sum cap, which
characters.plethysm_schur_multiplicity checks for general_plethysm; a
shape outside the support box of s_mu[s_nu] is answered 0 and a one-box
mu or nu, s_mu[s_1] = s_1[s_mu] = s_mu, is answered at any size first, so
`coeff p [10^10] [10^10] [1]` prints 1; a shape with at most nine columns
takes Jacobi-Trudi at its conjugate, and `coeff a|b` at m = 3 on a shape whose
cone instance is a promise instance is answered by its point-set count at
any size, and so is an a|b shape of more than n rows, or one whose column
peels end at m = 2), and, as a last resort, a RecursionError, MemoryError
or OverflowError in the library is reported the same way (an OverflowError
is a size too large for a machine index, such as the (1^n) of `coeff b` at
n = 10^20).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .characters import plethysm_schur_multiplicity
from .coefficients import (
    _family_cone,
    check_duality,
    general_plethysm,
    jacobi_trudi_coeff,
    kronecker,
    m2_closed_form,
    outer_shape,
    plethysm_coeff,
)
from .partitions import format_partition, parse_partition, partitions_of
from .reductions import _chain_on_stages, _promise_stages, kronecker_plethysm_triple, resolve_coefficient, symmetrize_2d
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
# largest n for `verify bounds`: it resolves a and b and counts the pyramids
# and point sets of every lam |- 3n in both cones, which took about 1.0 s at
# n = 6, 3.5-4.7 s at n = 7 and 21-22 s at n = 8 on a shared 2-vCPU x86_64
# host in an hour when counting pyramids on the level engine made n = 7
# take 5.5-6.5 s; at n = 8, cProfile puts nearly all of it in the
# coefficients and the point-set counts and 0.1 s in the pyramid counts,
# which are table lookups
VERIFY_BOUNDS_N_MAX = 7
# largest n for `verify closed-forms`: it computes a and b at inner degree 2
# by Jacobi-Trudi and by the power-sum pairing for every lam |- 2n' with
# n' <= n, which took about 0.8 s at n = 8 and 5.6 s at n = 10 on the same
# host
VERIFY_CLOSED_FORMS_N_MAX = 10
# largest n*m of a pair for `verify duality`: check_duality(n, m) builds two
# power-sum Schur tables of size n*m and two a/b coefficients for every
# lam |- n*m.  As fresh processes on the same host the pairs with n*m = 20
# took 0.5-1.0 s, and (1, 20) and (20, 1), whose tables pair every character
# of S_20 with every class, 1.2-1.3 s; check_duality alone took 0.9 s at
# (7, 3), 1.1 s at (11, 2), 4.4 s at (6, 4) and 4.7 s at (8, 3)
VERIFY_DUALITY_NM_MAX = 20
# largest r' for `verify parsimony`: it counts every feasible instance of
# range up to r' through two chain stages in both cones, which took about
# 1.4 s at r' = 3, 10 s at r' = 4 and 66 s at r' = 5 on the same host
VERIFY_PARSIMONY_RP_MAX = 4


class GateError(Exception):
    """A semantic gate (feasibility, promise) rejected the input."""


def _emit(payload: dict | list, fmt: str, out) -> None:
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
    try:
        if arg == "-":
            return json.load(sys.stdin)
        if arg.lstrip().startswith("{"):
            return json.loads(arg)
        with open(arg, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:  # the parser recurses once per level of nesting
        raise ValueError("the instance JSON is nested too deeply to parse") from None


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
    stages: list[dict] = [
        {
            "stage": "2dxray",
            "r": inst.r,
            "marginals": {"x": list(inst.mu), "y": list(inst.nu), "z": list(inst.rho)},
        }
    ]
    if target == "sym2d":
        # the one linear stage: answered at any range, without the capped record
        syms = {kind: symmetrize_2d(inst, kind) for kind in ("open", "closed")}
    else:
        # capped like the record; the triple is built only once the promise
        # gate has passed, and only for a target that prints it
        syms, embeddings, promise = _promise_stages(inst)
    for kind, sym in syms.items():
        stages.append({"stage": "sym2d", "cone": kind, "r": sym.grid_r, "marginal": list(sym.marginal)})
    if target == "sym2d":
        return stages
    for kind, emb in embeddings.items():
        if not promise[kind]:
            raise GateError(f"promise gate failed for the {kind} cone embedding")
        stages.append({"stage": "promise3d", "cone": kind, "marginal": list(emb.marginal), "promise": True})
    if target == "promise3d":
        return stages
    chain = _chain_on_stages(inst, syms, embeddings, promise)
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
        _emit(stages, args.format, out)
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
                # not plethysm_coeff, which answers a promise shape by the point-set count
                value = general_plethysm(lam, outer_shape(n, variant), (3,)).value
                marg, kind = _family_cone(lam, variant)
                lo, hi = count_pyramids(marg, kind), count_point_sets(marg, kind)
                if not lo <= value <= hi:
                    bad.append(f"{variant}-bounds fail at lam={lam}: {lo} <= {value} <= {hi}")
    return bad


def _verify_duality(pairs: list[tuple[int, int]]) -> list[str]:
    for n, m in pairs:
        if n * m > VERIFY_DUALITY_NM_MAX:
            raise SizeCapError(f"verify duality --nm {n},{m}: n*m = {n * m} is over the cap of {VERIFY_DUALITY_NM_MAX}")
    bad = []
    for n, m in pairs:
        ok, report = check_duality(n, m)
        if not ok:
            bad.append(f"duality ({n},{m}): " + "; ".join(report[:3]))
    return bad


def _verify_closed_forms(n_max: int) -> list[str]:
    if n_max > VERIFY_CLOSED_FORMS_N_MAX:
        raise SizeCapError(f"verify closed-forms --n-max {n_max} is over the cap of {VERIFY_CLOSED_FORMS_N_MAX}")
    bad = []
    for n in range(1, n_max + 1):
        for variant in ("a", "b"):
            support = m2_closed_form(n, variant)
            mu = outer_shape(n, variant)
            for lam in partitions_of(2 * n):
                want = 1 if lam in support else 0
                # both routes that never peel, not plethysm_coeff, which
                # answers m = 2 by the closed form itself
                for route, got in (
                    ("Jacobi-Trudi", jacobi_trudi_coeff(lam, mu, (2,))),
                    ("power-sum", plethysm_schur_multiplicity(lam, mu, (2,))),
                ):
                    if got != want:
                        bad.append(f"m=2 closed form ({variant}, n={n}) at {lam}: {route} {got}, predicted {want}")
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
    bad = args.check(args.bound)
    if bad:
        out.write(f"verify {args.suite}: FAIL ({len(bad)} problems)\n")
        for line in bad[:10]:
            out.write("  " + line + "\n")
        return EXIT_VERIFY_FAILED
    out.write(f"verify {args.suite}: PASS\n")
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
        _emit(rows, args.format, out)
    else:
        cols = ["name", "count", "mu", "nu", "rho", "kronecker", "a_n", "a_value", "b_n", "b_value"]
        out.write(",".join(cols) + "\n")
        for row in rows:
            out.write(",".join(str(row[c]).replace(",", " ") for c in cols) + "\n")
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    """argparse type of every verify bound: decimal digits only, since a
    negative bound would make an empty family and pass without checking
    anything."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _nm_pairs(text: str) -> list[tuple[int, int]]:
    """argparse type of --nm: pairs "n,m" separated by ";", each entry a
    nonnegative integer."""
    pairs = []
    for chunk in text.split(";"):
        entries = chunk.split(",")
        if len(entries) != 2:
            raise argparse.ArgumentTypeError(f"expected a pair n,m, got {chunk!r}")
        n, m = (_nonnegative_int(entry.strip()) for entry in entries)
        pairs.append((n, m))
    return pairs


def _add_coeff(sub) -> None:
    p = sub.add_parser("coeff", help="plethysm coefficient queries")
    p.add_argument("family", choices=["a", "b", "p"])
    p.add_argument("shape", help="partition like [4,2]")
    p.add_argument("params", nargs="*", help="n m for families a/b; mu nu partitions for family p")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_coeff)


def _add_kron(sub) -> None:
    p = sub.add_parser("kron", help="Kronecker coefficient")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("rho")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_kron)


def _add_count(sub) -> None:
    p = sub.add_parser("count", help="count a tomography instance (JSON file, inline JSON, or - for stdin)")
    p.add_argument("instance")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_count)


def _add_reduce(sub) -> None:
    p = sub.add_parser("reduce", help="run the reduction chain on a 2dxray instance")
    p.add_argument("instance")
    p.add_argument("--to", choices=["sym2d", "promise3d", "plethysm", "kron-triple"], default="kron-triple")
    p.add_argument("--resolve", action="store_true", help="also compute coefficient values")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_reduce)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run an invariant suite")
    p.set_defaults(func=_cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True)
    # one row per suite: its name, the one bound it reads, and its check
    for suite, flag, kind, default, check in (
        ("xi", "--i-max", _nonnegative_int, 40, _verify_xi),
        ("bounds", "--n-max", _nonnegative_int, 3, _verify_bounds),
        ("duality", "--nm", _nm_pairs, "2,2;2,3;3,2", _verify_duality),
        ("closed-forms", "--n-max", _nonnegative_int, 3, _verify_closed_forms),
        ("parsimony", "--rprime-max", _nonnegative_int, 1, _verify_parsimony),
    ):
        q = suites.add_parser(suite)
        q.add_argument(flag, dest="bound", type=kind, default=default)
        q.set_defaults(check=check)


def _add_table(sub) -> None:
    p = sub.add_parser("table", help="summary rows for the three worked examples")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_table)


_SUBCOMMANDS = {"coeff": _add_coeff, "kron": _add_kron, "count": _add_count, "reduce": _add_reduce, "verify": _add_verify, "table": _add_table}
"""Each subcommand's name and the function that adds its parser, in the
order the help lists them."""


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or with command given only that
    one, which parses its own arguments exactly as the whole tree does."""
    parser = argparse.ArgumentParser(prog="plethtomo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # the usage line names every subcommand, also where it reports an
    # unrecognized argument after one that was built alone
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_SUBCOMMANDS) + "}")
    for name, add in _SUBCOMMANDS.items():
        if command is None or name == command:
            add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command line that starts with a subcommand needs no other; anything
    # else (usage errors, --help, --version) gets the whole tree
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
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
    except (RecursionError, MemoryError, OverflowError) as exc:
        need = "deeper recursion" if isinstance(exc, RecursionError) else "more memory"
        print(f"over the size cap: the instance needs {need} than the interpreter allows", file=sys.stderr)
        return EXIT_GATE_FAILED
    except (ValueError, KeyError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
