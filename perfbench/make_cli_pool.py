"""Builds cli_pool.json, the fixed query pool of the cli_cold workload.

    PYTHONPATH=src python3 perfbench/make_cli_pool.py

Each entry is an argument vector for `python -m plethtomo`, the exit code
it must give and its known answer.  Answers come from a route other than
the one the CLI dispatches to:

* coeff a/b/p: the power-sum / Murnaghan-Nakayama pairing, while the CLI
  uses the Jacobi-Trudi sum;
* kron, count, reduce --resolve: the axis-marginal grid count of the source
  instance, which every stage of the reduction chain preserves;
* table: the grid counts of the worked examples.

Coefficient queries are kept when their compute, timed here in-process
with empty memo tables, lies in COMPUTE_BAND_S, so that compute rather
than interpreter start dominates an op and no single query runs for many
seconds.  The coeff and kron entries of each kind are stored sorted by
that compute time, so that the benchmark can draw every seed's sample
evenly across the range of costs.  The pool is built once and committed; the benchmark
only draws from it by seed.  Building it takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from pathlib import Path

from plethtomo import characters, coefficients, reductions, tableaux, tomography
from plethtomo.partitions import compositions_of, format_partition, partitions_of
from plethtomo.tomography import XRayInstance2D


COMPUTE_BAND_S = (0.05, 0.6)
PER_KIND = 40
OUT = Path(__file__).with_name("cli_pool.json")


def _cold(fn):
    """Run fn with empty memo tables, as a fresh CLI process would."""
    tableaux.kostka.cache_clear()
    characters._mn.cache_clear()
    characters.plethysm_power_expansion.cache_clear()
    coefficients._q_cache.clear()
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _by_cost(timed: list) -> list[dict]:
    return [entry for _, entry in sorted(timed, key=lambda t: t[0])]


def _entry(argv, expect, exit_code=0) -> dict:
    return {"argv": [str(a) for a in argv], "exit": exit_code, "expect": expect}


def _instance_json(inst: XRayInstance2D) -> str:
    return json.dumps(
        {"kind": "2dxray", "r": inst.r, "marginals": {"x": list(inst.mu), "y": list(inst.nu), "z": list(inst.rho)}},
        separators=(",", ":"),
    )


def _in_band(rng: random.Random, candidates, compute, per_group: int) -> list:
    """Up to per_group (candidate, value, seconds) triples, in seeded order, whose
    compute time with empty memo tables lies in COMPUTE_BAND_S.  At most a
    third of them may have value 0, so that a wrong zero does not pass."""
    candidates = list(candidates)
    rng.shuffle(candidates)
    zero_quota = per_group // 3
    kept, zeros = [], 0
    for cand in candidates:
        if len(kept) == per_group:
            break
        value, took = _cold(lambda: compute(cand))
        if not COMPUTE_BAND_S[0] <= took <= COMPUTE_BAND_S[1]:
            continue
        if value == 0:
            if zeros == zero_quota:
                continue
            zeros += 1
        kept.append((cand, value, took))
    return kept


def coeff_queries(rng: random.Random, family: str) -> list[dict]:
    """a or b coefficients of shapes with at most 5 rows."""
    out = []
    for n, m in ((6, 3), (5, 4), (4, 5)):
        outer = (n,) if family == "a" else (1,) * n
        compute = lambda lam: coefficients.plethysm_coeff(lam, n, m, family).value  # noqa: E731
        for lam, got, took in _in_band(rng, partitions_of(n * m, max_parts=5), compute, 14):
            want = characters.plethysm_schur_multiplicity(lam, outer, (m,))
            if got != want:
                raise SystemExit(f"{family}_{lam}({n},{m}): Jacobi-Trudi {got}, power-sum {want}")
            out.append((took, _entry(["coeff", family, format_partition(lam), n, m, "--format", "json"], {"value": want})))
    return _by_cost(out)


def coeff_p_queries(rng: random.Random) -> list[dict]:
    """General coefficients with non-trivial outer and inner shapes."""
    out = []
    for mu, nu in itertools.product([(2, 1), (3, 1), (2, 2), (2, 1, 1)], [(2, 1), (3, 1), (2, 2), (3,)]):
        if sum(mu) * sum(nu) > 12:
            continue
        compute = lambda lam: coefficients.general_plethysm(lam, mu, nu).value  # noqa: E731
        for lam, got, took in _in_band(rng, partitions_of(sum(mu) * sum(nu), max_parts=6), compute, 5):
            want = characters.plethysm_schur_multiplicity(lam, mu, nu)
            if got != want:
                raise SystemExit(f"p_{lam}({mu},{nu}): Jacobi-Trudi {got}, power-sum {want}")
            argv = ["coeff", "p", format_partition(lam), format_partition(mu), format_partition(nu), "--format", "json"]
            out.append((took, _entry(argv, {"value": want})))
    return _by_cost(out)


def random_feasible(rng: random.Random, r: int, total: int) -> XRayInstance2D:
    """A gate-feasible instance; most of them have no solution."""
    comps = list(compositions_of(total, r + 1))
    while True:
        mu, nu, rho = rng.choice(comps), rng.choice(comps), rng.choice(comps)
        if sum(i * (a + b + c) for i, (a, b, c) in enumerate(zip(mu, nu, rho))) == r * total:
            return XRayInstance2D(r, mu, nu, rho)


def random_solvable(rng: random.Random, r: int, total: int) -> XRayInstance2D:
    """The axis marginals of `total` random points of the layer x+y+z = r,
    so the instance has at least one solution."""
    layer = [(x, y, r - x - y) for x in range(r + 1) for y in range(r + 1 - x)]
    xs, ys, zs = tomography.axis_marginals(rng.sample(layer, total))
    return XRayInstance2D(r, xs, ys, zs)


def random_instance(rng: random.Random, r: int, total: int) -> XRayInstance2D:
    """Solvable and merely gate-feasible instances, half and half."""
    return (random_solvable if rng.random() < 0.5 else random_feasible)(rng, r, total)


def kron_queries(rng: random.Random) -> list[dict]:
    """Kronecker triples of range-3 instances of size 8-10 (n = 18-20)."""
    out = []
    seen = set()
    for r, total in [(3, t) for t in (8, 9, 10)] * 16:
        inst = random_instance(rng, r, total)
        trip = reductions.kronecker_plethysm_triple(inst)
        key = (trip.mu, trip.nu, trip.rho)
        if key in seen:
            continue
        seen.add(key)
        got, took = _cold(lambda: characters.kronecker(*key))
        want = tomography.count_2dxray(inst)
        if got != want:
            raise SystemExit(f"k{key} = {got}, grid count of {inst} is {want}")
        out.append((took, _entry(["kron", *(format_partition(p) for p in key), "--format", "json"], {"value": want})))
    return _by_cost(out[:PER_KIND])


def count_queries(rng: random.Random) -> list[dict]:
    out = []
    for r, total in [(2, t) for t in (1, 2, 3, 4)] * 10:
        inst = random_instance(rng, r, total)
        want = tomography.count_2dxray(inst)
        kind = rng.choice(("open", "closed"))
        sym = reductions.symmetrize_2d(inst, kind)
        emb = reductions.embed_pyramid_3d(sym.marginal, sym.grid_r, kind)
        data = {"kind": "sym3d", "cone": kind, "marginals": {"sum": list(emb.marginal)}}
        out.append(_entry(["count", json.dumps(data, separators=(",", ":")), "--format", "json"], {"count": want}))
    return out[:PER_KIND]


def reduce_queries(rng: random.Random, r: int, totals) -> list[dict]:
    out = []
    for i in range(PER_KIND):
        inst = random_instance(rng, r, totals[i % len(totals)])
        argv = ["reduce", _instance_json(inst), "--resolve", "--format", "json"]
        out.append(_entry(argv, tomography.count_2dxray(inst)))
    return out


def infeasible_queries() -> list[dict]:
    # each fails the gate: unequal totals, or coordinate sum off by one
    instances = [
        XRayInstance2D(1, (1, 1), (1, 1), (1, 0)),
        XRayInstance2D(2, (1, 1, 0), (0, 1, 1), (1, 0, 1)),
        XRayInstance2D(2, (2, 0, 1), (1, 1, 1), (0, 3)),
        XRayInstance2D(3, (1, 0, 1), (0, 2), (2,)),
    ]
    return [_entry(["reduce", _instance_json(i), "--resolve", "--format", "json"], None, exit_code=3) for i in instances]


def table_queries() -> list[dict]:
    from plethtomo.cli import WORKED_EXAMPLES

    rows = []
    for name, inst in WORKED_EXAMPLES:
        c = tomography.count_2dxray(inst)
        rows.append({"name": name, "count": c, "kronecker": c, "a_value": c, "b_value": c})
    return [_entry(["table", "--format", "json"], rows)]


def main() -> int:
    rng = random.Random("cli_pool")
    builders = {
        "coeff-a": lambda: coeff_queries(rng, "a"),
        "coeff-b": lambda: coeff_queries(rng, "b"),
        "coeff-p": lambda: coeff_p_queries(rng),
        "kron": lambda: kron_queries(rng),
        "count": lambda: count_queries(rng),
        "reduce-r1": lambda: reduce_queries(rng, 1, (1, 2, 3)),
        "reduce-r2": lambda: reduce_queries(rng, 2, (1, 2, 3, 4)),
        "reduce-r3": lambda: reduce_queries(rng, 3, (1, 2, 3)),
        "reduce-infeasible": infeasible_queries,
        "table": table_queries,
    }
    queries = {}
    for kind, build in builders.items():
        t0 = time.perf_counter()
        queries[kind] = build()
        print(f"{kind}: {len(queries[kind])} queries in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"queries": queries}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
