"""Seeded inputs, operations and answer checks for the plethtomo benchmark.

A workload run is made of replicate rounds: every round of a run executes
the same list of operations, built from (workload, seed), in the same order
and in a fresh process, so memo tables start empty and fill only as the
round's own ops share work, and every op does the same work in every round.
A library op computes its answer and checks it against an independent
route in the same call: it returns None when every check holds and a short
reason when one does not.  A CLI op is one argument vector with its known
answer from cli_pool.json.

Why each workload, and why its mix:

* plethysm_sweep -- every (mu, nu) with |mu|*|nu| <= 7 (103 pairs) in
  ascending size, as a researcher's sweep runs them.  Work sits in sympoly,
  characters, coefficients and tableaux and never in tomography; most of it
  is the literal-substitution route of plethysm_poly, which the route
  collapse should remove.  The sweep is the whole input space, so every
  seed gives the same ops.  Cap 8 is left out: its ops take up to 1.4 s
  each, over which a shared host's CPU changes speed several times, so the
  probe timed right after an op no longer tells the speed it ran at; cap 8
  would also make up 94% of a round.
* chain_resolve -- gate-feasible 2dxray instances by range and total: all 83
  of range 1 (totals 1-6), which are cheap; a fixed sample, 4 per total 1-4,
  of range 2, which spends its time in the level engine of count_point_sets;
  and a seeded sample, 1 per total 1-3, of range 3, which raises
  RecursionError in that engine today.  Range 2 ops take 75-115 ms each
  depending on the instance, and the 90th percentile falls among them, so
  the sample is the same for every seed.  Range 3 stays in the mix (3 of
  102 ops) so the failure shows in the failure count while the 90th
  percentile still lands on a completed op.
* bounds_sandwich -- every lambda |- 3n for n <= 4 that fits in a 7 x 7
  box, through both cones, where most n = 4 counts have excess >= 4 and go
  through the index engine, plus the restricted-class instances counted as
  cone tableaux.  The 24 long or tall lambda |- 12 outside the box take
  0.1-5 s each and would make up 95% of a round; the box also drops 4
  lambda |- 9.  Every seed gives the same ops.
* cli_cold -- one fresh `python -m plethtomo` process per op, drawn from a
  fixed mix of subcommands; the only workload that covers cli, and one where
  every op pays import and empty memo tables.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

WORKLOADS = ("plethysm_sweep", "chain_resolve", "bounds_sandwich", "cli_cold")

PLETHYSM_CAP = 7
# (range, totals, instances per total or None for all of them, whether the
# run's seed draws them); range 3 fails today
CHAIN_MIX = ((1, (1, 2, 3, 4, 5, 6), None, False), (2, (1, 2, 3, 4), 4, False), (3, (1, 2, 3), 1, True))
BOUNDS_N_MAX = 4
BOUNDS_BOX = 7
RESTRICTED_MU_MAX = 4
# subcommand class -> ops per round (100 in all)
CLI_MIX = {
    "coeff-a": 14,
    "coeff-b": 14,
    "coeff-p": 14,
    "kron": 16,
    "count": 14,
    "reduce-r1": 6,
    "reduce-r2": 10,
    "reduce-r3": 3,
    "reduce-infeasible": 1,
    "table": 8,
}
CLI_POOL = Path(__file__).with_name("cli_pool.json")


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], str | None]


@dataclass(frozen=True)
class CliQuery:
    kind: str
    argv: tuple[str, ...]
    exit: int
    expect: object


def build_round(workload: str, seed: int) -> list:
    """The ops of every round of a run, in the order they run."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "plethysm_sweep":
        return plethysm_sweep_ops()
    if workload == "chain_resolve":
        return chain_resolve_ops(rng)
    if workload == "bounds_sandwich":
        return bounds_sandwich_ops()
    if workload == "cli_cold":
        return cli_cold_queries(rng, load_cli_pool())
    raise ValueError(f"unknown workload {workload!r}")


def _sample(rng: random.Random, pool: list, k: int) -> list:
    """k items, one from each of k equal consecutive strata of the pool
    (with replacement when the pool is smaller).  Pools sorted by cost thus
    give every seed the same spread of costs."""
    if k > len(pool):
        return rng.choices(pool, k=k)
    edges = [len(pool) * i // k for i in range(k + 1)]
    return [pool[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]


# -- plethysm_sweep -----------------------------------------------------------


def plethysm_sweep_ops(cap: int = PLETHYSM_CAP) -> list[Op]:
    from plethtomo.partitions import partitions_of

    pairs = [
        (mu, nu)
        for size in range(1, cap + 1)
        for a in range(1, size + 1)
        if size % a == 0
        for mu in partitions_of(a)
        for nu in partitions_of(size // a)
    ]
    return [Op("pair", partial(plethysm_table_op, mu, nu)) for mu, nu in pairs]


def plethysm_table_op(mu, nu) -> str | None:
    """Full Schur table by monomial peeling, checked entry by entry against
    general_plethysm, as a whole against the power-sum table, and through
    the dimension of the plethysm module on C^n."""
    from plethtomo import characters, coefficients, partitions, sympoly, tableaux

    n = sum(mu) * sum(nu)
    table = dict(sympoly.decompose_schur(sympoly.plethysm_poly(mu, nu, n)))
    for lam in partitions.partitions_of(n):
        got = coefficients.general_plethysm(lam, mu, nu).value
        if got != table.get(lam, 0):
            return f"p_{lam}({mu},{nu}): general_plethysm {got}, peel table {table.get(lam, 0)}"
    if characters.plethysm_schur_table(mu, nu) != table:
        return f"({mu},{nu}): power-sum table differs from the peel table"
    dim = sum(m * tableaux.dim_weyl(lam, n) for lam, m in table.items())
    want = coefficients.dim_plethysm_module(mu, nu, n)
    if dim != want:
        return f"({mu},{nu}): table dimension {dim}, module dimension {want}"
    return None


# -- chain_resolve ------------------------------------------------------------


def feasible_2dxray(r: int, total: int) -> list:
    """Every 2dxray instance of range r and size `total` that passes the
    feasibility gate (equal totals, coordinate sum r*total)."""
    from plethtomo.partitions import compositions_of
    from plethtomo.tomography import XRayInstance2D

    comps = list(compositions_of(total, r + 1))
    weight = {c: sum(i * v for i, v in enumerate(c)) for c in comps}
    return [
        XRayInstance2D(r, mu, nu, rho)
        for mu, nu, rho in itertools.product(comps, repeat=3)
        if weight[mu] + weight[nu] + weight[rho] == r * total
    ]


def chain_resolve_ops(rng: random.Random, mix=CHAIN_MIX) -> list[Op]:
    fixed = random.Random("chain_resolve")
    ops = []
    for r, totals, per_total, seeded in mix:
        for total in totals:
            pool = feasible_2dxray(r, total)
            for inst in pool if per_total is None else _sample(rng if seeded else fixed, pool, per_total):
                ops.append(Op(f"range{r}", partial(chain_op, inst)))
    return ops


def chain_op(inst) -> str | None:
    """Every stage of the reduction chain must reproduce the grid count."""
    from plethtomo import coefficients, reductions, tomography

    want = tomography.count_2dxray(inst)
    got: dict[str, int] = {}
    for kind in ("open", "closed"):
        sym = reductions.symmetrize_2d(inst, kind)
        got[f"sym2d-{kind}"] = tomography.count_sym_2dxray(sym.marginal, sym.grid_r, kind)
        emb = reductions.embed_pyramid_3d(sym.marginal, sym.grid_r, kind)
        got[f"point-sets-{kind}"] = tomography.count_point_sets(emb.marginal, kind)
    trip = reductions.kronecker_plethysm_triple(inst)
    got["kronecker"] = coefficients.kronecker(trip.mu, trip.nu, trip.rho).value
    got["a"] = reductions.resolve_coefficient(trip.a_instance).value
    got["b"] = reductions.resolve_coefficient(trip.b_instance).value
    bad = {k: v for k, v in got.items() if v != want}
    return f"{inst}: grid count {want}, stages {bad}" if bad else None


# -- bounds_sandwich ----------------------------------------------------------


def _layer_vectors(total: int, weighted: int, r: int):
    """Vectors on [0, r] with entry sum `total` and weighted sum `weighted`."""

    def rec(i, left, wleft, prefix):
        if i > r:
            if left == 0 and wleft == 0:
                yield prefix
            return
        for v in range(left + 1):
            if i * v > wleft:
                break
            yield from rec(i + 1, left - v, wleft - i * v, prefix + (v,))

    yield from rec(0, total, weighted, ())


def restricted_instances(mu_max: int = RESTRICTED_MU_MAX) -> list[tuple]:
    """(mu, lam, variant) in the restricted class with a unique split: the
    complete pyramids of every column plus one layer vector per column."""
    from plethtomo import partitions, restricted, tomography

    out = []
    for variant, nu, kind in (("sym", (3,), "closed"), ("wedge", (1, 1, 1), "open")):
        for size in range(1, mu_max + 1):
            for mu in partitions.partitions_of(size):
                d = restricted.psi_decompose(mu, variant)
                base = ()
                for r_j in d.thresholds:
                    base = partitions.add(base, tomography.sum_marginal(tomography.complete_pyramid(r_j - 1, kind)))
                options = [list(_layer_vectors(3 * n_hat, n_hat * r_j, r_j)) for r_j, n_hat in zip(d.thresholds, d.layer_parts)]
                seen = set()
                for combo in itertools.product(*options):
                    lam = base
                    for vec in combo:
                        lam = partitions.add(lam, vec)
                    if lam in seen or not partitions.is_partition(lam):
                        continue
                    seen.add(lam)
                    if len(restricted.psi_splits(mu, nu, lam)) == 1:
                        out.append((mu, lam, variant))
    return out


def bounds_sandwich_ops(n_max: int = BOUNDS_N_MAX, mu_max: int = RESTRICTED_MU_MAX, box: int = BOUNDS_BOX) -> list[Op]:
    from plethtomo.partitions import partitions_of

    ops = [
        Op(f"n{n}", partial(sandwich_op, lam, n))
        for n in range(1, n_max + 1)
        for lam in partitions_of(3 * n)
        if lam[0] <= box and len(lam) <= box
    ]
    ops += [Op("restricted", partial(restricted_op, mu, lam, v)) for mu, lam, v in restricted_instances(mu_max)]
    return ops


def sandwich_op(lam, n: int) -> str | None:
    """pyramid count <= coefficient <= point-set count, a and b families."""
    from plethtomo import coefficients, partitions, tomography

    a = coefficients.plethysm_coeff(lam, n, 3, "a").value
    b = coefficients.plethysm_coeff(lam, n, 3, "b").value
    lam_t = partitions.transpose(lam)
    lo_a, hi_a = tomography.count_pyramids(lam_t, "open"), tomography.count_point_sets(lam_t, "open")
    lo_b, hi_b = tomography.count_pyramids(lam, "closed"), tomography.count_point_sets(lam, "closed")
    if not lo_a <= a <= hi_a:
        return f"a_{lam}({n},3) = {a} outside [{lo_a}, {hi_a}]"
    if not lo_b <= b <= hi_b:
        return f"b_{lam}({n},3) = {b} outside [{lo_b}, {hi_b}]"
    return None


def restricted_op(mu, lam, variant: str) -> str | None:
    """Cone-tableau count, under both tiebreaks, equals the coefficient."""
    from plethtomo import coefficients, restricted

    nu = (3,) if variant == "sym" else (1, 1, 1)
    lex = restricted.count_cone_ssyt(mu, lam, variant)
    rev = restricted.count_cone_ssyt(mu, lam, variant, tiebreak="revlex")
    want = coefficients.general_plethysm(lam, mu, nu).value
    if not lex == rev == want:
        return f"({mu},{nu},{lam}): lex {lex}, revlex {rev}, coefficient {want}"
    return None


# -- cli_cold -----------------------------------------------------------------


def load_cli_pool(path: Path = CLI_POOL) -> dict[str, list[CliQuery]]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {kind: [CliQuery(kind, tuple(q["argv"]), q["exit"], q["expect"]) for q in entries] for kind, entries in raw["queries"].items()}


def cli_cold_queries(rng: random.Random, pool: dict[str, list[CliQuery]], mix: dict[str, int] = CLI_MIX) -> list[CliQuery]:
    queries = [q for kind, k in mix.items() for q in _sample(rng, pool[kind], k)]
    rng.shuffle(queries)
    return queries


def check_cli(query: CliQuery, returncode: int, stdout: str) -> str | None:
    """Map one CLI process to ok (None) or a failure reason.  Exit 0 must
    print the known answer; exit 3 is ok only for a query built to be
    infeasible; every other exit code is a failure."""
    if returncode != query.exit:
        return f"exit {returncode}, expected {query.exit}"
    if query.exit != 0:
        return None
    try:
        return _check_cli_output(query, json.loads(stdout))
    except (json.JSONDecodeError, AttributeError, TypeError, KeyError):
        return f"malformed output {stdout[:80]!r}"


def _check_cli_output(query: CliQuery, out) -> str | None:
    sub = query.argv[0]
    if sub == "reduce":
        # both plethysm instances and the Kronecker triple carry the grid count
        values = [stage["value"] for stage in out if stage["stage"] in ("plethysm", "kron-triple")]
        if len(values) != 3 or any(v != query.expect for v in values):
            return f"stage values {values}, grid count {query.expect}"
        return None
    if sub == "table":
        got = {row["name"]: row for row in out}
        for row in query.expect:
            if any(got.get(row["name"], {}).get(k) != v for k, v in row.items()):
                return f"table row {got.get(row['name'])}, expected {row}"
        return None
    if any(out.get(k) != v for k, v in query.expect.items()):
        return f"output {out}, expected {query.expect}"
    return None
