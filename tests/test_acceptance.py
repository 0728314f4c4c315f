"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s to see them).  All assertions are exact integer
comparisons; stated runtime budgets are asserted too.

Criteria 1 and 2 carry strict-golden-value companions (xfail): the legacy
reference vectors for the bundled worked examples contain two internal
arithmetic slips (a complete-pyramid marginal missing the point (12,0,0),
and simplex padding taken one index too high), so those literal vectors are
incompatible with the coefficient values claimed alongside them.  The value
claims themselves are verified exactly, at the legacy vectors, below; the
README's "Worked-example corrections" section has the analysis.
"""

import itertools
import random
import time

import pytest

from plethtomo.characters import kronecker as character_kronecker
from plethtomo.coefficients import (
    check_duality,
    general_plethysm,
    jacobi_trudi_coeff,
    kronecker,
    m2_closed_form,
    outer_shape,
)
from plethtomo.partitions import add, compositions_of, is_partition, partitions_of, transpose
from plethtomo.reductions import (
    TriviallyZero,
    embed_pyramid_3d,
    inner_lift,
    kronecker_plethysm_triple,
    resolve_coefficient,
    symmetrize_2d,
)
from plethtomo.restricted import count_cone_ssyt, psi_decompose, psi_splits
from plethtomo.sympoly import decompose_schur, plethysm_poly
from plethtomo.tableaux import dim_weyl
from plethtomo.tomography import (
    XRayInstance2D,
    beta,
    complete_pyramid,
    coordinate_sum,
    count_2dxray,
    count_point_sets,
    count_pyramids,
    count_sym_2dxray,
    is_promise_instance,
    sum_marginal,
    xi,
    xi_by_enumeration,
)

EXAMPLE_1 = XRayInstance2D(1, (1, 1), (1, 1), (2, 0))
EXAMPLE_2 = XRayInstance2D(1, (2, 1), (2, 1), (2, 1))
EXAMPLE_3 = XRayInstance2D(1, (2, 0), (2, 0), (0, 2))

REFERENCE_LAMBDA_32 = (12, 11, 11, 10, 10, 9, 8, 8, 8, 7, 7, 6, 6, 5, 5, 5, 5,
                   4, 4, 4, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1)

# legacy reference vectors for the worked examples (see module docstring)
LEGACY_TRIPLE_1 = ((2, 2, 1, 1), (2, 2, 1, 1), (2, 1, 1, 1, 1))
LEGACY_PI_2 = (63, 55, 46, 40, 32, 23, 17, 12, 9, 8, 5, 2)
LEGACY_PI_3 = (61, 56, 46, 40, 31, 23, 17, 12, 9, 8, 4, 2)


def report(num, elapsed, detail):
    print(f"ACCEPTANCE {num:>2} PASS  ({elapsed:6.1f}s)  {detail}")


def test_criterion_01_example_one_end_to_end():
    t0 = time.time()
    assert count_2dxray(EXAMPLE_1) == 1
    trip = kronecker_plethysm_triple(EXAMPLE_1)
    # the a-side plethysm instance is the reference 32-part shape
    assert trip.a_instance.lam == REFERENCE_LAMBDA_32
    assert trip.a_instance.n == 55 and trip.a_instance.m == 3 and trip.a_instance.variant == "a"
    # rho = (1,1,1) is one column, so k is [mu = nu'] without characters;
    # the character sum agrees
    k = kronecker(trip.mu, trip.nu, trip.rho)
    assert k.method == "one-row-or-column" and k.value == 1
    assert character_kronecker(trip.mu, trip.nu, trip.rho) == 1
    a = resolve_coefficient(trip.a_instance)
    assert a.method == "promise-pyramid-count" and a.value == 1
    # the promise really collapses the bounds at this scale
    marg = transpose(trip.a_instance.lam)
    assert is_promise_instance(marg, "open")
    assert count_pyramids(marg, "open") == count_point_sets(marg, "open") == 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, elapsed, f"k{trip.mu, trip.nu, trip.rho} = a_lam(55,3) = 1 = #solutions; 32-part shape matched")


@pytest.mark.xfail(
    strict=True,
    reason="the legacy triple was padded with the simplex of radius r instead of r-1: "
    "it has Kronecker coefficient 0, not the claimed 1, so the "
    "chain (selected to satisfy k = #solutions on every instance) emits the "
    "corrected triple ((2,1),(2,1),(1,1,1)) instead",
)
def test_criterion_01_legacy_triple_strict():
    trip = kronecker_plethysm_triple(EXAMPLE_1)
    assert (trip.mu, trip.nu, trip.rho) == LEGACY_TRIPLE_1


def test_criterion_02_examples_two_three():
    t0 = time.time()
    # values at exactly the legacy vectors, pinned by the bounds sandwich:
    # pyramid and point-set counts coincide, so the coefficient is forced
    lo2, hi2 = count_pyramids(LEGACY_PI_2, "closed"), count_point_sets(LEGACY_PI_2, "closed")
    assert lo2 == hi2 == 1
    assert sum(LEGACY_PI_2) == 3 * 104  # b_pi(104,3) = 1 as claimed
    hi3 = count_point_sets(LEGACY_PI_3, "closed")
    assert hi3 == 0
    assert sum(LEGACY_PI_3) == 3 * 103  # b_pi(103,3) = 0 as claimed
    # the corrected pipeline's own instances verify end to end
    for inst, expected in ((EXAMPLE_2, 1), (EXAMPLE_3, 0)):
        assert count_2dxray(inst) == expected
        trip = kronecker_plethysm_triple(inst)
        assert kronecker(trip.mu, trip.nu, trip.rho).value == expected
        assert resolve_coefficient(trip.b_instance).value == expected
        assert resolve_coefficient(trip.a_instance).value == expected
    trip2 = kronecker_plethysm_triple(EXAMPLE_2)
    assert trip2.b_instance.lam == (65, 55, 46, 40, 32, 23, 17, 12, 9, 8, 5, 2, 1)
    assert trip2.b_instance.n == 105
    report(2, time.time() - t0, "b = 1 at legacy pi_2 (bounds collapse), b = 0 at legacy pi_3; corrected chain verified")


@pytest.mark.xfail(
    strict=True,
    reason="the legacy pi vectors add a complete-pyramid marginal that is "
    "missing the point (12,0,0) (sums to 3*101, but the pyramid has 102 "
    "points by the layer-count formula round((i+3)^2/12)), so the "
    "pipeline's pyramid stage cannot emit them",
)
def test_criterion_02_legacy_pi_strict():
    trip2 = kronecker_plethysm_triple(EXAMPLE_2)
    assert trip2.b_instance.lam == LEGACY_PI_2


def test_criterion_03_bounds_sandwich():
    t0 = time.time()
    checked = 0
    for n in (1, 2, 3, 4):
        for lam in partitions_of(3 * n):
            # general_plethysm, not plethysm_coeff, which answers a promise
            # shape by the point-set count the bound is checked against
            a = general_plethysm(lam, outer_shape(n, "a"), (3,)).value
            b = general_plethysm(lam, outer_shape(n, "b"), (3,)).value
            lam_t = transpose(lam)
            assert count_pyramids(lam_t, "open") <= a <= count_point_sets(lam_t, "open"), (lam, "a")
            assert count_pyramids(lam, "closed") <= b <= count_point_sets(lam, "closed"), (lam, "b")
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(3, elapsed, f"pyramid <= coefficient <= point-set for {checked} shapes, both families")


def test_criterion_04_oracle_self_consistency():
    t0 = time.time()
    triples = 0
    pairs = 0
    for a in range(1, 13):
        for b in range(1, 13):
            if a * b > 12:
                continue
            for mu in partitions_of(a):
                for nu in partitions_of(b):
                    n = a * b
                    table = dict(decompose_schur(plethysm_poly(mu, nu, n)))
                    pairs += 1
                    for lam in partitions_of(n):
                        want = table.get(lam, 0)
                        if len(lam) <= 9:
                            assert jacobi_trudi_coeff(lam, mu, nu) == want, (lam, mu, nu)
                            triples += 1
                        assert general_plethysm(lam, mu, nu).value == want, (lam, mu, nu)
                    for k in range(1, 5):
                        lhs = sum(mult * dim_weyl(lam, k) for lam, mult in table.items())
                        assert lhs == dim_weyl(mu, dim_weyl(nu, k)), (mu, nu, k)
    report(4, time.time() - t0, f"Jacobi-Trudi == peeling on {triples} triples over {pairs} pairs; dimensions conserved for k <= 4")


def test_criterion_05_inner_degree_two_closed_forms():
    t0 = time.time()
    for n in range(1, 7):
        for variant, mu in (("a", (n,)), ("b", (1,) * n)):
            support = m2_closed_form(n, variant)
            for lam in partitions_of(2 * n):
                got = general_plethysm(lam, mu, (2,)).value
                assert got == (1 if lam in support else 0), (variant, n, lam)
    report(5, time.time() - t0, "inner-degree-2 supports match and are multiplicity-free for n <= 6")


def test_criterion_06_duality():
    t0 = time.time()
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        ok, rep = check_duality(n, m)
        assert ok, (n, m, rep[:3])
    report(6, time.time() - t0, "all four decomposition identities hold for (n,m) in {(2,2),(2,3),(3,2),(3,3),(2,4)}")


def test_criterion_07_inner_lift():
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for lam in partitions_of(2 * n):
            for variant in ("a", "b"):
                # general_plethysm on both sides: plethysm_coeff peels the
                # lifted shape's first column, back to the direct query
                direct = general_plethysm(lam, outer_shape(n, variant), (2,)).value
                lifted = inner_lift(lam, n, 2, variant)
                if isinstance(lifted, TriviallyZero):
                    assert direct == 0, (lam, n, variant)
                else:
                    assert direct == general_plethysm(lifted.lam, outer_shape(n, lifted.variant), (3,)).value, (lam, n, variant)
                checked += 1
    report(7, time.time() - t0, f"degree lift preserves {checked} coefficients (n <= 5, both families)")


def _feasible_instances(r, max_total):
    for tot in range(max_total + 1):
        for mu in compositions_of(tot, r + 1):
            for nu in compositions_of(tot, r + 1):
                for rho in compositions_of(tot, r + 1):
                    if sum(i * (mu[i] + nu[i] + rho[i]) for i in range(r + 1)) == r * tot:
                        yield XRayInstance2D(r, mu, nu, rho)


def test_criterion_08_parsimony_of_the_chain():
    t0 = time.time()
    # exhaustive family at range one, including the Kronecker equality
    n_range_one = 0
    for inst in _feasible_instances(1, 4):
        cnt = count_2dxray(inst)
        if inst.r * sum(inst.mu) == 0:
            continue
        for kind in ("open", "closed"):
            sym = symmetrize_2d(inst, kind)
            assert count_sym_2dxray(sym.marginal, sym.grid_r, kind) == cnt
            emb = embed_pyramid_3d(sym.marginal, sym.grid_r, kind)
            assert count_point_sets(emb.marginal, emb.cone) == cnt
        trip = kronecker_plethysm_triple(inst)
        assert kronecker(trip.mu, trip.nu, trip.rho).value == cnt
        assert character_kronecker(trip.mu, trip.nu, trip.rho) == cnt
        assert resolve_coefficient(trip.a_instance).value == cnt
        assert resolve_coefficient(trip.b_instance).value == cnt
        n_range_one += 1
    # random instances at range two
    rng = random.Random(2024)
    pool = [i for i in _feasible_instances(2, 5) if sum(i.mu) > 0]
    sample = rng.sample(pool, 50)
    for inst in sample:
        cnt = count_2dxray(inst)
        for kind in ("open", "closed"):
            sym = symmetrize_2d(inst, kind)
            assert count_sym_2dxray(sym.marginal, sym.grid_r, kind) == cnt
            emb = embed_pyramid_3d(sym.marginal, sym.grid_r, kind)
            assert count_point_sets(emb.marginal, emb.cone) == cnt
        trip = kronecker_plethysm_triple(inst)
        assert resolve_coefficient(trip.a_instance).value == cnt
        assert resolve_coefficient(trip.b_instance).value == cnt
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(8, elapsed, f"counts preserved through every stage: {n_range_one} range-1 instances (with Kronecker), {len(sample)} random range-2")


def _exists_set_cheaper_than(n, kind, budget):
    cands = sorted(complete_pyramid(max(budget, 0), kind), key=lambda p: (sum(p), p))
    sums = [sum(p) for p in cands]

    def rec(idx, left, left_budget):
        if left == 0:
            return True
        if idx == len(cands) or len(cands) - idx < left:
            return False
        if sum(sums[idx : idx + left]) > left_budget:
            return False
        return rec(idx + 1, left - 1, left_budget - sums[idx]) or rec(idx + 1, left, left_budget)

    return rec(0, n, budget)


def test_criterion_09_layer_count_formulas_and_minimality():
    t0 = time.time()
    for i in range(41):
        assert xi(i, "closed") == xi_by_enumeration(i, "closed")
        assert xi(i, "open") == xi_by_enumeration(i, "open")
    for kind in ("open", "closed"):
        for n in range(1, 7):
            b = beta(n, kind)
            assert not _exists_set_cheaper_than(n, kind, b - 1), (kind, n)
            assert _exists_set_cheaper_than(n, kind, b), (kind, n)
    report(9, time.time() - t0, "layer formulas match enumeration (i <= 40); minimum coordinate sums exact (n <= 6)")


def test_criterion_10_restricted_formula():
    t0 = time.time()
    checked = 0
    for musize in (1, 2, 3, 4):
        for mu in partitions_of(musize):
            d = psi_decompose(mu, "sym")
            base = ()
            for r_j in d.thresholds:
                base = add(base, sum_marginal(complete_pyramid(r_j - 1, "closed")))
            options = [
                sorted(v for v in compositions_of(3 * n_hat, r_j + 1) if coordinate_sum(v) == n_hat * r_j)
                for r_j, n_hat in zip(d.thresholds, d.layer_parts)
            ]
            seen = set()
            for combo in itertools.product(*options):
                lam = base
                for vec in combo:
                    lam = add(lam, vec)
                if lam in seen or not is_partition(lam):
                    continue
                seen.add(lam)
                if len(psi_splits(mu, (3,), lam)) != 1:
                    continue
                count = count_cone_ssyt(mu, lam, "sym")
                assert count == count_cone_ssyt(mu, lam, "sym", tiebreak="revlex"), (mu, lam)
                assert count == general_plethysm(lam, mu, (3,)).value, (mu, lam)
                checked += 1
    assert checked >= 13
    report(10, time.time() - t0, f"tableau counts equal coefficients on all {checked} unique-split instances, both tiebreaks")
