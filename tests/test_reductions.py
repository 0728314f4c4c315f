import functools
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tomography import full_simplex

from plethtomo import reductions
from plethtomo.characters import kronecker as character_kronecker
from plethtomo.coefficients import CoefficientResult, _family_cone, general_plethysm, kronecker, outer_shape, plethysm_coeff
from plethtomo.partitions import add, compositions_of, partitions_of, transpose
from plethtomo.reductions import (
    CANONICAL_ZERO_3D,
    REDUCE_R_MAX,
    TRIVIAL_NO_INSTANCE,
    PlethysmInstance,
    TriviallyZero,
    _promise_query,
    embed_pyramid_3d,
    gamma_embed,
    gamma_extract,
    inner_lift,
    kronecker_plethysm_triple,
    promise_to_plethysm,
    resolve_coefficient,
    symmetrize_2d,
)
from plethtomo.tomography import (
    SizeCapError,
    XRayInstance2D,
    axis_marginals,
    complete_pyramid,
    count_2dxray,
    count_point_sets,
    count_pyramids,
    count_sym_2dxray,
    coordinate_sum,
    is_promise_instance,
    sum_marginal,
)

EXAMPLE_1 = XRayInstance2D(1, (1, 1), (1, 1), (2, 0))
EXAMPLE_2 = XRayInstance2D(1, (2, 1), (2, 1), (2, 1))
EXAMPLE_3 = XRayInstance2D(1, (2, 0), (2, 0), (0, 2))

REFERENCE_LAMBDA_32 = (12, 11, 11, 10, 10, 9, 8, 8, 8, 7, 7, 6, 6, 5, 5, 5, 5,
                   4, 4, 4, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# inner lift


def test_inner_lift_example():
    lifted = inner_lift((4,), 2, 2, "a")
    assert lifted == PlethysmInstance((5, 1), 2, 3, "b")
    # general_plethysm on both sides: plethysm_coeff peels (5,1) back to (4)
    assert general_plethysm((4,), (2,), (2,)).value == general_plethysm((5, 1), (1, 1), (3,)).value == 1


def test_inner_lift_tall_shape_is_zero():
    lifted = inner_lift((2, 2, 2), 2, 3, "a")
    assert isinstance(lifted, TriviallyZero)
    # and the coefficient really is zero, by a route that does not apply
    # plethysm_coeff's height-zero row
    assert _unpeeled((2, 2, 2), 2, 3, "a") == 0
    lifted_b = inner_lift((1, 1, 1), 1, 3, "b")
    assert isinstance(lifted_b, TriviallyZero)
    assert _unpeeled((1, 1, 1), 1, 3, "b") == 0


def test_inner_lift_rejects_size_mismatch():
    with pytest.raises(ValueError):
        inner_lift((3,), 2, 2, "a")


def test_inner_lift_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant must be 'a' or 'b'"):
        inner_lift((4,), 2, 2, "c")


def _unpeeled(lam, n, m, variant):
    """The coefficient by general_plethysm, which never peels a column, so a
    lift check does not compare plethysm_coeff's column peel with itself."""
    return general_plethysm(lam, outer_shape(n, variant), (m,) if m else ()).value


def _lift_value(lam, n, m, variant):
    lifted = inner_lift(lam, n, m, variant)
    if isinstance(lifted, TriviallyZero):
        return 0
    return _unpeeled(lifted.lam, lifted.n, lifted.m, lifted.variant)


def test_inner_lift_roundtrip():
    for n in range(1, 6):
        for lam in partitions_of(2 * n):
            for variant in ("a", "b"):
                direct = _unpeeled(lam, n, 2, variant)
                assert direct == _lift_value(lam, n, 2, variant), (lam, n, variant)


@st.composite
def lift_queries(draw):
    """(lam, n, m, variant) with len(lam) <= n and n*m <= 20."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 20 // n))
    lam = draw(st.sampled_from([lam for lam in partitions_of(n * m) if len(lam) <= n]))
    return lam, n, m, draw(st.sampled_from("ab"))


@settings(max_examples=60, deadline=None, database=None)
@given(query=lift_queries())
def test_plethysm_coeff_peels_the_inner_lift_back(query):
    # the lifted instance has n rows, so plethysm_coeff peels its first
    # column, unless it is a promise instance at m + 1 = 3: it must give the
    # un-peeled value at (lam, n, m)
    lifted = inner_lift(*query)
    assert len(lifted.lam) == lifted.n
    got = plethysm_coeff(lifted.lam, lifted.n, lifted.m, lifted.variant)
    assert got.method.startswith("column-peel+") or got.method == "promise-pyramid-count"
    assert got.value == _unpeeled(*query)


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_examples():
    sym = symmetrize_2d(EXAMPLE_1, "closed")
    assert sym.marginal == (2, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1)
    assert sym.grid_r == 13
    sym2 = symmetrize_2d(EXAMPLE_2, "closed")
    assert sym2.marginal == (2, 1, 0, 2, 1, 0, 0, 0, 0, 2, 1)


def test_symmetrize_rejects_degenerate_range():
    with pytest.raises(ValueError):
        symmetrize_2d(XRayInstance2D(0, (1,), (1,), (1,)), "closed")


def test_gamma_maps():
    assert gamma_embed({(1, 0, 0), (0, 1, 0)}, 1) == {(10, 3, 0), (9, 4, 0)}
    pts = frozenset({(1, 0, 0), (0, 1, 0)})
    assert gamma_extract(gamma_embed(pts, 1), 1) == pts
    assert gamma_extract(gamma_embed(frozenset(FIGURE := {(0, 3, 4), (4, 3, 0)}), 7), 7) == FIGURE
    with pytest.raises(ValueError):
        gamma_extract({(0, 0, 0)}, 1)


@st.composite
def _layer_point_sets(draw):
    """A range r <= 4 and a set of points on the layer x + y + z = r."""
    r = draw(st.integers(1, 4))
    layer = [(x, y, r - x - y) for x in range(r + 1) for y in range(r + 1 - x)]
    return r, frozenset(draw(st.lists(st.sampled_from(layer), unique=True)))


@settings(max_examples=200, deadline=None, database=None)
@given(case=_layer_point_sets(), kind=st.sampled_from(["open", "closed"]))
def test_gamma_round_trip_and_sum_marginal(case, kind):
    r, points = case
    embedded = gamma_embed(points, r)
    assert gamma_extract(embedded, r) == points
    assert sum_marginal(embedded) == symmetrize_2d(XRayInstance2D(r, *axis_marginals(points)), kind).marginal


def test_gamma_embeds_solutions():
    # the embedded witness solves the symmetrized instance
    sym = symmetrize_2d(EXAMPLE_1, "closed")
    witness = gamma_embed({(1, 0, 0), (0, 1, 0)}, 1)
    assert sum_marginal(witness) == sym.marginal
    assert all(x + y + z == 13 for (x, y, z) in witness)


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_symmetrize_preserves_counts_exhaustive_range_one(kind):
    for tot in range(4):
        for mu in compositions_of(tot, 2):
            for nu in compositions_of(tot, 2):
                for rho in compositions_of(tot, 2):
                    if mu[1] + nu[1] + rho[1] != tot:
                        continue
                    inst = XRayInstance2D(1, mu, nu, rho)
                    sym = symmetrize_2d(inst, kind)
                    assert count_2dxray(inst) == count_sym_2dxray(sym.marginal, sym.grid_r, kind)


# ---------------------------------------------------------------------------
# pyramid embedding


def test_embed_pyramid_trivial():
    inst = embed_pyramid_3d((), 1, "closed")
    assert inst.marginal == (3,)
    assert inst.grid_r is None


def test_embed_pyramid_example_one():
    sym = symmetrize_2d(EXAMPLE_1, "open")
    emb = embed_pyramid_3d(sym.marginal, 13, "open")
    assert emb.marginal == (32, 26, 22, 20, 17, 13, 11, 9, 6, 5, 3, 1)
    assert transpose(emb.marginal) == REFERENCE_LAMBDA_32
    assert is_promise_instance(emb.marginal, "open")


def test_embed_pyramid_infeasible_maps_to_zero_instance():
    assert embed_pyramid_3d((1,), 4, "closed") == CANONICAL_ZERO_3D["closed"]
    assert embed_pyramid_3d((0, 0, 3), 1, "closed") == CANONICAL_ZERO_3D["closed"]
    assert count_point_sets(CANONICAL_ZERO_3D["closed"].marginal, "closed") == 0


def test_embed_pyramid_promise_property_random():
    rng = random.Random(3)
    for _ in range(20):
        r = rng.randrange(2, 7)
        kind = rng.choice(["open", "closed"])
        layer = [p for p in complete_pyramid(r, kind) if sum(p) == r]
        if not layer:
            continue
        pick = rng.sample(layer, rng.randrange(1, len(layer) + 1))
        lam_hat = sum_marginal(pick)
        emb = embed_pyramid_3d(lam_hat, r, kind)
        assert is_promise_instance(emb.marginal, kind)
        assert count_point_sets(emb.marginal, kind) == count_sym_2dxray(lam_hat, r, kind)


# ---------------------------------------------------------------------------
# promise -> plethysm


def test_promise_to_plethysm_gates():
    assert promise_to_plethysm((0, 3), "closed") == TRIVIAL_NO_INSTANCE
    assert promise_to_plethysm((1,), "closed") == TRIVIAL_NO_INSTANCE
    got = promise_to_plethysm((3,), "closed")
    assert got == PlethysmInstance((3,), 1, 3, "b")
    assert resolve_coefficient(got).value == 1
    assert promise_to_plethysm((0, 0, 3), "closed") == TRIVIAL_NO_INSTANCE  # not a partition
    with pytest.raises(ValueError):
        promise_to_plethysm((3, 3, 3), "closed")  # partition of 9, but off the promise


def test_promise_to_plethysm_open_transposes():
    lam = sum_marginal(complete_pyramid(4, "open"))
    inst = promise_to_plethysm(lam, "open")
    assert inst.variant == "a"
    assert inst.lam == transpose(lam)


def test_trivial_no_instance_value():
    assert resolve_coefficient(TRIVIAL_NO_INSTANCE).value == 0


def test_family_cone_and_promise_query_invert_each_other():
    checked = {"open": 0, "closed": 0}
    for total in (3, 6, 9, 12, 15, 18):
        for lam in partitions_of(total):
            for kind in ("open", "closed"):
                if not is_promise_instance(lam, kind):
                    continue
                query = _promise_query(lam, kind)
                assert (query.n, query.m, query.variant) == (total // 3, 3, "b" if kind == "closed" else "a")
                assert _family_cone(query.lam, query.variant) == (lam, kind)
                assert _promise_query(*_family_cone(query.lam, query.variant)) == query
                assert resolve_coefficient(query).method == "promise-pyramid-count"
                checked[kind] += 1
    assert min(checked.values()) >= 10, checked


# partitions of 21 with at most nine rows whose cone instance is no promise
# instance: at n = 7 they go to the Jacobi-Trudi route, or are 0 below beta
# (the closed cone at (12, 9) has coordinate sum 9 < beta(7, closed) = 14)
@pytest.mark.parametrize(
    "lam, variant, method",
    [
        ((13, 6, 2), "a", "jacobi-trudi"),
        ((15, 6), "a", "jacobi-trudi"),
        ((8, 8, 5), "a", "jacobi-trudi"),
        ((7, 7, 7), "b", "jacobi-trudi"),
        ((10, 5, 3, 2, 1), "b", "jacobi-trudi"),
        ((12, 9), "b", "below-beta"),
    ],
)
def test_non_promise_instances_resolve_by_plethysm_coeff(lam, variant, method):
    inst = PlethysmInstance(lam, 7, 3, variant)
    assert not is_promise_instance(*_family_cone(lam, variant))
    assert resolve_coefficient(inst) == plethysm_coeff(lam, 7, 3, variant)
    assert resolve_coefficient(inst).method == method


def test_degree_mismatch_resolves_to_zero():
    assert resolve_coefficient(PlethysmInstance((4, 2), 3, 3, "b")).method == "degree-mismatch"
    assert resolve_coefficient(PlethysmInstance((4, 2), 3, 3, "b")).value == 0


# ---------------------------------------------------------------------------
# the Kronecker-plethysm triple


def test_triple_example_one():
    trip = kronecker_plethysm_triple(EXAMPLE_1)
    assert (trip.mu, trip.nu, trip.rho) == ((2, 1), (2, 1), (1, 1, 1))
    assert kronecker(trip.mu, trip.nu, trip.rho).value == 1
    assert trip.a_instance.lam == REFERENCE_LAMBDA_32
    assert trip.a_instance.n == 55
    assert resolve_coefficient(trip.a_instance).value == 1
    assert resolve_coefficient(trip.b_instance).value == 1


def test_triple_example_two():
    trip = kronecker_plethysm_triple(EXAMPLE_2)
    assert (trip.mu, trip.nu, trip.rho) == ((2, 1, 1), (2, 1, 1), (2, 1, 1))
    assert kronecker(trip.mu, trip.nu, trip.rho).value == 1
    assert trip.b_instance.n == 105
    assert trip.b_instance.lam == (65, 55, 46, 40, 32, 23, 17, 12, 9, 8, 5, 2, 1)
    assert resolve_coefficient(trip.b_instance).value == 1
    assert resolve_coefficient(trip.a_instance).value == 1


def test_triple_example_three():
    trip = kronecker_plethysm_triple(EXAMPLE_3)
    assert (trip.mu, trip.nu, trip.rho) == ((1, 1, 1), (1, 1, 1), (2, 1))
    assert kronecker(trip.mu, trip.nu, trip.rho).value == 0
    assert resolve_coefficient(trip.a_instance).value == 0
    assert resolve_coefficient(trip.b_instance).value == 0


def test_triple_rejects_infeasible():
    with pytest.raises(ValueError):
        kronecker_plethysm_triple(XRayInstance2D(1, (2,), (1,), (1,)))
    with pytest.raises(ValueError):
        kronecker_plethysm_triple(XRayInstance2D(1, (1, 1), (1, 1), (1, 1)))
    with pytest.raises(ValueError):
        kronecker_plethysm_triple(XRayInstance2D(0, (1,), (1,), (1,)))


@functools.lru_cache(maxsize=None)
def feasible_marginals(r, total):
    """(mu, nu, rho) of every gate-feasible range-r instance of the total."""
    comps = list(compositions_of(total, r + 1))
    by_coordinate_sum = defaultdict(list)
    for rho in comps:
        by_coordinate_sum[coordinate_sum(rho)].append(rho)
    return [
        (mu, nu, rho)
        for mu in comps
        for nu in comps
        for rho in by_coordinate_sum[r * total - coordinate_sum(mu) - coordinate_sum(nu)]
    ]


def all_feasible_instances(r, max_total):
    for tot in range(max_total + 1):
        for marginals in feasible_marginals(r, tot):
            yield XRayInstance2D(r, *marginals)


def test_end_to_end_kronecker_equality_range_one():
    for inst in all_feasible_instances(1, 3):
        trip = kronecker_plethysm_triple(inst)
        assert kronecker(trip.mu, trip.nu, trip.rho).value == count_2dxray(inst)
        assert character_kronecker(trip.mu, trip.nu, trip.rho) == count_2dxray(inst)


def test_triple_pads_with_the_simplex_marginals():
    # the padding is read off a closed form; check it against the point set
    for r in range(1, 7):
        pads = axis_marginals(full_simplex(r - 1))
        for inst in list(all_feasible_instances(r, 2))[:6]:
            trip = kronecker_plethysm_triple(inst)
            for got, marg, pad in zip((trip.mu, trip.nu, trip.rho), (inst.mu, inst.nu, inst.rho), pads):
                assert got == transpose(tuple(sorted(add(marg, pad), reverse=True))), (inst, r)


def test_symmetrize_parsimony_exhaustive_range_two():
    # stage 1 alone, exhaustively: totals <= 5 over the range-2 grid
    for inst in all_feasible_instances(2, 5):
        cnt = count_2dxray(inst)
        for kind in ("open", "closed"):
            sym = symmetrize_2d(inst, kind)
            assert count_sym_2dxray(sym.marginal, sym.grid_r, kind) == cnt, (inst, kind)


def test_chain_stage_parsimony_range_two_sample():
    rng = random.Random(17)
    pool = [i for i in all_feasible_instances(2, 5) if sum(i.mu) > 0]
    for inst in rng.sample(pool, 20):
        cnt = count_2dxray(inst)
        for kind in ("open", "closed"):
            sym = symmetrize_2d(inst, kind)
            assert count_sym_2dxray(sym.marginal, sym.grid_r, kind) == cnt
            emb = embed_pyramid_3d(sym.marginal, sym.grid_r, kind)
            assert count_point_sets(emb.marginal, kind) == cnt


def test_every_chain_stage_on_range_three():
    # all 528 feasible range-3 instances of total 1-3 through every stage,
    # each against the axis-marginal DP
    insts = [i for i in all_feasible_instances(3, 3) if sum(i.mu) > 0]
    assert len(insts) == 528
    for inst in insts:
        cnt = count_2dxray(inst)
        for kind in ("open", "closed"):
            sym = symmetrize_2d(inst, kind)
            assert count_sym_2dxray(sym.marginal, sym.grid_r, kind) == cnt, (inst, kind)
            emb = embed_pyramid_3d(sym.marginal, sym.grid_r, kind)
            assert is_promise_instance(emb.marginal, kind), (inst, kind)
            assert count_point_sets(emb.marginal, kind) == cnt, (inst, kind)
        trip = kronecker_plethysm_triple(inst)
        assert resolve_coefficient(trip.a_instance).value == cnt, inst
        assert resolve_coefficient(trip.b_instance).value == cnt, inst
        assert kronecker(trip.mu, trip.nu, trip.rho).value == cnt, inst


def test_chain_over_the_range_cap_builds_no_stage(monkeypatch):
    # the pyramid embedding is quadratic in 13r: a range over the cap is
    # refused before the first stage is built
    def no_stage(*args):
        raise AssertionError("the chain built a stage over its range cap")

    monkeypatch.setattr(reductions, "symmetrize_2d", no_stage)
    monkeypatch.setattr(reductions, "_embed_pyramid_3d", no_stage)
    r = REDUCE_R_MAX + 1
    with pytest.raises(SizeCapError, match=str(REDUCE_R_MAX)):
        kronecker_plethysm_triple(XRayInstance2D(r, (0,) * r + (1,), (1,), (1,)))


def test_chain_records_of_one_instance_are_equal():
    # the stages follow from the instance, so records compare and hash by it
    first, second = (kronecker_plethysm_triple(XRayInstance2D(1, (2, 1), (2, 1), (2, 1))) for _ in range(2))
    assert first is not second and first.sym2d is not second.sym2d
    assert first == second and hash(first) == hash(second)
    assert first != kronecker_plethysm_triple(EXAMPLE_1)


def test_each_chain_stage_is_built_once(monkeypatch):
    # every stage is one call of its builder per cone, however often read
    calls = Counter()
    for name in ("symmetrize_2d", "_embed_pyramid_3d", "_is_promise", "_promise_query"):
        def counted(*args, _real=getattr(reductions, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(reductions, name, counted)
    chain = kronecker_plethysm_triple(XRayInstance2D(1, (2, 1), (2, 1), (2, 1)))
    stages = ("sym2d", "promise3d", "promise", "queries", "triple")
    first = {name: getattr(chain, name) for name in stages}
    for _ in range(3):
        for name in stages:
            assert getattr(chain, name) is first[name], name
        assert (chain.mu, chain.nu, chain.rho) == first["triple"]
        assert (chain.a_instance, chain.b_instance) == (first["queries"]["open"], first["queries"]["closed"])
    assert calls == {"symmetrize_2d": 2, "_embed_pyramid_3d": 2, "_is_promise": 2, "_promise_query": 2}
    # the record holds its slots and nothing else: no stage cached besides
    assert type(chain).__slots__ == ("inst", *stages) and not hasattr(chain, "__dict__")


def test_chain_off_the_promise_maps_to_the_no_instance():
    # feasible, with count 0: its 15 points exceed the 14 of open layer 13
    inst = XRayInstance2D(1, (15,), (15,), (0, 15))
    assert inst.passes_gate() and count_2dxray(inst) == 0
    chain = kronecker_plethysm_triple(inst)
    assert chain.promise == {"open": False, "closed": True}
    assert chain.a_instance == chain.b_instance == TRIVIAL_NO_INSTANCE
    assert resolve_coefficient(chain.a_instance).value == resolve_coefficient(chain.b_instance).value == 0


@pytest.mark.parametrize("r, total", [(r, t) for r in (1, 2, 3) for t in (4, 5, 6)] + [(4, t) for t in (1, 2, 3, 4)])
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_every_chain_stage_preserves_the_count(r, total, data):
    # past the exhaustive families: each stage read off the chain record
    # counts the instance's solutions
    inst = XRayInstance2D(r, *data.draw(st.sampled_from(feasible_marginals(r, total))))
    want = count_2dxray(inst)
    chain = kronecker_plethysm_triple(inst)
    for kind, sym in chain.sym2d.items():
        assert count_sym_2dxray(sym.marginal, sym.grid_r, kind) == want, kind
        assert chain.promise[kind], kind
        assert count_point_sets(chain.promise3d[kind].marginal, kind) == want, kind
        assert resolve_coefficient(chain.queries[kind]).value == want, kind
    assert kronecker(chain.mu, chain.nu, chain.rho).value == want


@st.composite
def _partitions_of_multiples_of_three(draw):
    """(n, lam) with lam |- 3n and n <= 6."""
    n = draw(st.integers(1, 6))
    return n, draw(st.sampled_from(list(partitions_of(3 * n))))


@settings(max_examples=150, deadline=None, database=None)
@given(case=_partitions_of_multiples_of_three())
def test_bounds_sandwich(case):
    # pyramids <= coefficient <= point sets: a on the open cone at lam', b on
    # the closed cone at lam
    n, lam = case
    for variant in ("a", "b"):
        marg, kind = _family_cone(lam, variant)
        # general_plethysm, not plethysm_coeff, which answers a promise shape
        # by the point-set count the bound is checked against
        value = general_plethysm(lam, outer_shape(n, variant), (3,)).value
        assert count_pyramids(marg, kind) <= value <= count_point_sets(marg, kind), (lam, variant)


def test_stage_three_oracle_equality_small_promise():
    # the tomography count of a small promise instance equals the oracle
    # value of the coefficient the reduction outputs, and plethysm_coeff
    # answers that coefficient by the count
    checked = Counter()
    for total in (3, 6, 9, 12, 15, 18):
        for lam in partitions_of(total):
            for kind in ("open", "closed"):
                if not is_promise_instance(lam, kind):
                    continue
                inst = promise_to_plethysm(lam, kind)
                oracle = general_plethysm(inst.lam, outer_shape(inst.n, inst.variant), (inst.m,)).value
                count = count_point_sets(lam, kind)
                assert oracle == count, (lam, kind)
                assert plethysm_coeff(inst.lam, inst.n, inst.m, inst.variant) == CoefficientResult(count, "promise-pyramid-count")
                checked[kind] += 1
    assert checked.total() >= 30 and all(checked[kind] for kind in ("open", "closed")), checked
