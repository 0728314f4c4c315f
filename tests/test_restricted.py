import itertools
import re
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethtomo.coefficients import general_plethysm, weight_multiplicity
from plethtomo.partitions import add, canonical, compositions_of, is_partition, partitions_of
from plethtomo import restricted
from plethtomo.restricted import (
    PsiDecomposition,
    _psi_decomposition,
    count_cone_ssyt,
    psi_decompose,
    psi_membership,
    psi_splits,
    pyramid_size,
)
from plethtomo.tableaux import count_weighted_ssyt, ssyt_weights
from plethtomo.tomography import _candidates, complete_pyramid, coordinate_sum, count_point_sets, count_pyramids, sum_marginal
from restricted_oracle import filtered_psi_splits
from tableau_oracles import cone_alphabet, enumerate_cone_ssyt, tableau_layers_check


def test_pyramid_size():
    assert [pyramid_size(r, "closed") for r in range(-1, 6)] == [0, 1, 2, 4, 7, 11, 16]
    assert [pyramid_size(r, "open") for r in range(-1, 7)] == [0, 0, 0, 0, 1, 2, 4, 7]
    for kind in ("open", "closed"):
        for r in range(8):
            assert pyramid_size(r, kind) == len(complete_pyramid(r, kind))


DECOMPOSE_CASES = [
    # (mu, variant, thresholds, pyramid_parts, layer_parts)
    ((1,), "sym", (1,), (1,), (0,)),
    ((1, 1), "sym", (2,), (2,), (0,)),
    ((1, 1, 1), "sym", (2,), (2,), (1,)),
    ((2, 2), "sym", (2, 2), (2, 2), (0, 0)),
    ((2, 1), "sym", (2, 1), (2, 1), (0, 0)),
    ((1,), "wedge", (4,), (1,), (0,)),
    ((1, 1, 1), "wedge", (5,), (2,), (1,)),
]


@pytest.mark.parametrize("mu,variant,thresholds,pyr,layer", DECOMPOSE_CASES)
def test_psi_decompose(mu, variant, thresholds, pyr, layer):
    d = psi_decompose(mu, variant)
    assert d.thresholds == thresholds
    assert d.pyramid_parts == pyr
    assert d.layer_parts == layer
    # the split reconstructs the shape size
    assert sum(d.pyramid_parts) + sum(d.layer_parts) == sum(mu)
    # minimality: each column fits strictly below its threshold's pyramid
    for n_j, r_j in zip(d.column_heights, d.thresholds):
        assert n_j < pyramid_size(r_j, d.kind)
        assert n_j >= pyramid_size(r_j - 1, d.kind)


def test_psi_membership_phi_case():
    lam = add(sum_marginal(complete_pyramid(1, "closed")), (2, 0, 1))
    assert psi_membership((1, 1, 1), (3,), lam)
    # wrong layer coordinate sum
    assert not psi_membership((1, 1, 1), (3,), add(sum_marginal(complete_pyramid(1, "closed")), (0, 0, 3)))
    # two-column instance, trivially split
    lam2 = add(sum_marginal(complete_pyramid(1, "closed")), sum_marginal(complete_pyramid(1, "closed")))
    assert psi_membership((2, 2), (3,), lam2)


def test_psi_membership_rejects_other_inner_shapes():
    with pytest.raises(ValueError):
        psi_membership((1,), (2,), (2,))


def test_count_cone_ssyt_single_box():
    assert count_cone_ssyt((1,), (3,), "sym") == 1


def test_count_cone_ssyt_rejects_non_members():
    with pytest.raises(ValueError):
        count_cone_ssyt((1,), (0, 0, 3), "sym")
    with pytest.raises(ValueError):
        count_cone_ssyt((1,), (3,), "sym", tiebreak="weird")


def test_cone_alphabet_orders():
    lex = cone_alphabet("closed", 3, "lex")
    rev = cone_alphabet("closed", 3, "revlex")
    assert set(lex) == set(rev)
    assert lex[0] == (0, 0, 0)
    sums = [p[0] + p[1] + p[2] for p in lex]
    assert sums == sorted(sums)
    with pytest.raises(ValueError):
        cone_alphabet("closed", 3, "weird")


def layer_vectors(r, n_hat):
    """Vectors on [0, r] of size 3*n_hat and coordinate sum n_hat*r: the
    marginals of n_hat points on layer r, and more.  Ascending order."""
    return sorted(v for v in compositions_of(3 * n_hat, r + 1) if coordinate_sum(v) == n_hat * r)


def psi_instances(mu, variant, cap=None):
    """All class members lam buildable from per-column layer vectors."""
    kind = "closed" if variant == "sym" else "open"
    d = psi_decompose(mu, variant)
    base = ()
    for r_j in d.thresholds:
        base = add(base, sum_marginal(complete_pyramid(r_j - 1, kind)))
    options = [layer_vectors(r_j, n_hat) for r_j, n_hat in zip(d.thresholds, d.layer_parts)]
    seen = set()
    for combo in itertools.product(*options):
        lam = base
        for vec in combo:
            lam = add(lam, vec)
        if lam not in seen and is_partition(lam):
            seen.add(lam)
            yield lam


def brute_force_splits(mu, variant):
    """Every split of every lam for mu, from the whole product of per-column
    layer vectors, with no residual bound: lam -> sorted splits."""
    kind = "closed" if variant == "sym" else "open"
    d = psi_decompose(mu, variant)
    base = ()
    for r_j in d.thresholds:
        base = add(base, sum_marginal(complete_pyramid(r_j - 1, kind)))
    options = [layer_vectors(r_j, n_hat) for r_j, n_hat in zip(d.thresholds, d.layer_parts)]
    found = {}
    for combo in itertools.product(*options):
        lam = base
        for vec in combo:
            lam = add(lam, vec)
        found.setdefault(lam, []).append(tuple(add((), vec) for vec in combo))
    return {lam: sorted(splits) for lam, splits in found.items()}


def test_psi_splits_match_the_brute_force_product():
    # every (mu, nu, lam) with |mu| <= 6 and lam |- 3|mu| of at most 14 parts
    checked = nonempty = 0
    for variant, nu in (("sym", (3,)), ("wedge", (1, 1, 1))):
        for size in range(1, 7):
            for mu in partitions_of(size):
                want = brute_force_splits(mu, variant)
                for lam in partitions_of(3 * size, max_parts=14):
                    got = sorted(psi_splits(mu, nu, lam))
                    assert got == want.get(lam, []), (variant, mu, lam)
                    checked += 1
                    nonempty += bool(got)
    assert (checked, nonempty) == (11766, 90)


def test_psi_splits_of_1200_columns():
    # 1200 columns of height 1, each the origin alone; a recursion frame per
    # column ran out of interpreter stack
    assert psi_splits((1200,), (3,), (3600,)) == [((),) * 1200]
    assert psi_membership((1200,), (1, 1, 1), (1200, 1200, 1200))


def test_unknown_variant_is_a_value_error():
    with pytest.raises(ValueError, match="'x'"):
        psi_decompose((1,), "x")
    # a misspelled variant must not fall through to the other cone
    with pytest.raises(ValueError, match="'Sym'"):
        count_cone_ssyt((1,), (3,), "Sym")
    with pytest.raises(ValueError):
        PsiDecomposition("x", (1,), (1,), (1,), (0,)).kind


def test_headline_equality_and_tiebreak_invariance():
    # the tableau count equals the plethysm coefficient on every generated
    # unique-split instance, under both alphabet tiebreaks
    checked = 0
    for variant, sizes in (("sym", (1, 2, 3, 4)), ("wedge", (1, 2, 3, 4))):
        nu = (3,) if variant == "sym" else (1, 1, 1)
        for musize in sizes:
            for mu in partitions_of(musize):
                for lam in psi_instances(mu, variant):
                    if len(psi_splits(mu, nu, lam)) != 1:
                        continue
                    count = count_cone_ssyt(mu, lam, variant)
                    assert count == count_cone_ssyt(mu, lam, variant, tiebreak="revlex")
                    assert count == general_plethysm(lam, mu, nu).value, (variant, mu, lam)
                    checked += 1
    assert checked >= 20


def test_count_matches_the_enumerated_tableaux():
    # every class member, split uniquely or not, with |mu| <= 7; the
    # enumerator fills real tableaux, so its agreement under both orders
    # checks that the count does not depend on the tiebreak
    checked = 0
    for variant in ("sym", "wedge"):
        for musize in range(1, 8):
            for mu in partitions_of(musize):
                for lam in psi_instances(mu, variant):
                    want = sum(1 for _ in enumerate_cone_ssyt(mu, lam, variant))
                    assert want == sum(1 for _ in enumerate_cone_ssyt(mu, lam, variant, "revlex")), (variant, mu, lam)
                    assert count_cone_ssyt(mu, lam, variant) == want, (variant, mu, lam)
                    assert count_cone_ssyt(mu, lam, variant, tiebreak="revlex") == want, (variant, mu, lam)
                    checked += 1
    assert checked == 155


def _strip_count(mu, lam, kind):
    """The strip DP over one letter per cone point that fits under lam;
    count_cone_ssyt runs it, through weight_multiplicity, over the same
    letters on every shape but a single column."""
    letters = [tuple(p.count(i) for i in range(len(lam))) for p in _candidates(lam, kind)]
    return count_weighted_ssyt(mu, letters, lam)


def test_single_column_matches_pyramid_count():
    # both the point-set route count_cone_ssyt takes on (1^n) and the strip
    # DP it takes on taller multi-column shapes
    for n in range(1, 13):
        mu = (1,) * n
        for lam in psi_instances(mu, "sym"):
            want = count_pyramids(lam, "closed")
            assert count_cone_ssyt(mu, lam, "sym") == want, (n, lam)
            assert _strip_count(mu, lam, "closed") == want, (n, lam)


def test_one_column_strip_count_is_the_point_set_count():
    # every lam |- 3n, n <= 4, both cones: the strip DP over cone-point
    # letters on (1^n), which single columns no longer take, equals the
    # point-set count they take instead
    checked = 0
    for n in range(1, 5):
        for lam in partitions_of(3 * n):
            for variant, kind in (("sym", "closed"), ("wedge", "open")):
                want = _strip_count((1,) * n, lam, kind)
                assert count_point_sets(lam, kind) == want, (lam, kind)
                if psi_membership((1,) * n, (3,) if variant == "sym" else (1, 1, 1), lam):
                    assert count_cone_ssyt((1,) * n, lam, variant) == want, (lam, variant)
                checked += 1
    assert checked == 242


def hundred_box_instances():
    """The closed pyramid below layer 12 (83 points) and 17 of the 19
    points of layer 12, in two ways; each has one solution."""
    top = sorted(p for p in complete_pyramid(12, "closed") if sum(p) == 12)
    return [sum_marginal(complete_pyramid(11, "closed") | set(chosen)) for chosen in (top[:17], top[2:])]


def no_strips(*args):
    raise AssertionError("a single column took the strip DP")


def test_hundred_box_column_is_counted_as_point_sets(monkeypatch):
    # the strip DP ran past 15 s on these
    monkeypatch.setattr("plethtomo.coefficients.count_weighted_ssyt", no_strips)
    for lam in hundred_box_instances():
        t0 = time.perf_counter()
        assert count_cone_ssyt((1,) * 100, lam, "sym") == 1, lam
        assert time.perf_counter() - t0 < 1.0, lam
        assert count_pyramids(lam, "closed") == 1


def test_hundred_box_weight_space_is_counted_as_point_sets(monkeypatch):
    # the same weight spaces of wedge^100 Sym^3, asked of the plethysm side
    monkeypatch.setattr("plethtomo.coefficients.count_weighted_ssyt", no_strips)
    for lam in hundred_box_instances():
        t0 = time.perf_counter()
        assert weight_multiplicity((1,) * 100, (3,), lam) == 1, lam
        assert time.perf_counter() - t0 < 1.0, lam


def test_cone_tableau_count_is_the_weight_multiplicity():
    # every class member with |mu| <= 4: the cone points that fit under lam
    # are, letter for letter, the inner tableaux' weights under lam, so the
    # cone-tableau count is the weight multiplicity q_lam(mu, nu)
    checked = 0
    for variant, nu, kind in (("sym", (3,), "closed"), ("wedge", (1, 1, 1), "open")):
        for musize in range(1, 5):
            for mu in partitions_of(musize):
                for lam in psi_instances(mu, variant):
                    letters = [tuple(p.count(i) for i in range(len(lam))) for p in _candidates(lam, kind)]
                    assert sorted(letters) == sorted(ssyt_weights(nu, len(lam), lam)), (variant, mu, lam)
                    assert count_cone_ssyt(mu, lam, variant) == weight_multiplicity(mu, nu, lam), (variant, mu, lam)
                    checked += 1
    assert checked == 26


def test_twenty_box_column_counts_in_under_a_second():
    # (1^20) has 201 class members; every tenth is counted and checked
    mu = (1,) * 20
    members = list(psi_instances(mu, "sym"))
    assert len(members) == 201
    for lam in members[::10]:
        want = count_pyramids(lam, "closed")
        for count_column in (partial(count_cone_ssyt, variant="sym"), partial(_strip_count, kind="closed")):
            t0 = time.perf_counter()
            count = count_column(mu, lam)
            assert time.perf_counter() - t0 < 1.0, (lam, count_column)
            assert count == want, (lam, count_column)


def test_tableau_layers_structure():
    mu = (1, 1, 1)
    d = psi_decompose(mu, "sym")
    lam = add(sum_marginal(complete_pyramid(1, "closed")), (2, 0, 1))
    tableaux = list(enumerate_cone_ssyt(mu, lam, "sym"))
    assert len(tableaux) == count_cone_ssyt(mu, lam, "sym")
    for t in tableaux:
        assert tableau_layers_check(t, d)
    # a filling that breaks the forced pyramid part fails the check
    bad = (((1, 0, 0),), ((0, 0, 0),), ((2, 0, 0),))
    assert not tableau_layers_check(bad, d)
    # one that puts a wrong-layer point in the free part fails too
    bad2 = (((0, 0, 0),), ((1, 0, 0),), ((1, 1, 1),))
    assert not tableau_layers_check(bad2, d)


def test_enumerated_tableaux_are_semistandard():
    mu = (2, 1)
    lam = add(sum_marginal(complete_pyramid(1, "closed")), sum_marginal(complete_pyramid(0, "closed")))
    order = {p: i for i, p in enumerate(cone_alphabet("closed", len(lam), "lex"))}
    for t in enumerate_cone_ssyt(mu, lam, "sym"):
        for row in t:
            assert all(order[row[i]] <= order[row[i + 1]] for i in range(len(row) - 1))
        for r in range(1, len(t)):
            for c in range(len(t[r])):
                assert order[t[r][c]] > order[t[r - 1][c]]


INNER = {"sym": (3,), "wedge": (1, 1, 1)}
SMALL_MU = [mu for size in range(1, 6) for mu in partitions_of(size)]


def check_against_the_filter_oracle(mu, variant, lam):
    """psi_splits lists the oracle's splits in its order, psi_membership is
    their truth, and count_cone_ssyt refuses a non-member by name."""
    nu = INNER[variant]
    want = filtered_psi_splits(mu, nu, lam)
    assert psi_splits(mu, nu, lam) == want, (mu, nu, lam)
    assert psi_membership(mu, nu, lam) == bool(want), (mu, nu, lam)
    if not want:
        message = f"({mu}, {nu}, {canonical(lam)}) is not a restricted instance"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            count_cone_ssyt(mu, lam, variant)
    return bool(want)


def test_splits_and_membership_match_the_filter_oracle():
    # every mu |- <= 5, both inner shapes and every lam |- 3|mu|
    checked = members = 0
    for variant in INNER:
        for mu in SMALL_MU:
            for lam in partitions_of(3 * sum(mu)):
                members += check_against_the_filter_oracle(mu, variant, lam)
                checked += 1
    assert (checked, members) == (3464, 48)


@settings(max_examples=300, deadline=None, database=None)
@given(
    mu=st.sampled_from(SMALL_MU),
    variant=st.sampled_from(sorted(INNER)),
    lam=st.lists(st.integers(0, 9), max_size=9),
)
def test_non_partitions_and_wrong_sizes_match_the_filter_oracle(mu, variant, lam):
    # drawn compositions are mostly not partitions of 3|mu|; the canonical
    # form drops trailing zeros, as the library's message does
    check_against_the_filter_oracle(mu, variant, tuple(lam))


def test_layer_vectors_are_the_filtered_compositions():
    # the generator bounded by both sums lists exactly the compositions of
    # 3 n_hat under the residual whose coordinate sum is n_hat r, in order
    for r in range(0, 5):
        for n_hat in range(0, 4):
            for residual in itertools.product(range(4), repeat=r + 1):
                want = [vec for vec in compositions_of(3 * n_hat, r + 1, residual) if coordinate_sum(vec) == n_hat * r]
                assert list(restricted._layer_vectors(n_hat, r, residual)) == want, (n_hat, r, residual)


def test_the_last_column_walks_no_layer_vectors(monkeypatch):
    # the last column's only layer vector is the whole residual, so a
    # one-column mu is decided without listing any, and still matches the
    # oracle on every lam |- 9
    walked = []
    real = restricted._layer_vectors

    def counted(*args):
        walked.append(args)
        return real(*args)

    monkeypatch.setattr(restricted, "_layer_vectors", counted)
    members = 0
    for lam in partitions_of(9):
        want = filtered_psi_splits((1, 1, 1), (3,), lam)
        assert psi_splits((1, 1, 1), (3,), lam) == want, lam
        assert psi_membership((1, 1, 1), (3,), lam) == bool(want), lam
        members += bool(want)
    assert members and walked == []
    # a two-column mu walks its first column only: two pyramids of level
    # <= 1, then (2, 0, 1) on layer 2 of the first column and nothing more
    assert psi_splits((2, 2, 1), (3,), (12, 2, 1)) == filtered_psi_splits((2, 2, 1), (3,), (12, 2, 1)) == [((2, 0, 1), ())]
    assert psi_membership((2, 2, 1), (3,), (12, 2, 1))
    assert {args[:2] for args in walked} == {(1, 2)}


def test_the_empty_outer_shape():
    # mu = () has no columns: lam = () is its one member, with the empty split
    for nu in ((3,), (1, 1, 1)):
        assert psi_membership((), nu, ()) and psi_splits((), nu, ()) == [()]
        assert not psi_membership((), nu, (3,)) and psi_splits((), nu, (3,)) == []
        assert filtered_psi_splits((), nu, ()) == [()] and filtered_psi_splits((), nu, (3,)) == []


def test_a_warm_call_builds_no_decomposition(monkeypatch):
    built = []
    real = restricted.PsiDecomposition

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(restricted, "PsiDecomposition", counted)
    _psi_decomposition.cache_clear()
    mu, lam = (1, 1, 1), add(sum_marginal(complete_pyramid(1, "closed")), (2, 0, 1))
    first = count_cone_ssyt(mu, lam, "sym")
    assert len(built) == 1
    assert count_cone_ssyt(mu, lam, "sym", tiebreak="revlex") == first
    assert psi_splits(list(mu), (3,), lam) and psi_decompose(mu, "sym") is psi_decompose([1, 1, 1], "sym")
    assert len(built) == 1
    # the memo holds the record a fresh build gives
    assert psi_decompose(mu, "sym") == _psi_decomposition.__wrapped__(mu, "sym")
