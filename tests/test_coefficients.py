import itertools
import math
import re
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jacobi_trudi_oracle import walked_jacobi_trudi_terms
from test_characters import pairs_of_size
from test_tableaux import filled_ssyt_weights, unpruned_weighted_count

from plethtomo import coefficients
from plethtomo.characters import kronecker as character_kronecker
from plethtomo.characters import kronecker_shapes, plethysm_schur_multiplicity, plethysm_schur_table
from plethtomo.coefficients import (
    JACOBI_TRUDI_MAX_ROWS,
    JACOBI_TRUDI_ROWS_CAP,
    JT_TERMS_MAXSIZE,
    KRON_N_MAX,
    POWER_SUM_N_MAX,
    CoefficientResult,
    _family_cone,
    _family_coords,
    _jacobi_trudi_terms,
    check_duality,
    dim_plethysm_module,
    general_plethysm,
    jacobi_trudi_coeff,
    kronecker,
    m2_closed_form,
    outer_shape,
    plethysm_coeff,
    weight_multiplicity,
)
from plethtomo.partitions import canonical, partitions_of, transpose
from plethtomo.sympoly import decompose_schur, plethysm_poly
from plethtomo.tableaux import count_weighted_ssyt, dim_weyl, kostka, ssyt_weights
from plethtomo.tomography import SizeCapError, _is_promise, _letter_count, beta, coordinate_sum, count_point_sets


def test_weight_multiplicity_examples():
    assert weight_multiplicity((1,), (3,), (3,)) == 1
    assert weight_multiplicity((2,), (2,), (2, 2)) == 2
    # frozen from brute enumeration of 2-subsets of cubic monomials in 4 vars
    assert weight_multiplicity((1, 1), (3,), (2, 2, 1, 1)) == 5


def test_weight_multiplicity_brute_force_cross_check():
    mons = list(itertools.combinations_with_replacement(range(4), 3))
    for kappa in [(2, 2, 1, 1), (3, 3), (3, 1, 1, 1), (2, 2, 2)]:
        brute = 0
        for a, b in itertools.combinations(mons, 2):
            w = [0] * 4
            for v in a + b:
                w[v] += 1
            if tuple(w) == kappa + (0,) * (4 - len(kappa)):
                brute += 1
        assert weight_multiplicity((1, 1), (3,), kappa) == brute


LETTER_PAIRS = [(mu, nu) for a in range(2, 5) for b in range(2, 8 // a + 1) for mu in partitions_of(a) for nu in partitions_of(b)]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_weight_multiplicity_matches_tableau_letter_oracle(data):
    # a one-box mu or nu takes a Kostka shortcut, not the letters
    mu, nu = data.draw(st.sampled_from(LETTER_PAIRS))
    a, b = sum(mu), sum(nu)
    k = data.draw(st.integers(1, a * b))
    kappa = tuple(data.draw(st.permutations(data.draw(st.sampled_from(list(partitions_of(a * b, max_parts=k)))))))
    kappa += (0,) * data.draw(st.integers(0, 2))
    # the oracle fills nu-tableaux box by box and runs the strip DP unpruned
    want = unpruned_weighted_count(mu, filled_ssyt_weights(nu, len(kappa), bound=kappa), kappa)
    coefficients._q_cache.clear()
    _jacobi_trudi_terms.cache_clear()
    kostka.cache_clear()
    assert weight_multiplicity(mu, nu, kappa) == want


@pytest.mark.parametrize("nu", [(3,), (1, 1, 1)])
def test_single_column_weight_spaces_are_point_set_counts(nu):
    # every kappa |- 3n, n <= 5: the point-set count that (1^n) takes
    # against the strip DP over the inner tableaux' weights, kept as oracle
    checked = 0
    for n in range(1, 6):
        for kappa in partitions_of(3 * n):
            want = count_weighted_ssyt((1,) * n, ssyt_weights(nu, len(kappa), kappa), kappa)
            assert weight_multiplicity((1,) * n, nu, kappa) == want, (nu, kappa)
            checked += 1
    assert checked == 297


@pytest.mark.parametrize(
    "m, size, repeat_points, repeat_letters",
    [(m, size, *flags) for m, size in ((2, 16), (3, 15), (4, 12)) for flags in itertools.product((True, False), repeat=2) if m != 3 or flags[0]],
)
def test_letter_elimination_matches_the_strip_dp(m, size, repeat_points, repeat_letters):
    # every kappa |- nm with nm <= size, for h_n[h_m], h_n[e_m], e_n[h_m]
    # and e_n[e_m]: the letter count and weight_multiplicity against the
    # strip DP over the inner tableaux' weights, kept as oracle.  The m = 3
    # sets are the single-column test above and the letter-counter tests of
    # test_tomography
    for n in range(1, size // m + 1):
        # (n) is a multiset of points, (1^n) a set; (m) makes each point an
        # m-multiset of letters, (1^m) an m-subset
        mu, nu = ((n,) if repeat_points else (1,) * n), ((m,) if repeat_letters else (1,) * m)
        for kappa in partitions_of(n * m):
            want = count_weighted_ssyt(mu, ssyt_weights(nu, len(kappa), kappa), kappa)
            assert _letter_count(kappa, (m, repeat_letters, repeat_points)) == want, (mu, nu, kappa)
            assert weight_multiplicity(mu, nu, kappa) == want, (mu, nu, kappa)


def test_weight_multiplicity_routes_by_family(monkeypatch):
    def banned(*args):
        raise AssertionError("the query took another route")

    def sweep(pairs):
        for mu, nu in pairs:
            for kappa in partitions_of(sum(mu) * sum(nu)):
                coefficients._q_cache.clear()
                weight_multiplicity(mu, nu, kappa)

    # one-row or one-column outer and inner shapes count letters ...
    with monkeypatch.context() as patch:
        patch.setattr(coefficients, "count_weighted_ssyt", banned)
        patch.setattr(coefficients, "count_point_sets", banned)
        sweep([((4,), (3,)), ((4,), (1, 1, 1)), ((3,), (4,)), ((1, 1, 1), (4,)), ((1, 1, 1), (1, 1, 1, 1)), ((1, 1, 1, 1), (2,))])
    # ... but the m = 3 sets keep count_point_sets' dispatch (the level
    # engine up to excess 2n, letters above) ...
    with monkeypatch.context() as patch:
        patch.setattr(coefficients, "count_weighted_ssyt", banned)
        patch.setattr(coefficients, "_letter_count", banned)
        sweep([((1, 1, 1, 1), (3,)), ((1, 1, 1, 1), (1, 1, 1))])
    # ... and every other (mu, nu) keeps the strip DP
    with monkeypatch.context() as patch:
        patch.setattr(coefficients, "_letter_count", banned)
        patch.setattr(coefficients, "count_point_sets", banned)
        sweep([((2, 1), (3,)), ((2,), (2, 1)), ((2, 1), (1, 1))])


def test_one_row_outer_weight_space_over_many_letters():
    # 21 letters of degree 1: a multiset of seven 3-multisets using each
    # once is a set partition into seven blocks of 3.  The strip DP took
    # 19.9 s on it
    t0 = time.perf_counter()
    got = weight_multiplicity((7,), (3,), (1,) * 21)
    assert time.perf_counter() - t0 < 0.1
    assert got == math.factorial(21) // (math.factorial(3) ** 7 * math.factorial(7))


def test_weight_multiplicity_symmetric_in_kappa():
    assert weight_multiplicity((2,), (2,), (1, 2, 1)) == weight_multiplicity((2,), (2,), (2, 1, 1))


def test_weight_multiplicity_extra_variables_do_not_matter():
    # trailing zero entries (variables of exponent 0) never change a weight
    # multiplicity, which is why it takes no variable count
    assert weight_multiplicity((2,), (3,), (4, 2)) == weight_multiplicity((2,), (3,), (4, 2, 0, 0))
    assert weight_multiplicity((1, 1), (3,), (3, 3)) == weight_multiplicity((1, 1), (3,), (3, 3, 0, 0, 0, 0, 0, 0, 0))


def test_one_box_weight_spaces_are_kostka_numbers():
    # s_mu[s_1] = s_1[s_mu] = s_mu: the strip DP over the one-box alphabet
    # (unit vectors) and over the single letters of one nu-tableau each
    # gives the Kostka numbers
    for n in range(1, 7):
        for shape in partitions_of(n):
            for kappa in partitions_of(n):
                want = kostka(shape, kappa)
                assert weight_multiplicity(shape, (1,), kappa) == want, (shape, kappa)
                assert weight_multiplicity((1,), shape, kappa) == want, (shape, kappa)


def test_weight_multiplicity_rejects_bad_sizes():
    with pytest.raises(ValueError):
        weight_multiplicity((2,), (2,), (3,))


JACOBI_TRUDI_EXAMPLES = [
    (((4,), (2,), (2,)), 1),
    (((3, 1), (2,), (2,)), 0),
    (((4, 2), (2,), (3,)), 1),
    (((2, 2), (2,), (2,)), 1),
    (((6,), (2,), (3,)), 1),
    (((5, 1), (2,), (3,)), 0),
]


@pytest.mark.parametrize("args,expected", JACOBI_TRUDI_EXAMPLES)
def test_jacobi_trudi_examples(args, expected):
    assert jacobi_trudi_coeff(*args) == expected


def test_jacobi_trudi_rejects_a_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        jacobi_trudi_coeff((2,), (1,), (1,))


def test_general_plethysm_rejects_a_negative_multiplicity(monkeypatch):
    # a signed sum that ends below 0 means the inputs were not characters;
    # checked at lam and at lam' (a one-box or one-row query answers before
    # the sum is taken)
    monkeypatch.setattr(coefficients, "_jacobi_trudi", lambda *args: -1)
    for lam, mu, nu in (((4, 2), (2,), (3,)), ((2, 2, 1, 1), (2, 1), (1, 1))):
        with pytest.raises(ArithmeticError, match=re.escape(f"negative multiplicity -1 at {lam};")):
            general_plethysm(lam, mu, nu)


def test_jacobi_trudi_matches_peeling_small():
    for mu in partitions_of(2):
        for nu in partitions_of(3):
            table = dict(decompose_schur(plethysm_poly(mu, nu, 6)))
            for lam in partitions_of(6):
                assert jacobi_trudi_coeff(lam, mu, nu) == table.get(lam, 0)


SHORT_SHAPES = [lam for n in range(1, 13) for lam in partitions_of(n) if len(lam) <= JACOBI_TRUDI_MAX_ROWS]


def test_jacobi_trudi_terms_match_permutation_walk():
    # every shape the acceptance sweep sends down the Jacobi-Trudi route;
    # there are more of them than the table holds, so it also fills up
    _jacobi_trudi_terms.cache_clear()
    for lam in SHORT_SHAPES:
        terms = _jacobi_trudi_terms(lam)
        assert len(dict(terms)) == len(terms)
        assert dict(terms) == walked_jacobi_trudi_terms(lam), lam
    info = _jacobi_trudi_terms.cache_info()
    assert info.misses == len(SHORT_SHAPES) == 264 > JT_TERMS_MAXSIZE
    assert info.currsize == info.maxsize == JT_TERMS_MAXSIZE


def test_jacobi_trudi_ignores_trailing_zeros():
    for a in range(1, 4):
        for b in range(1, 7 // a + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(b):
                    for lam in partitions_of(a * b):
                        want = jacobi_trudi_coeff(lam, mu, nu)
                        assert jacobi_trudi_coeff(lam + (0,), mu, nu) == want
                        assert jacobi_trudi_coeff(lam + (0, 0, 0), mu + (0,), nu + (0, 0)) == want


@st.composite
def tall_and_near(draw):
    """A partition with 10-20 rows, parts at most 3 and at most 26 boxes,
    and the partition made from it by moving one box (possibly back to its
    own row)."""
    rows = draw(st.integers(10, 20))
    threes = draw(st.integers(0, 1))
    twos = draw(st.integers(0, min(rows - threes, 26 - rows - 2 * threes)))
    lam = (3,) * threes + (2,) * twos + (1,) * (rows - threes - twos)
    moved = list(lam) + [0]
    moved[draw(st.integers(0, rows - 1))] -= 1
    moved[draw(st.integers(0, rows))] += 1
    return lam, canonical(sorted(moved, reverse=True))


@settings(max_examples=30, deadline=None, database=None)
@given(pair=tall_and_near())
@example(pair=((1,) * 20, (1,) * 20))
@example(pair=((1,) * 20, (2,) + (1,) * 18))
@example(pair=((2,) * 10 + (1,) * 6, (2,) * 10 + (1,) * 6))
@example(pair=((2,) * 10 + (1,) * 6, (3,) + (2,) * 9 + (1,) * 5))
def test_jacobi_trudi_tall_shapes_through_one_box(pair):
    # s_mu[s_1] = s_mu and s_1[s_nu] = s_nu, so both coefficients are
    # [lam == mu]: the signed terms of a 10-20 row sum cancel to it
    lam, mu = pair
    want = int(lam == mu)
    assert jacobi_trudi_coeff(lam, mu, (1,)) == want
    assert jacobi_trudi_coeff(lam, (1,), mu) == want
    # jacobi_trudi_coeff answers one-box shapes directly, so the sum itself
    # is checked through the term table
    assert term_table_sum(lam, mu, (1,)) == want
    assert term_table_sum(lam, (1,), mu) == want


def term_table_sum(lam, mu, nu):
    """The Jacobi-Trudi sum of lam at (mu, nu) with no shortcut before the
    term table."""
    return sum(c * coefficients._weight_multiplicity_sorted(mu, nu, key) for key, c in _jacobi_trudi_terms(lam))


def test_one_box_shapes_skip_the_term_table():
    # s_mu[s_1] = s_1[s_mu] = s_mu; the term tables of (3^20) and (2^20)
    # have 659 817 and 32 625 terms, and these calls once took 54 s and 5.6 s
    misses = _jacobi_trudi_terms.cache_info().misses
    start = time.perf_counter()
    assert jacobi_trudi_coeff((3,) * 20, (3,) * 20, (1,)) == 1
    assert jacobi_trudi_coeff((2,) * 20, (37, 3), (1,)) == 0
    assert jacobi_trudi_coeff((2,) * 20, (1,), (2,) * 20) == 1
    assert time.perf_counter() - start < 1.0
    assert _jacobi_trudi_terms.cache_info().misses == misses


def test_tall_term_tables_are_refused_before_they_are_built():
    # inside the support box, past the one-box answers: (3^20) took 38 s
    # to tabulate, the staircase of 12 rows 5.6 s
    assert JACOBI_TRUDI_MAX_ROWS < JACOBI_TRUDI_ROWS_CAP
    misses = _jacobi_trudi_terms.cache_info().misses
    for lam, mu, nu in (((3,) * 20, (1,) * 20, (3,)), (tuple(range(12, 0, -1)), (13,), (6,)), ((2,) * 11, (1,) * 11, (2,))):
        start = time.perf_counter()
        with pytest.raises(SizeCapError, match="over the cap of"):
            jacobi_trudi_coeff(lam, mu, nu)
        assert time.perf_counter() - start < 0.1
    assert _jacobi_trudi_terms.cache_info().misses == misses
    # at the cap the table is built
    assert jacobi_trudi_coeff((1,) * JACOBI_TRUDI_ROWS_CAP, (1, 1), (1,) * 5) == 1


def test_one_box_shortcut_matches_power_sum_tables():
    for n in range(1, 13):
        shapes = list(partitions_of(n))
        for mu in shapes:
            outer = plethysm_schur_table(mu, (1,))
            inner = plethysm_schur_table((1,), mu)
            assert outer == inner == {mu: 1}
            for lam in shapes:
                assert jacobi_trudi_coeff(lam, mu, (1,)) == jacobi_trudi_coeff(lam, (1,), mu) == outer.get(lam, 0)


def outside_the_box(lam, mu, nu):
    """lam has more than |mu|*len(nu) rows or more than |mu|*nu_1 columns,
    so it is outside the Littlewood-Richardson support of s_nu^|mu|."""
    return len(lam) > sum(mu) * len(nu) or lam[0] > sum(mu) * nu[0]


def test_support_box_against_power_sum_tables():
    # the power-sum tables apply no support bound, so every lam the box
    # rules out is checked against an independent computation
    cases = outside = 0
    for n in range(1, 15):
        shapes = list(partitions_of(n))
        for mu, nu in pairs_of_size(n):
            table = plethysm_schur_table(mu, nu)
            for lam in shapes:
                cases += 1
                if outside_the_box(lam, mu, nu):
                    outside += 1
                    assert lam not in table, (lam, mu, nu)
                    assert jacobi_trudi_coeff(lam, mu, nu) == 0
    assert (cases, outside) == (97981, 40311)


def test_weight_bound_against_direct_counts():
    # kappa_1 > |mu|*nu_1 is a zero weight space; counted here without the
    # bound, from the Kostka numbers or the letters of every nu-tableau
    # weight (nu = (1) has no kappa beyond it: kappa_1 <= |kappa| = |mu|)
    cases = beyond = 0
    for n in range(1, 11):
        for mu, nu in pairs_of_size(n):
            for kappa in partitions_of(n):
                cases += 1
                if kappa[0] <= sum(mu) * nu[0]:
                    continue
                beyond += 1
                if mu == (1,):
                    direct = kostka(nu, kappa)
                else:
                    direct = count_weighted_ssyt(mu, ssyt_weights(nu, len(kappa), bound=kappa), kappa)
                assert direct == 0, (mu, nu, kappa)
                assert weight_multiplicity(mu, nu, kappa) == 0
                assert (mu, nu, kappa) not in coefficients._q_cache
    assert (cases, beyond) == (9201, 1969)


def test_support_box_builds_no_term_table():
    # (3^20) has 20 rows and 5 * len((12,)) = 5; its term table would have
    # 659 817 terms
    misses = _jacobi_trudi_terms.cache_info().misses
    assert jacobi_trudi_coeff((3,) * 20, (5,), (12,)) == 0
    assert _jacobi_trudi_terms.cache_info().misses == misses


@st.composite
def pair_and_shape_outside_the_box(draw):
    """(mu, nu) with 15 <= |mu||nu| <= 20 and |nu| >= 2 (for nu = (1) the box
    holds every lam of the size), and a lam of that size outside the box."""
    n = draw(st.integers(15, 20))
    b = draw(st.sampled_from([b for b in range(2, n + 1) if n % b == 0]))
    mu = draw(st.sampled_from(list(partitions_of(n // b))))
    nu = draw(st.sampled_from(list(partitions_of(b))))
    lam = draw(st.sampled_from([lam for lam in partitions_of(n) if outside_the_box(lam, mu, nu)]))
    return lam, mu, nu


@settings(max_examples=40, deadline=None, database=None)
@given(case=pair_and_shape_outside_the_box())
def test_support_box_past_the_exhaustive_range(case):
    assert plethysm_schur_multiplicity(*case) == 0


PLETHYSM_COEFF_EXAMPLES = [
    (((2, 1), 1, 3, "b"), 0),
    (((3,), 1, 3, "b"), 1),
    (((2, 2, 2), 2, 3, "a"), 0),
    (((6,), 2, 3, "a"), 1),
    (((4, 2), 2, 3, "a"), 1),
    (((5, 1), 2, 3, "b"), 1),
    (((3, 3), 2, 3, "b"), 1),
]


@pytest.mark.parametrize("args,expected", PLETHYSM_COEFF_EXAMPLES)
def test_plethysm_coeff_examples(args, expected):
    assert plethysm_coeff(*args).value == expected


def test_plethysm_coeff_wrong_size_is_zero():
    res = plethysm_coeff((3, 1), 2, 3, "a")
    assert res.value == 0
    assert res.method == "degree-mismatch"


def test_plethysm_coeff_rows_match_general_plethysm():
    # every a/b query with n, m <= 6 and nm <= 18: the value is
    # general_plethysm's, which never peels, and the method names the first
    # row that applies; a peel ends on some other row, never on height-zero,
    # as lam - (1^n) has at most n rows
    methods = Counter()
    for n in range(7):
        for m in range(7):
            if n * m > 18:
                continue
            for lam in partitions_of(n * m):
                for variant in ("a", "b"):
                    res = plethysm_coeff(lam, n, m, variant)
                    want = general_plethysm(lam, outer_shape(n, variant), (m,) if m else ())
                    assert res.value == want.value, (lam, n, m, variant)
                    marginal, kind = _family_cone(lam, variant)
                    if m == 3 and _is_promise(marginal, kind):
                        assert res.method == "promise-pyramid-count"
                    elif n and len(lam) > n:
                        assert res.method == "height-zero"
                    elif n and len(lam) == n:
                        assert res.method in {f"column-peel+{row}" for row in ("promise-pyramid-count", "below-beta", "closed-form", "jacobi-trudi")}
                    elif m == 3 and coordinate_sum(marginal) < beta(n, kind):
                        assert res.method == "below-beta"
                    elif m == 2:
                        assert res.method == "closed-form"
                    else:
                        assert res.method == want.method
                    methods[res.method] += 1
    # two shapes of fewer columns than rows take the omega-dual side
    assert sum(methods.values()) == 3832
    assert methods == {
        "height-zero": 2512,
        "jacobi-trudi": 536,
        "omega-dual+jacobi-trudi": 2,
        "column-peel+jacobi-trudi": 258,
        "column-peel+closed-form": 202,
        "closed-form": 172,
        "below-beta": 72,
        "column-peel+below-beta": 19,
        "promise-pyramid-count": 32,
        "column-peel+promise-pyramid-count": 27,
    }


def one_column_peel(lam, n, m, variant):
    """Test oracle: plethysm_coeff's column peel one column per step.  The
    peeled query goes back to plethysm_coeff once it has fewer than n rows
    or is a promise instance at m = 3, where plethysm_coeff peels nothing."""
    peeled = ""
    while n and len(lam) == n and sum(lam) == n * m and not (m == 3 and _is_promise(*_family_cone(lam, variant))):
        lam = tuple(part - 1 for part in lam if part > 1)
        m -= 1
        variant = "b" if variant == "a" else "a"
        peeled = "column-peel+"
    res = plethysm_coeff(lam, n, m, variant)
    return res.value, peeled + res.method


def test_column_peel_in_one_step_matches_one_column_per_step():
    # every a/b query with n, m <= 8 and nm <= 20: the same value and method
    methods = Counter()
    for n in range(9):
        for m in range(9):
            if n * m > 20:
                continue
            for lam in partitions_of(n * m):
                for variant in ("a", "b"):
                    res = plethysm_coeff(lam, n, m, variant)
                    assert (res.value, res.method) == one_column_peel(lam, n, m, variant), (lam, n, m, variant)
                    methods[res.method] += 1
    assert sum(methods.values()) == 7960
    assert methods == {
        "height-zero": 5338,
        "jacobi-trudi": 922,
        "omega-dual+jacobi-trudi": 2,
        "closed-form": 680,
        "column-peel+jacobi-trudi": 556,
        "column-peel+closed-form": 267,
        "below-beta": 72,
        "column-peel+below-beta": 47,
        "column-peel+promise-pyramid-count": 44,
        "promise-pyramid-count": 32,
    }


def test_family_promise_test_needs_no_transpose(monkeypatch):
    # the a family's cone instance is lam', whose coordinate sum is
    # sum_j C(lam_j, 2): read off lam, it agrees with the instance's own,
    # and plethysm_coeff answers by the promise row exactly on the promise
    # instances
    hits = Counter()
    for n in range(1, 9):
        for lam in partitions_of(3 * n):
            for variant in ("a", "b"):
                marginal, kind = _family_cone(lam, variant)
                assert _family_coords(lam, variant) == (coordinate_sum(marginal), kind), (lam, variant)
                promise = plethysm_coeff(lam, n, 3, variant).method == "promise-pyramid-count"
                assert promise == _is_promise(marginal, kind), (lam, variant)
                hits[variant] += promise
    assert hits == {"a": 52, "b": 38}
    # so a miss at m = 3 transposes nothing
    monkeypatch.setattr("plethtomo.coefficients._transpose", None)
    assert plethysm_coeff((5, 4, 3), 4, 3, "a") == general_plethysm((5, 4, 3), (4,), (3,))


def test_m3_query_reads_its_coordinate_sum_once(monkeypatch):
    # the promise row and the below-beta row read one excess over beta(n):
    # a miss with fewer than n rows computes the coordinate sum once
    from plethtomo import coefficients

    calls = Counter()

    def counted(lam, variant):
        calls[lam, variant] += 1
        return family_coords(lam, variant)

    family_coords = coefficients._family_coords
    monkeypatch.setattr(coefficients, "_family_coords", counted)
    for lam, variant, method in (((5, 4, 3), "a", "jacobi-trudi"), ((12,), "b", "below-beta")):
        assert plethysm_coeff(lam, 4, 3, variant).method == method
    assert calls == {((5, 4, 3), "a"): 1, ((12,), "b"): 1}


GENERAL_PLETHYSM_EXAMPLES = [
    (((4,), (2,), (2,)), 1),
    (((2, 1), (1,), (2, 1)), 1),
    (((3, 1), (1, 1), (2,)), 1),
]


@pytest.mark.parametrize("args,expected", GENERAL_PLETHYSM_EXAMPLES)
def test_general_plethysm_examples(args, expected):
    assert general_plethysm(*args).value == expected


def test_general_plethysm_dispatch_routes():
    tall = (1,) * 12
    res = general_plethysm(tall, (4,), (3,))
    assert res.method == "power-sum"
    short = general_plethysm((12,), (4,), (3,))
    assert short.method == "jacobi-trudi"
    assert res.value == jacobi_trudi_coeff(tall, (4,), (3,))


def test_one_row_and_one_column_shapes_build_no_term_table():
    # in one variable only s_(N) survives, so p_(N)(mu, nu) = [len(mu) =
    # len(nu) = 1]; by omega p_(1^N)(mu, nu) = [nu = (1^b), mu = (a) for b
    # even, (1^a) for b odd].  Checked against the Jacobi-Trudi sum up to 10
    # rows and the power-sum pairing above
    pairs = [pair for size in range(1, 13) for pair in pairs_of_size(size)]
    assert len(pairs) == 688
    for mu, nu in pairs:
        size = sum(mu) * sum(nu)
        row, column = (size,), (1,) * size
        misses = _jacobi_trudi_terms.cache_info().misses
        got_row, got_column = general_plethysm(row, mu, nu), general_plethysm(column, mu, nu)
        assert _jacobi_trudi_terms.cache_info().misses == misses
        assert got_row == CoefficientResult(int(len(mu) == len(nu) == 1), "jacobi-trudi"), (mu, nu)
        b = len(nu)
        want = int(nu == (1,) * b and mu == ((sum(mu),) if b % 2 == 0 else (1,) * sum(mu)))
        oracle = jacobi_trudi_coeff if size <= JACOBI_TRUDI_ROWS_CAP else plethysm_schur_multiplicity
        assert got_row.value == jacobi_trudi_coeff(row, mu, nu)
        assert got_column.value == oracle(column, mu, nu) == want, (mu, nu)


def test_dual_side_is_chosen_by_rows_then_alphabet():
    # the strip DP's letters are nu-tableaux on len(lam) letters at lam and
    # nu'-tableaux on lam_1 letters at lam'
    for lam, mu, nu, letters, method in (
        ((4, 4, 2, 1, 1), (2, 1, 1), (1, 1, 1), (10, 20), "jacobi-trudi"),
        ((2, 2, 1, 1), (2, 1), (1, 1), (6, 3), "omega-dual+jacobi-trudi"),
        # a letter family takes the shorter side whatever its alphabet
        ((3, 3, 2, 1), (3,), (1, 1, 1), (4, 10), "omega-dual+jacobi-trudi"),
        # a tie in rows stays at lam
        ((3, 2, 1), (2,), (2, 1), (8, 8), "jacobi-trudi"),
    ):
        assert (dim_weyl(nu, len(lam)), dim_weyl(transpose(nu), lam[0])) == letters
        dual_mu = mu if sum(nu) % 2 == 0 else transpose(mu)
        want = jacobi_trudi_coeff(lam, mu, nu)
        assert want == jacobi_trudi_coeff(transpose(lam), dual_mu, transpose(nu))
        assert general_plethysm(lam, mu, nu) == CoefficientResult(want, method), lam


def test_power_sum_cap_builds_no_class(monkeypatch):
    def no_class(*args):
        raise AssertionError("general_plethysm built a class over the power-sum cap")

    monkeypatch.setattr("plethtomo.characters.plethysm_power_expansion", no_class)
    # over nine rows and over nine columns: no side takes Jacobi-Trudi
    with pytest.raises(SizeCapError, match=f"size 100 is over the cap of {POWER_SUM_N_MAX}"):
        general_plethysm((10,) * 10, (10,), (10,))
    # over nine rows but at most nine columns: Jacobi-Trudi at the omega-dual,
    # here a one-box shape and a shape whose 16-point set count is 0
    n = POWER_SUM_N_MAX + 1
    assert general_plethysm((1,) * n, (n,), (1,)) == CoefficientResult(0, "omega-dual+jacobi-trudi")
    lam = (8,) * 4 + (2,) * 8
    assert count_point_sets(transpose(lam), "open") == 0
    assert plethysm_coeff(lam, 16, 3, "a") == CoefficientResult(0, "omega-dual+jacobi-trudi")
    # at most JACOBI_TRUDI_MAX_ROWS rows take Jacobi-Trudi at any size
    assert general_plethysm((48,), (16,), (3,)) == CoefficientResult(1, "jacobi-trudi")
    # a degree mismatch is answered before the route is picked
    assert general_plethysm((1,) * n, (n,), (2,)) == CoefficientResult(0, "degree-mismatch")
    # the cap itself takes the power-sum route
    monkeypatch.setattr("plethtomo.coefficients.plethysm_schur_multiplicity", lambda *args: 7)
    n = POWER_SUM_N_MAX
    assert general_plethysm((1,) * n, (n,), (1,)) == CoefficientResult(7, "power-sum")


# more than nine rows and more than nine columns, over the power-sum cap,
# each answered by the support box or a one-box shape
TALL_WIDE_OVER_THE_CAP = [
    ((11,) * 5 + (1,) * 5, (1, 1), (30,), 0),
    ((10,) * 10, (10,) * 10, (1,), 1),
    ((10,) * 10, (1,), (10,) * 10, 1),
]


@pytest.mark.parametrize("lam,mu,nu,value", TALL_WIDE_OVER_THE_CAP)
def test_tall_wide_shapes_over_the_cap_answer_without_a_table(monkeypatch, lam, mu, nu, value):
    # the power-sum route would refuse these, and neither side has at most
    # nine rows; the answers that build no term table are the same at lam
    # and at lam', and run once per query
    def no_table(*args):
        raise AssertionError("a class or a term table was built")

    monkeypatch.setattr("plethtomo.characters.plethysm_power_expansion", no_table)
    monkeypatch.setattr(coefficients, "_jacobi_trudi", no_table)
    calls = []
    real = coefficients._without_table
    monkeypatch.setattr(coefficients, "_without_table", lambda *args: calls.append(args) or real(*args))
    assert sum(lam) > POWER_SUM_N_MAX and len(lam) > JACOBI_TRUDI_MAX_ROWS and lam[0] > JACOBI_TRUDI_MAX_ROWS
    assert general_plethysm(lam, mu, nu) == CoefficientResult(value, "omega-dual+jacobi-trudi")
    assert calls == [(lam, mu, nu)]


def test_no_table_answers_run_once_per_query(monkeypatch):
    # on lam, at lam' and through jacobi_trudi_coeff, one _without_table call
    calls = []
    real = coefficients._without_table
    monkeypatch.setattr(coefficients, "_without_table", lambda *args: calls.append(args) or real(*args))
    queries = [((4, 2), (2,), (3,)), ((2, 2, 1, 1), (2, 1), (1, 1)), ((4, 4, 2, 1, 1), (2, 1, 1), (1, 1, 1))]
    results = [general_plethysm(*query) for query in queries]
    assert [res.method for res in results] == ["jacobi-trudi", "omega-dual+jacobi-trudi", "jacobi-trudi"]
    assert calls == queries
    calls.clear()
    assert jacobi_trudi_coeff(*queries[1]) == results[1].value
    assert calls == [queries[1]]


# shapes taller than JACOBI_TRUDI_MAX_ROWS take the power-sum route; the
# Jacobi-Trudi sum over a single column is cheap enough to check them
TALL_CASES = [
    ((1, 1), (1, 1, 1, 1, 1), 1),
    ((5,), (1, 1), 1),
    ((2,), (1, 1, 1, 1, 1), 0),
    ((2,), (5,), 0),
    ((2, 2, 1), (2,), 0),
    ((1, 1, 1, 1, 1), (1, 1), 0),
]


@pytest.mark.parametrize("mu,nu,expected", TALL_CASES)
def test_general_plethysm_tall_matches_jacobi_trudi(mu, nu, expected):
    tall = (1,) * 10
    res = general_plethysm(tall, mu, nu)
    assert res.method == "power-sum"
    assert res.value == jacobi_trudi_coeff(tall, mu, nu) == expected


def test_tall_route_matches_omega_dual_jacobi_trudi():
    # omega(s_mu[s_nu]) is s_mu[s_nu'] for |nu| even and s_mu'[s_nu'] for
    # |nu| odd, so p_lam(mu, nu) is a Jacobi-Trudi coefficient at lam',
    # which has at most five rows here
    cases = nonzero = 0
    for n in range(10, 15):
        tall = [lam for lam in partitions_of(n) if len(lam) > JACOBI_TRUDI_MAX_ROWS]
        for mu, nu in pairs_of_size(n):
            dual_mu = mu if sum(nu) % 2 == 0 else transpose(mu)
            for lam in tall:
                res = general_plethysm(lam, mu, nu)
                assert res.method == "power-sum"
                want = jacobi_trudi_coeff(transpose(lam), dual_mu, transpose(nu))
                assert res.value == want, (lam, mu, nu)
                cases += 1
                nonzero += want != 0
    assert (cases, nonzero) == (6622, 136)


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_omega_duality_on_random_shapes(data):
    # omega(s_mu[s_nu]) = s_mu*[s_nu'], mu* = mu for |nu| even and mu' for
    # |nu| odd: general_plethysm at lam against Jacobi-Trudi at lam', and,
    # as general_plethysm may itself take lam', against Jacobi-Trudi at lam
    size = data.draw(st.integers(1, 12))
    mu, nu = data.draw(st.sampled_from(pairs_of_size(size)))
    lam = data.draw(st.sampled_from([lam for lam in partitions_of(size) if lam[0] <= JACOBI_TRUDI_ROWS_CAP]))
    dual_mu = mu if sum(nu) % 2 == 0 else transpose(mu)
    got = general_plethysm(lam, mu, nu).value
    assert got == jacobi_trudi_coeff(transpose(lam), dual_mu, transpose(nu))
    if len(lam) <= JACOBI_TRUDI_ROWS_CAP:
        assert got == jacobi_trudi_coeff(lam, mu, nu)


@settings(max_examples=44, deadline=None, database=None)
@given(data=st.data())
def test_tall_one_box_coefficients_take_the_power_sum_route(data):
    # s_mu[s_1] = s_1[s_mu] = s_mu: past JACOBI_TRUDI_MAX_ROWS rows the
    # power-sum route pairs mu's class-weighted character with chi_lam,
    # which character orthogonality makes [lam = mu]
    shapes = list(partitions_of(data.draw(st.integers(10, 20))))
    lam = data.draw(st.sampled_from([lam for lam in shapes if len(lam) > JACOBI_TRUDI_MAX_ROWS]))
    mu = data.draw(st.one_of(st.just(lam), st.sampled_from(shapes)))
    want = CoefficientResult(int(lam == mu), "power-sum")
    assert general_plethysm(lam, mu, (1,)) == general_plethysm(lam, (1,), mu) == want


def test_m2_closed_form_examples():
    assert m2_closed_form(2, "a") == {(4,), (2, 2)}
    assert m2_closed_form(1, "b") == {(2,)}
    assert m2_closed_form(3, "b") == {(3, 3), (4, 1, 1)}


def test_empty_shapes_give_one():
    assert general_plethysm((), (), (3,)).value == 1
    assert weight_multiplicity((), (3,), ()) == 1
    # s_()[s_nu] = 1, and s_mu[s_()] = s_mu[1] = [len(mu) <= 1]: on a
    # 1-dimensional space only the one-row Schur functors are nonzero.  The
    # module has degree 0, so its dimension is the coefficient at lam = ()
    for size in range(7):
        for shape in partitions_of(size):
            for mu, nu in ((shape, ()), ((), shape)):
                want = int(len(mu) <= 1)
                assert general_plethysm((), mu, nu).value == want, (mu, nu)
                assert jacobi_trudi_coeff((), mu, nu) == want, (mu, nu)
                assert weight_multiplicity(mu, nu, ()) == want, (mu, nu)
                assert plethysm_schur_multiplicity((), mu, nu) == want, (mu, nu)
                assert dim_plethysm_module(mu, nu, 3) == want, (mu, nu)
    assert plethysm_coeff((), 2, 0, "b").value == 0
    assert plethysm_coeff((), 2, 0, "a").value == 1


@pytest.mark.parametrize(
    "query",
    [lambda: plethysm_coeff((2,), 1, 2, "c"), lambda: m2_closed_form(2, "c")],
    ids=["plethysm_coeff", "m2_closed_form"],
)
def test_unknown_variant_is_a_value_error(query):
    with pytest.raises(ValueError, match="variant must be 'a' or 'b'"):
        query()


def test_m2_closed_form_matches_oracle():
    # the closed-form row against both un-peeled routes, |lam| <= 16
    for n in range(1, 9):
        for variant, mu in (("a", (n,)), ("b", (1,) * n)):
            support = m2_closed_form(n, variant)
            for lam in partitions_of(2 * n):
                want = 1 if lam in support else 0
                assert jacobi_trudi_coeff(lam, mu, (2,)) == want, (lam, variant)
                assert plethysm_schur_multiplicity(lam, mu, (2,)) == want, (lam, variant)


def test_hermite_reciprocity_on_two_row_shapes():
    # a_lam(n, m) = a_lam(m, n) for lam of at most two rows (Hermite
    # reciprocity), a theorem at every size; the two sides take different
    # plethysm_coeff rows (at n = 2 the column peel, at m = 2 the closed
    # form, at m = 3 the point-set count, Jacobi-Trudi elsewhere), so a wrong
    # row fails it.  All 3168 shapes with n, m <= 12.
    methods = Counter()
    for n in range(1, 13):
        for m in range(1, 13):
            for lam in partitions_of(n * m, max_parts=2):
                got = plethysm_coeff(lam, n, m, "a")
                methods[got.method] += 1
                assert got.value == plethysm_coeff(lam, m, n, "a").value, (lam, n, m)
    assert methods.total() == 3168
    assert {"closed-form", "column-peel+jacobi-trudi", "jacobi-trudi", "promise-pyramid-count", "height-zero"} <= set(methods)


DUALITY_CASES = [(2, 3), (2, 2), (3, 3), (3, 2)]


@pytest.mark.parametrize("n,m", DUALITY_CASES)
def test_duality(n, m):
    ok, report = check_duality(n, m)
    assert ok, report


def test_duality_rejects_negative_sizes():
    # partitions_of a negative size is empty, so these passed vacuously
    for n, m in ((-5, 4), (2, -1), (-1, -1)):
        with pytest.raises(ValueError, match="n, m >= 0"):
            check_duality(n, m)
    assert check_duality(0, 3) == (True, [])


def test_duality_reports_both_identities(monkeypatch):
    # every a/b coefficient off by one breaks both identities at every lam
    real = coefficients.plethysm_coeff
    monkeypatch.setattr(coefficients, "plethysm_coeff", lambda *args: CoefficientResult(real(*args).value + 1, "shifted"))
    ok, report = check_duality(2, 2)
    shapes = len(list(partitions_of(4)))
    assert not ok and len(report) == 2 * shapes
    assert sum(line.startswith("wedge^2 wedge^2 at ") for line in report) == shapes
    assert sum(line.startswith("sym^2 wedge^2 at ") for line in report) == shapes


def test_duality_reads_the_power_sum_tables(monkeypatch):
    # the wedge side is one Schur table per identity: a wrong table value is
    # reported, and no Jacobi-Trudi sum is taken outside plethysm_coeff, so
    # the two sides of a comparison share no call
    real_table = coefficients.plethysm_schur_table
    read = []

    def shifted(mu, nu):
        read.append((mu, nu))
        table = real_table(mu, nu)
        if mu == (1, 1):
            table[(2, 2)] = table.get((2, 2), 0) + 1
        return table

    monkeypatch.setattr(coefficients, "plethysm_schur_table", shifted)
    ok, report = check_duality(2, 2)
    assert read == [((1, 1), (1, 1)), ((2,), (1, 1))]
    assert not ok and len(report) == 1 and report[0].startswith("wedge^2 wedge^2 at (2, 2): got ")
    monkeypatch.undo()
    inside = [False]
    seen = {True: 0, False: 0}
    real_coeff, real_jt = coefficients.plethysm_coeff, coefficients._jacobi_trudi

    def coeff(*args):
        inside[0] = True
        try:
            return real_coeff(*args)
        finally:
            inside[0] = False

    def spy(*args):
        seen[inside[0]] += 1
        return real_jt(*args)

    monkeypatch.setattr(coefficients, "plethysm_coeff", coeff)
    monkeypatch.setattr(coefficients, "_jacobi_trudi", spy)
    assert check_duality(4, 3) == (True, [])
    assert seen[True] > 0 and seen[False] == 0


def test_dimension_conservation():
    for mu, nu in [((2,), (3,)), ((1, 1), (3,)), ((3,), (2,)), ((2, 1), (2,))]:
        table = plethysm_schur_table(mu, nu)
        for k in (2, 3, 4):
            lhs = sum(mult * dim_weyl(lam, k) for lam, mult in table.items())
            assert lhs == dim_plethysm_module(mu, nu, k)


def test_one_row_or_column_kronecker_against_character_sum():
    checked = 0
    for n in range(1, 10):
        shapes = list(partitions_of(n))
        for trivial in ((n,), (1,) * n):
            for a, b in itertools.product(shapes, repeat=2):
                want = CoefficientResult(character_kronecker(trivial, a, b), "one-row-or-column")
                for args in ((trivial, a, b), (a, trivial, b), (a, b, trivial)):
                    assert kronecker(*args) == want, args
                    checked += 1
    assert checked == 6 * sum(len(list(partitions_of(n))) ** 2 for n in range(1, 10))


def test_other_kronecker_triples_take_the_character_sum():
    for n in range(7):
        inner = [lam for lam in partitions_of(n) if len(lam) > 1 and lam[0] > 1]
        for args in itertools.product(inner, repeat=3):
            assert kronecker(*args) == CoefficientResult(character_kronecker(*args), "character-sum")


def test_kronecker_cap_evaluates_no_character(monkeypatch):
    def no_character(*args):
        raise AssertionError("kronecker evaluated a character over its cap")

    monkeypatch.setattr("plethtomo.characters._mn", no_character)
    monkeypatch.setattr("plethtomo.characters._kronecker", no_character)
    monkeypatch.setattr("plethtomo.coefficients._kronecker", no_character)
    n = KRON_N_MAX + 1
    hook = (n - 1, 1)
    with pytest.raises(SizeCapError, match=f"size {n} is over the cap of {KRON_N_MAX}"):
        kronecker(hook, hook, (n - 2, 2))
    # one row or one column is answered at any size
    assert kronecker((n,), hook, hook) == CoefficientResult(1, "one-row-or-column")
    assert kronecker(hook, (1,) * n, transpose(hook)) == CoefficientResult(1, "one-row-or-column")
    assert kronecker(hook, hook, (1,) * n) == CoefficientResult(0, "one-row-or-column")
    # the cap itself takes the character route
    monkeypatch.setattr("plethtomo.coefficients._kronecker", lambda *args: 7)
    n = KRON_N_MAX
    assert kronecker((n - 1, 1), (n - 1, 1), (n - 2, 2)) == CoefficientResult(7, "character-sum")


def test_kronecker_checks_the_triple_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return kronecker_shapes(*args)

    # characters.kronecker would check again through its own module's name
    monkeypatch.setattr("plethtomo.coefficients.kronecker_shapes", counted)
    monkeypatch.setattr("plethtomo.characters.kronecker_shapes", counted)
    for args, method in [
        (((2, 1), (2, 1), (2, 1)), "character-sum"),
        (((3,), (2, 1), (2, 1)), "one-row-or-column"),
        (((2, 1), (1, 1, 1), (2, 1)), "one-row-or-column"),
    ]:
        calls.clear()
        assert kronecker(*args).method == method
        assert len(calls) == 1, (args, calls)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(*[st.sampled_from(list(partitions_of(n)))] * 3)))
def test_kronecker_routes_agree_with_the_character_sum_and_its_symmetries(triple):
    # k is symmetric in its arguments and k(a, b, c) = k(a', b', c):
    # conjugating two shapes moves triples between the two routes
    mu, nu, rho = triple
    value = kronecker(mu, nu, rho).value
    assert value == character_kronecker(mu, nu, rho)
    for perm in itertools.permutations(triple):
        assert kronecker(*perm).value == value, perm
    assert kronecker(transpose(mu), transpose(nu), rho).value == value
    assert kronecker(transpose(mu), nu, transpose(rho)).value == value
    assert kronecker(mu, transpose(nu), transpose(rho)).value == value


def test_kronecker_result_wrapper():
    res = kronecker((2, 1), (2, 1), (2, 1))
    assert res.value == 1
    assert res.method == "character-sum"
    assert int(res) == 1
    res = kronecker((2, 1), (2, 1), (1, 1, 1))
    assert res.value == 1
    assert res.method == "one-row-or-column"
