import itertools
from math import comb, factorial

import pytest
from character_oracle import list_character
from hypothesis import given, settings
from hypothesis import strategies as st

from plethtomo import coefficients
from plethtomo.characters import (
    CLASS_SIZES_MAXSIZE,
    EXPANSION_MAXSIZE,
    POWER_SUM_N_MAX,
    _beta_mask,
    _beta_masks,
    _class_sizes,
    centralizer_order,
    kronecker,
    plethysm_power_expansion,
    plethysm_schur_multiplicity,
    plethysm_schur_table,
    sn_character,
)
from plethtomo.partitions import partitions_of
from plethtomo.tomography import SizeCapError
from power_sum_oracle import fraction_power_expansion, fraction_schur_table
from tableau_oracles import enumerate_ssyt


def pairs_of_size(n):
    """Every (mu, nu) with |mu|*|nu| = n > 0."""
    return [(mu, nu) for a in range(1, n + 1) if n % a == 0 for mu in partitions_of(a) for nu in partitions_of(n // a)]


# every (mu, nu) with |mu|*|nu| <= 10
ORACLE_PAIRS = [pair for n in range(1, 11) for pair in pairs_of_size(n)]


CHARACTER_EXAMPLES = [
    ((4,), (2, 1, 1), 1),
    ((5,), (5,), 1),
    ((1, 1, 1), (2, 1), -1),
    ((2, 1), (1, 1, 1), 2),
    ((2, 2), (2, 2), 2),
    ((3, 1), (2, 2), -1),
    ((3, 1), (3, 1), 0),
]


@pytest.mark.parametrize("lam,tau,expected", CHARACTER_EXAMPLES)
def test_character_examples(lam, tau, expected):
    assert sn_character(lam, tau) == expected


def test_character_dimension_is_standard_tableau_count():
    for n in range(1, 7):
        for lam in partitions_of(n):
            dim = sn_character(lam, (1,) * n)
            standard = [t for t in enumerate_ssyt(lam, n) if sorted(sum(map(list, t), [])) == list(range(n))]
            assert dim == len(standard)


def test_character_orthogonality():
    for n in range(1, 7):
        nfact = factorial(n)
        classes = list(partitions_of(n))
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                inner = sum(
                    (nfact // centralizer_order(tau)) * sn_character(lam, tau) * sn_character(mu, tau)
                    for tau in classes
                )
                assert inner == (nfact if lam == mu else 0)


def test_character_matches_list_oracle():
    pairs = [(lam, tau) for n in range(13) for lam in partitions_of(n) for tau in partitions_of(n)]
    assert len(pairs) == 12648
    for lam, tau in pairs:
        assert sn_character(lam, tau) == list_character(lam, tau), (lam, tau)


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_character_matches_list_oracle_past_twelve(data):
    shapes = list(partitions_of(data.draw(st.integers(13, 20))))
    lam, tau = data.draw(st.sampled_from(shapes)), data.draw(st.sampled_from(shapes))
    assert sn_character(lam, tau) == list_character(lam, tau)


def test_zero_parts_share_the_mask():
    assert _beta_mask((3, 1, 0, 0)) == _beta_mask((3, 1)) == 0b10010
    assert _beta_mask((0, 0)) == _beta_mask(()) == 0
    assert sn_character((3, 1, 0), (2, 1, 1)) == sn_character((3, 1), (2, 1, 1)) == 1


def test_fixed_points_take_the_hook_length_formula():
    # the recursion goes one level per cycle of length >= 2, so 1100 fixed
    # points need none; f^(1^n) = f^(n) = 1, f^(k,k) is the Catalan number
    # and f^(n-k,1^k) = C(n-1,k)
    assert sn_character((1,) * 1100, (1,) * 1100) == 1
    assert sn_character((1100,), (1,) * 1100) == 1
    assert sn_character((1,) * 1100, (2,) + (1,) * 1098) == -1
    assert sn_character((1100,), (2,) + (1,) * 1098) == 1
    for k in (1, 2, 10, 300):
        assert sn_character((k, k), (1,) * (2 * k)) == comb(2 * k, k) // (k + 1)
        assert sn_character((k + 1,) + (1,) * k, (1,) * (2 * k + 1)) == comb(2 * k, k)


def test_character_rejects_size_mismatch():
    with pytest.raises(ValueError):
        sn_character((2, 1), (2, 2))


def test_centralizer_orders_sum_to_group_order():
    for n in range(1, 8):
        assert sum(factorial(n) // centralizer_order(tau) for tau in partitions_of(n)) == factorial(n)
        assert _class_sizes(n) == tuple((tau, factorial(n) // centralizer_order(tau)) for tau in partitions_of(n))


KRONECKER_EXAMPLES = [
    (((1,), (1,), (1,)), 1),
    (((2,), (2,), (1, 1)), 0),
    (((2,), (2,), (2,)), 1),
    (((1, 1), (1, 1), (2,)), 1),
    (((2, 1), (2, 1), (2, 1)), 1),
    (((2, 1), (2, 1), (3,)), 1),
    (((3, 1), (3, 1), (2, 1, 1)), 1),
]


@pytest.mark.parametrize("args,expected", KRONECKER_EXAMPLES)
def test_kronecker_examples(args, expected):
    assert kronecker(*args) == expected


def test_kronecker_argument_symmetry():
    shapes = [(3, 1), (2, 2), (2, 1, 1)]
    for mu, nu, rho in itertools.product(shapes, repeat=3):
        vals = {kronecker(*perm) for perm in itertools.permutations((mu, nu, rho))}
        assert len(vals) == 1


def test_kronecker_dimension_identity():
    # sum_rho k(mu,nu,rho) dim(rho) = dim(mu) dim(nu)
    for n in (4, 5):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                lhs = sum(kronecker(mu, nu, rho) * sn_character(rho, (1,) * n) for rho in partitions_of(n))
                assert lhs == sn_character(mu, (1,) * n) * sn_character(nu, (1,) * n)


def test_kronecker_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kronecker((2,), (1, 1), (1,))


NON_PARTITION_TRIPLES = [((0, 0, 2), (2,), (1, 1)), ((0, 1, 3), (4,), (4,)), ((2,), (1, 2), (2,))]


@pytest.mark.parametrize(
    "args,kron",
    [pytest.param(args, kronecker, id=f"args{i}") for i, args in enumerate(NON_PARTITION_TRIPLES)]
    + [pytest.param(args, coefficients.kronecker, id=f"args{i}-coefficients") for i, args in enumerate(NON_PARTITION_TRIPLES)],
)
def test_kronecker_rejects_non_partitions(args, kron):
    # (0,0,2) used to read as a shape and answer 2; (0,1,3) ended in a
    # non-integral inner product
    with pytest.raises(ValueError, match="is not a partition"):
        kron(*args)


CLASSICAL_PLETHYSMS = [
    ((2,), (2,), {(4,): 1, (2, 2): 1}),
    ((1, 1), (2,), {(3, 1): 1}),
    ((2,), (3,), {(6,): 1, (4, 2): 1}),
    ((1, 1), (3,), {(5, 1): 1, (3, 3): 1}),
    ((1, 1), (1, 1, 1), {(2, 2, 1, 1): 1, (1, 1, 1, 1, 1, 1): 1}),
    ((2,), (1, 1, 1), {(2, 2, 2): 1, (2, 1, 1, 1, 1): 1}),
    ((1, 1, 1), (2,), {(4, 1, 1): 1, (3, 3): 1}),
    ((3,), (2,), {(6,): 1, (4, 2): 1, (2, 2, 2): 1}),
    ((3,), (3,), {(9,): 1, (7, 2): 1, (6, 3): 1, (5, 2, 2): 1, (4, 4, 1): 1}),
    ((1, 1, 1), (3,), {(7, 1, 1): 1, (6, 3): 1, (5, 3, 1): 1, (3, 3, 3): 1}),
    ((2,), (4,), {(8,): 1, (6, 2): 1, (4, 4): 1}),
    ((4,), (2,), {(8,): 1, (6, 2): 1, (4, 4): 1, (4, 2, 2): 1, (2, 2, 2, 2): 1}),
]


def test_plethysm_duality_consistency():
    # exterior cubed of the exterior cube carries the transposes of the
    # symmetric-cubed-of-symmetric-cube support (odd inner degree duality)
    from plethtomo.partitions import transpose

    sym = plethysm_schur_table((3,), (3,))
    wedge = plethysm_schur_table((1, 1, 1), (1, 1, 1))
    assert wedge == {transpose(lam): mult for lam, mult in sym.items()}


@pytest.mark.parametrize("mu,nu,expected", CLASSICAL_PLETHYSMS)
def test_plethysm_schur_table_classical(mu, nu, expected):
    assert plethysm_schur_table(mu, nu) == expected


def test_plethysm_dimension_conservation():
    from plethtomo.tableaux import dim_weyl

    for mu, nu in [((2,), (3,)), ((1, 1, 1), (2,)), ((2, 1), (2, 1)), ((4,), (2,))]:
        table = plethysm_schur_table(mu, nu)
        for k in (2, 3):
            lhs = sum(mult * dim_weyl(lam, k) for lam, mult in table.items())
            assert lhs == dim_weyl(mu, dim_weyl(nu, k))


def test_plethysm_multiplicity_nonnegative():
    for mu in partitions_of(3):
        for nu in partitions_of(3):
            for lam in partitions_of(9):
                assert plethysm_schur_multiplicity(lam, mu, nu) >= 0


@pytest.mark.parametrize("lam, mu, nu", [((3,), (1,), (2,)), ((2,), (1,), (3,)), ((4,), (1,), (2,))])
def test_plethysm_multiplicity_is_zero_off_degree(lam, mu, nu):
    # s_mu[s_nu] is homogeneous of degree |mu||nu|, as general_plethysm's
    # degree-mismatch route says
    assert plethysm_schur_multiplicity(lam, mu, nu) == 0
    assert coefficients.general_plethysm(lam, mu, nu).value == 0


def test_power_expansion_is_fraction_oracle_times_n_factorial():
    assert len(ORACLE_PAIRS) == 348
    for mu, nu in ORACLE_PAIRS:
        nfact = factorial(sum(mu) * sum(nu))
        got = plethysm_power_expansion(mu, nu)
        assert all(type(w) is int and w for _, w in got)
        want = {omega: coeff * nfact for omega, coeff in fraction_power_expansion(mu, nu).items()}
        assert dict(got) == want, (mu, nu)


def test_schur_table_matches_fraction_oracle_pairing():
    for mu, nu in ORACLE_PAIRS:
        assert plethysm_schur_table(mu, nu) == fraction_schur_table(mu, nu), (mu, nu)


def test_linear_plethysm_is_the_identity():
    # s_mu[s_1] = s_1[s_mu] = s_mu
    for k in range(1, 9):
        for mu in partitions_of(k):
            assert plethysm_schur_table(mu, (1,)) == plethysm_schur_table((1,), mu) == {mu: 1}


def test_identity_class_weight_is_module_dimension():
    # the plethysm S_n-module is induced from the wreath product S_b wr S_a
    # (a = |mu|, b = |nu|), so its dimension is also the index of that
    # subgroup times f^mu (f^nu)^a
    for mu, nu in ORACLE_PAIRS:
        a, b = sum(mu), sum(nu)
        n = a * b
        identity = dict(plethysm_power_expansion(mu, nu))[(1,) * n]
        dim = sum(m * sn_character(lam, (1,) * n) for lam, m in plethysm_schur_table(mu, nu).items())
        induced = factorial(n) // (factorial(a) * factorial(b) ** a) * sn_character(mu, (1,) * a) * sn_character(nu, (1,) * b) ** a
        assert identity == dim == induced, (mu, nu)


def test_character_memos_stay_bounded():
    plethysm_power_expansion.cache_clear()
    for mu, nu in ORACLE_PAIRS:
        plethysm_power_expansion(mu, nu)
    info = plethysm_power_expansion.cache_info()
    assert info.misses == len(ORACLE_PAIRS) > EXPANSION_MAXSIZE
    assert info.currsize == info.maxsize == EXPANSION_MAXSIZE
    _class_sizes.cache_clear()
    for n in range(CLASS_SIZES_MAXSIZE + 8):
        _class_sizes(n)
    info = _class_sizes.cache_info()
    assert info.currsize == info.maxsize == CLASS_SIZES_MAXSIZE
    _beta_masks.cache_clear()
    for n in range(CLASS_SIZES_MAXSIZE + 8):
        assert _beta_masks(n) == tuple((lam, _beta_mask(lam)) for lam in partitions_of(n))
    info = _beta_masks.cache_info()
    assert info.currsize == info.maxsize == CLASS_SIZES_MAXSIZE


def test_power_sum_entries_refuse_over_the_cap_before_any_class(monkeypatch):
    def no_class(*args):
        raise AssertionError("a class was built over the power-sum cap")

    monkeypatch.setattr("plethtomo.characters.plethysm_power_expansion", no_class)
    monkeypatch.setattr("plethtomo.characters._class_sizes", no_class)
    n = POWER_SUM_N_MAX + 1
    assert coefficients.POWER_SUM_N_MAX == POWER_SUM_N_MAX == 40
    with pytest.raises(SizeCapError, match=f"size {n} is over the cap of {POWER_SUM_N_MAX}"):
        plethysm_schur_table((n,), (1,))
    with pytest.raises(SizeCapError, match=f"size {n} is over the cap of {POWER_SUM_N_MAX}"):
        plethysm_schur_table((1,), (n,))
    with pytest.raises(SizeCapError, match=f"size {n} is over the cap of {POWER_SUM_N_MAX}"):
        plethysm_schur_multiplicity((1,) * n, (n,), (1,))
    # off degree there is no plethysm part to pair, at any size
    assert plethysm_schur_multiplicity((1,), (n,), (1,)) == 0
    # the cap itself is paired: an empty class function pairs to 0
    monkeypatch.setattr("plethtomo.characters.plethysm_power_expansion", lambda mu, nu: ())
    n = POWER_SUM_N_MAX
    assert plethysm_schur_multiplicity((1,) * n, (n,), (1,)) == 0
    assert plethysm_schur_table((n,), (1,)) == {}
