import pytest

from plethtomo.characters import plethysm_schur_table
from plethtomo.coefficients import weight_multiplicity
from plethtomo.partitions import partitions_of
from plethtomo.sympoly import (
    NotSchurPositiveError,
    SymPoly,
    decompose_schur,
    plethysm_poly,
    schur_poly,
)


def test_schur_poly_examples():
    assert schur_poly((2,), 2).coeffs == {(2,): 1, (1, 1): 1}
    assert schur_poly((1, 1), 2).coeffs == {(1, 1): 1}
    assert schur_poly((2, 1), 3).coeffs == {(2, 1): 1, (1, 1, 1): 2}


def test_schur_poly_zero_when_too_tall():
    assert schur_poly((1, 1, 1), 2).is_zero()


def test_sympoly_validation():
    with pytest.raises(ValueError):
        SymPoly(0, {})
    with pytest.raises(ValueError):
        SymPoly(2, {(1, 1, 1): 1})
    p = SymPoly(3, {(2, 1, 0): 5, (3,): 0})
    assert p.coeffs == {(2, 1): 5}


def test_sympoly_reads_a_composition_sorted():
    # a symmetric polynomial has one coefficient per multiset of exponents
    p = SymPoly(3, {(2, 1): 4, (1,): 2})
    assert p.coefficient((1, 2)) == p.coefficient((0, 2, 1)) == p.coefficient((2, 1)) == 4
    assert p.coefficient((0, 1)) == p.coefficient((0, 0, 1)) == 2
    assert repr(p) == "SymPoly(k=3: 4*m[2, 1] + 2*m[1])"
    with pytest.raises(ValueError, match="is not a partition"):
        SymPoly(3, {(1, 2): 1})


def test_plethysm_poly_identity():
    assert plethysm_poly((1,), (3,), 2) == schur_poly((3,), 2)
    assert plethysm_poly((3, 1), (1,), 4) == schur_poly((3, 1), 4)


def test_plethysm_poly_inner_degree_two_cases():
    # second symmetric power of the quadrics: shapes (4) and (2,2)
    got = plethysm_poly((2,), (2,), 2)
    expected = SymPoly(2, {})
    expected = expected.add_scaled(schur_poly((4,), 2), 1).add_scaled(schur_poly((2, 2), 2), 1)
    assert got == expected
    # second exterior power of the quadrics: single shape (3,1)
    assert plethysm_poly((1, 1), (2,), 3) == schur_poly((3, 1), 3)


def test_plethysm_poly_rejects_zero_variables():
    with pytest.raises(ValueError):
        plethysm_poly((2,), (2,), 0)


def test_plethysm_poly_homogeneous():
    poly = plethysm_poly((2, 1), (2, 1), 3)
    assert all(sum(key) == 9 for key in poly.coeffs)


def test_plethysm_poly_direct_equals_power_route():
    # the m_kappa coefficient of the plethysm is the weight multiplicity
    # q_kappa, counted directly by the horizontal-strip DP over the tableau
    # alphabet; plethysm_poly assembles it from the power-sum Schur table
    cases = [
        ((2,), (3,), 3),
        ((1, 1), (3,), 4),
        ((2, 1), (2, 1), 3),
        ((3,), (2,), 4),
        ((1, 1, 1), (2,), 5),
        ((2, 2), (2,), 4),
        ((2,), (2, 2), 4),
        ((4,), (2,), 3),
    ]
    for mu, nu, k in cases:
        poly = plethysm_poly(mu, nu, k)
        for kappa in partitions_of(sum(mu) * sum(nu)):
            if len(kappa) <= k:
                assert poly.coefficient(kappa) == weight_multiplicity(mu, nu, kappa), (mu, nu, kappa)


def test_decompose_schur_idempotent_on_schur():
    for n in range(1, 6):
        for lam in partitions_of(n):
            k = max(1, len(lam))
            assert decompose_schur(schur_poly(lam, k)) == [(lam, 1)]


def test_decompose_schur_zero():
    assert decompose_schur(SymPoly(3, {})) == []


def test_decompose_schur_second_power_of_cubics():
    # classical decomposition: shapes (6) and (4,2) only
    got = dict(decompose_schur(plethysm_poly((2,), (3,), 4)))
    assert got == {(6,): 1, (4, 2): 1}


def test_decompose_schur_signals_non_positive():
    bad = SymPoly(2, {(2,): 1, (1, 1): -1})
    with pytest.raises(NotSchurPositiveError):
        decompose_schur(bad)


def test_decompose_schur_signals_a_negative_lead_the_input_lacks():
    # peeling s_(2) = m_(2) + m_(1,1) off m_(2) leaves -1 at (1,1)
    with pytest.raises(NotSchurPositiveError, match=r"-1 at leading weight \(1, 1\)"):
        decompose_schur(SymPoly(2, {(2,): 1}))


def test_decompose_schur_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        decompose_schur(SymPoly(2, {(2,): 1, (1,): 1}))
    # homogeneity is checked before any peel, so a negative key of another
    # degree is not reached as a lead
    with pytest.raises(ValueError, match="homogeneous") as info:
        decompose_schur(SymPoly(3, {(3,): 1, (1, 1): -2}))
    assert not isinstance(info.value, NotSchurPositiveError)


def peel_by_add_scaled(f):
    """Test oracle: the peel that takes the greatest surviving key and
    subtracts its Schur polynomial as a new SymPoly, until none survives."""
    out = []
    while not f.is_zero():
        lead = max(f.coeffs)
        mult = f.coeffs[lead]
        if mult < 0:
            raise NotSchurPositiveError(f"negative coefficient {mult} at leading weight {lead}")
        out.append((lead, mult))
        f = f.add_scaled(schur_poly(lead, f.k), -mult)
    return out


def test_one_pass_peel_matches_the_add_scaled_peel():
    # every pair with |mu||nu| <= 12 in k = 1, 2, 3 and n variables: the
    # same Schur terms in the same order as the oracle's peel, which are the
    # power-sum table's shapes of at most k rows; the unchecked constructor
    # builds what SymPoly(k, coeffs) builds
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(b):
                    n = a * b
                    table = plethysm_schur_table(mu, nu)
                    for k in sorted({1, 2, 3, n}):
                        poly = plethysm_poly(mu, nu, k)
                        assert SymPoly(k, poly.coeffs) == poly
                        got = decompose_schur(poly)
                        assert got == peel_by_add_scaled(poly), (mu, nu, k)
                        assert dict(got) == {lam: c for lam, c in table.items() if len(lam) <= k}, (mu, nu, k)


def test_schur_poly_is_a_copy_of_the_kostka_row():
    poly = schur_poly((2, 1), 3)
    poly.coeffs[(2, 1)] = 5
    assert schur_poly((2, 1), 3).coeffs == {(2, 1): 1, (1, 1, 1): 2}
    with pytest.raises(ValueError, match="variable count"):
        schur_poly((2,), 0)


def test_decompose_roundtrip_random_positive_combinations():
    combos = [
        {(3, 1): 2, (2, 2): 1},
        {(4,): 1, (2, 1, 1): 3},
        {(2, 2, 1): 1, (3, 1, 1): 1, (5,): 2},
    ]
    for combo in combos:
        k = 5
        poly = SymPoly(k, {})
        for lam, mult in combo.items():
            poly = poly.add_scaled(schur_poly(lam, k), mult)
        assert dict(decompose_schur(poly)) == combo
