import pytest

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


def test_decompose_schur_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        decompose_schur(SymPoly(2, {(2,): 1, (1,): 1}))


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
