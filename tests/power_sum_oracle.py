"""Test oracle: the power-sum plethysm expansion in rational arithmetic.

The library carries the plethysm character as class-weighted integers
(characters.plethysm_power_expansion) and pairs it with one exact division.
This is the direct transcription of the formula it rests on,
s_f = sum_tau chi_f(tau)/z_tau p_tau with p_r[p_s] = p_{rs}, in
fractions.Fraction, one gcd per operation.  It is slow and is not part of
the library; the tests check the integer route against it.
"""

from fractions import Fraction

from plethtomo.characters import centralizer_order, sn_character
from plethtomo.partitions import canonical, partitions_of


def fraction_power_expansion(mu, nu):
    """Power-sum coefficients of the plethysm of s_mu with s_nu: a dict from
    omega |- |mu|*|nu| to the nonzero coefficient of p_omega."""
    mu, nu = canonical(mu), canonical(nu)
    inner = []
    for tau in partitions_of(sum(nu)):
        c = sn_character(nu, tau)
        if c:
            inner.append((tau, Fraction(c, centralizer_order(tau))))
    out = {}
    for sigma in partitions_of(sum(mu)):
        c_sigma = sn_character(mu, sigma)
        if not c_sigma:
            continue
        prod = {(): Fraction(1)}
        for r in sigma:
            nxt = {}
            for key, val in prod.items():
                for tau, coeff in inner:
                    nk = tuple(sorted(key + tuple(r * t for t in tau), reverse=True))
                    nxt[nk] = nxt.get(nk, Fraction(0)) + val * coeff
            prod = nxt
        w = Fraction(c_sigma, centralizer_order(sigma))
        for key, val in prod.items():
            out[key] = out.get(key, Fraction(0)) + w * val
    return {k: v for k, v in out.items() if v != 0}


def fraction_schur_table(mu, nu):
    """Schur expansion of the plethysm by pairing the rational expansion
    against chi_lam for every lam; raises if a multiplicity is not an
    integer."""
    expansion = fraction_power_expansion(mu, nu)
    n = sum(canonical(mu)) * sum(canonical(nu))
    table = {}
    for lam in partitions_of(n):
        acc = sum((coeff * sn_character(lam, omega) for omega, coeff in expansion.items()), Fraction(0))
        if acc.denominator != 1:
            raise ArithmeticError(f"non-integral multiplicity for {lam}")
        if acc:
            table[lam] = int(acc)
    return table
