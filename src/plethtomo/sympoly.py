"""Symmetric polynomials in the monomial basis.

A SymPoly in k variables is a sparse map from partitions (of height <= k)
to integer coefficients: the coefficient at kappa is the coefficient of the
monomial X^kappa, equivalently the m_kappa coordinate.  A key is a shape
(partitions.partition checks it); a read at a composition kappa reads the
coefficient at kappa sorted, as a symmetric polynomial has the same
coefficient at every rearrangement of kappa.  This is the
representation in which plethysm composition and weight-space reads are
immediate.
"""

from __future__ import annotations

from .characters import plethysm_schur_table
from .partitions import Composition, Partition, canonical, partition
from .tableaux import kostka_row


class NotSchurPositiveError(ValueError):
    """Raised when leading-monomial peeling hits a negative coefficient."""


class SymPoly:
    """Sparse symmetric polynomial in the monomial basis."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs: dict[Partition, int] | None = None):
        if k <= 0:
            raise ValueError("variable count must be positive")
        self.k = k
        self.coeffs: dict[Partition, int] = {}
        if coeffs:
            for key, val in coeffs.items():
                key = partition(key)
                if len(key) > k:
                    raise ValueError(f"key {key} taller than variable count {k}")
                if val:
                    self.coeffs[key] = self.coeffs.get(key, 0) + val
            self.coeffs = {key: val for key, val in self.coeffs.items() if val}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymPoly) and self.k == other.k and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = " + ".join(f"{v}*m{list(key)}" for key, v in sorted(self.coeffs.items(), reverse=True))
        return f"SymPoly(k={self.k}: {terms or '0'})"

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, kappa: Composition) -> int:
        return self.coeffs.get(canonical(sorted(kappa, reverse=True)), 0)

    def add_scaled(self, other: "SymPoly", scale: int) -> "SymPoly":
        if other.k != self.k:
            raise ValueError("variable count mismatch")
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            nv = out.get(key, 0) + scale * val
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
        return SymPoly(self.k, out)


def schur_poly(nu: Partition, k: int) -> SymPoly:
    """Schur polynomial s_nu in k variables; coefficient of m_pi is the
    Kostka number K_{nu,pi}.  Zero when the shape is taller than k."""
    nu = partition(nu)
    if len(nu) > k:
        return SymPoly(k, {})
    return SymPoly(k, dict(kostka_row(nu, k)))


def plethysm_poly(mu: Partition, nu: Partition, k: int) -> SymPoly:
    """Monomial-basis expansion of the plethysm of s_mu with s_nu in k
    variables; homogeneous of degree |mu|*|nu|.

    Assembled from the exact Schur expansion of the plethysm (power-sum
    route, characters.plethysm_schur_table, which raises SizeCapError above
    characters.POWER_SUM_N_MAX) and Kostka rows.
    """
    if k <= 0:
        raise ValueError("variable count must be positive")
    out: dict[Partition, int] = {}
    for lam, mult in plethysm_schur_table(mu, nu).items():
        if len(lam) > k:
            continue
        for pi, kc in kostka_row(lam, k).items():
            out[pi] = out.get(pi, 0) + mult * kc
    return SymPoly(k, out)


def decompose_schur(f: SymPoly) -> list[tuple[Partition, int]]:
    """Schur expansion by leading-monomial peeling: repeatedly subtract
    c * s_kappa for the lexicographically greatest surviving key kappa.

    Valid for genuine nonnegative integer combinations of Schur polynomials;
    a negative leading coefficient raises NotSchurPositiveError.
    """
    out: list[tuple[Partition, int]] = []
    rest = f
    degrees = {sum(key) for key in rest.coeffs}
    if len(degrees) > 1:
        raise ValueError("decompose_schur expects a homogeneous polynomial")
    while not rest.is_zero():
        lead = max(rest.coeffs)
        mult = rest.coeffs[lead]
        if mult < 0:
            raise NotSchurPositiveError(f"negative coefficient {mult} at leading weight {lead}")
        out.append((lead, mult))
        rest = rest.add_scaled(schur_poly(lead, f.k), -mult)
    return out
