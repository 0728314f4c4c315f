"""Symmetric polynomials in the monomial basis.

A SymPoly in k variables is a sparse map from partitions (of height <= k)
to integer coefficients: the coefficient at kappa is the coefficient of the
monomial X^kappa, equivalently the m_kappa coordinate.  A key is a shape
(partitions.partition checks it); a read at a composition kappa reads the
coefficient at kappa sorted, as a symmetric polynomial has the same
coefficient at every rearrangement of kappa.  This is the
representation in which plethysm composition and weight-space reads are
immediate.

Schur polynomials and plethysms are sums of Kostka rows
(tableaux._kostka_row), whose keys are partitions already, so they are
built without re-checking each key; the public SymPoly(k, coeffs) checks
every key.  decompose_schur peels in one pass over the partitions of the
degree, reading one Kostka row per lead.
"""

from __future__ import annotations

from .characters import plethysm_schur_table
from .partitions import Composition, Partition, canonical, partition, partitions_of
from .tableaux import _kostka_row


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

    @classmethod
    def _of_partitions(cls, k: int, coeffs: dict[Partition, int]) -> "SymPoly":
        """A SymPoly that keeps coeffs as its own, without re-checking it:
        every key a partition of height <= k and no value zero, as in Kostka
        rows and positive sums of them."""
        poly = cls.__new__(cls)
        poly.k = k
        poly.coeffs = coeffs
        return poly

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
    if k <= 0:
        raise ValueError("variable count must be positive")
    return SymPoly._of_partitions(k, dict(_kostka_row(nu, min(k, sum(nu)))))


def plethysm_poly(mu: Partition, nu: Partition, k: int) -> SymPoly:
    """Monomial-basis expansion of the plethysm of s_mu with s_nu in k
    variables; homogeneous of degree |mu|*|nu|.

    Assembled from the exact Schur expansion of the plethysm (power-sum
    route, characters.plethysm_schur_table, which raises SizeCapError above
    characters.POWER_SUM_N_MAX) and Kostka rows, whose keys are partitions
    already, so the result is built without re-checking them.
    """
    if k <= 0:
        raise ValueError("variable count must be positive")
    out: dict[Partition, int] = {}
    get = out.get
    for lam, mult in plethysm_schur_table(mu, nu).items():
        for pi, kc in _kostka_row(lam, min(k, sum(lam))).items():
            out[pi] = get(pi, 0) + mult * kc
    return SymPoly._of_partitions(k, out)


def decompose_schur(f: SymPoly) -> list[tuple[Partition, int]]:
    """Schur expansion by leading-monomial peeling: subtract c * s_kappa
    for the lexicographically greatest surviving key kappa, until nothing
    survives.

    One pass over the partitions of the degree with at most k parts, in
    partitions_of's decreasing lexicographic order, on a plain dict: s_kappa
    has no monomial above kappa in that order (its Kostka row is
    dominated by kappa), so every key before kappa is already peeled when
    kappa is reached, and kappa is the lead if it survives.  Each lead
    reads one Kostka row (_kostka_row).

    Valid for genuine nonnegative integer combinations of Schur polynomials;
    a negative leading coefficient raises NotSchurPositiveError, also at a
    key that the input lacks and that an earlier peel made negative.
    """
    degrees = {sum(key) for key in f.coeffs}
    if len(degrees) > 1:
        raise ValueError("decompose_schur expects a homogeneous polynomial")
    if not degrees:
        return []
    (n,) = degrees
    k = min(f.k, n)
    rest = dict(f.coeffs)
    get = rest.get
    out: list[tuple[Partition, int]] = []
    for lead in partitions_of(n, max_parts=k):
        mult = get(lead, 0)
        if not mult:
            continue
        if mult < 0:
            raise NotSchurPositiveError(f"negative coefficient {mult} at leading weight {lead}")
        out.append((lead, mult))
        # the row holds lead itself at K = 1, which clears it
        for pi, kc in _kostka_row(lead, k).items():
            nv = get(pi, 0) - mult * kc
            if nv:
                rest[pi] = nv
            else:
                del rest[pi]
        if not rest:
            break
    return out
