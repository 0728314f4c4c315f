"""Positive combinatorial formulas for restricted plethysm coefficients.

For outer shapes whose columns are split into a complete-pyramid part and a
single-layer part, and inner degree 3, the plethysm coefficient equals the
number of semistandard tableaux filled with cone points, ordered by
coordinate sum.  This module builds the column decomposition, recognizes
the admissible (mu, nu, lam) triples, and counts the tableaux with the
weighted horizontal-strip DP of tableaux.count_weighted_ssyt, one letter
per cone point; no tableau is filled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

from .partitions import Composition, Partition, canonical, is_partition, subtract, transpose
from .tableaux import count_weighted_ssyt
from .tomography import ConeKind, Point, _candidates, in_cone, pyramid_marginal, xi

PlethysmVariant = Literal["sym", "wedge"]

_KIND: dict[PlethysmVariant, ConeKind] = {"sym": "closed", "wedge": "open"}


def variant_of_inner(nu: Partition) -> PlethysmVariant:
    nu = canonical(nu)
    if nu == (3,):
        return "sym"
    if nu == (1, 1, 1):
        return "wedge"
    raise ValueError(f"inner shape must be (3,) or (1,1,1), got {nu}")


def pyramid_size(r: int, kind: ConeKind) -> int:
    """Number of points in the complete pyramid of all layers <= r."""
    return sum(xi(i, kind) for i in range(r + 1)) if r >= 0 else 0


@dataclass(frozen=True)
class PsiDecomposition:
    """Column split of the outer shape: column j of height n_j is cut into
    the largest complete pyramid that fits strictly (pyramid_part, the
    size of the pyramid below threshold r_j) and layer_part extra boxes
    confined to layer r_j."""

    variant: PlethysmVariant
    column_heights: tuple[int, ...]
    thresholds: tuple[int, ...]
    pyramid_parts: tuple[int, ...]
    layer_parts: tuple[int, ...]

    @property
    def kind(self) -> ConeKind:
        return _KIND[self.variant]


def psi_decompose(mu: Partition, variant: PlethysmVariant) -> PsiDecomposition:
    """Split every column height n_j at the minimal threshold r_j with
    n_j < pyramid_size(r_j): the column holds the full pyramid below r_j
    plus n_j - pyramid_size(r_j - 1) boxes on layer r_j."""
    mu = canonical(mu)
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")
    kind = _KIND[variant]
    heights = transpose(mu)
    thresholds = []
    pyr = []
    layer = []
    for n_j in heights:
        r_j = 0
        while pyramid_size(r_j, kind) <= n_j:
            r_j += 1
        thresholds.append(r_j)
        below = pyramid_size(r_j - 1, kind)
        pyr.append(below)
        layer.append(n_j - below)
    return PsiDecomposition(variant, heights, tuple(thresholds), tuple(pyr), tuple(layer))


def _layer_vectors(total: int, weighted: int, r: int, bound: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Vectors v >= 0 with support in [0, r], sum(v) = total,
    sum(i*v_i) = weighted, and v <= bound entrywise."""
    top = min(r, len(bound) - 1)

    def rec(i: int, left: int, wleft: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i > top:
            if left == 0 and wleft == 0:
                yield prefix
            return
        if wleft < 0 or left < 0:
            return
        # remaining indices cannot absorb more weight than top*left
        if wleft > top * left:
            return
        for v in range(min(left, bound[i]) + 1):
            yield from rec(i + 1, left - v, wleft - i * v, prefix + (v,))

    yield from rec(0, total, weighted, ())


def psi_splits(mu: Partition, nu: Partition, lam: Composition) -> list[tuple[tuple[int, ...], ...]]:
    """All splits of lam certifying membership in the restricted class: after
    subtracting the per-column pyramid marginals, the remainder must divide
    into per-column vectors supported on [0, r_j] with layer_parts[j] points'
    worth of mass concentrated at coordinate sum r_j."""
    variant = variant_of_inner(nu)
    decomp = psi_decompose(mu, variant)
    lam = canonical(lam)
    if not is_partition(lam) or sum(lam) != 3 * sum(mu):
        return []
    kind = decomp.kind
    checked = lam
    for r_j in decomp.thresholds:
        res = subtract(checked, pyramid_marginal(r_j - 1, kind))
        if res is None:
            return []
        checked = res
    remainder = checked

    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(j: int, residual: Composition, acc: tuple[tuple[int, ...], ...]) -> None:
        if j == len(decomp.thresholds):
            if sum(residual) == 0:
                out.append(acc)
            return
        r_j = decomp.thresholds[j]
        n_hat = decomp.layer_parts[j]
        bound = tuple(residual) + (0,) * max(0, r_j + 1 - len(residual))
        for vec in _layer_vectors(3 * n_hat, n_hat * r_j, r_j, bound):
            res = subtract(residual, vec)
            if res is not None:
                rec(j + 1, res, acc + (canonical(vec),))

    rec(0, remainder, ())
    return out


def psi_membership(mu: Partition, nu: Partition, lam: Composition) -> bool:
    """True iff some split certifies (mu, nu, lam) as a restricted instance."""
    return bool(psi_splits(mu, nu, lam))


_TIEBREAKS = {
    "lex": lambda p: (p[0] + p[1] + p[2], p),
    "revlex": lambda p: (p[0] + p[1] + p[2], tuple(-c for c in p)),
}


def cone_alphabet(kind: ConeKind, coord_bound: int, tiebreak: str = "lex") -> list[Point]:
    """Cone points with all coordinates < coord_bound, totally ordered by
    coordinate sum with the given tiebreak inside each layer.  Any tiebreak
    yields the same tableau counts; two are provided to test that."""
    if tiebreak not in _TIEBREAKS:
        raise ValueError(f"unknown tiebreak {tiebreak!r}")
    pts = [
        (x, y, z)
        for x in range(coord_bound)
        for y in range(coord_bound)
        for z in range(coord_bound)
        if in_cone((x, y, z), kind)
    ]
    return sorted(pts, key=_TIEBREAKS[tiebreak])


def count_cone_ssyt(mu: Partition, lam: Composition, variant: PlethysmVariant, tiebreak: str = "lex") -> int:
    """Number of cone-point tableaux of shape mu and pooled marginal lam;
    on restricted instances this equals the general plethysm coefficient
    of lam in the mu-functor of the degree-3 inner module.

    Each cone point is a letter weighted by its sum-marginal vector, so the
    count is the coefficient of x^lam in s_mu at those letters' monomials,
    which count_weighted_ssyt computes by its horizontal-strip DP.  Only the
    points whose marginal fits under lam can appear, and those are the
    letters.  The coefficient is symmetric in the letters, so the count does
    not depend on ``tiebreak``; it is still checked to be a known order."""
    if tiebreak not in _TIEBREAKS:
        raise ValueError(f"unknown tiebreak {tiebreak!r}")
    nu: Partition = (3,) if variant == "sym" else (1, 1, 1)
    if not psi_membership(mu, nu, lam):
        raise ValueError(f"({mu}, {nu}, {canonical(lam)}) is not a restricted instance")
    lam = canonical(lam)
    letters = [tuple(p.count(i) for i in range(len(lam))) for p in _candidates(lam, _KIND[variant])]
    return count_weighted_ssyt(mu, letters, lam)
