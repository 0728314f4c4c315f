"""Positive combinatorial formulas for restricted plethysm coefficients.

For outer shapes whose columns are split into a complete-pyramid part and a
single-layer part, and inner degree 3, the plethysm coefficient equals the
number of semistandard tableaux filled with cone points, ordered by
coordinate sum.  This module builds the column decomposition, recognizes
the admissible (mu, nu, lam) triples, and counts the tableaux.  The cone
points that fit under lam are exactly the weights of the inner tableaux
under lam, so the count is the weight multiplicity q_lam(mu, nu) of
coefficients.weight_multiplicity, and shares its memo: a single column is
counted as point sets, a single row by letter elimination, any other shape
by the weighted horizontal-strip DP over those letters; no tableau is
filled.  Membership is one forward pass over
the columns: with the pyramids' marginals taken out of lam, each column
spends a layer vector from the residual, and partial splits that leave
equal residuals are kept together.  Nothing recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .coefficients import _CONE_OF_INNER, weight_multiplicity
from .partitions import Composition, Partition, _transpose, canonical, compositions_of, nonincreasing, partition, subtract
from .tomography import ConeKind, cone_kind, coordinate_sum, iota, pyramid_marginal, xi

PlethysmVariant = Literal["sym", "wedge"]

# the inner shape of each variant; its cone is coefficients._CONE_OF_INNER
_INNER: dict[PlethysmVariant, Partition] = {"sym": (3,), "wedge": (1, 1, 1)}


def _kind(variant: PlethysmVariant) -> ConeKind:
    """Cone kind of a variant; an unknown variant is a ValueError."""
    if variant not in _INNER:
        raise ValueError(f"unknown variant {variant!r}, expected one of {sorted(_INNER)}")
    return _CONE_OF_INNER[_INNER[variant]]


def variant_of_inner(nu: Partition) -> PlethysmVariant:
    nu = canonical(nu)
    for variant, shape in _INNER.items():
        if shape == nu:
            return variant
    raise ValueError(f"inner shape must be (3,) or (1,1,1), got {nu}")


def pyramid_size(r: int, kind: ConeKind) -> int:
    """Number of points in the complete pyramid of all layers <= r."""
    cone_kind(kind)
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
        return _kind(self.variant)


def psi_decompose(mu: Partition, variant: PlethysmVariant) -> PsiDecomposition:
    """Split every column height n_j at the minimal threshold r_j with
    n_j < pyramid_size(r_j), which is iota(n_j + 1): the column holds the
    full pyramid below r_j plus n_j - pyramid_size(r_j - 1) boxes on layer
    r_j."""
    mu = partition(mu)
    kind = _kind(variant)
    heights = _transpose(mu)
    thresholds = tuple(iota(n_j + 1, kind) for n_j in heights)
    pyr = tuple(pyramid_size(r_j - 1, kind) for r_j in thresholds)
    layer = tuple(n_j - below for n_j, below in zip(heights, pyr))
    return PsiDecomposition(variant, heights, thresholds, pyr, layer)


def psi_splits(mu: Partition, nu: Partition, lam: Composition) -> list[tuple[tuple[int, ...], ...]]:
    """All splits of lam certifying membership in the restricted class: after
    subtracting the per-column pyramid marginals, the remainder must divide
    into per-column vectors supported on [0, r_j] with layer_parts[j] points'
    worth of mass concentrated at coordinate sum r_j.

    One forward pass over the columns keeps a map from each residual to the
    partial splits that leave it; the splits are those left at ()."""
    decomp = psi_decompose(mu, variant_of_inner(nu))
    lam = canonical(lam)
    if not nonincreasing(lam) or sum(lam) != 3 * sum(mu):
        return []
    kind = decomp.kind
    remainder: Composition | None = lam
    for r_j in decomp.thresholds:
        remainder = subtract(remainder, pyramid_marginal(r_j - 1, kind))
        if remainder is None:
            return []
    splits: dict[Composition, list[tuple[tuple[int, ...], ...]]] = {remainder: [()]}
    for r_j, n_hat in zip(decomp.thresholds, decomp.layer_parts):
        nxt: dict[Composition, list[tuple[tuple[int, ...], ...]]] = {}
        for residual, partial in splits.items():
            for vec in compositions_of(3 * n_hat, r_j + 1, residual[: r_j + 1]):
                if coordinate_sum(vec) == n_hat * r_j:
                    part = canonical(vec)
                    # vec <= residual entrywise, so the difference is never None
                    nxt.setdefault(subtract(residual, vec), []).extend(acc + (part,) for acc in partial)
        splits = nxt
    return splits.get((), [])


def psi_membership(mu: Partition, nu: Partition, lam: Composition) -> bool:
    """True iff some split certifies (mu, nu, lam) as a restricted instance."""
    return bool(psi_splits(mu, nu, lam))


def count_cone_ssyt(mu: Partition, lam: Composition, variant: PlethysmVariant, tiebreak: str = "lex") -> int:
    """Number of cone-point tableaux of shape mu and pooled marginal lam;
    on restricted instances this equals the general plethysm coefficient
    of lam in the mu-functor of the degree-3 inner module.

    Each cone point is a letter weighted by its sum-marginal vector, so the
    count is the coefficient of x^lam in s_mu at those letters' monomials.
    The points whose marginal fits under lam are exactly the weights of the
    inner tableaux under lam, so that coefficient is the weight
    multiplicity q_lam(mu, nu) of coefficients.weight_multiplicity, and the
    count reads the same memo as the plethysm coefficient it is checked
    against (a single column as point sets, a single row by letter
    elimination, any other shape by the strip DP).  The coefficient is
    symmetric in the letters, so ``tiebreak`` never reaches the count; it
    is still checked to name a known order of the letters within a layer,
    "lex" or "revlex"."""
    if tiebreak not in ("lex", "revlex"):
        raise ValueError(f"unknown tiebreak {tiebreak!r}")
    _kind(variant)  # an unknown variant is a ValueError
    nu = _INNER[variant]
    if not psi_membership(mu, nu, lam):
        raise ValueError(f"({mu}, {nu}, {canonical(lam)}) is not a restricted instance")
    return weight_multiplicity(mu, nu, lam)
