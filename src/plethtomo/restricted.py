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
filled.

Membership is one forward pass over the columns on a set of residuals:
with the pyramids' marginals taken out of lam, each column spends a layer
vector from every residual in the set, equal residuals merge, and the pass
stops with False as soon as the set is empty; no split is listed.  psi_splits
runs the same pass with the partial splits that leave each residual.  Both
draw a column's layer vectors from one generator that walks an explicit
stack and bounds each entry by the residual and by both sums at once (the
entry sum 3 n_hat and the coordinate sum n_hat r_j), rather than listing
every composition of 3 n_hat and filtering on the coordinate sum.  The
last column walks nothing: it must leave (), so its one layer vector is the
residual itself, and a residual finishes a split iff it has at most r_j + 1
entries, entry sum 3 n_hat and coordinate sum n_hat r_j (_ends_split);
psi_splits appends that residual.  A one-column mu is decided by that test
alone, and mu = () has no column, so lam = () is its one member.  Nothing
recurses.  psi_decompose is memoized per (mu, variant),
PSI_DECOMPOSE_MAXSIZE decompositions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Literal

from .coefficients import _CONE_OF_INNER, weight_multiplicity
from .partitions import Composition, FrozenRecord, Partition, _transpose, canonical, nonincreasing, pad, partition, subtract
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


class PsiDecomposition(FrozenRecord):
    """Column split of the outer shape: column j of height n_j is cut into
    the largest complete pyramid that fits strictly (pyramid_part, the
    size of the pyramid below threshold r_j) and layer_part extra boxes
    confined to layer r_j."""

    __slots__ = ("variant", "column_heights", "thresholds", "pyramid_parts", "layer_parts")

    def __init__(
        self,
        variant: PlethysmVariant,
        column_heights: tuple[int, ...],
        thresholds: tuple[int, ...],
        pyramid_parts: tuple[int, ...],
        layer_parts: tuple[int, ...],
    ):
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "column_heights", column_heights)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "pyramid_parts", pyramid_parts)
        object.__setattr__(self, "layer_parts", layer_parts)

    @property
    def kind(self) -> ConeKind:
        return _kind(self.variant)


PSI_DECOMPOSE_MAXSIZE = 256
"""The most column decompositions _psi_decomposition keeps, one per (mu,
variant).  The ops of a round of the benchmark's bounds_sandwich
workload read 22 keys 52 times (each restricted op checks membership
under both tiebreaks); every mu |- n <= 9 in both variants makes 192."""


def psi_decompose(mu: Partition, variant: PlethysmVariant) -> PsiDecomposition:
    """Split every column height n_j at the minimal threshold r_j with
    n_j < pyramid_size(r_j), which is iota(n_j + 1): the column holds the
    full pyramid below r_j plus n_j - pyramid_size(r_j - 1) boxes on layer
    r_j.  The record is immutable, so one per (mu, variant) is kept."""
    return _psi_decomposition(partition(mu), variant)


@lru_cache(maxsize=PSI_DECOMPOSE_MAXSIZE)
def _psi_decomposition(mu: Partition, variant: PlethysmVariant) -> PsiDecomposition:
    kind = _kind(variant)
    heights = _transpose(mu)
    thresholds = tuple(iota(n_j + 1, kind) for n_j in heights)
    pyr = tuple(pyramid_size(r_j - 1, kind) for r_j in thresholds)
    layer = tuple(n_j - below for n_j, below in zip(heights, pyr))
    return PsiDecomposition(variant, heights, thresholds, pyr, layer)


def _layer_vectors(n_hat: int, r: int, residual: Composition) -> Iterator[tuple[int, ...]]:
    """The vectors on [0, r] with entry sum 3 n_hat and coordinate sum
    n_hat r, entrywise <= residual, in decreasing lexicographic order (that
    of partitions.compositions_of).  Walks an explicit stack of prefixes;
    the entries after position i hold at most their residuals' sum, and
    between (i + 1) and r times their own sum of coordinate sum, which
    bounds the entry at i from both sides."""
    cap = pad(canonical(residual[: r + 1]), r + 1)
    room = [0] * (r + 2)  # room[i]: the most that entries i.. can hold
    for i in range(r, -1, -1):
        room[i] = room[i + 1] + cap[i]
    stack: list[tuple[tuple[int, ...], int, int]] = [((), 3 * n_hat, n_hat * r)]
    while stack:
        prefix, left, wleft = stack.pop()
        i = len(prefix)
        if i == r:
            if wleft == r * left and left <= cap[r]:
                yield prefix + (left,)
            continue
        lo = max(0, left - room[i + 1], (i + 1) * left - wleft)
        hi = min(cap[i], left, (r * left - wleft) // (r - i))
        # ascending, so the largest entry is popped first
        stack.extend((prefix + (v,), left - v, wleft - i * v) for v in range(lo, hi + 1))


def _residual(mu: Partition, nu: Partition, lam: Composition) -> tuple[PsiDecomposition, Composition | None]:
    """mu's decomposition and what lam leaves once every column's pyramid
    marginal is taken out, or None if lam is no partition of 3|mu| or a
    pyramid does not fit."""
    decomp = psi_decompose(mu, variant_of_inner(nu))
    lam = canonical(lam)
    if not nonincreasing(lam) or sum(lam) != 3 * sum(mu):
        return decomp, None
    kind = decomp.kind
    remainder: Composition | None = lam
    for r_j in decomp.thresholds:
        remainder = subtract(remainder, pyramid_marginal(r_j - 1, kind))
        if remainder is None:
            break
    return decomp, remainder


def _ends_split(residual: Composition, n_hat: int, r: int) -> bool:
    """True iff residual is a layer vector of a column (n_hat, r): at most
    r + 1 entries, entry sum 3 n_hat and coordinate sum n_hat r.  The last
    column must leave (), so the residual itself is the one vector it can
    spend, and this test stands in for its walk."""
    return len(residual) <= r + 1 and sum(residual) == 3 * n_hat and coordinate_sum(residual) == n_hat * r


def psi_splits(mu: Partition, nu: Partition, lam: Composition) -> list[tuple[tuple[int, ...], ...]]:
    """All splits of lam certifying membership in the restricted class: after
    subtracting the per-column pyramid marginals, the remainder must divide
    into per-column vectors supported on [0, r_j] with layer_parts[j] points'
    worth of mass concentrated at coordinate sum r_j.

    One forward pass over the columns but the last keeps a map from each
    residual to the partial splits that leave it; a residual that is
    itself the last column's layer vector (_ends_split) completes its
    splits with it."""
    decomp, remainder = _residual(mu, nu, lam)
    if remainder is None:
        return []
    if not decomp.thresholds:
        return [()]  # mu = (): _residual passed lam = () alone
    splits: dict[Composition, list[tuple[tuple[int, ...], ...]]] = {remainder: [()]}
    *columns, (r_last, n_last) = zip(decomp.thresholds, decomp.layer_parts)
    for r_j, n_hat in columns:
        nxt: dict[Composition, list[tuple[tuple[int, ...], ...]]] = {}
        for residual, partial in splits.items():
            for vec in _layer_vectors(n_hat, r_j, residual):
                part = canonical(vec)
                # vec <= residual entrywise, so the difference is never None
                nxt.setdefault(subtract(residual, vec), []).extend(acc + (part,) for acc in partial)
        splits = nxt
    return [acc + (residual,) for residual, partial in splits.items() if _ends_split(residual, n_last, r_last) for acc in partial]


def psi_membership(mu: Partition, nu: Partition, lam: Composition) -> bool:
    """True iff some split certifies (mu, nu, lam) as a restricted instance:
    psi_splits' forward pass on the set of residuals alone, False as soon
    as no residual is left."""
    decomp, remainder = _residual(mu, nu, lam)
    if remainder is None:
        return False
    if not decomp.thresholds:
        return True  # mu = (): _residual passed lam = () alone
    residuals = {remainder}
    *columns, (r_last, n_last) = zip(decomp.thresholds, decomp.layer_parts)
    for r_j, n_hat in columns:
        # vec <= residual entrywise, so the difference is never None
        residuals = {subtract(residual, vec) for residual in residuals for vec in _layer_vectors(n_hat, r_j, residual)}
        if not residuals:
            return False
    return any(_ends_split(residual, n_last, r_last) for residual in residuals)


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
