"""The parsimonious reduction chain and the Kronecker-plethysm triple.

Stages, each preserving the exact solution count:

1. axis-marginal grid instances to sum-marginal grid instances (block
   spreading over a 13x larger range, witness map gamma);
2. sum-marginal grid instances to coordinate-sum-minimal ("promise")
   instances in the full cone, by stacking the complete pyramid under the
   layer;
3. promise instances to single plethysm coefficients (_family_cone read
   backwards), which plethysm_coeff answers by the point-set count.

Composing both cone variants with the simplex construction yields, for one
axis-marginal instance, a Kronecker triple and two plethysm instances whose
coefficients all equal the instance's solution count.

kronecker_plethysm_triple builds the whole chain of one instance as a
KroneckerPlethysmTriple record, under the range cap REDUCE_R_MAX; the stage
functions themselves take any range.
"""

from __future__ import annotations

from .coefficients import CoefficientResult, Variant, _family_cone, outer_shape, plethysm_coeff
from .partitions import Composition, FrozenRecord, Partition, _add, _transpose, canonical, nonincreasing, pad, partition, transpose
from .tomography import (
    ConeKind,
    Point,
    SizeCapError,
    SymInstance,
    XRayInstance2D,
    _is_promise,
    cone_kind,
    coordinate_sum,
    pyramid_marginal,
)


REDUCE_R_MAX = 100
"""The largest range the chain is built at, up to the embeddings
(_promise_stages) or whole (kronecker_plethysm_triple).  The
pyramid embedding sums the marginal of the complete pyramid below layer
13r, quadratic in r: on a shared 2-vCPU host the one-point chain took
about 0.4 s at r = 100 and 1.5-1.7 s at r = 200.  The spread layer alone
(symmetrize_2d) is linear and takes any range."""


class PlethysmInstance(FrozenRecord):
    """One plethysm coefficient query: the variant-family coefficient of
    the shape lam at outer degree n and inner degree m."""

    __slots__ = ("lam", "n", "m", "variant")

    def __init__(self, lam: Partition, n: int, m: int, variant: Variant):
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "variant", variant)


class TriviallyZero(FrozenRecord):
    """A query whose coefficient is 0, and why."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        object.__setattr__(self, "reason", reason)


# the designated no-instance: its coefficient is 0
TRIVIAL_NO_INSTANCE = PlethysmInstance((2, 1), 1, 3, "b")


def inner_lift(lam: Partition, n: int, m: int, variant: Variant) -> PlethysmInstance | TriviallyZero:
    """Trade the inner degree m for m+1 while swapping the coefficient
    family: the a-coefficient of lam at (n,m) equals the b-coefficient at
    (n,m+1) of the transpose of (n, lam^t), and symmetrically.

    Shapes taller than n carry coefficient 0 and are reported as such.
    """
    outer_shape(n, variant)
    lam = partition(lam)
    if sum(lam) != n * m:
        raise ValueError(f"|lam|={sum(lam)} != n*m={n * m}")
    if len(lam) > n:
        return TriviallyZero(f"height {len(lam)} exceeds outer degree {n}")
    pi = transpose((n,) + _transpose(lam))
    return PlethysmInstance(pi, n, m + 1, "b" if variant == "a" else "a")


def symmetrize_2d(inst: XRayInstance2D, kind: ConeKind) -> SymInstance:
    """Spread the three axis marginals over the range [0, 13r'] so that a
    single sum-marginal carries the same information: the Z-marginal sits at
    [0, r'], the Y-marginal at [3r', 4r'], the X-marginal at [9r', 10r'].
    Solution counts agree via the witness map gamma.
    """
    cone_kind(kind)
    rp = inst.r
    if rp == 0:
        raise ValueError("range-0 instances degenerate under symmetrization; count them directly")
    mu = pad(inst.mu, rp + 1)
    nu = pad(inst.nu, rp + 1)
    rho = pad(inst.rho, rp + 1)
    lam = rho + (0,) * (2 * rp - 1) + nu + (0,) * (5 * rp - 1) + mu + (0,) * (3 * rp)
    return SymInstance(lam, kind, 13 * rp)


def gamma_embed(points: frozenset[Point] | set[Point], rp: int) -> frozenset[Point]:
    """Witness map into the spread instance: (x,y,z) -> (x+9r', y+3r', z)."""
    return frozenset((x + 9 * rp, y + 3 * rp, z) for (x, y, z) in points)


def gamma_extract(points: frozenset[Point] | set[Point], rp: int) -> frozenset[Point]:
    """Inverse witness map.  Every solution point of the spread instance
    must have its x in [9r', 10r'], y in [3r', 4r'] and z in [0, r']; a
    point outside those blocks would contradict the interval argument."""
    out = set()
    for x, y, z in points:
        if not (9 * rp <= x <= 10 * rp and 3 * rp <= y <= 4 * rp and 0 <= z <= rp):
            raise ValueError(f"point {(x, y, z)} lies outside the block ranges for r'={rp}")
        out.add((x - 9 * rp, y - 3 * rp, z))
    return frozenset(out)


# a 3D instance with no solutions: its size is not a multiple of 3
CANONICAL_ZERO_3D = {"open": SymInstance((1,), "open", None), "closed": SymInstance((1,), "closed", None)}


def embed_pyramid_3d(lam_hat: Composition, r: int, kind: ConeKind) -> SymInstance:
    """Stack the complete pyramid of the layers below r under a single-layer
    marginal: solutions of the layer instance correspond one-to-one to
    solutions of the resulting full-cone instance, whose coordinate sum is
    forced to the minimum for its size.

    Infeasible layer marginals map to a fixed zero-count 3D instance.
    """
    return _embed_pyramid_3d(canonical(lam_hat), r, cone_kind(kind))


def _embed_pyramid_3d(lam_hat: Composition, r: int, kind: ConeKind) -> SymInstance:
    """embed_pyramid_3d on a canonical lam_hat."""
    total = sum(lam_hat)
    if total % 3 != 0 or len(lam_hat) > r + 1 or coordinate_sum(lam_hat) != r * (total // 3):
        return CANONICAL_ZERO_3D[kind]
    return SymInstance(_add(pyramid_marginal(r - 1, kind), lam_hat), kind, None)


def promise_to_plethysm(lam: Composition, kind: ConeKind) -> PlethysmInstance:
    """Final stage: a promise instance becomes a single coefficient query
    (_family_cone, read backwards).  Marginals that are not partitions, or
    whose size is not a multiple of 3, have no solutions and map to the
    fixed no-instance.
    """
    cone_kind(kind)
    lam = canonical(lam)
    if sum(lam) % 3 != 0:
        return TRIVIAL_NO_INSTANCE
    if nonincreasing(lam) and not _is_promise(lam, kind):
        raise ValueError(f"{lam} is not a promise instance for the {kind} cone")
    return _promise_query(lam, kind)


def _promise_query(lam: Composition, kind: ConeKind) -> PlethysmInstance:
    """promise_to_plethysm on a canonical lam that is a promise instance of
    the cone, or is no partition."""
    if not nonincreasing(lam):
        return TRIVIAL_NO_INSTANCE
    variant = "b" if kind == "closed" else "a"
    return PlethysmInstance(_family_cone(lam, variant)[0], sum(lam) // 3, 3, variant)


def resolve_coefficient(inst: PlethysmInstance) -> CoefficientResult:
    """Exact value of a plethysm instance: coefficients.plethysm_coeff on
    its fields, which counts a chain query's point sets."""
    return plethysm_coeff(inst.lam, inst.n, inst.m, inst.variant)


class KroneckerPlethysmTriple(FrozenRecord):
    """The reduction chain of one feasible axis-marginal instance `inst`,
    every stage built once by kronecker_plethysm_triple.  Per cone
    ("open", then "closed"): `sym2d` is its spread layer instance,
    `promise3d` that layer's pyramid embedding, `promise` whether the
    embedding is a promise instance, and `queries` its plethysm query
    (open: a_instance, closed: b_instance).  `triple` is (mu, nu, rho).
    The stages follow from `inst`, so records compare, hash and show by it
    alone."""

    __slots__ = ("inst", "sym2d", "promise3d", "promise", "queries", "triple")
    _compared = ("inst",)

    def __init__(
        self,
        inst: XRayInstance2D,
        sym2d: dict[ConeKind, SymInstance],
        promise3d: dict[ConeKind, SymInstance],
        promise: dict[ConeKind, bool],
        queries: dict[ConeKind, PlethysmInstance],
        triple: tuple[Partition, Partition, Partition],
    ):
        object.__setattr__(self, "inst", inst)
        object.__setattr__(self, "sym2d", sym2d)
        object.__setattr__(self, "promise3d", promise3d)
        object.__setattr__(self, "promise", promise)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "triple", triple)

    mu = property(lambda self: self.triple[0])
    nu = property(lambda self: self.triple[1])
    rho = property(lambda self: self.triple[2])
    a_instance = property(lambda self: self.queries["open"])
    b_instance = property(lambda self: self.queries["closed"])


def _promise_stages(
    inst: XRayInstance2D,
) -> tuple[dict[ConeKind, SymInstance], dict[ConeKind, SymInstance], dict[ConeKind, bool]]:
    """The chain of a feasible axis-marginal instance of range 1 <= r <=
    REDUCE_R_MAX up to its promise instances, per cone ("open", then
    "closed"): the spread layer instance, its pyramid embedding and whether
    that embedding is a promise instance.  The range cap and the checks are
    those of kronecker_plethysm_triple, which builds the rest of the chain
    on these stages; `reduce --to promise3d` prints them without building
    the triple."""
    if inst.r > REDUCE_R_MAX:
        raise SizeCapError(f"the reduction chain at range {inst.r} is over the cap of {REDUCE_R_MAX}")
    if inst.r < 1:
        raise ValueError("range-0 instances are counted directly, not reduced")
    if not inst.passes_gate():
        raise ValueError("instance fails the feasibility gate (marginal totals / coordinate sum)")
    sym2d = {kind: symmetrize_2d(inst, kind) for kind in ("open", "closed")}
    promise3d = {kind: _embed_pyramid_3d(sym.marginal, sym.grid_r, kind) for kind, sym in sym2d.items()}
    promise = {kind: _is_promise(emb.marginal, kind) for kind, emb in promise3d.items()}
    return sym2d, promise3d, promise


def kronecker_plethysm_triple(inst: XRayInstance2D) -> KroneckerPlethysmTriple:
    """The reduction chain of a feasible axis-marginal instance of range
    1 <= r <= REDUCE_R_MAX, as one record whose stages are built here, once
    and in order: every stage, and the a-, b- and Kronecker coefficients,
    count the instance's solutions.  A range above the cap is refused with
    SizeCapError before any stage is built.  Each cone's promise is decided
    once.  An embedding off the promise has
    no solutions (it is the fixed zero instance, or asks for more points
    than its top layer holds), so its query is the no-instance.

    The triple pads the marginals with those of the radius r-1 simplex: that
    is the choice under which the character oracle matches the solution
    count on every feasible instance (see README).  Sorting the padded
    marginals is count-neutral: relabeling the values along one axis of a
    spatial instance permutes its solutions bijectively.
    """
    sym2d, promise3d, promise = _promise_stages(inst)
    queries = {
        kind: _promise_query(emb.marginal, kind) if promise[kind] else TRIVIAL_NO_INSTANCE
        for kind, emb in promise3d.items()
    }
    # every axis marginal of the radius r-1 simplex: a slice at value i
    # holds the (r-i)(r-i+1)/2 points of the plane simplex of radius r-1-i
    r = inst.r
    sq = tuple((r - i) * (r - i + 1) // 2 for i in range(r))
    # sq is positive below index r and a marginal is canonical, so every
    # entry of a padded marginal is positive: sorted, it is a partition
    triple = tuple(_transpose(tuple(sorted(_add(m, sq), reverse=True))) for m in (inst.mu, inst.nu, inst.rho))
    return KroneckerPlethysmTriple(inst, sym2d, promise3d, promise, queries, triple)
