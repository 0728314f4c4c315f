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
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import CoefficientResult, Variant, _family_cone, outer_shape, plethysm_coeff
from .partitions import Composition, Partition, _add, _transpose, canonical, nonincreasing, pad, partition, transpose
from .tomography import (
    ConeKind,
    Point,
    SymInstance,
    XRayInstance2D,
    _is_promise,
    cone_kind,
    coordinate_sum,
    pyramid_marginal,
)


@dataclass(frozen=True)
class PlethysmInstance:
    lam: Partition
    n: int
    m: int
    variant: Variant


@dataclass(frozen=True)
class TriviallyZero:
    reason: str


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


class _stage:
    """A chain stage built on its first read and stored under its own name
    in the instance __dict__, where later reads find it before this
    non-data descriptor.  functools.cached_property does the same, but on
    Python 3.11 it takes a lock on every first read: about 0.8 us for a
    first read of a trivial stage against 0.3 us here (timeit on a 2-vCPU
    x86_64 host)."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, chain, owner=None):
        if chain is None:
            return self
        value = chain.__dict__[self.name] = self.build(chain)
        return value


@dataclass(frozen=True)
class KroneckerPlethysmTriple:
    """The reduction chain of one feasible axis-marginal instance `inst`.
    Each stage is built when it is first read, and only once.  Per cone
    ("open", then "closed"): `sym2d` is its spread layer instance,
    `promise3d` that layer's pyramid embedding, `promise` whether the
    embedding is a promise instance, and `queries` its plethysm query
    (open: a_instance, closed: b_instance).  `triple` is (mu, nu, rho)."""

    inst: XRayInstance2D

    @_stage
    def sym2d(self) -> dict[ConeKind, SymInstance]:
        return {kind: symmetrize_2d(self.inst, kind) for kind in ("open", "closed")}

    @_stage
    def promise3d(self) -> dict[ConeKind, SymInstance]:
        return {kind: _embed_pyramid_3d(sym.marginal, sym.grid_r, kind) for kind, sym in self.sym2d.items()}

    @_stage
    def promise(self) -> dict[ConeKind, bool]:
        return {kind: _is_promise(emb.marginal, kind) for kind, emb in self.promise3d.items()}

    @_stage
    def queries(self) -> dict[ConeKind, PlethysmInstance]:
        return {
            kind: _promise_query(emb.marginal, kind) if self.promise[kind] else TRIVIAL_NO_INSTANCE
            for kind, emb in self.promise3d.items()
        }

    @_stage
    def triple(self) -> tuple[Partition, Partition, Partition]:
        # every axis marginal of the radius r-1 simplex: a slice at value i
        # holds the (r-i)(r-i+1)/2 points of the plane simplex of radius r-1-i
        r = self.inst.r
        sq = tuple((r - i) * (r - i + 1) // 2 for i in range(r))
        # sq is positive below index r and a marginal is canonical, so every
        # entry of a padded marginal is positive: sorted, it is a partition
        return tuple(_transpose(tuple(sorted(_add(m, sq), reverse=True))) for m in (self.inst.mu, self.inst.nu, self.inst.rho))

    mu = property(lambda self: self.triple[0])
    nu = property(lambda self: self.triple[1])
    rho = property(lambda self: self.triple[2])
    a_instance = property(lambda self: self.queries["open"])
    b_instance = property(lambda self: self.queries["closed"])


def kronecker_plethysm_triple(inst: XRayInstance2D) -> KroneckerPlethysmTriple:
    """The reduction chain of a feasible axis-marginal instance of range
    r >= 1, as one record (stages built as they are read): every stage, and
    the a-, b- and Kronecker coefficients, count the instance's solutions.
    Each cone's promise is decided once.  An embedding off the promise has
    no solutions (it is the fixed zero instance, or asks for more points
    than its top layer holds), so its query is the no-instance.

    The triple pads the marginals with those of the radius r-1 simplex: that
    is the choice under which the character oracle matches the solution
    count on every feasible instance (see README).  Sorting the padded
    marginals is count-neutral: relabeling the values along one axis of a
    spatial instance permutes its solutions bijectively.
    """
    if inst.r < 1:
        raise ValueError("range-0 instances are counted directly, not reduced")
    if not inst.passes_gate():
        raise ValueError("instance fails the feasibility gate (marginal totals / coordinate sum)")
    return KroneckerPlethysmTriple(inst)
