"""The parsimonious reduction chain and the Kronecker-plethysm triple.

Stages, each preserving the exact solution count:

1. axis-marginal grid instances to sum-marginal grid instances (block
   spreading over a 13x larger range, witness map gamma);
2. sum-marginal grid instances to coordinate-sum-minimal ("promise")
   instances in the full cone, by stacking the complete pyramid under the
   layer;
3. promise instances to single plethysm coefficients.

Composing both cone variants with the simplex construction yields, for one
axis-marginal instance, a Kronecker triple and two plethysm instances whose
coefficients all equal the instance's solution count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .coefficients import CoefficientResult, plethysm_coeff
from .partitions import Composition, Partition, add, canonical, is_partition, pad, transpose
from .tomography import (
    ConeKind,
    Point,
    SymInstance,
    XRayInstance2D,
    coordinate_sum,
    count_point_sets,
    count_pyramids,
    is_promise_instance,
    pyramid_marginal,
)

ORACLE_SIZE_CAP = 18


@dataclass(frozen=True)
class PlethysmInstance:
    lam: Partition
    n: int
    m: int
    variant: Literal["a", "b"]


@dataclass(frozen=True)
class TriviallyZero:
    reason: str


# the designated no-instance: its coefficient is 0
TRIVIAL_NO_INSTANCE = PlethysmInstance((2, 1), 1, 3, "b")


def inner_lift(lam: Partition, n: int, m: int, variant: Literal["a", "b"]) -> PlethysmInstance | TriviallyZero:
    """Trade the inner degree m for m+1 while swapping the coefficient
    family: the a-coefficient of lam at (n,m) equals the b-coefficient at
    (n,m+1) of the transpose of (n, lam^t), and symmetrically.

    Shapes taller than n carry coefficient 0 and are reported as such.
    """
    lam = canonical(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if sum(lam) != n * m:
        raise ValueError(f"|lam|={sum(lam)} != n*m={n * m}")
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    if len(lam) > n:
        return TriviallyZero(f"height {len(lam)} exceeds outer degree {n}")
    pi = transpose((n,) + transpose(lam))
    return PlethysmInstance(pi, n, m + 1, "b" if variant == "a" else "a")


def symmetrize_2d(inst: XRayInstance2D, kind: ConeKind = "closed") -> SymInstance:
    """Spread the three axis marginals over the range [0, 13r'] so that a
    single sum-marginal carries the same information: the Z-marginal sits at
    [0, r'], the Y-marginal at [3r', 4r'], the X-marginal at [9r', 10r'].
    Solution counts agree via the witness map gamma.
    """
    rp = inst.r
    if rp == 0:
        raise ValueError("range-0 instances degenerate under symmetrization; count them directly")
    mu = pad(inst.mu, rp + 1)
    nu = pad(inst.nu, rp + 1)
    rho = pad(inst.rho, rp + 1)
    lam = rho + (0,) * (2 * rp - 1) + nu + (0,) * (5 * rp - 1) + mu + (0,) * (3 * rp)
    return SymInstance(canonical(lam), kind, 13 * rp)


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
    lam_hat = canonical(lam_hat)
    total = sum(lam_hat)
    if total % 3 != 0 or len(lam_hat) > r + 1 or coordinate_sum(lam_hat) != r * (total // 3):
        return CANONICAL_ZERO_3D[kind]
    lam = add(pyramid_marginal(r - 1, kind), lam_hat)
    return SymInstance(lam, kind, None)


def promise_to_plethysm(lam: Composition, kind: ConeKind) -> PlethysmInstance:
    """Final stage: a promise instance becomes a single coefficient query
    (closed cone: b at lam; open cone: a at the transpose).  Marginals that
    are not partitions, or whose size is not a multiple of 3, have no
    solutions and map to the fixed no-instance.
    """
    lam = canonical(lam)
    if not is_partition(lam) or sum(lam) % 3 != 0:
        return TRIVIAL_NO_INSTANCE
    if not is_promise_instance(lam, kind):
        raise ValueError(f"{lam} is not a promise instance for the {kind} cone")
    n = sum(lam) // 3
    if kind == "closed":
        return PlethysmInstance(lam, n, 3, "b")
    return PlethysmInstance(transpose(lam), n, 3, "a")


def resolve_coefficient(inst: PlethysmInstance) -> CoefficientResult:
    """Exact value of a plethysm instance, by the cheapest sound route:

    * promise instances at inner degree 3 are counted as point sets (every
      solution of a promise instance is a pyramid, so this equals the
      pyramid count there, and the coefficient);
    * anything small enough goes to the symmetric-function oracle;
    * otherwise, if the pyramid/point-set bounds coincide the coefficient
      is pinned between them.
    """
    lam = canonical(inst.lam)
    if sum(lam) != inst.n * inst.m:
        return CoefficientResult(0, "degree-mismatch")
    if inst.m == 3:
        marg = lam if inst.variant == "b" else transpose(lam)
        kind: ConeKind = "closed" if inst.variant == "b" else "open"
        if is_promise_instance(marg, kind):
            return CoefficientResult(count_point_sets(marg, kind), "promise-pyramid-count")
    if sum(lam) <= ORACLE_SIZE_CAP:
        return plethysm_coeff(lam, inst.n, inst.m, inst.variant)
    if inst.m == 3:
        lo = count_pyramids(marg, kind)
        hi = count_point_sets(marg, kind)
        if lo == hi:
            return CoefficientResult(lo, "bounds-collapse")
        raise ValueError(f"coefficient not determined: pyramid bound {lo} < point-set bound {hi}")
    raise ValueError(f"instance too large for the oracle: |lam|={sum(lam)}, m={inst.m}")


@dataclass(frozen=True)
class KroneckerPlethysmTriple:
    mu: Partition
    nu: Partition
    rho: Partition
    a_instance: PlethysmInstance
    b_instance: PlethysmInstance


def kronecker_plethysm_triple(inst: XRayInstance2D) -> KroneckerPlethysmTriple:
    """For a feasible axis-marginal instance, the Kronecker coefficient of
    the simplex-padded, sorted, transposed marginals equals both the a- and
    the b-coefficient produced by the reduction chain, and all three count
    the instance's solutions.

    The marginals are padded with those of the radius r-1 simplex: that is
    the choice under which the character oracle matches the solution count
    on every feasible instance (see README).  Sorting the padded marginals
    is count-neutral: relabeling the values along one axis of a spatial
    instance permutes its solutions bijectively.
    """
    r = inst.r
    if r < 1:
        raise ValueError("range-0 instances are counted directly, not reduced")
    if not inst.passes_gate():
        raise ValueError("instance fails the feasibility gate (marginal totals / coordinate sum)")
    # every axis marginal of the radius r-1 simplex: a slice at value i
    # holds the (r-i)(r-i+1)/2 points of the plane simplex of radius r-1-i
    sq = tuple((r - i) * (r - i + 1) // 2 for i in range(r))
    mu = transpose(tuple(sorted(add(inst.mu, sq), reverse=True)))
    nu = transpose(tuple(sorted(add(inst.nu, sq), reverse=True)))
    rho = transpose(tuple(sorted(add(inst.rho, sq), reverse=True)))
    open_inst = promise_to_plethysm(embed_pyramid_3d(symmetrize_2d(inst, "open").marginal, 13 * r, "open").marginal, "open")
    closed_inst = promise_to_plethysm(embed_pyramid_3d(symmetrize_2d(inst, "closed").marginal, 13 * r, "closed").marginal, "closed")
    return KroneckerPlethysmTriple(mu, nu, rho, open_inst, closed_inst)
