"""Point sets in N^3, cones, marginals, pyramids, and exact counters.

The cone of weakly decreasing triples is "closed", that of strictly
decreasing triples "open".  The sum-marginal of a point set pools the three
coordinate histograms; counters answer how many point sets (or pyramids)
realize a prescribed sum-marginal, and how many realize prescribed per-axis
marginals on a triangular grid layer or in all of N^3.

Sum-marginal instances, whole-cone or restricted to one grid layer, are
counted exactly by one engine, at every distance ("excess") above the
minimum coordinate sum, with every point inside a level window [floor,
ceiling].  An n-point instance at excess e (coordinate sum B = beta(n) + e)
has the window [iota(n) - e, iota(n) + e]:

* it contains every cone point of coordinate sum below floor = iota(n) - e,
  because a set missing a point of layer j pays at least
  beta(n) + iota(n) - j, which exceeds beta(n) + e when j < floor;
* it has no point above ceiling = iota(n) + e, because dropping a point p
  leaves n - 1 points, so B - level(p) >= beta(n - 1) = beta(n) - iota(n),
  that is, level(p) <= iota(n) + e.

The complete pyramid below floor is subtracted up front, so a promise
instance (excess 0) counts from its top layer only, the window of one grid
layer.  The counts are memoized on (residual marginal, cone, pyramids
only, floor, ceiling), so the layer count of the reduction chain, the
promise instance it embeds into and the coefficient that instance resolves
to run one DP between them.  The engine runs one forward DP over the
candidates in the window in level order (coordinate sum, then
lexicographic): each candidate is skipped or taken, and states that
agree merge at every candidate, so the work is bounded by the number of
distinct states rather than by the number of solutions.  Each successor
must still be able to spend exactly its remaining coordinate sum on the
candidates left, a bound read off prefix sums of their levels; where the
bound forbids skipping any point of a layer, the whole layer is taken.

For point sets, a state is the residual marginal.  Pyramid completions
depend on the points already chosen, so a pyramid state also carries the
chosen points of the current and the previous layer.  That is enough:
closure is checked as points are taken, against each point's at most
three lower covers in the cone, which lie one layer down and generate its
whole dominated set, and lower layers are already decided and closed.
The tests check the engine against an exponential oracle and against an
independent index-order search.

Axis-marginal instances, on one grid layer or in all of N^3, are counted
by one forward DP over the cells in x-major order, whose states are the
residual Y- and Z-marginals and the points still owed to the current x.
Equal residuals merge, so the work is bounded by the number of distinct
residuals rather than by the number of solutions.  In all of N^3 that number
is bounded only by the marginals, so count_3dxray refuses (SizeCapError) an
instance whose marginals admit more than AXIS_STATE_CAP residual pairs.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import mul
from typing import Literal, Sequence

from .partitions import Composition, canonical, subtract

Point = tuple[int, int, int]
ConeKind = Literal["open", "closed"]


def in_cone(p: Point, kind: ConeKind) -> bool:
    x, y, z = p
    if min(p) < 0:
        return False
    if kind == "closed":
        return x >= y >= z
    if kind == "open":
        return x > y > z
    raise ValueError(f"unknown cone kind {kind!r}")


def sum_marginal(points: Sequence[Point] | frozenset[Point] | set[Point]) -> Composition:
    """S_i = number of coordinate slots equal to i, pooled over all axes."""
    top = -1
    for p in points:
        top = max(top, p[0], p[1], p[2])
    s = [0] * (top + 1)
    for x, y, z in points:
        s[x] += 1
        s[y] += 1
        s[z] += 1
    return canonical(s)


def axis_marginals(points: Sequence[Point] | frozenset[Point] | set[Point]) -> tuple[Composition, Composition, Composition]:
    top = -1
    for p in points:
        top = max(top, p[0], p[1], p[2])
    xs = [0] * (top + 1)
    ys = [0] * (top + 1)
    zs = [0] * (top + 1)
    for x, y, z in points:
        xs[x] += 1
        ys[y] += 1
        zs[z] += 1
    return canonical(xs), canonical(ys), canonical(zs)


def coordinate_sum(c: Composition) -> int:
    """B(lambda) = sum_i i*lambda_i; equals the total coordinate sum of any
    realizing point set."""
    return sum(map(mul, itertools.count(), c))


def _lower_covers(p: Point, kind: ConeKind) -> tuple[Point, ...]:
    """The cone points one unit step below p: (x-1,y,z), (x,y-1,z) and
    (x,y,z-1) where they lie in the cone.  They generate p's whole dominated
    set inside the cone (lower z, then y, then x, and every step stays in
    the cone)."""
    x, y, z = p
    return tuple(q for q in ((x - 1, y, z), (x, y - 1, z), (x, y, z - 1)) if in_cone(q, kind))


def is_pyramid(points: frozenset[Point] | set[Point] | Sequence[Point], kind: ConeKind) -> bool:
    """True iff the set is downward closed inside the cone, that is, holds
    the lower covers of each of its points.  Raises if some point lies
    outside the cone."""
    pset = set(points)
    for p in pset:
        if not in_cone(p, kind):
            raise ValueError(f"point {p} is outside the {kind} cone")
    return all(q in pset for p in pset for q in _lower_covers(p, kind))


def complete_pyramid(r: int, kind: ConeKind) -> frozenset[Point]:
    """All cone points with coordinate sum <= r."""
    pts = set()
    for x in range(r + 1):
        for y in range(min(x, r - x) + 1):
            for z in range(min(y, r - x - y) + 1):
                p = (x, y, z)
                if in_cone(p, kind):
                    pts.add(p)
    return frozenset(pts)


@functools.lru_cache(maxsize=256)
def pyramid_marginal(r: int, kind: ConeKind) -> Composition:
    """sum_marginal(complete_pyramid(r, kind)), built once per (r, kind).

    Counted over the (x, y) pairs of the pyramid without listing its
    points: the pair's column holds the z in [0, zmax], so x and y each gain
    zmax + 1 slots and every value in [0, zmax] gains one z slot, which a
    difference array adds up in O(r^2)."""
    if kind not in ("open", "closed"):
        raise ValueError(f"unknown cone kind {kind!r}")
    strict = kind == "open"
    s = [0] * (r + 1)
    zs = [0] * (r + 2)
    for x in range(r + 1):
        for y in range(min(x - strict, r - x) + 1):
            zmax = min(y - strict, r - x - y)
            if zmax < 0:
                continue
            s[x] += zmax + 1
            s[y] += zmax + 1
            zs[zmax + 1] -= 1
            zs[0] += 1
    return canonical(v + z for v, z in zip(s, itertools.accumulate(zs)))


def full_simplex(r: int) -> frozenset[Point]:
    """All of N^3 with coordinate sum <= r."""
    return frozenset(
        (x, y, z)
        for x in range(r + 1)
        for y in range(r + 1 - x)
        for z in range(r + 1 - x - y)
    )


def xi(i: int, kind: ConeKind) -> int:
    """Number of single cone points with coordinate sum exactly i, by the
    closed forms round((i+3)^2/12) and round(i^2/12).  The fractional part
    is never 1/2, so integer rounding is unambiguous."""
    if i < 0:
        return 0
    if kind == "closed":
        return ((i + 3) ** 2 + 6) // 12
    if kind == "open":
        return (i * i + 6) // 12
    raise ValueError(f"unknown cone kind {kind!r}")


def xi_by_enumeration(i: int, kind: ConeKind) -> int:
    """Same count by direct layer enumeration; the closed form is tested
    against this."""
    count = 0
    for x in range(i + 1):
        for y in range(min(x, i - x) + 1):
            z = i - x - y
            if z <= y and in_cone((x, y, z), kind):
                count += 1
    return count


# One chain walks the same size several times: each cone's promise check,
# its point-set count and its coefficient route all read beta.  In one round
# of the benchmark's chain_resolve and bounds_sandwich workloads, 806 and 492
# walks cover 27 and 10 distinct (n, kind) keys, at most 4 in one cli_cold
# process, and no repeat needs more than 9 live entries to hit; 32 keeps
# every key of such a round.
@functools.lru_cache(maxsize=32)
def _greedy_fill(n: int, kind: ConeKind) -> tuple[int, int]:
    """(beta(n), iota(n)) from one walk: fill layers greedily from the
    origin outward until n points are placed.  The level is -1 for n = 0."""
    total = placed = 0
    level = -1
    while placed < n:
        level += 1
        take = min(xi(level, kind), n - placed)
        total += take * level
        placed += take
    return total, level


def iota(n: int, kind: ConeKind) -> int:
    """Smallest level whose cumulative layer capacity reaches n."""
    if n < 1:
        raise ValueError("iota is defined for n >= 1")
    return _greedy_fill(n, kind)[1]


def beta(n: int, kind: ConeKind) -> int:
    """Minimum coordinate sum of any n-point set in the cone: fill layers
    greedily from the origin outward."""
    if n < 0:
        raise ValueError("beta is defined for n >= 0")
    return _greedy_fill(n, kind)[0]


def is_promise_instance(lam: Composition, kind: ConeKind) -> bool:
    """True iff the instance size is a multiple of 3 and its coordinate sum
    attains the minimum for that size."""
    return _is_promise(canonical(lam), kind)


def _is_promise(lam: Composition, kind: ConeKind) -> bool:
    """is_promise_instance on a canonical lam."""
    total = sum(lam)
    return total % 3 == 0 and coordinate_sum(lam) == _greedy_fill(total // 3, kind)[0]


# ---------------------------------------------------------------------------
# counting engines

COUNT_MEMO_SIZE = 256
"""The most sum-marginal counts _count_levelwise keeps, keyed by (residual
marginal, cone, pyramids_only, floor, ceiling).  A chain caller needs two
live entries (the layer count of one cone and its promise embedding share
one; the other cone has the other), and a whole round of the benchmark's
chain_resolve or bounds_sandwich workload makes 204 and 251 distinct keys,
so 256 keeps every repeat those rounds make."""


def _candidates(lam: tuple[int, ...], kind: ConeKind, floor: int = 0, ceiling: float = math.inf) -> list[Point]:
    """Cone points whose own marginal fits under lam, in lexicographic
    order, with coordinate sum in the level window [floor, ceiling].
    Coordinates range over the support of lam only, so the fit needs
    checking only where coordinates repeat."""
    support = [i for i, v in enumerate(lam) if v > 0]
    weak = kind == "closed"
    out = []
    for a, x in enumerate(support):
        if x > ceiling:
            break
        # z <= y, so y >= (floor - x) / 2
        for b in range(bisect_left(support, (floor - x + 1) // 2), a + weak):
            y = support[b]
            if x + y > ceiling:
                break
            zend = b + weak
            for c in range(bisect_left(support, floor - x - y, 0, zend), bisect_right(support, ceiling - x - y, 0, zend)):
                z = support[c]
                if (x == y or y == z) and lam[y] < 1 + (x == y) + (y == z):
                    continue
                out.append((x, y, z))
    return out


def _closure_filter(
    cands: list[Point], kind: ConeKind, floor: int = 0
) -> tuple[list[Point], dict[Point, tuple[Point, ...]]]:
    """Restrict to points whose full dominated set stays inside the
    candidate pool (a pyramid can never contain the others), and record
    each kept point's lower covers (_lower_covers).  Covers below floor
    belong to the peeled complete pyramid and count as present.

    The covers generate the whole dominated set inside the cone, so one
    pass decides each point from its covers alone.  cands must be in
    lexicographic order (as _candidates returns them), in which every cover
    comes first."""
    kept: list[Point] = []
    dom: dict[Point, tuple[Point, ...]] = {}
    for p in cands:
        covers = _lower_covers(p, kind) if sum(p) > floor else ()
        if all(q in dom for q in covers):
            kept.append(p)
            dom[p] = covers
    return kept, dom


@functools.lru_cache(maxsize=COUNT_MEMO_SIZE)
def _count_levelwise(lam: tuple[int, ...], kind: ConeKind, pyramids_only: bool, floor: int, ceiling: int) -> int:
    """Count point sets (or pyramids) with sum-marginal lam and every point
    in the level window [floor, ceiling] by one forward DP over the
    candidates in level order (coordinate sum, then lexicographic).  Only
    the points whose coordinate sum lies in the window are candidates, and
    pyramid closure treats the layers below floor as present: lam is what
    remains once the complete pyramid below floor is taken.  _count passes
    the window [iota(n) - e, iota(n) + e] of an n-point instance at excess
    e (module docstring), count_sym_2dxray the single layer [r, r].

    Memoized on all five arguments (at most COUNT_MEMO_SIZE entries): a
    promise instance's window is its top layer alone, so its count, the
    layer count it was embedded from and its resolved coefficient are one
    entry.

    A state is (m, B_res, residual marginal, recent), mapped to its number
    of partial sets: m points are still to place, spending coordinate sum
    B_res.  Each candidate is skipped or taken, and equal states merge.  A
    successor survives only while at least m candidates are left and the m
    cheapest and the m dearest of them bracket B_res; the levels are sorted,
    so prefix sums give both in O(1).  Where the bound forbids skipping any
    point of a layer, the whole layer is taken.  With fewer candidates than
    points to place, the count is 0 before the DP is set up.  The states
    are updated in place at each candidate.

    Point sets: m and B_res are functions of the residual, and recent is
    always 0.  Pyramids: recent holds the chosen candidates of the current
    and the previous layer, as bits by candidate index.  A point is taken
    only with all its lower covers from _closure_filter, which lie one layer
    down, so nothing older needs keeping, and it is dropped at each new
    layer.
    """
    cands = _candidates(lam, kind, floor, ceiling)
    covers: dict[Point, tuple[Point, ...]] = {}
    if pyramids_only:
        cands, covers = _closure_filter(cands, kind, floor)
    if len(cands) < sum(lam) // 3:
        return 0
    cands.sort(key=lambda p: (p[0] + p[1] + p[2], p))
    index = {p: k for k, p in enumerate(cands)}
    levels = [p[0] + p[1] + p[2] for p in cands]
    spend = list(itertools.accumulate(levels, initial=0))
    total = len(cands)

    states = {(sum(lam) // 3, coordinate_sum(lam), tuple(lam), 0): 1}
    for k, (x, y, z) in enumerate(cands):
        level = levels[k]
        bit = need = 0
        if pyramids_only:
            if k and level != levels[k - 1]:
                # keep only the choices on the layer below this one
                low = bisect_left(levels, level - 1)
                merged: dict[tuple[int, int, tuple[int, ...], int], int] = {}
                for (m, b, res, recent), c in states.items():
                    key = (m, b, res, recent >> low << low)
                    merged[key] = merged.get(key, 0) + c
                states = merged
            bit = 1 << k
            need = sum(1 << index[q] for q in covers[x, y, z])
        # bracket of the m remaining candidates after this one: the m
        # cheapest spend spend[k+1+m] - cheap, the m dearest dear - spend[total-m]
        left, cheap, dear = total - k - 1, spend[k + 1], spend[total]
        get = states.get
        # updated in place: a skip keeps its state where the bracket holds,
        # and a take lands only on a state whose own skip bracket holds, so
        # no take is deleted; the snapshot counts let each state take once
        for key, c in list(states.items()):
            m, b, res, recent = key
            if not (m <= left and spend[k + 1 + m] - cheap <= b <= dear - spend[total - m]):
                del states[key]
            if not (m and res[x] and res[y] and res[z] and recent & need == need):
                continue
            m -= 1
            b -= level
            if not (m <= left and spend[k + 1 + m] - cheap <= b <= dear - spend[total - m]):
                continue
            r = list(res)
            r[x] -= 1
            r[y] -= 1
            r[z] -= 1
            # every entry was positive, so only a repeated coordinate can
            # go below 0, and with x >= y >= z that is y or z
            if r[y] < 0 or r[z] < 0:
                continue
            key = (m, b, tuple(r), recent | bit)
            states[key] = get(key, 0) + c
        if not states:
            return 0
    return sum(c for (_, _, res, _), c in states.items() if not any(res))


def _count(lam: Composition, kind: ConeKind, pyramids_only: bool) -> int:
    """Whole-cone count of an n-point instance at excess e: peel the
    complete pyramid below floor = iota(n) - e, then count the rest with
    every point at level <= ceiling = iota(n) + e (module docstring).
    lam is canonical."""
    if not lam:
        return 1
    total = sum(lam)
    if total % 3 != 0:
        return 0
    least, fill = _greedy_fill(total // 3, kind)
    excess = coordinate_sum(lam) - least
    if excess < 0:
        return 0
    floor = max(fill - excess, 0)
    if floor:
        # the levels below floor <= iota(n) hold fewer than n points, so
        # some of lam is always left after the peel
        lam = subtract(lam, pyramid_marginal(floor - 1, kind))
        if lam is None:
            return 0
    return _count_levelwise(lam, kind, pyramids_only, floor, fill + excess)


def count_point_sets(lam: Composition, kind: ConeKind) -> int:
    """Exact number of point sets in the cone with the given sum-marginal."""
    return _count(canonical(lam), kind, pyramids_only=False)


def count_pyramids(lam: Composition, kind: ConeKind) -> int:
    """Exact number of pyramids in the cone with the given sum-marginal."""
    return _count(canonical(lam), kind, pyramids_only=True)


# ---------------------------------------------------------------------------
# grid-layer and axis-marginal instances


@dataclass(frozen=True)
class XRayInstance2D:
    """Triangular-grid instance: marginals over the index range [0, r]."""

    r: int
    mu: Composition
    nu: Composition
    rho: Composition

    def __post_init__(self):
        object.__setattr__(self, "mu", canonical(self.mu))
        object.__setattr__(self, "nu", canonical(self.nu))
        object.__setattr__(self, "rho", canonical(self.rho))
        for name in ("mu", "nu", "rho"):
            if len(getattr(self, name)) > self.r + 1:
                raise ValueError(f"{name} marginal longer than grid range [0,{self.r}]")

    def passes_gate(self) -> bool:
        """The feasibility gate: equal marginal totals n, and total
        coordinate sum r*n, as for every n-point set on the layer."""
        n = sum(self.mu)
        if sum(self.nu) != n or sum(self.rho) != n:
            return False
        return coordinate_sum(self.mu) + coordinate_sum(self.nu) + coordinate_sum(self.rho) == self.r * n


@dataclass(frozen=True)
class SymInstance:
    """Sum-marginal instance; grid_r present for single-layer (2D) variants."""

    marginal: Composition
    cone: ConeKind
    grid_r: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "marginal", canonical(self.marginal))
        if self.cone not in ("open", "closed"):
            raise ValueError(f"unknown cone kind {self.cone!r}")


def _count_axis(mu: Composition, nu: Composition, rho: Composition, layer: int | None = None) -> int:
    """Point sets with X-, Y- and Z-marginals mu, nu, rho: in all of N^3, or
    with layer given, inside the layer x+y+z = layer.

    A forward DP over the cells in x-major order.  A state is (residual
    Y-marginal, residual Z-marginal, points still owed to the current x),
    mapped to its number of partial point sets; taking cell (y, z) spends
    one of each, and skipping it keeps the state as it is.  A state owing
    more points than cells remain is dropped, and only states owing nothing
    survive when x advances.  Equal residuals merge, and nothing recurses."""
    nu, rho = tuple(nu), tuple(rho)
    ys = [y for y, v in enumerate(nu) if v > 0]
    zs = [z for z, v in enumerate(rho) if v > 0]
    states = {(nu, rho): 1}
    for x, owed in enumerate(mu):
        if owed == 0:
            continue
        if layer is None:
            cells = [(y, z) for y in ys for z in zs]
        else:
            cells = [(y, z) for y in ys if 0 <= (z := layer - x - y) < len(rho) and rho[z] > 0]
        # owing[o]: states that still owe o points to this x
        owing: list[dict[tuple[tuple[int, ...], tuple[int, ...]], int]] = [{} for _ in range(owed)] + [states]
        for k, (y, z) in enumerate(cells):
            # ascending o, so a state takes each cell at most once
            for o in range(1, min(owed, len(cells) - k) + 1):
                paid = owing[o - 1]
                for (ny, nz), c in owing[o].items():
                    if ny[y] and nz[z]:
                        key = (ny[:y] + (ny[y] - 1,) + ny[y + 1 :], nz[:z] + (nz[z] - 1,) + nz[z + 1 :])
                        paid[key] = paid.get(key, 0) + c
        states = owing[0]
        if not states:
            return 0
    return states.get(((0,) * len(nu), (0,) * len(rho)), 0)


def count_2dxray(inst: XRayInstance2D) -> int:
    """Point sets inside the layer x+y+z = r with the given axis marginals."""
    if not inst.passes_gate():
        return 0
    return _count_axis(inst.mu, inst.nu, inst.rho, layer=inst.r)


def count_sym_2dxray(lam: Composition, r: int, kind: ConeKind) -> int:
    """Point sets inside the cone slice of the layer x+y+z = r with the
    given sum-marginal."""
    if kind not in ("open", "closed"):
        raise ValueError(f"unknown cone kind {kind!r}")
    lam = canonical(lam)
    if not lam:
        return 1
    total = sum(lam)
    if total % 3 != 0:
        return 0
    n = total // 3
    if coordinate_sum(lam) != r * n:
        return 0
    return _count_levelwise(lam, kind, False, r, r)


AXIS_STATE_CAP = 1 << 18
"""The most residual pairs count_3dxray lets its DP reach: an instance with
prod(nu_j + 1) * prod(rho_k + 1) above it is refused before any counting.
The all-ones instance 1^9 sits exactly at the cap and counts in a few
seconds; 1^10, which takes about ten, and above are refused."""


class SizeCapError(Exception):
    """An instance is over a documented size cap; no work was started."""


def count_3dxray(mu: Composition, nu: Composition, rho: Composition) -> int:
    """Point sets in N^3 with the given X-, Y- and Z-marginals.

    Raises SizeCapError when the Y- and Z-marginals admit more than
    AXIS_STATE_CAP residual pairs, the worst case of the DP's states."""
    mu, nu, rho = canonical(mu), canonical(nu), canonical(rho)
    n = sum(mu)
    if sum(nu) != n or sum(rho) != n:
        return 0
    bound = math.prod(v + 1 for v in nu + rho)
    if bound > AXIS_STATE_CAP:
        raise SizeCapError(f"3dxray marginals admit {bound} residual pairs, over the cap of {AXIS_STATE_CAP}")
    return _count_axis(mu, nu, rho)


# ---------------------------------------------------------------------------
# JSON instance schema (shared with the CLI)


def _json_int(value, what: str) -> int:
    """A JSON integer (not a bool, float or string), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_marginal(marg: dict, axis: str) -> Composition:
    values = marg[axis]
    if not isinstance(values, list):
        raise ValueError(f"marginal {axis!r} must be a list of integers, got {values!r}")
    return canonical(_json_int(v, f"marginal {axis!r} entry") for v in values)


def instance_from_dict(data: dict) -> XRayInstance2D | SymInstance | tuple[Composition, Composition, Composition]:
    """Decode the JSON instance schema:
    {"kind": "2dxray"|"sym2d"|"3dxray"|"sym3d", "r": int?, "cone": str?, "marginals": {...}}
    Wrong types or an unknown kind or cone raise ValueError, a missing key KeyError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"an instance must be a JSON object, got {data!r}")
    kind = data.get("kind")
    marg = data.get("marginals", {})
    if not isinstance(marg, dict):
        raise ValueError(f"marginals must be a JSON object, got {marg!r}")
    if kind == "2dxray":
        return XRayInstance2D(_json_int(data["r"], "r"), *(_json_marginal(marg, axis) for axis in "xyz"))
    if kind in ("sym2d", "sym3d"):
        r = _json_int(data["r"], "r") if kind == "sym2d" else None
        return SymInstance(_json_marginal(marg, "sum"), data["cone"], r)
    if kind == "3dxray":
        return tuple(_json_marginal(marg, axis) for axis in "xyz")
    raise ValueError(f"unknown instance kind {kind!r}")


def count_instance(data: dict) -> int:
    inst = instance_from_dict(data)
    if isinstance(inst, XRayInstance2D):
        return count_2dxray(inst)
    if isinstance(inst, SymInstance):
        if inst.grid_r is not None:
            return count_sym_2dxray(inst.marginal, inst.grid_r, inst.cone)
        return count_point_sets(inst.marginal, inst.cone)
    mu, nu, rho = inst
    return count_3dxray(mu, nu, rho)
