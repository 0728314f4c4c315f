"""Point sets in N^3, cones, marginals, pyramids, and exact counters.

The cone of weakly decreasing triples is "closed", that of strictly
decreasing triples "open".  The sum-marginal of a point set pools the three
coordinate histograms; counters answer how many point sets (or pyramids)
realize a prescribed sum-marginal, and how many realize prescribed per-axis
marginals on a triangular grid layer or in all of N^3.  Every public
entry that takes a cone kind checks it once, before any shortcut, with
cone_kind, the only code in the package that raises for an unknown kind;
the _-prefixed internals take a checked kind.

Sum-marginal instances, whole-cone or restricted to one grid layer, are
counted exactly by the level engine, at every distance ("excess") above the
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

Whole-cone point sets far above the minimum, at excess e > 2n, go to a
second counter instead, because there the window is wide and the level
engine's states blow up.  A point set with sum-marginal lam is a set of n
distinct 3-multisets (closed cone) or 3-subsets (open cone) of letters in
which letter i occurs lam_i times.  The letter counter counts more than
point sets: the families of n points, each an m-multiset or an m-subset
of letters, taken as a set or as a multiset, with letter degrees lam
(LetterFamily), which are the weight spaces of e_n[h_m], e_n[e_m],
h_n[h_m] and h_n[e_m]; the point sets are its m = 3 set case.
Relabelling the letters maps such families one to one, so the count
depends only on the multiset of lam's nonzero entries.  The letter counter
works on that multiset as a sorted tuple of residual degrees: it places
every point that holds the letter of smallest degree at once (a small
forward DP over those points, each taken once in a set and any number of
times in a multiset), sorts what remains and merges equal outcomes, and
counts each tuple from the counts of the shorter tuples it leads to,
shortest first and without recursion, keeping the counts in a bounded
memo that the keys of one Jacobi-Trudi sum share.  The rest of the point
sets stays on the level engine: the single grid layer of count_sym_2dxray,
and every instance at e <= 2n, promise instances included, where the
window is narrow and the letter counter loses by orders of magnitude (the
promise instance of the complete closed pyramid of level 6 took 351 ms on
it against 0.15 ms).

Small pyramids are few: each cone holds 1, 2, 3, 4, 6, 9, 12, 17, 24, 32
and 44 pyramids of n = 2, ..., 12 points.  So pyramid counts with
n <= PYRAMID_TABLE_N_MAX (12) are looked up in a table that lists the
n-point pyramids once, growing each (n-1)-point pyramid by each point it
can take, and maps each sum-marginal to the number of pyramids that have
it.  Larger pyramids, the chain-scale promise instances among them, run on
the level engine's pyramid mode.

Axis-marginal instances, on one grid layer or in all of N^3, are counted
by one forward DP over the cells in x-major order, whose states are the
residual Y- and Z-marginals and the points still owed to the current x.
Equal residuals merge, so the work is bounded by the number of distinct
residuals rather than by the number of solutions.  In all of N^3 that number
is bounded only by the marginals, so count_3dxray refuses (SizeCapError) an
instance whose marginals admit more than AXIS_STATE_CAP residual pairs.  On
a grid layer the marginals bound it far less tightly, so the DP itself
raises SizeCapError as soon as one of its state dicts holds more than
AXIS_STATE_CAP states.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import mul
from types import MappingProxyType
from typing import Literal, Mapping, Sequence

from .partitions import Composition, FrozenRecord, canonical, subtract

Point = tuple[int, int, int]
ConeKind = Literal["open", "closed"]


def cone_kind(kind: str) -> ConeKind:
    """The one check of a cone-kind argument: kind itself when it names a
    cone, "closed" or "open", else ValueError."""
    if kind == "closed" or kind == "open":
        return kind
    raise ValueError(f"unknown cone kind {kind!r}")


def in_cone(p: Point, kind: ConeKind) -> bool:
    cone_kind(kind)
    x, y, z = p
    if kind == "closed":
        return x >= y >= z >= 0
    return x > y > z >= 0


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
    """The cone points one unit step below p, a point of the cone: (x-1,y,z),
    (x,y-1,z) and (x,y,z-1) where they lie in the cone.  They generate p's
    whole dominated set inside the cone (lower z, then y, then x, and every
    step stays in the cone).  Each step can leave the cone through one
    inequality only, so that one is tested, against the gap the cone
    needs (1 in the open cone, 0 in the closed one)."""
    x, y, z = p
    gap = kind == "open"
    covers = []
    if x - 1 - gap >= y:
        covers.append((x - 1, y, z))
    if y - 1 - gap >= z:
        covers.append((x, y - 1, z))
    if z:
        covers.append((x, y, z - 1))
    return tuple(covers)


def is_pyramid(points: frozenset[Point] | set[Point] | Sequence[Point], kind: ConeKind) -> bool:
    """True iff the set is downward closed inside the cone, that is, holds
    the lower covers of each of its points.  Raises if some point lies
    outside the cone."""
    cone_kind(kind)
    pset = set(points)
    for p in pset:
        if not in_cone(p, kind):
            raise ValueError(f"point {p} is outside the {kind} cone")
    return all(q in pset for p in pset for q in _lower_covers(p, kind))


def complete_pyramid(r: int, kind: ConeKind) -> frozenset[Point]:
    """All cone points with coordinate sum <= r."""
    gap = cone_kind(kind) == "open"
    return frozenset(
        (x, y, z)
        for x in range(r + 1)
        for y in range(min(x - gap, r - x) + 1)
        for z in range(min(y - gap, r - x - y) + 1)
    )


# one round of the benchmark's plethysm_sweep, chain_resolve and
# bounds_sandwich workloads keeps 3, 6 and 9 keys, with 0, 703 and 194 hits
@functools.lru_cache(maxsize=256)
def pyramid_marginal(r: int, kind: ConeKind) -> Composition:
    """sum_marginal(complete_pyramid(r, kind)), built once per (r, kind).

    Counted over the (x, y) pairs of the pyramid without listing its
    points: the pair's column holds the z in [0, zmax], so x and y each gain
    zmax + 1 slots and every value in [0, zmax] gains one z slot, which a
    difference array adds up in O(r^2)."""
    strict = cone_kind(kind) == "open"
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


def xi(i: int, kind: ConeKind) -> int:
    """Number of single cone points with coordinate sum exactly i, by the
    closed forms round((i+3)^2/12) and round(i^2/12).  The fractional part
    is never 1/2, so integer rounding is unambiguous."""
    cone_kind(kind)
    if i < 0:
        return 0
    if kind == "closed":
        return ((i + 3) ** 2 + 6) // 12
    return (i * i + 6) // 12


def xi_by_enumeration(i: int, kind: ConeKind) -> int:
    """Same count by direct layer enumeration; the closed form is tested
    against this."""
    cone_kind(kind)
    count = 0
    for x in range(i + 1):
        for y in range(min(x, i - x) + 1):
            z = i - x - y
            if z <= y and in_cone((x, y, z), kind):
                count += 1
    return count


def _icbrt(x: int) -> int:
    """floor(x^(1/3)) for an int x >= 1: integer Newton steps down from the
    power of two above it, exact at any size."""
    y = 1 << -(-x.bit_length() // 3)
    while True:
        z = (2 * y + x // (y * y)) // 3
        if z >= y:
            return y
        y = z


def _block_fill(blocks: int, kind: ConeKind) -> tuple[int, int]:
    """(points, coordinate sum) of the cone's levels below 6*blocks.  Level
    6q + r holds xi(6q + r) = 3q^2 + (r + s)q + xi(r) points, with s = 3 in
    the closed cone and 0 in the open one, so the six levels of block q
    hold a quadratic in q of points and a cubic of coordinate sum, and the
    sums over q < blocks are these polynomials."""
    q = blocks
    if kind == "closed":
        return q * ((12 * q + 15) * q + 5) >> 1, q * (((54 * q + 54) * q + 7) * q - 5) >> 1
    return q * ((12 * q - 3) * q - 1) >> 1, q * q * ((27 * q - 9) * q - 1)


# One chain reads the same size several times: each cone's promise check,
# its point-set count and its coefficient route all read beta.  In one round
# of the benchmark's chain_resolve and bounds_sandwich workloads, 709 and 615
# fills cover 27 and 10 distinct (n, kind) keys, at most 4 in one cli_cold
# process, and no repeat needs more than 9 live entries to hit; 32 keeps
# every key of such a round.
@functools.lru_cache(maxsize=32)
def _greedy_fill(n: int, kind: ConeKind) -> tuple[int, int]:
    """(beta(n), iota(n)): fill layers greedily from the origin outward until
    n points are placed.  The level is -1 for n = 0.  Whole blocks of six
    levels are filled at once (_block_fill): the most blocks that hold
    fewer than n points lie a step or two from the cube root of n/6, as a
    block count b holds about 6b^3 points, and a walk over the levels of
    one more block places the rest: a few big-int steps at any n, where a
    walk from the origin takes iota(n) ~ (36n)^(1/3) level steps."""
    blocks = _icbrt(n // 6 + 1)
    while blocks and _block_fill(blocks, kind)[0] >= n:
        blocks -= 1
    while _block_fill(blocks + 1, kind)[0] < n:
        blocks += 1
    placed, total = _block_fill(blocks, kind)
    level = 6 * blocks - 1
    while placed < n:
        level += 1
        take = min(xi(level, kind), n - placed)
        total += take * level
        placed += take
    return total, level


def iota(n: int, kind: ConeKind) -> int:
    """Smallest level whose cumulative layer capacity reaches n."""
    cone_kind(kind)
    if n < 1:
        raise ValueError("iota is defined for n >= 1")
    return _greedy_fill(n, kind)[1]


def beta(n: int, kind: ConeKind) -> int:
    """Minimum coordinate sum of any n-point set in the cone: fill layers
    greedily from the origin outward."""
    cone_kind(kind)
    if n < 0:
        raise ValueError("beta is defined for n >= 0")
    return _greedy_fill(n, kind)[0]


def is_promise_instance(lam: Composition, kind: ConeKind) -> bool:
    """True iff the instance size is a multiple of 3 and its coordinate sum
    attains the minimum for that size."""
    return _is_promise(canonical(lam), cone_kind(kind))


def _is_promise(lam: Composition, kind: ConeKind) -> bool:
    """is_promise_instance on a canonical lam: its entry sum is 3n and its
    coordinate sum beta(n)."""
    total = sum(lam)
    return total % 3 == 0 and coordinate_sum(lam) == _greedy_fill(total // 3, kind)[0]


# ---------------------------------------------------------------------------
# counting engines

COUNT_MEMO_SIZE = 256
"""The most sum-marginal counts _count_levelwise keeps, keyed by (residual
marginal, cone, pyramids_only, floor, ceiling).  A chain caller needs two
live entries (the layer count of one cone and its promise embedding share
one; the other cone has the other), and a whole round of the benchmark's
chain_resolve or bounds_sandwich workload makes 204 and 76 distinct keys
(bounds_sandwich's pyramids are table lookups), so 256 keeps every repeat
those rounds make."""

LETTER_MEMO_SIZE = 4096
"""The most letter counts _letter_counts keeps, keyed by (sorted residual
degrees, LetterFamily).  A round of the benchmark's bounds_sandwich
workload makes 115 distinct keys (85 of point sets, 27 of h_n[h_3] and 3
of h_n[e_3]); counting the point sets of every lam |- 3n in both cones
makes 817, 1879 and 4046 up to n = 6, 7 and 8; a_(6^6)(12, 3), whose 231
Jacobi-Trudi keys share them, makes 1168.  4096 keeps every key of the
n <= 8 sweep, which took 2.8-4.0 s at this bound and 11-12 s at 256."""


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


LetterFamily = tuple[int, bool, bool]
"""(m, repeated letters, repeated points): a point is an m-multiset of
letters (inner h_m) or an m-subset (inner e_m), and a family of n points a
multiset of points (outer h_n) or a set (outer e_n)."""

_letter_counts: dict[tuple[tuple[int, ...], LetterFamily], int] = {}
_letter_counts_lock = threading.Lock()


LETTER_MOVES_MAXSIZE = 256
"""The most move tables _letter_moves keeps, keyed by (number of letters,
field bits, LetterFamily).  A round of the benchmark's bounds_sandwich
workload makes 125 eliminations on 32 keys."""


@functools.lru_cache(maxsize=LETTER_MOVES_MAXSIZE)
def _letter_moves(letters: int, bits: int, family: LetterFamily) -> tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(guard, shifts, moves) of _eliminate_letter on states of `letters`
    letters in fields of bits + 1 bits: the guard bits of every field, the
    shift of each other letter's field, and the (t-degree, step) of every
    move, the subsets first, as the only moves without repeated letters,
    then by decreasing t-degree.  They depend on nothing else, so the
    degrees set only the start state and the caps."""
    m, repeat_letters, _ = family
    width = bits + 1
    guard = sum(1 << (bits + i * width) for i in range(letters))
    shifts = tuple(i * width for i in range(1, letters))
    units = [1 << shift for shift in shifts]
    moves = [(1, 1 + sum(used)) for used in itertools.combinations(units, m - 1)]
    if repeat_letters:
        for k in range(m, 0, -1):
            moves += [(k, k + sum(used)) for used in itertools.combinations_with_replacement(units, m - k) if k > 1 or len(set(used)) < m - k]
    return guard, shifts, tuple(moves)


def _eliminate_letter(degrees: tuple[int, ...], family: LetterFamily) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The ways to place every point that holds the letter of smallest
    degree: pairs (residual degrees of the other letters, sorted and
    zero-free, number of ways), one per distinct residual.

    degrees is sorted and zero-free, so that letter t comes first, with
    degree d.  A point holding t is t^k times a (m-k)-multiset of the other
    letters, k = 1, ..., m, or with letters not repeated, t times an
    (m-1)-subset of them (at m = 3: {t,t,t}, {t,t,u}, {t,u,u} and {t,u,v}
    in the closed cone, {t,u,v} with u != v in the open one).  Each such
    move is taken at most once (a set of points) or up to its budget (a
    multiset), the least of d // k and what the other letters' degrees
    allow.  A forward DP over the moves, with states (t-degree left,
    residual degrees of the others), keeps the states that spend exactly
    d; a state that has spent d is set aside, as no move applies to it.
    The move table is read from _letter_moves, by the number of letters,
    the field bits and the family; the degrees give the start state and
    each move's cap."""
    m, _, repeat_points = family
    d = degrees[0]
    # a state is one int: t-degree left in field 0 and the residual degree
    # of the other letter u in field u + 1, each field holding top + 1 +
    # value, so a move is one subtraction and a value below 0 clears its
    # field's guard bit; a move takes at most m < top + 1 from a field, so
    # no field borrows from the next
    bits = max(degrees[-1], m).bit_length()
    width = bits + 1
    top = (1 << bits) - 1
    guard, shifts, moves = _letter_moves(len(degrees), bits, family)
    start = guard + sum(v << i * width for i, v in enumerate(degrees))
    # the copies each move can take from the start, at most one in a set;
    # the moves after each one can spend at most room t-degree
    caps = []
    for tdeg, step in moves:
        cap, key = 0, start - step
        while key & guard == guard and (repeat_points or not cap):
            cap, key = cap + 1, key - step
        caps.append(cap)
    room = list(itertools.accumulate((tdeg * cap for (tdeg, _), cap in zip(reversed(moves), reversed(caps))), initial=0))[::-1]
    if d > room[0]:
        return ()
    states = {start: 1}
    get = states.get
    # the states that have spent all of d, which take no further move
    done: dict[int, int] = {}
    for j, (tdeg, step) in enumerate(moves):
        if not caps[j]:
            continue
        bound = room[j + 1]
        # updated in place over a snapshot, so each state takes a move once,
        # twice, ... until its t-degree or the guard ends it, or after one
        # copy in a set; a take lands within bound except for a multiset's
        # first copies, as left <= room[j] before the move
        for key, c in list(states.items()):
            left = key & top
            if left > bound:
                del states[key]
            while left >= tdeg and (key := key - step) & guard == guard:
                left -= tdeg
                if not left:
                    done[key] = done.get(key, 0) + c
                elif left <= bound:
                    states[key] = get(key, 0) + c
                if not repeat_points:
                    break
    out: dict[tuple[int, ...], int] = {}
    for key, c in done.items():
        res = tuple(sorted([v for shift in shifts if (v := key >> shift & top)]))
        out[res] = out.get(res, 0) + c
    return tuple(out.items())


def _letter_count(degrees: Composition, family: LetterFamily) -> int:
    """Families of n points with letter degrees given by the entries of
    degrees (LetterFamily): the weight-degrees space of h_n[h_m], h_n[e_m],
    e_n[h_m] or e_n[e_m], n = sum(degrees) / m.

    Relabelling the letters maps such families one to one, so the count
    depends only on the multiset of nonzero degrees.  A state is that
    multiset as a sorted tuple of residual degrees; _eliminate_letter
    places every point of its smallest letter and leaves a shorter state.
    The states reachable from degrees that _letter_counts does not hold are
    listed with an explicit stack and counted shortest first, each as the
    sum over its outcomes of ways times the outcome's count, so a state
    shared by several queries (the keys of one Jacobi-Trudi sum) is counted
    once.  The walk reads each held count from _letter_counts once, so the
    sum never reads the memo.  _letter_counts keeps at most
    LETTER_MEMO_SIZE counts, dropping the oldest first; its writes and
    evictions hold _letter_counts_lock, as a concurrent write would break
    an eviction's pass over the memo."""
    start = tuple(sorted(v for v in degrees if v))
    memo = _letter_counts
    steps: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]] = {}
    counts = {(): 1}
    todo = [start]
    while todo:
        state = todo.pop()
        if state in counts or state in steps:
            continue
        # read once: another caller may evict the entry before the sum
        got = memo.get((state, family))
        if got is not None:
            counts[state] = got
        else:
            steps[state] = _eliminate_letter(state, family)
            todo += [rest for rest, _ in steps[state]]
    for state in sorted(steps, key=len):
        counts[state] = sum(ways * counts[rest] for rest, ways in steps[state])
    with _letter_counts_lock:
        for state in steps:
            memo[state, family] = counts[state]
        for stale in list(itertools.islice(memo, max(len(memo) - LETTER_MEMO_SIZE, 0))):
            del memo[stale]
    return counts[start]


PYRAMID_TABLE_N_MAX = 12
"""The largest n whose pyramid counts _count reads off _pyramid_table, the
largest at which one cold table build costs about one cold level-engine
call, so that not even a single count gets slower.  Timed in pairs on a
shared 2-vCPU x86_64 host (a cold count_pyramids on the level engine, then
a cold build, for about 100 lam |- 3n spread over all of them), the median
build against the median call was, over both cones and two runs, 0.2
against 0.2-0.4 ms at n = 8, 0.9-1.4 against 0.7-1.5 ms at n = 12, 1.5-2.4
against 1.2-1.9 ms at n = 14 and 2.9-4.6 against 1.9-2.8 ms at n = 16."""


@functools.lru_cache(maxsize=2 * (PYRAMID_TABLE_N_MAX + 1))
def _pyramid_table(n: int, kind: ConeKind) -> Mapping[Composition, int]:
    """The n-point pyramids of the cone by sum-marginal: how many pyramids
    have each marginal (every other marginal has none).

    Grown one point at a time from the empty pyramid: each (k-1)-point
    pyramid takes each of its addable points, the cone points outside it
    whose lower covers all lie in it, and equal results merge.  Each
    pyramid keeps its addable points: adding q drops q and adds the points
    one unit step above q whose lower covers are now all present.  The
    empty pyramid's one addable point is the cone's least point, and an
    n-point pyramid holds a chain from it to each of its points, so every
    point lies at most n - 1 levels above it.  Those points are numbered,
    and a pyramid is keyed by an int with one bit per point it holds.
    Distinct pyramids can share a marginal (two closed 23-point pyramids
    share (23,19,12,7,5,3)), hence counts.  Memoized per (n, kind), read
    only; _count asks only for n <= PYRAMID_TABLE_N_MAX."""
    least = (2, 1, 0) if kind == "open" else (0, 0, 0)
    points = list(complete_pyramid(sum(least) + n - 1, kind))
    index = {p: k for k, p in enumerate(points)}
    covers = [sum(1 << index[c] for c in _lower_covers(p, kind)) for p in points]
    above: list[list[int]] = [[] for _ in points]
    for k, p in enumerate(points):
        for c in _lower_covers(p, kind):
            above[index[c]].append(k)
    # bits -> (addable point numbers, points held)
    pyramids: dict[int, tuple[tuple[int, ...], tuple[Point, ...]]] = {0: ((index[least],) if n else (), ())}
    for _ in range(n):
        grown: dict[int, tuple[tuple[int, ...], tuple[Point, ...]]] = {}
        for bits, (addable, held) in pyramids.items():
            for k in addable:
                bigger = bits | 1 << k
                if bigger not in grown:
                    freed = tuple(u for u in above[k] if bigger & covers[u] == covers[u])
                    grown[bigger] = (tuple(a for a in addable if a != k) + freed, held + (points[k],))
        pyramids = grown
    return MappingProxyType(Counter(sum_marginal(held) for _, held in pyramids.values()))


def _count(lam: Composition, kind: ConeKind, pyramids_only: bool) -> int:
    """Whole-cone count of an n-point instance at excess e: peel the
    complete pyramid below floor = iota(n) - e, then count the rest with
    every point at level <= ceiling = iota(n) + e (module docstring).
    Point sets at e > 2n go to letter elimination instead, and pyramids
    with n <= PYRAMID_TABLE_N_MAX are looked up in _pyramid_table.  lam is
    canonical."""
    if not lam:
        return 1
    total = sum(lam)
    if total % 3 != 0:
        return 0
    n = total // 3
    if pyramids_only and n <= PYRAMID_TABLE_N_MAX:
        return _pyramid_table(n, kind).get(lam, 0)
    least, fill = _greedy_fill(n, kind)
    excess = coordinate_sum(lam) - least
    if excess < 0:
        return 0
    if not pyramids_only and excess > 2 * n:
        # a point set is a set of 3-multisets (closed cone) or 3-subsets
        # (open cone) of letters in which letter i occurs lam_i times
        return _letter_count(lam, (3, kind == "closed", False))
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
    return _count(canonical(lam), cone_kind(kind), pyramids_only=False)


def count_pyramids(lam: Composition, kind: ConeKind) -> int:
    """Exact number of pyramids in the cone with the given sum-marginal."""
    return _count(canonical(lam), cone_kind(kind), pyramids_only=True)


# ---------------------------------------------------------------------------
# grid-layer and axis-marginal instances


def _check_grid_range(r: int) -> None:
    """ValueError unless the grid range r, the layer x+y+z = r, is >= 0."""
    if r < 0:
        raise ValueError(f"grid range must be >= 0, got {r}")


class XRayInstance2D(FrozenRecord):
    """Triangular-grid instance: marginals over the index range [0, r]."""

    __slots__ = ("r", "mu", "nu", "rho")

    def __init__(self, r: int, mu: Composition, nu: Composition, rho: Composition):
        _check_grid_range(r)
        mu, nu, rho = canonical(mu), canonical(nu), canonical(rho)
        for name, marginal in (("mu", mu), ("nu", nu), ("rho", rho)):
            if len(marginal) > r + 1:
                raise ValueError(f"{name} marginal longer than grid range [0,{r}]")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "rho", rho)

    def passes_gate(self) -> bool:
        """The feasibility gate: equal marginal totals n, and total
        coordinate sum r*n, as for every n-point set on the layer."""
        n = sum(self.mu)
        if sum(self.nu) != n or sum(self.rho) != n:
            return False
        return coordinate_sum(self.mu) + coordinate_sum(self.nu) + coordinate_sum(self.rho) == self.r * n


class SymInstance(FrozenRecord):
    """Sum-marginal instance; grid_r present for single-layer (2D) variants."""

    __slots__ = ("marginal", "cone", "grid_r")

    def __init__(self, marginal: Composition, cone: ConeKind, grid_r: int | None = None):
        marginal = canonical(marginal)
        cone_kind(cone)
        if grid_r is not None:
            _check_grid_range(grid_r)
        object.__setattr__(self, "marginal", marginal)
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "grid_r", grid_r)


AXIS_STATE_CAP = 1 << 18
"""The most states one dict of the axis-marginal DP may hold.

count_3dxray refuses, before any counting, an instance with
prod(nu_j + 1) * prod(rho_k + 1) residual pairs above it: the all-ones
instance 1^9 sits exactly at the cap and counts in a few seconds; 1^10,
which takes about ten, and above are refused.  On a grid layer
(count_2dxray) the DP raises as soon as a dict passes the cap.  Random sets
of 2r points of the layer x+y+z = r, measured on a shared 2-vCPU host: the
range-13 set of seed 1 peaks at 178466 states in one dict and counts
(11658) in 4-5 s; without the cap, range 15 counted 14947969 sets in 71 s
and range 20 ran out of a 2.5 GB address space after 25 s, and with it
ranges 15, 20 and 30 are refused in 1.5-4 s at 270-570 MB peak."""


class SizeCapError(Exception):
    """An instance is over a documented size cap: refused before any work,
    or, on a grid layer's axis-marginal DP, as its states pass the cap."""


def _count_axis(mu: Composition, nu: Composition, rho: Composition, layer: int | None = None) -> int:
    """Point sets with X-, Y- and Z-marginals mu, nu, rho: in all of N^3, or
    with layer given, inside the layer x+y+z = layer.

    A forward DP over the cells in x-major order.  A state is (residual
    Y-marginal, residual Z-marginal, points still owed to the current x),
    mapped to its number of partial point sets; taking cell (y, z) spends
    one of each, and skipping it keeps the state as it is.  A state owing
    more points than cells remain is dropped, and only states owing nothing
    survive when x advances.  Equal residuals merge, and nothing recurses.
    A dict that passes AXIS_STATE_CAP states raises SizeCapError, checked
    each time a cell has grown it."""
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
                if len(paid) > AXIS_STATE_CAP:
                    raise SizeCapError(f"axis-marginal DP holds {len(paid)} states, over the cap of {AXIS_STATE_CAP}")
        states = owing[0]
        if not states:
            return 0
    return states.get(((0,) * len(nu), (0,) * len(rho)), 0)


def count_2dxray(inst: XRayInstance2D) -> int:
    """Point sets inside the layer x+y+z = r with the given axis marginals.

    Raises SizeCapError when a state dict of the DP passes AXIS_STATE_CAP."""
    if not inst.passes_gate():
        return 0
    return _count_axis(inst.mu, inst.nu, inst.rho, layer=inst.r)


def count_sym_2dxray(lam: Composition, r: int, kind: ConeKind) -> int:
    """Point sets inside the cone slice of the layer x+y+z = r with the
    given sum-marginal."""
    cone_kind(kind)
    _check_grid_range(r)
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
