import gc
import itertools
import math
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethtomo.partitions import add, canonical, compositions_of, is_partition, partitions_of, transpose
from plethtomo.coefficients import general_plethysm, outer_shape
from plethtomo.reductions import embed_pyramid_3d, promise_to_plethysm, resolve_coefficient, symmetrize_2d
from plethtomo.tomography import (
    AXIS_STATE_CAP,
    SizeCapError,
    XRayInstance2D,
    axis_marginals,
    beta,
    complete_pyramid,
    coordinate_sum,
    count_2dxray,
    count_3dxray,
    count_instance,
    count_point_sets,
    count_pyramids,
    count_sym_2dxray,
    in_cone,
    instance_from_dict,
    iota,
    is_promise_instance,
    is_pyramid,
    pyramid_marginal,
    sum_marginal,
    xi,
    xi_by_enumeration,
)
from plethtomo import tomography
from plethtomo.tomography import (
    PYRAMID_TABLE_N_MAX,
    _candidates,
    _closure_filter,
    _count_levelwise,
    _greedy_fill,
    _letter_count,
    _letter_counts,
    _pyramid_table,
)


def _dominated(p, kind):
    """Oracle: cone points strictly below p in the componentwise order."""
    x, y, z = p
    for q in itertools.product(range(x + 1), range(y + 1), range(z + 1)):
        if q != p and in_cone(q, kind):
            yield q

FIGURE_POINTS = [(0, 3, 4), (0, 6, 1), (1, 4, 2), (1, 5, 1), (2, 1, 4), (4, 0, 3), (4, 2, 1), (4, 3, 0), (6, 1, 0)]


def test_sum_marginal_examples():
    assert sum_marginal([(0, 0, 0)]) == (3,)
    assert sum_marginal([(2, 2, 2), (3, 2, 1), (5, 1, 0)]) == (1, 2, 4, 1, 0, 1)
    assert sum_marginal([(1, 0, 0), (0, 1, 0)]) == (4, 2)


def test_sum_marginal_total_is_three_times_cardinality():
    import random

    rng = random.Random(5)
    for _ in range(30):
        pts = {(rng.randrange(6), rng.randrange(6), rng.randrange(6)) for _ in range(rng.randrange(1, 8))}
        assert sum(sum_marginal(pts)) == 3 * len(pts)


def test_axis_marginals_examples():
    assert axis_marginals([(0, 0, 0)]) == ((1,), (1,), (1,))
    assert axis_marginals(FIGURE_POINTS) == ((2, 2, 1, 0, 3, 0, 1), (1, 2, 1, 2, 1, 1, 1), (2, 3, 1, 1, 2))
    assert axis_marginals([(1, 0, 0), (0, 1, 0)]) == ((1, 1), (1, 1), (2,))
    x, y, z = axis_marginals(FIGURE_POINTS)
    assert add(add(x, y), z) == sum_marginal(FIGURE_POINTS)


def test_in_cone():
    assert in_cone((2, 1, 0), "open")
    assert not in_cone((1, 1, 0), "open")
    assert in_cone((1, 1, 0), "closed")
    assert not in_cone((1, 2, 0), "closed")


def test_is_pyramid():
    assert is_pyramid({(0, 0, 0)}, "closed")
    assert is_pyramid({(2, 1, 0)}, "open")
    assert not is_pyramid({(2, 1, 0), (4, 1, 0)}, "open")
    assert is_pyramid(complete_pyramid(5, "open"), "open")
    assert is_pyramid(complete_pyramid(5, "closed"), "closed")
    with pytest.raises(ValueError):
        is_pyramid({(1, 2, 0)}, "closed")


@st.composite
def _cone_sets(draw):
    """Random point sets in a cone: a complete pyramid with points dropped
    and points added, or points drawn at random."""
    kind = draw(st.sampled_from(["open", "closed"]))
    box = [p for p in itertools.product(range(7), repeat=3) if in_cone(p, kind)]
    if draw(st.booleans()):
        pts = set(complete_pyramid(draw(st.integers(3, 9)), kind))
        pts -= set(draw(st.lists(st.sampled_from(sorted(pts)), max_size=2)))
        pts |= set(draw(st.lists(st.sampled_from(box), max_size=2)))
    else:
        pts = set(draw(st.lists(st.sampled_from(box), max_size=12)))
    return pts, kind


@settings(max_examples=300, deadline=None, database=None)
@given(case=_cone_sets())
def test_is_pyramid_matches_the_dominated_sets(case):
    # closed under lower covers iff closed under everything dominated
    pts, kind = case
    assert is_pyramid(pts, kind) == all(pts.issuperset(_dominated(p, kind)) for p in pts)


def test_complete_pyramid():
    assert set(complete_pyramid(0, "closed")) == {(0, 0, 0)}
    assert set(complete_pyramid(3, "open")) == {(2, 1, 0)}
    assert len(complete_pyramid(12, "closed")) == 102
    assert len(complete_pyramid(12, "open")) == 53
    # the closed-cone legacy reference vector (61,54,...,2) drops the
    # point (12,0,0); these are the true marginals (see README)
    assert sum_marginal(complete_pyramid(12, "open")) == (30, 26, 22, 19, 16, 13, 11, 9, 6, 4, 2, 1)
    assert sum_marginal(complete_pyramid(12, "closed")) == (63, 54, 46, 38, 31, 23, 17, 12, 9, 6, 4, 2, 1)


def test_complete_pyramid_sizes_match_xi_sums():
    for kind in ("open", "closed"):
        for r in range(15):
            assert len(complete_pyramid(r, kind)) == sum(xi(i, kind) for i in range(r + 1))


def full_simplex(r):
    """All of N^3 with coordinate sum <= r."""
    return frozenset((x, y, z) for x in range(r + 1) for y in range(r + 1 - x) for z in range(r + 1 - x - y))


def test_full_simplex():
    assert len(full_simplex(0)) == 1
    assert len(full_simplex(1)) == 4
    assert len(full_simplex(2)) == 10
    assert axis_marginals(full_simplex(1))[0] == (3, 1)


def test_pyramid_marginal_matches_the_complete_pyramid():
    for kind in ("open", "closed"):
        for r in range(-1, 41):
            assert pyramid_marginal(r, kind) == sum_marginal(complete_pyramid(r, kind)), (r, kind)
    assert pyramid_marginal.cache_info().maxsize is not None
    # the kind is checked before any counting, so also on an empty pyramid
    for r in (-2, -1, 0, 7):
        with pytest.raises(ValueError):
            pyramid_marginal(r, "half-open")


def test_coordinate_sum():
    assert coordinate_sum((3,)) == 0
    assert coordinate_sum((1, 2, 4, 1, 0, 1)) == 18
    assert coordinate_sum((0, 0, 3)) == 6


def test_xi_examples_and_closed_forms():
    assert xi(0, "closed") == 1
    assert xi(3, "closed") == 3
    assert xi(6, "open") == 3
    for i in range(41):
        assert xi(i, "closed") == xi_by_enumeration(i, "closed")
        assert xi(i, "open") == xi_by_enumeration(i, "open")


def _greedy_fill_by_walk(n, kind):
    """Oracle: (beta(n), iota(n)) by filling one layer per step from the
    origin outward; the level is -1 for n = 0."""
    total = placed = 0
    level = -1
    while placed < n:
        level += 1
        take = min(xi(level, kind), n - placed)
        total += take * level
        placed += take
    return total, level


def test_greedy_fill_gives_beta_and_iota():
    # the filled blocks and the walk over the last one agree with the walk
    # from the origin
    for kind in ("open", "closed"):
        for n in range(4000):
            want = _greedy_fill_by_walk(n, kind)
            assert _greedy_fill(n, kind) == want, (n, kind)
            if n:
                assert want == (beta(n, kind), iota(n, kind)), (n, kind)
    with pytest.raises(ValueError):
        iota(0, "closed")
    with pytest.raises(ValueError):
        beta(-1, "open")


@pytest.mark.parametrize("kind", ["open", "closed"])
@pytest.mark.parametrize("size", [10**24, 10**300])
def test_greedy_fill_far_beyond_a_walk(kind, size):
    # point n + 1 sits at level iota(n + 1), so beta grows by exactly that;
    # near a block edge of six whole levels iota moves up by one, and the
    # level it leaves held xi(level) points
    fills = [_greedy_fill(n, kind) for n in range(size - 3, size + 4)]
    for (b0, i0), (b1, i1) in zip(fills, fills[1:]):
        assert b1 - b0 == i1 and i0 <= i1 <= i0 + 1
    level = fills[0][1]
    blocks = -(-level // 6)
    edge, coords = tomography._block_fill(blocks, kind)
    assert _greedy_fill(edge, kind) == (coords, 6 * blocks - 1)
    assert _greedy_fill(edge + 1, kind)[1] == 6 * blocks
    last = 6 * blocks - 1
    assert _greedy_fill(edge - xi(last, kind), kind)[1] == last - 1
    assert _greedy_fill(edge - xi(last, kind) + 1, kind)[1] == last


def test_iota_beta():
    assert beta(0, "closed") == 0
    assert beta(1, "closed") == 0
    assert beta(2, "closed") == 1
    assert beta(1, "open") == 3
    assert iota(2, "closed") == 1
    assert iota(1, "open") == 3
    # beta of a complete pyramid's size is the pyramid's coordinate sum
    for kind in ("open", "closed"):
        for r in range(8):
            pyr = complete_pyramid(r, kind)
            assert beta(len(pyr), kind) == sum(x + y + z for (x, y, z) in pyr)


def test_is_promise_instance():
    assert is_promise_instance((3,), "closed")
    assert not is_promise_instance((0, 0, 3), "closed")
    assert not is_promise_instance((1,), "closed")
    for r in range(7):
        assert is_promise_instance(sum_marginal(complete_pyramid(r, "closed")), "closed")
        if complete_pyramid(r, "open"):
            assert is_promise_instance(sum_marginal(complete_pyramid(r, "open")), "open")


# ---------------------------------------------------------------------------
# counters


def test_count_point_sets_examples():
    assert count_point_sets((3,), "closed") == 1
    assert count_point_sets((1, 1, 1), "closed") == 1
    assert count_point_sets((), "closed") == 1
    assert count_point_sets((1, 1), "closed") == 0  # size not divisible by 3


def test_count_pyramids_examples():
    assert count_pyramids((3,), "closed") == 1
    assert count_pyramids(sum_marginal(complete_pyramid(3, "closed")), "closed") == 1
    assert count_pyramids((0, 3), "closed") == 0  # non-partition marginal


def _naive_candidates(lam, kind):
    """Every cone point with coordinates below len(lam) whose own marginal
    fits under lam, in lexicographic order."""
    out = []
    for p in itertools.product(range(len(lam)), repeat=3):
        if in_cone(p, kind) and all(p.count(i) <= lam[i] for i in set(p)):
            out.append(p)
    return out


def _unwindowed(lam, kind, pyramids_only):
    """The level engine on the whole cone: floor 0 and a ceiling no point
    of a solution can pass (its level is at most the coordinate sum)."""
    return _count_levelwise(lam, kind, pyramids_only, 0, coordinate_sum(lam))


def _count_reference(lam, kind, pyramids_only, found=None):
    """Exponential test oracle: plain take/skip over every candidate point,
    pruned only by the residual marginal, with pyramid closure checked on
    whole sets.  Only for tiny instances; the production engines are
    checked against it.  With found given, every counted set is appended
    to it."""
    cands = _naive_candidates(lam, kind)
    length = len(lam)

    def rec(idx, residual, m, chosen):
        if m == 0:
            if any(residual):
                return 0
            if pyramids_only and not is_pyramid(chosen, kind):
                return 0
            if found is not None:
                found.append(frozenset(chosen))
            return 1
        if idx == len(cands) or len(cands) - idx < m:
            return 0
        total = rec(idx + 1, residual, m, chosen)
        p = cands[idx]
        mvec = [p.count(i) for i in range(length)]
        if all(residual[i] >= mvec[i] for i in range(length)):
            for i in range(length):
                residual[i] -= mvec[i]
            chosen.append(p)
            total += rec(idx + 1, residual, m - 1, chosen)
            chosen.pop()
            for i in range(length):
                residual[i] += mvec[i]
        return total

    return rec(0, list(lam), sum(lam) // 3, [])


class _IndexSearch:
    """Second test oracle, independent of the level engine: it repeatedly
    resolves the highest marginal index with positive residual, picking the
    sub-multiset of candidates touching that index whose contribution there
    is exact, then recurses on the rest (which may no longer touch it).
    Its search order differs from the level engine's, and it checks pyramid
    closure with is_pyramid on whole sets."""

    __slots__ = ("kind", "pyramids_only", "chosen")

    def __init__(self, kind, pyramids_only):
        self.kind = kind
        self.pyramids_only = pyramids_only
        self.chosen = []

    def rec(self, pool, residual):
        j = -1
        for i in range(len(residual) - 1, -1, -1):
            if residual[i] > 0:
                j = i
                break
        if j < 0:
            if self.pyramids_only and not is_pyramid(self.chosen, self.kind):
                return 0
            return 1
        touching = [p for p in pool if p[0] == j or p[1] == j or p[2] == j]
        rest = [p for p in pool if not (p[0] == j or p[1] == j or p[2] == j)]
        return self.pick(touching, rest, j, 0, list(residual), residual[j])

    def pick(self, touching, rest, j, pos, residual, need_j):
        if need_j == 0:
            return self.rec(rest, residual)
        if pos == len(touching):
            return 0
        total = 0
        # not enough j-contribution left in the pool
        contrib_left = 0
        for q in touching[pos:]:
            contrib_left += (q[0] == j) + (q[1] == j) + (q[2] == j)
            if contrib_left >= need_j:
                break
        if contrib_left < need_j:
            return 0
        p = touching[pos]
        length = len(residual)
        mvec = [p.count(i) for i in range(length)]
        if all(residual[i] >= mvec[i] for i in range(length)):
            for i in range(length):
                residual[i] -= mvec[i]
            self.chosen.append(p)
            total += self.pick(touching, rest, j, pos + 1, residual, need_j - mvec[j])
            self.chosen.pop()
            for i in range(length):
                residual[i] += mvec[i]
        total += self.pick(touching, rest, j, pos + 1, residual, need_j)
        return total


def _count_by_index(lam, kind, pyramids_only):
    """Count with the index-order oracle above (exponential; test use only)."""
    return _IndexSearch(kind, pyramids_only).rec(_naive_candidates(lam, kind), list(lam))


def test_counting_engines_agree():
    for total in (3, 6):
        for length in range(1, 6):
            for comp in compositions_of(total, length):
                lam = canonical(comp)
                if not lam:
                    continue
                for kind in ("open", "closed"):
                    for pyr in (False, True):
                        ref = _count_reference(lam, kind, pyr)
                        assert _unwindowed(lam, kind, pyr) == ref
                        assert _count_by_index(lam, kind, pyr) == ref


def test_counting_engines_agree_on_larger_partitions():
    # far above the minimum coordinate sum, where the level engine's
    # bounds prune least and its point-set memo does most of the work
    import random

    rng = random.Random(41)
    pool = [lam for lam in partitions_of(12) if len(lam) <= 6]
    for lam in rng.sample(pool, 8) + [(2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)]:
        for kind in ("open", "closed"):
            assert _unwindowed(lam, kind, False) == _count_by_index(lam, kind, False), (lam, kind)
            assert _unwindowed(lam, kind, True) == _count_by_index(lam, kind, True), (lam, kind)


def test_letter_counter_matches_level_engine_up_to_n5():
    for n in range(1, 6):
        for lam in partitions_of(3 * n):
            for kind in ("open", "closed"):
                assert _letter_count(lam, (3, kind == "closed", False)) == _unwindowed(lam, kind, False), (lam, kind)


def _at_excess(n, kind, excesses):
    """The partitions of 3n whose excess in the cone lies in excesses."""
    least = beta(n, kind)
    return [lam for lam in partitions_of(3 * n) if coordinate_sum(lam) - least in excesses]


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_letter_counter_at_the_dispatch_threshold(kind, monkeypatch):
    # e = 2n stays on the level engine and e = 2n + 1 goes to the letter
    # counter; both engines agree on both sides of the line
    checked = 0
    for n in range(1, 8):
        for lam in _at_excess(n, kind, (2 * n, 2 * n + 1)):
            want = _unwindowed(lam, kind, False)
            assert _letter_count(lam, (3, kind == "closed", False)) == want, (lam, kind)
            checked += 1
    assert checked >= 30
    # and each side runs its own engine only
    for excess, banned in ((0, "_letter_count"), (1, "_count_levelwise")):
        for n in range(1, 8):
            for lam in _at_excess(n, kind, (2 * n + excess,)):
                with monkeypatch.context() as m:
                    m.setattr(tomography, banned, None)
                    assert count_point_sets(lam, kind) == _unwindowed(lam, kind, False)


def test_letter_count_reads_each_memo_entry_once(monkeypatch):
    # the walk finds (2,2,2,3) in the memo, and another caller evicts it
    # before the sum: the count must not read the memo again
    family = (3, True, True)
    real = tomography._eliminate_letter
    assert real((2, 2, 2, 3, 3), family)[-1][0] == (2, 2, 2, 3)
    _letter_count((2, 2, 2, 3), family)

    def evicting(state, family):
        if state != (2, 2, 2, 3, 3):
            _letter_counts.pop(((2, 2, 2, 3), family), None)
        return real(state, family)

    monkeypatch.setattr(tomography, "_eliminate_letter", evicting)
    assert _letter_count((2, 2, 2, 3, 3), family) == 253


def test_memoized_letter_move_tables_equal_a_fresh_build(monkeypatch):
    # every key the letter counter reads while counting the point sets and
    # the h_n[h_3] and h_n[e_3] weight spaces of lam |- 3n, n <= 5
    keys = set()
    real = tomography._letter_moves

    def recorded(*key):
        keys.add(key)
        return real(*key)

    monkeypatch.setattr(tomography, "_letter_moves", recorded)
    for n in range(1, 6):
        for lam in partitions_of(3 * n):
            for family in ((3, True, False), (3, False, False), (3, True, True), (3, False, True)):
                _letter_count(lam, family)
    assert len(keys) >= 20
    for key in keys:
        assert real(*key) == real.__wrapped__(*key), key


def test_a_warm_elimination_builds_no_move_table():
    lam, family = (4, 3, 3, 2, 2, 1), (3, True, False)
    want = _letter_count(lam, family)
    _letter_counts.clear()
    built = tomography._letter_moves.cache_info().misses
    assert _letter_count(lam, family) == want
    assert tomography._letter_moves.cache_info().misses == built


def test_letter_count_under_concurrent_callers(monkeypatch):
    # four threads count the same keys in different orders while a 4-entry
    # memo evicts on every call; each must get the serial counts
    keys = [lam for n in range(2, 6) for lam in partitions_of(3 * n)]
    family = (3, True, False)
    want = {lam: _letter_count(lam, family) for lam in keys}
    _letter_counts.clear()
    monkeypatch.setattr(tomography, "LETTER_MEMO_SIZE", 4)
    got, errors = [], []

    def work(order):
        try:
            for _ in range(3):
                got.extend((lam, _letter_count(lam, family)) for lam in order)
        except Exception as exc:
            errors.append(repr(exc))

    threads = [threading.Thread(target=work, args=(keys[i % 2 :: 2] + keys[1 - i % 2 :: 2],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert len(got) == 12 * len(keys) and all(want[lam] == count for lam, count in got)


@st.composite
def _relabelled(draw):
    """A composition of at most 12 boxes and one with the same nonzero
    entries, permuted, with zeros placed between them."""
    drawn = draw(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    entries = [v for v, total in zip(drawn, itertools.accumulate(drawn)) if total <= 12]
    shuffled = draw(st.permutations(entries))
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(entries), max_size=len(entries)))
    spread = tuple(v for gap, entry in zip(gaps, shuffled) for v in (0,) * gap + (entry,))
    return tuple(entries), spread


@settings(max_examples=200, deadline=None, database=None)
@given(pair=_relabelled(), kind=st.sampled_from(["open", "closed"]))
def test_point_set_count_depends_only_on_the_nonzero_entries(pair, kind):
    # the letter counter assumes this symmetry; the level engine works on
    # the coordinates themselves, so it checks the symmetry independently
    comp, spread = pair
    count = count_point_sets(comp, kind)
    assert count_point_sets(spread, kind) == count
    assert _unwindowed(canonical(spread), kind, False) == (count if sum(comp) % 3 == 0 else 0)


@st.composite
def _small_compositions(draw):
    """Compositions of size <= 9 with up to 7 parts (stars and bars)."""
    size = draw(st.integers(1, 9))
    length = draw(st.integers(1, 7))
    bars = sorted(draw(st.lists(st.integers(0, size), min_size=length - 1, max_size=length - 1)))
    ends = [0, *bars, size]
    return tuple(ends[i + 1] - ends[i] for i in range(length))


@settings(max_examples=300, deadline=None, database=None)
@given(comp=_small_compositions(), kind=st.sampled_from(["open", "closed"]))
def test_level_engine_matches_oracle_and_index_engine(comp, kind):
    lam = canonical(comp)
    if not lam:
        return
    naive = _naive_candidates(lam, kind)
    assert _candidates(lam, kind) == naive
    for s in range(3 * len(lam)):
        assert _candidates(lam, kind, s) == [p for p in naive if sum(p) >= s]
        for t in range(s, 3 * len(lam)):
            assert _candidates(lam, kind, s, t) == [p for p in naive if s <= sum(p) <= t]
    for pyramids_only, count in ((False, count_point_sets), (True, count_pyramids)):
        ref = _count_reference(lam, kind, pyramids_only)
        assert _unwindowed(lam, kind, pyramids_only) == ref
        assert _count_by_index(lam, kind, pyramids_only) == ref
        assert count(lam, kind) == (ref if sum(lam) % 3 == 0 else 0)


def test_one_point_left_is_read_off_the_residual():
    # the level engine settles a take that leaves one point at once: the
    # residual, of entry sum 3, names that point, and a one-point instance
    # is a lookup inside its window
    for kind in ("open", "closed"):
        for p in itertools.product(range(5), repeat=3):
            if not in_cone(p, kind):
                continue
            lam = sum_marginal([p])
            assert tomography._named_point(lam) == tomography._named_point(list(lam) + [0]) == p
            level = sum(p)
            for floor, ceiling in ((0, 12), (level, level), (level + 1, 12), (0, level - 1)):
                assert _count_levelwise(lam, kind, False, floor, ceiling) == (floor <= level <= ceiling), (p, floor)


def _layer_vectors(r, k):
    """Vectors on [0, r] of size 3k whose coordinate sum is r*k: the
    marginals a k-point subset of layer r could have."""
    for vec in compositions_of(3 * k, r + 1):
        if coordinate_sum(vec) == r * k:
            yield vec


def test_engines_agree_on_forced_layers():
    # the complete pyramid below layer r is forced whole; the layer itself
    # is free, or forced too when every point of it is needed.  The open
    # cone has no points below layer 3, so it goes two layers further.
    checked = 0
    for kind, r_max in (("closed", 3), ("open", 5)):
        for r in range(r_max + 1):
            base = sum_marginal(complete_pyramid(r - 1, kind))
            for k in range(1, xi(r, kind) + 2):
                for vec in _layer_vectors(r, k):
                    lam = add(base, vec)
                    for pyramids_only in (False, True):
                        ref = _count_reference(lam, kind, pyramids_only)
                        assert _unwindowed(lam, kind, pyramids_only) == ref, (lam, kind, pyramids_only)
                        assert _count_by_index(lam, kind, pyramids_only) == ref, (lam, kind, pyramids_only)
                        checked += ref > 0
    assert checked >= 20


def _excess(lam, kind):
    return coordinate_sum(lam) - beta(sum(lam) // 3, kind)


def _peel_family():
    """Instances at excess 1-3 just above a complete pyramid: its marginal
    plus the marginal of one or two points of one of the next three
    layers."""
    family = {}
    for kind, radii in (("closed", range(3)), ("open", range(3, 6))):
        for t in radii:
            base = sum_marginal(complete_pyramid(t, kind))
            for r in range(t + 1, t + 4):
                for k in (1, 2):
                    for vec in _layer_vectors(r, k):
                        lam = add(base, vec)
                        if 1 <= _excess(lam, kind) <= 3:
                            family[lam, kind] = None
    return list(family)


def test_peeled_counts_match_the_oracles_at_excess_one_to_three():
    # the whole-cone counters take out the complete pyramid below
    # iota(n) - excess first; a floor off by the excess (say iota(n) - 1)
    # miscounts here, which a random draw of small compositions rarely hits
    family = _peel_family()
    peeled = solved = 0
    for lam, kind in family:
        peeled += iota(sum(lam) // 3, kind) - _excess(lam, kind) > 0
        for pyramids_only, count in ((False, count_point_sets), (True, count_pyramids)):
            ref = _count_reference(lam, kind, pyramids_only)
            assert _count_by_index(lam, kind, pyramids_only) == ref, (lam, kind, pyramids_only)
            assert count(lam, kind) == ref, (lam, kind, pyramids_only)
            solved += ref > 0
    assert len(family) >= 200 and peeled >= 150 and solved >= 100


def test_every_solution_contains_the_pyramid_below_the_floor():
    # the lemma behind the peel: at excess e, an n-point solution misses no
    # point of coordinate sum below iota(n) - e
    small = {(canonical(c), kind) for total in (3, 6, 9) for c in compositions_of(total, 4) for kind in ("open", "closed")}
    checked = 0
    for lam, kind in _peel_family() + sorted(small):
        if not lam or _excess(lam, kind) < 0:
            continue
        forced = complete_pyramid(iota(sum(lam) // 3, kind) - _excess(lam, kind) - 1, kind)
        found = []
        _count_reference(lam, kind, False, found)
        assert all(forced <= s for s in found), (lam, kind)
        checked += len(found) if forced else 0
    assert checked >= 100


@st.composite
def _cone_point_sets(draw):
    """A minimum-sum n-point set (the first n cone points by level) with
    up to four points each swapped for a random cone point of level <= 14."""
    kind = draw(st.sampled_from(["open", "closed"]))
    pool = sorted((p for p in full_simplex(14) if in_cone(p, kind)), key=sum)
    points = set(pool[: draw(st.integers(1, 40))])
    for _ in range(draw(st.integers(0, 4))):
        points.remove(draw(st.sampled_from(sorted(points))))
        points.add(draw(st.sampled_from([p for p in pool if p not in points])))
    return frozenset(points), kind


@settings(max_examples=300, deadline=None, database=None)
@given(case=_cone_point_sets())
def test_every_point_set_lies_in_its_level_window(case):
    # the window the whole-cone counters search: at excess e an n-point set
    # holds the complete pyramid below iota(n) - e and no point above
    # iota(n) + e
    points, kind = case
    n = len(points)
    excess = sum(map(sum, points)) - beta(n, kind)
    top = iota(n, kind)
    assert max(map(sum, points)) <= top + excess
    assert complete_pyramid(top - excess - 1, kind) <= points


def test_windowed_counts_match_unwindowed_counts():
    # every lam |- 3n, n <= 4: the counters (peeled below iota(n) - e,
    # nothing above iota(n) + e) against the engine on the whole cone
    for n in range(1, 5):
        for lam in partitions_of(3 * n):
            for kind in ("open", "closed"):
                for pyramids_only, count in ((False, count_point_sets), (True, count_pyramids)):
                    assert count(lam, kind) == _unwindowed(lam, kind, pyramids_only), (lam, kind, pyramids_only)


def test_chain_stages_share_one_memo_entry():
    # a layer instance, its promise embedding and the coefficient that
    # embedding resolves to all have the window [r, r] and one residual
    info = _count_levelwise.cache_info
    assert info().maxsize is not None
    inst = XRayInstance2D(3, (2, 1, 1), (2, 1, 1), (1, 1, 1, 1))
    for kind in ("open", "closed"):
        sym = symmetrize_2d(inst, kind)
        want = count_sym_2dxray(sym.marginal, sym.grid_r, kind)
        assert want == 2
        emb = embed_pyramid_3d(sym.marginal, sym.grid_r, kind)
        before = info()
        assert count_point_sets(emb.marginal, kind) == want == count_2dxray(inst)
        assert resolve_coefficient(promise_to_plethysm(emb.marginal, kind)).value == want
        after = info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses), kind


def test_range_three_promise_instance_under_a_low_recursion_limit():
    inst = XRayInstance2D(3, (2, 1, 1), (2, 1, 1), (1, 1, 1, 1))
    sym = symmetrize_2d(inst, "closed")
    lam = embed_pyramid_3d(sym.marginal, sym.grid_r, "closed").marginal
    assert is_promise_instance(lam, "closed")
    misses = _count_levelwise.cache_info().misses
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        got = count_point_sets(lam, "closed")
    finally:
        sys.setrecursionlimit(limit)
    # the DP ran under the limit, not a memo entry
    assert _count_levelwise.cache_info().misses == misses + 1
    assert got == count_2dxray(inst) == 2


def test_lower_covers_generate_the_dominated_set():
    # on a complete pyramid every point is kept, and dom holds its covers
    for kind in ("open", "closed"):
        pyr = sorted(complete_pyramid(9, kind))
        kept, dom = _closure_filter(pyr, kind)
        assert kept == pyr
        for p in pyr:
            assert len(dom[p]) <= 3 and all(sum(q) == sum(p) - 1 for q in dom[p])
            reached = set()
            frontier = list(dom[p])
            while frontier:
                q = frontier.pop()
                if q not in reached:
                    reached.add(q)
                    frontier.extend(dom[q])
            assert reached == set(_dominated(p, kind)), (p, kind)


@st.composite
def _compositions(draw):
    """Compositions of size <= 24 with up to 9 parts (stars and bars)."""
    size = draw(st.integers(1, 24))
    length = draw(st.integers(1, 9))
    bars = sorted(draw(st.lists(st.integers(0, size), min_size=length - 1, max_size=length - 1)))
    ends = [0, *bars, size]
    return tuple(ends[i + 1] - ends[i] for i in range(length))


@settings(max_examples=200, deadline=None, database=None)
@given(comp=_compositions(), kind=st.sampled_from(["open", "closed"]))
def test_closure_filter_matches_naive_filter(comp, kind):
    lam = canonical(comp)
    cands = _candidates(lam, kind)
    pool = set(cands)
    kept, dom = _closure_filter(cands, kind)
    assert kept == [p for p in cands if pool.issuperset(_dominated(p, kind))]
    assert set(dom) == set(kept)
    # above a floor, the points below it count as present
    for floor in range(1, 7):
        above = _candidates(lam, kind, floor)
        present = set(above) | complete_pyramid(floor - 1, kind)
        kept, dom = _closure_filter(above, kind, floor)
        assert kept == [p for p in above if present.issuperset(_dominated(p, kind))]
        assert set(dom) == set(kept)


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_pyramids_on_range_three_promise_instances(kind):
    # _closure_filter's earlier fixpoint over whole dominated sets took
    # tens of seconds on these
    inst = XRayInstance2D(3, (2, 1, 1), (2, 1, 1), (1, 1, 1, 1))
    sym = symmetrize_2d(inst, kind)
    lam = embed_pyramid_3d(sym.marginal, sym.grid_r, kind).marginal
    assert is_promise_instance(lam, kind)
    assert count_pyramids(lam, kind) == count_2dxray(inst) == 2


def test_pyramid_completions_depend_on_the_chosen_points():
    # two pyramids of 23 points share a sum-marginal; adding (4,4,0) keeps
    # only one of them closed.  A pyramid count memoized on (layer,
    # residual), as point-set counts are, would answer 0 here.
    below = [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0), (2, 1, 1), (2, 2, 0),
        (2, 2, 1), (2, 2, 2), (3, 0, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 3, 0), (4, 0, 0),
        (4, 1, 0), (4, 1, 1), (4, 2, 0), (4, 3, 0), (5, 0, 0), (5, 1, 0), (5, 1, 1),
    ]
    witness = below + [(4, 4, 0)]
    lam = sum_marginal(witness)
    assert lam == (24, 19, 12, 7, 7, 3) and is_pyramid(witness, "closed")
    assert count_pyramids(lam, "closed") == 1


def _level_pyramids(lam, kind, monkeypatch):
    """count_pyramids on the level engine, the table route switched off."""
    with monkeypatch.context() as m:
        m.setattr(tomography, "PYRAMID_TABLE_N_MAX", -1)
        return count_pyramids(lam, kind)


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_pyramid_table_matches_the_level_engine(kind, monkeypatch):
    # every lam |- 3n up to n = 8; above, up to two past the table's range,
    # every marginal the table holds and every 150th of the others (all
    # 248 284 pairs of lam |- 3n and cone up to n = 14 agreed in a one-off
    # run of 8.5 minutes on a 2-vCPU host)
    for n in range(PYRAMID_TABLE_N_MAX + 3):
        table = _pyramid_table(n, kind)
        assert sum(table.values()) == (1, 1, 1, 2, 3, 4, 6, 9, 12, 17, 24, 32, 44, 60, 80)[n]
        lams = list(partitions_of(3 * n))
        if n > 8:
            lams = sorted(set(lams[::150]) | set(table))
        for lam in lams:
            assert table.get(lam, 0) == _level_pyramids(lam, kind, monkeypatch), (lam, kind)
            if n <= PYRAMID_TABLE_N_MAX:
                assert count_pyramids(lam, kind) == table.get(lam, 0)


def test_pyramid_table_counts_shared_marginals():
    # two closed 23-point pyramids share this marginal: the table counts,
    # and agrees with the level engine
    lam = (23, 19, 12, 7, 5, 3)
    assert _pyramid_table(23, "closed")[lam] == 2 == count_pyramids(lam, "closed")


def test_pyramid_counts_dispatch_on_size(monkeypatch):
    # up to PYRAMID_TABLE_N_MAX points a pyramid count is a table lookup and
    # never enters the level engine; above it, the level engine runs
    for kind in ("open", "closed"):
        found = 0
        with monkeypatch.context() as m:
            m.setattr(tomography, "_count_levelwise", None)
            for n in range(1, PYRAMID_TABLE_N_MAX + 1):
                for lam in list(partitions_of(3 * n))[::50] + list(_pyramid_table(n, kind)):
                    found += count_pyramids(lam, kind)
        assert found >= 155  # every pyramid of 1 to 12 points, and more
        table = _pyramid_table(PYRAMID_TABLE_N_MAX + 1, kind)
        with monkeypatch.context() as m:
            m.setattr(tomography, "_pyramid_table", None)
            for lam, want in table.items():
                before = _count_levelwise.cache_info().misses
                assert count_pyramids(lam, kind) == want
                assert _count_levelwise.cache_info().misses == before + 1
    assert _pyramid_table.cache_info().maxsize == 2 * (PYRAMID_TABLE_N_MAX + 1)


def test_counting_leaves_no_reference_cycles():
    promise = add(sum_marginal(complete_pyramid(12, "open")), (2, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1))
    # one engine runs both the promise instance (forced layers) and
    # (3,3,2,1) (excess 7: take/skip, and the point-set memo)
    for count, lam, kind in (
        (count_point_sets, promise, "open"),
        (count_pyramids, promise, "open"),
        (count_point_sets, (3, 3, 2, 1), "closed"),
        (count_pyramids, (3, 3, 2, 1), "closed"),
    ):
        gc.collect()
        gc.disable()
        try:
            count(lam, kind)
            assert gc.collect() == 0, (count.__name__, lam)
        finally:
            gc.enable()


def test_pyramid_marginals_are_partitions():
    # no pyramid realizes a non-partition marginal (exhaustive, size <= 12)
    for total in (3, 6, 9, 12):
        for length in range(1, 5):
            for comp in compositions_of(total, length):
                lam = canonical(comp)
                if not lam or is_partition(lam):
                    continue
                for kind in ("open", "closed"):
                    assert count_pyramids(lam, kind) == 0, (lam, kind)


def test_pyramid_count_below_point_set_count():
    for lam in partitions_of(9):
        for kind in ("open", "closed"):
            assert count_pyramids(lam, kind) <= count_point_sets(lam, kind)


def _min_sum_sets_exist_below(n, kind, budget):
    """Is there an n-point cone set with coordinate sum <= budget?  Bounded
    DFS over candidates ordered by coordinate sum."""
    cands = sorted(
        (p for p in complete_pyramid(budget, kind)),
        key=lambda p: (p[0] + p[1] + p[2], p),
    )
    sums = [p[0] + p[1] + p[2] for p in cands]

    def rec(idx, left, budget_left):
        if left == 0:
            return True
        if idx == len(cands) or len(cands) - idx < left:
            return False
        # cheapest completion from here uses the next `left` candidates
        if sum(sums[idx : idx + left]) > budget_left:
            return False
        if rec(idx + 1, left - 1, budget_left - sums[idx]):
            return True
        return rec(idx + 1, left, budget_left)

    return rec(0, n, budget)


def test_minimum_coordinate_sum_is_beta():
    # no n-point set beats beta(n); beta(n) itself is attained
    for kind in ("open", "closed"):
        for n in range(1, 7):
            b = beta(n, kind)
            assert not _min_sum_sets_exist_below(n, kind, b - 1), (kind, n)
            assert _min_sum_sets_exist_below(n, kind, b), (kind, n)


def _sets_with_exact_sum(n, kind, target):
    """All n-point cone sets with coordinate sum exactly target (DFS with
    cheapest-completion pruning)."""
    cands = sorted(
        (p for p in complete_pyramid(target, kind)),
        key=lambda p: (p[0] + p[1] + p[2], p),
    )
    sums = [p[0] + p[1] + p[2] for p in cands]
    out = []
    chosen = []

    def rec(idx, left, budget_left):
        if left == 0:
            if budget_left == 0:
                out.append(frozenset(chosen))
            return
        if idx == len(cands) or len(cands) - idx < left:
            return
        if sum(sums[idx : idx + left]) > budget_left:
            return
        chosen.append(cands[idx])
        rec(idx + 1, left - 1, budget_left - sums[idx])
        chosen.pop()
        rec(idx + 1, left, budget_left)

    rec(0, n, target)
    return out


def test_coordinate_sum_pyramid_sandwich():
    # the minimal-coordinate-sum sets of each size are exactly the sets
    # sandwiched between consecutive complete pyramids
    for kind in ("open", "closed"):
        for n in range(1, 21):
            r = iota(n, kind)
            inner = complete_pyramid(r - 1, kind) if r > 0 else frozenset()
            outer = complete_pyramid(r, kind)
            minimal = _sets_with_exact_sum(n, kind, beta(n, kind))
            sandwiched = {
                frozenset(inner | set(extra))
                for extra in itertools.combinations(sorted(outer - inner), n - len(inner))
            }
            assert set(minimal) == sandwiched, (kind, n)


def test_promise_instances_force_pyramids():
    # every realizing set of a promise instance is a pyramid: point-set and
    # pyramid counts agree on all promise instances of size <= 18
    checked = 0
    for total in (3, 6, 9, 12, 15, 18):
        for lam in partitions_of(total):
            for kind in ("open", "closed"):
                if not is_promise_instance(lam, kind):
                    continue
                assert count_point_sets(lam, kind) == count_pyramids(lam, kind), (lam, kind)
                checked += 1
    assert checked >= 30


def test_bounds_sandwich_small():
    # general_plethysm, not plethysm_coeff, which answers a promise shape by
    # the point-set count the bound is checked against
    for n in (1, 2):
        for lam in partitions_of(3 * n):
            a = general_plethysm(lam, outer_shape(n, "a"), (3,)).value
            b = general_plethysm(lam, outer_shape(n, "b"), (3,)).value
            lam_t = transpose(lam)
            assert count_pyramids(lam_t, "open") <= a <= count_point_sets(lam_t, "open")
            assert count_pyramids(lam, "closed") <= b <= count_point_sets(lam, "closed")


def test_bounds_sandwich_past_four():
    # every lambda |- 15, and every lambda |- 18 in an 8x8 box
    shapes = [(5, lam) for lam in partitions_of(15)]
    shapes += [(6, lam) for lam in partitions_of(18, max_parts=8, max_part=8)]
    assert len(shapes) == 176 + 194
    for n, lam in shapes:
        a = general_plethysm(lam, outer_shape(n, "a"), (3,)).value
        b = general_plethysm(lam, outer_shape(n, "b"), (3,)).value
        lam_t = transpose(lam)
        assert count_pyramids(lam_t, "open") <= a <= count_point_sets(lam_t, "open"), (lam, "a")
        assert count_pyramids(lam, "closed") <= b <= count_point_sets(lam, "closed"), (lam, "b")


@pytest.mark.parametrize(
    "lam,kind,want",
    [
        ((2,) + (1,) * 13, "open", 600600),
        ((2,) * 9, "closed", 1010520),
        ((3,) + (2,) * 7 + (1,), "closed", 739830),
    ],
)
def test_point_set_counts_far_above_the_minimum(lam, kind, want):
    # many solutions spread over few distinct residuals, where equal
    # residuals merging at every candidate does most of the work
    assert count_point_sets(lam, kind) == want


def test_count_2dxray():
    assert count_2dxray(XRayInstance2D(0, (1,), (1,), (1,))) == 1
    fig = XRayInstance2D(7, (2, 2, 1, 0, 3, 0, 1), (1, 2, 1, 2, 1, 1, 1), (2, 3, 1, 1, 2))
    assert count_2dxray(fig) == 3  # the depicted witness is one of three
    assert count_2dxray(XRayInstance2D(1, (2, 0), (2, 0), (0, 2))) == 0
    assert count_2dxray(XRayInstance2D(1, (1, 1), (1, 1), (2, 0))) == 1


def test_count_2dxray_infeasible_totals():
    assert count_2dxray(XRayInstance2D(1, (2,), (1,), (1,))) == 0
    assert count_2dxray(XRayInstance2D(2, (1, 1), (1, 1), (1, 1))) == 0  # coordinate sum off


def test_count_sym_2dxray():
    assert count_sym_2dxray((1, 2, 4, 1, 0, 1), 6, "closed") == 1
    assert count_sym_2dxray((3,), 0, "closed") == 1
    # wrong layer coordinate sum
    assert count_sym_2dxray((0, 0, 3), 1, "closed") == 0
    # a size that is not a multiple of 3 holds no point set
    assert count_sym_2dxray((2, 2), 1, "closed") == 0


def test_negative_grid_range_is_refused():
    # r = -1 used to count 1 (2dxray) or 0 (sym2d); r = 0 stays a layer
    with pytest.raises(ValueError, match="grid range must be >= 0, got -1"):
        XRayInstance2D(-1, (), (), ())
    with pytest.raises(ValueError, match="grid range must be >= 0, got -1"):
        tomography.SymInstance((), "closed", -1)
    with pytest.raises(ValueError, match="grid range must be >= 0, got -1"):
        count_sym_2dxray((), -1, "closed")
    assert count_2dxray(XRayInstance2D(0, (), (), ())) == 1
    assert count_sym_2dxray((), 0, "closed") == 1


def test_count_3dxray():
    assert count_3dxray((1,), (1,), (1,)) == 1
    assert count_3dxray((1, 1), (1, 1), (1, 1)) == 4  # brute-verified
    assert count_3dxray((2,), (1,), (1,)) == 0


def _brute_axis_count(cells, mu, nu, rho):
    """Subsets of cells with the given axis marginals, by enumeration."""
    want = (canonical(mu), canonical(nu), canonical(rho))
    return sum(axis_marginals(sub) == want for sub in itertools.combinations(cells, sum(want[0])))


def _drawn_marginals(data, cells):
    """Axis marginals of a random point set among cells, or its X- and
    Y-marginals with the Z-marginal of another set of the same size, which
    need not be realizable."""
    n = data.draw(st.integers(0, min(5, len(cells))))
    a = data.draw(st.sets(st.sampled_from(cells), min_size=n, max_size=n))
    mu, nu, rho = axis_marginals(a)
    if data.draw(st.booleans()):
        rho = axis_marginals(data.draw(st.sets(st.sampled_from(cells), min_size=n, max_size=n)))[2]
    return mu, nu, rho


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_count_3dxray_brute_cross_check(data):
    box = list(itertools.product(range(3), range(3), range(2)))
    mu, nu, rho = _drawn_marginals(data, box)
    assert count_3dxray(mu, nu, rho) == _brute_axis_count(box, mu, nu, rho)


def test_count_3dxray_exhaustive_small_box():
    box = list(itertools.product(range(2), repeat=3))
    for mu, nu, rho in itertools.product(compositions_of(2, 2), repeat=3):
        assert count_3dxray(mu, nu, rho) == _brute_axis_count(box, mu, nu, rho)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_count_2dxray_brute_cross_check(data):
    r = data.draw(st.integers(0, 5))
    layer = [(x, y, r - x - y) for x in range(r + 1) for y in range(r + 1 - x)]
    mu, nu, rho = _drawn_marginals(data, layer)
    assert count_2dxray(XRayInstance2D(r, mu, nu, rho)) == _brute_axis_count(layer, mu, nu, rho)


@pytest.mark.parametrize("n", range(8))
def test_count_3dxray_all_ones_is_n_factorial_squared(n):
    # n points with pairwise distinct x, y and z: one pair of permutations
    # x -> y, x -> z each
    ones = (1,) * n
    assert count_3dxray(ones, ones, ones) == math.factorial(n) ** 2


def test_count_3dxray_size_cap():
    # 1^9 has exactly AXIS_STATE_CAP residual pairs and is still counted;
    # the cap is checked before any state is built
    assert 4**9 == AXIS_STATE_CAP
    for n in (10, 40):
        ones = (1,) * n
        with pytest.raises(SizeCapError):
            count_3dxray(ones, ones, ones)
    with pytest.raises(SizeCapError):
        count_3dxray((2048,), (1024, 1024), (2048,))
    # 501^2 pairs, under the cap: the points (x, 0, 0) for x < 500
    assert count_3dxray((1,) * 500, (500,), (500,)) == 1


def layer_sample(r, n, seed):
    """The 2dxray instance of n cells of the layer x+y+z = r drawn by seed."""
    layer = [(x, y, r - x - y) for x in range(r + 1) for y in range(r + 1 - x)]
    return XRayInstance2D(r, *axis_marginals(random.Random(seed).sample(layer, n)))


@pytest.mark.parametrize(
    "r,n,seed,want",
    [(9, 16, 5, 244), (12, 24, 1, 590), (12, 24, 2, 71324), (12, 24, 3, 89), (13, 26, 1, 11658)],
)
def test_count_2dxray_under_the_state_cap(r, n, seed, want):
    # random sets of 2r layer points; range 13 peaks at 178466 states in
    # one dict, the closest of these to AXIS_STATE_CAP
    assert count_2dxray(layer_sample(r, n, seed)) == want


@pytest.mark.parametrize("r", [15, 20])
def test_count_2dxray_state_cap(r):
    # without the cap, range 15 counted 14947969 sets in 71 s and range 20
    # ran out of a 2.5 GB address space after 25 s
    t0 = time.perf_counter()
    with pytest.raises(SizeCapError, match="over the cap"):
        count_2dxray(layer_sample(r, 2 * r, 1))
    assert time.perf_counter() - t0 < 10.0


def test_2dxray_gate():
    assert XRayInstance2D(1, (1, 1), (1, 1), (2, 0)).passes_gate()
    assert not XRayInstance2D(1, (2,), (1,), (1,)).passes_gate()  # totals differ
    assert not XRayInstance2D(2, (1, 1), (1, 1), (1, 1)).passes_gate()  # coordinate sum off


def test_pipeline_scale_promise_instance():
    lam = add(sum_marginal(complete_pyramid(12, "open")), (2, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1))
    assert lam == (32, 26, 22, 20, 17, 13, 11, 9, 6, 5, 3, 1)
    assert is_promise_instance(lam, "open")
    assert count_point_sets(lam, "open") == 1
    assert count_pyramids(lam, "open") == 1


def test_instance_json_schema():
    data = {"kind": "2dxray", "r": 1, "marginals": {"x": [1, 1], "y": [1, 1], "z": [2, 0]}}
    inst = instance_from_dict(data)
    assert isinstance(inst, XRayInstance2D)
    assert count_instance(data) == 1
    sym = {"kind": "sym2d", "r": 6, "cone": "closed", "marginals": {"sum": [1, 2, 4, 1, 0, 1]}}
    assert count_instance(sym) == 1
    sym3 = {"kind": "sym3d", "cone": "closed", "marginals": {"sum": [3]}}
    assert count_instance(sym3) == 1
    xray3 = {"kind": "3dxray", "marginals": {"x": [1, 1], "y": [1, 1], "z": [1, 1]}}
    assert count_instance(xray3) == 4
    with pytest.raises(ValueError):
        instance_from_dict({"kind": "nope"})


def test_2d_instance_validation():
    with pytest.raises(ValueError):
        XRayInstance2D(1, (1, 1, 1), (1,), (1,))
