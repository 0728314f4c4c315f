import itertools
import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethtomo import tableaux
from plethtomo.partitions import canonical, compositions_of, is_partition, pad, partitions_of, transpose
from plethtomo.sympoly import schur_poly
from plethtomo.tableaux import (
    KOSTKA_MAXSIZE,
    KOSTKA_ROWS_MAXSIZE,
    STRIP_REMOVALS_MAXSIZE,
    STRIP_TABLES_MAXSIZE,
    _kostka_row,
    _strip_removals,
    _strip_table,
    count_weighted_ssyt,
    dim_weyl,
    kostka,
    ssyt_weights,
)
from tableau_oracles import column_strips, enumerate_ssyt, horizontal_strips, prefix_kostka_row, tableau_weight


def test_enumerate_ssyt_counts():
    assert len(enumerate_ssyt((1,), 3)) == 3
    assert len(enumerate_ssyt((2, 1), 3)) == 8
    assert len(enumerate_ssyt((1, 1, 1, 1), 3)) == 0
    assert enumerate_ssyt((), 3) == [()]


def test_enumerate_ssyt_matches_weyl_dimension():
    for n in range(1, 6):
        for shape in partitions_of(n):
            for k in (1, 2, 3, 4):
                assert len(enumerate_ssyt(shape, k)) == dim_weyl(shape, k)


def test_ssyt_are_semistandard():
    for t in enumerate_ssyt((3, 2), 3):
        for row in t:
            assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))
        for r in range(1, len(t)):
            for c in range(len(t[r])):
                assert t[r][c] > t[r - 1][c]


def test_horizontal_strips_match_a_filter_over_all_shapes():
    # every beta with alpha <= beta <= mu and beta_i <= alpha_{i-1}, in
    # lexicographic order, for every alpha inside every mu with |mu| <= 8
    pairs = 0
    for n in range(9):
        for mu in partitions_of(n):
            boxes = list(itertools.product(*(range(m + 1) for m in mu)))
            for alpha in boxes:
                if any(alpha[i] < alpha[i + 1] for i in range(len(alpha) - 1)):
                    continue
                pairs += 1
                allowed = [
                    beta for beta in boxes
                    if all(a <= b for a, b in zip(alpha, beta)) and all(beta[i] <= alpha[i - 1] for i in range(1, len(mu)))
                ]
                assert list(horizontal_strips(alpha, mu)) == allowed, (alpha, mu)
                # a shorter alpha is padded with zero rows
                assert list(horizontal_strips(canonical(alpha), mu)) == allowed, (alpha, mu)
    assert pairs == 862


def test_kostka_one_long_column():
    # a shape of 1200 rows, where a recursion frame per row ran out of
    # interpreter stack
    assert kostka((2,) + (1,) * 1198, (1,) * 1200) == 1199


KOSTKA_EXAMPLES = [
    ((4,), (4,), 1),
    ((2, 1), (1, 1, 1), 2),
    ((1, 1), (2,), 0),
    ((2, 2), (2, 1, 1), 1),
    ((3, 1), (2, 2), 1),
]


@pytest.mark.parametrize("mu,weight,expected", KOSTKA_EXAMPLES)
def test_kostka_examples(mu, weight, expected):
    assert kostka(mu, weight) == expected


def test_kostka_matches_enumeration():
    for n in range(1, 6):
        for mu in partitions_of(n):
            tableaux = enumerate_ssyt(mu, n)
            for weight in partitions_of(n):
                by_filter = sum(1 for t in tableaux if tableau_weight(t, n)[: len(weight)] == weight
                                and all(v == 0 for v in tableau_weight(t, n)[len(weight):]))
                assert kostka(mu, weight) == by_filter


def test_kostka_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1))


def test_kostka_memo_is_bounded():
    assert kostka.cache_info().maxsize == KOSTKA_MAXSIZE


def test_strip_tables_are_bounded():
    assert _strip_table.cache_info().maxsize == STRIP_TABLES_MAXSIZE


def test_kostka_rows_are_bounded():
    assert _kostka_row.cache_info().maxsize == KOSTKA_ROWS_MAXSIZE


def test_strip_removals_are_bounded():
    assert _strip_removals.cache_info().maxsize == STRIP_REMOVALS_MAXSIZE


def test_strip_removals_are_the_oracle_strips():
    # for every nu |- n <= 9: the shapes inside nu that the oracle grows
    # into nu by one horizontal strip, by strip size, each once, and no
    # entry for the empty strip
    checked = 0
    for n in range(10):
        for nu in partitions_of(n):
            want = {}
            for alpha in itertools.product(*(range(m + 1) for m in nu)):
                if is_partition(alpha) and nu in horizontal_strips(alpha, nu):
                    want.setdefault(n - sum(alpha), []).append(canonical(alpha))
            want.pop(0)
            got = _strip_removals(nu)
            assert {p: sorted(shapes) for p, shapes in got.items()} == {p: sorted(shapes) for p, shapes in want.items()}, nu
            checked += sum(map(len, got.values()))
    assert checked == 637


def test_kostka_row_is_monomial_expansion():
    row = _kostka_row((2, 1), 3)
    assert row == {(2, 1): 1, (1, 1, 1): 2}


def test_kostka_row_matches_per_weight_kostka():
    # the prefix-sharing walk against one single-weight DP per pi, keys in
    # the order of partitions_of, on every shape of size <= 10 and every
    # alphabet up to one letter more than boxes (the row capped at |lam|)
    for n in range(11):
        for lam in partitions_of(n):
            for k in range(n + 2):
                want = {pi: c for pi in partitions_of(n, max_parts=k) if (c := kostka(lam, pi))}
                got = _kostka_row(lam, min(k, n))
                assert got == want and list(got) == list(want), (lam, k)


def test_kostka_row_matches_the_prefix_walk():
    # the strip-peeling walk against the prefix walk on the strip table,
    # values and key order, on every shape of size <= 12 and every
    # alphabet up to one letter more than boxes (the row capped at |lam|)
    for n in range(13):
        for lam in partitions_of(n):
            for k in range(n + 2):
                want = prefix_kostka_row(lam, min(k, n))
                got = _kostka_row(lam, min(k, n))
                assert got == want and list(got) == list(want), (lam, k)


@pytest.mark.parametrize(
    "lam,k",
    [((5, 5, 5, 5), 20), ((10, 10), 20), ((6, 5, 4, 3, 2, 1), 21), ((7, 6, 5, 4, 3, 2, 1), 28), ((12, 10, 8), 30),
     ((6, 6, 6, 6, 6), 30), ((200,), 3), ((3000,), 2), ((1,) * 300, 300)],
)
def test_cold_kostka_rows_match_the_prefix_walk(lam, k):
    # long rows, one-row and one-column shapes among them, each cold
    want = prefix_kostka_row(lam, k)
    got = _kostka_row(lam, k)
    assert got == want and list(got) == list(want)


def test_warm_kostka_rows_step_no_strip(monkeypatch):
    # schur_poly and ssyt_weights read one row memo: once a row is walked,
    # neither reads a strip removal for it again, at any k of |mu| or
    # more; a cold k builds removal entries
    mu = (4, 2, 1)
    row, weights = schur_poly(mu, 7).coeffs, ssyt_weights(mu, 4)

    def refuse(*args):
        raise AssertionError("a warm Kostka row read a strip removal")

    monkeypatch.setattr(tableaux, "_strip_removals", refuse)
    assert schur_poly(mu, 7).coeffs == schur_poly(mu, 9).coeffs == row
    assert ssyt_weights(mu, 4) == weights
    assert len(ssyt_weights(mu, 8)) == dim_weyl(mu, 8)
    with pytest.raises(AssertionError, match="warm Kostka row"):
        schur_poly(mu, 5)
    monkeypatch.undo()
    _strip_removals.cache_clear()
    assert schur_poly(mu, 5).coeffs == {pi: c for pi, c in row.items() if len(pi) <= 5}
    assert _strip_removals.cache_info().currsize > 0


def brute_weighted_count(mu, letters, target):
    """Enumerate SSYT over the index alphabet and filter by pooled weight."""
    total = 0
    for t in enumerate_ssyt(mu, len(letters)):
        acc = [0] * len(target)
        for row in t:
            for letter in row:
                for i, v in enumerate(letters[letter]):
                    acc[i] += v
        if tuple(acc) == tuple(target):
            total += 1
    return total


def test_count_weighted_ssyt_against_enumeration():
    letters = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 2), (2, 0, 0)]
    shapes = [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2)]
    degrees = {w: sum(w) for w in letters}
    for mu in shapes:
        boxes = sum(mu)
        seen = set()
        for combo in itertools.combinations_with_replacement(letters, boxes):
            target = tuple(sum(w[i] for w in combo) for i in range(3))
            if target in seen:
                continue
            seen.add(target)
            assert count_weighted_ssyt(mu, letters, target) == brute_weighted_count(mu, letters, target)


def test_count_weighted_ssyt_rejects_letters_of_another_length():
    with pytest.raises(ValueError):
        count_weighted_ssyt((2,), [(1, 0, 5)], (2, 0))


def test_count_weighted_ssyt_empty_shape_and_negative_target():
    assert count_weighted_ssyt((), [], ()) == 1
    assert count_weighted_ssyt((1,), [(1,)], (-1,)) == 0


def filled_ssyt_weights(shape, k, bound=None):
    """Test oracle: the weight vectors (length k) of all SSYT of ``shape``
    over 0..k-1, one per tableau, filled box by box; with ``bound``, only
    tableaux whose weight is entrywise <= bound."""
    shape = canonical(shape)
    if not shape:
        return [(0,) * k]
    if len(shape) > k:
        return []
    cap = list(pad(bound, k)) if bound is not None else [sum(shape)] * k
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid = [[0] * row for row in shape]
    weight = [0] * k
    out = []

    def fill(idx):
        if idx == len(cells):
            out.append(tuple(weight))
            return
        r, c = cells[idx]
        lo = grid[r][c - 1] if c > 0 else 0
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, k):
            if weight[v] < cap[v]:
                grid[r][c] = v
                weight[v] += 1
                fill(idx + 1)
                weight[v] -= 1

    fill(0)
    return out


def unpruned_weighted_count(mu, letters, target):
    """Test oracle: the horizontal-strip DP over the letters in the order
    given, with no pruning; states are (subshape, partial weight)."""
    mu = canonical(mu)
    states = {((0,) * len(mu), (0,) * len(target)): 1}
    for w in letters:
        new = {}
        for (alpha, acc), cnt in states.items():
            for beta in horizontal_strips(alpha, mu):
                s = sum(beta) - sum(alpha)
                key = (beta, tuple(a + s * v for a, v in zip(acc, w)))
                new[key] = new.get(key, 0) + cnt
        states = new
    return states.get((pad(mu, len(mu)), tuple(target)), 0)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_count_weighted_ssyt_any_letter_order(data):
    # three coordinates the letters may touch and a fourth none touches
    mu = data.draw(st.sampled_from([p for n in range(1, 5) for p in partitions_of(n)]))
    letters = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.just(0)), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        letters.append((0, 0, 0, 0))
    used = data.draw(st.lists(st.sampled_from(letters), min_size=sum(mu), max_size=sum(mu)))
    target = [sum(w[i] for w in used) for i in range(4)]
    target[data.draw(st.integers(0, 3))] += data.draw(st.integers(0, 1))
    target = tuple(target)
    shuffled = data.draw(st.permutations(letters))
    want = brute_weighted_count(mu, letters, target)
    assert count_weighted_ssyt(mu, letters, target) == want
    assert count_weighted_ssyt(mu, shuffled, target) == want
    assert unpruned_weighted_count(mu, letters, target) == want


def test_ssyt_weights_with_bound():
    unbounded = ssyt_weights((2, 1), 3)
    assert len(unbounded) == 8
    bounded = ssyt_weights((2, 1), 3, bound=(1, 1, 1))
    assert len(bounded) == 2  # standard fillings only
    assert all(max(w) <= 1 for w in bounded)
    for n in range(5):
        for shape in partitions_of(n):
            for k in range(4):
                filled = sorted(tableau_weight(t, k) for t in enumerate_ssyt(shape, k))
                assert sorted(ssyt_weights(shape, k)) == sorted(filled_ssyt_weights(shape, k)) == filled
                for bound in ((2,) * k, tuple(range(k, 0, -1))):
                    assert sorted(ssyt_weights(shape, k, bound)) == sorted(filled_ssyt_weights(shape, k, bound))


def unbounded_ssyt_weights(shape, k, bound=None):
    """Test oracle: ssyt_weights walking every composition of |shape| under
    bound, whatever its largest entry, with its Kostka multiplicity."""
    return [w for w in compositions_of(sum(shape), k, bound) for _ in range(kostka(shape, tuple(sorted(w, reverse=True))))]


def test_ssyt_weights_walk_only_entries_up_to_the_first_row():
    # a value fills at most one box per column, so the walk bounded by
    # shape[0] lists the same weights in the same order
    for n in range(6):
        for shape in partitions_of(n):
            for k in range(6):
                assert ssyt_weights(shape, k) == unbounded_ssyt_weights(shape, k), (shape, k)
                for bound in itertools.product(range(4), repeat=k):
                    assert ssyt_weights(shape, k, bound) == unbounded_ssyt_weights(shape, k, bound), (shape, k, bound)


def test_ssyt_weights_read_the_rows_the_per_weight_kostka_gives():
    # ssyt_weights reads shape's Kostka row; the oracle reads kostka weight
    # by weight over every composition under the bound
    for n in range(7):
        for shape in partitions_of(n):
            for k in range(6):
                for bound in (None, (2,) * k, tuple(range(k, 0, -1)), (3, 0, 1, 2, 1)[:k]):
                    assert ssyt_weights(shape, k, bound) == unbounded_ssyt_weights(shape, k, bound), (shape, k, bound)


def test_ssyt_weights_one_long_row():
    # one composition, where a box-by-box fill needs one frame per box
    assert ssyt_weights((1200,), 1) == [(1200,)]
    assert ssyt_weights((3000,), 2, bound=(2999, 1)) == [(2999, 1)]


def test_dim_weyl_edge_cases():
    assert dim_weyl((), 3) == 1
    assert dim_weyl((1, 1, 1, 1), 3) == 0
    assert dim_weyl((3,), 2) == 4


@pytest.mark.parametrize("entry", [lambda: ssyt_weights((2,), -1), lambda: dim_weyl((2, 1), -1)], ids=["ssyt_weights", "dim_weyl"])
def test_negative_letter_counts_raise(entry):
    with pytest.raises(ValueError, match="negative letter count -1"):
        entry()


def test_column_strips_are_the_transposed_horizontal_strips():
    # the same strips as horizontal_strips, of every size at once, in
    # column heights, for every alpha inside every mu with |mu| <= 8
    pairs = 0
    for n in range(9):
        for mu in partitions_of(n):
            heights = transpose(mu)
            for alpha in itertools.product(*(range(m + 1) for m in mu)):
                if not is_partition(alpha):
                    continue
                pairs += 1
                cols = pad(transpose(alpha), len(heights))
                want = {pad(transpose(beta), len(heights)) for beta in horizontal_strips(alpha, mu)}
                got = list(column_strips(cols, heights))
                assert len(got) == len(want) and set(got) == want, (alpha, mu)
    assert pairs == 862


def test_kostka_on_tall_shapes_matches_enumeration():
    # more rows than columns; weights are compositions, zeros inside
    # included
    checked = 0
    for n in range(1, 7):
        for mu in partitions_of(n):
            if len(mu) <= mu[0]:
                continue
            by_weight = Counter(tableau_weight(t, n + 1) for t in enumerate_ssyt(mu, n + 1))
            for weight in compositions_of(n, n + 1):
                assert kostka(mu, canonical(weight)) == by_weight[weight], (mu, weight)
                checked += 1
    assert checked == 5542


def test_kostka_on_every_shape_and_its_transpose_matches_enumeration():
    # every lam |- n <= 6 right after lam', on every composition of n into
    # n+1 parts, zeros inside included, with the strip removals kept
    # throughout, so later shapes peel through entries that earlier ones
    # filled.  The peel runs on every call, past the Kostka memo.
    by_shape = {}
    checked = 0
    for n in range(1, 7):
        weights = list(compositions_of(n, n + 1))
        for lam in partitions_of(n):
            for mu in (transpose(lam), lam):
                if mu not in by_shape:
                    by_shape[mu] = Counter(tableau_weight(t, n + 1) for t in enumerate_ssyt(mu, n + 1))
                for weight in weights:
                    assert kostka.__wrapped__(mu, canonical(weight)) == by_shape[mu][weight], (mu, weight)
                    checked += 1
    assert checked == 24704


def test_strip_tables_hold_the_oracle_strips():
    # every subshape reachable from the empty one in every mu |- n <= 8,
    # wide shapes in rows and tall ones in column heights: the entry's
    # codes of each size are the oracle's strips of that size, encoded in
    # the table's mixed radix, each once
    entries = tall_entries = 0
    for n in range(1, 9):
        for mu in partitions_of(n):
            full, table, grow = _strip_table.__wrapped__(mu)
            tall = len(mu) > mu[0]
            shape = transpose(mu) if tall else mu
            radices = [math.prod(m + 1 for m in shape[:i]) for i in range(len(shape))]
            strips = column_strips if tall else horizontal_strips
            assert full == sum(b * r for b, r in zip(shape, radices))
            todo, seen = [((0,) * len(shape), 0)], {0}
            while todo:
                alpha, a = todo.pop()
                want = {}
                for beta in strips(alpha, shape):
                    want.setdefault(sum(beta) - sum(alpha), {})[sum(b * r for b, r in zip(beta, radices))] = beta
                got = grow(a)
                assert table[a] is got
                assert {s: sorted(codes) for s, codes in got.items()} == {s: sorted(by_code) for s, by_code in want.items()}, (mu, alpha)
                entries += 1
                tall_entries += tall
                for by_code in want.values():
                    for b, beta in by_code.items():
                        if b not in seen:
                            seen.add(b)
                            todo.append((beta, b))
    # every subshape of every mu: the 862 pairs of the enumerator tests
    # less the empty mu's
    assert (entries, tall_entries) == (861, 365)


def test_weighted_counts_share_one_strip_table_that_kostka_never_reads():
    # a Kostka number peels strip removals and makes no strip table; then
    # two weighted counts on the same shape: one table, and every entry the
    # first count filled is still the same object after the second, so no
    # subshape's strips were filled twice
    mu = (3, 2, 1)
    letters = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    assert kostka.__wrapped__(mu, (2, 2, 1, 1)) == brute_weighted_count(mu, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], (2, 2, 1, 1))
    assert _strip_table.cache_info().currsize == 0 < _strip_removals.cache_info().currsize
    assert count_weighted_ssyt(mu, letters, (2, 2, 2)) == brute_weighted_count(mu, letters, (2, 2, 2))
    _, table, _ = _strip_table(mu)
    filled = dict(table)
    assert filled
    assert count_weighted_ssyt(mu, letters, (3, 2, 1)) == brute_weighted_count(mu, letters, (3, 2, 1))
    assert _strip_table.cache_info().currsize == 1
    assert _strip_table(mu)[1] is table
    assert all(table[a] is entry for a, entry in filled.items())


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_kostka_is_the_weighted_count_over_unit_letters(data):
    # the strip peel and the weighted count's strip table, either one run
    # first on cold memos; wide and tall shapes alike
    mu = data.draw(st.sampled_from([p for n in range(1, 9) for p in partitions_of(n)]))
    k = data.draw(st.integers(1, sum(mu) + 1))
    weight = data.draw(st.sampled_from(list(compositions_of(sum(mu), k))))
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    _strip_table.cache_clear()
    _strip_removals.cache_clear()
    if data.draw(st.booleans()):
        want = kostka.__wrapped__(mu, canonical(weight))
        assert count_weighted_ssyt(mu, units, weight) == want
    else:
        want = count_weighted_ssyt(mu, units, weight)
        assert kostka.__wrapped__(mu, canonical(weight)) == want


def test_strip_table_under_concurrent_callers():
    # four threads fill one cold strip table through the weighted counts,
    # and the cold strip removals through one cold Kostka row; each must
    # get the serial answers
    mu, k = (6, 5, 4, 3, 2, 1), 7
    letters = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]
    targets = [(7, 7, 7), (8, 7, 6), (5, 8, 8)]
    want = (_kostka_row(mu, k), [count_weighted_ssyt(mu, letters, t) for t in targets])
    _strip_table.cache_clear()
    _strip_removals.cache_clear()
    _kostka_row.cache_clear()
    got, errors = [], []

    def work(first_row):
        try:
            counts = [count_weighted_ssyt(mu, letters, t) for t in targets]
            row = _kostka_row(mu, k)
            if not first_row:
                counts = [count_weighted_ssyt(mu, letters, t) for t in targets]
            got.append((row, counts))
        except Exception as exc:
            errors.append(repr(exc))

    threads = [threading.Thread(target=work, args=(i % 2 == 0,)) for i in range(4)]
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
    assert len(got) == 4 and all(answer == want for answer in got)
