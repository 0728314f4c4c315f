import itertools
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethtomo import tableaux
from plethtomo.partitions import canonical, compositions_of, is_partition, pad, partitions_of, transpose
from plethtomo.tableaux import (
    KOSTKA_MAXSIZE,
    STRIP_TABLES_MAXSIZE,
    _column_strips,
    _horizontal_strips,
    _strip_table,
    count_weighted_ssyt,
    dim_weyl,
    kostka,
    kostka_row,
    ssyt_weights,
)
from tableau_oracles import enumerate_ssyt, tableau_weight


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
                assert list(_horizontal_strips(alpha, mu)) == allowed, (alpha, mu)
                # a shorter alpha is padded with zero rows
                assert list(_horizontal_strips(canonical(alpha), mu)) == allowed, (alpha, mu)
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


def test_kostka_row_is_monomial_expansion():
    row = kostka_row((2, 1), 3)
    assert row == {(2, 1): 1, (1, 1, 1): 2}


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
            for beta in _horizontal_strips(alpha, mu):
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


def test_ssyt_weights_one_long_row():
    # one composition, where a box-by-box fill needs one frame per box
    assert ssyt_weights((1200,), 1) == [(1200,)]
    assert ssyt_weights((3000,), 2, bound=(2999, 1)) == [(2999, 1)]


def test_dim_weyl_edge_cases():
    assert dim_weyl((), 3) == 1
    assert dim_weyl((1, 1, 1, 1), 3) == 0
    assert dim_weyl((3,), 2) == 4


@pytest.mark.parametrize("entry", [lambda: ssyt_weights((2,), -1), lambda: dim_weyl((2, 1), -1), lambda: kostka_row((2,), -1)], ids=["ssyt_weights", "dim_weyl", "kostka_row"])
def test_negative_letter_counts_raise(entry):
    with pytest.raises(ValueError, match="negative letter count -1"):
        entry()


def test_column_strips_are_the_transposed_horizontal_strips():
    # the same strips as _horizontal_strips, of every size at once, in
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
                want = {pad(transpose(beta), len(heights)) for beta in _horizontal_strips(alpha, mu)}
                got = list(_column_strips(cols, heights))
                assert len(got) == len(want) and set(got) == want, (alpha, mu)
    assert pairs == 862


def test_kostka_on_tall_shapes_matches_enumeration():
    # more rows than columns takes the column-height DP; weights are
    # compositions, zeros inside included
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
    # n+1 parts, zeros inside included, with the strip tables kept
    # throughout: a tall shape's column-strip table and its transpose's
    # horizontal-strip table sit on the same tuple.  The DP runs on every
    # call, past the Kostka memo.
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


def test_kostka_and_weighted_counts_share_one_strip_table(monkeypatch):
    # a Kostka number, then two weighted counts on the same shape: one
    # table, and each subshape's strips enumerated once across the calls
    calls = Counter()

    def counted(enumerate_strips):
        def wrapper(alpha, *args):
            calls[tuple(alpha)] += 1
            return enumerate_strips(alpha, *args)
        return wrapper

    monkeypatch.setattr(tableaux, "_horizontal_strips", counted(_horizontal_strips))
    monkeypatch.setattr(tableaux, "_column_strips", counted(_column_strips))
    mu = (3, 2, 1)
    letters = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    assert kostka.__wrapped__(mu, (2, 2, 1, 1)) == brute_weighted_count(mu, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], (2, 2, 1, 1))
    for target in ((2, 2, 2), (3, 2, 1)):
        assert count_weighted_ssyt(mu, letters, target) == brute_weighted_count(mu, letters, target)
    assert _strip_table.cache_info().currsize == 1
    assert calls and max(calls.values()) == 1, calls


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_kostka_is_the_weighted_count_over_unit_letters(data):
    # either DP may fill the shared table first; wide and tall shapes alike
    mu = data.draw(st.sampled_from([p for n in range(1, 9) for p in partitions_of(n)]))
    k = data.draw(st.integers(1, sum(mu) + 1))
    weight = data.draw(st.sampled_from(list(compositions_of(sum(mu), k))))
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    _strip_table.cache_clear()
    if data.draw(st.booleans()):
        want = kostka.__wrapped__(mu, canonical(weight))
        assert count_weighted_ssyt(mu, units, weight) == want
    else:
        want = count_weighted_ssyt(mu, units, weight)
        assert kostka.__wrapped__(mu, canonical(weight)) == want


def test_strip_table_under_concurrent_callers():
    # four threads fill one cold strip table through both DPs; each must
    # get the serial answers
    mu, k = (6, 5, 4, 3, 2, 1), 7
    letters = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]
    targets = [(7, 7, 7), (8, 7, 6), (5, 8, 8)]
    want = (kostka_row(mu, k), [count_weighted_ssyt(mu, letters, t) for t in targets])
    _strip_table.cache_clear()
    kostka.cache_clear()
    got, errors = [], []

    def work(first_row):
        try:
            counts = [count_weighted_ssyt(mu, letters, t) for t in targets]
            row = kostka_row(mu, k)
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
