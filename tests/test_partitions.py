import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from partition_oracles import (
    loop_add,
    loop_canonical,
    loop_coordinate_sum,
    loop_is_partition,
    loop_subtract,
    loop_transpose,
)

from plethtomo.partitions import (
    PARTITION_LISTS_N_MAX,
    _partition_list,
    add,
    canonical,
    compositions_of,
    format_partition,
    is_partition,
    nonincreasing,
    parse_partition,
    partition,
    partitions_of,
    size,
    subtract,
    transpose,
)
from plethtomo.tomography import coordinate_sum


def brute_transpose(lam):
    """Transpose by flipping the explicit box set of the Young diagram."""
    boxes = {(i, j) for i, row in enumerate(lam) for j in range(row)}
    flipped = {(j, i) for (i, j) in boxes}
    rows = {}
    for i, _ in flipped:
        rows[i] = rows.get(i, 0) + 1
    return tuple(rows[i] for i in sorted(rows))


TRANSPOSE_EXAMPLES = [
    ((3, 1), (2, 1, 1)),
    ((), ()),
    ((5, 5, 2), (3, 3, 2, 2, 2)),
    ((1,), (1,)),
    ((4,), (1, 1, 1, 1)),
]


@pytest.mark.parametrize("lam,expected", TRANSPOSE_EXAMPLES)
def test_transpose_examples(lam, expected):
    assert transpose(lam) == expected
    assert transpose(lam) == brute_transpose(lam)


def test_transpose_involution_exhaustive():
    for n in range(31):
        for lam in partitions_of(n):
            assert transpose(transpose(lam)) == lam
            assert size(transpose(lam)) == size(lam)


def test_transpose_rejects_non_partition():
    with pytest.raises(ValueError):
        transpose((1, 2))


def test_is_partition():
    assert is_partition((2, 2, 1))
    assert not is_partition((1, 2))
    assert is_partition((0,))
    assert is_partition(())


def test_size():
    assert size((3, 1)) == 4
    assert size(()) == 0
    assert size((4, 2, 2, 1)) == 9


def test_canonicalization_idempotent():
    for raw in [(3, 1, 0, 0), (0,), (), (2, 0, 1, 0)]:
        once = canonical(raw)
        assert canonical(once) == once
        assert not once or once[-1] != 0


def test_canonical_rejects_negative():
    with pytest.raises(ValueError):
        canonical((1, -1))


def test_arbitrary_precision_entries():
    big = 10**30
    assert size((big, big)) == 2 * big
    assert canonical((big, 0)) == (big,)
    assert add((big,), (big,)) == (2 * big,)


def test_add_subtract():
    assert add((2, 1), (0, 1, 3)) == (2, 2, 3)
    assert subtract((2, 2, 3), (0, 1, 3)) == (2, 1)
    assert subtract((1,), (2,)) is None


def test_parse_format_roundtrip():
    for lam in [(3, 1), (), (10, 10, 1)]:
        assert parse_partition(format_partition(lam)) == lam
    assert parse_partition("[3,1]") == (3, 1)
    assert parse_partition("[]") == ()
    with pytest.raises(ValueError):
        parse_partition("3,1")
    with pytest.raises(ValueError):
        parse_partition("[a]")


def test_partitions_of_counts():
    # partition numbers p(0..9)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, want in enumerate(expected):
        assert len(list(partitions_of(n))) == want
    assert all(is_partition(p) for p in partitions_of(8))


def recursive_partitions_of(n, max_parts=None, max_part=None):
    """Test oracle: the recursive generator partitions_of replaced, one
    interpreter frame per part."""
    if n < 0:
        return
    bound = n if max_part is None else min(max_part, n)
    parts = n if max_parts is None else max_parts

    def rec(remaining, largest, slots, prefix):
        if remaining == 0:
            yield prefix
            return
        if slots == 0:
            return
        for v in range(min(largest, remaining), 0, -1):
            if remaining - v > v * (slots - 1):
                continue
            yield from rec(remaining - v, v, slots - 1, prefix + (v,))

    yield from rec(n, bound, parts, ())


def test_partitions_of_matches_the_recursive_oracle():
    # same partitions in the same order, for every pair of bounds
    for n in range(-1, 21):
        bounds = [None, *range(n + 2)]
        for max_parts in bounds:
            for max_part in bounds:
                want = list(recursive_partitions_of(n, max_parts, max_part))
                assert list(partitions_of(n, max_parts, max_part)) == want, (n, max_parts, max_part)


def bounded_by_filter(full, max_parts, max_part):
    """Test oracle: the partitions within the bounds, filtered out of the
    unbounded list of their size."""
    return [
        lam
        for lam in full
        if (max_parts is None or len(lam) <= max_parts) and (max_part is None or not lam or lam[0] <= max_part)
    ]


def test_partitions_of_bounds_filter_the_unbounded_list():
    # each bound alone at the values that bind (0, 1, 2, n - 1) and those
    # that cannot (n, n + 1), and both at once; every pair of bounds is
    # checked up to n = 20 against the recursive oracle above, and every
    # pair at every n up to the cap would stream about 3 * 10^8 partitions.
    # Past the cap every walk streams, the unbounded one included.
    for n in range(PARTITION_LISTS_N_MAX + 4):
        full = list(partitions_of(n))
        edge = [0, 1, 2, n, n + 1] + [n - 1] * (n > 0)
        if n <= PARTITION_LISTS_N_MAX:
            pairs = [(a, None) for a in edge] + [(None, b) for b in edge] + [(2, n - 1), (n, n + 1)]
        else:
            pairs = [(0, None), (2, None), (None, 2), (n - 1, None), (n, n + 1)]
        for max_parts, max_part in pairs:
            got = list(partitions_of(n, max_parts, max_part))
            assert got == bounded_by_filter(full, max_parts, max_part), (n, max_parts, max_part)


def test_partition_lists_hold_only_unbounded_sizes_up_to_the_cap():
    _partition_list.cache_clear()
    for n in range(PARTITION_LISTS_N_MAX + 4):
        for max_parts in (None, 1, n - 1, n, n + 1):
            next(partitions_of(n, max_parts), None)
    info = _partition_list.cache_info()
    # a bound that cannot bind reads the list of its unbounded walk
    assert info.currsize == info.maxsize == PARTITION_LISTS_N_MAX + 1
    assert info.misses == PARTITION_LISTS_N_MAX + 1
    _partition_list.cache_clear()
    assert list(partitions_of(7, max_parts=3)) and list(partitions_of(7, max_part=6))
    assert list(partitions_of(-1)) == [] and list(partitions_of(-1, 0, 0)) == []
    assert _partition_list.cache_info().currsize == 0
    # a walk above the cap streams: its first partition comes without a list
    assert next(partitions_of(PARTITION_LISTS_N_MAX + 20)) == (PARTITION_LISTS_N_MAX + 20,)
    assert _partition_list.cache_info().currsize == 0


def test_partitions_of_iterators_are_independent():
    full = list(partitions_of(6))
    first, second = partitions_of(6), partitions_of(6)
    assert next(first) == full[0]
    assert list(second) == full
    assert list(first) == full[1:]
    assert list(partitions_of(6)) == full


def test_partitions_of_many_parts():
    # 1200 parts: the recursive generator ran out of interpreter stack
    assert list(partitions_of(1200, max_part=1)) == [(1,) * 1200]
    assert list(partitions_of(1200, max_parts=1)) == [(1200,)]


def test_compositions_of():
    assert len(list(compositions_of(3, 2))) == 4
    assert set(compositions_of(2, 2)) == {(2, 0), (1, 1), (0, 2)}


# -- the kernels against their loop versions (tests/partition_oracles.py) ----


def outcome(fn, *args):
    """fn's value, or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


entries = st.lists(st.integers(-3, 6), max_size=40)
# nonnegative, with zeros inside and trailing
compositions = st.lists(st.integers(0, 6), max_size=40).map(tuple)


@st.composite
def small_shapes(draw):
    """A partition drawn as runs of equal parts."""
    values = draw(st.lists(st.integers(1, 12), unique=True, max_size=6))
    return tuple(v for v in sorted(values, reverse=True) for _ in range(draw(st.integers(1, 12))))


# 1000+ parts over at most 12 columns, and a first row of 1000+ cells
tall_shapes = st.tuples(small_shapes(), st.integers(1000, 1500)).map(lambda t: t[0] + (1,) * t[1])
wide_shapes = st.tuples(st.integers(1000, 5000), small_shapes()).map(lambda t: (t[0],) + t[1])


@settings(max_examples=300, deadline=None, database=None)
@given(xs=entries)
def test_canonical_and_is_partition_match_the_loops(xs):
    for fn, oracle in ((canonical, loop_canonical), (is_partition, loop_is_partition)):
        want = outcome(oracle, xs)
        assert outcome(fn, xs) == want
        assert outcome(fn, tuple(xs)) == want
        assert outcome(fn, iter(xs)) == want
        assert outcome(fn, (v for v in xs)) == want


def two_step_partition(parts):
    """partition's reference: every entry an int, then canonical, then the
    nonincreasing test."""
    lam = tuple(parts)
    if not all(isinstance(v, int) for v in lam):
        raise ValueError(f"{lam} is not a partition")
    lam = canonical(lam)
    if not nonincreasing(lam):
        raise ValueError(f"{lam} is not a partition")
    return lam


def raised(fn, *args):
    """fn's value, or the type and text of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


big = st.integers(2**64, 2**200)
# partitions, with trailing zeros or one entry moved, raised or lowered
# (inner zeros, negatives, increases), big entries throughout, and entries
# that do not compare with ints
shape_arguments = st.one_of(
    st.sampled_from([(3, None, 1), (2, "1"), (None,), (2.0, 1)]),
    small_shapes(),
    st.tuples(st.lists(big, max_size=4).map(lambda xs: tuple(sorted(xs, reverse=True))), small_shapes()).map(lambda t: t[0] + t[1]),
    st.tuples(small_shapes(), st.integers(0, 3)).map(lambda t: t[0] + (0,) * t[1]),
    st.lists(st.one_of(st.integers(-3, 6), big), max_size=12).map(tuple),
    st.tuples(small_shapes(), st.integers(0, 40), st.integers(-2**70, 2**70)).map(
        lambda t: t[0][: t[1] % (len(t[0]) + 1)] + (t[2],) + t[0][t[1] % (len(t[0]) + 1) + 1 :]
    ),
)


@settings(max_examples=500, deadline=None, database=None)
@given(xs=shape_arguments, as_list=st.booleans())
def test_partition_matches_the_two_step_check(xs, as_list):
    # the one-pass test returns a partition as it is; everything else
    # takes canonical and nonincreasing, with their errors
    arg = list(xs) if as_list else xs
    want = raised(two_step_partition, arg)
    assert raised(partition, arg) == want
    assert raised(partition, iter(xs)) == want
    assert partition(()) == partition([]) == ()


@pytest.mark.parametrize("parts", [(1.5,), (2, 1.5), (2.0, 1), (3, None, 1), (2, "1"), (1.5, 2)])
def test_partition_rejects_entries_that_are_not_ints(parts):
    # a float partition used to pass the one-pass test as it was and fail
    # later with a TypeError, wherever the entry was first used
    with pytest.raises(ValueError, match=r"is not a partition$"):
        partition(parts)


@settings(max_examples=60, deadline=None, database=None)
@given(lam=st.one_of(tall_shapes, wide_shapes, small_shapes()), zeros=st.integers(0, 3))
def test_transpose_matches_the_loop_and_round_trips(lam, zeros):
    # a tall lam takes the column-bisection branch and its transpose the
    # row loop; a wide lam the other way round
    want = loop_transpose(lam)
    padded = lam + (0,) * zeros
    assert transpose(lam) == want
    assert transpose(list(padded)) == want
    assert transpose(v for v in padded) == want
    assert transpose(want) == lam


@settings(max_examples=300, deadline=None, database=None)
@given(xs=entries)
def test_transpose_rejects_what_the_loop_rejects(xs):
    # non-partitions and negative entries, with the same message
    assert outcome(transpose, xs) == outcome(loop_transpose, xs)
    assert outcome(transpose, iter(xs)) == outcome(loop_transpose, xs)


@settings(max_examples=300, deadline=None, database=None)
@given(a=compositions, b=compositions)
def test_add_subtract_coordinate_sum_match_the_loops(a, b):
    assert add(a, b) == loop_add(a, b)
    assert subtract(a, b) == loop_subtract(a, b)
    assert subtract(add(a, b), b) == canonical(a)
    assert coordinate_sum(a) == loop_coordinate_sum(a)
    assert coordinate_sum(v for v in a) == loop_coordinate_sum(a)


@settings(max_examples=100, deadline=None, database=None)
@given(a=entries.map(tuple), b=compositions)
def test_add_rejects_negative_entries_as_the_loop_does(a, b):
    assert outcome(add, a, b) == outcome(loop_add, a, b)
    assert outcome(add, b, a) == outcome(loop_add, b, a)
    assert outcome(subtract, a, b) == outcome(loop_subtract, a, b)
