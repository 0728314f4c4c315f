"""Semistandard Young tableaux: Kostka numbers and weighted counts.

Tableaux here are fillings of a partition shape with letters 0..k-1, weakly
increasing along rows and strictly increasing down columns.  The weighted
counting routine is the workhorse for extracting weight-space dimensions of
plethysms: it counts SSYT over an alphabet whose letters carry vector
weights, with a prescribed total weight, by a horizontal-strip DP.  For
plethysms the letters are the inner tableaux, and ssyt_weights lists their
weights as compositions with Kostka multiplicities; for restricted
plethysms they are cone points.  No tableau is ever filled here.

Kostka numbers K_{mu,w} are zero unless mu dominates w sorted in
decreasing order (Macdonald I.6).  A Kostka row, every nonzero K_{mu,pi}
over the partitions pi with at most k parts, is one memoized walk per
(mu, k) (_kostka_row): the strip DP runs one part of pi at a time, on
strips of that part's size only, and each prefix's states are carried to
all its extensions, so a prefix that many pi share is stepped once.
kostka_row, ssyt_weights and the Schur peel (sympoly) read that one row
memo; kostka, the single-number entry, is the same DP along one weight,
through the same step.  Both DPs read their strips from one table per
shape mu, keyed by subshape and strip size and filled on first use: a
Kostka row, an ssyt_weights alphabet, a Schur peel and every weighted
count on mu fill each entry once.  An entry is filled by code arithmetic:
the subshape's code is decoded once, and the codes of its strips, grouped
by size, come out of one convolution of the choices each row (or column
run) leaves, with no strip built as a shape.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterator, Sequence

from .partitions import Composition, Partition, _transpose, canonical, compositions_of, pad, partition

# bound of the single-number Kostka memo (kostka), which only direct
# callers fill: the package's own rows read _kostka_row
KOSTKA_MAXSIZE = 16384

KOSTKA_ROWS_MAXSIZE = 1024
"""Bound of the Kostka row memo (_kostka_row), one row per (shape, k) with
k capped at |shape|, that kostka_row, ssyt_weights and the Schur peel
read.  A round of plethysm_sweep, bounds_sandwich and chain_resolve makes
46, 4 and 0 rows; the Schur peeling self-check over all |mu||nu| <= 12
makes 327.  The rows of every lam of size <= 12 at every k, 1706 of them,
hold about 4 MB (tracemalloc)."""

STRIP_TABLES_MAXSIZE = 256
"""Bound of the strip tables, one per shape mu that a Kostka row, kostka or
count_weighted_ssyt reads (_strip_table).  A round of plethysm_sweep,
bounds_sandwich and chain_resolve makes 44, 6 and 0 tables; the Schur
peeling self-check over all |mu||nu| <= 12 makes 271, holding 4.4 MB in
all (sys.getsizeof over their dicts, tuples and ints).  It reads the
weights of one shape in one run, so even at a bound of 32 it made no table
twice.  The largest table it makes has 74 subshapes; a Kostka row of
(7,6,5,4,3,2,1) over 28 letters fills one of 1429 subshapes and 2.4 MB."""


@lru_cache(maxsize=STRIP_TABLES_MAXSIZE)
def _strip_table(mu: Partition):
    """(full, table, grow): the horizontal strips inside mu, shared by
    the Kostka rows, kostka and count_weighted_ssyt.

    A subshape of mu is one int, its row lengths in mixed radix with row i
    in [0, mu_i]; when mu has more rows than columns, the column heights of
    mu' likewise, so a code has min(len(mu), mu_1) digits.  full is the
    code of mu, and 0 the empty shape's.  table maps a code to {strip size:
    codes of the shapes that strips of that size grow it into}; grow(a)
    fills table[a] on first use and returns it.  A code depends only on its
    subshape, so concurrent fills write equal entries.

    No strip is built as a shape: grow decodes alpha once and convolves, a
    group of digits at a time, the (boxes added, code added) choices that
    a horizontal strip (no two new boxes in one column) leaves each group.
    In rows, row i grows by d in [0, min(mu_i, alpha_{i-1}) - alpha_i],
    adding d r_i to the code.  In column heights, a column grows by at most
    one box, and within a run of equal heights of alpha the columns with
    room form a prefix, as do the grown ones (both shapes are partitions):
    growing the first t adds t boxes and the sum of their radices.
    """
    tall = len(mu) > mu[0]
    shape = _transpose(mu) if tall else mu
    radices = tuple(itertools.accumulate((m + 1 for m in shape[:-1]), operator.mul, initial=1))
    bases = tuple(m + 1 for m in shape)
    table: dict[int, dict[int, tuple[int, ...]]] = {}

    def offsets(alpha: tuple[int, ...]) -> Iterator[Sequence[int]]:
        """Per group of digits, the codes that its 1, 2, ... boxes add."""
        if tall:
            for h, cols in itertools.groupby(range(len(shape)), alpha.__getitem__):
                yield tuple(itertools.accumulate(radices[j] for j in cols if shape[j] > h))
        else:
            for r, room in zip(radices, map(operator.sub, itertools.chain(shape[:1], map(min, shape[1:], alpha)), alpha)):
                yield range(r, r * room + 1, r)

    def grow(a: int) -> dict[int, tuple[int, ...]]:
        alpha = tuple(map(operator.mod, map(a.__floordiv__, radices), bases))
        # by_size[s]: the codes of the strips of size s over the groups so far
        by_size = [[a]]
        for adds in offsets(alpha):
            if len(by_size) == 1:
                # no group with room before this one: one strip per size
                by_size += [[a + add] for add in adds]
            elif adds:
                new = [[] for _ in range(len(by_size) + len(adds))]
                for s, codes in enumerate(by_size):
                    new[s] += codes
                    for t, add in enumerate(adds, s + 1):
                        new[t] += map(add.__add__, codes)
                by_size = new
        got = table[a] = dict(enumerate(map(tuple, by_size)))
        return got

    return sum(map(operator.mul, shape, radices)), table, grow


def _strip_step(table: dict, grow, states: dict[int, int], count: int) -> dict[int, int]:
    """The strip DP's one step: the states (subshape code -> number of
    fillings) after a letter of ``count`` copies, each state taken along
    its table's strips of that size (table and grow of _strip_table)."""
    new: dict[int, int] = {}
    get = new.get
    for a, cnt in states.items():
        for b in (table.get(a) or grow(a)).get(count, ()):
            new[b] = get(b, 0) + cnt
    return new


@lru_cache(maxsize=KOSTKA_MAXSIZE)
def kostka(mu: Partition, weight: Composition) -> int:
    """Number of SSYT of shape mu and weight ``weight`` (Kostka number).

    Zero unless mu dominates the weight sorted in decreasing order
    (Macdonald I.6), which is tested first.  Otherwise the strip DP of
    _kostka_row's walk along this one weight, one letter at a time through
    the same step (_strip_step), on mu's _strip_table; no tableaux are
    materialized.  The library's own rows (kostka_row, ssyt_weights, the
    Schur peel) read _kostka_row, not this memo.
    """
    mu = partition(mu)
    w = canonical(weight)
    if sum(mu) != sum(w):
        raise ValueError(f"|mu|={sum(mu)} != |weight|={sum(w)}")
    if not mu:
        return 1
    if any(m < v for m, v in zip(itertools.accumulate(mu), itertools.accumulate(sorted(w, reverse=True)))):
        return 0
    full, table, grow = _strip_table(mu)
    states = {0: 1}
    for letter_count in w:
        states = _strip_step(table, grow, states, letter_count)
        if not states:
            return 0
    return states.get(full, 0)


@lru_cache(maxsize=KOSTKA_ROWS_MAXSIZE)
def _kostka_row(mu: Partition, k: int) -> dict[Partition, int]:
    """{pi: K_{mu,pi}} for every partition pi of |mu| with at most k parts
    that mu dominates, in the order of partitions_of; mu a partition and k
    in [0, |mu|] (callers cap it: more parts than boxes cannot occur).
    Callers read the dict and never change it.

    The entries are exactly the nonzero Kostka numbers of the row
    (Macdonald I.6), found by one explicit-stack walk over those pi in
    prefix order.  A stack entry is a prefix of pi with the strip-DP states
    it reaches on mu's _strip_table; each extension by one more part p
    takes those states one _strip_step further, so a prefix that many pi
    share is stepped once.  Parts run largest first (popped first), from
    the most that dominance allows (a prefix's partial sums stay within
    mu's) down to the least that still fits the rest into the remaining
    parts.  The largest extension, p = all that is left, is the only one
    that ends pi, so it is recorded at once, before its smaller siblings'
    subtrees: that keeps partitions_of's order.
    """
    n = sum(mu)
    if len(mu) > k:
        return {}
    if not mu:
        return {(): 1}
    full, table, grow = _strip_table(mu)
    limits = tuple(itertools.accumulate(mu)) + (n,) * (k - len(mu))
    row: dict[Partition, int] = {}
    stack: list[tuple[Partition, int, dict[int, int]]] = [((), n, {0: 1})]
    while stack:
        prefix, left, states = stack.pop()
        j = len(prefix)
        top = min(prefix[-1] if prefix else left, left, limits[j] - n + left)
        low = -(-left // (k - j))
        if top == left:
            count = _strip_step(table, grow, states, left).get(full)
            if count:
                row[prefix + (left,)] = count
            top -= 1
        for p in range(low, top + 1):
            new = _strip_step(table, grow, states, p)
            if new:
                stack.append((prefix + (p,), left - p, new))
    return row


def _alphabet_size(k: int) -> int:
    """k as the size of an alphabet: ValueError if it is negative."""
    if k < 0:
        raise ValueError(f"negative letter count {k}")
    return k


def ssyt_weights(shape: Partition, k: int, bound: Composition | None = None) -> list[tuple[int, ...]]:
    """Weight vectors (length k) of all SSYT of ``shape`` over 0..k-1.

    One entry per tableau, so weights repeat with their multiplicity; with
    ``bound`` given, only weights entrywise <= bound.  No tableau is filled:
    every composition w of |shape| appears K_{shape,w} times, and Kostka
    numbers are symmetric in the weight, so each is read off shape's Kostka
    row (_kostka_row, the memo kostka_row reads too) at w sorted.  A value
    fills at most one box of each column, so only compositions with every
    entry <= shape[0] are walked; the others have K_{shape,w} = 0 (over a
    column shape, only 0/1 vectors).
    """
    shape, k = partition(shape), _alphabet_size(k)
    n = sum(shape)
    most = shape[0] if shape else 0
    cap = (most,) * k if bound is None else tuple(min(b, most) for b in pad(canonical(bound), k))
    counts = {pi + (0,) * (k - len(pi)): c for pi, c in _kostka_row(shape, min(k, n)).items()}
    return [w for w in compositions_of(n, k, cap) for _ in range(counts.get(tuple(sorted(w, reverse=True)), 0))]


def count_weighted_ssyt(mu: Partition, letter_weights: Sequence[tuple[int, ...]], target: tuple[int, ...]) -> int:
    """Count SSYT of shape mu over the ordered alphabet 0..len(letters)-1
    where each box holding letter i contributes letter_weights[i], and the
    total contribution must equal ``target`` exactly.

    The count is the coefficient of x^target in the Schur polynomial s_mu
    evaluated at the letters' monomials x^w.  That polynomial is symmetric
    in the letters, so their order does not matter, and it is chosen here to
    finish coordinates early: the coordinates are read from the smallest
    target up, and the letters are sorted in decreasing lexicographic order
    of their entries read that way.  So the letters with mass in the first
    coordinate come first, then those with mass in the second but not the
    first, and so on.  A letter over the target in some coordinate can only
    fill empty strips, so it is dropped.

    States are (subshape, partial weight); each letter extends the subshape
    by a horizontal strip of any size s, adding s copies of its weight.
    Two prunes keep the states few:
    * a partial weight over ``target`` in any coordinate is dropped;
    * after the last letter with mass in a coordinate, that coordinate is
      closed: a state whose partial weight there is not the target is
      dropped (and a coordinate with positive target that no letter touches
      gives 0 at once).

    A state is one integer: the subshape's code in mu's _strip_table above
    one field of b+1 bits per coordinate, holding acc_i + 2^b - 1 - target_i.
    A strip is one addition, a coordinate over its target sets its field's
    top bit, and a coordinate at its target reads 2^b - 1.  The strips come
    from that table, so the calls on one mu, and its Kostka rows, fill each
    subshape's entry once.
    """
    mu = partition(mu)
    target = tuple(target)
    if not mu:
        return 1 if all(v == 0 for v in target) else 0
    if any(v < 0 for v in target):
        return 0
    dim = len(target)
    if any(len(w) != dim for w in letter_weights):
        raise ValueError(f"every letter weight needs {dim} entries, one per target coordinate")
    closing = sorted(range(dim), key=target.__getitem__)
    letters = [tuple(w) for w in letter_weights if all(v <= t for v, t in zip(w, target))]
    letters.sort(key=lambda w: [w[i] for i in closing], reverse=True)
    last = {i: j for j, w in enumerate(letters) for i in range(dim) if w[i]}
    if any(target[i] and i not in last for i in range(dim)):
        return 0

    bits = max(max(target, default=0), sum(mu) * max((max(w, default=0) for w in letters), default=0)).bit_length()
    field = bits + 1
    ones = (1 << bits) - 1
    guard = sum(1 << (i * field + bits) for i in range(dim))
    shift = dim * field
    codes = [sum(v << (i * field) for i, v in enumerate(w)) for w in letters]
    closes = [0] * len(letters)
    for i, j in last.items():
        closes[j] |= ones << (i * field)

    full, table, grow = _strip_table(mu)
    start = sum((ones - t) << (i * field) for i, t in enumerate(target))
    states = {start: 1}
    # step_cache[code][a]: how the strips of subshape a move a key, for the
    # letter with that code
    step_cache: dict[int, dict[int, list[int]]] = {}
    for code, close in zip(codes, closes):
        steps = step_cache.setdefault(code, {})
        new: dict[int, int] = {}
        get = new.get
        for key, cnt in states.items():
            a = key >> shift
            ds = steps.get(a)
            if ds is None:
                ds = steps[a] = [((b - a) << shift) + s * code for s, bs in (table.get(a) or grow(a)).items() for b in bs]
            for d in ds:
                nk = key + d
                if nk & guard or nk & close != close:
                    continue
                new[nk] = get(nk, 0) + cnt
        states = new
        if not states:
            return 0
    return states.get((full << shift) + sum(ones << (i * field) for i in range(dim)), 0)


def dim_weyl(lam: Partition, k: int) -> int:
    """Dimension of the irreducible GL_k module of highest weight lam
    (number of SSYT of shape lam over a k-letter alphabet), by the
    hook-content formula.
    """
    lam, k = partition(lam), _alphabet_size(k)
    if not lam:
        return 1
    if len(lam) > k:
        return 0
    conj = _transpose(lam)
    num = 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= k + j - i
            den *= row - j + conj[j] - i - 1
    return num // den


def kostka_row(nu: Partition, k: int) -> dict[Partition, int]:
    """All nonzero Kostka numbers K_{nu,pi} over partitions pi of |nu| with
    at most k parts, i.e. the monomial expansion of the Schur polynomial,
    in the order of partitions_of.  A copy of _kostka_row's memoized row,
    filled by one strip-table walk per (nu, k) with k capped at |nu|."""
    nu, k = partition(nu), _alphabet_size(k)
    return dict(_kostka_row(nu, min(k, sum(nu))))
