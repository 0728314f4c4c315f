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
decreasing order (Macdonald I.6), so kostka tests that first.  Otherwise
it runs the same strip DP one letter of w at a time, on strips of the
letter's count only.  Both DPs read their strips from one table per shape
mu, keyed by subshape and strip size and filled on first use: a Kostka
row, an ssyt_weights alphabet, a Schur peel and every weighted count on mu
enumerate each strip once.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterator, Sequence

from .partitions import Composition, Partition, _transpose, canonical, compositions_of, pad, partition, partitions_of

# bound of the Kostka memo: a round of the benchmark's plethysm_sweep,
# bounds_sandwich and chain_resolve makes 451, 15 and 0 misses; the Schur
# peeling self-check over all |mu||nu| <= 12 makes 13154, rereading each
# Kostka row once per (mu, nu).  At a bound of 1024 that check ran 3.4x
# slower when every miss enumerated its strips (28.6 s against 8.3 s), and
# 1.1x slower with the strip tables (10.0 s against 9.1 s)
KOSTKA_MAXSIZE = 16384

STRIP_TABLES_MAXSIZE = 256
"""Bound of the strip tables, one per shape mu that kostka or
count_weighted_ssyt reads (_strip_table).  A round of plethysm_sweep,
bounds_sandwich and chain_resolve makes 44, 6 and 0 tables; the Schur
peeling self-check over all |mu||nu| <= 12 makes 271, holding 4.4 MB in
all (sys.getsizeof over their dicts, tuples and ints).  It reads the
weights of one shape in one run, so even at a bound of 32 it made no table
twice.  The largest table it makes has 74 subshapes; a Kostka row of
(7,6,5,4,3,2,1) over 28 letters fills one of 1429 subshapes and 2.4 MB."""


def _horizontal_strips(alpha: tuple[int, ...], mu: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Shapes beta with alpha <= beta <= mu and beta/alpha a horizontal strip.

    Horizontal strip: beta_i >= alpha_i and beta_{i+1} <= alpha_i (no two new
    boxes share a column).  So each row ranges on its own, row i over
    [alpha_i, min(mu_i, alpha_{i-1})], and the strips are the product of
    those ranges in lexicographic order, of every size.  Shapes are padded
    to len(mu).
    """
    a = pad(alpha, len(mu))
    caps = tuple(mu[:1]) + tuple(min(m, prev) for m, prev in zip(mu[1:], a))
    return itertools.product(*(range(lo, hi + 1) for lo, hi in zip(a, caps)))


def _column_strips(alpha: tuple[int, ...], heights: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """_horizontal_strips in column heights: the shapes beta with alpha <=
    beta <= heights, all given by their column heights, and beta/alpha a
    horizontal strip of any size, in no fixed order.

    A horizontal strip adds at most one box per column.  Within a run of
    equal heights of alpha, the grown columns are a prefix (beta stays a
    partition), and so are the columns with room (heights is a partition);
    so a strip is one prefix length per run, and the strips are the
    product of those ranges.
    """
    runs = []  # (first column, height, columns with room)
    for h, cols in itertools.groupby(range(len(alpha)), alpha.__getitem__):
        cols = list(cols)
        runs.append((cols[0], h, sum(heights[j] > h for j in cols)))
    for fill in itertools.product(*(range(room + 1) for _, _, room in runs)):
        beta = list(alpha)
        for (first, h, _), t in zip(runs, fill):
            beta[first : first + t] = [h + 1] * t
        yield tuple(beta)


@lru_cache(maxsize=STRIP_TABLES_MAXSIZE)
def _strip_table(mu: Partition):
    """(full, table, grow): the horizontal strips inside mu, shared by
    kostka and count_weighted_ssyt.

    A subshape of mu is one int, its row lengths in mixed radix with row i
    in [0, mu_i]; when mu has more rows than columns, the column heights of
    mu' likewise, grown by _column_strips, so a code has min(len(mu), mu_1)
    digits.  full is the code of mu, and 0 the empty shape's.  table maps a
    code to {strip size: codes of the shapes that strips of that size grow
    it into}; grow(a) fills table[a] on first use and returns it.  A code
    depends only on its subshape, so concurrent fills write equal entries.
    """
    shape, strips = (_transpose(mu), _column_strips) if len(mu) > mu[0] else (mu, _horizontal_strips)
    radices = tuple(itertools.accumulate((m + 1 for m in shape[:-1]), operator.mul, initial=1))
    table: dict[int, dict[int, tuple[int, ...]]] = {}

    def grow(a: int) -> dict[int, tuple[int, ...]]:
        alpha = tuple(a // r % (m + 1) for r, m in zip(radices, shape))
        size = sum(alpha)
        by_size: dict[int, list[int]] = {}
        for beta in strips(alpha, shape):
            by_size.setdefault(sum(beta) - size, []).append(sum(map(operator.mul, beta, radices)))
        got = table[a] = {s: tuple(codes) for s, codes in by_size.items()}
        return got

    return sum(map(operator.mul, shape, radices)), table, grow


@lru_cache(maxsize=KOSTKA_MAXSIZE)
def kostka(mu: Partition, weight: Composition) -> int:
    """Number of SSYT of shape mu and weight ``weight`` (Kostka number).

    Zero unless mu dominates the weight sorted in decreasing order
    (Macdonald I.6), which is tested first.  Otherwise computed by a
    horizontal-strip DP over the letters of the weight, one letter at a
    time; no tableaux are materialized.  A state is a subshape's code in
    mu's _strip_table, and a letter of count c takes it along the table's
    strips of size c, so every weight of one shape (a Kostka row, an
    ssyt_weights alphabet, a count_weighted_ssyt on mu) enumerates each
    strip once.
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
        new: dict[int, int] = {}
        get = new.get
        for a, cnt in states.items():
            for b in (table.get(a) or grow(a)).get(letter_count, ()):
                new[b] = get(b, 0) + cnt
        states = new
        if not states:
            return 0
    return states.get(full, 0)


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
    numbers are symmetric in the weight, so they are looked up sorted.
    """
    shape, k = partition(shape), _alphabet_size(k)
    return [w for w in compositions_of(sum(shape), k, bound) for _ in range(kostka(shape, tuple(sorted(w, reverse=True))))]


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
    from that table, so the calls on one mu, and kostka on it, enumerate
    each strip once.
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
    at most k parts, i.e. the monomial expansion of the Schur polynomial."""
    nu, k = partition(nu), _alphabet_size(k)
    out: dict[Partition, int] = {}
    for pi in partitions_of(sum(nu), max_parts=k):
        val = kostka(nu, pi)
        if val:
            out[pi] = val
    return out
