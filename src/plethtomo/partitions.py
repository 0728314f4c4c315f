"""Compositions and partitions as canonical integer tuples.

A composition is a finite tuple of nonnegative integers with no trailing
zeros; a partition additionally has nonincreasing entries.  Everything is
indexed from 0.  All values are plain Python ints, so entries and sizes are
arbitrary precision.

Validation happens once, at the public boundary.  Public functions
canonicalize what they are given and check it, raising ValueError on a
negative entry.  Every shape argument (a partition by definition: mu, nu,
lam of a plethysm or Kronecker coefficient, the shape of a tableau or a
character) goes through one helper, `partition`, the only code in the
package that raises ValueError("... is not a partition"); weights, targets
and marginals stay compositions and go through `canonical`.  The
`_`-prefixed internals, here and in the other modules, take canonical
tuples (partitions, where they say so) as they are, and are called only on
data that a public entry has already checked; `nonincreasing` is the
partition test for such a tuple.  The per-entry loops run in C builtins
(min, map, sorted, bisect) rather than in Python loops.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import repeat
from typing import Iterable, Iterator

Composition = tuple[int, ...]
Partition = tuple[int, ...]


def canonical(parts: Iterable[int]) -> Composition:
    """Drop trailing zeros and validate nonnegativity."""
    out = tuple(parts)
    if out and min(out) < 0:
        v = next(v for v in out if v < 0)
        raise ValueError(f"negative entry {v} in composition {list(out)}")
    if out and out[-1] == 0:
        end = len(out) - 1
        while end and out[end - 1] == 0:
            end -= 1
        out = out[:end]
    return out


def nonincreasing(p: Composition) -> bool:
    """True iff the tuple's entries never increase: for a canonical tuple,
    that it is a partition."""
    return list(p) == sorted(p, reverse=True)


def partition(parts: Iterable[int]) -> Partition:
    """The canonical form of a shape argument; ValueError unless it is a
    partition."""
    lam = canonical(parts)
    if not nonincreasing(lam):
        raise ValueError(f"{lam} is not a partition")
    return lam


def is_partition(c: Iterable[int]) -> bool:
    """True iff the canonical form of ``c`` is nonincreasing."""
    return nonincreasing(canonical(c))


def size(c: Iterable[int]) -> int:
    return sum(c)


def transpose(p: Iterable[int]) -> Partition:
    """Conjugate partition: exchange rows and columns of the Young diagram."""
    return _transpose(partition(p))


def _transpose(lam: Partition) -> Partition:
    """transpose of a canonical partition, with O(min(len, lam_1)) Python
    steps.  With more rows than columns, column j (from 0) has as many
    cells as lam has parts above j: one bisection of the ascending parts
    per column, all inside map.  Otherwise the columns in [lam[k],
    lam[k-1]) have height k: one run per row."""
    ell = len(lam)
    if ell and ell > lam[0]:
        ascending = lam[::-1]
        return tuple(map(ell.__sub__, map(bisect_left, repeat(ascending), range(1, lam[0] + 1))))
    out: list[int] = []
    for k in range(ell, 0, -1):
        out += [k] * (lam[k - 1] - (lam[k] if k < ell else 0))
    return tuple(out)


def partitions_of(n: int, max_parts: int | None = None, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n into at most ``max_parts`` parts, each at most
    ``max_part``, largest part first, in reverse lexicographic order.

    No recursion: each partition is built from the one before by lowering
    its rightmost part v that can be lowered (the parts from there on must
    still fit into the free slots at most v - 1 each) and refilling from
    there greedily with parts v - 1."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    bound = n if max_part is None else min(max_part, n)
    parts = n if max_parts is None else max_parts
    if bound < 1 or bound * parts < n:
        return
    q, r = divmod(n, bound)
    p = [bound] * q + [r] * (r > 0)
    while True:
        yield tuple(p)
        rest = 0
        for i in range(len(p) - 1, -1, -1):
            rest += p[i]
            v = p[i] - 1
            if v and v * (parts - i) >= rest:
                break
        else:
            return
        q, r = divmod(rest, v)
        p[i:] = [v] * q + [r] * (r > 0)


def compositions_of(n: int, length: int, bound: Composition | None = None) -> Iterator[Composition]:
    """All length-``length`` vectors of nonnegative ints summing to n (not
    canonicalized), in decreasing lexicographic order; with ``bound`` given,
    only those entrywise <= bound.  Walks an explicit stack of prefixes."""
    cap = list(pad(canonical(bound), length)) if bound is not None else [n] * length
    room = [0] * (length + 1)  # room[i]: the most that entries i.. can hold
    for i in range(length - 1, -1, -1):
        room[i] = room[i + 1] + cap[i]
    if not 0 <= n <= room[0]:
        return
    stack: list[tuple[Composition, int]] = [((), n)]
    while stack:
        prefix, left = stack.pop()
        i = len(prefix)
        if i == length:
            yield prefix
            continue
        # ascending, so the largest entry is popped first
        stack.extend((prefix + (v,), left - v) for v in range(max(0, left - room[i + 1]), min(cap[i], left) + 1))


def pad(c: Composition, length: int) -> tuple[int, ...]:
    """Right-pad with zeros to the given length."""
    if len(c) > length:
        raise ValueError(f"composition {c} longer than {length}")
    return c + (0,) * (length - len(c))


def add(a: Composition, b: Composition) -> Composition:
    return canonical(_add(a, b))


def _add(a: Composition, b: Composition) -> Composition:
    """a + b entrywise, the shorter one padded with zeros: canonical when a
    and b are."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(operator.add, a, b)) + a[len(b) :]


def subtract(a: Composition, b: Composition) -> Composition | None:
    """a - b entrywise, or None if any entry would go negative."""
    # one of the two tails is empty
    out = tuple(map(operator.sub, a, b)) + a[len(b) :] + tuple(map(operator.neg, b[len(a) :]))
    if out and min(out) < 0:
        return None
    return canonical(out)


def parse_partition(text: str) -> Composition:
    """Parse the bracket form used by the CLI and JSON files, e.g. "[3,1]"."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected bracketed list like [3,1], got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    try:
        return canonical(int(tok) for tok in body.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition literal {text!r}: {exc}") from exc


def format_partition(c: Composition) -> str:
    return "[" + ",".join(str(v) for v in c) + "]"
