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
(min, map, sorted, bisect) rather than in Python loops; `partition` passes
a tuple that is already a partition of ints after such passes (an int sum,
its last entry positive and all(map(operator.ge, ...)) over adjacent
entries), and only other input goes through `canonical` and
`nonincreasing`; an entry that is not an int is not a partition.

FrozenRecord, the base of the package's immutable records, lives here, in
the leaf module that every module defining a record imports.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator

Composition = tuple[int, ...]
Partition = tuple[int, ...]

PARTITION_LISTS_N_MAX = 40
"""The largest n whose unbounded partitions_of walks share one memoized
tuple (_partition_list), the size cap of the character routes.  The tuple
for n = 30 holds 5604 partitions in 0.70 MB, the one for n = 40 holds
37 338 in 4.7 MB, and all 41 tuples up to 40 hold 215 308 in 25.9 MB
(tracemalloc, CPython 3.11)."""


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
    partition of ints.

    A tuple that is already a partition (empty, or an int sum, positive
    last entry and no increase, each tested in one C pass) is returned as
    it is: a sum of ints is an int, and any other number in it makes the
    sum another type.  Anything else takes its entries through
    operator.index, then canonical and nonincreasing, which raise every
    error."""
    lam = tuple(parts)
    try:
        if not lam or (type(sum(lam)) is int and lam[-1] > 0 and all(map(operator.ge, lam, lam[1:]))):
            return lam
        out = canonical(map(operator.index, lam))
    except TypeError:
        out = None
    if out is None or not nonincreasing(out):
        raise ValueError(f"{lam if out is None else out} is not a partition")
    return out


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

    A bound of n or more cannot bind and counts as none.  An unbounded walk
    of n <= PARTITION_LISTS_N_MAX reads the memoized tuple of n; any other
    walk streams from _walk_partitions."""
    if max_parts is not None and max_parts >= n:
        max_parts = None
    if max_part is not None and max_part >= n:
        max_part = None
    if max_parts is None and max_part is None and 0 <= n <= PARTITION_LISTS_N_MAX:
        yield from _partition_list(n)
    else:
        yield from _walk_partitions(n, max_parts, max_part)


@lru_cache(maxsize=PARTITION_LISTS_N_MAX + 1)
def _partition_list(n: int) -> tuple[Partition, ...]:
    """Every partition of n, in the order of partitions_of."""
    return tuple(_walk_partitions(n, None, None))


def _walk_partitions(n: int, max_parts: int | None, max_part: int | None) -> Iterator[Partition]:
    """partitions_of without the memo.  No recursion: each partition is
    built from the one before by lowering its rightmost part v that can be
    lowered (the parts from there on must still fit into the free slots at
    most v - 1 each) and refilling from there greedily with parts v - 1."""
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


class FrozenRecord:
    """Base of the package's five immutable records (XRayInstance2D,
    SymInstance, PlethysmInstance, PsiDecomposition,
    KroneckerPlethysmTriple).  A record's fields are its __slots__, in the
    order its own __init__ takes them; the __init__ sets each one through
    object.__setattr__.  A record refuses assignment and deletion with
    AttributeError, equals only a record of its own class whose compared
    fields are equal, hashes by those fields and shows them as a frozen
    dataclass would.  The compared fields are _compared: every slot,
    unless a class names fewer.  Pickling and copying go through the
    constructor (__reduce__), because a slot cannot be restored past the
    refusing __setattr__.  No record is a dataclass, so none of them needs
    the dataclasses module at import."""

    __slots__ = ()
    _compared = property(lambda self: self.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
