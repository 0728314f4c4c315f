"""Compositions and partitions as canonical integer tuples.

A composition is a finite tuple of nonnegative integers with no trailing
zeros; a partition additionally has nonincreasing entries.  Everything is
indexed from 0.  All values are plain Python ints, so entries and sizes are
arbitrary precision.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Composition = tuple[int, ...]
Partition = tuple[int, ...]


def canonical(parts: Iterable[int]) -> Composition:
    """Drop trailing zeros and validate nonnegativity."""
    out = list(parts)
    for v in out:
        if v < 0:
            raise ValueError(f"negative entry {v} in composition {out}")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def is_partition(c: Iterable[int]) -> bool:
    """True iff the canonical form of ``c`` is nonincreasing."""
    p = canonical(c)
    return all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def size(c: Iterable[int]) -> int:
    return sum(c)


def height(p: Composition) -> int:
    """Number of nonzero parts (for canonical partitions: the length)."""
    return sum(1 for v in p if v > 0)


def width(p: Composition) -> int:
    return p[0] if p else 0


def transpose(p: Iterable[int]) -> Partition:
    """Conjugate partition: exchange rows and columns of the Young diagram."""
    lam = canonical(p)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    # the columns in [lam[k], lam[k-1]) have height k; O(lam[0] + len(lam))
    out: list[int] = []
    for k in range(len(lam), 0, -1):
        out += [k] * (lam[k - 1] - (lam[k] if k < len(lam) else 0))
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
    n = max(len(a), len(b))
    return canonical(x + y for x, y in zip(pad(a, n), pad(b, n)))


def subtract(a: Composition, b: Composition) -> Composition | None:
    """a - b entrywise, or None if any entry would go negative."""
    n = max(len(a), len(b))
    out = [x - y for x, y in zip(pad(a, n), pad(b, n))]
    if any(v < 0 for v in out):
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
