"""Test oracles: the partition kernels as plain Python loops.

The library's canonical, is_partition, transpose, add, subtract and
tomography.coordinate_sum run their per-entry work inside C builtins (min,
map, bisect).  These are the loop versions they replaced, one interpreter
step per entry, kept verbatim in behaviour, error text included.  They are
not part of the library; the tests check the kernels against them.
"""


def loop_canonical(parts):
    """Drop trailing zeros and validate nonnegativity."""
    out = list(parts)
    for v in out:
        if v < 0:
            raise ValueError(f"negative entry {v} in composition {out}")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def loop_is_partition(c):
    """True iff the canonical form of c is nonincreasing."""
    p = loop_canonical(c)
    return all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def loop_transpose(p):
    """Conjugate partition, one run of equal column heights per row."""
    lam = loop_canonical(p)
    if not loop_is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    out = []
    for k in range(len(lam), 0, -1):
        out += [k] * (lam[k - 1] - (lam[k] if k < len(lam) else 0))
    return tuple(out)


def _pad(c, length):
    if len(c) > length:
        raise ValueError(f"composition {c} longer than {length}")
    return c + (0,) * (length - len(c))


def loop_add(a, b):
    n = max(len(a), len(b))
    return loop_canonical(x + y for x, y in zip(_pad(a, n), _pad(b, n)))


def loop_subtract(a, b):
    """a - b entrywise, or None if any entry would go negative."""
    n = max(len(a), len(b))
    out = [x - y for x, y in zip(_pad(a, n), _pad(b, n))]
    if any(v < 0 for v in out):
        return None
    return loop_canonical(out)


def loop_coordinate_sum(c):
    """sum_i i*c_i."""
    return sum(i * v for i, v in enumerate(c))
