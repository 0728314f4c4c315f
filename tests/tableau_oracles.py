"""Test oracles: semistandard tableaux filled box by box, and horizontal
strips listed shape by shape.

The library counts tableaux without filling any (tableaux.kostka and
tableaux.count_weighted_ssyt, which restricted.count_cone_ssyt runs on).
These enumerators list the fillings themselves, one recursion frame per
box, so the tests can check the counts and the tableaux' structure against
them on small shapes; cone_alphabet lists their letters, the cone points in
a layer-by-layer order.  horizontal_strips and column_strips list the
strips that the library's strip tables (tableaux._strip_table) hold as
codes, one shape tuple per strip.  They are exponential and are not part
of the library.  prefix_kostka_row is the Kostka row walk the library ran
before it peeled strips off the shape: pi's parts largest first, growing
strips on mu's strip table.
"""

import itertools

from plethtomo.partitions import canonical, pad
from plethtomo.tableaux import _strip_table
from plethtomo.restricted import _kind
from plethtomo.tomography import in_cone

# orders of the cone points within a layer: count_cone_ssyt accepts these
# names, and its count is the same under either
_TIEBREAKS = {
    "lex": lambda p: (p[0] + p[1] + p[2], p),
    "revlex": lambda p: (p[0] + p[1] + p[2], tuple(-c for c in p)),
}


def cone_alphabet(kind, coord_bound, tiebreak="lex"):
    """Cone points with all coordinates < coord_bound, totally ordered by
    coordinate sum with the given tiebreak inside each layer.  Any tiebreak
    yields the same tableau counts; two are provided to test that."""
    if tiebreak not in _TIEBREAKS:
        raise ValueError(f"unknown tiebreak {tiebreak!r}")
    pts = [
        (x, y, z)
        for x in range(coord_bound)
        for y in range(coord_bound)
        for z in range(coord_bound)
        if in_cone((x, y, z), kind)
    ]
    return sorted(pts, key=_TIEBREAKS[tiebreak])


def horizontal_strips(alpha, mu):
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


def column_strips(alpha, heights):
    """horizontal_strips in column heights: the shapes beta with alpha <=
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


def strip_step(table, grow, states, count):
    """The strip DP's one step: the states (subshape code -> number of
    fillings) after a letter of ``count`` copies, each state taken along
    its table's strips of that size (table and grow of _strip_table)."""
    new = {}
    get = new.get
    for a, cnt in states.items():
        for b in (table.get(a) or grow(a)).get(count, ()):
            new[b] = get(b, 0) + cnt
    return new


def prefix_kostka_row(mu, k):
    """{pi: K_{mu,pi}} over the partitions pi of |mu| with at most k parts
    that mu dominates, in the order of partitions_of; k in [0, |mu|].

    One explicit-stack walk over those pi in prefix order.  A stack entry
    is a prefix of pi with the strip-DP states it reaches on mu's strip
    table; each extension by one more part p takes them one strip_step
    further.  Parts run largest first (popped first), from the most that
    dominance allows (a prefix's partial sums stay within mu's) down to
    the least that still fits the rest into the remaining parts.  The
    largest extension, p = all that is left, is the only one that ends pi,
    so it is recorded at once, before its smaller siblings' subtrees: that
    keeps partitions_of's order."""
    n = sum(mu)
    if len(mu) > k:
        return {}
    if not mu:
        return {(): 1}
    full, table, grow = _strip_table(mu)
    limits = tuple(itertools.accumulate(mu)) + (n,) * (k - len(mu))
    row = {}
    stack = [((), n, {0: 1})]
    while stack:
        prefix, left, states = stack.pop()
        j = len(prefix)
        top = min(prefix[-1] if prefix else left, left, limits[j] - n + left)
        low = -(-left // (k - j))
        if top == left:
            count = strip_step(table, grow, states, left).get(full)
            if count:
                row[prefix + (left,)] = count
            top -= 1
        for p in range(low, top + 1):
            new = strip_step(table, grow, states, p)
            if new:
                stack.append((prefix + (p,), left - p, new))
    return row


def enumerate_ssyt(shape, alphabet_size):
    """All SSYT of the given shape with entries in 0..alphabet_size-1."""
    shape = canonical(shape)
    if not shape:
        return [()]
    if len(shape) > alphabet_size:
        return []
    out = []
    grid = [[0] * row for row in shape]
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]

    def fill(idx):
        if idx == len(cells):
            out.append(tuple(tuple(row) for row in grid))
            return
        r, c = cells[idx]
        lo = grid[r][c - 1] if c > 0 else 0
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, alphabet_size):
            grid[r][c] = v
            fill(idx + 1)

    fill(0)
    return out


def tableau_weight(t, alphabet_size):
    """Entry-count vector: weight[i] = number of boxes holding letter i."""
    w = [0] * alphabet_size
    for row in t:
        for v in row:
            w[v] += 1
    return tuple(w)


def enumerate_cone_ssyt(mu, lam, variant, tiebreak="lex"):
    """All semistandard fillings of shape mu with cone points: rows weakly
    increase and columns strictly increase in the alphabet order, and the
    pooled sum-marginal of all entries equals lam.  Each tableau is a tuple
    of rows of points."""
    mu = canonical(mu)
    lam = canonical(lam)
    alphabet = cone_alphabet(_kind(variant), len(lam), tiebreak)
    # drop letters that cannot fit under lam at all
    usable = [p for p in alphabet if all(p.count(i) <= lam[i] for i in range(len(lam)))]
    index = {p: i for i, p in enumerate(usable)}
    if not mu:
        if sum(lam) == 0:
            yield ()
        return
    cells = [(r, c) for r in range(len(mu)) for c in range(mu[r])]
    grid = [[None] * row for row in mu]
    residual = list(lam)

    def fits(p):
        return all(residual[i] >= p.count(i) for i in set(p))

    def fill(idx):
        if idx == len(cells):
            yield tuple(tuple(row) for row in grid)
            return
        r, c = cells[idx]
        lo = 0
        if c > 0:
            lo = index[grid[r][c - 1]]
        if r > 0:
            lo = max(lo, index[grid[r - 1][c]] + 1)
        for p in usable[lo:]:
            if not fits(p):
                continue
            grid[r][c] = p
            for i in p:
                residual[i] -= 1
            yield from fill(idx + 1)
            for i in p:
                residual[i] += 1
            grid[r][c] = None

    yield from fill(0)


def tableau_layers_check(t, decomp, tiebreak="lex"):
    """Verify the forced structure of a restricted-instance tableau: inside
    the pyramid part of each column, row i holds the i-th smallest cone
    point; the remaining boxes of column j sit entirely on layer r_j."""
    if not t:
        return True
    coord_bound = 1 + max(max(p) for row in t for p in row)
    order = cone_alphabet(decomp.kind, max(coord_bound, 3), tiebreak)
    for j, r_j in enumerate(decomp.thresholds):
        col = [t[i][j] for i in range(len(t)) if j < len(t[i])]
        for i, p in enumerate(col):
            if i < decomp.pyramid_parts[j]:
                if p != order[i]:
                    return False
            elif sum(p) != r_j:
                return False
    return True
