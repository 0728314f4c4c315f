"""Test oracles: semistandard tableaux filled box by box.

The library counts tableaux without filling any (tableaux.kostka and
tableaux.count_weighted_ssyt, which restricted.count_cone_ssyt runs on).
These enumerators list the fillings themselves, one recursion frame per
box, so the tests can check the counts and the tableaux' structure against
them on small shapes.  They are exponential and are not part of the library.
"""

from plethtomo.partitions import canonical
from plethtomo.restricted import _kind, cone_alphabet


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
