"""Test oracle: the Jacobi-Trudi sum as a walk over permutations.

The library builds the signed sorted compositions of the Jacobi-Trudi sum
once per lam, with a row DP over merged states
(coefficients._jacobi_trudi_terms).  This is the direct walk it replaced:
one recursion frame per row, one leaf per permutation that keeps every
entry nonnegative, so it takes up to len(lam)! steps.  It is not part of
the library; the tests check the term table against it.
"""

from plethtomo.partitions import canonical


def walked_jacobi_trudi_terms(lam):
    """Dict from each sorted, zero-free composition lam - (0..l-1) + sigma
    with no negative entry to the sum of sign(sigma) over the permutations
    sigma reaching it; zero sums are dropped."""
    lam = canonical(lam)
    ell = len(lam)
    lo = [max(0, i - lam[i]) for i in range(ell)]
    values = [0] * ell
    terms = {}

    def rec(i, used, sign):
        # row i against the rows below it, already placed, has one
        # inversion per used column left of its own
        for j in range(lo[i], ell):
            bit = 1 << j
            if used & bit:
                continue
            values[i] = lam[i] - i + j
            s = -sign if (used & (bit - 1)).bit_count() & 1 else sign
            if i:
                rec(i - 1, used | bit, s)
            else:
                key = canonical(sorted(values, reverse=True))
                terms[key] = terms.get(key, 0) + s

    if ell:
        rec(ell - 1, 0, 1)
    else:
        terms[()] = 1
    return {key: c for key, c in terms.items() if c}
