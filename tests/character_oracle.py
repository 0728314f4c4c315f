"""Test oracle: Murnaghan-Nakayama on sorted lists of beta-numbers.

The library keeps a shape's beta-numbers as the set bits of one int
(characters._mn), finds its border strips with shifts and signs them with
a popcount.  This is the direct transcription of the rule it rests on:
build the beta list, move each bead down by the cycle length when the
target is free, sign by the beads jumped over, and sort back into a shape.
It is slow, recurses once per cycle part including the fixed points, and
is not part of the library; the tests check the bitmask route against it.
"""

from functools import lru_cache

from plethtomo.partitions import canonical


@lru_cache(maxsize=None)
def list_character(lam, cycles):
    """chi_lam(cycles) for canonical partitions lam and cycles of one size."""
    if not cycles:
        return 1 if not lam else 0
    t = cycles[0]
    rest = cycles[1:]
    ell = len(lam)
    betas = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        jumped = sum(1 for x in betas if nb < x < b)
        new_betas = sorted((x for x in betas if x != b), reverse=True)
        new_betas.append(nb)
        new_betas.sort(reverse=True)
        m = len(new_betas)
        new_lam = canonical(new_betas[i] - (m - 1 - i) for i in range(m))
        total += (-1) ** jumped * list_character(new_lam, rest)
    return total
