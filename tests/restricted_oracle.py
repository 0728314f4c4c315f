"""Test oracle: the restricted-class split walk that lists every
composition of a column's 3 n_hat boxes under the residual and keeps those
of coordinate sum n_hat r_j.

restricted.psi_splits and restricted.psi_membership draw each column's
layer vectors from a generator bounded by both sums at once, and
psi_membership keeps only the set of residuals.  This walk filters the
plain compositions instead, so the tests can check both entries against it,
splits in the same order.  It is not part of the library.
"""

from plethtomo.partitions import canonical, compositions_of, nonincreasing, partition, subtract
from plethtomo.restricted import _psi_decomposition, variant_of_inner
from plethtomo.tomography import coordinate_sum, pyramid_marginal


def filtered_psi_splits(mu, nu, lam):
    """psi_splits by enumerate-then-filter, on a decomposition built fresh
    (not read from the library's memo)."""
    decomp = _psi_decomposition.__wrapped__(partition(mu), variant_of_inner(nu))
    lam = canonical(lam)
    if not nonincreasing(lam) or sum(lam) != 3 * sum(mu):
        return []
    kind = decomp.kind
    remainder = lam
    for r_j in decomp.thresholds:
        remainder = subtract(remainder, pyramid_marginal(r_j - 1, kind))
        if remainder is None:
            return []
    splits = {remainder: [()]}
    for r_j, n_hat in zip(decomp.thresholds, decomp.layer_parts):
        nxt = {}
        for residual, partial in splits.items():
            for vec in compositions_of(3 * n_hat, r_j + 1, residual[: r_j + 1]):
                if coordinate_sum(vec) == n_hat * r_j:
                    part = canonical(vec)
                    nxt.setdefault(subtract(residual, vec), []).extend(acc + (part,) for acc in partial)
        splits = nxt
    return splits.get((), [])
