"""Symmetric group characters and the power-sum route to plethysm.

Characters are computed by the Murnaghan-Nakayama rule on beta-numbers
(first-column hook lengths lam_i + len(lam) - 1 - i), held as the set bits of
one int.  Removing a border strip of size t moves a bead from some
beta-number b down to an empty position b - t: the targets are the set bits
of (mask >> t) & ~mask, and the sign is the parity of the beads jumped over,
a popcount.  Trailing set bits (zero parts) are shifted off, so each
partition has one mask, and that mask is the memo key.  Once only fixed
points remain, chi_lam(1^n) = f^lam comes from the hook-length formula: the
hooks of the row with beta-number b are b - h over the empty positions h < b,
one factor per cell.  The recursion is one level per cycle of length >= 2.

The same character tables drive an exact plethysm expansion: s_nu is
expanded in power sums, p_r acts on power sums by stretching indices, and
the resulting p-basis expansion of the composed character is paired back
against Schur functions.  A one-box shape skips the product: s_mu[s_1] =
s_1[s_mu] = s_mu, so the expansion of such a pair is the other shape's
character, and its Schur table is still paired against every chi_lam.  All
arithmetic is on integers: a class function is carried as its
class-weighted values (n!/z_omega) * chi(omega), so every inner product is
one integer sum followed by one exact division by n!.  _classes(n) lists
each tau |- n with its class size n!/z_tau, read as cycle types by every
character sum and as shapes by the Schur table; a beta mask is built only
where a character is evaluated (sn_character, _weighted_character,
_kronecker's nu, _pair's row misses).  _weighted_character builds every
class-weighted character.  Every pairing with chi_lam reads the character
row of the shape lam (_character_row), a dict {omega: chi_lam(omega)}
filled on first use of each class, so a Schur table costs one _mn call per
(shape, class) however many expansions it is paired with, and _mn stays
the memo of the recursion's own states.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import Partition, partition, partitions_of
from .tomography import SizeCapError

# bounds of the memo tables: the class table holds one entry per order n
# (one round of plethysm_sweep keeps 7 sizes, one of chain_resolve 8), the
# plethysm expansion one per (mu, nu) pair (one round of plethysm_sweep
# keeps 103 expansions and reads each twice)
CLASS_SIZES_MAXSIZE = 16
EXPANSION_MAXSIZE = 256
CHARACTER_ROWS_MAXSIZE = 1024
"""Bound of the character rows, one per shape that a pairing reads
(_character_row).  A round of plethysm_sweep reads 44 rows; every Schur
table with |mu||nu| <= 14 reads 507, one per partition of n <= 14, holding
41 073 entries in 2.6 MB.  A row holds at most p(n) entries: the rho row
of kronecker((20,20), (25,15), (30,10)) holds 30 746 of p(40) = 37 338,
beside the 331 767 entries that query leaves in _mn."""
POWER_SUM_N_MAX = 40
"""The largest n = |mu|*|nu| that plethysm_schur_multiplicity and
plethysm_schur_table pair over the p(n) classes; above it they raise
SizeCapError before any class is built, and so does general_plethysm on a
lam taller than coefficients.JACOBI_TRUDI_MAX_ROWS.  On a shared 2-vCPU
host a cold a, b or general query took 0.1-1.2 s and up to 65 MB at size
40, 1.7 s and 70 MB at 44, and 2.9-3.2 s and 120 MB at 48, about twice per
4 boxes."""


def _beta_mask(lam: Partition) -> int:
    """The beta-numbers of lam as the set bits of an int, zero parts dropped."""
    ell = len(lam)
    mask = 0
    for i, part in enumerate(lam):
        mask |= 1 << (part + ell - 1 - i)
    # each zero part at the bottom is one trailing set bit
    return mask >> ((mask ^ (mask + 1)).bit_length() - 1)


def _hook_dim(mask: int) -> int:
    """f^lam for the shape with beta-set mask, by the hook-length formula."""
    holes: list[int] = []
    cells = 0
    hooks = 1
    for pos, bit in enumerate(bin(mask)[:1:-1]):
        if bit == "1":
            for h in holes:
                hooks *= pos - h
            cells += len(holes)
        else:
            holes.append(pos)
    return factorial(cells) // hooks


@lru_cache(maxsize=None)
def _mn(mask: int, cycles: Partition) -> int:
    """chi_lam(cycles) for the shape whose beta-set is mask (see _beta_mask),
    cycles a nonincreasing tuple of the same size."""
    if not cycles:
        return 1 if not mask else 0
    t = cycles[0]
    if t == 1:
        return _hook_dim(mask)
    rest = cycles[1:]
    total = 0
    moves = (mask >> t) & ~mask
    while moves:
        low = moves & -moves
        moves ^= low
        new = mask ^ low ^ (low << t)
        if new & 1:
            new >>= (new ^ (new + 1)).bit_length() - 1
        if (mask & ((low << t) - low)).bit_count() & 1:
            total -= _mn(new, rest)
        else:
            total += _mn(new, rest)
    return total


def sn_character(lam: Partition, cycle_type: Partition) -> int:
    """Irreducible S_n character chi_lam evaluated on the class of cycle_type.

    _mn recurses once per cycle of length >= 2, so the memo is filled from
    the deepest level up: levels[k] holds the masks that removing the first
    k cycles can reach, for each k whose next cycle has length >= 2, and
    _mn on level k then finds every state of level k + 1 memoized.  No call
    goes more than one level down, whatever the number of cycles."""
    lam, tau = partition(lam), partition(cycle_type)
    if sum(lam) != sum(tau):
        raise ValueError(f"size mismatch: |{lam}| != |{tau}|")
    mask = _beta_mask(lam)
    levels = [{mask}]
    for t, after in zip(tau, tau[1:]):
        if after == 1:
            break
        reached = set()
        for above in levels[-1]:
            moves = (above >> t) & ~above
            while moves:
                low = moves & -moves
                moves ^= low
                new = above ^ low ^ (low << t)
                reached.add(new >> ((new ^ (new + 1)).bit_length() - 1))
        levels.append(reached)
    for k in range(len(levels) - 1, 0, -1):
        rest = tau[k:]
        for below in levels[k]:
            _mn(below, rest)
    return _mn(mask, tau)


def centralizer_order(tau: Partition) -> int:
    """z_tau = prod_i i^{m_i} m_i! over part multiplicities m_i, tau
    nonincreasing: equal parts are adjacent, and the j-th copy of part i
    contributes the factor i * j."""
    z = 1
    run = last = 0
    for part in tau:
        run = run + 1 if part == last else 1
        last = part
        z *= part * run
    return z


@lru_cache(maxsize=CLASS_SIZES_MAXSIZE)
def _classes(n: int) -> tuple[tuple[Partition, int], ...]:
    """(tau, n!/z_tau) for every partition tau of n, in partitions_of order:
    the cycle type and size of a class of S_n, tau also read as a shape."""
    nfact = factorial(n)
    return tuple((tau, nfact // centralizer_order(tau)) for tau in partitions_of(n))


def _weighted_character(lam: Partition) -> list[tuple[Partition, int]]:
    """(omega, (n!/z_omega) * chi_lam(omega)) for every class omega of S_n,
    n = |lam|, where chi_lam(omega) is not 0."""
    mask = _beta_mask(lam)
    return [(omega, size * chi) for omega, size in _classes(sum(lam)) if (chi := _mn(mask, omega))]


@lru_cache(maxsize=CHARACTER_ROWS_MAXSIZE)
def _character_row(lam: Partition) -> dict[Partition, int]:
    """The character row of the shape lam, a partition without zero parts:
    {omega: chi_lam(omega)}, empty until _pair fills it.  An entry depends
    only on its key, so concurrent fills write equal values."""
    return {}


def _pair(weighted, lam: Partition, n: int) -> int:
    """Inner product of chi_lam, lam a partition of n, with a class function
    of S_n given as class-weighted values (omega, (n!/z_omega) * f(omega)):
    one integer sum and one exact division by n!.  Each chi_lam(omega) is
    read from lam's character row; lam's beta mask is built on the first
    class the row lacks, and _mn is called for each such class."""
    row = _character_row(lam)
    mask = total = 0
    for omega, w in weighted:
        try:
            chi = row[omega]
        except KeyError:
            # 0 until the first miss; () has mask 0 too, but one class to miss
            mask = mask or _beta_mask(lam)
            chi = row[omega] = _mn(mask, omega)
        total += w * chi
    value, rem = divmod(total, factorial(n))
    if rem:
        raise ArithmeticError(f"inner product with the character of {lam} is not integral")
    return value


def _pairing_size(mu: Partition, nu: Partition) -> int:
    """|mu|*|nu|, the order of the symmetric group that the power-sum route
    pairs over; SizeCapError above POWER_SUM_N_MAX."""
    n = sum(mu) * sum(nu)
    if n > POWER_SUM_N_MAX:
        raise SizeCapError(f"a power-sum plethysm of size {n} is over the cap of {POWER_SUM_N_MAX}")
    return n


def kronecker_shapes(mu: Partition, nu: Partition, rho: Partition) -> tuple[Partition, Partition, Partition]:
    """The arguments of a Kronecker coefficient in canonical form; raises
    ValueError unless they are partitions of one size."""
    mu, nu, rho = partition(mu), partition(nu), partition(rho)
    if not sum(mu) == sum(nu) == sum(rho):
        raise ValueError("kronecker arguments must have equal sizes")
    return mu, nu, rho


def kronecker(mu: Partition, nu: Partition, rho: Partition) -> int:
    """Kronecker coefficient k(mu,nu,rho) as the S_n character inner product
    (1/n!) sum over classes of |class| * chi_mu chi_nu chi_rho."""
    return _kronecker(*kronecker_shapes(mu, nu, rho))


def _kronecker(mu: Partition, nu: Partition, rho: Partition) -> int:
    """kronecker on shapes already checked by kronecker_shapes.  A class
    stops at its first zero character: chi_nu is evaluated only where
    chi_mu is not 0, and _pair evaluates chi_rho only where neither is."""
    nu_mask = _beta_mask(nu)
    weighted = [(tau, w * chi) for tau, w in _weighted_character(mu) if (chi := _mn(nu_mask, tau))]
    return _pair(weighted, rho, sum(mu))


@lru_cache(maxsize=EXPANSION_MAXSIZE)
def plethysm_power_expansion(mu: Partition, nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """The character of the plethysm of the mu-Schur function with the
    nu-Schur function as class-weighted integers: pairs (omega, w_omega),
    omega running over the classes of S_n, n = |mu|*|nu|, where chi_P is
    not zero, and w_omega = (n!/z_omega) * chi_P(omega).  The power-sum
    coefficient of p_omega is w_omega / n!, and w at the identity class is
    the dimension of the plethysm S_n-module.

    A one-box pair, nu = (1) or mu = (1), returns the other shape's
    class-weighted character (s_mu[s_1] = s_1[s_mu] = s_mu) with no outer x
    inner product; the Schur table and multiplicity still pair it with
    chi_lam.  Any other pair uses s_f = sum_tau chi_f(tau)/z_tau p_tau
    together with the rules p_r[p_s] = p_{rs} and multiplicativity over the
    parts of the outer cycle type.  The numerators are built over the
    common denominator |mu|! * (|nu|!)^|mu|: the outer class sigma
    contributes (|mu|!/z_sigma) chi_mu(sigma) * |nu|!^(|mu| - len(sigma))
    times a product of len(sigma) inner class weights (|nu|!/z_tau)
    chi_nu(tau).  Each class then takes one exact division, chi_P(omega) =
    z_omega * numerator / denominator, which raises ArithmeticError if it
    does not divide.  Raises SizeCapError above POWER_SUM_N_MAX before any
    class is built.
    """
    mu, nu = partition(mu), partition(nu)
    _pairing_size(mu, nu)
    if nu == (1,) or mu == (1,):
        # s_mu[s_1] = s_1[s_mu] = s_mu: the other shape's class-weighted character
        return tuple(sorted(_weighted_character(mu if nu == (1,) else nu)))
    a, b = sum(mu), sum(nu)
    bfact = factorial(b)
    outer, inner = _weighted_character(mu), _weighted_character(nu)
    # the inner classes with every cycle stretched r-fold, for each cycle
    # length r of an outer class; a stretched class is still nonincreasing
    lengths = {r for sigma, _ in outer for r in sigma}
    stretched = {r: [(tuple(r * t for t in tau), coeff) for tau, coeff in inner] for r in lengths}
    numer: dict[Partition, int] = {}
    for sigma, weight in outer:
        prod: dict[Partition, int] = {(): weight * bfact ** (a - len(sigma))}
        for r in sigma:
            nxt: dict[Partition, int] = {}
            for key, val in prod.items():
                for part, coeff in stretched[r]:
                    nk = tuple(sorted(key + part, reverse=True)) if key else part
                    nxt[nk] = nxt.get(nk, 0) + val * coeff
            prod = nxt
        for key, val in prod.items():
            numer[key] = numer.get(key, 0) + val
    denom = factorial(a) * bfact**a
    nfact = factorial(a * b)
    out = []
    for omega, num in sorted(numer.items()):
        if not num:
            continue
        z = centralizer_order(omega)
        chi, rem = divmod(z * num, denom)
        if rem:
            raise ArithmeticError(f"non-integral plethysm character at {omega}")
        out.append((omega, nfact // z * chi))
    return tuple(out)


def plethysm_schur_multiplicity(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of s_lam in the plethysm of s_mu with s_nu: the inner
    product of chi_lam with the class-weighted plethysm character; 0 when
    |lam| != |mu||nu|, where the plethysm has no degree-|lam| part.  Raises
    SizeCapError above POWER_SUM_N_MAX before any class is built."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if sum(lam) != sum(mu) * sum(nu):
        return 0
    n = _pairing_size(mu, nu)
    return _pair(plethysm_power_expansion(mu, nu), lam, n)


def plethysm_schur_table(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """Full Schur expansion of the plethysm of s_mu with s_nu.  Raises
    SizeCapError above POWER_SUM_N_MAX before any class is built."""
    mu, nu = partition(mu), partition(nu)
    n = _pairing_size(mu, nu)
    expansion = plethysm_power_expansion(mu, nu)
    table: dict[Partition, int] = {}
    for lam, _ in _classes(n):
        m = _pair(expansion, lam, n)
        if m < 0:
            raise ArithmeticError(f"negative multiplicity {m} at {lam}")
        if m:
            table[lam] = m
    return table
