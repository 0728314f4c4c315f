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
against Schur functions.  All arithmetic is on integers: a class function
is carried as its class-weighted values (n!/z_omega) * chi(omega), so every
inner product is one integer sum followed by one exact division by n!.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import Partition, partition, partitions_of
from .tomography import SizeCapError

# bounds of the memo tables: class sizes and beta masks hold one entry per
# order n, the plethysm expansion one per (mu, nu) pair
CLASS_SIZES_MAXSIZE = 16
EXPANSION_MAXSIZE = 256
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
    """Irreducible S_n character chi_lam evaluated on the class of cycle_type."""
    lam, tau = partition(lam), partition(cycle_type)
    if sum(lam) != sum(tau):
        raise ValueError(f"size mismatch: |{lam}| != |{tau}|")
    return _mn(_beta_mask(lam), tau)


def centralizer_order(tau: Partition) -> int:
    """z_tau = prod_i i^{m_i} m_i! over part multiplicities m_i."""
    z = 1
    mult: dict[int, int] = {}
    for part in tau:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return z


@lru_cache(maxsize=CLASS_SIZES_MAXSIZE)
def _class_sizes(n: int) -> tuple[tuple[Partition, int], ...]:
    """(tau, n!/z_tau) for every cycle type tau of S_n: the size of its class."""
    nfact = factorial(n)
    return tuple((tau, nfact // centralizer_order(tau)) for tau in partitions_of(n))


@lru_cache(maxsize=CLASS_SIZES_MAXSIZE)
def _beta_masks(n: int) -> tuple[tuple[Partition, int], ...]:
    """(lam, _beta_mask(lam)) for every partition lam of n."""
    return tuple((lam, _beta_mask(lam)) for lam in partitions_of(n))


def _pair(weighted, mask: int, n: int) -> int:
    """Inner product of chi_lam, lam the shape with beta-set mask, with a
    class function of S_n given as class-weighted values (omega,
    (n!/z_omega) * f(omega)): one integer sum and one exact division by n!."""
    total = sum(w * _mn(mask, omega) for omega, w in weighted)
    value, rem = divmod(total, factorial(n))
    if rem:
        raise ArithmeticError(f"inner product with the character of beta-set {mask:#b} is not integral")
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
    n = sum(mu)
    mu_mask, nu_mask = _beta_mask(mu), _beta_mask(nu)
    weighted = []
    for tau, size in _class_sizes(n):
        if (chi := _mn(mu_mask, tau)) and (chi := chi * _mn(nu_mask, tau)):
            weighted.append((tau, size * chi))
    return _pair(weighted, _beta_mask(rho), n)


@lru_cache(maxsize=EXPANSION_MAXSIZE)
def plethysm_power_expansion(mu: Partition, nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """The character of the plethysm of the mu-Schur function with the
    nu-Schur function as class-weighted integers: pairs (omega, w_omega),
    omega running over the classes of S_n, n = |mu|*|nu|, where chi_P is
    not zero, and w_omega = (n!/z_omega) * chi_P(omega).  The power-sum
    coefficient of p_omega is w_omega / n!, and w at the identity class is
    the dimension of the plethysm S_n-module.

    Uses s_f = sum_tau chi_f(tau)/z_tau p_tau together with the rules
    p_r[p_s] = p_{rs} and multiplicativity over the parts of the outer
    cycle type.  The numerators are built over the common denominator
    |mu|! * (|nu|!)^|mu|: the outer class sigma contributes
    (|mu|!/z_sigma) chi_mu(sigma) * |nu|!^(|mu| - len(sigma)) times a product
    of len(sigma) inner class weights (|nu|!/z_tau) chi_nu(tau).  Each class
    then takes one exact division, chi_P(omega) = z_omega * numerator /
    denominator, which raises ArithmeticError if it does not divide.
    """
    mu, nu = partition(mu), partition(nu)
    a, b = sum(mu), sum(nu)
    bfact = factorial(b)
    mu_mask, nu_mask = _beta_mask(mu), _beta_mask(nu)
    inner = [(tau, size * c) for tau, size in _class_sizes(b) if (c := _mn(nu_mask, tau))]
    # the inner classes with every cycle stretched r-fold, for each outer cycle length r
    stretched = {r: [(tuple(r * t for t in tau), coeff) for tau, coeff in inner] for r in range(1, a + 1)}
    numer: dict[Partition, int] = {}
    for sigma, size in _class_sizes(a):
        c_sigma = _mn(mu_mask, sigma)
        if not c_sigma:
            continue
        prod: dict[Partition, int] = {(): size * c_sigma * bfact ** (a - len(sigma))}
        for r in sigma:
            nxt: dict[Partition, int] = {}
            for key, val in prod.items():
                for part, coeff in stretched[r]:
                    nk = tuple(sorted(key + part, reverse=True))
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
    return _pair(plethysm_power_expansion(mu, nu), _beta_mask(lam), n)


def plethysm_schur_table(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """Full Schur expansion of the plethysm of s_mu with s_nu.  Raises
    SizeCapError above POWER_SUM_N_MAX before any class is built."""
    mu, nu = partition(mu), partition(nu)
    n = _pairing_size(mu, nu)
    expansion = plethysm_power_expansion(mu, nu)
    table: dict[Partition, int] = {}
    for lam, mask in _beta_masks(n):
        m = _pair(expansion, mask, n)
        if m < 0:
            raise ArithmeticError(f"negative multiplicity {m} at {lam}")
        if m:
            table[lam] = m
    return table
