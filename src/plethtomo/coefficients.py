"""Plethysm and Kronecker coefficient queries.

Two independent routes compute every general plethysm coefficient:

* weight multiplicities q_kappa (horizontal-strip DP over letters that are
  inner-tableau weights with Kostka multiplicities) fed into the
  Jacobi-Trudi alternating sum.  Its signed sorted compositions depend on
  lam alone: a row DP over merged (used-column set, value multiset) states
  builds them once per lam, into a table bounded by JT_TERMS_MAXSIZE that
  every (mu, nu) shares, so the sum is never walked permutation by
  permutation.  Two exact support bounds answer 0 before any DP runs.
  s_mu[s_nu] is a Schur-positive summand of s_nu^|mu|, so by the
  Littlewood-Richardson rule lam has at most |mu|*len(nu) rows and at most
  |mu|*nu_1 columns, or the coefficient is 0 (no term table is built).  A
  nu-tableau holds each value at most once per column, so each of the |mu|
  letters adds at most nu_1 to a coordinate and q_kappa is 0 when
  kappa_1 > |mu|*nu_1 (no letter alphabet is built).  The one-box shapes
  are answered directly: s_mu[s_1] = s_1[s_mu] = s_mu.  The four
  families with a one-row or one-column mu and nu skip the strip DP: the
  weight-kappa space of h_n[h_m], h_n[e_m], e_n[h_m] or e_n[e_m] has a
  basis of the multisets (h_n) or sets (e_n) of n monomials of degree m,
  any (h_m) or squarefree (e_m), whose product is x^kappa, which
  tomography._letter_count counts by letter elimination.  At m = 3 the sets
  are the n-point sets of the closed (Sym^3) or open (wedge^3) cone with
  sum-marginal kappa, which tomography.count_point_sets counts, on the
  level engine up to excess 2n and by letters above;
* the power-sum expansion of the plethysm paired against
  Murnaghan-Nakayama characters (characters.plethysm_schur_multiplicity).

omega maps s_mu[s_nu] to s_mu~[s_nu'], mu~ = mu for |nu| even and mu' for
|nu| odd, so a coefficient is the same at lam and at the omega-dual (lam',
mu~, nu').  general_plethysm takes the first route on lam of up to
JACOBI_TRUDI_MAX_ROWS rows, at lam' when it has fewer rows and no larger
strip-DP alphabet; the second above, where characters refuses lam of size
above POWER_SUM_N_MAX; and over that cap, past the answers that build no
term table (the support box, a one-box shape), the first at lam' when lam'
has at most JACOBI_TRUDI_MAX_ROWS rows.  Agreement of the two routes is one of
the repository's standing self-checks.  The power-sum route applies
neither support bound, so every zero the bounds predict is checked against
a computation that does not assume them.

Inner or outer degree 0 is answered by s_mu[s_()] = s_mu[1] = [len(mu) <= 1]
and s_()[s_nu] = 1.  A coefficient family, 'a' (the n-th symmetric power)
or 'b' (the n-th exterior power), is checked once, by outer_shape, the only
code in the package that raises for an unknown family.

plethysm_coeff, the one entry for a_lam(n,m) and b_lam(n,m), answers by
the first of these rows that applies, each naming its method:

1. |lam| != n*m is 0 ("degree-mismatch");
2. at m = 3, a lam whose cone instance (_family_cone) is a promise instance
   is its point-set count, as every point set there is a pyramid
   ("promise-pyramid-count");
3. n >= 1 and len(lam) > n is 0 ("height-zero"): s_mu[h_m] is a summand of
   h_m^n, whose Schur support is the lam with at most n rows (K_{lam,(m^n)}
   is 0 on the rest);
4. n >= 1 and len(lam) = n peels lam's first column: the paper's inner lift
   (reductions.inner_lift) read backwards gives a_lam(n,m) =
   b_{lam-(1^n)}(n,m-1) and b_lam(n,m) = a_{lam-(1^n)}(n,m-1), and the
   peeled query goes back through rows 2-4 ("column-peel+" before the
   method of the row that answers it).  The lam_n columns that keep n rows
   are peeled in one step, the family flipped once per column, and the
   step stops at m = 3 for row 2, so a peel costs O(len(lam)) at any m;
5. at m = 3, a lam whose cone instance has coordinate sum below beta(n) is
   0 ("below-beta"): no n-point set of the cone has it, and the point-set
   count bounds the coefficient from above.  It stands after the peel, as
   the guard of the general_plethysm call: a shape the peel takes at m = 3
   ends at m <= 2, on row 6 or on a one-box shape.  Rows 2 and 5 read one
   excess, the coordinate sum (_family_coords, no transpose) minus beta(n),
   computed once per lam at m = 3: row 2 answers excess 0, row 5 excess
   < 0;
6. at m = 2, Littlewood's multiplicity-free closed forms (Macdonald,
   Symmetric Functions, I.8 Ex. 6) in O(len(lam)): h_n[h_2] is the sum of
   the s_lam with every part even and e_n[h_2] of those of Frobenius form
   (alpha+1 | alpha) ("closed-form");
7. the rest is general_plethysm ("jacobi-trudi", "omega-dual+jacobi-trudi"
   or "power-sum"), on which degree 0 is s_mu[1] = [len(mu) <= 1].

_jacobi_trudi and plethysm_schur_multiplicity never peel, so they stay the
two independent routes that check these rows.

kronecker checks a triple once, answers one with a one-row or one-column
shape directly (the trivial and the sign character), refuses any other
above KRON_N_MAX and sends the rest to the character sum over the p(n)
classes (characters.kronecker).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

# POWER_SUM_N_MAX is imported so that coefficients.POWER_SUM_N_MAX stays the
# cap of general_plethysm's power-sum route, which characters checks
from .characters import POWER_SUM_N_MAX, _kronecker, kronecker_shapes, plethysm_schur_multiplicity, plethysm_schur_table
from .partitions import Composition, Partition, _transpose, canonical, partition, partitions_of
from .tableaux import count_weighted_ssyt, dim_weyl, ssyt_weights
from .tomography import ConeKind, SizeCapError, _letter_count, beta, coordinate_sum, count_point_sets

JACOBI_TRUDI_MAX_ROWS = 9
"""The most rows general_plethysm runs the Jacobi-Trudi sum on, at lam or at
lam': a lam of at most this many rows takes Jacobi-Trudi at whichever side
_dual_is_cheaper picks (lam' then has fewer rows still), and a taller lam
over the power-sum cap takes it at lam' when lam_1 is at most this.  Only a
lam with more rows and more columns than this, over the power-sum cap, that
neither the support box nor a one-box shape answers is refused."""
JACOBI_TRUDI_ROWS_CAP = 10
"""The most rows jacobi_trudi_coeff builds a term table for; a taller lam
that neither the support box nor a one-box shape answers raises
SizeCapError before the table is built.  The table's cost grows with the
rows' freedom to permute: on a shared 2-vCPU host the worst shape, the
square (l^l), took 0.4 s at 9 rows, 3.3 s at 10 and 27 s at 11 (the
staircase 0.2, 0.9 and 5.6 s at 10, 11 and 12 rows; (3^l) 0.2 s at 11).
general_plethysm sends at most JACOBI_TRUDI_MAX_ROWS rows here.

The cap bounds the term table only; the weight multiplicities summed over
it (the horizontal-strip DP) have no cap.  On 36 random cold queries of
6-9 rows and 16-24 boxes on the same host, 14 took from 0.3 s to over
20 s, nearly all of it in that DP (the table took 0.7-1.7 ms on three of
them), while the power-sum pairing answered each of the 36 in 0.7-21.5 ms."""
KRON_N_MAX = 40
"""The largest size kronecker takes the character route at.  On a shared
2-vCPU host a cold character sum over the p(n) classes took 1.2-1.5 s on
two-row and hook triples at n = 40, and up to 3.5 s and 220 MB of memo on
shapes with more border strips (rectangles, staircases), about tenfold per
10 boxes.  One-row and one-column triples are answered at any size."""
# bound of the Jacobi-Trudi term table: one entry per lam, shared by every
# (mu, nu); a sweep over all lam with at most 9 rows and |lam| <= 12 touches 264
JT_TERMS_MAXSIZE = 256

Variant = Literal["a", "b"]


@dataclass(frozen=True)
class CoefficientResult:
    value: int
    method: str

    def __int__(self) -> int:
        return self.value


_q_cache: dict[tuple[Partition, Partition, Partition], int] = {}

# the cone of each degree-3 inner shape, whose single-column weight spaces
# are its point sets: Sym^3 holds multisets of three letters, the weakly
# decreasing triples, and wedge^3 3-sets, the strictly decreasing ones
_CONE_OF_INNER: dict[Partition, ConeKind] = {(3,): "closed", (1, 1, 1): "open"}


def _family_cone(lam: Partition, variant: Variant) -> tuple[Partition, ConeKind]:
    """The cone instance of a degree-3 family on a partition lam: b at lam
    is the closed cone at lam, a at lam the open cone at lam' (and back, as
    transposition is an involution)."""
    if variant == "b":
        return lam, "closed"
    return _transpose(lam), "open"


def _family_coords(lam: Partition, variant: Variant) -> tuple[int, ConeKind]:
    """The coordinate sum and the cone of _family_cone(lam, variant) without
    the transpose: the a family's marginal lam' has coordinate sum
    sum_j C(lam_j, 2)."""
    if variant == "b":
        return coordinate_sum(lam), "closed"
    return sum(part * (part - 1) for part in lam) >> 1, "open"


def weight_multiplicity(mu: Partition, nu: Partition, kappa: Composition) -> int:
    """q_kappa(mu,nu): the dimension of the weight-kappa subspace of the
    plethysm of the mu-Schur functor applied to the nu-th one, i.e. the
    h_kappa coordinate of the composed character.

    Counts SSYT of shape mu over the alphabet of nu-tableaux, each letter
    weighted by its tableau weight, with total weight exactly kappa.  The
    letters are not enumerated as tableaux: they are the compositions w of
    |nu| with w <= kappa entrywise (one over kappa can never be used), each
    repeated K_{nu,w} times, the number of nu-tableaux of weight w
    (tableaux.ssyt_weights).  The four families of a one-row or
    one-column mu over a one-row or one-column nu are counted by letter
    elimination instead, and at m = 3 a column mu over (3) or (1,1,1) as
    cone point sets (module docstring).  The value only depends on the
    multiset of entries of kappa, and not on how many variables beyond
    len(kappa) there are.
    """
    mu, nu = partition(mu), partition(nu)
    kappa = canonical(kappa)
    if sum(kappa) != sum(mu) * sum(nu):
        raise ValueError(f"|kappa|={sum(kappa)} != |mu|*|nu|={sum(mu) * sum(nu)}")
    return _weight_multiplicity_sorted(mu, nu, canonical(sorted(kappa, reverse=True)))


def _weight_multiplicity_sorted(mu: Partition, nu: Partition, key: Partition) -> int:
    # key is already a partition: sorted and without zeros
    memo_key = (mu, nu, key)
    got = _q_cache.get(memo_key)
    if got is not None:
        return got
    if not key:
        # |mu|*|nu| = 0: the weight-0 space of s_mu[1], or of s_()[s_nu] = 1
        val = int(len(mu) <= 1)
    elif key[0] > sum(mu) * nu[0]:
        # each of the |mu| letters adds at most nu_1 to a coordinate (a
        # nu-tableau holds a value at most once per column); the strip DP
        # closes key[0] last and would find this zero only at its end.  The
        # zero is not memoized: this test answers it again at no cost
        return 0
    elif nu in _CONE_OF_INNER and mu == (1,) * len(mu):
        # one basis vector per n-point set of the cone (module docstring);
        # a monomial coefficient of e_n[h_3] (e_n[e_3]), so symmetric in key
        val = count_point_sets(key, _CONE_OF_INNER[nu])
    elif _is_letter_family(mu, nu):
        # the (multi)sets of n monomials of degree m (module docstring).
        # Timed key by key against the strip DP on every key of at most 12
        # parts (m = 2, 3, 4 up to n = 8, 6, 4), it lost on 0-21% of a
        # family's keys, by at most 7 ms over the family, and won 1.9-24x
        # in total; no cut on the number of parts saved any time
        val = _letter_count(key, (sum(nu), len(nu) == 1, len(mu) == 1))
    else:
        letters = ssyt_weights(nu, len(key), bound=key)
        val = count_weighted_ssyt(mu, letters, key)
    _q_cache[memo_key] = val
    return val


@lru_cache(maxsize=JT_TERMS_MAXSIZE)
def _jacobi_trudi_terms(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """The Jacobi-Trudi sum of lam as (sorted composition, signed count)
    pairs: every permutation sigma with lam - (0..l-1) + sigma nonnegative
    adds its sign at the sorted, zero-free form of that composition.

    Rows are placed one at a time, last row first (lam_i - i decreases with
    i, so that is the most constrained row first).  A state is one int: the
    set of used columns in the low l bits, and above it the multiset of
    nonzero values placed so far, as a count per value in fields of
    l.bit_length() bits.  Placing value v in column j adds one precomputed
    step; row i against the rows below it, already placed, has one
    inversion per used column left of its own.  Equal states merge at
    every row and zero counts are dropped, so the cost grows with the
    number of merged states, not with l!.
    """
    ell = len(lam)
    width = ell.bit_length()
    columns = (1 << ell) - 1
    states = {0: 1}
    for i in range(ell - 1, -1, -1):
        moves = []
        for j in range(max(0, i - lam[i]), ell):
            value = lam[i] - i + j
            step = (1 << j) + (1 << (ell + (value - 1) * width) if value else 0)
            moves.append((1 << j, (1 << j) - 1, step))
        # the legal moves and their signs depend on the used columns only
        by_used: dict[int, list[tuple[int, int]]] = {}
        nxt: dict[int, int] = {}
        for state, count in states.items():
            used = state & columns
            legal = by_used.get(used)
            if legal is None:
                legal = [(step, (used & left).bit_count() & 1) for bit, left, step in moves if not used & bit]
                by_used[used] = legal
            for step, odd in legal:
                moved = state + step
                nxt[moved] = nxt.get(moved, 0) + (-count if odd else count)
        states = {state: count for state, count in nxt.items() if count}
    field = (1 << width) - 1
    terms = []
    for state, count in states.items():
        packed = state >> ell
        key: list[int] = []
        value = 0
        while packed:
            value += 1
            key += [value] * (packed & field)
            packed >>= width
        key.reverse()
        terms.append((tuple(key), count))
    return tuple(terms)


def jacobi_trudi_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """General plethysm coefficient by the Jacobi-Trudi alternating sum
    sum_sigma sign(sigma) q_{lam - (0..l-1) + sigma}, with q evaluated as 0
    on compositions with a negative entry.

    The signed sorted compositions of the sum depend on lam alone; they are
    built once per lam by a row DP over merged (used-column set, value
    multiset) states and kept in a table bounded by JT_TERMS_MAXSIZE
    (_jacobi_trudi_terms).  Each (mu, nu) then costs one weight
    multiplicity lookup per distinct composition.  general_plethysm sends
    it at most JACOBI_TRUDI_MAX_ROWS rows, of lam or of lam'.

    Before the table is looked up, lam outside the |mu|*len(nu) by
    |mu|*nu_1 box gives 0 (s_mu[s_nu] is a summand of s_nu^|mu|, whose
    Littlewood-Richardson support lies in that box), and a one-box mu or
    nu gives [lam equal to the other shape] (s_mu[s_1] = s_1[s_mu] = s_mu).
    Past those, lam with more than JACOBI_TRUDI_ROWS_CAP rows raises
    SizeCapError.  Inside the sum, a composition whose largest entry
    exceeds |mu|*nu_1 has q = 0 (a nu-tableau holds each value at most once
    per column).
    """
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if sum(lam) != sum(mu) * sum(nu):
        raise ValueError("size mismatch: |lam| must equal |mu|*|nu|")
    value = _without_table(lam, mu, nu)
    return _jacobi_trudi(lam, mu, nu) if value is None else value


def _without_table(lam: Partition, mu: Partition, nu: Partition) -> int | None:
    """The answers of jacobi_trudi_coeff that build no term table (degree 0,
    the support box, a one-box shape), or None.  Each is the same at lam and
    at the omega-dual (lam', mu~, nu'), so one call per query serves either
    side."""
    if not lam:
        # |mu|*|nu| = 0: s_mu[s_()] = s_mu[1] = [len(mu) <= 1], and s_()[s_nu] = 1
        return int(len(mu) <= 1)
    outer = sum(mu)
    if len(lam) > outer * len(nu) or lam[0] > outer * nu[0]:
        return 0
    if nu == (1,):
        return int(lam == mu)
    if mu == (1,):
        return int(lam == nu)
    return None


def _jacobi_trudi(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The row cap and the term-table sum of jacobi_trudi_coeff, on canonical
    lam, mu, nu with |lam| = |mu|*|nu| that _without_table did not answer."""
    if len(lam) > JACOBI_TRUDI_ROWS_CAP:
        raise SizeCapError(f"a Jacobi-Trudi term table of {len(lam)} rows is over the cap of {JACOBI_TRUDI_ROWS_CAP}")
    return sum(c * _weight_multiplicity_sorted(mu, nu, key) for key, c in _jacobi_trudi_terms(lam))


def _is_letter_family(mu: Partition, nu: Partition) -> bool:
    """Whether mu and nu are each one row or one column: the four families
    whose weight spaces the letter counter (or, at m = 3, the point-set
    counter) counts.  The omega-dual of one is one of the four again."""
    return (len(mu) == 1 or mu[0] == 1) and (len(nu) == 1 or nu[0] == 1)


def _omega_dual(lam: Partition, mu: Partition, nu: Partition) -> tuple[Partition, Partition, Partition]:
    """(lam', mu~, nu'), mu~ = mu for |nu| even and mu' for |nu| odd: omega
    maps s_mu[s_nu] to s_mu~[s_nu'] (Macdonald, Symmetric Functions, I.8),
    so the plethysm coefficient is the same at both triples."""
    return _transpose(lam), mu if sum(nu) % 2 == 0 else _transpose(mu), _transpose(nu)


def _dual_is_cheaper(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """Whether to run Jacobi-Trudi at the omega-dual rather than at lam:
    lam' has fewer rows, and either (mu, nu) is a letter family or the strip
    DP's alphabet on the dual side, the nu'-tableaux on lam_1 letters, is no
    larger than the nu-tableaux on len(lam) letters.  A restricted-class
    query such as ((4,4,2,1,1), (2,1,1), (1,1,1)) has 10 letters at lam and
    20 at lam', and took 0.9-1.4 ms cold at lam against 3.6-6.0 ms at lam'
    (fresh processes on a shared 2-vCPU x86_64 host)."""
    if lam[0] >= len(lam):
        return False
    return _is_letter_family(mu, nu) or dim_weyl(_transpose(nu), lam[0]) <= dim_weyl(nu, len(lam))


def general_plethysm(lam: Partition, mu: Partition, nu: Partition) -> CoefficientResult:
    """Multiplicity of the lam-irreducible in the plethysm of the mu-Schur
    functor with the nu one.  After a degree mismatch, the first route that
    applies answers:

    1. len(lam) > JACOBI_TRUDI_MAX_ROWS and |lam| <=
       characters.POWER_SUM_N_MAX: the power-sum character pairing
       ("power-sum");
    2. the answers that build no term table (_without_table: degree 0, the
       support box, a one-box shape), run once, named "jacobi-trudi" on lam
       of at most JACOBI_TRUDI_MAX_ROWS rows and "omega-dual+jacobi-trudi"
       on a taller one;
    3. a lam taller than JACOBI_TRUDI_MAX_ROWS whose lam_1 is too: the
       power-sum route raises SizeCapError before any class;
    4. the Jacobi-Trudi sum, at the omega-dual (lam', mu~, nu') for a tall
       lam or when _dual_is_cheaper says so ("omega-dual+jacobi-trudi"),
       and at lam otherwise ("jacobi-trudi"), answering one row first.

    One row: in one variable s_(N) is x^N and every other s_lam of degree N
    vanishes, while s_nu(x) = x^|nu| [len(nu) = 1] and s_mu of one monomial
    y is y^|mu| [len(mu) = 1], so the coefficient at (N) is [len(mu) =
    len(nu) = 1].  A one-column lam reaches it through the dual."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if sum(lam) != sum(mu) * sum(nu):
        return CoefficientResult(0, "degree-mismatch")
    tall = len(lam) > JACOBI_TRUDI_MAX_ROWS
    if tall and sum(lam) <= POWER_SUM_N_MAX:
        return _nonnegative(lam, plethysm_schur_multiplicity(lam, mu, nu), "power-sum")
    value = _without_table(lam, mu, nu)
    if value is not None:
        return CoefficientResult(value, "omega-dual+jacobi-trudi" if tall else "jacobi-trudi")
    if tall and lam[0] > JACOBI_TRUDI_MAX_ROWS:
        return _nonnegative(lam, plethysm_schur_multiplicity(lam, mu, nu), "power-sum")
    dual = tall or _dual_is_cheaper(lam, mu, nu)
    side, outer, inner = _omega_dual(lam, mu, nu) if dual else (lam, mu, nu)
    value = int(len(outer) == len(inner) == 1) if len(side) == 1 else _jacobi_trudi(side, outer, inner)
    return _nonnegative(lam, value, "omega-dual+jacobi-trudi" if dual else "jacobi-trudi")


def _nonnegative(lam: Partition, value: int, method: str) -> CoefficientResult:
    if value < 0:
        raise ArithmeticError(f"negative multiplicity {value} at {lam}; inputs were not characters")
    return CoefficientResult(value, method)


def outer_shape(n: int, variant: Variant) -> Partition:
    """The outer shape of a coefficient family: mu = (n) for the
    a-coefficients (the n-th symmetric power), (1^n) for the b-coefficients
    (the n-th exterior power).  The one check of a family argument:
    ValueError for any other variant, and for n < 0."""
    if variant != "a" and variant != "b":
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    if n < 0:
        raise ValueError(f"outer degree n must be >= 0, got {n}")
    if variant == "a":
        return (n,) if n else ()
    return (1,) * n


def plethysm_coeff(lam: Partition, n: int, m: int, variant: Variant) -> CoefficientResult:
    """a_lam(n,m) (multiplicity in the n-th symmetric power of the m-th) or
    b_lam(n,m) (n-th exterior power of the m-th symmetric power).  lam, the
    family (building no (1^n)) and nu = (m) are checked once; then the
    first row of the module docstring's list that applies answers:
    degree-mismatch, promise-pyramid-count (m = 3), height-zero
    (len(lam) > n), column-peel+<method> (len(lam) = n, peeled while it
    stays so), below-beta (m = 3), closed-form (m = 2), else
    general_plethysm, where degree 0 is s_mu[1] = [len(mu) <= 1] on
    (1^min(n,2)) and which raises SizeCapError over its caps."""
    lam = partition(lam)
    outer_shape(min(n, 0), variant)
    partition((m,))
    if sum(lam) != n * m:
        return CoefficientResult(0, "degree-mismatch")
    peeled = ""
    while True:
        if m == 3:
            coords, cone = _family_coords(lam, variant)
            excess = coords - beta(n, cone)
            if not excess:
                return CoefficientResult(count_point_sets(*_family_cone(lam, variant)), peeled + "promise-pyramid-count")
        if n and len(lam) > n:
            return CoefficientResult(0, peeled + "height-zero")
        if n == 0 or len(lam) < n:
            break
        # the last of n rows summing to nm is at most m, so m >= k >= 1:
        # peel its k columns at once, stopping at m = 3 for the promise row
        k = min(lam[-1], m - 3) if m > 3 else lam[-1]
        lam = tuple(part - k for part in lam if part > k)
        m -= k
        if k % 2:
            variant = "b" if variant == "a" else "a"
        peeled = "column-peel+"
    # a peel at m = 3 ends below 3, so at m = 3 excess is still lam's
    if m == 3 and excess < 0:
        return CoefficientResult(0, peeled + "below-beta")
    if m == 2:
        return CoefficientResult(int(_in_m2_support(lam, variant)), peeled + "closed-form")
    res = general_plethysm(lam, outer_shape(n if m else min(n, 2), variant), (m,))
    return CoefficientResult(res.value, peeled + res.method) if peeled else res


def _in_m2_support(lam: Partition, variant: Variant) -> bool:
    """Whether s_lam occurs in h_n[h_2] (a) or e_n[h_2] (b), |lam| = 2n, each
    multiplicity-free: every part of lam is even (a), or lam has Frobenius
    form (alpha+1 | alpha), i.e. lam_i = lam'_i + 1 on the diagonal (b).
    O(len(lam)): lam'_i, the number of parts above i, is counted down as i
    walks the diagonal."""
    if variant == "a":
        return all(part % 2 == 0 for part in lam)
    taller = len(lam)
    for i, part in enumerate(lam):
        if part <= i:
            break
        while lam[taller - 1] <= i:
            taller -= 1
        if part != taller + 1:
            return False
    return True


def m2_closed_form(n: int, variant: Variant) -> set[Partition]:
    """Exact multiplicity-free support of the inner-degree-2 plethysms: the
    partitions of 2n that _in_m2_support accepts.  Variant 'a' gives the
    all-even ones, variant 'b' those whose diagonal hooks have arm = leg + 1
    (row i of length >= i+1 satisfies lam_i = lam^t_i + 1, indices from 0)."""
    outer_shape(min(n, 0), variant)
    return {lam for lam in partitions_of(2 * n) if _in_m2_support(lam, variant)}


def check_duality(n: int, m: int) -> tuple[bool, list[str]]:
    """Verify the four exterior/symmetric duality identities relating the
    decompositions of the n-th exterior/symmetric powers of the m-th
    exterior power to a- and b-coefficients of transposed shapes.

    For odd m the exterior-of-exterior multiplicities match a at the
    transpose and symmetric-of-exterior match b; for even m the two swap.
    The wedge side is one power-sum Schur table per identity
    (characters.plethysm_schur_table), so it shares no code with the
    Jacobi-Trudi sum or the rows that plethysm_coeff answers by.  Returns
    (ok, mismatch report); ValueError if n or m is negative, where every
    family would be empty, and SizeCapError when n*m is above
    characters.POWER_SUM_N_MAX.
    """
    if n < 0 or m < 0:
        raise ValueError(f"check_duality takes n, m >= 0, got ({n}, {m})")
    report: list[str] = []
    wedge_m: Partition = (1,) * m
    wedge_wedge = plethysm_schur_table((1,) * n, wedge_m)
    sym_wedge = plethysm_schur_table((n,), wedge_m)
    for lam in partitions_of(n * m):
        lam_t = _transpose(lam)
        a_val = plethysm_coeff(lam_t, n, m, "a").value
        b_val = plethysm_coeff(lam_t, n, m, "b").value
        expect_ww = a_val if m % 2 == 1 else b_val
        expect_sw = b_val if m % 2 == 1 else a_val
        if (got := wedge_wedge.get(lam, 0)) != expect_ww:
            report.append(f"wedge^{n} wedge^{m} at {lam}: got {got}, duality predicts {expect_ww}")
        if (got := sym_wedge.get(lam, 0)) != expect_sw:
            report.append(f"sym^{n} wedge^{m} at {lam}: got {got}, duality predicts {expect_sw}")
    return (not report, report)


def kronecker(mu: Partition, nu: Partition, rho: Partition) -> CoefficientResult:
    """Kronecker coefficient.  chi_(n) is trivial and chi_(1^n) the sign, so
    k((n), a, b) = [a = b] and k((1^n), a, b) = [a = b'] ("one-row-or-column");
    any other triple is the character inner product ("character-sum"), or a
    SizeCapError above KRON_N_MAX.  ValueError unless the arguments are
    partitions of one size."""
    mu, nu, rho = kronecker_shapes(mu, nu, rho)
    for shape, a, b in ((mu, nu, rho), (nu, mu, rho), (rho, mu, nu)):
        if len(shape) == 1:
            return CoefficientResult(int(a == b), "one-row-or-column")
        if shape and shape[0] == 1:
            return CoefficientResult(int(a == _transpose(b)), "one-row-or-column")
    if sum(mu) > KRON_N_MAX:
        raise SizeCapError(f"kron on shapes of size {sum(mu)} is over the cap of {KRON_N_MAX}")
    return CoefficientResult(_kronecker(mu, nu, rho), "character-sum")


def dim_plethysm_module(mu: Partition, nu: Partition, k: int) -> int:
    """Dimension of the plethysm module on a k-dimensional space."""
    return dim_weyl(mu, dim_weyl(nu, k))
