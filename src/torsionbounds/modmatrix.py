"""Exact subgroup computations in GL2(Z/nZ).

One integer kernel does the arithmetic on generators: `_mul`, `_inv` and
`_reduce` act on bare entry tuples (a, b, c, d) reduced to [0, m), and the
l-adic filtration in `lattice` uses the same helpers.  `Mat2` is the
validated type at the API boundary (a slotted frozen dataclass with one
validating constructor: entries reduced, unit determinant) that generators
and membership queries take.

Subgroups carry their full element set as a frozenset of integer codes, so
orders and indices are exact by Lagrange: the code of (a, b, c, d) mod n is
((a*n + b)*n + c)*n + d, that is r*n^2 + s for the row codes r = a*n + b and
s = c*n + d (`_encode`, `_decode`).  `SubgroupModN.elements` yields `Mat2`
views decoded on demand.  Right multiplication by a fixed x, like reduction
mod m, maps each row on its own, so over many elements it is one table of
the n^2 row images T and h -> T[r]*n^2 + T[s], run in C-level map loops.
The closure is Dimino's algorithm: it grows the group one generator at a
time by right cosets of the group so far, so each element is computed once,
and it multiplies by the generators only: a finite group is the monoid its
generators span, so no inverse is taken (Butler, *Fundamental Algorithms
for Permutation Groups*, LNCS 559, 1991; Holt, Eick and O'Brien, *Handbook
of Computational Group Theory*, 2005).  A coset of a group of more than
2*n^2 elements is read off the row table; a smaller one, where the n^2 row
images would cost more than the coset, is formed product by product.
Dimino stops by Lagrange once the group holds SL2(Z/n): the group so far
lies in C = det^-1(D), D generated by the determinants of its generators,
and its order divides |C| = |SL2(Z/n)|*|D|, so once it has more than |C|/2
elements it is C.  From there the closure is the full preimage of the
determinants of all the generators, which the lift scan lists.
An open subgroup of the profinite GL2 is always represented here by its
image mod N for some multiple N of its level; reduction maps, full
preimages and the level-within-N computation make the finite-level
statements checkable by enumeration.  G is the full preimage of its image
mod m iff it contains the kernel K_m of reduction N -> m, of order
|GL2(Z/N)|/|GL2(Z/m)|.  By Lagrange, K_m <= G forces |K_m| to divide |G|,
so the full-preimage test answers no at once when it does not; otherwise
it lists K_m with the scan kernel and looks its codes up in G's set until
one is missing: at most |K_m| <= |G| lookups, and no pass over G.  At m = N
(K_m = {I}) and m = 1 (K_m = GL2(Z/N)) the answers, yes and
|G| = |GL2(Z/N)|, need no listing, and the reduction returns G itself or
the trivial group mod 1.  One scan kernel, `_lifts`, lists the codes mod n
of the lifts of codes mod m whose determinant lies in a byte table over
Z/n (the units, or the preimage D of the closure's exit): it buckets the
pairs (b, c) of each residue class mod m once by b*c mod n, so a row costs
one lookup per bucket plus its length.  `_count_gl2` counts GL2(Z/n)
without it, in O(n) integers, from the distribution of the n^2 products
x*y mod n, capped by those pairs, summing over the units or over the
non-units, whichever are fewer.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, floordiv, mod, mul
from typing import Iterable, Iterator

from . import TorsionBoundsError
from .exactvalue import _divisors, _factorize

# the most group elements any one enumeration may hold
ENUMERATION_CAP = 10**7

Entries = tuple[int, int, int, int]


class ModMatrixError(TorsionBoundsError):
    pass


class EnumerationTooLargeError(ModMatrixError):
    def __init__(self, size, cap):
        super().__init__(f"enumeration of {size} elements exceeds cap {cap}")
        self.size = size
        self.cap = cap


def _check_enumeration(size: int) -> None:
    """Refuse an enumeration of `size` elements over the cap, read at each call."""
    if size > ENUMERATION_CAP:
        raise EnumerationTooLargeError(size, ENUMERATION_CAP)


# -- the kernel: entry tuples mod m, no validation ---------------------------

def _reduce(g: Entries, m: int) -> Entries:
    return (g[0] % m, g[1] % m, g[2] % m, g[3] % m)


def _mul(x: Entries, y: Entries, m: int) -> Entries:
    return ((x[0] * y[0] + x[1] * y[2]) % m, (x[0] * y[1] + x[1] * y[3]) % m,
            (x[2] * y[0] + x[3] * y[2]) % m, (x[2] * y[1] + x[3] * y[3]) % m)


def _inv(x: Entries, m: int) -> Entries:
    det = (x[0] * x[3] - x[1] * x[2]) % m
    di = pow(det, -1, m) if m > 1 else 0
    return ((x[3] * di) % m, (-x[1] * di) % m, (-x[2] * di) % m, (x[0] * di) % m)


def _encode(g: Entries, n: int) -> int:
    """The code ((a*n + b)*n + c)*n + d of entries reduced mod n: r*n^2 + s
    for the row codes r = a*n + b and s = c*n + d."""
    a, b, c, d = g
    return ((a * n + b) * n + c) * n + d


def _decode(code: int, n: int) -> Entries:
    """The entries (a, b, c, d) of a code mod n."""
    r, s = divmod(code, n * n)
    return (*divmod(r, n), *divmod(s, n))


def _map_rows(table: list[int], codes: list[int], nn: int, shift: int) -> Iterator[int]:
    """table[r]*shift + table[s] for each code r*nn + s in `codes`: one map
    of the rows applied to both rows of each element, in C-level loops."""
    high = [t * shift for t in table]
    return map(add, map(high.__getitem__, map(floordiv, codes, repeat(nn))),
               map(table.__getitem__, map(mod, codes, repeat(nn))))


def _closure(gens: Iterable[Entries], m: int) -> set[int] | frozenset[int]:
    """Code set of the subgroup of GL2(Z/mZ) generated by `gens` (entry
    tuples reduced mod m with unit determinant), by Dimino's algorithm,
    which stops by Lagrange once the group holds SL2(Z/mZ).

    Each generator g not yet in the group so far, H, grows it to <H, g> by
    right cosets H*x, starting from x = g.  The group so far is always a
    union of such cosets, so a candidate x*s (s a generator used so far)
    already present names a coset already present and is skipped; every
    element is computed exactly once, as h*x.  A finite group is the monoid
    its generators span, so no inverse is taken.  The first generator used
    grows the trivial group by its powers.

    Right multiplication by x maps each row of h on its own, so once H has
    more than 2*m^2 elements the coset H*x is read off one table T of the
    m^2 row images of x, from the row codes of H split once per stage.
    Below that each product is formed directly, from entry tuples: H is
    then base*trans, base the powers of the first generator and trans a
    transversal of it (I and the list `trans`), so h*x = b*(w*x) and no code
    is decoded.

    The exit.  Let D be the subgroup of (Z/m)^x generated by the
    determinants of the generators used so far, and C = det^-1(D).  det is
    a homomorphism onto D from C (diag(u, 1) has determinant u) with kernel
    SL2(Z/m), so |C| = |SL2(Z/m)|*|D|, and the group G of the stage lies in
    C, so |G| divides |C| by Lagrange.  The elements found so far lie in G,
    so once they number more than |C|/2, |G| > |C|/2 and G = C, which
    holds SL2(Z/m).  A group that holds SL2 = ker det is the full preimage
    of its determinants, so then the closure is det^-1(D_all), D_all
    generated by the determinants of all of `gens`.  That set, of
    |SL2|*|D_all| elements checked against the cap first, is listed by the
    lift scan and returned as a frozenset.

    The test comes before each coset the stage would form, in the one
    comparison that also guards the cap, so it costs nothing while the
    elements found are few, and the exit is taken only where Dimino has
    work left.  Since |SL2(Z/m)| = m^3 * prod over p | m of (1 - 1/p^2)
    > m^3 * 6/pi^2, the exit needs |found| > m^3/4; past that, once per
    stage, the bound |C| >= |SL2|*(number of distinct determinants of the
    generators used), which spans no D, and only past that bound |C|
    itself.  |SL2(Z/m)| is formed from the factors of m at most once a
    call, and the exit passes it on to `_det_preimage`.  A cyclic group
    never holds SL2 (non-abelian for m >= 2), so the powers of the first
    generator are not tested.
    """
    gens = dict.fromkeys(gens)  # iterated again by the exit
    mm = m * m
    m3 = mm * m
    one = 1 % m
    seen = {one * m3 + one}
    used = []
    sl2 = 0  # |SL2(Z/m)|, formed at most once, when an exit test first needs it
    cap = ENUMERATION_CAP
    for gen in gens:
        e, f, g, h = gen
        if ((e * m + f) * m + g) * m + h in seen:  # codes written out: a hot path
            continue
        used.append(gen)
        if len(used) == 1:  # made here, so a closure with nothing to add makes neither
            base = [(one, 0, 0, one)]
            trans = []
            x = gen
            while True:
                p, q, r, s = x
                code = ((p * m + q) * m + r) * m + s
                if code in seen:
                    break
                if len(seen) >= cap:
                    raise EnumerationTooLargeError(cap + 1, cap)
                seen.add(code)
                base.append(x)
                x = ((p * e + q * g) % m, (p * f + q * h) % m,
                     (r * e + s * g) % m, (r * f + s * h) % m)
            continue
        size = len(seen)
        # the exit needs |seen| > |C|/2; bar starts at m^3/4 < |C|/2 and
        # rises to least/2, least a lower bound of |C|, then to whole/2,
        # whole = |C|, as each is formed
        bar, least, whole = m3 // 4, 0, 0
        check = cap - size  # one comparison a coset for the cap and the exit
        if bar < check:
            check = bar
        tabulate = size > 2 * mm
        if tabulate:  # the row codes of H, r and s of each code r*m^2 + s
            R = list(map(floordiv, seen, repeat(mm)))
            S = list(map(mod, seen, repeat(mm)))
        grown = []
        candidates = [gen]
        while candidates:
            e, f, g, h = x = candidates.pop()
            if ((e * m + f) * m + g) * m + h in seen:
                continue
            if len(seen) > check:
                while len(seen) > bar:
                    if whole:
                        return _det_preimage([(p * s - q * r) % m for p, q, r, s in gens], m, sl2)
                    if least:
                        whole = least // len(dets) * len(_unit_span(dets, m))
                        bar = whole // 2
                    else:  # D holds the distinct determinants of the generators
                        dets = {(p * s - q * r) % m for p, q, r, s in used}
                        sl2 = sl2 or _sl2_order(m)
                        least = sl2 * len(dets)
                        bar = least // 2
                if len(seen) + size > cap:
                    raise EnumerationTooLargeError(cap + 1, cap)
                check = min(cap - size, bar)
            if tabulate:
                T = [(a * e + b * g) % m * m + (a * f + b * h) % m
                     for a in range(m) for b in range(m)]
                high = [t * mm for t in T]
                seen.update(map(add, map(high.__getitem__, R), map(T.__getitem__, S)))
            else:
                vs = [x]
                if trans:
                    vs += [((p * e + q * g) % m, (p * f + q * h) % m,
                            (r * e + s * g) % m, (r * f + s * h) % m)
                           for p, q, r, s in trans]
                grown += vs
                seen.update([((a * e + b * g) % m * m + (a * f + b * h) % m) * mm
                             + (c * e + d * g) % m * m + (c * f + d * h) % m
                             for e, f, g, h in vs for a, b, c, d in base])
            candidates += [((e * p + f * r) % m, (e * q + f * s) % m,
                            (g * p + h * r) % m, (g * q + h * s) % m)
                           for p, q, r, s in used]
        trans += grown
    return seen


def _unit_table(n: int) -> bytes:
    """Byte table over Z/n of the units: the determinants GL2(Z/n) allows."""
    return bytes(math.gcd(x, n) == 1 for x in range(n))


def _lifts(codes: Iterable[int], m: int, n: int, dets: bytes | None = None) -> Iterator[int]:
    """Codes mod n of the matrices whose reduction mod m (m | n) has its code
    in `codes` and whose determinant has dets[a*d - b*c mod n] (a unit, by
    default).  With m = 1 and codes {0}: all of GL2(Z/nZ).

    Whether (b, c) completes a lift depends only on a*d mod n and on b*c mod
    n, so the pairs of each residue class (b mod m, c mod m) the codes reach
    are bucketed once, by t = b*c mod n, as lists of b*n^2 + c*n.  The row of
    key (a*d mod n, b mod m, c mod m) joins, in C, the buckets whose t has
    dets[a*d - t]: it costs one table lookup per distinct t of its class, at
    most min((n/m)^2, n), plus its length, and each (a, d) adds its offset
    a*n^3 + d to it."""
    if dets is None:
        dets = _unit_table(n)

    def shifted_rows():
        classes = {}  # (b mod m, c mod m) -> its residues t = b*c mod n, and their buckets
        rows = {}  # (a*d mod n, b mod m, c mod m) -> b*n^2 + c*n of each admissible (b, c)
        for code in codes:
            ha, hb, hc, hd = _decode(code, m)
            if (hb, hc) not in classes:
                by_residue = {}
                for b in range(hb, n, m):
                    for c in range(hc, n, m):
                        by_residue.setdefault(b * c % n, []).append((b * n + c) * n)
                classes[hb, hc] = list(by_residue), list(by_residue.values())
            residues, buckets = classes[hb, hc]
            for a in range(ha, n, m):
                for d in range(hd, n, m):
                    ad = a * d % n
                    row = rows.get((ad, hb, hc))
                    if row is None:
                        row = rows[ad, hb, hc] = list(chain.from_iterable(
                            compress(buckets, [dets[(ad - t) % n] for t in residues])))
                    yield map(add, repeat(a * n ** 3 + d), row)

    return chain.from_iterable(shifted_rows())  # the elements pass in C, not by yield


_TRIVIAL_MOD_1 = frozenset({0})


def _count_gl2(n: int) -> int:
    """|GL2(Z/nZ)| from the definition alone, with no factorizer or closed
    form: the sum over units u and all t of f(t)*f(t - u), f(t) = #{(x, y)
    mod n : x*y = t}, counts each (a, b, c, d) once by a*d = t, b*c = t - u.
    That sum runs over the units or, n^4 less it, over the non-units,
    whichever are fewer."""
    if n * n > ENUMERATION_CAP:
        raise ModMatrixError(f"counting GL2(Z/{n}) visits {n * n} pairs, "
                             f"which exceeds cap {ENUMERATION_CAP}")
    products = Counter({0: n})  # x = 0
    for x in range(1, n):  # x*y for y < n, in C-level loops
        products.update(map(mod, range(0, x * n, x), repeat(n)))
    f = [products[t] for t in range(n)] * 2  # f[t - u + n] = f(t - u) for 0 <= t, u < n
    units = _unit_table(n)
    # over all u the sum is (n^2)^2, so where the non-units are fewer (a prime
    # n has only 0) their sum is taken, and subtracted from n^4
    complement = 2 * units.count(0) < n
    part = sum(sum(map(mul, f, f[n - u:2 * n - u]))  # n terms: map stops at the slice's end
               for u, unit in enumerate(units) if unit != complement)
    return n ** 4 - part if complement else part


def _unit_span(units: Iterable[int], n: int) -> set[int]:
    """The subgroup of (Z/n)^x generated by `units`."""
    span = {1 % n}
    for u in units:
        x, powers = u, [1]
        while x not in span:  # u^j for j below the order of u mod span
            powers.append(x)
            x = x * u % n
        if len(powers) > 1:
            span = {y * p % n for y in span for p in powers}
    return span


def _det_preimage(dets: Iterable[int], n: int, sl2_order: int) -> frozenset[int]:
    """Codes of det^-1(D) in GL2(Z/n), D the subgroup of units generated by
    `dets`: sl2_order*|D| elements (sl2_order = |SL2(Z/n)|, as the closure
    formed it), checked against the cap, then listed by the lift scan."""
    span = _unit_span(dets, n)
    size = sl2_order * len(span)
    _check_enumeration(size)
    codes = frozenset(_lifts(_TRIVIAL_MOD_1, 1, n, bytes(x in span for x in range(n))))
    if len(codes) != size:
        raise ModMatrixError(
            f"determinant preimage in GL2(Z/{n}) produced {len(codes)} elements, "
            f"expected {size}")
    return codes


@dataclass(frozen=True, order=True, slots=True, init=False)
class Mat2:
    """A 2x2 matrix over Z/nZ with unit determinant."""

    n: int
    a: int
    b: int
    c: int
    d: int

    def __init__(self, n: int, a: int, b: int, c: int, d: int):
        if n < 1:
            raise ModMatrixError(f"modulus must be >= 1, got {n}")
        a, b, c, d = a % n, b % n, c % n, d % n
        det = (a * d - b * c) % n
        if math.gcd(det, n) != 1:
            raise ModMatrixError(f"determinant {det} is not a unit mod {n}")
        # each slot written once, past the frozen __setattr__
        _set_n(self, n)
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    @staticmethod
    def identity(n: int) -> "Mat2":
        return Mat2(n, 1, 0, 0, 1)

    @property
    def entries(self) -> Entries:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.n}"


_set_n, _set_a, _set_b, _set_c, _set_d = (
    Mat2.__dict__[name].__set__ for name in ("n", "a", "b", "c", "d"))


@dataclass(frozen=True)
class SubgroupModN:
    """A subgroup of GL2(Z/nZ) with its element set as codes (`_encode`)."""

    n: int
    codes: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.codes)

    @property
    def elements(self) -> Iterator[Mat2]:
        """The elements as `Mat2`, made on demand."""
        n = self.n
        return (Mat2(n, *_decode(c, n)) for c in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, g: Mat2) -> bool:
        n = self.n
        return g.n == n and ((g.a * n + g.b) * n + g.c) * n + g.d in self.codes

    def __repr__(self) -> str:
        return f"SubgroupModN(n={self.n}, order={self.order})"


def gl2_order(n: int) -> int:
    """Order of GL2(Z/nZ)."""
    if n < 1:
        raise ModMatrixError(f"modulus must be >= 1, got {n}")
    order = 1
    for p, k in _factorize(n):
        order *= _gl2_prime_power_order(p, k)
    return order


def _gl2_prime_power_order(p: int, k: int) -> int:
    """Order of GL2(Z/p^k Z) for a prime p and k >= 1."""
    return p ** (4 * (k - 1)) * (p * p - 1) * (p * p - p)


def _sl2_order(n: int) -> int:
    """Order of SL2(Z/nZ), the kernel of det: |GL2(Z/n)| / phi(n)."""
    order = 1
    for p, k in _factorize(n):
        order *= _gl2_prime_power_order(p, k) // (p ** (k - 1) * (p - 1))
    return order


def enumerate_gl2(n: int) -> SubgroupModN:
    """All of GL2(Z/nZ) by the determinant scan, as the preimage of {I} mod 1."""
    return full_preimage(SubgroupModN(1, _TRIVIAL_MOD_1), n)


def subgroup_closure(gens: Iterable[Mat2], n: int) -> SubgroupModN:
    """Smallest subgroup of GL2(Z/nZ) containing the generators."""
    entries = []
    for g in gens:
        if g.n != n:
            raise ModMatrixError(f"generator {g!r} has modulus {g.n}, expected {n}")
        entries.append(g.entries)
    # a frozenset from the closure's exit is taken as it is, not copied
    return SubgroupModN(n, frozenset(_closure(entries, n)))


def b1_subgroup(n: int) -> SubgroupModN:
    """Upper-triangular matrices mod n with first column (1,0); order n*phi(n)."""
    if n < 2:
        raise ModMatrixError(f"B1(n) is defined for n >= 2, got {n}")
    units = [d for d in range(1, n) if math.gcd(d, n) == 1]
    nn = n * n
    # the code of (1, b, 0, d)
    return SubgroupModN(n, frozenset((n + b) * nn + d for b in range(n) for d in units))


def subgroup_index(G: SubgroupModN) -> int:
    total = gl2_order(G.n)
    if total % G.order != 0:
        raise ModMatrixError(
            f"order {G.order} does not divide |GL2(Z/{G.n})| = {total}")
    return total // G.order


def reduce_subgroup(G: SubgroupModN, m: int) -> SubgroupModN:
    """Image of G under entrywise reduction mod m (m | n), through one table
    of the n^2 rows mod n reduced mod m."""
    if m < 1 or G.n % m != 0:
        raise ModMatrixError(f"{m} does not divide modulus {G.n}")
    if m == G.n:
        return G
    if m == 1:
        return SubgroupModN(1, _TRIVIAL_MOD_1)
    n = G.n
    rows = [a % m * m + b % m for a in range(n) for b in range(n)]
    return SubgroupModN(m, frozenset(_map_rows(rows, list(G.codes), n * n, m * m)))


def full_preimage(H: SubgroupModN, n: int) -> SubgroupModN:
    """Preimage of H under GL2(Z/nZ) -> GL2(Z/mZ), where m = H.n divides n."""
    m = H.n
    if n < 1:
        raise ModMatrixError(f"modulus must be >= 1, got {n}")
    if n % m != 0:
        raise ModMatrixError(f"{m} does not divide {n}")
    size = H.order * (gl2_order(n) // gl2_order(m))
    _check_enumeration(size)
    elems = frozenset(_lifts(H.codes, m, n))
    if len(elems) != size:
        raise ModMatrixError(
            f"preimage in GL2(Z/{n}) produced {len(elems)} elements, expected {size}")
    return SubgroupModN(n, elems)


def is_full_preimage(G: SubgroupModN, m: int) -> bool:
    """True iff G equals the full preimage of its own reduction mod m.

    At finite level that holds iff G contains the kernel K_m of reduction
    n -> m, of order |GL2(Z/n)|/|GL2(Z/m)|.  By Lagrange K_m <= G forces
    |K_m| to divide |G|, so the answer is no at once when it does not;
    otherwise K_m is listed by the lift scan and its codes looked up in G's
    set until one is missing.  G is not scanned, and no image set or
    preimage is built.
    """
    n = G.n
    if m < 1 or n % m != 0:
        raise ModMatrixError(f"{m} does not divide modulus {n}")
    if m == n:  # the kernel is {I}
        return True
    if m == 1:  # the kernel is all of GL2(Z/n)
        return G.order == gl2_order(n)
    if G.order % (gl2_order(n) // gl2_order(m)):  # Lagrange: K_m is not in G
        return False
    return G.codes.issuperset(_lifts((_encode((1, 0, 0, 1), m),), m, n))


def level_within(G: SubgroupModN) -> int:
    """Least divisor m of n with is_full_preimage(G, m)."""
    for m in _divisors(G.n):
        if is_full_preimage(G, m):
            return m
    raise AssertionError("unreachable: m = n always qualifies")
