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
of the lifts of codes mod m with unit determinant: their admissible (b, c)
depend only on a*d mod n and b, c mod m, so each call tabulates b*n^2 + c*n
once per such key against a byte table of units and adds each (a, d) as
the offset a*n^3 + d.  `_lift_rows` yields those (offset, row) pairs, so a
count of the lifts sums the row lengths and forms no code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, floordiv, mod
from typing import Iterable, Iterator

from .exactvalue import _divisors, _factorize

# the most group elements any one enumeration may hold
ENUMERATION_CAP = 10**7

Entries = tuple[int, int, int, int]


class ModMatrixError(ValueError):
    pass


class InvalidModulusError(ModMatrixError):
    pass


class NotInvertibleError(ModMatrixError):
    pass


class ModulusMismatchError(ModMatrixError):
    pass


class NotADivisorError(ModMatrixError):
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


def _closure(gens: Iterable[Entries], m: int) -> set[int]:
    """Code set of the subgroup of GL2(Z/mZ) generated by `gens` (entry
    tuples reduced mod m with unit determinant), by Dimino's algorithm.

    Each generator g not yet in the group so far, H, grows it to <H, g> by
    right cosets H*x, starting from x = g.  The group so far is always a
    union of such cosets, so a candidate x*s (s a generator used so far)
    already present names a coset already present and is skipped; every
    element is computed exactly once, as h*x.  A finite group is the monoid
    its generators span, so no inverse is taken.  The first generator used
    grows the trivial group by its powers.

    Right multiplication by x maps each row of h on its own, so once H has
    more than 2*m^2 elements the coset H*x is read off one table of the m^2
    row images of x.  Below that each product is formed directly, from
    entry tuples: H is then base*trans, base the powers of the first
    generator and trans a transversal of it (I and the list `trans`), so
    h*x = b*(w*x) and no code is decoded.
    """
    mm = m * m
    one = 1 % m
    seen = {one * mm * m + one}
    used = []
    cap = ENUMERATION_CAP
    for gen in dict.fromkeys(gens):
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
        tabulate = size > 2 * mm
        if tabulate:
            H = list(seen)
        grown = []
        candidates = [gen]
        while candidates:
            e, f, g, h = x = candidates.pop()
            if ((e * m + f) * m + g) * m + h in seen:
                continue
            if len(seen) + size > cap:
                raise EnumerationTooLargeError(cap + 1, cap)
            if tabulate:
                seen.update(_map_rows([(a * e + b * g) % m * m + (a * f + b * h) % m
                                       for a in range(m) for b in range(m)], H, mm, mm))
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


def _lift_rows(codes: Iterable[int], m: int, n: int) -> Iterator[tuple[int, list[int]]]:
    """(offset, row) pairs whose sums offset + x, x in row, are the codes of
    `_lifts`: one pair per (a, d), offset a*n^3 + d, and the row of its key
    (a*d mod n, b mod m, c mod m), shared by the pairs of that key."""
    unit = bytes(math.gcd(x, n) == 1 for x in range(n))
    nn = n * n
    n3 = nn * n
    rows = {}  # (a*d mod n, b mod m, c mod m) -> b*n^2 + c*n of each admissible (b, c)
    for code in codes:
        ha, hb, hc, hd = _decode(code, m)
        for a in range(ha, n, m):
            for d in range(hd, n, m):
                ad = a * d % n
                row = rows.get((ad, hb, hc))
                if row is None:
                    row = rows[ad, hb, hc] = [
                        b * nn + c * n for b in range(hb, n, m)
                        for c in range(hc, n, m) if unit[(ad - b * c) % n]]
                yield a * n3 + d, row


def _lifts(codes: Iterable[int], m: int, n: int) -> Iterator[int]:
    """Codes mod n of the matrices with unit determinant whose reduction mod
    m (m | n) has its code in `codes`.  With m = 1 and codes {0}: all of
    GL2(Z/nZ)."""
    return chain.from_iterable(map(add, repeat(offset), row)
                               for offset, row in _lift_rows(codes, m, n))


_TRIVIAL_MOD_1 = frozenset({0})


def _scan_gl2_size(n: int) -> int:
    """|GL2(Z/n)| counted by the determinant scan as the sum of its row
    lengths, forming no code; the closed form sets only the cap
    (`enumerate_gl2` raises if the two differ)."""
    _check_enumeration(gl2_order(n))
    return sum(len(row) for _, row in _lift_rows(_TRIVIAL_MOD_1, 1, n))


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
            raise InvalidModulusError(f"modulus must be >= 1, got {n}")
        a, b, c, d = a % n, b % n, c % n, d % n
        det = (a * d - b * c) % n
        if math.gcd(det, n) != 1:
            raise NotInvertibleError(f"determinant {det} is not a unit mod {n}")
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
        raise InvalidModulusError(f"modulus must be >= 1, got {n}")
    order = 1
    for p, k in _factorize(n):
        order *= _gl2_prime_power_order(p, k)
    return order


def _gl2_prime_power_order(p: int, k: int) -> int:
    """Order of GL2(Z/p^k Z) for a prime p and k >= 1."""
    return p ** (4 * (k - 1)) * (p * p - 1) * (p * p - p)


def enumerate_gl2(n: int) -> SubgroupModN:
    """All of GL2(Z/nZ) by the determinant scan, as the preimage of {I} mod 1."""
    return full_preimage(SubgroupModN(1, _TRIVIAL_MOD_1), n)


def subgroup_closure(gens: Iterable[Mat2], n: int) -> SubgroupModN:
    """Smallest subgroup of GL2(Z/nZ) containing the generators."""
    entries = []
    for g in gens:
        if g.n != n:
            raise ModulusMismatchError(
                f"generator {g!r} has modulus {g.n}, expected {n}")
        entries.append(g.entries)
    return SubgroupModN(n, frozenset(_closure(entries, n)))


def b1_subgroup(n: int) -> SubgroupModN:
    """Upper-triangular matrices mod n with first column (1,0); order n*phi(n)."""
    if n < 2:
        raise InvalidModulusError(f"B1(n) is defined for n >= 2, got {n}")
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
        raise NotADivisorError(f"{m} does not divide modulus {G.n}")
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
        raise InvalidModulusError(f"modulus must be >= 1, got {n}")
    if n % m != 0:
        raise NotADivisorError(f"{m} does not divide {n}")
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
        raise NotADivisorError(f"{m} does not divide modulus {n}")
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
