"""Finite-precision index checks for group-invariant l-adic lattices.

A lattice is the Z_l-span of a rational basis of Q_l^2 (denominators are
l-powers only).  A finitely generated group of l-integral matrices that
stabilizes two lattices T and T' must induce subgroups of the same index in
GL2(Z/l^k Z) under either identification; this module computes both indices
at a chosen precision k and reports whether they agree.

Generators are conjugated into each lattice's basis exactly, in integer
arithmetic, as entry tuples mod l^k, from integer forms that `AdicGroup`
and `LatticeBasis` build and check once, when they are constructed.
Subgroup orders mod
l^k are |image mod l| * |G cap K_1|, K_1 the kernel of GL2(Z/l^k) ->
GL2(Z/l).  Only the image mod l is enumerated, by Dimino's closure (as in
`modmatrix._closure`) with each element kept as a lift mod l^k.  A
generator already in the image, or a Dimino candidate that lands on an
element already there, gives a relator in K_1: the product with the
inverse of the lift kept there.  G cap K_1 is the normal closure of these
relators (see `subgroup_orders`), far fewer than the |image| * r Schreier
generators.  They are sifted into a basis layered by the filtration
K_1 > K_2 > ... (each layer a subspace of K_j/K_{j+1} = M2(F_l)) and closed
under l-th powers and commutators, as for an induced polycyclic sequence
(Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005, 4.1
and ch. 8), then under conjugation by the generators.  As K_j^l lies in
K_(j+1) and [K_i, K_j] in K_(i+j), no power or commutator is formed at a
depth whose layers are already full.  The cost is
polynomial in k and does not grow with |G cap K_1|.  Layer j depends only
on G mod l^(j+1), so one sift serves every smaller precision.  The matrix
arithmetic mod l^k is the entry-tuple kernel of `modmatrix`.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import TorsionBoundsError, modmatrix
from .exactvalue import MAX_DIGITS, PRIME_TEST_LIMIT, _factorize, _is_prime
from .modmatrix import (
    EnumerationTooLargeError,
    Entries,
    _gl2_prime_power_order,
    _inv,
    _mul,
    _reduce,
)

# row-major 2x2; a scenario file's integer entries are ints
RatMat = tuple[Fraction, Fraction, Fraction, Fraction]
# all of GL2(Z_l) at k = 64 takes 0.60-1.47 s per lattice for l = 2, 3, 5, 7
# with the unipotent generators listed first, 0.07-0.14 s with the diagonal
# units first, conjugation included (in-process, 2-vCPU Xeon)
MAX_PRECISION = 64


class LatticeError(TorsionBoundsError):
    pass


class NotInvariantError(LatticeError):
    def __init__(self, generator, lattice_name="lattice"):
        super().__init__(
            f"generator {_fmt_rat(generator)} does not stabilize the {lattice_name}")
        self.generator = generator


def _fmt_rat(m: RatMat) -> str:
    a, b, c, d = m
    return f"{a},{b};{c},{d}"


def rat_mat(entries) -> RatMat:
    a, b, c, d = (Fraction(x) for x in entries)
    return (a, b, c, d)


def rat_det(m: RatMat) -> Fraction:
    return m[0] * m[3] - m[1] * m[2]


def rat_mul(x: RatMat, y: RatMat) -> RatMat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _integral(m: RatMat) -> tuple[tuple[int, int, int, int], int]:
    """(A, e) with m = A / e: A an integer matrix, e the lcm of m's denominators."""
    e = math.lcm(*(q.denominator for q in m))
    return tuple(q.numerator * (e // q.denominator) for q in m), e


def valuation(q: Fraction, l: int) -> int | None:
    """l-adic valuation of a rational; None for 0."""
    if q == 0:
        return None
    v = 0
    num, den = q.numerator, q.denominator
    while num % l == 0:
        num //= l
        v += 1
    while den % l == 0:
        den //= l
        v -= 1
    return v


def _check_prime(l: int) -> None:
    if l >= PRIME_TEST_LIMIT:
        raise LatticeError(
            f"prime {l} is past the primality-test limit {PRIME_TEST_LIMIT}")
    if not _is_prime(l):
        raise LatticeError(f"prime {l} is not a prime")


@dataclass(frozen=True)
class LatticeBasis:
    """Basis of a Z_l-lattice in Q_l^2; columns of `basis` are the vectors."""

    prime: int
    basis: RatMat
    # (M, l**s, u): the basis scaled to an integer matrix M, det M = l**s * u
    # with u an l-unit
    _form: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        l = self.prime
        _check_prime(l)
        M, e = _integral(self.basis)
        det = rat_det(M)
        if det == 0:
            raise LatticeError("lattice basis is singular")
        while e % l == 0:
            e //= l
        if e != 1:
            # e is the lcm of the parts of the denominators prime to l
            q = next(q for q in self.basis if math.gcd(q.denominator, e) > 1)
            raise LatticeError(f"entry {q} has a denominator not a power of {l}")
        ls = l ** valuation(det, l)
        object.__setattr__(self, "_form", (M, ls, det // ls))

    @staticmethod
    def standard(l: int) -> "LatticeBasis":
        return LatticeBasis(l, rat_mat((1, 0, 0, 1)))

    def transformed(self, sigma: RatMat) -> "LatticeBasis":
        return LatticeBasis(self.prime, rat_mul(sigma, self.basis))


@dataclass(frozen=True)
class AdicGroup:
    """Finitely many l-integral generators of a subgroup of GL2(Q_l)."""

    prime: int
    generators: tuple[RatMat, ...]
    # (A, e) for each generator g = A / e: A an integer matrix, e an l-unit
    _forms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        l = self.prime
        _check_prime(l)
        forms = tuple(map(_integral, self.generators))
        for g, (A, e) in zip(self.generators, forms):
            if e % l == 0:
                raise LatticeError(f"generator {_fmt_rat(g)} is not {l}-integral")
            # det g = det A / e**2, an l-unit iff det A is
            if rat_det(A) % l == 0:
                raise LatticeError(f"generator {_fmt_rat(g)} is not invertible mod {l}")
        object.__setattr__(self, "_forms", forms)


def _checked_conjugates(G: AdicGroup, T: LatticeBasis, k: int,
                        lattice_name: str = "lattice") -> list[Entries]:
    """The generators of G in the basis of T, as entry tuples mod l^k.

    With T's basis scaled to an integer matrix M, det(M) = l**s * u (u an
    l-unit) and a generator g = A / e (e an l-unit, as g is l-integral), the
    conjugate is adj(M) A M / (l**s * u * e): it is l-integral, so g
    stabilizes T, iff l**s divides every entry of adj(M) A M.  Its
    determinant det(g) is an l-unit, as `AdicGroup` has checked.  M, s, u
    and each (A, e) were formed when T and G were built.
    """
    if G.prime != T.prime:
        raise LatticeError(f"group prime {G.prime} != lattice prime {T.prime}")
    m = T.prime ** k
    M, ls, u = T._form
    a, b, c, d = M
    out = []
    for g, (A, e) in zip(G.generators, G._forms):
        N = rat_mul(rat_mul((d, -b, -c, a), A), M)
        if any(x % ls for x in N):
            raise NotInvariantError(g, lattice_name)
        u_inv = pow(u * e, -1, m)
        out.append(tuple(x // ls * u_inv % m for x in N))
    return out


def subgroup_orders(gens: Sequence[Entries], l: int, k: int) -> list[int]:
    """Orders of <gens> mod l^j for j = 1..k (k >= 1), from one closure mod l.

    K_j is the kernel of reduction GL2(Z/l^k) -> GL2(Z/l^j).  At k = 1 the
    order is that of the closure mod l.  For k >= 2 the image mod l is built
    by Dimino's algorithm, each element keyed mod l and kept as a lift mod
    l^k: when a coset H*x of the group so far, H, is added, its lifts are
    h*x for the lifts h of H.  A generator g already in the image gives the
    relator g * lift[g mod l]^-1, and a candidate x*s (s a generator used so
    far) that lands on a key already there gives x*s * lift[key]^-1; both
    lie in G cap K_1.

    G cap K_1 is the normal closure M of the relators in G.  Every candidate
    of every coset is a new coset or a relator, so the lifts T satisfy
    T*M >= G, hence |G : M| <= |T| = |image mod l| = |G : G cap K_1|; as M
    lies in G cap K_1, M = G cap K_1.  The relators are sifted into a basis
    layered by the filtration K_1 > K_2 > ... > K_k = 1 and closed under
    l-th powers and commutators; the basis is then closed under conjugation
    by every generator not = I mod l.  The generators in K_1 are relators
    themselves (their key is that of I, whose lift is I), so they lie in the
    sifted group already.  The sifted group therefore contains the relators,
    is normalized by every generator, so is normal in G, and lies in
    G cap K_1: it is G cap K_1.

    Layer j is an F_l-echelon basis of (G cap K_j) K_{j+1} / K_{j+1}, a
    subspace of K_j/K_{j+1} = M2(F_l); G cap K_1 has l**(basis size)
    elements (an induced polycyclic sequence), and G mod l^j has
    |image mod l| * l**(d_1 + ... + d_(j-1)), d_i the size of layer i.
    Relators are formed and sifted only until every layer is full.
    """
    top = l ** k
    raw = list(dict.fromkeys(gens))
    if k == 1:
        return [len(modmatrix._closure(raw, l))]

    cap = modmatrix.ENUMERATION_CAP
    ident = (1, 0, 0, 1)
    sifter = _LayeredBasis(l, k)
    lift = {ident: ident}  # image mod l -> a lift mod l^k

    def relate(x, key):
        """Sift x * lift[key]^-1, an element of G cap K_1."""
        if not sifter.full:
            r = _mul(x, _inv(lift[key], top), top)
            if r != ident:
                sifter.add(r)

    used = []
    for gen in raw:
        key = _reduce(gen, l)
        if key in lift:
            relate(gen, key)
            continue
        used.append(gen)
        H = list(lift.values())
        candidates = [gen]
        while candidates:
            x = candidates.pop()
            key = _reduce(x, l)
            if key in lift:
                relate(x, key)
                continue
            if len(lift) + len(H) > cap:
                raise EnumerationTooLargeError(cap + 1, cap)
            e, f, g, h = x
            lift.update({(p[0] % l, p[1] % l, p[2] % l, p[3] % l): p for p in [
                ((a * e + b * g) % top, (a * f + b * h) % top,
                 (c * e + d * g) % top, (c * f + d * h) % top) for a, b, c, d in H]})
            candidates.extend([_mul(x, s, top) for s in used])
    sifter.close([(g, _inv(g, top)) for g in raw if _reduce(g, l) != ident])
    sizes = [len(sifter.layers[j]) for j in range(1, k)]
    return [len(lift) * l ** sum(sizes[:j]) for j in range(k)]


class _LayeredBasis:
    """Elements of K_1 in GL2(Z/l^k), sifted into an F_l-echelon basis per
    filtration layer and closed under l-th powers and commutators.

    For j >= 1, (I + l^j A)(I + l^j B) = I + l^j (A + B) mod l^(j+1), so
    K_j/K_{j+1} is additive and the leading term (x - I)/l^j mod l of an
    element of depth j is linear in it; no case is special for l = 2.  Once
    layers j..k-1 are all full (four elements each), each of them cancels
    any leading vector, so every element of K_j sifts to I: `_sift`
    answers for it without a product.
    """

    def __init__(self, l: int, k: int):
        self.l = l
        self.m = l ** k
        self.depth = {l ** j: j for j in range(1, k)}
        # layer j -> [(pivot, leading vector, {c: x^-c} for each c used)]
        self.layers: dict[int, list] = {j: [] for j in range(1, k)}
        self.elements: list[tuple] = []  # (element, inverse, depth), every layer
        # the least j with layers j..k-1 all full: the basis spans K_j
        self.full_from = k

    @property
    def full(self) -> bool:
        """Whether the basis spans all of K_1."""
        return self.full_from == 1

    def add(self, x) -> None:
        """Sift x into the basis; close the basis under what it adds."""
        work = [x]
        while work:
            found = self._sift(work.pop())
            if found is not None:
                work.extend(self._insert(*found))

    def close(self, conjugators) -> None:
        """Close the basis under x -> g x g^-1 for each (g, g^-1) given: sift
        the conjugates of every basis element, those it adds included."""
        m, i = self.m, 0
        while i < len(self.elements) and not self.full:
            x = self.elements[i][0]
            i += 1
            for g, g_inv in conjugators:
                self.add(_mul(_mul(g, x, m), g_inv, m))

    def _sift(self, x):
        """(x', j, v): the part of x no basis element cancels, its depth j and
        leading vector v; None when the basis expresses x."""
        l, m = self.l, self.m
        while True:
            g = math.gcd(x[0] - 1, x[1], x[2], x[3] - 1, m)
            if g == m:
                return None
            j = self.depth[g]
            if j >= self.full_from:
                return None
            v = [(x[0] - 1) // g % l, x[1] // g % l, x[2] // g % l,
                 (x[3] - 1) // g % l]
            for piv, lead, inv_pows in self.layers[j]:
                c = v[piv]
                if c:
                    if c not in inv_pows:
                        inv_pows[c] = _pow(inv_pows[1], c, m)
                    x = _mul(x, inv_pows[c], m)
                    v = [(a - c * b) % l for a, b in zip(v, lead)]
            if any(v):
                return x, j, v

    def _insert(self, x, j: int, v: list[int]) -> list:
        """Add x (depth j, leading vector v) to layer j, scaled to pivot 1;
        return its l-th power and its commutators with the basis elements.

        x^l lies in K_(j+1) and the commutator with an element of depth i in
        K_(i+j), and an element of K_(full_from) sifts to I, so a product
        that deep is not formed.  The cutoff pays for its code: with every
        power and commutator formed, the bench's lattice workload ran
        13-18% fewer ops/s and its p90 rose from 0.26-0.28 to 0.34-0.36 ms
        (8-s runs, seeds 41-44, 2-vCPU Xeon VM, Python 3.11)."""
        l, m = self.l, self.m
        piv = next(i for i, a in enumerate(v) if a)
        scale = pow(v[piv], -1, l)
        x = _pow(x, scale, m)
        lead = [a * scale % l for a in v]
        x_inv = _inv(x, m)
        self.layers[j].append((piv, lead, {1: x_inv}))
        while self.full_from > 1 and len(self.layers[self.full_from - 1]) == 4:
            self.full_from -= 1
        full = self.full_from
        out = [_pow(x, l, m)] if j + 1 < full else []
        out.extend(_mul(_mul(x, y, m), _mul(x_inv, y_inv, m), m)
                   for y, y_inv, i in self.elements if i + j < full)
        self.elements.append((x, x_inv, j))
        return out


def _pow(x, e: int, m: int):
    """x**e mod m for e >= 1, by squaring from the top bit of e."""
    out = x
    for bit in bin(e)[3:]:
        out = _mul(out, out, m)
        if bit == "1":
            out = _mul(out, x, m)
    return out


def _index_in_gl2(order: int, l: int, k: int) -> int:
    total = _gl2_prime_power_order(l, k)
    if total % order != 0:
        raise LatticeError(f"order {order} does not divide |GL2(Z/{l ** k})|")
    return total // order


@dataclass(frozen=True)
class IndexReport:
    index_T: int
    index_Tprime: int
    precision: int

    @property
    def equal(self) -> bool:
        return self.index_T == self.index_Tprime


def verify_index_equality(G: AdicGroup, T: LatticeBasis, Tprime: LatticeBasis,
                          k: int) -> IndexReport:
    return _index_reports(G, T, Tprime, (k,))[0]


def _index_reports(G: AdicGroup, T: LatticeBasis, Tprime: LatticeBasis,
                   ks: Sequence[int]) -> list[IndexReport]:
    """A report per precision in ks, from one conjugation and sift per lattice."""
    if min(ks, default=1) < 1:
        raise LatticeError(f"precision must be >= 1, got {min(ks)}")
    l, top = G.prime, max(ks, default=1)
    gens = [_checked_conjugates(G, T, top, "first lattice"),
            _checked_conjugates(G, Tprime, top, "second lattice")]
    orders_t, orders_t2 = (subgroup_orders(g, l, top) for g in gens)
    return [IndexReport(_index_in_gl2(orders_t[k - 1], l, k),
                        _index_in_gl2(orders_t2[k - 1], l, k), k) for k in ks]


# ---------------------------------------------------------------------------
# Bundled scenario family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeScenario:
    ident: str
    group: AdicGroup
    lattice: LatticeBasis
    lattice2: LatticeBasis
    precisions: tuple[int, ...]

    @property
    def prime(self) -> int:
        return self.lattice.prime


@dataclass(frozen=True)
class ScenarioResult:
    reports: tuple[IndexReport, ...]

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.reports)

    @property
    def stable(self) -> bool:
        """Once two consecutive precisions agree, all later ones agree too."""
        vals = [r.index_T for r in sorted(self.reports, key=lambda r: r.precision)]
        settled = False
        for prev, cur in zip(vals, vals[1:]):
            if settled and cur != prev:
                return False
            if cur == prev:
                settled = True
        return True


def run_scenario(sc: LatticeScenario) -> ScenarioResult:
    return ScenarioResult(tuple(
        _index_reports(sc.group, sc.lattice, sc.lattice2, sc.precisions)))


def _primitive_root_sq(l: int) -> int:
    """The least generator of the units mod l**2 (l an odd prime): g prime
    to l with g**(l(l-1)/q) != 1 for every prime q dividing l(l-1), which
    are l and the primes of l - 1."""
    target = l * (l - 1)
    primes = [l] + [q for q, _ in _factorize(l - 1)]
    for g in range(2, l * l):
        if g % l and all(pow(g, target // q, l * l) != 1 for q in primes):
            return g
    raise AssertionError(f"no primitive root mod {l}**2")


def _unit_gens(l: int) -> list[int]:
    # generate (Z/l^j)^x for every j: {3, 5} works for l = 2,
    # a primitive root mod l^2 works for odd l
    return [3, 5] if l == 2 else [_primitive_root_sq(l)]


def _congruence_group(l: int, s: int, t: int) -> AdicGroup:
    """Diagonal units with b == 0 mod l**t and c == 0 mod l**s; t = 0 is
    the Borel group of lower-left depth s."""
    units = _unit_gens(l)
    gens = [rat_mat((u, 0, 0, 1)) for u in units] + \
        [rat_mat((1, 0, 0, u)) for u in units] + \
        [rat_mat((1, l ** t, 0, 1)), rat_mat((1, 0, l ** s, 1))]
    return AdicGroup(l, tuple(gens))


def _unipotent_group(l: int, level: int) -> AdicGroup:
    """Preimage of the unipotent upper-triangular group mod `level`."""
    gens = []
    for pos in range(4):
        e = [1, 0, 0, 1]
        e[pos] += level
        gens.append(rat_mat(e))
    # the four elementary matrices alone miss half of the mod-2 kernel
    gens += [rat_mat((1, level, level, 1)), rat_mat((1, 1, 0, 1))]
    return AdicGroup(l, tuple(gens))


# lattice change -> (a, e): sigma = diag(l**a, l**(a+e)), which multiplies
# the second basis vector by l**e relative to the first
_LATTICE_CHANGES = {"diag_1_l": (0, 1), "scalar_l": (1, 0), "diag_1_lsq": (0, 2)}


def _compatible_group(l: int, gtype: str, stype: str) -> AdicGroup:
    """A group of the requested type stabilizing both the standard lattice
    and its sigma-transform, with matching index shadows at every precision.

    Conjugation by diag(1, l**e) deepens the upper-right congruence by e and
    shallows the lower-left one by e, so the depths are chosen to transpose
    into each other.
    """
    e = _LATTICE_CHANGES[stype][1]
    if gtype == "borel":
        return _congruence_group(l, max(1, e), 0)
    if gtype == "split_cartan":
        return _congruence_group(l, 1 + e, 1)
    if gtype == "unipotent":
        return _unipotent_group(l, l ** max(1, e))
    raise LatticeError(f"unknown group type {gtype!r}")


def bundled_scenarios(primes: Sequence[int] = (2, 3, 5),
                      precisions: Sequence[int] = (1, 2, 3)) -> list[LatticeScenario]:
    """The shipped family: all group types against all lattice changes."""
    out = []
    for l in primes:
        std = LatticeBasis.standard(l)
        for stype, (a, e) in _LATTICE_CHANGES.items():
            t2 = std.transformed(rat_mat((l ** a, 0, 0, l ** (a + e))))
            for gtype in ("borel", "split_cartan", "unipotent"):
                out.append(LatticeScenario(
                    ident=f"{gtype}-l{l}-{stype}",
                    group=_compatible_group(l, gtype, stype),
                    lattice=std,
                    lattice2=t2,
                    precisions=tuple(precisions),
                ))
    return out


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def parse_rational_matrix(text: str) -> RatMat:
    """Parse "a,b;c,d" with entries like "3", "p/q" or "1.5e3" into exact
    rationals (see `_parse_entry`)."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise LatticeError(f"expected two rows 'a,b;c,d', got {text!r}")
    entries = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise LatticeError(f"expected two entries per row in {text!r}")
        entries.extend(_parse_entry(p.strip()) for p in parts)
    return tuple(entries)


_ENTRY_LIMIT = 10 ** MAX_DIGITS
_DIGIT_RUN = re.compile(r"\d+")
_NUMERAL = re.compile(r"\d+(?:_\d+)*")


def _parse_entry(tok: str) -> int | Fraction:
    """The rational `Fraction(tok)` reads, refused when a numeral written in
    tok, or the numerator or denominator of its value, has more than
    MAX_DIGITS digits.

    A plain integer is read by `int`, which takes the same tokens.  Fraction
    forms 10**|exponent| before it reduces, so an exponent is read first:
    past 3 * MAX_DIGITS no nonzero mantissa (at most 2 * MAX_DIGITS digits
    over at most MAX_DIGITS) brings either side back under the limit.
    """
    body = tok[1:] if tok.startswith(("+", "-")) else tok
    if body.isdecimal() and len(body) <= MAX_DIGITS:
        return int(tok)
    try:
        # each digit run cut to one digit: Fraction reads this iff it reads
        # tok, and forms no large number doing so
        Fraction(_DIGIT_RUN.sub("1", tok))
    except ValueError:
        raise LatticeError(f"bad rational entry {tok!r}") from None
    if len(tok) > MAX_DIGITS and any(
            len(n) - n.count("_") > MAX_DIGITS for n in _NUMERAL.findall(tok)):
        raise _too_long(tok)
    cut = max(tok.rfind("e"), tok.rfind("E"))
    if cut >= 0 and abs(int(tok[cut + 1:])) > 3 * MAX_DIGITS:
        if Fraction(tok[:cut]):
            raise _too_long(tok)
        return Fraction(0)
    try:
        q = Fraction(tok)
    except ZeroDivisionError:
        raise LatticeError(f"bad rational entry {tok!r}") from None
    if abs(q.numerator) >= _ENTRY_LIMIT or q.denominator >= _ENTRY_LIMIT:
        raise _too_long(tok)
    return q


def _too_long(tok: str) -> LatticeError:
    shown = tok if len(tok) <= 40 else tok[:20] + "..."
    return LatticeError(f"entry {shown!r} has more than {MAX_DIGITS} digits")


def parse_scenarios(text: str) -> list[LatticeScenario]:
    """Parse the scenario-file format (see README for the grammar)."""
    scenarios = []
    current: dict | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if word == "scenario":
                if current is not None:
                    raise LatticeError("previous scenario not closed with 'end'")
                current = {"ident": rest, "gens": [], "precisions": None,
                           "prime": None, "lattice": None, "lattice2": None}
            elif current is None:
                raise LatticeError(f"directive {word!r} outside a scenario")
            elif word == "prime":
                current["prime"] = int(rest)
            elif word == "precisions":
                ks = current["precisions"] = tuple(int(t) for t in rest.split())
                bad = next((k for k in ks if not 1 <= k <= MAX_PRECISION), None)
                if bad is not None:
                    raise LatticeError(f"precision {bad} is outside 1..{MAX_PRECISION}")
            elif word == "generator":
                current["gens"].append(parse_rational_matrix(rest))
            elif word == "lattice":
                current["lattice"] = parse_rational_matrix(rest)
            elif word == "lattice2":
                current["lattice2"] = parse_rational_matrix(rest)
            elif word == "end":
                scenarios.append(_finish_scenario(current))
                current = None
            else:
                raise LatticeError(f"unknown directive {word!r}")
        except (ValueError, LatticeError) as exc:
            raise LatticeError(f"line {lineno}: {exc}") from None
    if current is not None:
        raise LatticeError("unterminated scenario at end of file")
    return scenarios


def _finish_scenario(data: dict) -> LatticeScenario:
    for key in ("prime", "lattice", "lattice2", "precisions"):
        if data[key] is None:
            raise LatticeError(f"scenario {data['ident']!r} is missing '{key}'")
    if not data["gens"]:
        raise LatticeError(f"scenario {data['ident']!r} has no generators")
    if not data["precisions"]:
        raise LatticeError(f"scenario {data['ident']!r} has no precisions")
    l = data["prime"]
    return LatticeScenario(
        ident=data["ident"],
        group=AdicGroup(l, tuple(data["gens"])),
        lattice=LatticeBasis(l, data["lattice"]),
        lattice2=LatticeBasis(l, data["lattice2"]),
        precisions=data["precisions"],
    )
