"""Lattice stabilizers and index comparisons at finite precision."""
import math
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from torsionbounds import lattice, modmatrix, verify
from torsionbounds.exactvalue import PRIME_TEST_LIMIT
from torsionbounds.lattice import (
    MAX_PRECISION,
    AdicGroup,
    IndexReport,
    LatticeBasis,
    LatticeError,
    LatticeScenario,
    NotInvariantError,
    bundled_scenarios,
    parse_rational_matrix,
    parse_scenarios,
    rat_det,
    rat_mat,
    rat_mul,
    run_scenario,
    subgroup_orders,
    valuation,
    verify_index_equality,
)
from torsionbounds.modmatrix import (
    EnumerationTooLargeError,
    Mat2,
    _closure,
    _inv,
    _mul,
    _reduce,
    gl2_order,
    subgroup_closure,
)


def test_valuation():
    assert valuation(Fraction(12), 2) == 2
    assert valuation(Fraction(3, 4), 2) == -2
    assert valuation(Fraction(0), 2) is None


def test_lattice_basis_validation():
    with pytest.raises(LatticeError, match="^lattice basis is singular$"):
        LatticeBasis(2, rat_mat((1, 2, 2, 4)))
    with pytest.raises(LatticeError):
        LatticeBasis(2, rat_mat((Fraction(1, 3), 0, 0, 1)))
    # l-power denominators are fine
    LatticeBasis(2, rat_mat((Fraction(1, 4), 0, 0, 1)))


def test_prime_must_be_prime():
    # 3825123056546413051 is a strong pseudoprime to every base up to 37
    for l in (-3, 0, 1, 4, 6, 9, 3825123056546413051):
        with pytest.raises(LatticeError, match=f"prime {l} is not a prime"):
            LatticeBasis(l, rat_mat((1, 0, 0, 1)))
        with pytest.raises(LatticeError, match=f"prime {l} is not a prime"):
            AdicGroup(l, (rat_mat((1, 1, 0, 1)),))
    text = ("scenario s\nprime 4\nprecisions 1 2\ngenerator 1,1;0,1\n"
            "generator 3,0;0,1\nlattice 1,0;0,1\nlattice2 1,0;0,4\nend\n")
    with pytest.raises(LatticeError, match="^line 8: prime 4 is not a prime$"):
        parse_scenarios(text)


def test_prime_past_the_test_limit_is_refused():
    top = 3317044064679887385961813  # the largest prime below the limit
    assert LatticeBasis.standard(top).prime == top
    for l in (PRIME_TEST_LIMIT, PRIME_TEST_LIMIT + 2):
        with pytest.raises(LatticeError, match=f"prime {l} is past the "
                           f"primality-test limit {PRIME_TEST_LIMIT}$"):
            LatticeBasis.standard(l)


def test_adic_group_validation():
    with pytest.raises(LatticeError):
        AdicGroup(2, (rat_mat((Fraction(1, 2), 0, 0, 1)),))  # not 2-integral
    with pytest.raises(LatticeError):
        AdicGroup(2, (rat_mat((2, 0, 0, 1)),))  # det not a 2-unit
    with pytest.raises(LatticeError):
        AdicGroup(2, (rat_mat((1, 1, 1, 1)),))  # singular


# -- the valuation-based validation, kept as an oracle ----------------------

def _valuation_group_outcome(l, gens):
    """What AdicGroup(l, gens) raises, by the earlier per-entry valuations."""
    for g in gens:
        if any(q != 0 and valuation(q, l) < 0 for q in g):
            return LatticeError, f"generator {lattice._fmt_rat(g)} is not {l}-integral"
        det = rat_det(g)
        if det == 0 or valuation(det, l) != 0:
            return LatticeError, f"generator {lattice._fmt_rat(g)} is not invertible mod {l}"
    return None


def _valuation_basis_outcome(l, basis):
    """What LatticeBasis(l, basis) raises, by the earlier denominator loop."""
    if rat_det(basis) == 0:
        return LatticeError, "lattice basis is singular"
    for q in basis:
        den = q.denominator
        while den % l == 0:
            den //= l
        if den != 1:
            return LatticeError, f"entry {q} has a denominator not a power of {l}"
    return None


def _outcome(build):
    try:
        build()
    except LatticeError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def rational_matrices(draw):
    """(l, [m, ...]): rational 2x2 matrices with l-power and other
    denominators, some singular, some with determinant divisible by l."""
    l = draw(st.sampled_from([2, 3, 5, 7]))
    entry = st.builds(lambda n, d, j: Fraction(n * l ** max(j, 0), d * l ** max(-j, 0)),
                      st.integers(min_value=-2 * l * l, max_value=2 * l * l),
                      st.sampled_from([1, 1, 2, 3, 5, 7, 9]),
                      st.integers(min_value=-2, max_value=2))
    matrices = []
    for shape in draw(st.lists(st.sampled_from(["any", "singular", "l_det"]),
                               min_size=1, max_size=3)):
        a, b, c, d = (draw(entry) for _ in range(4))
        if shape == "singular":
            c, d = c * a, c * b
        elif shape == "l_det":
            a, b = l * a, l * b
        matrices.append((a, b, c, d))
    return l, matrices


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
@example((3, [(Fraction(1, 3), 0, 0, 1), (3, 0, 0, 1)]))
@example((2, [(1, 0, 0, 1), (Fraction(1, 2), Fraction(1, 3), 0, 0)]))
def test_integer_validation_matches_valuation_oracle(case):
    l, matrices = case
    assert _outcome(lambda: AdicGroup(l, tuple(matrices))) \
        == _valuation_group_outcome(l, matrices)
    for m in matrices:
        assert _outcome(lambda: LatticeBasis(l, m)) == _valuation_basis_outcome(l, m)
        if _valuation_basis_outcome(l, m) is None:
            M, ls, u = LatticeBasis(l, m)._form
            e = math.lcm(*(q.denominator for q in m))
            assert M == tuple(e * q for q in m)
            assert ls * u == rat_det(M) and ls == l ** valuation(ls * u, l) and u % l


def test_integer_forms_are_built_once(monkeypatch):
    calls = 0
    real = lattice._integral

    def counted(m):
        nonlocal calls
        calls += 1
        return real(m)

    sc = bundled_scenarios(primes=(3,), precisions=(1,))[0]
    monkeypatch.setattr(lattice, "_integral", counted)
    G = AdicGroup(3, sc.group.generators)
    T, T2 = LatticeBasis(3, sc.lattice.basis), LatticeBasis(3, sc.lattice2.basis)
    assert calls == len(G.generators) + 2
    for k in range(1, 5):
        assert verify_index_equality(G, T, T2, k).equal
    assert calls == len(G.generators) + 2
    # the stored forms take no part in equality, hashing or repr
    ints = AdicGroup(3, tuple(tuple(int(q) for q in g) for g in G.generators))
    assert ints == G and hash(ints) == hash(G) == hash(sc.group)
    assert repr(G) == f"AdicGroup(prime=3, generators={G.generators!r})"
    assert repr(T) == f"LatticeBasis(prime=3, basis={T.basis!r})"
    assert T == sc.lattice and hash(T) == hash(sc.lattice)


# -- stabilization ----------------------------------------------------------

def _stabilizes(g, T):
    """Whether `_checked_conjugates` takes the generator g for the lattice T."""
    try:
        lattice._checked_conjugates(AdicGroup(T.prime, (g,)), T, 1)
    except NotInvariantError:
        return False
    return True


def test_identity_stabilizes_everything():
    for l in (2, 3, 5):
        T = LatticeBasis.standard(l).transformed(rat_mat((1, 0, 0, l)))
        assert _stabilizes(rat_mat((1, 0, 0, 1)), T)


def test_lower_unipotent_stabilizes_standard():
    assert _stabilizes(rat_mat((1, 0, 2, 1)), LatticeBasis.standard(2))


def test_conjugate_with_negative_valuation_fails():
    T = LatticeBasis.standard(2).transformed(rat_mat((1, 0, 0, 2)))
    # basis-conjugate of [[1,0],[1,1]] is [[1,0],[1/2,1]]
    assert not _stabilizes(rat_mat((1, 0, 1, 1)), T)
    # while the upper unipotent conjugates to [[1,2],[0,1]], still integral
    assert _stabilizes(rat_mat((1, 1, 0, 1)), T)


def test_stabilizes_with_l_in_a_denominator():
    T = LatticeBasis.standard(3).transformed(rat_mat((1, 0, 0, Fraction(1, 3))))
    # g in T's basis is [[a, b/3], [3c, d]]
    assert not _stabilizes(rat_mat((1, 1, 0, 1)), T)
    assert _stabilizes(rat_mat((1, 0, 1, 1)), T)
    # [[1,1],[0,1]] and [[1,1/2],[0,1]], mod 9: the l-power of the
    # denominator divides out, and its unit part is inverted
    G = AdicGroup(3, (rat_mat((1, 3, 0, 1)), rat_mat((1, Fraction(3, 2), 0, 1))))
    assert lattice._checked_conjugates(G, T, 2) == [(1, 1, 0, 1), (1, 5, 0, 1)]


# -- the Fraction conjugation, kept as an oracle -----------------------------

def _inverse(m):
    det = rat_det(m)
    return tuple(Fraction(x) / det for x in (m[3], -m[1], -m[2], m[0]))


def _fraction_conjugate(g, T):
    """g in the basis of T, as B^-1 g B over the rationals."""
    return rat_mul(rat_mul(_inverse(T.basis), g), T.basis)


def _fraction_stabilizes(g, T):
    """Every entry of the conjugate has nonnegative l-valuation and its
    determinant is an l-unit."""
    if rat_det(g) == 0:
        raise LatticeError("singular")
    l = T.prime
    conj = _fraction_conjugate(g, T)
    return (all(q == 0 or valuation(q, l) >= 0 for q in conj)
            and valuation(rat_det(conj), l) == 0)


def _fraction_conjugate_mod(g, T, k):
    m = T.prime ** k
    return tuple(q.numerator * pow(q.denominator, -1, m) % m
                 for q in _fraction_conjugate(g, T))


def _unimodular(l):
    """Integer matrices of determinant +-1: a sign times elementary ones."""
    def build(sign, steps):
        u = (sign, 0, 0, 1)
        for upper, t in steps:
            u = rat_mul(u, (1, t, 0, 1) if upper else (1, 0, t, 1))
        return u
    step = st.tuples(st.booleans(), st.integers(min_value=-l, max_value=l))
    return st.builds(build, st.sampled_from([1, -1]), st.lists(step, max_size=3))


@st.composite
def lattices_and_generators(draw, l_in_denominators):
    """(l, k, T, T', gens).  T and T' have bases U diag(l^a, l^b) V, with U
    shared, U and V integral of determinant +-1 and a, b in -2..2, so their
    entries have l-power denominators.  A generator is h, U h U^-1 or (with
    `l_in_denominators`) B h B^-1 for B the basis of T, where h has entries
    l**j * n / d, j in 0..2 and d prime to l; with `l_in_denominators`, h's
    own denominators may also hold l."""
    l = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(min_value=1, max_value=4))
    U = draw(_unimodular(l))
    exponent = st.integers(min_value=-2, max_value=2)

    def lattice():
        D = (Fraction(l) ** draw(exponent), 0, 0, Fraction(l) ** draw(exponent))
        return LatticeBasis(l, rat_mul(rat_mul(U, D), draw(_unimodular(l))))

    T, T2 = lattice(), lattice()
    small = st.integers(min_value=-l * l, max_value=l * l)

    def matrices(dens):
        entry = st.builds(lambda j, n, d: Fraction(l ** j * n, d),
                          st.sampled_from([0, 0, 0, 1, 2]), small,
                          st.sampled_from(dens))
        return st.tuples(*[entry] * 4)

    prime_to_l = [d for d in (1, 2, 3, 4, 5, 6, 7, 8, 9) if d % l]
    h = matrices(prime_to_l)
    options = [h, h.map(lambda x: rat_mul(rat_mul(U, x), _inverse(U)))]
    if l_in_denominators:
        B = T.basis
        options += [h.map(lambda x: rat_mul(rat_mul(B, x), _inverse(B))),
                    matrices([1, 2, 3, l, l * l])]
    gens = draw(st.lists(st.one_of(options), min_size=1, max_size=3))
    return l, k, T, T2, gens


@settings(max_examples=300, deadline=None)
@given(lattices_and_generators(l_in_denominators=True))
def test_stabilizes_matches_fraction_oracle(case):
    l, _, T, _, gens = case
    for g in gens:
        # AdicGroup takes l-integral generators with l-unit determinant only
        if rat_det(g) == 0 or valuation(rat_det(g), l) != 0 \
                or any(q and valuation(q, l) < 0 for q in g):
            with pytest.raises(LatticeError):
                AdicGroup(l, (g,))
        else:
            assert _stabilizes(g, T) == _fraction_stabilizes(g, T)


@settings(max_examples=150, deadline=None)
@given(lattices_and_generators(l_in_denominators=False))
def test_conjugates_match_fraction_oracle(case):
    l, k, T, T2, gens = case
    gens = [g for g in gens if valuation(rat_det(g), l) == 0]
    if not gens:
        return
    for lat in (T, T2):
        for g in gens:
            if _fraction_stabilizes(g, lat):
                assert lattice._checked_conjugates(AdicGroup(l, (g,)), lat, k) \
                    == [_fraction_conjugate_mod(g, lat, k)]
    # verify_index_equality names the first generator that fails, first on T
    failure = next(((g, name) for lat, name in ((T, "first lattice"),
                                                (T2, "second lattice"))
                    for g in gens if not _fraction_stabilizes(g, lat)), None)
    G = AdicGroup(l, tuple(gens))
    if failure is None:
        assert verify_index_equality(G, T, T2, k).precision == k
        return
    with pytest.raises(NotInvariantError) as info:
        verify_index_equality(G, T, T2, k)
    assert info.value.generator == failure[0]
    assert str(info.value) == str(NotInvariantError(*failure))


# -- the rat_mul conjugation, kept as an oracle ------------------------------

def _rat_mul_conjugates(G, T, k, lattice_name="lattice"):
    """`lattice._checked_conjugates` as it stood before it wrote N out in
    integers: N = adj(M) A M by two `rat_mul` calls, the test by `any`, and
    one inverse of u * e mod l^k per generator."""
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


@st.composite
def conjugation_cases(draw):
    """(l, k, gens, bases): l-integral generators with l-unit determinant
    and denominators prime to l (any entries, or a product of a diagonal
    and two elementary matrices), and nonsingular lattice bases with l-power
    denominators, U diag(l^a w, l^b w') V (U, V unimodular, w, w' prime to
    l) or any entries n / l^j; most bases are stabilized by no generator."""
    l = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(min_value=1, max_value=6))
    small = st.integers(min_value=-2 * l * l, max_value=2 * l * l)
    prime_to_l = [d for d in (1, 1, 1, 2, 3, 4, 5, 7, 9) if d % l]
    gen_entry = st.builds(lambda j, n, d: Fraction(l ** j * n, d),
                          st.sampled_from([0, 0, 1, 2]), small, st.sampled_from(prime_to_l))
    unit = st.sampled_from([d for d in (1, -1, 2, 3, -5, 7, 11) if d % l])
    # diag(w / d, w' / d') (1, t; 0, 1) (1, 0; t', 1): an l-unit determinant
    elementary = st.builds(
        lambda w, d, w2, d2, t, t2: rat_mul(rat_mul(
            (Fraction(w, d), 0, 0, Fraction(w2, d2)), (1, t, 0, 1)), (1, 0, t2, 1)),
        unit, st.sampled_from(prime_to_l), unit, st.sampled_from(prime_to_l),
        gen_entry, gen_entry)
    gens = [g for g in draw(st.lists(st.one_of(st.tuples(*[gen_entry] * 4), elementary),
                                     min_size=1, max_size=4))
            if valuation(rat_det(g), l) == 0]
    exponent = st.integers(min_value=-2, max_value=2)
    diagonal = st.builds(
        lambda U, a, w, b, w2, V: rat_mul(rat_mul(U, (Fraction(l) ** a * w, 0, 0,
                                                      Fraction(l) ** b * w2)), V),
        _unimodular(l), exponent, unit, exponent, unit, _unimodular(l))
    basis_entry = st.builds(lambda n, j: Fraction(n, l ** j), small, st.integers(0, 2))
    bases = [B for B in draw(st.lists(st.one_of(diagonal, st.tuples(*[basis_entry] * 4)),
                                      min_size=1, max_size=3)) if rat_det(B)]
    return l, k, gens, bases


@settings(max_examples=300, deadline=None)
@given(conjugation_cases())
def test_integer_conjugates_match_rat_mul_oracle(case):
    l, k, gens, bases = case
    if not gens:
        return
    G = AdicGroup(l, tuple(gens))
    def conjugates_or_error(conjugates, T, name):
        try:
            return conjugates(G, T, k, name)
        except NotInvariantError as exc:
            return str(exc)

    for B in bases:
        T = LatticeBasis(l, B)
        for name in ("first lattice", "second lattice"):
            assert conjugates_or_error(lattice._checked_conjugates, T, name) \
                == conjugates_or_error(_rat_mul_conjugates, T, name)


# -- images and indices -----------------------------------------------------

def borel_group(l):
    return lattice._congruence_group(l, 1, 0)


def lattice_index(G, T, k):
    """Index of the precision-k image of G in GL2(Z/l^k), one lattice only."""
    gens = lattice._checked_conjugates(G, T, k)
    return lattice._index_in_gl2(subgroup_orders(gens, G.prime, k)[-1], G.prime, k)


def scaled(T, factor):
    """The lattice T with its basis multiplied by `factor`."""
    return LatticeBasis(T.prime, tuple(Fraction(factor) * q for q in T.basis))


def test_image_of_identity_group_is_trivial():
    G = AdicGroup(2, (rat_mat((1, 0, 0, 1)),))
    assert lattice_index(G, LatticeBasis.standard(2), 1) == gl2_order(2) == 6


def test_borel_image_mod2():
    assert lattice_index(borel_group(2), LatticeBasis.standard(2), 1) == 3


def test_borel_index_mod3():
    assert lattice_index(borel_group(3), LatticeBasis.standard(3), 1) == 4


def test_full_image_has_index_one():
    gens = tuple(rat_mat(e) for e in [(0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 0, 2)])
    G = AdicGroup(3, gens)
    assert lattice_index(G, LatticeBasis.standard(3), 2) == 1


def test_index_at_a_large_prime_factors_only_the_prime(monkeypatch):
    l = 1_000_000_007
    real = lattice._factorize

    def factorize_up_to_l(n):
        if n > l:
            raise AssertionError(f"factorized {n}, above the prime {l}")
        return real(n)

    for module in (lattice, modmatrix):
        monkeypatch.setattr(module, "_factorize", factorize_up_to_l)
    G = AdicGroup(l, (rat_mat((-1, 0, 0, 1)),))
    # the image has order 2, in GL2(Z/l^2) of order l^4 (l^2 - 1)(l^2 - l)
    assert lattice_index(G, LatticeBasis.standard(l), 2) \
        == l ** 4 * (l * l - 1) * (l * l - l) // 2


def test_sift_memory_does_not_grow_with_l():
    l = 100003
    G = AdicGroup(l, (rat_mat((1, l, 0, 1)),))
    tracemalloc.start()
    try:
        index = lattice_index(G, LatticeBasis.standard(l), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # I + l*E12 has order l^2 mod l^3
    assert index == modmatrix._gl2_prime_power_order(l, 3) // l ** 2
    assert peak < 1 << 20


def test_verify_index_equality_same_lattice():
    T = LatticeBasis.standard(2)
    rep = verify_index_equality(borel_group(2), T, T, 2)
    assert rep.equal and rep.index_T == rep.index_Tprime


def test_borel_against_diag_1_2_lattice():
    T = LatticeBasis.standard(2)
    T2 = T.transformed(rat_mat((1, 0, 0, 2)))
    for k in (1, 2, 3):
        rep = verify_index_equality(borel_group(2), T, T2, k)
        assert rep.equal
        assert rep.index_T == 3


def test_not_invariant_error_names_generator():
    T2 = LatticeBasis.standard(2).transformed(rat_mat((1, 0, 0, 2)))
    G = AdicGroup(2, (rat_mat((1, 0, 1, 1)),))
    with pytest.raises(NotInvariantError) as info:
        verify_index_equality(G, LatticeBasis.standard(2), T2, 1)
    assert "1,0;1,1" in str(info.value)


def test_scaling_lattice_leaves_index_unchanged():
    G = borel_group(3)
    T = LatticeBasis.standard(3)
    for k in (1, 2):
        assert lattice_index(G, T, k) == lattice_index(G, scaled(T, 3), k)
        assert lattice_index(G, T, k) == lattice_index(G, scaled(T, Fraction(1, 3)), k)


# -- layered order algorithm vs direct closure ------------------------------

@pytest.mark.parametrize("l,k", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2)])
def test_layered_order_matches_closure(l, k):
    m = l ** k
    cases = [
        [(1, 1, 0, 1)],
        [(1, 1, 0, 1), (1, 0, l, 1)],
        [(0, -1, 1, 0), (1, 1, 0, 1)],
    ]
    for gens in cases:
        gens = [_reduce(g, m) for g in gens]
        brute = [subgroup_closure([Mat2(l ** j, *g) for g in gens], l ** j).order
                 for j in range(1, k + 1)]
        assert subgroup_orders(gens, l, k) == brute


class _ReferenceBasis:
    """The layered sift as it stood before full layers propagated, kept as
    an oracle that shares no code with `lattice._LayeredBasis`: `add` sifts
    an element and, depth first, its l-th power and its commutators with the
    basis; each new element is powered to pivot 1; `full_from` falls only
    while the deepest layers are full; `close` conjugates every element."""

    def __init__(self, l, k):
        self.l = l
        self.m = l ** k
        self.depth = {l ** j: j for j in range(1, k)}
        self.layers = {j: [] for j in range(1, k)}
        self.elements = []
        self.full_from = k

    @property
    def full(self):
        return self.full_from == 1

    def add(self, x):
        work = [x]
        while work:
            found = self._sift(work.pop())
            if found is not None:
                work.extend(self._insert(*found))

    def close(self, conjugators):
        m, i = self.m, 0
        while i < len(self.elements) and not self.full:
            x = self.elements[i][0]
            i += 1
            for g, g_inv in conjugators:
                self.add(_mul(_mul(g, x, m), g_inv, m))

    def orders(self, image_order):
        """|G mod l^j| for j = 1..k, from the order of the image mod l."""
        sizes = [len(self.layers[j]) for j in self.layers]
        return [image_order * self.l ** sum(sizes[:j]) for j in range(len(sizes) + 1)]

    def _sift(self, x):
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
                        inv_pows[c] = _reference_pow(inv_pows[1], c, m)
                    x = _mul(x, inv_pows[c], m)
                    v = [(a - c * b) % l for a, b in zip(v, lead)]
            if any(v):
                return x, j, v

    def _insert(self, x, j, v):
        l, m = self.l, self.m
        piv = next(i for i, a in enumerate(v) if a)
        scale = pow(v[piv], -1, l)
        x = _reference_pow(x, scale, m)
        lead = [a * scale % l for a in v]
        x_inv = _inv(x, m)
        self.layers[j].append((piv, lead, {1: x_inv}))
        while self.full_from > 1 and len(self.layers[self.full_from - 1]) == 4:
            self.full_from -= 1
        full = self.full_from
        out = [_reference_pow(x, l, m)] if j + 1 < full else []
        out.extend(_mul(_mul(x, y, m), _mul(x_inv, y_inv, m), m)
                   for y, y_inv, i in self.elements if i + j < full)
        self.elements.append((x, x_inv, j))
        return out


def _reference_pow(x, e, m):
    out = (1, 0, 0, 1)
    for _ in range(e):
        out = _mul(out, x, m)
    return out


class _AllProductsBasis(_ReferenceBasis):
    """The reference sift before the depth cutoff: `_insert` forms the l-th
    power of each new element and its commutator with every basis element,
    however deep, and leaves the sift to discard the deep ones."""

    def _insert(self, x, j, v):
        l, m = self.l, self.m
        piv = next(i for i, a in enumerate(v) if a)
        scale = pow(v[piv], -1, l)
        x = _reference_pow(x, scale, m)
        lead = [a * scale % l for a in v]
        x_inv = _inv(x, m)
        out = [_reference_pow(x, l, m)]
        out.extend(_mul(_mul(x, y, m), _mul(x_inv, y_inv, m), m)
                   for y, y_inv, _ in self.elements)
        self.layers[j].append((piv, lead, {1: x_inv}))
        self.elements.append((x, x_inv, j))
        while self.full_from > 1 and len(self.layers[self.full_from - 1]) == 4:
            self.full_from -= 1
        return out


def _coset_bfs_orders(gens, l, k, basis=_ReferenceBasis):
    """`subgroup_orders` by the earlier algorithm, kept as an oracle: a
    breadth-first coset scan multiplies every element of the image mod l
    (kept as a lift mod l^k, with its inverse) by every generator, and sifts
    all of its |image| * r Schreier generators, which generate G cap K_1,
    into `basis` (by default the reference sift)."""
    top = l ** k
    raw = list(dict.fromkeys(gens))
    cap = modmatrix.ENUMERATION_CAP
    ident = (1, 0, 0, 1)
    sifter = basis(l, k)
    reps = {_reduce(ident, l): (ident, ident)}
    queue = deque([ident])
    while queue:
        rep = queue.popleft()
        for g in raw:
            prod = _mul(rep, g, top)
            key = _reduce(prod, l)
            known = reps.get(key)
            if known is None:
                if len(reps) >= cap:
                    raise EnumerationTooLargeError(len(reps) + 1, cap)
                reps[key] = (prod, _inv(prod, top))
                queue.append(prod)
            elif not sifter.full:
                # Schreier generator rep*g*rep(rep*g)^-1, in K_1
                sifter.add(_mul(prod, known[1], top))
    return sifter.orders(len(reps))


@st.composite
def relator_generators(draw, max_k=None):
    """(l, k, gens) with 1-5 generators mod l^k: generic ones, ones in K_1
    (I + l*A), ones redundant mod l but not = I there (x*y*(I + l*A) for
    earlier generators x, y), duplicates and the identity.  Sometimes every
    generator is upper triangular, so that no layer of the sift fills.  k
    is at most max_k, or 4 for l = 2 and 3 otherwise."""
    l = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(min_value=1, max_value=max_k or (4 if l == 2 else 3)))
    m = l ** k
    entry = st.integers(min_value=0, max_value=m - 1)
    lower = st.just(0) if draw(st.booleans()) else entry
    unit_det = st.tuples(entry, entry, lower, entry).filter(
        lambda e: (e[0] * e[3] - e[1] * e[2]) % l != 0)

    def kernel():
        return tuple((i + l * draw(s)) % m
                     for i, s in zip((1, 0, 0, 1), (entry, entry, lower, entry)))

    gens = []
    kinds = ["generic", "kernel", "redundant", "duplicate", "identity"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        if kind == "kernel":
            g = kernel()
        elif kind == "identity":
            g = (1, 0, 0, 1)
        elif kind == "redundant" and gens:
            x, y = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            g = _mul(_mul(x, y, m), kernel(), m)
        elif kind == "duplicate" and gens:
            g = draw(st.sampled_from(gens))
        else:
            g = draw(unit_det)
        gens.append(g)
    return l, k, gens


@settings(max_examples=300, deadline=None)
@given(relator_generators())
# a trivial image: the generators lie in K_1 or are the identity
@example((3, 3, [(1, 3, 0, 1), (1, 0, 0, 1), (10, 0, 0, 1)]))
# all of GL2(Z/8): the sifter is full after the first relators
@example((2, 3, [(1, 1, 0, 1), (0, 7, 1, 0), (3, 0, 0, 1), (5, 0, 0, 1)]))
# k = 1: the closure mod l alone
@example((5, 1, [(1, 1, 0, 1), (2, 0, 0, 1), (1, 1, 0, 1)]))
def test_relator_orders_match_coset_bfs(case):
    l, k, gens = case
    assert subgroup_orders(gens, l, k) == _coset_bfs_orders(gens, l, k)


def test_full_first_layer_at_l2_does_not_fill_the_kernel():
    """At l = 2 a full layer 1 does not fill layer 2: (I + 2A)^2 = I + 4(A +
    A^2) mod 8.  T. and V. Dokchitser's group (Math. Z. 272, 2012) maps onto
    GL2(Z/4) and has index 2 mod 8."""
    gens = [(0, 3, 7, 7), (1, 5, 6, 3)]
    assert [len(_closure([_reduce(g, 2 ** j) for g in gens], 2 ** j))
            for j in (1, 2, 3)] == [6, 96, 768]
    assert subgroup_orders(gens, 2, 3) == [6, 96, 768]
    for k in range(4, 9):
        assert subgroup_orders(gens, 2, k) == _coset_bfs_orders(gens, 2, k)


@settings(max_examples=150, deadline=None)
@given(relator_generators(max_k=8), st.data())
def test_orders_ignore_generator_order_and_repeats(case, data):
    l, k, gens = case
    repeats = data.draw(st.lists(st.sampled_from(gens), max_size=3))
    shuffled = data.draw(st.permutations(gens + repeats))
    assert subgroup_orders(shuffled, l, k) == subgroup_orders(gens, l, k)


def test_borel_sifts_fewer_relators_than_its_image(monkeypatch):
    l, k = 7, 2
    gens = lattice._checked_conjugates(borel_group(l), LatticeBasis.standard(l), k)
    expected = _coset_bfs_orders(gens, l, k)
    calls = 0
    real_add = lattice._LayeredBasis.add

    def counted_add(self, x):
        nonlocal calls
        calls += 1
        return real_add(self, x)

    monkeypatch.setattr(lattice._LayeredBasis, "add", counted_add)
    assert subgroup_orders(gens, l, k) == expected
    # the Borel mod 7 has 6 * 6 * 7 elements; the coset scan sifts 157
    assert expected[0] == 252
    assert calls < 252


@settings(max_examples=200, deadline=None)
@given(relator_generators(max_k=6))
# all of GL2(Z/2^6) and the Borel mod 3^6: the last layers fill from the
# commutators and powers just above them
@example((2, 6, [(1, 1, 0, 1), (0, 63, 1, 0), (3, 0, 0, 1), (5, 0, 0, 1)]))
@example((3, 6, [(1, 1, 0, 1), (1, 0, 3, 1), (2, 0, 0, 1), (1, 0, 0, 2)]))
# the upper triangular groups at l = 5 and 7: no layer fills, and every
# layer, the last included, holds three elements
@example((5, 2, [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)]))
@example((5, 6, [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)]))
@example((7, 2, [(3, 0, 0, 1), (1, 0, 0, 3), (1, 1, 0, 1)]))
@example((7, 6, [(3, 0, 0, 1), (1, 0, 0, 3), (1, 1, 0, 1)]))
def test_depth_cutoff_matches_all_products(case):
    """Every product the cutoff skips sifts to I, so the orders are those of
    a reference sift that forms every power and commutator."""
    l, k, gens = case
    assert subgroup_orders(gens, l, k) == _coset_bfs_orders(gens, l, k, _AllProductsBasis)


def _filtration_oracle(gens, l, k):
    """The order of <gens> in GL2(Z/l^k) by the earlier algorithm: a BFS over
    the whole image mod l^(j-1) for each j = 2..k, whose Schreier
    discrepancies span G cap ker(GL2(Z/l^j) -> GL2(Z/l^(j-1))) over F_l.
    Its cost grows with |G|; it is kept here as an oracle."""
    raw = []
    for g in gens:
        raw.append(g)
        raw.append(_inv(g, l ** k))
    raw = list(dict.fromkeys(raw))
    order = len(_closure([_reduce(g, l) for g in raw], l))
    cap = modmatrix.ENUMERATION_CAP
    for j in range(2, k + 1):
        m, mp = l ** j, l ** (j - 1)
        gens_m = list(dict.fromkeys(_reduce(g, m) for g in raw))
        ident = (1, 0, 0, 1)
        reps = {ident: ident}
        queue = deque([ident])
        basis = []
        while queue:
            rep = reps[queue.popleft()]
            for g in gens_m:
                prod = _mul(rep, g, m)
                pk = _reduce(prod, mp)
                known = reps.get(pk)
                if known is None:
                    if len(reps) >= cap:
                        raise EnumerationTooLargeError(len(reps) + 1, cap)
                    reps[pk] = prod
                    queue.append(pk)
                else:
                    disc = _mul(prod, _inv(known, m), m)
                    vec = [((disc[i] - ident[i]) // mp) % l for i in range(4)]
                    _span_add(basis, vec, l)
        assert len(reps) == order
        order = len(reps) * l ** len(basis)
    return order


def _span_add(basis, vec, l):
    """Reduce vec against an echelonized F_l basis; append if independent."""
    for bv in basis:
        piv = next(i for i, x in enumerate(bv) if x)
        if vec[piv]:
            factor = vec[piv] * pow(bv[piv], -1, l) % l
            vec = [(v - factor * b) % l for v, b in zip(vec, bv)]
    if any(vec):
        basis.append(vec)


@st.composite
def prime_power_generators(draw):
    """Generators mod l^k: generic ones, and ones = I mod l (in K_1)."""
    l = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(min_value=1, max_value=4 if l == 2 else 3))
    m = l ** k
    entry = st.integers(min_value=0, max_value=m - 1)
    generic = st.tuples(entry, entry, entry, entry)
    near_identity = st.tuples(
        *(st.builds(lambda x, i=i: (i + l * x) % m, entry) for i in (1, 0, 0, 1)))
    unit_det = st.one_of(generic, near_identity).filter(
        lambda e: (e[0] * e[3] - e[1] * e[2]) % l != 0)
    return l, k, draw(st.lists(unit_det, min_size=1, max_size=3))


# the oracles stop at this many elements; a group at least that large is
# only checked to be reported as at least that large
ORACLE_CAP = 20_000


@settings(max_examples=200, deadline=None)
@given(prime_power_generators())
def test_layered_order_matches_oracles(case):
    l, k, gens = case
    order = subgroup_orders(gens, l, k)[-1]
    assert gl2_order(l ** k) % order == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modmatrix, "ENUMERATION_CAP", ORACLE_CAP)
        for oracle in (lambda: subgroup_closure([Mat2(l ** k, *g) for g in gens],
                                                l ** k).order,
                       lambda: _filtration_oracle(gens, l, k)):
            try:
                assert order == oracle()
            except EnumerationTooLargeError:
                assert order > ORACLE_CAP


def test_layered_order_cap_guards_the_mod_l_scan(monkeypatch):
    def gl2_gens(m):
        return [_reduce(g, m) for g in ((1, 1, 0, 1), (0, -1, 1, 0),
                                        (3, 0, 0, 1), (5, 0, 0, 1))]
    # the image mod 2 is all of GL2(Z/2), 6 elements
    monkeypatch.setattr(modmatrix, "ENUMERATION_CAP", 5)
    for k in (1, 3):
        with pytest.raises(EnumerationTooLargeError, match="6 elements exceeds cap 5"):
            subgroup_orders(gl2_gens(2 ** k), 2, k)
    # depth costs no enumeration: 7 elements suffice for the 1536 mod 8
    monkeypatch.setattr(modmatrix, "ENUMERATION_CAP", 7)
    assert subgroup_orders(gl2_gens(8), 2, 3) == [6, 96, 1536]
    assert gl2_order(8) == 1536


# -- one sift per lattice against the per-precision path --------------------

def _per_precision_reports(sc):
    """The reports of `run_scenario(sc)` as the earlier code made them: both
    lattices conjugated and sifted again at each precision."""
    l, out = sc.prime, []
    for k in sc.precisions:
        gens_t = lattice._checked_conjugates(sc.group, sc.lattice, k, "first lattice")
        gens_t2 = lattice._checked_conjugates(sc.group, sc.lattice2, k, "second lattice")
        out.append(IndexReport(
            *(lattice._index_in_gl2(_coset_bfs_orders(g, l, k)[-1], l, k)
              for g in (gens_t, gens_t2)), k))
    return tuple(out)


@st.composite
def conjugated_bundled_scenarios(draw):
    """A bundled scenario with its group and both lattices moved by an
    integer matrix U of determinant +-1 (g -> U g U^-1, T -> U T), which
    keeps every index, and precisions over 1..8 in any order with repeats."""
    l = draw(st.sampled_from([2, 3, 5, 7]))
    sc = draw(st.sampled_from(bundled_scenarios(primes=(l,))))
    U = draw(_unimodular(l))
    gens = tuple(rat_mul(rat_mul(U, g), _inverse(U)) for g in sc.group.generators)
    ks = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5))
    return LatticeScenario(sc.ident, AdicGroup(l, gens), sc.lattice.transformed(U),
                           sc.lattice2.transformed(U), tuple(ks))


@settings(max_examples=100, deadline=None)
@given(conjugated_bundled_scenarios())
def test_one_pass_matches_per_precision_oracle(sc):
    res = run_scenario(sc)
    assert res.reports == _per_precision_reports(sc)
    gtype, _, stype = sc.ident.partition(f"-l{sc.prime}-")
    assert [(r.precision, r.index_T, r.index_Tprime) for r in res.reports] == [
        (k, *(expected_index(sc.prime, gtype, stype, k),) * 2) for k in sc.precisions]


def _counted_sifts(monkeypatch):
    """Patch `lattice._LayeredBasis` to count its instances; the count."""
    calls = {"sift": 0}

    class CountedBasis(lattice._LayeredBasis):
        def __init__(self, *args):
            calls["sift"] += 1
            super().__init__(*args)

    monkeypatch.setattr(lattice, "_LayeredBasis", CountedBasis)
    return calls


def test_run_scenario_conjugates_and_sifts_each_lattice_once(monkeypatch):
    # the lattices I and diag(1, 3) are not homothetic: two sifts
    sc = bundled_scenarios(primes=(3,), precisions=range(1, 7))[0]
    expected = _per_precision_reports(sc)
    calls = {"conjugate": 0}
    real_conjugates = lattice._checked_conjugates

    def counted_conjugates(*args):
        calls["conjugate"] += 1
        return real_conjugates(*args)

    monkeypatch.setattr(lattice, "_checked_conjugates", counted_conjugates)
    sifts = _counted_sifts(monkeypatch)
    assert run_scenario(sc).reports == expected
    assert calls == {"conjugate": 2} and sifts == {"sift": 2}


@pytest.mark.parametrize("which,factor", [
    ("lattice", 3), ("lattice", -6), ("lattice", Fraction(2, 9)), ("lattice", 5),
    ("lattice2", Fraction(1, 3)), ("lattice2", Fraction(-4, 27)), ("lattice2", 1)])
def test_homothetic_lattices_share_one_sift(monkeypatch, which, factor):
    """lattice2 = l^j * u * T, T with l-power denominators or without, is
    sifted once, and its reports are those of two separate sifts."""
    ks = (3, 1, 2, 4)
    for sc in bundled_scenarios(primes=(3,), precisions=ks):
        T = getattr(sc, which)
        T2 = scaled(T, factor)
        separate = [subgroup_orders(lattice._checked_conjugates(sc.group, lat, 4), 3, 4)
                    for lat in (T, T2)]
        expected = tuple(IndexReport(*(lattice._index_in_gl2(o[k - 1], 3, k)
                                       for o in separate), k) for k in ks)
        calls = _counted_sifts(monkeypatch)
        assert run_scenario(LatticeScenario(sc.ident, sc.group, T, T2, ks)).reports \
            == expected
        assert calls == {"sift": 1}
        monkeypatch.undo()


def test_verify_judges_each_lattice_index_by_closure(monkeypatch):
    """A full layer 1 taken to fill the kernel at l = 2 is wrong on both
    lattices alike, so they stay equal; the brute-force route of `verify`
    sees it on its Dokchitser probe, which the bundled family does not reach."""
    report = verify.SuiteReport()
    verify._check_lattice_scenarios(report)
    assert report.checks[-1].status == "pass"
    real = lattice._LayeredBasis._insert

    def eager_insert(self, x, j, v):
        real(self, x, j, v)
        if len(self.layers[j]) == 4:
            self.full_from = min(self.full_from, j)

    monkeypatch.setattr(lattice._LayeredBasis, "_insert", eager_insert)
    verify._check_lattice_scenarios(report)
    assert report.checks[-1].status == "fail"
    assert report.checks[-1].detail == str([
        ("dokchitser-l2", name, k, 1, 2) for name in ("T", "T'") for k in (3, 4)])


def test_second_lattice_failure_comes_before_any_sift(monkeypatch):
    T = LatticeBasis.standard(2)
    T2 = T.transformed(rat_mat((1, 0, 0, 2)))
    # 1,0;1,1 stabilizes T but not T2
    G = AdicGroup(2, (rat_mat((3, 0, 0, 1)), rat_mat((1, 0, 1, 1))))

    def no_sift(*args):
        raise AssertionError("sifted before both lattices were conjugated")

    monkeypatch.setattr(lattice, "subgroup_orders", no_sift)
    monkeypatch.setattr(lattice, "_LayeredBasis", no_sift)
    with pytest.raises(NotInvariantError, match="1,0;1,1 does not stabilize "
                       "the second lattice$"):
        run_scenario(LatticeScenario("s", G, T, T2, (3, 1, 40)))


def test_precision_below_one_is_refused():
    T = LatticeBasis.standard(2)
    with pytest.raises(LatticeError, match="^precision must be >= 1, got 0$"):
        verify_index_equality(borel_group(2), T, T, 0)
    with pytest.raises(LatticeError, match="^precision must be >= 1, got -2$"):
        run_scenario(LatticeScenario("s", borel_group(2), T, T, (1, -2)))
    # no precisions, no reports, as when each precision had its own pass
    assert run_scenario(LatticeScenario("s", borel_group(2), T, T, ())).reports == ()


# -- bundled scenarios ------------------------------------------------------

def expected_index(l, gtype, stype, k):
    """Closed-form index of the bundled scenario groups at precision k: the
    congruence groups have lower-left depth s and upper-right depth t, the
    unipotent preimage has level l**s."""
    e = {"diag_1_l": 1, "scalar_l": 0, "diag_1_lsq": 2}[stype]
    if gtype == "unipotent":
        m = min(max(1, e), k)
        return l ** (3 * m - 3) * (l - 1) ** 2 * (l + 1)
    s, t = (max(1, e), 0) if gtype == "borel" else (1 + e, 1)
    return l ** (min(s, k) + min(t, k) - 1) * (l + 1)


def test_bundled_family_shape():
    family = bundled_scenarios()
    assert len(family) == 27
    assert len({sc.ident for sc in family}) == 27


def _walking_primitive_root_sq(l):
    """The least generator of the units mod l**2, found by walking the powers
    of each candidate: the earlier algorithm, kept as an oracle."""
    target = l * (l - 1)
    for g in range(2, l * l):
        if g % l == 0:
            continue
        x, order = g % (l * l), 1
        while x != 1:
            x = x * g % (l * l)
            order += 1
        if order == target:
            return g


def test_primitive_root_sq_matches_walking_oracle():
    odd_primes = [p for p in range(3, 400) if all(p % q for q in range(2, p))]
    assert len(odd_primes) == 77
    for l in odd_primes:
        assert lattice._primitive_root_sq(l) == _walking_primitive_root_sq(l), l


def test_primitive_root_sq_at_a_large_prime():
    # l - 1 = 2 * 500000003: factoring l * (l - 1) by trial division took
    # tens of seconds, factoring l - 1 alone takes milliseconds
    assert lattice._primitive_root_sq(10**9 + 7) == 5


# the bundled family's builders as they were written one per group type,
# kept as an oracle for the generators and lattices of every scenario

def _oracle_diag_unit_gens(l):
    return [rat_mat((u, 0, 0, 1)) for u in lattice._unit_gens(l)] + \
           [rat_mat((1, 0, 0, u)) for u in lattice._unit_gens(l)]


def _oracle_kernel_gens(l, level):
    out = []
    for pos in range(4):
        e = [1, 0, 0, 1]
        e[pos] += level
        out.append(rat_mat(e))
    out.append(rat_mat((1, level, level, 1)))
    return out


def _oracle_borel_group(l, depth):
    gens = _oracle_diag_unit_gens(l) + \
        [rat_mat((1, 1, 0, 1)), rat_mat((1, 0, l ** depth, 1))]
    return AdicGroup(l, tuple(gens))


def _oracle_split_cartan_group(l, s, t):
    gens = _oracle_diag_unit_gens(l) + [
        rat_mat((1, l ** t, 0, 1)), rat_mat((1, 0, l ** s, 1)),
    ]
    return AdicGroup(l, tuple(gens))


def _oracle_unipotent_group(l, level):
    gens = _oracle_kernel_gens(l, level) + [rat_mat((1, 1, 0, 1))]
    return AdicGroup(l, tuple(gens))


def _oracle_sigma(l, stype):
    if stype == "diag_1_l":
        return rat_mat((1, 0, 0, l))
    if stype == "scalar_l":
        return rat_mat((l, 0, 0, l))
    if stype == "diag_1_lsq":
        return rat_mat((1, 0, 0, l * l))
    raise LatticeError(f"unknown lattice-change type {stype!r}")


def _oracle_family(primes, precisions):
    """(ident, prime, generators, lattice basis, lattice2 basis, precisions)
    for each bundled scenario, in order."""
    exps = {"diag_1_l": 1, "scalar_l": 0, "diag_1_lsq": 2}
    out = []
    for l in primes:
        std = LatticeBasis.standard(l)
        for stype in ("diag_1_l", "scalar_l", "diag_1_lsq"):
            e = exps[stype]
            t2 = std.transformed(_oracle_sigma(l, stype))
            groups = {
                "borel": _oracle_borel_group(l, depth=max(1, e)),
                "split_cartan": _oracle_split_cartan_group(l, s=1 + e, t=1),
                "unipotent": _oracle_unipotent_group(l, level=l ** max(1, e)),
            }
            for gtype, G in groups.items():
                out.append((f"{gtype}-l{l}-{stype}", G.prime, G.generators,
                            std.basis, t2.basis, tuple(precisions)))
    return out


def test_bundled_family_matches_oracle_builders():
    primes, precisions = (2, 3, 5, 7, 11), (1, 2, 3)
    family = bundled_scenarios(primes=primes, precisions=precisions)
    assert [(sc.ident, sc.group.prime, sc.group.generators, sc.lattice.basis,
             sc.lattice2.basis, sc.precisions) for sc in family] \
        == _oracle_family(primes, precisions)
    assert all(sc.lattice2.prime == sc.prime for sc in family)


@pytest.mark.parametrize("l", [2, 3])
def test_bundled_indices_match_closed_form(l):
    for sc in bundled_scenarios(primes=(l,), precisions=(1, 2)):
        gtype, _, stype = sc.ident.partition(f"-l{l}-")
        res = run_scenario(sc)
        for rep in res.reports:
            assert rep.equal
            assert rep.index_T == expected_index(l, gtype, stype, rep.precision)
        assert res.stable


def test_bundled_family_matches_closed_form_at_depth():
    for l in (2, 3, 5, 7):
        for sc in bundled_scenarios(primes=(l,), precisions=range(1, 9)):
            gtype, _, stype = sc.ident.partition(f"-l{l}-")
            res = run_scenario(sc)
            assert [(r.index_T, r.index_Tprime) for r in res.reports] == [
                (expected_index(l, gtype, stype, k),) * 2 for k in range(1, 9)
            ], sc.ident
            assert res.stable, sc.ident


# -- scenario files ---------------------------------------------------------

def test_parse_rational_matrix():
    assert parse_rational_matrix("1,1/2;0,3") == rat_mat((1, Fraction(1, 2), 0, 3))
    with pytest.raises(LatticeError):
        parse_rational_matrix("1,2,3")


def _fraction_entry(tok):
    """The entry Fraction reads from tok, or the message the parser must
    give: an entry with a numeral Python does not read (more than 4300
    digits) or a value whose numerator or denominator has more than 4300
    digits is too long, any other entry Fraction refuses is bad."""
    try:
        q = Fraction(tok)
    except ZeroDivisionError:
        return f"bad rational entry {tok!r}"
    except ValueError as exc:
        if "Exceeds the limit" in str(exc):
            return str(lattice._too_long(tok))
        return f"bad rational entry {tok!r}"
    if max(abs(q.numerator), q.denominator) >= 10 ** lattice.MAX_DIGITS:
        return str(lattice._too_long(tok))
    return q


# ASCII, Arabic-Indic and Devanagari decimal digits
_DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩",
               "०१२३४५६७८९")


@st.composite
def numerals(draw, lengths=(1, 2, 3)):
    """A run of decimal digits, perhaps with an underscore (which may be
    misplaced), of a length drawn from `lengths`."""
    digits = draw(st.sampled_from(_DIGIT_SETS))
    run = draw(st.text(digits, min_size=1, max_size=3))
    run = (run * 4301)[:draw(st.sampled_from(lengths))]
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        i = draw(st.integers(min_value=0, max_value=len(run)))
        run = run[:i] + "_" + run[i:]
    return run


@st.composite
def entry_tokens(draw):
    """Entry text: integers, p/q, decimals and exponents with signs, spaces
    and any of three digit sets, numerals near the 4300-digit limit,
    exponents on both sides of the limits, and junk."""
    sign = st.sampled_from(["", "", "+", "-", "--", "+ "])
    short = numerals()
    edge = numerals(lengths=(1, 2, 4299, 4300, 4301))
    exponent = st.sampled_from([0, 1, 7, 4299, 4300, 4301, 8600, 12900, 12901, 20000]).map(str)
    form = draw(st.sampled_from(["int", "ratio", "decimal", "exponent", "junk"]))
    if form == "int":
        body = draw(sign) + draw(edge)
    elif form == "ratio":
        body = draw(sign) + draw(st.one_of(short, edge)) + "/" + draw(st.one_of(short, edge))
    elif form == "junk":
        body = draw(st.text("019٣²+-_./eE xd", max_size=8))
    else:
        whole = draw(st.sampled_from(["", "0"])) or draw(short)
        frac = draw(st.one_of(st.just(""), short, edge))
        body = draw(sign) + whole + draw(st.sampled_from([".", ""])) + frac
        if form == "exponent":
            body += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) \
                + draw(exponent)
    space = st.sampled_from(["", " ", "\t", "\u00a0", "\u2003"])
    return draw(space) + body + draw(space)


@settings(max_examples=600, deadline=None)
@given(entry_tokens())
@example("1e4299")
@example("1e4300")
@example("-1.5E4299")
@example("1e-12901")
@example("0.000e-20000")
@example("1_000/3")
@example(" ٣/٤ ")
@example("0" * 4300 + "1")
@example("²")
@example("1.d")
def test_parse_entry_matches_fraction(tok):
    expected = _fraction_entry(tok.strip())
    if isinstance(expected, str):
        with pytest.raises(LatticeError) as info:
            parse_rational_matrix(f"{tok},0;0,1")
        assert str(info.value) == expected
    else:
        assert parse_rational_matrix(f"{tok},0;0,1") == (expected, 0, 0, 1)


def test_huge_exponents_are_read_before_the_power_is_formed():
    for tok in ("1e100000000", "-2.5E-100000000", "1" * 4301, "7/" + "3" * 4301):
        with pytest.raises(LatticeError, match=f"^entry '.*' has more than "
                           f"{lattice.MAX_DIGITS} digits$"):
            parse_rational_matrix(f"{tok},0;0,1")
    # a zero mantissa has the value 0 whatever its exponent
    assert parse_rational_matrix("0e100000000,-0.0E-100000000;0,1") == (0, 0, 0, 1)
    text = SCENARIO_TEXT.replace("generator 2,0;0,1", "generator 1e100000000,0;0,1")
    with pytest.raises(LatticeError, match="^line 5: entry '1e100000000' has more "
                       "than 4300 digits$"):
        parse_scenarios(text)


SCENARIO_TEXT = """\
# one scenario, with comments
scenario demo
prime 3
precisions 1 2
generator 2,0;0,1
generator 1,1;0,1  # upper unipotent
lattice 1,0;0,1
lattice2 3,0;0,3
end
"""


def test_parse_scenarios():
    (sc,) = parse_scenarios(SCENARIO_TEXT)
    assert sc.ident == "demo"
    assert sc.prime == 3
    assert sc.precisions == (1, 2)
    assert len(sc.group.generators) == 2


def _format_scenarios(scenarios):
    """Scenario-file text for `scenarios`, in the grammar parse_scenarios reads."""
    def fmt(m):
        return "{},{};{},{}".format(*m)
    lines = []
    for sc in scenarios:
        lines += [f"scenario {sc.ident}", f"prime {sc.prime}",
                  "precisions " + " ".join(map(str, sc.precisions))]
        lines += [f"generator {fmt(g)}" for g in sc.group.generators]
        lines += [f"lattice {fmt(sc.lattice.basis)}",
                  f"lattice2 {fmt(sc.lattice2.basis)}", "end"]
    return "\n".join(lines)


def test_scenario_format_parse_roundtrip():
    family = bundled_scenarios(primes=(2,), precisions=(1, 2))
    again = parse_scenarios(_format_scenarios(family))
    assert [sc.ident for sc in again] == [sc.ident for sc in family]
    assert [sc.group.generators for sc in again] \
        == [sc.group.generators for sc in family]
    assert [sc.lattice2.basis for sc in again] == [sc.lattice2.basis for sc in family]


@pytest.mark.parametrize("text,message", [
    ("prime 3", "outside a scenario"),
    ("scenario a\nprime 3\nend", "missing"),
    ("scenario a\nscenario b", "not closed"),
    ("scenario a\nprime 3\nfrobnicate 1\nend", "unknown directive"),
    ("scenario a\nprime 3", "unterminated"),
    ("scenario a\nprime 3\nprecisions\ngenerator 1,1;0,1\nlattice 1,0;0,1\n"
     "lattice2 1,0;0,1\nend", "^line 7: scenario 'a' has no precisions$"),
    ("scenario a\nprime 3\nprecisions 0\ngenerator 1,1;0,1",
     f"^line 3: precision 0 is outside 1..{MAX_PRECISION}$"),
    ("scenario a\nprime 3\nprecisions 1 -2\ngenerator 1,1;0,1",
     f"^line 3: precision -2 is outside 1..{MAX_PRECISION}$"),
    ("scenario a\nprime 2\nprecisions 1 2 800 0\ngenerator 1,2;0,1",
     f"^line 3: precision 800 is outside 1..{MAX_PRECISION}$"),
])
def test_parse_scenarios_errors(text, message):
    with pytest.raises(LatticeError, match=message):
        parse_scenarios(text)


def test_precision_limit_is_checked_at_parse_time():
    deepest = SCENARIO_TEXT.replace("precisions 1 2", f"precisions 1 {MAX_PRECISION}")
    assert parse_scenarios(deepest)[0].precisions == (1, MAX_PRECISION)
    past = SCENARIO_TEXT.replace("precisions 1 2", f"precisions {MAX_PRECISION + 1}")
    with pytest.raises(LatticeError, match=f"^line 4: precision {MAX_PRECISION + 1} "
                       f"is outside 1..{MAX_PRECISION}$"):
        parse_scenarios(past)
