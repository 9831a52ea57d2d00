"""GL2(Z/nZ) arithmetic: orders, closures, reductions, preimages, levels."""
import dataclasses
import math
import pickle
from collections import Counter, deque
from functools import lru_cache
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from torsionbounds import modmatrix, verify
from torsionbounds.bounds import BoundContext, sieve_modulus
from torsionbounds.exactvalue import _divisors
from torsionbounds.modmatrix import (
    EnumerationTooLargeError,
    Mat2,
    ModMatrixError,
    _closure,
    _inv,
    _lifts,
    _mul,
    _reduce,
    b1_subgroup,
    enumerate_gl2,
    full_preimage,
    gl2_order,
    is_full_preimage,
    level_within,
    reduce_subgroup,
    subgroup_closure,
    subgroup_index,
)

from entry_codes import decode, encode, entries


# -- Mat2 basics ------------------------------------------------------------

def test_entries_are_canonicalized():
    g = Mat2(5, 7, -1, 10, 6)
    assert g.entries == (2, 4, 0, 1)


def test_non_unit_determinant_rejected():
    with pytest.raises(ModMatrixError, match="^determinant 2 is not a unit mod 4$"):
        Mat2(4, 1, 0, 0, 2)  # det 2, not a unit mod 4
    # the determinant of the reduced entries is named
    with pytest.raises(ModMatrixError, match="^determinant 0 is not a unit mod 6$"):
        Mat2(6, 8, 3, 4, -9)


def test_mat2_keywords_replace_and_pickle():
    g = Mat2(n=5, a=7, b=-1, c=10, d=6)
    assert g == Mat2(5, 7, -1, 10, 6) and g.entries == (2, 4, 0, 1)
    # replace goes through the same validating constructor
    assert dataclasses.replace(g, b=-6) == Mat2(5, 2, 4, 0, 1)
    assert dataclasses.replace(g, n=3).entries == (2, 1, 0, 1)
    with pytest.raises(ModMatrixError, match="^determinant 0 is not a unit mod 5$"):
        dataclasses.replace(g, d=0)
    with pytest.raises(TypeError):
        Mat2(5, 1, 0, 0)
    for h in (g, Mat2.identity(1), Mat2(36, 35, 1, 6, 5)):
        again = pickle.loads(pickle.dumps(h))
        assert again == h and hash(again) == hash(h)
        assert (again.n, again.entries) == (h.n, h.entries)


def test_mat2_is_frozen_and_slotted():
    g = Mat2(5, 1, 2, 3, 4)
    for name in ("n", "a", "b", "c", "d"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, 0)
    assert not hasattr(g, "__dict__")
    assert (g.n, g.entries) == (5, (1, 2, 3, 4))


@pytest.mark.parametrize("n", range(1, 9))
def test_mat2_order_equality_and_hash_match_tuples(n):
    # the tuple (n, a, b, c, d) is the oracle for sorting, equality and hashing
    tuples = sorted((n, a, b, c, d) for a in range(n) for b in range(n)
                    for c in range(n) for d in range(n)
                    if math.gcd(a * d - b * c, n) == 1)
    elems = sorted(enumerate_gl2(n).elements)
    assert [(g.n, *g.entries) for g in elems] == tuples
    for g, t in zip(elems, tuples):
        again = Mat2(t[0], *(x + n for x in t[1:]))
        assert g == again and hash(g) == hash(again) == hash(t)
    assert all(x < y and x != y for x, y in zip(elems, elems[1:]))


def test_invalid_modulus():
    for n in (0, -3):
        with pytest.raises(ModMatrixError, match=f"^modulus must be >= 1, got {n}$"):
            Mat2(n, 1, 0, 0, 1)
    with pytest.raises(ModMatrixError, match="^modulus must be >= 1, got 0$"):
        gl2_order(0)
    for build in (lambda: enumerate_gl2(0), lambda: full_preimage(b1_subgroup(2), 0)):
        with pytest.raises(ModMatrixError, match="^modulus must be >= 1, got 0$"):
            build()


@st.composite
def gl2_elements(draw, n_max=12):
    n = draw(st.integers(min_value=2, max_value=n_max))
    pool = sorted(enumerate_gl2(n).elements)
    return draw(st.sampled_from(pool))


def _inverse(g):
    return Mat2(g.n, *_inv(g.entries, g.n))


@given(gl2_elements())
def test_inverse_is_two_sided(g):
    ident = Mat2.identity(g.n).entries
    assert _mul(g.entries, _inverse(g).entries, g.n) == ident
    assert _mul(_inverse(g).entries, g.entries, g.n) == ident


def det(g):
    return (g.a * g.d - g.b * g.c) % g.n


@given(gl2_elements())
def test_det_multiplicative_with_inverse(g):
    ident = Mat2.identity(g.n)
    assert (det(g) * det(_inverse(g))) % g.n == det(ident)


# -- orders and enumeration -------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 1), (2, 6), (3, 48), (4, 96),
                                        (12, 4608), (30, 138240)])
def test_gl2_order_values(n, expected):
    assert gl2_order(n) == expected


def test_enumeration_matches_order_formula():
    for n in range(1, 13):
        assert len(enumerate_gl2(n)) == gl2_order(n)


def test_enumeration_mod3_dets():
    elems = enumerate_gl2(3)
    assert len(elems) == 48
    assert {det(g) for g in elems.elements} == {1, 2}


def test_enumeration_cap_enforced():
    # |GL2(Z/100)| = 28,800,000 > 10**7: refused from the order, before any scan
    with pytest.raises(EnumerationTooLargeError) as info:
        enumerate_gl2(100)
    assert info.value.size == 28_800_000
    assert "10000000" in str(info.value)


def test_every_enumeration_guard_reads_the_cap(monkeypatch):
    monkeypatch.setattr(modmatrix, "ENUMERATION_CAP", 10)
    # mid-BFS guard of the closure: GL2(Z/3) has 48 elements
    with pytest.raises(EnumerationTooLargeError, match="11 elements exceeds cap 10"):
        subgroup_closure(
            [Mat2(3, 1, 1, 0, 1), Mat2(3, 0, 2, 1, 0), Mat2(3, 2, 0, 0, 1)], 3)
    assert subgroup_closure([Mat2(3, 1, 1, 0, 1)], 3).order == 3
    # size pre-checks
    with pytest.raises(EnumerationTooLargeError, match="48 elements exceeds cap 10"):
        enumerate_gl2(3)
    with pytest.raises(EnumerationTooLargeError, match="36 elements exceeds cap 10"):
        full_preimage(b1_subgroup(3), 6)
    with pytest.raises(EnumerationTooLargeError, match="48 elements exceeds cap 10"):
        verify.run_verification_suite(3)


def test_verify_precheck_covers_every_modulus(monkeypatch):
    # |GL2(Z/8)| = 1536 fits, but |GL2(Z/7)| = 2016 does not: the suite
    # must refuse before it enumerates anything
    monkeypatch.setattr(modmatrix, "ENUMERATION_CAP", gl2_order(8))
    def no_enumeration(*args):
        raise AssertionError("enumerated before the cap pre-check")
    for module in (modmatrix, verify):
        monkeypatch.setattr(module, "_lifts", no_enumeration)
    monkeypatch.setattr(modmatrix, "_closure", no_enumeration)
    with pytest.raises(EnumerationTooLargeError, match="2016 elements exceeds cap 1536"):
        verify.run_verification_suite(8)


def test_verify_reports_a_wrong_gl2_order_as_failed(monkeypatch):
    real = gl2_order
    def off_by_one_at_2(n):
        return real(n) + (n == 2)
    # the closed form as the library and the suite see it
    for module in (modmatrix, verify):
        monkeypatch.setattr(module, "gl2_order", off_by_one_at_2)
    report = verify.SuiteReport()
    verify._check_gl2_orders(report, 6)
    verify._check_crt_orders(report, 6)
    assert [(c.name, c.status) for c in report.checks] == [
        ("gl2-order-vs-enumeration", "fail"), ("crt-order-consistency", "fail")]
    assert report.checks[0].detail == "mismatches at [2]"
    assert report.checks[1].detail == "mismatches [(2, 3), (2, 3, 'enum')]"


def test_crt_order_multiplicativity():
    for a, b in [(2, 3), (3, 4), (4, 5), (5, 6), (2, 15)]:
        assert gl2_order(a * b) == gl2_order(a) * gl2_order(b)


# -- closure ----------------------------------------------------------------

def test_closure_of_identity_is_trivial():
    G = subgroup_closure([Mat2.identity(5)], 5)
    assert G.order == 1


def test_closure_unipotent_mod3():
    G = subgroup_closure([Mat2(3, 1, 1, 0, 1)], 3)
    assert G.order == 3


def test_closure_generates_full_gl2_mod2():
    G = subgroup_closure([Mat2(2, 0, 1, 1, 0), Mat2(2, 1, 1, 0, 1)], 2)
    assert G.order == 6
    assert G == enumerate_gl2(2)


def test_closure_idempotent():
    G = subgroup_closure([Mat2(8, 1, 1, 0, 1), Mat2(8, 3, 0, 0, 1)], 8)
    again = subgroup_closure(list(G.elements), 8)
    assert G == again


@pytest.mark.parametrize("gens,n", [
    ([(1, 1, 0, 1), (0, 2, 1, 0), (2, 0, 0, 1)], 3),
    ([(1, 1, 0, 1), (0, 5, 1, 0)], 6),
    ([(2, 0, 0, 1), (1, 1, 0, 1)], 5),
    ([(1, 0, 0, 1)], 4),
    ([(1, 1, 0, 1)], 5),
    # all of GL2(Z/5): Dimino stops inside SL2 (120 elements), and the cap
    # falls on the listing of the determinant preimage (480)
    ([(1, 1, 0, 1), (0, 4, 1, 0), (2, 0, 0, 1)], 5),
])
def test_closure_cap_boundary(monkeypatch, gens, n):
    order = len(_bfs_closure(gens, n))
    monkeypatch.setattr(modmatrix, "ENUMERATION_CAP", order)
    assert len(_closure(gens, n)) == order
    if order > 1:
        monkeypatch.setattr(modmatrix, "ENUMERATION_CAP", order - 1)
        with pytest.raises(EnumerationTooLargeError,
                           match=f"^enumeration of {order} elements exceeds cap {order - 1}$"):
            _closure(gens, n)


def test_exit_refuses_before_listing(monkeypatch):
    # Dimino would refuse at the 201st element; the exit names the true size
    # of the group, |SL2(Z/5)| * 4 = 480, and lists nothing
    def no_listing(*args, **kwargs):
        raise AssertionError("listed before the cap check")
    monkeypatch.setattr(modmatrix, "ENUMERATION_CAP", 200)
    monkeypatch.setattr(modmatrix, "_lifts", no_listing)
    with pytest.raises(EnumerationTooLargeError,
                       match="^enumeration of 480 elements exceeds cap 200$"):
        _closure([(1, 1, 0, 1), (0, 4, 1, 0), (2, 0, 0, 1)], 5)


def test_closure_rejects_mixed_moduli():
    with pytest.raises(ModMatrixError, match="^generator .* has modulus 8, expected 4$"):
        subgroup_closure([Mat2.identity(4), Mat2.identity(8)], 4)


# -- B1 subgroup ------------------------------------------------------------

def test_b1_small_orders():
    assert b1_subgroup(2).order == 2
    assert b1_subgroup(3).order == 6


def test_b1_needs_n_at_least_2():
    with pytest.raises(ModMatrixError, match="^B1\\(n\\) is defined for n >= 2, got 1$"):
        b1_subgroup(1)


def test_b1_first_column_fixed():
    for g in b1_subgroup(6).elements:
        a, _, c, _ = g.entries
        assert (a, c) == (1, 0)


@pytest.mark.parametrize("n,index", [(2, 3), (4, 12)])
def test_b1_index_examples(n, index):
    assert subgroup_index(b1_subgroup(n)) == index


def test_full_group_has_index_one():
    assert subgroup_index(enumerate_gl2(6)) == 1


# -- reduction and preimages ------------------------------------------------

def test_reduce_b1_4_to_2():
    assert reduce_subgroup(b1_subgroup(4), 2) == b1_subgroup(2)


def test_reduce_to_1_is_trivial():
    assert reduce_subgroup(b1_subgroup(6), 1).order == 1


def test_reduce_full_6_to_3_is_full():
    assert reduce_subgroup(enumerate_gl2(6), 3) == enumerate_gl2(3)


def test_reduce_rejects_non_divisor():
    with pytest.raises(ModMatrixError, match="^4 does not divide modulus 6$"):
        reduce_subgroup(b1_subgroup(6), 4)


def test_preimage_of_trivial_mod1_is_full():
    trivial = subgroup_closure([Mat2.identity(1)], 1)
    assert full_preimage(trivial, 3) == enumerate_gl2(3)


def test_preimage_b1_2_in_4():
    G = full_preimage(b1_subgroup(2), 4)
    assert G.order == 32
    assert subgroup_index(G) == 3


def test_preimage_b1_2_in_8_preserves_index():
    assert subgroup_index(full_preimage(b1_subgroup(2), 8)) == 3


def test_preimage_then_reduce_is_identity():
    H = b1_subgroup(3)
    assert reduce_subgroup(full_preimage(H, 9), 3) == H


def test_reduce_then_preimage_contains_original():
    G = b1_subgroup(8)
    back = full_preimage(reduce_subgroup(G, 2), 8)
    assert all(g in back for g in G.elements)


def test_is_full_preimage_examples():
    assert is_full_preimage(full_preimage(b1_subgroup(2), 4), 2)
    assert not is_full_preimage(b1_subgroup(4), 2)
    assert is_full_preimage(enumerate_gl2(4), 1)


def test_level_within_examples():
    assert level_within(enumerate_gl2(12)) == 1
    assert level_within(full_preimage(b1_subgroup(2), 8)) == 2
    assert level_within(b1_subgroup(4)) == 4


# -- helpers ----------------------------------------------------------------

def test_divisors_sorted():
    assert _divisors(12) == [1, 2, 3, 4, 6, 12]


def _oracle_divisors(n):
    """The divisors of n by trial division up to its square root, an oracle
    that does not factor n."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def test_divisors_match_trial_division_oracle():
    for n in range(1, 3001):
        assert _divisors(n) == _oracle_divisors(n), n
    for I, d0, d in [(6, 1, 10), (100000, 5, 10000), (24, 8, 48), (1, 13, 150)]:
        B = sieve_modulus(BoundContext(I, d0, d))
        assert _divisors(B) == _oracle_divisors(B), B


# -- differential: the entry-tuple kernel against a Mat2-object oracle -----
#
# The oracle is a breadth-first closure over validated Mat2 objects with its
# own product formula, so it shares no code with modmatrix's _mul, _inv,
# _reduce and _closure (the first three are lattice's arithmetic too).

def _oracle_mul(x, y):
    return Mat2(x.n, x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
                x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d)


def _oracle_closure(gens, n):
    """A finite group is the monoid its generators span: no inverses needed."""
    ident = Mat2(n, 1, 0, 0, 1)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _oracle_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _oracle_contains_kernel(elements, n, m):
    """All matrices = I mod m with unit determinant mod n lie in `elements`."""
    ones, zeros = range(1 % m, n, m), range(0, n, m)
    return all(Mat2(n, a, b, c, d) in elements
               for a in ones for b in zeros for c in zeros for d in ones
               if math.gcd(a * d - b * c, n) == 1)


@lru_cache(maxsize=None)
def _oracle_gl2(n):
    return [Mat2(n, a, b, c, d) for a in range(n) for b in range(n)
            for c in range(n) for d in range(n)
            if math.gcd(a * d - b * c, n) == 1]


@st.composite
def generator_sets(draw, n_max=12):
    n = draw(st.integers(min_value=1, max_value=n_max))
    entry = st.integers(min_value=0, max_value=n - 1)
    unit_det = st.tuples(entry, entry, entry, entry).filter(
        lambda e: math.gcd(e[0] * e[3] - e[1] * e[2], n) == 1)
    gens = draw(st.lists(unit_det, min_size=1, max_size=3))
    return n, [Mat2(n, *e) for e in gens]


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.data())
def test_kernel_closure_matches_oracle(case, data):
    n, gens = case
    oracle = _oracle_closure(gens, n)
    G = subgroup_closure(gens, n)
    assert G.order == len(oracle)
    assert set(G.elements) == oracle
    assert all(g in G for g in oracle)
    truths = {m: _oracle_contains_kernel(oracle, n, m) for m in _divisors(n)}
    for m, truth in truths.items():
        assert is_full_preimage(G, m) == truth, m
    assert level_within(G) == min(m for m, t in truths.items() if t)
    m = data.draw(st.sampled_from(_divisors(n)))
    image = {Mat2(m, g.a, g.b, g.c, g.d) for g in oracle}
    assert set(reduce_subgroup(G, m).elements) == image
    lifted = {g for g in _oracle_gl2(n) if Mat2(m, g.a, g.b, g.c, g.d) in image}
    assert set(full_preimage(reduce_subgroup(G, m), n).elements) == lifted


# -- differential: the inline kernel loops against the code they replaced ---
#
# The closure once multiplied by the generators and their inverses, queued in
# a deque; the full-preimage test compared |G| * |GL2(Z/m)| with |image| *
# |GL2(Z/n)|, and later counted the elements of G that are the identity mod
# m; the reduction called _reduce per element.

def _oracle_inverse_closure(gens, m):
    ident = (1 % m, 0, 0, 1 % m)
    full = list(dict.fromkeys(x for g in gens for x in (g, _inv(g, m))))
    seen = {ident}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in full:
            y = _mul(x, g, m)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _bfs_closure(gens, m):
    """The closure before Dimino's algorithm: a breadth-first search over
    products with the generators only, each element computed once per
    generator."""
    ident = (1 % m, 0, 0, 1 % m)
    gens = list(dict.fromkeys(gens))
    seen = {ident}
    frontier = [ident]
    while frontier:
        grown = []
        for x in frontier:
            for g in gens:
                y = _mul(x, g, m)
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    return seen


def _oracle_image_order_test(G, m):
    image_order = len({_reduce(e, m) for e in entries(G)})
    return G.order * gl2_order(m) == image_order * gl2_order(G.n)


def _oracle_kernel_count(G, m):
    """G contains the kernel of reduction n -> m iff it holds
    |GL2(Z/n)|/|GL2(Z/m)| elements that are the identity mod m."""
    kernel = sum(1 for a, b, c, d in entries(G)
                 if not b % m and not c % m and not (a - 1) % m and not (d - 1) % m)
    return kernel * gl2_order(m) == gl2_order(G.n)


@st.composite
def generator_lists_with_repeats(draw):
    n, gens = draw(generator_sets())
    extra = draw(st.lists(st.sampled_from(gens + [Mat2.identity(n)]), max_size=3))
    return n, draw(st.permutations(gens + extra))


def _b1_preimage_case(m, n):
    """Generators of the full preimage of B1(m) in GL2(Z/n): each element of
    the preimage that the closure of those taken so far misses."""
    gens, seen = [], set()
    for e in sorted(entries(full_preimage(b1_subgroup(m), n))):
        if encode(e, n) not in seen:
            gens.append(e)
            seen = _closure(gens, n)
    return n, [Mat2(n, *e) for e in gens]


@st.composite
def b1_preimages(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    return _b1_preimage_case(draw(st.sampled_from(_divisors(n)[1:])), n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(generator_lists_with_repeats(), b1_preimages()))
@example((1, [Mat2.identity(1)]))
@example((1, [Mat2.identity(1), Mat2.identity(1)]))
@example((6, [Mat2.identity(6), Mat2(6, 1, 1, 0, 1), Mat2(6, 1, 1, 0, 1)]))
@example((12, [Mat2(12, 5, 0, 0, 1), Mat2(12, 5, 0, 0, 1), Mat2(12, 0, 11, 1, 0)]))
# the split Cartan mod 16: |K_2| = 4096 does not divide its order 64
@example((16, [Mat2(16, u, 0, 0, v) for u in (1, 3, 15) for v in (1, 3, 15)]))
# all of GL2(Z/12): every kernel is listed in full
@example((12, [Mat2(12, 1, 1, 0, 1), Mat2(12, 0, 11, 1, 0), Mat2(12, 5, 0, 0, 1),
               Mat2(12, 7, 0, 0, 1)]))
def test_kernel_loops_match_their_earlier_versions(case):
    _check_kernel_loops(*case)


# built when the test runs, so a faulty lift scan fails these, not collection
@pytest.mark.parametrize("m, n", [(2, 12), (4, 8)])
def test_kernel_loops_on_b1_preimages(m, n):
    _check_kernel_loops(*_b1_preimage_case(m, n))


def _check_kernel_loops(n, gens):
    G = subgroup_closure(gens, n)
    elems = entries(G)
    assert elems == _oracle_inverse_closure([g.entries for g in gens], n)
    truths = {m: _oracle_kernel_count(G, m) for m in _divisors(n)}
    for m, truth in truths.items():
        assert truth == _oracle_image_order_test(G, m), m
        assert is_full_preimage(G, m) == truth, m
        assert entries(reduce_subgroup(G, m)) == {_reduce(e, m) for e in elems}
    assert level_within(G) == min(m for m, t in truths.items() if t)
    assert reduce_subgroup(G, n) is G
    assert entries(reduce_subgroup(G, 1)) == {(0, 0, 0, 0)}


_T9, _T9_SQ, _S9 = Mat2(9, 1, 1, 0, 1), Mat2(9, 1, 2, 0, 1), Mat2(9, 0, 8, 1, 0)


@settings(max_examples=60, deadline=None)
@given(generator_lists_with_repeats())
# a generator already in the group so far: t, then t squared
@example((9, [_T9, _T9_SQ]))
@example((9, [_T9, _T9_SQ, _S9, _T9_SQ]))
# the first generator generates the whole group: 2 has order 4 mod 5
@example((5, [Mat2(5, 2, 0, 0, 2), Mat2(5, 4, 0, 0, 4), Mat2(5, 3, 0, 0, 3)]))
# the identity first and last, and duplicates
@example((6, [Mat2.identity(6), Mat2(6, 1, 1, 0, 1), Mat2(6, 0, 5, 1, 0),
              Mat2.identity(6)]))
@example((12, [Mat2(12, 5, 0, 0, 1), Mat2(12, 0, 11, 1, 0), Mat2(12, 5, 0, 0, 1),
               Mat2(12, 0, 11, 1, 0)]))
@example((1, [Mat2.identity(1)]))
@example((1, [Mat2.identity(1), Mat2.identity(1)]))
def test_closure_matches_breadth_first_search(case):
    n, gens = case
    generators = [g.entries for g in gens]
    assert entries(subgroup_closure(gens, n)) == _bfs_closure(generators, n)


# -- differential: the bucketed lift scan against the per-candidate scan ----

def _span_table(units, n):
    """Byte table over Z/n of the subgroup of units generated by `units`,
    by closing {1} under multiplication: with no units, {1}, so SL2."""
    span = {1 % n}
    while True:
        grown = span | {x * u % n for x in span for u in units}
        if grown == span:
            return bytes(x in span for x in range(n))
        span = grown


def _oracle_lifts(images, m, n, dets):
    """The lift scan before its rows were bucketed: one table test per
    candidate (a, b, c, d)."""
    return ((a, b, c, d)
            for ha, hb, hc, hd in images
            for a in range(ha, n, m)
            for d in range(hd, n, m)
            for b in range(hb, n, m)
            for c in range(hc, n, m)
            if dets[(a * d - b * c) % n])


@st.composite
def lift_cases(draw):
    """Images mod m, m | n <= 24, and the generators of the allowed
    determinants: None for the units (the default table), or a list of units
    whose span D is allowed, as the closure's exit passes it; [] is SL2."""
    n = draw(st.integers(min_value=1, max_value=24))
    m = draw(st.sampled_from(_divisors(n)))
    # any subset, not only subgroups, so rows with different c starts meet
    pool = [g.entries for g in _oracle_gl2(m)]
    images = draw(st.sets(st.sampled_from(pool), max_size=6))
    unit = st.sampled_from([u for u in range(n) if math.gcd(u, n) == 1])
    spanned = draw(st.none() | st.lists(unit, max_size=2))
    return images, m, n, spanned


@settings(max_examples=60, deadline=None)
@given(lift_cases())
@example((frozenset({(0, 0, 0, 0)}), 1, 24, None))
@example((frozenset(), 1, 24, None))
@example((frozenset(), 1, 24, []))
@example((frozenset({(0, 0, 0, 0)}), 1, 1, None))
@example((frozenset({(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1)}), 24, 24, None))
@example((frozenset({(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 0), (2, 1, 1, 1)}), 3, 24, None))
# SL2(Z/24) from m = 1, and det^-1({1, 3, 9, 11}) in GL2(Z/16)
@example((frozenset({(0, 0, 0, 0)}), 1, 24, []))
@example((frozenset({(0, 0, 0, 0)}), 1, 16, [3]))
def test_lifts_match_the_gcd_scan(case):
    images, m, n, spanned = case
    codes = [encode(e, m) for e in images]
    if spanned is None:
        dets = bytes(math.gcd(x, n) == 1 for x in range(n))
        lifted = _lifts(codes, m, n)
    else:
        dets = _span_table(spanned, n)
        lifted = _lifts(codes, m, n, dets)
    assert {decode(code, n) for code in lifted} == frozenset(_oracle_lifts(images, m, n, dets))


def _scan_gl2_size(n):
    """|GL2(Z/n)| as the sum of the row lengths of the determinant scan: for
    each (a, d), the (b, c) with a*d - b*c a unit, counted once per value
    of a*d mod n.  Takes time of order n^3."""
    units = modmatrix._unit_table(n)
    lengths = {}
    total = 0
    for a in range(n):
        for d in range(n):
            ad = a * d % n
            if ad not in lengths:
                lengths[ad] = sum(units[(ad - b * c) % n] for b in range(n) for c in range(n))
            total += lengths[ad]
    return total


def _unit_sum_count(n):
    """|GL2(Z/n)| as the count summed it before it took the shorter sum: over
    the units u alone, of the sum over t of f(t)*f(t - u)."""
    f = Counter(x * y % n for x in range(n) for y in range(n))
    return sum(f[t] * f[(t - u) % n]
               for u in range(n) if math.gcd(u, n) == 1 for t in range(n))


def test_gl2_count_from_row_lengths(monkeypatch):
    # the count holds no element, so the order may pass the enumeration cap
    # (|GL2(Z/59)| and beyond); it uses neither the factorizer nor the
    # closed form, and is refused by its n^2 pairs alone; n = 1 and the primes
    # take the sum over the non-units, 6 and 30 over the units, 15 over its 7
    # non-units against 8 units
    def unused(n):
        raise AssertionError("the count factored n or read the closed form")
    monkeypatch.setattr(modmatrix, "_factorize", unused)
    monkeypatch.setattr(modmatrix, "gl2_order", unused)
    for n in range(1, 85):
        size = modmatrix._count_gl2(n)
        assert size == _scan_gl2_size(n) == _unit_sum_count(n), n
        if n <= 30:
            assert size == sum(1 for _ in _lifts([0], 1, n)), n
    monkeypatch.undo()
    prime_powers = (4, 8, 9, 16, 25, 27, 49, 81, 121, 125, 128, 169, 243, 289, 343,
                    361, 529, 625, 729, 841, 961, 1024, 1331)
    for n in (1, 2) + prime_powers + (3137, 3162):
        assert modmatrix._count_gl2(n) == gl2_order(n), n


def test_gl2_count_refuses_past_the_cap_in_pairs(monkeypatch):
    # 3162^2 = 9,998,244 pairs fit the cap of 10^7; 3163^2 do not
    assert 3162 ** 2 <= modmatrix.ENUMERATION_CAP < 3163 ** 2
    def no_scan(*args):
        raise AssertionError("scanned before the refusal")
    monkeypatch.setattr(modmatrix, "_unit_table", no_scan)
    with pytest.raises(ModMatrixError, match="^counting GL2\\(Z/3163\\) visits 10004569 "
                                             "pairs, which exceeds cap 10000000$"):
        modmatrix._count_gl2(3163)
    # the cap is read at each call
    monkeypatch.setattr(modmatrix, "ENUMERATION_CAP", 99)
    with pytest.raises(ModMatrixError, match="^counting GL2\\(Z/10\\) visits 100 pairs"):
        modmatrix._count_gl2(10)


def test_verify_holds_sets_only_up_to_24_and_counts_b1_to_310():
    # the cap is checked for the moduli whose checks hold sets, n <= 24;
    # |GL2(Z/59)| = 11,908,560 is over the cap and is only counted
    assert gl2_order(59) > modmatrix.ENUMERATION_CAP
    report = verify.run_verification_suite(59)
    assert report.ok and report.failed == 0
    b1 = [c for c in report.checks if c.name == "b1-index-formula"]
    assert [(c.status, c.params) for c in b1] == [("pass", "2<=n<=:59")]
    # the b1 counts stop before the sum of n^2 over 2..N passes the cap
    assert sum(n * n for n in range(2, 311)) <= modmatrix.ENUMERATION_CAP
    assert sum(n * n for n in range(2, 312)) > modmatrix.ENUMERATION_CAP
    report = verify.run_verification_suite(400)
    assert report.ok
    assert ("PASS b1-index-formula [2<=n<=:310] index equals phi(n)*psi(n)\n"
            in verify.format_report(report))


# -- differential: the coded engine against the entry-tuple code it replaced -
#
# Until elements were stored as codes, the closure, the lift scan and the
# reduction built and hashed one entry tuple per element.  Those versions
# are kept here as they were, and the coded ones must give the same sets,
# decoded, on both sides of the closure's row-table threshold (2*n^2
# elements in the group so far).

def _tuple_closure(gens, m):
    """Dimino's closure over entry tuples."""
    ident = (1 % m, 0, 0, 1 % m)
    seen = {ident}
    used = []
    for gen in dict.fromkeys(gens):
        if gen in seen:
            continue
        used.append(gen)
        H = list(seen)
        candidates = [gen]
        while candidates:
            x = candidates.pop()
            if x in seen:
                continue
            if len(seen) + len(H) > modmatrix.ENUMERATION_CAP:
                raise EnumerationTooLargeError(modmatrix.ENUMERATION_CAP + 1,
                                               modmatrix.ENUMERATION_CAP)
            e, f, g, h = x
            seen.update([((a * e + b * g) % m, (a * f + b * h) % m,
                          (c * e + d * g) % m, (c * f + d * h) % m)
                         for a, b, c, d in H])
            candidates.extend([_mul(x, s, m) for s in used])
    return seen


def _tuple_lifts(images, m, n):
    """The row-tabulated lift scan over entry tuples."""
    unit = bytes(math.gcd(x, n) == 1 for x in range(n))
    rows = {}
    for ha, hb, hc, hd in images:
        for a in range(ha, n, m):
            for d in range(hd, n, m):
                ad = a * d % n
                row = rows.get((ad, hb, hc))
                if row is None:
                    pairs = [(b, c) for b in range(hb, n, m)
                             for c in range(hc, n, m) if unit[(ad - b * c) % n]]
                    row = rows[ad, hb, hc] = tuple(zip(*pairs)) or ((), ())
                yield from zip(repeat(a), *row, repeat(d))


def _tuple_reduce(elems, m):
    return frozenset((a % m, b % m, c % m, d % m) for a, b, c, d in elems)


@lru_cache(maxsize=None)
def _tuple_gl2(n):
    return frozenset(_tuple_lifts([(0, 0, 0, 0)], 1, n))


def _unit_entries(n):
    entry = st.integers(min_value=0, max_value=n - 1)
    return st.tuples(entry, entry, entry, entry).filter(
        lambda e: math.gcd(e[0] * e[3] - e[1] * e[2], n) == 1)


def _units(n):
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _borel_generators(n):
    us = _units(n)
    return [(1, 1 % n, 0, 1 % n)] + [(u, 0, 0, 1) for u in us] + [(1, 0, 0, u) for u in us]


@st.composite
def coded_cases(draw):
    """A modulus n <= 24; generators: none, random ones, or the Borel or
    split Cartan generators (past the row-table threshold for most n), with
    repeats and the identity mixed in; a divisor m of n to lift from; and
    membership queries."""
    n = draw(st.integers(min_value=1, max_value=24))
    family = draw(st.sampled_from(["none", "random", "borel", "cartan"]))
    if family == "random":
        gens = draw(st.lists(_unit_entries(n), min_size=1, max_size=3))
    elif family == "borel":
        gens = _borel_generators(n)
    elif family == "cartan":
        gens = _borel_generators(n)[1:]
    else:
        gens = []
    ident = (1 % n, 0, 0, 1 % n)
    extra = draw(st.lists(st.sampled_from(gens + [ident]), max_size=3))
    gens = draw(st.permutations(gens + extra))
    m = draw(st.sampled_from(_divisors(n)))
    queries = draw(st.lists(_unit_entries(n), max_size=8))
    return n, gens, m, queries


@settings(max_examples=30, deadline=None)
@given(coded_cases())
@example((1, [], 1, [(0, 0, 0, 0)]))
@example((1, [(0, 0, 0, 0), (0, 0, 0, 0)], 1, []))
@example((24, [], 12, [(1, 0, 0, 1), (5, 0, 0, 1)]))
@example((24, [(1, 0, 0, 1), (1, 0, 0, 1)], 1, [(1, 1, 0, 1)]))
# the Borel group mod 8: 128 elements, never past 2*8^2 = 128
@example((8, _borel_generators(8), 2, [(1, 1, 0, 1), (0, 1, 1, 0), (3, 0, 4, 1)]))
# all of GL2(Z/12) and GL2(Z/24), past the threshold from the third generator
@example((12, [(1, 1, 0, 1), (0, 11, 1, 0), (5, 0, 0, 1), (7, 0, 0, 1), (1, 1, 0, 1)],
          4, [(0, 1, 1, 0)]))
@example((24, [(1, 1, 0, 1), (0, 23, 1, 0)] + [(u, 0, 0, 1) for u in _units(24)],
          6, [(7, 2, 3, 1)]))
def test_coded_engine_matches_the_tuple_engine(case):
    n, gens, m, queries = case
    oracle = _tuple_closure(gens, n)
    G = subgroup_closure([Mat2(n, *g) for g in gens], n)
    assert entries(G) == oracle
    assert entries(enumerate_gl2(n)) == _tuple_gl2(n)
    truths = {}
    for d in _divisors(n):
        assert entries(reduce_subgroup(G, d)) == _tuple_reduce(oracle, d), d
        kernel = sum(1 for a, b, c, e in oracle
                     if not b % d and not c % d and not (a - 1) % d and not (e - 1) % d)
        truths[d] = kernel == sum(1 for _ in _tuple_lifts([(1 % d, 0, 0, 1 % d)], d, n))
        assert is_full_preimage(G, d) == truths[d], d
    assert level_within(G) == min(d for d, t in truths.items() if t)
    lifted = set(_tuple_lifts(_tuple_reduce(oracle, m), m, n))
    assert entries(full_preimage(reduce_subgroup(G, m), n)) == lifted
    for q in queries + sorted(oracle)[:4]:
        assert (Mat2(n, *q) in G) == (q in oracle), q


@pytest.mark.parametrize("n", [1, 2, 12])
def test_full_preimage_test_at_the_trivial_kernels(n):
    groups = [subgroup_closure([Mat2.identity(n)], n), enumerate_gl2(n)]
    if n >= 2:
        groups.append(b1_subgroup(n))
    for G in groups:
        for m in (1, n):
            assert is_full_preimage(G, m) == _oracle_image_order_test(G, m), (G, m)


def test_membership_needs_matching_modulus():
    assert Mat2(4, 1, 1, 0, 1) in enumerate_gl2(4)
    assert Mat2(2, 1, 1, 0, 1) not in enumerate_gl2(4)
    assert Mat2(4, 0, 1, 1, 0) not in b1_subgroup(4)


# -- Lagrange, via hypothesis over random generator picks -------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.data())
def test_random_subgroup_order_divides_group_order(n, data):
    pool = sorted(enumerate_gl2(n).elements)
    gens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    G = subgroup_closure(gens, n)
    assert gl2_order(n) % G.order == 0
    assert Mat2.identity(n) in G


# -- differential: the exit past SL2 against the oracles --------------------
#
# Once the elements found pass half of C = det^-1(D), D generated by the
# determinants of the generators used so far, the closure stops Dimino and
# lists det^-1(D_all) by the lift scan.  The breadth-first closure and the
# entry-tuple engine never stop early, so they check the whole set.

def _sl2_pair(n):
    """t = (1,1;0,1) and s = (0,-1;1,0) mod n, which generate SL2(Z/n)."""
    return [(1 % n, 1 % n, 0, 1 % n), (0, -1 % n, 1 % n, 0)]


@st.composite
def sl2_cases(draw):
    """A modulus n <= 24 and generators of a group that holds SL2(Z/n): t and
    s conjugated by one random element, and up to two random generators,
    in random order."""
    n = draw(st.integers(min_value=1, max_value=24))
    c = draw(_unit_entries(n))
    ci = _inv(c, n)
    pair = [_mul(_mul(ci, g, n), c, n) for g in _sl2_pair(n)]
    extra = draw(st.lists(_unit_entries(n), max_size=2))
    return n, draw(st.permutations(pair + extra))


def _closure_and_exits(gens, n):
    """subgroup_closure of the entry tuples `gens`, and the code sets the
    exit returned."""
    real = modmatrix._det_preimage
    returned = []

    def spy(dets, m, sl2_order):
        returned.append(real(dets, m, sl2_order))
        return returned[-1]

    with mock.patch.object(modmatrix, "_det_preimage", spy):
        G = subgroup_closure([Mat2(n, *g) for g in gens], n)
    return G, returned


_T16, _S16 = _sl2_pair(16)
_T2, _S2 = _sl2_pair(2)

# the pair first, last and interleaved with other generators, at n = 2,
# where SL2 is all of GL2, and at n = 16; each takes the exit
_EXIT_CASES = [
    (2, [_T2, _S2, (1, 0, 1, 1)]),
    (2, [(1, 0, 1, 1), _T2, _S2]),
    (2, [_T2, (1, 0, 1, 1), _S2]),
    (16, [_T16, _S16]),
    (16, [_T16, _S16, (3, 0, 0, 1)]),
    (16, [(3, 0, 0, 1), (1, 0, 0, 5), _T16, _S16]),
    (16, [_T16, (3, 0, 0, 1), _S16, (1, 0, 0, 5)]),
]


@settings(max_examples=30, deadline=None)
@given(sl2_cases())
# at n = 1 both are I, and the exit is never taken
@example((1, _sl2_pair(1) + [(0, 0, 0, 0)]))
@example((1, [(0, 0, 0, 0)] + _sl2_pair(1)))
# a first stage of order 3 that the pair's t doubles to all of SL2(Z/2)
# in its last coset, so nothing is left for the exit to save
@example((2, [(0, 1, 1, 1), _T2]))
def test_closure_past_sl2_matches_the_oracles(case):
    n, gens = case
    G, returned = _closure_and_exits(gens, n)
    assert entries(G) == _bfs_closure(gens, n) == _tuple_closure(gens, n)
    # at most the first stage whose group holds SL2 takes the exit, before
    # a coset it would form, and that set is the group's own, not a copy
    assert len(returned) <= (n > 1)
    if returned:
        assert G.codes is returned[0]


@pytest.mark.parametrize("n,gens", _EXIT_CASES)
def test_closure_past_sl2_takes_the_exit(n, gens):
    G, returned = _closure_and_exits(gens, n)
    assert len(returned) == 1 and G.codes is returned[0]
    assert entries(G) == _bfs_closure(gens, n) == _tuple_closure(gens, n)


def test_borel_mod_7_never_takes_the_exit(monkeypatch):
    # the largest closure mod l the lattice check runs: 252 elements pass
    # the gate 4*|found| > 7^3 but not the lower bound |SL2(Z/7)| * 2 = 672
    # on |C| (two distinct determinants at least), so D is never spanned
    def no_span(*args):
        raise AssertionError("spanned D")
    monkeypatch.setattr(modmatrix, "_unit_span", no_span)
    gens = _borel_generators(7)
    for order in (gens, gens[::-1], gens[1:] + gens[:1]):
        with mock.patch.object(modmatrix, "_sl2_order", wraps=modmatrix._sl2_order) as sl2:
            G, returned = _closure_and_exits(order, 7)
        assert returned == [] and sl2.call_count >= 1
        assert entries(G) == _bfs_closure(order, 7) and G.order == 252


@st.composite
def determinant_cases(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    unit = st.integers(min_value=0, max_value=n - 1).filter(lambda u: math.gcd(u, n) == 1)
    return n, draw(st.lists(unit, max_size=3))


@settings(max_examples=40, deadline=None)
@given(determinant_cases())
@example((1, []))
@example((12, []))
@example((12, [5, 7]))
@example((16, [3]))
def test_determinant_preimage_matches_brute_force(case):
    n, dets = case
    span = _span_table(dets, n)
    want = {(a, b, c, d) for a in range(n) for b in range(n) for c in range(n)
            for d in range(n) if span[(a * d - b * c) % n]}
    preimage = modmatrix._det_preimage(dets, n, modmatrix._sl2_order(n))
    assert {decode(code, n) for code in preimage} == want
