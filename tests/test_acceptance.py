"""Acceptance gate: one test per headline reproduction criterion.

Each test is self-contained and uses an oracle independent of the code path
it checks (full enumeration, brute-force scans, closed formulas, or
high-precision floating point via mpmath).
"""
import math
from fractions import Fraction

import mpmath
import pytest

from torsionbounds.arith import b_epsilon, dedekind_psi, euler_phi, factorize
from torsionbounds.bounds import (
    BoundContext,
    baselines,
    exponent_candidates,
    theorem_bounds,
)
from torsionbounds.lattice import bundled_scenarios, run_scenario
from torsionbounds.modmatrix import (
    _TRIVIAL_MOD_1,
    Mat2,
    SubgroupModN,
    _count_gl2,
    b1_subgroup,
    enumerate_gl2,
    full_preimage,
    is_full_preimage,
    reduce_subgroup,
    subgroup_closure,
    subgroup_index,
)
from torsionbounds.verify import _sieve, subgroup_family

from dict_power_product import DictPowerProduct, assert_matches, from_library
from entry_codes import entries


def _divisors(n):
    return [m for m in range(1, n + 1) if n % m == 0]


def test_b1_index_formula_up_to_30():
    """Index of B1(n) in GL2(Z/nZ) equals phi(n)*psi(n) for 2 <= n <= 30."""
    for n in range(2, 31):
        brute = enumerate_gl2(n).order // b1_subgroup(n).order
        assert brute == euler_phi(n) * dedekind_psi(n), f"n={n}"


def test_verify_phi_sieve_matches_euler_phi():
    """The tables behind verify's arithmetic references, built by a sieve of
    their own, agree with the library on the references' whole range: phi,
    phi*psi, and n^2 * prod(1 - 1/p^2) over the library's factorization."""
    phi, jordan = _sieve(10000)
    assert phi[0] == jordan[0] == 0
    assert phi[1:] == [euler_phi(n) for n in range(1, 10001)]
    assert jordan[1:] == [euler_phi(n) * dedekind_psi(n) for n in range(1, 10001)]
    for n in range(1, 10001):
        prod = Fraction(n * n)
        for p, _ in factorize(n):
            prod *= 1 - Fraction(1, p * p)
        assert jordan[n] == prod, n


def _mat2_family(n):
    """verify's subgroup family as it was built from `Mat2` generators by
    `subgroup_closure`, kept as the oracle of the family built from entry tuples."""
    out = [("trivial", subgroup_closure([Mat2.identity(n)], n)),
           ("full", full_preimage(SubgroupModN(1, _TRIVIAL_MOD_1), n))]
    if n >= 2:
        units = [u for u in range(2, n) if math.gcd(u, n) == 1]
        gens = [Mat2(n, 1, 1, 0, 1)] + [Mat2(n, u, 0, 0, 1) for u in units]
        gens += [Mat2(n, 1, 0, 0, u) for u in units]
        out += [("b1", b1_subgroup(n)),
                ("borel", subgroup_closure(gens, n)),
                ("sl2ish", subgroup_closure([Mat2(n, 1, 1, 0, 1), Mat2(n, 0, -1, 1, 0)], n)),
                ("cyclic-unipotent", subgroup_closure([Mat2(n, 1, 1, 0, 1)], n)),
                ("scalars", subgroup_closure([Mat2(n, u, 0, 0, u) for u in [1] + units], n))]
    out += [(f"preimage-b1({m})", full_preimage(b1_subgroup(m), n))
            for m in _divisors(n) if 2 <= m < n]
    return out


@pytest.mark.parametrize("n", range(1, 25))
def test_subgroup_family_matches_the_mat2_family(n):
    family = subgroup_family(n)
    oracle = _mat2_family(n)
    assert [name for name, _ in family] == [name for name, _ in oracle]
    for (name, G), (_, H) in zip(family, oracle):
        assert (G.n, G.codes) == (H.n, H.codes), name


def test_preimage_suite_up_to_24():
    """Full preimages preserve the index; non-full ones are detected.

    Detection oracle: the elements of G that are the identity mod m, counted
    and compared with the size |GL2(Z/n)| / |GL2(Z/m)| of the reduction
    kernel, each order counted from the products x*y mod n, independent of
    the Lagrange test and the lift scan under test.
    """
    families = 0
    for n in range(2, 25):
        gl2 = {m: _count_gl2(m) for m in _divisors(n)}
        for name, G in subgroup_family(n):
            families += 1
            elems = entries(G)
            for m in _divisors(n):
                claimed = is_full_preimage(G, m)
                inside = sum(1 for a, b, c, d in elems
                             if not b % m and not c % m
                             and not (a - 1) % m and not (d - 1) % m)
                truth = inside == gl2[n] // gl2[m]
                assert claimed == truth, (n, name, m)
                if claimed:
                    image = reduce_subgroup(G, m)
                    assert subgroup_index(G) == subgroup_index(image), (n, name, m)
    assert families >= 50


def test_lattice_scenarios_all_equal_and_stable():
    """All bundled lattice comparisons report equal indices at k in {1,2,3},
    and the index value is stable once two consecutive precisions agree."""
    family = bundled_scenarios()
    assert len(family) == 27
    for sc in family:
        res = run_scenario(sc)
        assert res.all_equal, sc.ident
        assert res.stable, sc.ident


def _phi_table(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 4),
                                 Fraction(1, 2), Fraction(3, 4),
                                 Fraction(9, 10)])
def test_b_epsilon_equals_brute_force_minimum_to_1e6(eps):
    """Primorial scan == brute-force min of phi(n)/n^(1-eps) over n <= 10^6.

    Float scan locates near-minimal n; the winner among them is confirmed by
    exact integer comparison, then matched against b_epsilon by form and
    decimals on the dict oracle.
    """
    limit = 10 ** 6
    phi = _phi_table(limit)
    expo = float(eps - 1)
    best, best_val = 1, 1.0
    close = []
    for n in range(1, limit + 1):
        val = phi[n] * n ** expo
        if val < best_val * (1 + 1e-9):
            close.append(n)
            if val < best_val:
                best, best_val = n, val
    # exact comparison among the float near-minimizers
    a, q = eps.numerator, eps.denominator
    close = [n for n in close if n == best or
             phi[n] ** q * best ** (q - a) <= phi[best] ** q * n ** (q - a)]
    for n in close:
        # best is minimal: phi(best)/best^(1-eps) <= phi(n)/n^(1-eps)
        assert phi[best] ** q * n ** (q - a) <= phi[n] ** q * best ** (q - a)

    c = b_epsilon(eps)
    assert c.witness == best
    expected = DictPowerProduct({phi[best]: 1}) * DictPowerProduct({best: eps - 1})
    assert_matches(c.value, expected)


def test_sieve_candidates_below_exponent_bound():
    """Every sieve candidate n satisfies n <= c_eps * d^(1/2+eps) across
    I <= 48, d0 <= 3, d <= 50 and the epsilon grid."""
    grid = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    cache = {}
    for d0 in (1, 2, 3):
        for I in range(1, 49):
            for d in range(1, 51):
                ctx = BoundContext(I, d0, d)
                B = 2 * I * math.factorial(d0 - 1) * d
                if B not in cache:
                    cache[B] = exponent_candidates(ctx).candidates
                top = DictPowerProduct({max(cache[B]): 1})
                for eps in grid:
                    bound = theorem_bounds(ctx, eps, digits=1).exponent_bound.exact
                    assert top.compare(from_library(bound)) <= 0, (I, d0, d, eps)


def test_baseline_formulas_against_mpmath():
    """Parent(1) = 376164 exactly; HS and BN match mpmath to 10 digits."""
    assert baselines(1).parent == 376164
    mpmath.mp.dps = 40
    for d in (2, 3, 9, 50):
        base = baselines(d)
        hs_ref = mpmath.mpf(1977408) * d * mpmath.log(d)
        assert abs(base.hindry_silverman - float(hs_ref)) \
            <= abs(hs_ref) * mpmath.mpf("1e-10")
        if d % 2 == 1:
            bn_ref = mpmath.mpf(720720) * mpmath.sqrt(35) * mpmath.sqrt(d)
            got = mpmath.mpf(base.bn_exponent.decimal)
            assert got >= bn_ref  # round-up rendering
            assert abs(got - bn_ref) <= bn_ref * mpmath.mpf("1e-10")
            got2 = mpmath.mpf(base.bn_order.decimal)
            assert got2 >= 2 * bn_ref
            assert abs(got2 - 2 * bn_ref) <= 2 * bn_ref * mpmath.mpf("1e-10")


def test_worked_sieve_examples_with_unbounded_scan():
    """(I=2,d0=1,d=1) -> {1} and (I=6,d0=1,d=1) -> {1,2,4}, cross-checked by
    a brute-force divisibility scan out to four times the recorded ceiling."""
    for I, expected in ((2, (1,)), (6, (1, 2, 4))):
        cs = exponent_candidates(BoundContext(I, 1, 1))
        assert cs.candidates == expected
        brute = tuple(
            n for n in range(1, 4 * cs.ceiling + 1)
            if cs.modulus % (euler_phi(n) * dedekind_psi(n)) == 0)
        assert brute == expected
