"""Multiplicative functions and the extremal totient constant."""
import itertools
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from torsionbounds import arith
from torsionbounds.arith import (
    FACTORIZATION_CAP,
    ArithError,
    _b_exact,
    b_epsilon,
    dedekind_psi,
    euler_phi,
    factorize,
)
from torsionbounds.exactvalue import PowerProduct, _factorize, _is_prime, _log_sign

from dict_power_product import DictPowerProduct, assert_matches


def test_factorize_small():
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


def test_factorize_rejects_bad_inputs():
    with pytest.raises(ArithError):
        factorize(0)
    with pytest.raises(ArithError):
        factorize(10 ** 13)


@pytest.mark.parametrize("n,phi,psi", [
    (1, 1, 1),
    (6, 2, 12),
    (9, 6, 12),
    (12, 4, 24),
])
def test_phi_psi_values(n, phi, psi):
    assert euler_phi(n) == phi
    assert dedekind_psi(n) == psi


def test_phi_by_direct_unit_count():
    for n in (2, 3, 4, 12, 30):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1)
                                   if math.gcd(k, n) == 1)


def test_phi_psi_reject_zero():
    with pytest.raises(ArithError):
        euler_phi(0)
    with pytest.raises(ArithError):
        dedekind_psi(0)


@given(st.integers(min_value=1, max_value=1000),
       st.integers(min_value=1, max_value=1000))
def test_multiplicativity_on_coprimes(a, b):
    if math.gcd(a, b) != 1:
        return
    assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
    assert dedekind_psi(a * b) == dedekind_psi(a) * dedekind_psi(b)


@given(st.integers(min_value=2, max_value=10 ** 4))
def test_psi_exceeds_n(n):
    assert dedekind_psi(n) > n


@given(st.integers(min_value=1, max_value=10 ** 4))
def test_phi_psi_product_identity(n):
    prod = n * n
    for p, _ in factorize(n):
        prod = prod // (p * p) * (p * p - 1)
    assert euler_phi(n) * dedekind_psi(n) == prod


# -- b_epsilon --------------------------------------------------------------

def test_b_epsilon_trivial_at_large_epsilon():
    c = b_epsilon(2)
    assert c.witness == 1
    assert_matches(c.value, DictPowerProduct({}))


def test_b_epsilon_half():
    c = b_epsilon(Fraction(1, 2))
    assert c.witness == 2
    assert_matches(c.value, DictPowerProduct({2: Fraction(-1, 2)}))
    assert c.decimal == "0.707106781186"  # rounded down


def test_b_epsilon_tenth():
    c = b_epsilon(Fraction(1, 10))
    assert c.witness == 30
    assert_matches(c.value, DictPowerProduct({8: 1, 30: Fraction(-9, 10)}))


@pytest.mark.parametrize("eps", [Fraction(1, 132), Fraction(1, 1000),
                                 Fraction(1, 100000), Fraction(1, 10**7)])
def test_b_epsilon_refuses_at_the_cap(eps):
    # the primorial walk refuses a witness past 10**12: 37# = 7420738134810
    with pytest.raises(ArithError, match=f"^b_epsilon at epsilon {eps}: the witness "
                       "reaches 37# = 7420738134810, past the cap 1000000000000$"):
        b_epsilon(eps)


def _b_exact_by_euler_phi(epsilon):
    """_b_exact by the earlier route: the primorial walk, deciding each
    factor on exact integers (q < 600 keeps them small), then phi of the
    witness under the cap of factorize; the value on the dict oracle."""
    a, q = epsilon.numerator, epsilon.denominator
    witness = 1
    for p in filter(_is_prime, itertools.count(2)):
        if witness > FACTORIZATION_CAP or (p - 1) ** q * p ** a >= p ** q:
            break
        witness, last = witness * p, p
    if witness > FACTORIZATION_CAP:
        raise ArithError(f"b_epsilon at epsilon {epsilon}: the witness reaches "
                         f"{last}# = {witness}, past the cap {FACTORIZATION_CAP}")
    return witness, (DictPowerProduct({euler_phi(witness): 1})
                     * DictPowerProduct({witness: epsilon - 1}))


def _outcome(f, *args):
    try:
        return f(*args)
    except ArithError as exc:
        return str(exc)


def test_b_exact_matches_the_euler_phi_path():
    for a in range(1, 8):
        for q in range(1, 600):
            eps = Fraction(a, q)
            new, old = _outcome(_b_exact, eps), _outcome(_b_exact_by_euler_phi, eps)
            assert type(new) is type(old), eps
            if isinstance(new, tuple):
                assert new[0] == old[0], eps
                assert_matches(new[1], old[1])
            else:
                assert new == old, eps


def test_b_exact_builds_from_the_primes_it_walked(monkeypatch):
    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(arith, "euler_phi", refuse)
    monkeypatch.setattr(PowerProduct, "from_int", refuse)
    witness, value = _b_exact(Fraction(1, 10))
    assert witness == 30
    assert_matches(value, DictPowerProduct({2: 3, 30: Fraction(-9, 10)}))
    with pytest.raises(ArithError, match="^b_epsilon at epsilon 1/132: the witness "
                       "reaches 37# = 7420738134810, past the cap"):
        _b_exact(Fraction(1, 132))


_SMALL_PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


def _factor_reaches_one(p, a, q):
    """(p-1)**q * p**a >= p**q, that is (p-1)**q * p**(a-q) >= 1, by the
    library's one sign routine, as the walk asks it."""
    return _log_sign([(r, k * q) for r, k in _factorize(p - 1)] + [(p, a - q)]) >= 0


@given(st.sampled_from(_SMALL_PRIMES), st.integers(min_value=2, max_value=3000),
       st.integers(min_value=-2, max_value=2))
@example(2, 2, 0)
@example(3, 1000, 0)
def test_float_first_factor_test_matches_exact(p, q, offset):
    # a sits next to the crossover q*ln(p/(p-1))/ln(p), where the float
    # decision is closest to failing
    crossover = q * math.log1p(1 / (p - 1)) / math.log(p)
    a = min(max(math.floor(crossover) + offset, 1), q - 1)
    assert _factor_reaches_one(p, a, q) == ((p - 1) ** q * p ** a >= p ** q)


def _near_crossover(p, q, offset):
    """(p, a, q) with a = floor(q*ln(p/(p-1))/ln(p)) + offset, and the truth of
    a*ln(p) > q*ln(p/(p-1)) by mpmath at three times the digits of q."""
    with mpmath.workdps(3 * len(str(q)) + 50):
        c = mpmath.log(mpmath.mpf(p) / (p - 1))
        a = int(mpmath.floor(q * c / mpmath.log(p))) + offset
        gap = a * mpmath.log(p) - q * c
        # the reference itself is far from its own rounding error
        assert abs(gap) > mpmath.mpf(10) ** (-len(str(q)))
        return p, a, q, gap > 0


@pytest.mark.parametrize("p,a,q,truth", [
    (2, 10**300 - 1, 10**300, False),
    (2, 10**300, 10**300, True),
    _near_crossover(3, 10**300, 0),
    _near_crossover(3, 10**300, 1),
    _near_crossover(5, 10**300, 0),
    _near_crossover(41, 10**300, 1),
    _near_crossover(7, 10**40, 0),
    # past the float range: the float test overflows
    _near_crossover(3, 10**400, 0),
    _near_crossover(3, 10**400, 1),
])
def test_factor_test_decides_huge_denominators_at_once(p, a, q, truth):
    # the exact powers here have about q digits: forming them never ends
    start = time.perf_counter()
    assert _factor_reaches_one(p, a, q) == truth
    assert time.perf_counter() - start < 1.0


def test_b_epsilon_rejects_nonpositive():
    with pytest.raises(ArithError):
        b_epsilon(0)
    with pytest.raises(ArithError):
        b_epsilon(Fraction(-1, 2))


def test_b_epsilon_decimal_rounds_down():
    c = b_epsilon(Fraction(1, 2), digits=6)
    lo = Fraction(c.decimal)
    assert lo * lo <= Fraction(1, 2)  # (2**-1/2)**2


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 4),
                                 Fraction(1, 2), Fraction(3, 4),
                                 Fraction(9, 10)])
def test_b_epsilon_is_a_lower_bound_nearby(eps):
    # phi(n) >= b_eps * n**(1-eps), exactly, for n up to 3000
    c = b_epsilon(eps)
    a, q = eps.numerator, eps.denominator
    wp, w = euler_phi(c.witness), c.witness
    for n in range(1, 3001):
        # phi(n)/n^(1-eps) >= phi(w)/w^(1-eps)
        assert euler_phi(n) ** q * w ** (q - a) >= wp ** q * n ** (q - a)


def test_b_epsilon_monotone_on_grid():
    grid = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
            Fraction(3, 4), Fraction(9, 10)]
    values = [b_epsilon(e).value for e in grid]
    for lo, hi in zip(values, values[1:]):
        assert lo.compare(hi) <= 0
