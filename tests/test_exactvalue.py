"""Exact prime-power products: the one product, comparison, directed rounding."""
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from torsionbounds import exactvalue
from torsionbounds.exactvalue import (
    PRIME_TEST_LIMIT,
    PowerProduct,
    _format_scaled,
    _is_prime,
    integer_nth_root,
)

from dict_power_product import DictPowerProduct, assert_matches, to_library


# keep numerators and denominators small: construction factorizes them
rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 6))


def _root(n, a, b):
    """n ** (a/b) by the library."""
    return PowerProduct._product(((PowerProduct.from_int(n), a, b),))


def _from_fraction(q):
    """The rational q by the library: its numerator over its denominator."""
    return PowerProduct._product(((PowerProduct.from_int(q.numerator), 1, 1),
                                  (PowerProduct.from_int(q.denominator), -1, 1)))


def test_from_int_rejects_nonpositive():
    for n in (0, -1):
        with pytest.raises(ValueError):
            PowerProduct.from_int(n)


def test_one_is_empty_product():
    one = PowerProduct.from_int(1)
    assert (one._L, one._pairs) == (1, ())
    assert one == PowerProduct._product(()) == _root(6, 0, 1)
    assert repr(one) == "PowerProduct(1)"


def test_factors_are_computed_over_prime_bases():
    # 12**(1/2) * 3**(-1/6) * 1**5 = 2 * 3**(1/3)
    x = PowerProduct._product(((PowerProduct.from_int(12), 1, 2),
                               (PowerProduct.from_int(3), -1, 6),
                               (PowerProduct.from_int(1), 5, 1)))
    assert (x._L, x._pairs) == (3, ((2, 3), (3, 1)))
    assert repr(x) == "PowerProduct(2^1 * 3^1/3)"
    assert _root(6, 1, 1) == _from_fraction(Fraction(6))
    assert _from_fraction(Fraction(6, 6)) == PowerProduct.from_int(1)


@given(rationals, rationals)
def test_mul_div_match_fraction_arithmetic(a, b):
    x, y = _from_fraction(a), _from_fraction(b)
    assert_matches(PowerProduct._product(((x, 1, 1), (y, 1, 1))),
                   DictPowerProduct.from_fraction(a * b))
    assert_matches(PowerProduct._product(((x, 1, 1), (y, -1, 1))),
                   DictPowerProduct.from_fraction(a / b))


@given(rationals, st.integers(min_value=-6, max_value=6))
def test_integer_powers_match_fraction_arithmetic(a, k):
    x = _from_fraction(a)
    assert_matches(PowerProduct._product(((x, k, 1),)),
                   DictPowerProduct.from_fraction(Fraction(a) ** k))


@given(rationals, rationals)
def test_comparison_agrees_with_fractions(a, b):
    x, y = _from_fraction(a), _from_fraction(b)
    assert x.compare(y) == (a > b) - (a < b)
    assert (x == y) == (a == b)


def test_hash_agrees_with_eq():
    two = PowerProduct.from_int(2)
    six = PowerProduct._product(((two, 1, 1), (_root(3, 1, 1), 1, 1)))
    assert len({PowerProduct.from_int(6), six}) == 1
    assert hash(PowerProduct.from_int(4)) == hash(_root(2, 2, 1))
    assert hash(_root(4, 1, 2)) == hash(two)
    assert hash(_root(12, 1, 3)) \
        == hash(PowerProduct._product(((two, 2, 3), (_root(3, 1, 3), 1, 1))))
    # equality is between PowerProducts alone
    assert PowerProduct.from_int(6) != 6 and two != Fraction(2)


@given(st.dictionaries(st.integers(min_value=2, max_value=60),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4),
                       max_size=4))
def test_equal_values_hash_equal(factors):
    x = PowerProduct._product([(PowerProduct.from_int(base), e.numerator, e.denominator)
                               for base, e in factors.items()])
    canonical = to_library(DictPowerProduct(factors))
    assert x == canonical and hash(x) == hash(canonical)
    assert_matches(x, DictPowerProduct(factors))


def test_irrational_comparison_is_exact():
    # 2**(1/2) vs 3**(1/3): 2**3 = 8 < 9 = 3**2, so 2**(1/2) < 3**(1/3)
    sqrt2, cbrt3 = _root(2, 1, 2), _root(3, 1, 3)
    assert (sqrt2.compare(cbrt3), cbrt3.compare(sqrt2)) == (-1, 1)
    assert not sqrt2 == cbrt3
    # and a very tight pair: 5**(1/5) vs 2**(2/5) = 4**(1/5)
    assert _root(2, 2, 5).compare(_root(5, 1, 5)) == -1


def _integer_compare(x, y):
    """compare as it was: the quotient raised to its exponent denominator,
    numerator against denominator, in exact integers."""
    num, den, _ = PowerProduct._product(((x, 1, 1), (y, -1, 1)))._root_data()
    return (num > den) - (num < den)


@given(st.sampled_from([(2, 3), (2, 5), (3, 5), (3, 7), (5, 7), (2, 11)]),
       st.integers(min_value=1, max_value=3000), st.integers(min_value=-1, max_value=1),
       st.integers(min_value=1, max_value=12))
def test_compare_matches_the_integer_compare_near_ties(bases, b, offset, L):
    # p**(a/L) against r**(b/L) with a next to b * log_p(r), where the two
    # are closest
    p, r = bases
    a = max(1, round(b * math.log(r) / math.log(p)) + offset)
    x, y = _root(p, a, L), _root(r, b, L)
    assert x.compare(y) == _integer_compare(x, y) == -y.compare(x)


@pytest.mark.parametrize("a,b", [(301994, 190537), (176251, 111202)])
def test_compare_decides_convergent_near_ties(a, b):
    # a/b are convergents of log2(3): the logarithms of 2**a and 3**b are
    # within the float branch's relative 1e-9, so `decimal` logarithms decide
    u, v = a * math.log(2), b * math.log(3)
    assert abs(u - v) <= 1e-9 * max(u, v)
    x, y = _root(2, a, 1), _root(3, b, 1)
    truth = (2 ** a > 3 ** b) - (2 ** a < 3 ** b)
    assert x.compare(y) == _integer_compare(x, y) == truth
    assert y.compare(x) == -truth


@pytest.mark.parametrize("offset", [0, 1])
def test_compare_decides_exponents_of_300_digits_at_once(offset):
    # 2**(a/q) against 3**(b/q) at q = 10**300: the integer compare would
    # raise both to q, integers of about 10**300 bits
    q, b = 10 ** 300, 10 ** 300 - 1
    with mpmath.workdps(700):
        a = int(mpmath.floor(b * mpmath.log(3) / mpmath.log(2))) + offset
        gap = a * mpmath.log(2) - b * mpmath.log(3)
        assert abs(gap) > mpmath.mpf(10) ** -300
    start = time.perf_counter()
    assert _root(2, a, q).compare(_root(3, b, q)) == (1 if gap > 0 else -1)
    assert time.perf_counter() - start < 1.0


def test_pow_roundtrip_cancels():
    x = _root(12, 3, 7)
    assert PowerProduct._product(((x, 7, 3),)) == PowerProduct.from_int(12)


@given(st.integers(min_value=0, max_value=2 ** 4000),
       st.integers(min_value=1, max_value=200))
def test_integer_nth_root_floor(a, n):
    r = integer_nth_root(a, n)
    assert r ** n <= a < (r + 1) ** n


@given(st.integers(min_value=2 ** 59, max_value=2 ** 80 - 1),
       st.integers(min_value=3, max_value=200))
def test_integer_nth_root_of_exact_powers(r, n):
    # roots of 60-80 bits: more than a float carries
    assert integer_nth_root(r ** n, n) == r
    assert integer_nth_root(r ** n - 1, n) == r - 1


def test_decimal_rational_exact():
    assert PowerProduct.from_int(376164).decimal(12) == "376164.000000"
    assert _from_fraction(Fraction(1, 4)).decimal(3) == "0.250"


def test_decimal_directed_rounding_sqrt2():
    sqrt2 = _root(2, 1, 2)
    down = sqrt2.decimal(12, round_up=False)
    up = sqrt2.decimal(12, round_up=True)
    assert down == "1.41421356237"
    assert up == "1.41421356238"


@given(rationals, st.integers(min_value=1, max_value=10),
       st.integers(min_value=2, max_value=5))
def test_decimal_brackets_the_true_value(q, digits, root):
    x = PowerProduct._product(((_from_fraction(q), 1, root),))
    lo = Fraction(x.decimal(digits, round_up=False))
    hi = Fraction(x.decimal(digits, round_up=True))
    assert lo ** root <= q <= hi ** root
    assert lo <= hi


def test_decimal_scientific_for_extremes():
    assert _root(10, 30, 1).decimal(3) == "1.00e+30"
    assert _root(10, -30, 1).decimal(3) == "1.00e-30"


def test_decimal_of_a_tiny_value():
    tiny = _from_fraction(Fraction(1, 10 ** 400))
    assert tiny.decimal() == "1.00000000000e-400"
    assert tiny.decimal(3, round_up=True) == "1.00e-400"
    assert PowerProduct._product(((tiny, 1, 3),)).decimal(4) == "4.641e-134"


def test_float_matches_math_sqrt():
    sqrt2 = _root(2, 1, 2)
    assert math.isclose(float(sqrt2.decimal(17)), math.sqrt(2), rel_tol=1e-15)


# -- the renderer before it found its exponent on the root it takes: kept
# as the oracle for `PowerProduct.decimal` ------------------------------

def _oracle_floor_log10(x: PowerProduct) -> int:
    num, den, L = x._root_data()
    k = int(math.floor(math.log10(num) - math.log10(den)) // L) if num > 1 or den > 1 else 0
    a, b = (num, den * 10 ** (k * L)) if k >= 0 else (num * 10 ** (-k * L), den)
    step = 10 ** L
    while a >= b * step:
        k += 1
        b *= step
    while a < b:
        k -= 1
        a *= step
    return k


def _oracle_decimal(x: PowerProduct, digits: int, round_up: bool) -> str:
    num, den, L = x._root_data()
    s = digits - 1 - _oracle_floor_log10(x)
    if s >= 0:
        tn, td = num * 10 ** (s * L), den
    else:
        tn, td = num, den * 10 ** (-s * L)
    m = integer_nth_root(tn // td, L)
    if round_up and m ** L * td != tn:
        m += 1
    return _format_scaled(m, -s)


# products of small primes with exponents of denominator <= 12, some times
# 10**400 or 10**-400
small_products = st.builds(
    lambda factors, t: to_library(DictPowerProduct(factors) * DictPowerProduct({10: t})),
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]),
                    st.fractions(min_value=-30, max_value=30, max_denominator=12),
                    max_size=3),
    st.sampled_from([0, 0, 400, -400]))


# the float estimate of the exponent is one too low for 7 * 10**64 / 7 and
# one too high for (10**30 - 1)**(1/2), so the exponent must step once
@example(to_library(DictPowerProduct({70: 1, 10: 63, 7: -1})), 12, False)
@example(to_library(DictPowerProduct({10 ** 30 - 1: Fraction(1, 2)})), 12, True)
@example(_root(10, -400, 1), 25, True)
@settings(max_examples=300, deadline=None)
@given(small_products, st.integers(min_value=1, max_value=25), st.booleans())
def test_decimal_matches_the_old_renderer(x, digits, round_up):
    assert x.decimal(digits, round_up) == _oracle_decimal(x, digits, round_up)


def test_decimal_takes_the_root_data_once(monkeypatch):
    calls = []
    real = PowerProduct._root_data
    x = _root(2, 1, 3)

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PowerProduct, "_root_data", counted)
    x.decimal(12, round_up=True)
    assert len(calls) == 1


def test_hash_and_root_data_neither_factor_nor_build_fractions(monkeypatch):
    values = [to_library(DictPowerProduct({12: Fraction(1, 3), 5: -2})),
              to_library(DictPowerProduct({6: 2, 7: -1}))]

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(exactvalue, "_factorize", refuse)
    monkeypatch.setattr(exactvalue, "Fraction", refuse)
    for x in values:
        hash(x)
        x._root_data()


# -- the one product against the dict oracle, which forms each value one
# product, quotient and power at a time ------------------------------------

# composite bases 2..60 with exponents of denominator <= 12, then a chain
# of products, quotients and rational powers; all exponents of one value
# share a set of denominators whose lcm is at most 12, so that L, and with
# it the cost of a 40-digit render, stays small
DENOMINATOR_SETS = [(1, 2, 3, 4, 6, 12), (1, 2, 5, 10), (1, 7), (1, 8), (1, 9), (1, 11)]


@st.composite
def chained_values(draw):
    dens = draw(st.sampled_from(DENOMINATOR_SETS))

    def factors(max_size):
        return st.dictionaries(
            st.integers(min_value=2, max_value=60),
            st.builds(Fraction, st.integers(-36, 36), st.sampled_from(dens)),
            max_size=max_size)

    chain = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(["mul", "div"]), factors(2)),
        st.tuples(st.just("pow"), st.builds(Fraction, st.integers(-3, 3),
                                            st.integers(1, 3)))),
        max_size=3))
    return draw(factors(4)), chain


def _library_value(factors):
    return PowerProduct._product([(PowerProduct.from_int(base), e.numerator, e.denominator)
                                  for base, e in factors.items()])


def _both(value):
    """The chained value by `_product`, one call per step, and by the oracle."""
    f, chain = value
    x, old = _library_value(f), DictPowerProduct(f)
    for op, arg in chain:
        if op == "pow":
            x = PowerProduct._product(((x, arg.numerator, arg.denominator),))
            old = old ** arg
        else:
            sign = 1 if op == "mul" else -1
            x = PowerProduct._product(((x, 1, 1), (_library_value(arg), sign, 1)))
            old = old * DictPowerProduct(arg) ** sign
    return x, old


@settings(max_examples=150, deadline=None)
@given(chained_values(), chained_values(), st.integers(min_value=1, max_value=40))
def test_integer_form_matches_the_dict_oracle(value, other, digits):
    x, old = _both(value)
    y, old_y = _both(other)
    assert_matches(x, old, digits)
    assert x.compare(y) == old.compare(old_y) == _integer_compare(x, y)
    assert (x == y) == (old == old_y)
    # the same value by another path has the same form, hash and repr
    same = to_library(old)
    assert x == same and hash(x) == hash(same) and repr(x) == repr(same)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(chained_values(), st.integers(-6, 6), st.integers(1, 6)),
                max_size=4))
@example([])
@example([(({2: Fraction(1, 2)}, []), 2, 1), (({4: Fraction(-1, 2)}, []), 1, 1)])
def test_one_product_matches_the_chained_operations(terms):
    """_product over (x, a, b) equals the product of the x ** (a/b) formed
    one power and one product at a time, on the dict oracle."""
    got = PowerProduct._product([(_both(value)[0], a, b) for value, a, b in terms])
    want = DictPowerProduct({})
    for value, a, b in terms:
        want = want * _both(value)[1] ** Fraction(a, b)
    # by form alone: L reaches the thousands here, too many for a render
    assert (got._L, got._pairs) == want.form()


# -- the primality test against trial division --------------------------------

def _prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_2e5():
    assert all(_is_prime(n) == _prime_by_trial_division(n) for n in range(200_000))


@given(st.integers(min_value=-10, max_value=10 ** 10))
def test_is_prime_matches_trial_division(n):
    assert _is_prime(n) == _prime_by_trial_division(n)


PRIMES_NEAR_1E5 = [p for p in range(99_000, 101_000) if _prime_by_trial_division(p)]


@given(st.sampled_from(PRIMES_NEAR_1E5), st.sampled_from(PRIMES_NEAR_1E5))
def test_is_prime_rejects_products_of_two_primes(p, q):
    assert not _is_prime(p * q)


# the least strong pseudoprime to the first t prime bases, for t = 1..12
# (some t share one); the last passes every base up to 37, so only base 41
# rejects it
@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461])
def test_strong_pseudoprimes_are_composite(n):
    assert not _is_prime(n)


@pytest.mark.parametrize("p", [10 ** 18 + 3, 10 ** 24 + 7,
                               3317044064679887385961813])
def test_large_primes_are_prime(p):
    assert _is_prime(p)


def test_is_prime_refuses_at_the_limit():
    assert PRIME_TEST_LIMIT == 3317044064679887385961981
    for n in (PRIME_TEST_LIMIT, PRIME_TEST_LIMIT + 2, 10 ** 30):
        with pytest.raises(ValueError, match="past the primality-test limit"):
            _is_prime(n)
