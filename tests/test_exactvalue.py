"""Exact prime-power products: arithmetic, comparison, directed rounding."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from torsionbounds import exactvalue
from torsionbounds.exactvalue import (
    PRIME_TEST_LIMIT,
    PowerProduct,
    _factorize,
    _format_scaled,
    _is_prime,
    integer_nth_root,
)


# keep numerators and denominators small: construction factorizes them
rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 6))


def test_from_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        PowerProduct.from_int(0)
    with pytest.raises(ValueError):
        PowerProduct.from_fraction(Fraction(-1, 2))


def test_one_is_empty_product():
    assert PowerProduct.from_int(1) == PowerProduct({})
    assert PowerProduct({}) == Fraction(1)


@pytest.mark.parametrize("base", [0, -1, -12])
def test_bases_below_one_are_refused(base):
    with pytest.raises(ValueError, match="bases must be >= 1"):
        PowerProduct({base: 1})


def test_factors_are_computed_over_prime_bases():
    x = PowerProduct({12: Fraction(1, 2), 3: Fraction(-1, 6), 1: 5})
    assert x.factors == {2: Fraction(1), 3: Fraction(1, 3)}
    x.factors[2] = Fraction(7)  # a new dict on every read
    assert x.factors == {2: Fraction(1), 3: Fraction(1, 3)}
    with pytest.raises(AttributeError):
        x.factors = {}
    assert PowerProduct({6: 1, 2: -1, 3: -1}).factors == {}


@given(rationals, rationals)
def test_mul_div_match_fraction_arithmetic(a, b):
    x = PowerProduct.from_fraction(a)
    y = PowerProduct.from_fraction(b)
    assert x * y == a * b
    assert x / y == a / b


@given(rationals, st.integers(min_value=-6, max_value=6))
def test_integer_powers_match_fraction_arithmetic(a, k):
    x = PowerProduct.from_fraction(a)
    assert x ** k == Fraction(a) ** k


@given(rationals, rationals)
def test_comparison_agrees_with_fractions(a, b):
    x = PowerProduct.from_fraction(a)
    y = PowerProduct.from_fraction(b)
    assert (x < y) == (a < b)
    assert (x == y) == (a == b)
    assert (x >= y) == (a >= b)


def test_hash_agrees_with_eq():
    assert len({PowerProduct.from_int(6), 6}) == 1
    assert hash(PowerProduct({4: 1})) == hash(PowerProduct({2: 2}))
    assert hash(PowerProduct({4: Fraction(1, 2)})) == hash(2)
    assert hash(PowerProduct({12: Fraction(1, 3)})) \
        == hash(PowerProduct({2: Fraction(2, 3), 3: Fraction(1, 3)}))
    assert hash(PowerProduct({6: 1, 3: -1})) == hash(PowerProduct.from_int(2))


@given(st.dictionaries(st.integers(min_value=2, max_value=60),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4),
                       max_size=4))
def test_equal_values_hash_equal(factors):
    x = PowerProduct(factors)
    canonical = PowerProduct({})
    for base, e in factors.items():
        canonical = canonical * PowerProduct.from_int(base) ** e
    assert x == canonical and hash(x) == hash(canonical)
    if all(e.denominator == 1 for e in canonical.factors.values()):
        q = math.prod(Fraction(p) ** int(e) for p, e in canonical.factors.items())
        assert x == q and hash(x) == hash(q)


def test_irrational_comparison_is_exact():
    # 2**(1/2) vs 3**(1/3): 2**3 = 8 < 9 = 3**2, so 2**(1/2) < 3**(1/3)
    sqrt2 = PowerProduct.from_int(2) ** Fraction(1, 2)
    cbrt3 = PowerProduct.from_int(3) ** Fraction(1, 3)
    assert sqrt2 < cbrt3
    assert not sqrt2 == cbrt3
    # and a very tight pair: 5**(1/5) vs 2**(2/5) = 4**(1/5)
    assert PowerProduct.from_int(2) ** Fraction(2, 5) \
        < PowerProduct.from_int(5) ** Fraction(1, 5)


def test_pow_roundtrip_cancels():
    x = PowerProduct.from_int(12) ** Fraction(3, 7)
    assert x ** Fraction(7, 3) == Fraction(12)


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
    assert PowerProduct.from_fraction(Fraction(1, 4)).decimal(3) == "0.250"


def test_decimal_directed_rounding_sqrt2():
    sqrt2 = PowerProduct.from_int(2) ** Fraction(1, 2)
    down = sqrt2.decimal(12, round_up=False)
    up = sqrt2.decimal(12, round_up=True)
    assert down == "1.41421356237"
    assert up == "1.41421356238"


@given(rationals, st.integers(min_value=1, max_value=10),
       st.integers(min_value=2, max_value=5))
def test_decimal_brackets_the_true_value(q, digits, root):
    x = PowerProduct.from_fraction(q) ** Fraction(1, root)
    lo = Fraction(x.decimal(digits, round_up=False))
    hi = Fraction(x.decimal(digits, round_up=True))
    assert lo ** root <= q <= hi ** root
    assert lo <= hi


def test_decimal_scientific_for_extremes():
    big = PowerProduct.from_int(10) ** 30
    assert big.decimal(3) == "1.00e+30"
    small = PowerProduct.from_fraction(Fraction(1, 10 ** 30))
    assert small.decimal(3) == "1.00e-30"


def test_decimal_of_a_tiny_value():
    tiny = PowerProduct.from_fraction(Fraction(1, 10 ** 400))
    assert tiny.decimal() == "1.00000000000e-400"
    assert tiny.decimal(3, round_up=True) == "1.00e-400"
    assert (tiny ** Fraction(1, 3)).decimal(4) == "4.641e-134"


def test_float_matches_math_sqrt():
    sqrt2 = PowerProduct.from_int(2) ** Fraction(1, 2)
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
    lambda factors, t: PowerProduct(factors) * PowerProduct({2: t, 5: t}),
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]),
                    st.fractions(min_value=-30, max_value=30, max_denominator=12),
                    max_size=3),
    st.sampled_from([0, 0, 400, -400]))


# the float estimate of the exponent is one too low for 7 * 10**64 / 7 and
# one too high for (10**30 - 1)**(1/2), so the exponent must step once
@example(PowerProduct({70: 1, 10: 63, 7: -1}), 12, False)
@example(PowerProduct.from_int(10 ** 30 - 1) ** Fraction(1, 2), 12, True)
@example(PowerProduct({2: -400, 5: -400}), 25, True)
@settings(max_examples=300, deadline=None)
@given(small_products, st.integers(min_value=1, max_value=25), st.booleans())
def test_decimal_matches_the_old_renderer(x, digits, round_up):
    assert x.decimal(digits, round_up) == _oracle_decimal(x, digits, round_up)


def test_decimal_takes_the_root_data_once(monkeypatch):
    calls = []
    real = PowerProduct._root_data

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PowerProduct, "_root_data", counted)
    (PowerProduct.from_int(2) ** Fraction(1, 3)).decimal(12, round_up=True)
    assert len(calls) == 1


def test_hash_and_root_data_neither_factor_nor_build_fractions(monkeypatch):
    values = [PowerProduct({12: Fraction(1, 3), 5: -2}), PowerProduct({6: 2, 7: -1})]

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(exactvalue, "_factorize", refuse)
    monkeypatch.setattr(exactvalue, "Fraction", refuse)
    for x in values:
        hash(x)
        x._root_data()


# -- the {base: Fraction} PowerProduct from before the integer form: kept as
# the oracle for arithmetic, comparison, hashing and rendering --------------

class DictPowerProduct:
    """A positive real number prod(b ** e), integer b >= 1, rational e."""

    def __init__(self, factors):
        self.factors = factors

    @staticmethod
    def from_fraction(q):
        q = Fraction(q)
        if q <= 0:
            raise ValueError("PowerProduct represents positive values only")
        f = {p: Fraction(k) for p, k in _factorize(q.numerator)}
        for p, k in _factorize(q.denominator):
            f[p] = f.get(p, Fraction(0)) - k
        return DictPowerProduct({p: e for p, e in f.items() if e})

    def __mul__(self, other):
        other = _dict_coerce(other)
        f = dict(self.factors)
        for p, e in other.factors.items():
            e2 = f.get(p, Fraction(0)) + e
            if e2:
                f[p] = e2
            else:
                f.pop(p, None)
        return DictPowerProduct(f)

    def __truediv__(self, other):
        return self * _dict_coerce(other) ** -1

    def __pow__(self, exponent):
        exponent = Fraction(exponent)
        if exponent == 0:
            return DictPowerProduct({})
        return DictPowerProduct({p: e * exponent for p, e in self.factors.items()})

    def _root_data(self):
        L = 1
        for e in self.factors.values():
            L = math.lcm(L, e.denominator)
        num = den = 1
        for p, e in self.factors.items():
            k = int(e * L)
            if k >= 0:
                num *= p ** k
            else:
                den *= p ** (-k)
        return num, den, L

    def compare(self, other):
        num, den, _ = (self / _dict_coerce(other))._root_data()
        return (num > den) - (num < den)

    def __eq__(self, other):
        if isinstance(other, (DictPowerProduct, int, Fraction)):
            return self.compare(other) == 0
        return NotImplemented

    def __hash__(self):
        primes = {}
        for base, e in self.factors.items():
            for p, k in _factorize(base):
                primes[p] = primes.get(p, 0) + k * e
        primes = {p: e for p, e in primes.items() if e}
        if all(e.denominator == 1 for e in primes.values()):
            return hash(math.prod(Fraction(p) ** int(e) for p, e in primes.items()))
        return hash(frozenset(primes.items()))

    def decimal(self, digits, round_up=False):
        num, den, L = self._root_data()
        s = digits - 1 - math.floor(math.log10(num) - math.log10(den)) // L
        while True:
            tn, td = (num * 10 ** (s * L), den) if s >= 0 else (num, den * 10 ** (-s * L))
            m = integer_nth_root(tn // td, L)
            if m < 10 ** (digits - 1):
                s += 1
            elif m >= 10 ** digits:
                s -= 1
            else:
                break
        if round_up and m ** L * td != tn:
            m += 1
        return _format_scaled(m, -s)


def _dict_coerce(x):
    return x if isinstance(x, DictPowerProduct) else DictPowerProduct.from_fraction(x)


def _prime_exponents(x: DictPowerProduct) -> dict:
    primes = {}
    for base, e in x.factors.items():
        for p, k in _factorize(base):
            primes[p] = primes.get(p, 0) + k * e
    return {p: e for p, e in primes.items() if e}


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


def _apply(x, chain, cls):
    for op, arg in chain:
        if op == "pow":
            x = x ** arg
        elif op == "mul":
            x = x * cls(arg)
        else:
            x = x / cls(arg)
    return x


def _both(value):
    f, chain = value
    return (_apply(PowerProduct(f), chain, PowerProduct),
            _apply(DictPowerProduct(f), chain, DictPowerProduct))


@settings(max_examples=150, deadline=None)
@given(chained_values(), chained_values(), st.integers(min_value=1, max_value=40))
def test_integer_form_matches_the_dict_oracle(value, other, digits):
    x, old = _both(value)
    y, old_y = _both(other)
    assert x.factors == _prime_exponents(old)
    for round_up in (False, True):
        assert x.decimal(digits, round_up) == old.decimal(digits, round_up)
    assert x.compare(y) == old.compare(old_y)
    assert (x == y) == (old == old_y)
    # the same value by another path has the same form and hash
    same = PowerProduct(old.factors)
    assert x == same and hash(x) == hash(same) and repr(x) == repr(same)
    if all(e.denominator == 1 for e in x.factors.values()):
        q = math.prod(Fraction(p) ** int(e) for p, e in x.factors.items())
        assert x == q and old == q
        assert hash(x) == hash(q) == hash(old)
    else:
        # three digits keep the Fraction cheap to factor
        assert x != Fraction(x.decimal(3)) and old != Fraction(old.decimal(3))


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
    assert got.factors == _prime_exponents(want)
    assert got == PowerProduct(want.factors)


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
