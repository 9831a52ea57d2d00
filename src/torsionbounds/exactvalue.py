"""Exact positive reals of the form prod(p_i ** e_i) with rational exponents.

All bound constants produced by this package are products of integer bases
raised to rational powers.  A PowerProduct factors its bases once, when it
is built, and keeps the value as prod(p_i ** (k_i / L)): one exponent
denominator L and sorted (prime, integer k) pairs, reduced so that equal
values have one form.  One routine, `PowerProduct._product`, forms every
product of rational powers by integer arithmetic on that form.  One routine,
`_log_sign`, decides exactly on which side of 1 such a product lies; it
orders two values and drives the primorial walk of `arith.b_epsilon`.
Decimals render with directed rounding, so an emitted upper bound is never
understated and a constant sitting in a denominator is never overstated.
"""
from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

MAX_DIGITS = 4300  # the most digits Python's default int-to-str limit lets an int have


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n by trial division, primes increasing;
    the one factorizer the package uses."""
    if n <= 0:
        raise ValueError(f"can only factor positive integers, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# the least strong pseudoprime to all _PRIME_BASES (Sorenson and Webster 2017)
PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_PRODUCT = math.prod(_PRIME_BASES)


def _is_prime(n: int) -> bool:
    """Whether n is prime: Miller-Rabin to the bases 2..41, the package's one
    primality test, exact below PRIME_TEST_LIMIT (larger n are refused)."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is past the primality-test limit {PRIME_TEST_LIMIT}")
    if n < 2 or math.gcd(n, _BASES_PRODUCT) > 1:
        return n in _PRIME_BASES
    if n < 43 * 43:  # no prime factor up to 41, so none at all
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2**s exactly divides n - 1
    for a in _PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in increasing order, built from its factors."""
    divs = [1]
    for p, k in _factorize(n):
        divs = [d * p ** j for d in divs for j in range(k + 1)]
    return sorted(divs)


def _log_sign(pairs) -> int:
    """-1, 0 or 1 as prod(p ** k) over (prime, integer k) pairs, primes
    distinct, is below, at or above 1: the sign of sum(k * ln p) = u - v,
    with u over the k > 0 and v over the k < 0 (as -k * ln p); by unique
    factorization u = v only when both sums are empty.

    Floats decide first: each term is within a few units in the last place,
    so for n < 10**6 pairs a gap over 1e-9 * max(u, v) has the exact sign.
    Otherwise, or when a float overflows, `decimal` logarithms decide at
    P = 32, 64, ... digits, and no power p ** k is formed.  Decimal(k) is
    exact, ln p is correctly rounded, and each product and each sum rounds
    once, within a relative eta = 5 * 10**-P.  A term of a side of m terms
    takes at most m + 1 roundings, so the side is within a relative
    (1 + eta)**(m + 1) - 1 <= (m + 1) * 10**(1 - P) of its exact value; the
    computed gap is within (n + 1) * 10**(1 - P) * (u + v) <= (u + v) / 2 of
    the exact one, and u + v is below twice its computed value.  So a
    computed gap over 2 * (n + 1) * 10**(1 - P) times the computed u + v has
    the exact sign; the exact gap is nonzero, so some P decides.
    """
    u = v = 0.0
    try:
        for p, k in pairs:
            if k > 0:
                u += k * math.log(p)
            elif k < 0:
                v -= k * math.log(p)
    except OverflowError:
        pass
    else:
        if u == v == 0:  # both sums empty: every term is at least ln 2
            return 0
        if abs(u - v) > 1e-9 * max(u, v):  # undecided when a side is infinite
            return 1 if u > v else -1
    digits = 32
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax = digits, decimal.MAX_EMAX
            u, v = (sum(decimal.Decimal(abs(k)) * decimal.Decimal(p).ln()
                        for p, k in pairs if (k > 0) == side) for side in (True, False))
        gap, scale = Fraction(u) - Fraction(v), Fraction(u) + Fraction(v)
        if abs(gap) * 10 ** (digits - 1) > 2 * (len(pairs) + 1) * scale:
            return 1 if gap > 0 else -1
        digits *= 2


def integer_nth_root(a: int, n: int) -> int:
    """Largest x with x**n <= a (a >= 0, n >= 1)."""
    if a < 0 or n < 1:
        raise ValueError("integer_nth_root needs a >= 0, n >= 1")
    if a in (0, 1) or n == 1:
        return a
    if n == 2:
        return math.isqrt(a)
    # Newton's iteration on integers.  By the AM-GM inequality every step
    # lands at or above the root, and from above the iterates fall strictly
    # until they reach it; so one step is taken unconditionally.  The seed
    # comes from the binary logarithm, shifted so that the float keeps its
    # 53 bits for large roots, and is close enough for O(1) further steps.
    e = math.log2(a) / n
    shift = max(0, int(e) - 60)
    x = (int(2.0 ** (e - shift)) + 1) << shift
    x = ((n - 1) * x + a // x ** (n - 1)) // n
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


class PowerProduct:
    """A positive real number prod(p ** (k / L)) with prime p and integer k.

    Stored as one exponent denominator L >= 1 and a tuple of (p, k) pairs,
    primes increasing, every k nonzero, gcd(L, all k) = 1; so each value has
    exactly one form, and two values are equal when their forms are.
    """

    __slots__ = ("_L", "_pairs")

    @classmethod
    def _reduced(cls, L: int, pairs: list[tuple[int, int]]) -> "PowerProduct":
        """The value prod(p ** (k / L)) over sorted pairs with k nonzero,
        in its reduced form."""
        g = math.gcd(L, *[k for _, k in pairs]) if L > 1 else 1
        x = object.__new__(cls)
        x._L = L // g
        x._pairs = tuple(pairs) if g == 1 else tuple((p, k // g) for p, k in pairs)
        return x

    @staticmethod
    def from_int(n: int) -> "PowerProduct":
        if n <= 0:
            raise ValueError("PowerProduct represents positive values only")
        return PowerProduct._reduced(1, _factorize(n))

    @classmethod
    def _product(cls, terms) -> "PowerProduct":
        """prod(x ** (a / b)) over the (x, a, b) in terms, b >= 1, reduced once."""
        L = math.lcm(*[x._L * b for x, _, b in terms])
        exps = {}
        for x, a, b in terms:
            s = a * (L // (x._L * b))
            for p, k in x._pairs:
                exps[p] = exps.get(p, 0) + k * s
        return cls._reduced(L, sorted((p, k) for p, k in exps.items() if k))

    def _root_data(self) -> tuple[int, int, int]:
        """Return (num, den, L) with value == (num/den) ** (1/L)."""
        num = den = 1
        for p, k in self._pairs:
            if k > 0:
                num *= p ** k
            else:
                den *= p ** -k
        return num, den, self._L

    def compare(self, other: "PowerProduct") -> int:
        """-1, 0 or 1 as self is below, equal to or above other, exactly."""
        return _log_sign(PowerProduct._product(((self, 1, 1), (other, -1, 1)))._pairs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PowerProduct):
            return self._L == other._L and self._pairs == other._pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._L, self._pairs))

    def decimal(self, digits: int = 12, round_up: bool = False) -> str:
        """Decimal string with `digits` significant digits, directed rounding.

        round_up=False never overstates the value; round_up=True never
        understates it.
        """
        if digits < 1:
            raise ValueError("need at least one significant digit")
        num, den, L = self._root_data()
        # scale by 10**s so that m = floor(value * 10**s) has `digits`
        # digits; s starts from the float estimate of the exponent and steps
        # towards the one s that fits (m grows with s, so it never turns back)
        s = digits - 1 - math.floor(math.log10(num) - math.log10(den)) // L
        while True:
            # m**L <= tn/td exactly when m**L <= tn // td
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

    def __repr__(self) -> str:
        parts = [f"{p}^{Fraction(k, self._L)}" for p, k in self._pairs]
        return "PowerProduct(" + (" * ".join(parts) or "1") + ")"


def _format_scaled(m: int, e: int) -> str:
    """Render m * 10**e as a decimal string."""
    digits = str(m)
    if e >= 0:
        if e > 6:
            return _scientific(digits, e + len(digits) - 1)
        return digits + "0" * e
    point = len(digits) + e
    if point > 0:
        return digits[:point] + "." + digits[point:]
    if point > -7:
        return "0." + "0" * (-point) + digits
    return _scientific(digits, point - 1)


def _scientific(digits: str, exp10: int) -> str:
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{mantissa}e{exp10:+d}"
