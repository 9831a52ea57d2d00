"""The {base: Fraction} PowerProduct from before the integer form, kept as
the oracle for `exactvalue.PowerProduct`.

It composes values with `*`, `/` and `**` on a dict of rational exponents
over integer bases, so an oracle built on it never runs
`PowerProduct._product`, the one routine the library builds its values by.
`assert_matches` compares a library value with an oracle value by reduced
form and by `decimal` at both roundings.
"""
import math
from fractions import Fraction

from torsionbounds.exactvalue import PowerProduct, _factorize, _format_scaled, integer_nth_root


class DictPowerProduct:
    """A positive real number prod(b ** e), integer b >= 1, rational e."""

    def __init__(self, factors):
        self.factors = {b: Fraction(e) for b, e in factors.items() if e}

    @staticmethod
    def from_fraction(q):
        q = Fraction(q)
        if q <= 0:
            raise ValueError("PowerProduct represents positive values only")
        return DictPowerProduct({q.numerator: 1}) / DictPowerProduct({q.denominator: 1})

    def __mul__(self, other):
        f = dict(self.factors)
        for b, e in _coerce(other).factors.items():
            f[b] = f.get(b, 0) + e
        return DictPowerProduct(f)

    def __truediv__(self, other):
        return self * _coerce(other) ** -1

    def __pow__(self, exponent):
        return DictPowerProduct({b: e * Fraction(exponent) for b, e in self.factors.items()})

    def prime_exponents(self):
        """{prime: exponent}, the bases factored."""
        primes = {}
        for b, e in self.factors.items():
            for p, k in _factorize(b):
                primes[p] = primes.get(p, 0) + k * e
        return {p: e for p, e in sorted(primes.items()) if e}

    def form(self):
        """(L, ((p, k), ...)): the value as prod(p ** (k / L)), primes
        increasing, L the least common denominator of the exponents."""
        primes = self.prime_exponents()
        L = math.lcm(*(e.denominator for e in primes.values()))
        return L, tuple((p, int(e * L)) for p, e in primes.items())

    def _root_data(self):
        L = math.lcm(*(e.denominator for e in self.factors.values()))
        num = den = 1
        for b, e in self.factors.items():
            k = int(e * L)
            if k >= 0:
                num *= b ** k
            else:
                den *= b ** -k
        return num, den, L

    def compare(self, other):
        num, den, _ = (self / other)._root_data()
        return (num > den) - (num < den)

    def __eq__(self, other):
        if isinstance(other, DictPowerProduct):
            return self.compare(other) == 0
        return NotImplemented

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


def _coerce(x):
    return x if isinstance(x, DictPowerProduct) else DictPowerProduct.from_fraction(x)


def from_library(x: PowerProduct) -> DictPowerProduct:
    """The oracle value of a library value, read off its form."""
    return DictPowerProduct({p: Fraction(k, x._L) for p, k in x._pairs})


def to_library(x: DictPowerProduct) -> PowerProduct:
    """The library value of an oracle value, built from the oracle's form."""
    return PowerProduct._reduced(*x.form())


def assert_matches(x: PowerProduct, oracle: DictPowerProduct, digits: int = 12):
    """x has the oracle's reduced form and renders as the oracle does,
    rounded down and up."""
    assert (x._L, x._pairs) == oracle.form(), (x, oracle.factors)
    for round_up in (False, True):
        assert x.decimal(digits, round_up) == oracle.decimal(digits, round_up), round_up
