"""Multiplicative arithmetic functions and the extremal totient constant.

euler_phi and dedekind_psi are computed from the prime factorization.
b_epsilon computes the exact minimum of phi(n) / n**(1-eps) over all n >= 1:
the minimizer is a primorial, because the per-prime factor (1 - 1/p) * p**eps
is < 1 exactly for an initial run of primes and is strictly increasing in p.
Its exact value depends on epsilon alone, so `_b_exact` keeps the last
B_EXACT_MEMO_SIZE of them (a refusal is raised again on every call).
"""
from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .exactvalue import PowerProduct, Rational, _factorize, _is_prime

FACTORIZATION_CAP = 10**12

# the most values of b_epsilon `_b_exact` keeps, one per epsilon
B_EXACT_MEMO_SIZE = 64


class ArithError(ValueError):
    pass


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n, primes increasing, by trial division;
    inputs capped at 10**12."""
    if n < 1:
        raise ArithError(f"can only factor integers >= 1, got {n}")
    _check_cap(n)
    return _factorize(n)


def _check_cap(n: int) -> None:
    if n > FACTORIZATION_CAP:
        raise ArithError(f"input {n} exceeds factorization cap {FACTORIZATION_CAP}")


def euler_phi(n: int) -> int:
    """Count of units mod n."""
    if n < 1:
        raise ArithError(f"euler_phi needs n >= 1, got {n}")
    out = 1
    for p, k in factorize(n):
        out *= p ** (k - 1) * (p - 1)
    return out


def dedekind_psi(n: int) -> int:
    """Multiplicative, psi(p**k) = p**(k-1) * (p+1); psi(n) > n for n > 1."""
    if n < 1:
        raise ArithError(f"dedekind_psi needs n >= 1, got {n}")
    out = 1
    for p, k in factorize(n):
        out *= p ** (k - 1) * (p + 1)
    return out


@dataclass(frozen=True)
class EffectiveConstant:
    """min over n >= 1 of phi(n) / n**(1-epsilon), with its attaining witness."""

    epsilon: Fraction
    witness: int
    value: PowerProduct
    decimal: str  # rounded DOWN, so the constant is never overstated
    digits: int


def b_epsilon(epsilon: Rational, digits: int = 12) -> EffectiveConstant:
    """Exact minimum of phi(n) / n**(1-epsilon) over n >= 1, epsilon > 0."""
    epsilon = Fraction(epsilon)
    witness, value = _b_exact(epsilon)
    return EffectiveConstant(epsilon, witness, value,
                             value.decimal(digits, round_up=False), digits)


@functools.lru_cache(maxsize=B_EXACT_MEMO_SIZE)
def _b_exact(epsilon: Fraction) -> tuple[int, PowerProduct]:
    """(witness, exact value) of b_epsilon.

    Scans primes in increasing order, multiplying the witness by p while the
    per-prime factor (1 - 1/p) * p**epsilon stays below 1; the factor is
    strictly increasing in p, so the first failure ends the scan.
    """
    if epsilon <= 0:
        raise ArithError("epsilon must be > 0 (the infimum is 0 otherwise)")
    a, q = epsilon.numerator, epsilon.denominator
    primes = []
    witness = 1
    for p in filter(_is_prime, itertools.count(2)):
        if a >= q or witness > FACTORIZATION_CAP or _factor_reaches_one(p, a, q):
            break
        primes.append(p)
        witness *= p
    # past the cap the exact value takes minutes to render: refuse the
    # witness as factorize refuses its inputs
    _check_cap(witness)
    # phi(w) * w**(eps - 1) over the denominator q: each p of the squarefree
    # w adds a - q, and phi(w) = prod(p - 1) adds q times the factors of
    # p - 1; with 0 < a < q no exponent sums to 0
    exps = dict.fromkeys(primes, a - q)
    for p in primes:
        for r, k in _factorize(p - 1):
            exps[r] = exps.get(r, 0) + k * q
    return witness, PowerProduct._reduced(q, sorted(exps.items()))


def _factor_reaches_one(p: int, a: int, q: int) -> bool:
    """(1 - 1/p) * p**(a/q) >= 1, that is (p-1)**q * p**a >= p**q, for a
    prime p and integers a, q >= 1.

    For p = 2 that is a >= q.  For p > 2 the two sides are never equal (p - 1
    has a prime factor other than p), so the sign of
    q*ln(p-1) + a*ln(p) - q*ln(p) decides it.  Floating point decides first,
    with an error of a few units in the last place; when the two sides are
    within a relative 1e-9, or a float overflows, `decimal` logarithms of
    growing precision decide, and no power of size q is formed.
    """
    if p == 2:
        return a >= q
    try:
        lhs, rhs = a * math.log(p), q * math.log1p(1 / (p - 1))
    except OverflowError:
        pass
    else:
        # false when either side is infinite
        if abs(lhs - rhs) > 1e-9 * max(lhs, rhs):
            return lhs > rhs
    digits = 32
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax = digits, decimal.MAX_EMAX
            ln_p = Decimal(p).ln()
            u = Decimal(q) * Decimal(p - 1).ln() + Decimal(a) * ln_p
            v = Decimal(q) * ln_p
        # ln is correctly rounded, and each product and the sum round once
        # more, each by half an ulp: u and v, sums of positive terms, are
        # within a relative 2 * 10**(1 - digits) of their exact values, so a
        # gap over 10**(2 - digits) * (u + v) has the sign of the exact one
        gap, scale = Fraction(u) - Fraction(v), Fraction(u) + Fraction(v)
        if abs(gap) * 10 ** (digits - 2) > scale:
            return gap > 0
        digits *= 2
