"""Multiplicative arithmetic functions and the extremal totient constant.

euler_phi and dedekind_psi are computed from the prime factorization.
b_epsilon computes the exact minimum of phi(n) / n**(1-eps) over all n >= 1:
the minimizer is a primorial, because the per-prime factor (1 - 1/p) * p**eps
is < 1 exactly for an initial run of primes and is strictly increasing in p.
Its exact value depends on epsilon alone, so `_b_exact` keeps the last
B_EXACT_MEMO_SIZE of them (a refusal is raised again on every call).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactvalue import PowerProduct, Rational, _factorize, _is_prime, _log_sign

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
    if n > FACTORIZATION_CAP:
        raise ArithError(f"input {n} exceeds factorization cap {FACTORIZATION_CAP}")
    return _factorize(n)


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
    """(witness, exact value) of b_epsilon, epsilon = a/q.

    Scans primes in increasing order, multiplying the witness by p while
    (1 - 1/p) * p**epsilon = ((p - 1)**q * p**(a - q)) ** (1/q) stays below
    1; it is strictly increasing in p, so the first failure ends the scan.
    The value phi(w) * w**(epsilon - 1) is the product of those factors over
    the primes of w; its exponents over q sum theirs, so each is a mod q, not 0.
    """
    if epsilon <= 0:
        raise ArithError("epsilon must be > 0 (the infimum is 0 otherwise)")
    a, q = epsilon.numerator, epsilon.denominator
    witness, exps = 1, {}
    for p in filter(_is_prime, itertools.count(2)):
        factor = [(r, k * q) for r, k in _factorize(p - 1)] + [(p, a - q)]
        if _log_sign(factor) >= 0:
            break
        # the cap keeps the walk to the primes up to 31 (epsilon above about
        # 1/132); it guards the L-th-root render of values built on b_epsilon
        if witness * p > FACTORIZATION_CAP:
            raise ArithError(f"b_epsilon at epsilon {epsilon}: the witness reaches "
                             f"{p}# = {witness * p}, past the cap {FACTORIZATION_CAP}")
        witness *= p
        for r, k in factor:
            exps[r] = exps.get(r, 0) + k
    return witness, PowerProduct._reduced(q, sorted(exps.items()))
