"""Admissible torsion exponents and explicit polynomial bound constants.

Given the adelic index I of a fixed curve over a degree-d0 field, a torsion
exponent n over a degree-d field must satisfy phi(n) * psi(n) | 2*I*(d0-1)!*d.
The sieve enumerates all such n; the c/C constants turn the same divisibility
into closed-form polynomial bounds in d.  All candidate decisions are exact
integer arithmetic; emitted decimal bounds round up, constants in
denominators round down.

The curves of one isogeny class share I, and usually d0, so the `bounds`
command asks for the same values once per curve.  Each is built once per
value it depends on, in a bounded `functools.lru_cache` whose size is a
module constant: the candidate set per modulus B (`_sieve`, SIEVE_MEMO_SIZE),
the two bounds per (N = 2*I*(d0-1)!, d, eps, digits) (`_theorem_bounds`,
BOUNDS_MEMO_SIZE), and b_eps per eps (`arith._b_exact`).  The refusals run
before the memos, on every call, and an error is never cached.  Cached
values are immutable.  Measured full under tracemalloc, the sieve memo held
31 MB with the 64 largest candidate sets found among 8,350 smooth moduli
under CEILING_BUDGET (15,811 candidates at most), and the bounds memo
2.6 MB with 256 entries at 4300 digits.  On tests/golden/records.csv, whose
first two curves share a class, `bounds --degree 10 --epsilon 1/60` takes
0.54 s in-process at 12 digits and 2.2 s at 40, against 0.82 s and 3.5 s
when every record rebuilt them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import TorsionBoundsError
from .arith import _b_exact
from .exactvalue import MAX_DIGITS, PowerProduct, Rational, _divisors, _is_prime

# rational upper bound for zeta(2) = pi**2 / 6, kept exact
ZETA2_UPPER = Fraction(329, 200)

# the largest sieve ceiling exponent_candidates accepts
CEILING_BUDGET = 10**7

# the most candidate sets the sieve keeps, one per modulus B, and the most
# theorem bounds kept, one per (N, d, epsilon, digits)
SIEVE_MEMO_SIZE = 64
BOUNDS_MEMO_SIZE = 256


def _parent_bound(d: int) -> int:
    return 129 * (5 ** d - 1) * (3 * d) ** 6


# the largest degree baselines accepts: past it the parent bound, which grows
# with d, has more than MAX_DIGITS digits (tests/test_bounds.py derives it)
MAX_BASELINE_DEGREE = 6112


class BoundsError(TorsionBoundsError):
    pass


@dataclass(frozen=True)
class BoundContext:
    """(adelic index I, base degree d0, target degree d), all >= 1."""

    I: int
    d0: int
    d: int

    def __post_init__(self):
        if self.I < 1 or self.d0 < 1 or self.d < 1:
            raise BoundsError(f"all of I, d0, d must be >= 1, got {self}")


@dataclass(frozen=True)
class UpperBoundValue:
    """Exact bound plus a decimal rendering guaranteed not to understate it."""

    exact: PowerProduct
    decimal: str  # rounded UP


@dataclass(frozen=True)
class CandidateSet:
    modulus: int
    candidates: tuple[int, ...]
    ceiling: int


def sieve_modulus(ctx: BoundContext) -> int:
    """B = 2 * I * (d0-1)! * d."""
    return 2 * ctx.I * math.factorial(ctx.d0 - 1) * ctx.d


def _ceiling(B: int) -> int:
    """isqrt(ceil(B * 329/200)), at least every candidate for B."""
    return math.isqrt(-(-B * ZETA2_UPPER.numerator // ZETA2_UPPER.denominator))


def exponent_candidates(ctx: BoundContext) -> CandidateSet:
    """All n >= 1 with phi(n)*psi(n) dividing the sieve modulus B.

    phi*psi is multiplicative with phi*psi(p**j) = p**(2j-2) * (p*p - 1), so
    a prime p divides a candidate only if p*p - 1 divides B; then p + 1
    divides B, and the primes to try are the divisors of B less one.  The
    candidates are the products of prime powers, one per prime, whose
    phi*psi values multiply to a divisor of B: the work grows with the
    divisors of B, not with the ceiling.  Since phi(n)*psi(n) >
    (6/pi**2) * n**2, every candidate is at most isqrt(ceil(B * 329/200)),
    and inputs whose ceiling exceeds CEILING_BUDGET are refused.
    """
    # an upper bound on log10(B) (d0 capped to a float), before (d0-1)! is formed:
    # past 2 * (MAX_DIGITS - 1) the ceiling is over 10**(MAX_DIGITS - 2), unprintable
    if ((2 * ctx.I * ctx.d).bit_length() * math.log10(2)
            + math.lgamma(min(ctx.d0, 10 ** 300)) / math.log(10) > 2 * (MAX_DIGITS - 1)):
        raise BoundsError(f"sieve ceiling over 10**{MAX_DIGITS - 2} exceeds budget "
                          f"{CEILING_BUDGET}")
    B = sieve_modulus(ctx)
    ceiling = _ceiling(B)
    if ceiling > CEILING_BUDGET:
        raise BoundsError(f"sieve ceiling {ceiling} exceeds budget {CEILING_BUDGET}")
    return _sieve(B)


@functools.lru_cache(maxsize=SIEVE_MEMO_SIZE)
def _sieve(B: int) -> CandidateSet:
    """The candidate set of the modulus B, which alone fixes it."""
    # per admissible prime p, the pairs (p**j, phi*psi(p**j)) with j >= 1
    # and phi*psi(p**j) dividing B; large primes first, since they combine
    # least and so keep the partial candidate lists below short
    chains = []
    for e in reversed(_divisors(B)):
        p = e - 1
        if p < 2 or B % (p * p - 1) or not _is_prime(p):
            continue
        chain, q, f = [], p, p * p - 1
        while B % f == 0:
            chain.append((q, f))
            q, f = q * p, f * p * p
        chains.append(chain)
    # (n, phi*psi(n)) for the candidates built from the primes so far
    cands = [(1, 1)]
    for chain in chains:
        cands += [(n * q, f * g) for n, f in cands for q, g in chain
                  if B % (f * g) == 0]
    return CandidateSet(B, tuple(sorted(n for n, _ in cands)), _ceiling(B))


@dataclass(frozen=True)
class TheoremBounds:
    exponent_bound: UpperBoundValue  # c_eps * d**(1/2 + eps)
    order_bound: UpperBoundValue     # c_(eps/2)**2 * d**(1 + eps)
    weak_epsilon: bool               # eps >= 1: formula valid but not sharp


def theorem_bounds(ctx: BoundContext, epsilon: Rational,
                   digits: int = 12) -> TheoremBounds:
    """c_eps * d**(1/2+eps) and c_(eps/2)**2 * d**(1+eps), c_eps = (N/b_eps)**(1/(2-eps))
    for N = 2*I*(d0-1)!. With eps = a/q these are the products N**(q/(2q-a)) b_eps**(-q/(2q-a))
    d**((q+2a)/(2q)) and N**(4q/(4q-a)) b_(eps/2)**(-4q/(4q-a)) d**((q+a)/q), one each."""
    epsilon = Fraction(epsilon)
    a, q = epsilon.numerator, epsilon.denominator
    if not 0 < a < 2 * q:
        raise BoundsError(f"epsilon must lie in (0, 2), got {epsilon}")
    return _theorem_bounds(2 * ctx.I * math.factorial(ctx.d0 - 1), ctx.d, a, q, digits)


@functools.lru_cache(maxsize=BOUNDS_MEMO_SIZE)
def _theorem_bounds(N: int, d: int, a: int, q: int, digits: int) -> TheoremBounds:
    """The bounds at N = 2*I*(d0-1)!, degree d and eps = a/q in lowest terms."""
    epsilon = Fraction(a, q)
    b_eps, b_half = _b_exact(epsilon)[1], _b_exact(epsilon / 2)[1]
    N, d = PowerProduct.from_int(N), PowerProduct.from_int(d)
    expo = PowerProduct._product(((N, q, 2 * q - a), (b_eps, -q, 2 * q - a),
                                  (d, q + 2 * a, 2 * q)))
    order = PowerProduct._product(((N, 4 * q, 4 * q - a), (b_half, -4 * q, 4 * q - a),
                                   (d, q + a, q)))
    return TheoremBounds(
        exponent_bound=UpperBoundValue(expo, expo.decimal(digits, round_up=True)),
        order_bound=UpperBoundValue(order, order.decimal(digits, round_up=True)),
        weak_epsilon=a >= q,
    )


@dataclass(frozen=True)
class Baselines:
    """Prior explicit bounds evaluated at degree d, for comparison."""

    d: int
    parent: int                      # 129 * (5**d - 1) * (3d)**6, prime-power bound
    hindry_silverman: float | None   # 1977408 * d * ln(d); None at d = 1
    bn_exponent: UpperBoundValue     # 720720 * sqrt(35) * d**(1/2)
    bn_order: UpperBoundValue        # 1441440 * sqrt(35) * d**(1/2)
    bn_applicable: bool              # only valid for odd d
    hs_log_note: str = "natural log"


def baselines(d: int, digits: int = 12) -> Baselines:
    if d < 1:
        raise BoundsError(f"degree must be >= 1, got {d}")
    if d > MAX_BASELINE_DEGREE:
        raise BoundsError(f"degree {d} exceeds the baseline limit {MAX_BASELINE_DEGREE}")
    parent = _parent_bound(d)
    hs = 1977408 * d * math.log(d) if d > 1 else None
    bn_exp, bn_ord = (PowerProduct._product(((PowerProduct.from_int(c * c * 35 * d), 1, 2),))
                      for c in (720720, 1441440))
    return Baselines(
        d=d,
        parent=parent,
        hindry_silverman=hs,
        bn_exponent=UpperBoundValue(bn_exp, bn_exp.decimal(digits, round_up=True)),
        bn_order=UpperBoundValue(bn_ord, bn_ord.decimal(digits, round_up=True)),
        bn_applicable=(d % 2 == 1),
    )
