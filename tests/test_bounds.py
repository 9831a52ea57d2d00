"""The exponent sieve and the explicit bound constants."""
import json
import math
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from torsionbounds import bounds, exactvalue
from torsionbounds.arith import ArithError, _b_exact, b_epsilon, dedekind_psi, euler_phi
from torsionbounds.bounds import (
    BoundContext,
    BoundsError,
    MAX_BASELINE_DEGREE,
    ZETA2_UPPER,
    baselines,
    exponent_candidates,
    sieve_modulus,
    theorem_bounds,
)
from torsionbounds.cli import main
from torsionbounds.exactvalue import PowerProduct

from dict_power_product import DictPowerProduct, assert_matches, from_library

RECORDS = Path(__file__).parent / "golden" / "records.csv"


def test_context_validation():
    with pytest.raises(BoundsError):
        BoundContext(0, 1, 1)
    with pytest.raises(BoundsError):
        BoundContext(1, 1, 0)


def test_zeta2_upper_really_is_an_upper_bound():
    assert float(ZETA2_UPPER) > math.pi ** 2 / 6


@pytest.mark.parametrize("I,d0,d,B", [(2, 1, 1, 4), (6, 1, 1, 12),
                                      (2, 3, 5, 40)])
def test_sieve_modulus(I, d0, d, B):
    assert sieve_modulus(BoundContext(I, d0, d)) == B


def test_candidates_worked_examples():
    assert exponent_candidates(BoundContext(2, 1, 1)).candidates == (1,)
    assert exponent_candidates(BoundContext(6, 1, 1)).candidates == (1, 2, 4)


@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_one_is_always_a_candidate(I, d0, d):
    cs = exponent_candidates(BoundContext(I, d0, d))
    assert 1 in cs.candidates
    assert all(n <= cs.ceiling for n in cs.candidates)
    assert all(cs.modulus % (euler_phi(n) * dedekind_psi(n)) == 0
               for n in cs.candidates)


def test_candidate_monotonicity_in_divisibility():
    # B=12 divides B=120
    small = exponent_candidates(BoundContext(6, 1, 1))
    large = exponent_candidates(BoundContext(6, 1, 10))
    assert small.modulus * 10 == large.modulus
    assert set(small.candidates) <= set(large.candidates)


# -- the sieve against the scan it replaced --------------------------------

@lru_cache(maxsize=None)
def _phi_psi(n):
    return euler_phi(n) * dedekind_psi(n)


def scan_candidates(ctx):
    """(candidates, ceiling) by the scan the divisor construction replaced:
    every n up to isqrt(ceil(B * 329/200)), tested one by one."""
    B = 2 * ctx.I * math.factorial(ctx.d0 - 1) * ctx.d
    ceiling = math.isqrt(-(-B * 329 // 200))
    return tuple(n for n in range(1, ceiling + 1) if B % _phi_psi(n) == 0), ceiling


def test_sieve_equals_scan_on_the_sweep():
    for I in range(1, 49):
        for d0 in range(1, 4):
            for d in range(1, 51):
                ctx = BoundContext(I, d0, d)
                cs = exponent_candidates(ctx)
                assert (cs.candidates, cs.ceiling) == scan_candidates(ctx), ctx


@st.composite
def contexts_with_ceiling_at_most(draw, top):
    # B <= top**2 * 200/329 keeps isqrt(ceil(B * 329/200)) <= top
    max_B = top * top * 200 // 329
    d0 = draw(st.integers(min_value=1, max_value=7))
    f = 2 * math.factorial(d0 - 1)
    I = draw(st.integers(min_value=1, max_value=max_B // f))
    d = draw(st.integers(min_value=1, max_value=max_B // (f * I)))
    return BoundContext(I, d0, d)


@given(contexts_with_ceiling_at_most(3 * 10 ** 4))
@settings(max_examples=50, deadline=None)
def test_sieve_equals_scan_up_to_ceiling_3e4(ctx):
    cs = exponent_candidates(ctx)
    assert cs.ceiling <= 3 * 10 ** 4
    assert (cs.candidates, cs.ceiling) == scan_candidates(ctx)


def test_ceiling_budget_enforced():
    # ceiling 81,117,199 > 10**7
    with pytest.raises(BoundsError, match="^sieve ceiling 81117199 exceeds budget 10000000$"):
        exponent_candidates(BoundContext(10 ** 9, 3, 10 ** 6))


@pytest.mark.parametrize("argv", [
    ["candidates", "--index", "1", "--base-degree", "2848"],
    ["candidates", "--index", "1", "--base-degree", "1000000"],
    ["bounds", str(RECORDS.parent / "base_degree_3000.csv"), "--epsilon", "1/2",
     "--degree", "10"],
])
def test_large_base_degree_refused_quickly(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == ("torsionbounds: error: sieve ceiling over 10**4298 "
                       "exceeds budget 10000000\n")
    assert elapsed < 1.0


def test_ceiling_past_the_printable_range_is_refused_unprinted():
    # against the exact ceiling: a ceiling refused unprinted is over
    # 10**4298, and one refused with its value has at most the 4300 digits
    # str() prints; the cases straddle the edge at d0 = 2847..2848
    cases = [(I, d0, 1) for d0 in (2846, 2847) for I in range(1, 41)]
    cases += [(1, 2848, 1), (1, 10 ** 400, 1)]
    cases += [(10 ** 4299, 1, d) for d in (1, 3, 10, 30, 100)]
    kinds = set()
    for I, d0, d in cases:
        ctx = BoundContext(I, d0, d)
        if d0 < 10 ** 4:
            B = sieve_modulus(ctx)
            ceiling = math.isqrt(-(-B * 329 // 200))
        with pytest.raises(BoundsError) as info:
            exponent_candidates(ctx)
        message = str(info.value)
        if message.startswith("sieve ceiling over 10**4298"):
            assert d0 >= 10 ** 4 or ceiling > 10 ** 4298
            assert message == "sieve ceiling over 10**4298 exceeds budget 10000000"
            kinds.add("unprinted")
        else:
            assert ceiling < 10 ** 4300 and message.startswith(
                f"sieve ceiling {ceiling} exceeds")
            kinds.add("printed")
    assert kinds == {"printed", "unprinted"}


# -- c_epsilon and theorem bounds ------------------------------------------

def _c_exact(I, d0, epsilon):
    """c_epsilon = (2 * I * (d0-1)! / b_eps)**(1/(2-eps)), composed by / and
    ** on the dict oracle, as the library built it before each bound became
    one product."""
    if not 0 < epsilon < 2:
        raise BoundsError(f"epsilon must lie in (0, 2), got {epsilon}")
    N = DictPowerProduct({2 * I * math.factorial(d0 - 1): 1})
    base = N / from_library(_b_exact(epsilon)[1])
    return base ** Fraction(1, 2 - epsilon)


def _theorem_bounds_oracle(ctx, eps):
    """(exponent bound, order bound): c_eps * d**(1/2+eps) and
    c_(eps/2)**2 * d**(1+eps), one operation at a time."""
    d = DictPowerProduct({ctx.d: 1})
    return (_c_exact(ctx.I, ctx.d0, eps) * d ** (Fraction(1, 2) + eps),
            _c_exact(ctx.I, ctx.d0, eps / 2) ** 2 * d ** (1 + eps))


def _bn_oracle(d):
    """(bn_exponent, bn_order): 720720 * sqrt(35) * sqrt(d), and twice that."""
    root = DictPowerProduct({35: Fraction(1, 2)}) * DictPowerProduct({d: Fraction(1, 2)})
    return DictPowerProduct({720720: 1}) * root, DictPowerProduct({1441440: 1}) * root


def _assert_bound_matches(bound, oracle, digits):
    """An UpperBoundValue has the oracle's form and renders as it does at
    both roundings; the bound's own decimal is the rounded-up one."""
    assert_matches(bound.exact, oracle, digits)
    assert bound.decimal == oracle.decimal(digits, round_up=True)


def test_c_epsilon_examples():
    c = _c_exact(2, 1, Fraction(1, 2))
    # (4 * sqrt(2))**(2/3) = 2**(5/3)
    assert c == DictPowerProduct({2: Fraction(5, 3)})
    assert (c.decimal(5), c.decimal(5, round_up=True)) == ("3.1748", "3.1749")
    c4 = _c_exact(4, 1, Fraction(1, 2))
    assert (c4.decimal(5), c4.decimal(5, round_up=True)) == ("5.0396", "5.0397")


def test_c_epsilon_monotone_in_index():
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 4)):
        for I in (1, 2, 5, 24):
            assert _c_exact(2 * I, 1, eps).compare(_c_exact(I, 1, eps)) > 0


def test_c_epsilon_domain():
    ctx = BoundContext(2, 1, 1)
    for eps in (Fraction(0), Fraction(2), Fraction(-1, 2), Fraction(5, 2), 7):
        message = f"epsilon must lie in (0, 2), got {eps}"
        with pytest.raises(BoundsError) as info:
            theorem_bounds(ctx, eps)
        assert str(info.value) == message
        with pytest.raises(BoundsError) as info:
            _c_exact(2, 1, Fraction(eps))
        assert str(info.value) == message
    with pytest.raises(BoundsError):
        BoundContext(0, 1, 1)


@st.composite
def epsilons(draw):
    """eps = a/q with q <= 24, so 1/24 <= eps < 2."""
    q = draw(st.integers(min_value=1, max_value=24))
    a = draw(st.integers(min_value=1, max_value=2 * q - 1))
    return Fraction(a, q)


@given(eps=epsilons(),
       ctx=st.builds(BoundContext, st.integers(min_value=1, max_value=10 ** 4),
                     st.integers(min_value=1, max_value=8),
                     st.integers(min_value=1, max_value=MAX_BASELINE_DEGREE)),
       digits=st.integers(min_value=1, max_value=40))
@example(eps=Fraction(1, 2), ctx=BoundContext(6, 2, 10), digits=12)
@example(eps=Fraction(1), ctx=BoundContext(24, 3, 9), digits=12)
@example(eps=Fraction(3, 2), ctx=BoundContext(2, 1, 7), digits=40)
@example(eps=Fraction(1, 3), ctx=BoundContext(1, 1, 1), digits=1)
@example(eps=Fraction(1, 25), ctx=BoundContext(10 ** 4, 8, MAX_BASELINE_DEGREE), digits=40)
@settings(max_examples=150, deadline=None)
def test_bounds_match_the_composed_oracle(eps, ctx, digits):
    tb = theorem_bounds(ctx, eps, digits)
    expo, order = _theorem_bounds_oracle(ctx, eps)
    _assert_bound_matches(tb.exponent_bound, expo, digits)
    _assert_bound_matches(tb.order_bound, order, digits)
    assert tb.weak_epsilon == (eps >= 1)
    base = baselines(ctx.d, digits)
    bn_exp, bn_ord = _bn_oracle(ctx.d)
    _assert_bound_matches(base.bn_exponent, bn_exp, digits)
    _assert_bound_matches(base.bn_order, bn_ord, digits)


def test_each_bound_is_one_product_and_n_is_factored_once(monkeypatch):
    products, factored = [], []
    real_product, real_factorize = PowerProduct._product, exactvalue._factorize
    monkeypatch.setattr(PowerProduct, "_product", classmethod(
        lambda cls, terms: products.append(terms) or real_product(terms)))
    monkeypatch.setattr(exactvalue, "_factorize",
                        lambda n: factored.append(n) or real_factorize(n))
    # N = 2 * 6 * 1! = 12 is no p - 1 for the primes 2, 3 of b_(1/3) and b_(1/6)
    theorem_bounds(BoundContext(6, 2, 10), Fraction(1, 3))
    assert len(products) == 2
    assert factored.count(12) == 1
    products.clear()
    baselines(9)
    assert len(products) == 2


def test_theorem_bounds_example():
    tb = theorem_bounds(BoundContext(2, 1, 1), Fraction(1, 2))
    assert tb.exponent_bound.decimal == "3.17480210394"
    assert tb.order_bound.decimal == "10.2570167989"
    assert not tb.weak_epsilon


def test_theorem_bounds_degree_scaling():
    tb1 = theorem_bounds(BoundContext(2, 1, 1), Fraction(1, 2))
    tb4 = theorem_bounds(BoundContext(2, 1, 4), Fraction(1, 2))
    # d**(1/2+1/2) = 4
    assert from_library(tb4.exponent_bound.exact) == from_library(tb1.exponent_bound.exact) * 4


def test_order_bound_is_square_of_half_epsilon_exponent_bound():
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 4)):
        for d in (1, 7, 50):
            ctx = BoundContext(6, 2, d)
            order = theorem_bounds(ctx, eps).order_bound.exact
            half = theorem_bounds(ctx, eps / 2).exponent_bound.exact
            assert from_library(order) == from_library(half) ** 2


def test_theorem_bounds_renders_only_its_two_bounds(monkeypatch):
    calls = []
    real = PowerProduct.decimal

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PowerProduct, "decimal", counted)
    ctx, eps = BoundContext(6, 2, 10), Fraction(1, 3)
    tb = theorem_bounds(ctx, eps)
    assert calls == [tb.exponent_bound.exact, tb.order_bound.exact]
    # the constants it builds without rendering are c_epsilon's
    expo, order = _theorem_bounds_oracle(ctx, eps)
    assert_matches(tb.exponent_bound.exact, expo)
    assert_matches(tb.order_bound.exact, order)


# -- memos: each value built once per argument it depends on ----------------

def _clear_memos():
    for memo in (_b_exact, bounds._sieve, bounds._theorem_bounds):
        memo.cache_clear()


@given(I=st.integers(min_value=1, max_value=10 ** 4),
       d0=st.integers(min_value=1, max_value=8),
       d=st.integers(min_value=1, max_value=MAX_BASELINE_DEGREE),
       eps=epsilons(), digits=st.integers(min_value=1, max_value=40))
@example(I=6, d0=2, d=10, eps=Fraction(1, 3), digits=12)
@example(I=5, d0=4, d=1, eps=Fraction(3, 2), digits=1)
@settings(max_examples=100, deadline=None)
def test_memoized_values_match_a_cold_call_and_the_oracle(I, d0, d, eps, digits):
    ctx = BoundContext(I, d0, d)
    # the same N = 2*I*(d0-1)! and B = N*d from another context, asked first,
    # so that ctx is answered from the memo entries the twin built
    twin = BoundContext(I * math.factorial(d0 - 1), 1, d)
    warm_sets = [exponent_candidates(c) for c in (twin, ctx)]
    warm = [theorem_bounds(c, eps, digits) for c in (twin, ctx)]
    _clear_memos()
    cold_set, cold = exponent_candidates(ctx), theorem_bounds(ctx, eps, digits)
    assert warm_sets == [cold_set, cold_set]
    expo, order = _theorem_bounds_oracle(ctx, eps)
    _assert_bound_matches(cold.exponent_bound, expo, digits)
    _assert_bound_matches(cold.order_bound, order, digits)
    assert cold.weak_epsilon == (eps >= 1)
    # equal exact values and equal decimals
    assert warm == [cold, cold]


def test_bounds_command_builds_each_value_once(monkeypatch, capsys):
    # one isogeny class of three records (N = 24, B = 240) and one other
    # record (N = 8, B = 80); b_(1/3) and b_(1/6) both have the witness 6
    sieved, products = [], []
    real_divisors, real_product = bounds._divisors, PowerProduct._product
    # _b_exact misses its memo once per epsilon, each sieve lists the
    # divisors of B once, and each bound is one product of three terms
    monkeypatch.setattr(bounds, "_divisors", lambda n: sieved.append(n) or real_divisors(n))
    monkeypatch.setattr(PowerProduct, "_product", classmethod(
        lambda cls, terms: products.append(len(terms)) or real_product(terms)))
    code = main(["bounds", str(RECORDS.parent / "isogeny_class.csv"),
                 "--epsilon", "1/3", "--degree", "10"])
    assert (code, capsys.readouterr().err) == (0, "")
    assert _b_exact.cache_info().misses == 2
    assert sieved == [240, 80]
    assert products.count(3) == 4


def test_refusals_are_raised_on_every_call():
    ctx = BoundContext(6, 1, 10)
    theorem_bounds(ctx, Fraction(1, 2))
    for _ in range(2):
        with pytest.raises(ArithError, match="^b_epsilon at epsilon 1/132: the witness "
                           "reaches 37#"):
            theorem_bounds(ctx, Fraction(1, 66))
        with pytest.raises(BoundsError, match="epsilon must lie in"):
            theorem_bounds(ctx, Fraction(2))
        with pytest.raises(BoundsError, match="^sieve ceiling 81117199 exceeds"):
            exponent_candidates(BoundContext(10 ** 9, 3, 10 ** 6))


def test_weak_epsilon_flagged():
    assert theorem_bounds(BoundContext(2, 1, 1), Fraction(3, 2)).weak_epsilon


def test_decimal_bounds_round_up():
    tb = theorem_bounds(BoundContext(2, 1, 10), Fraction(1, 2), digits=6)
    # the rendered decimal never understates the exact value
    for bound in (tb.exponent_bound, tb.order_bound):
        assert DictPowerProduct.from_fraction(
            Fraction(bound.decimal)).compare(from_library(bound.exact)) >= 0


def test_d1_candidates_below_exponent_bound():
    cs = exponent_candidates(BoundContext(2, 1, 1))
    tb = theorem_bounds(BoundContext(2, 1, 1), Fraction(1, 2))
    assert DictPowerProduct({max(cs.candidates): 1}).compare(
        from_library(tb.exponent_bound.exact)) <= 0


# -- small epsilon against mpmath -------------------------------------------

def _mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _b_reference(eps):
    """min phi(n)/n**(1-eps): the product w of the primes p with
    (1 - 1/p) * p**eps < 1, and phi(w)/w**(1-eps), both in mpmath."""
    w = phi = 1
    p = 2
    while (1 - mpmath.mpf(1) / p) * mpmath.mpf(p) ** _mpf(eps) < 1:
        w, phi = w * p, phi * (p - 1)
        p += 1
        while any(p % r == 0 for r in range(2, math.isqrt(p) + 1)):
            p += 1
    return w, mpmath.mpf(phi) / mpmath.mpf(w) ** (1 - _mpf(eps))


def _c_reference(I, d0, eps):
    _, b = _b_reference(eps)
    return (2 * I * math.factorial(d0 - 1) / b) ** (1 / (2 - _mpf(eps)))


def _assert_rounded_up(printed, ref, digits):
    got = mpmath.mpf(printed)
    assert ref <= got <= ref * (1 + mpmath.mpf(10) ** (1 - digits)), (printed, ref)


def _assert_theorem_bounds(ctx, eps, exponent_printed, order_printed, digits=12):
    with mpmath.workdps(60):
        expo = _c_reference(ctx.I, ctx.d0, eps) * mpmath.mpf(ctx.d) ** (
            mpmath.mpf(1) / 2 + _mpf(eps))
        order = _c_reference(ctx.I, ctx.d0, eps / 2) ** 2 \
            * mpmath.mpf(ctx.d) ** (1 + _mpf(eps))
        _assert_rounded_up(exponent_printed, expo, digits)
        _assert_rounded_up(order_printed, order, digits)


@pytest.mark.parametrize("eps", [Fraction(1, 29), Fraction(1, 40), Fraction(1, 50)])
def test_small_epsilon_theorem_bounds_round_up(eps):
    ctx = BoundContext(6, 1, 10)
    tb = theorem_bounds(ctx, eps)
    _assert_theorem_bounds(ctx, eps, tb.exponent_bound.decimal, tb.order_bound.decimal)


def test_b_epsilon_at_one_fifty_eighth_rounds_down():
    eps = Fraction(1, 58)
    b = b_epsilon(eps)
    with mpmath.workdps(60):
        witness, ref = _b_reference(eps)
        got = mpmath.mpf(b.decimal)
        assert b.witness == witness
        assert ref * (1 - mpmath.mpf(10) ** -11) <= got <= ref


def test_bounds_command_at_epsilon_one_fiftieth(capsys):
    eps = Fraction(1, 50)
    code = main(["bounds", str(RECORDS), "--epsilon", "1/50", "--degree", "10",
                 "--format", "json"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    rows = json.loads(out.out)["rows"]
    assert len(rows) == 3
    for row in rows:
        ctx = BoundContext(row["I"], row["d0"], row["d"])
        _assert_theorem_bounds(ctx, eps, row["exponent_bound"], row["order_bound"])


# -- baselines --------------------------------------------------------------

def test_parent_baseline_at_degree_one():
    assert baselines(1).parent == 376164


def test_hindry_silverman_baseline():
    base = baselines(2)
    assert abs(base.hindry_silverman - 1977408 * 2 * math.log(2)) < 1e-6
    assert base.hs_log_note == "natural log"
    assert baselines(1).hindry_silverman is None


def test_bourdon_najman_baseline():
    base = baselines(9)
    assert base.bn_applicable
    # 720720 * sqrt(35) * sqrt(9)
    assert_matches(base.bn_exponent.exact, DictPowerProduct({2162160: 1, 35: Fraction(1, 2)}))
    assert from_library(base.bn_order.exact) == from_library(base.bn_exponent.exact) * 2
    assert not baselines(2).bn_applicable


def test_baselines_reject_bad_degree():
    with pytest.raises(BoundsError):
        baselines(0)


def test_parent_baseline_fits_in_a_printable_int_up_to_the_limit():
    # 4300 digits at the limit, 4301 one past it
    assert 10 ** 4299 <= baselines(MAX_BASELINE_DEGREE).parent < 10 ** 4300
    assert 129 * (5 ** 6113 - 1) * (3 * 6113) ** 6 >= 10 ** 4300
    with pytest.raises(BoundsError, match="exceeds the baseline limit 6112"):
        baselines(MAX_BASELINE_DEGREE + 1)


@pytest.mark.parametrize("argv", [
    ["baselines", "--degree", "100000000"],
    ["bounds", str(RECORDS), "--epsilon", "1/2", "--degree", "100000000"],
])
def test_huge_degree_refused_quickly(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == ("torsionbounds: error: degree 100000000 exceeds "
                       "the baseline limit 6112\n")
    assert elapsed < 1.0
