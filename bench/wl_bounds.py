"""`bounds` workload: the exponent sieve and the exact bound constants.

Each round processes a generated curve-record CSV as several CLI-like
invocations of `torsionbounds bounds`, one per (epsilon, d, digits) setting,
in one interpreter: parse the CSV, then for every record the CLI's three
calls (exponent_candidates, theorem_bounds, baselines), plus one b_epsilon
per distinct epsilon.  Curves of one isogeny class share the adelic index, so
their sieve repeats and reuses whatever the program memoizes.  Strata:

- normal: 36 invocations of 6 records, digits 12, small sieve ceilings,
  one for each pair of an epsilon in NORMAL_EPSILONS and a degree d in
  NORMAL_DEGREES (the documented `--degree 9` and `--degree 10`, and
  1, 3, 48, 150 around them);
- high digits: one invocation each at 19, 20 and 21 digits, epsilon 1/2,
  on two fixed records (the cost at 21 digits ranges from 0.3 s to 1.9 s
  with the record, so drawing them would make the seed set the run time);
- large ceilings: one invocation, epsilon 1/2, whose classes have sieve
  ceilings near 1e5, 2e5 and 3e5, scanned in that order.

The count of each kind of op, and the set of (epsilon, d) settings, are
fixed.  The seed orders the normal invocations and draws their records, the
d of the large-ceiling invocation and the sieve samples.

Inputs that fail today (epsilon <= 1/29, sieve ceilings over the budget) are
not ops: they run as probes after the timed ops, and their outcomes are
reported as per-layer metrics.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from harness import expect
from wl_groups import phi, psi

NORMAL_EPSILONS = tuple(Fraction(x) for x in ("1/3", "2/3", "1/4", "3/4", "2/5", "1"))
NORMAL_DEGREES = (1, 3, 9, 10, 48, 150)
NORMAL_SETTINGS = tuple((e, d) for e in NORMAL_EPSILONS for d in NORMAL_DEGREES)
NORMAL_INVOCATIONS = len(NORMAL_SETTINGS)
NORMAL_RECORDS = 6
INDEX_POOL = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96)
STRATA_EPS = Fraction(1, 2)  # high-digits and large-ceiling invocations
HIGH_DIGITS = (19, 20, 21)
HIGH_DIGITS_D = 100
HIGH_DIGITS_ROWS = ((2, 6), (3, 24))  # (d0, I)
LARGE_CEILINGS = (10 ** 5, 2 * 10 ** 5, 3 * 10 ** 5)
LARGE_CLASS_SIZE = 2
ZETA2_UPPER = Fraction(329, 200)

# known defects, run as probes: (layer, stratum, call arguments)
PROBES = (
    ("bounds.theorem_bounds", "small_eps", ((6, 1, 10), Fraction(1, 29))),
    ("bounds.theorem_bounds", "small_eps", ((6, 1, 10), Fraction(1, 40))),
    ("arith.b_epsilon", "small_eps", Fraction(1, 58)),
    ("bounds.exponent_candidates", "over_budget", (1, 20, 1)),
    ("bounds.exponent_candidates", "over_budget", (2, 21, 3)),
)


def sieve_modulus(I: int, d0: int, d: int) -> int:
    return 2 * I * math.factorial(d0 - 1) * d


def sieve_ceiling(B: int) -> int:
    scaled = B * ZETA2_UPPER.numerator
    return math.isqrt(-(-scaled // ZETA2_UPPER.denominator))


def _records(rng, label, count, draw_class):
    """`count` records in isogeny classes of 1-4 curves sharing (d0, I)."""
    rows, cls = [], 0
    while len(rows) < count:
        d0, index = draw_class()
        for _ in range(min(rng.randint(1, 4), count - len(rows))):
            rows.append((f"{label}.{len(rows)}", d0, index, f"{label}c{cls}"))
        cls += 1
    return rows


def generate(seed: int) -> dict:
    rng = random.Random(f"bounds:{seed}")
    settings = rng.sample(NORMAL_SETTINGS, NORMAL_INVOCATIONS)
    invocations = []

    def normal(i):
        eps, d = settings[i]
        return {"stratum": "normal", "epsilon": eps, "d": d, "digits": 12,
                "rows": _records(rng, f"N{i}", NORMAL_RECORDS,
                                 lambda: (rng.randint(1, 4), rng.choice(INDEX_POOL)))}

    half = NORMAL_INVOCATIONS // 2
    invocations += [normal(i) for i in range(half)]
    for digits in HIGH_DIGITS:
        invocations.append({
            "stratum": "high_digits", "epsilon": STRATA_EPS,
            "d": HIGH_DIGITS_D, "digits": digits,
            "rows": [(f"D{digits}.{i}", d0, index, f"D{digits}c{i}")
                     for i, (d0, index) in enumerate(HIGH_DIGITS_ROWS)]})
    d = rng.randint(2000, 4000)
    rows = []
    for j, ceiling in enumerate(LARGE_CEILINGS):
        target = ceiling * (1 + rng.uniform(-0.005, 0.005))
        index = round(target * target * ZETA2_UPPER.denominator
                      / (2 * ZETA2_UPPER.numerator * d))
        rows += [(f"L.{j}.{i}", 1, index, f"Lc{j}") for i in range(LARGE_CLASS_SIZE)]
    invocations.append({"stratum": "large_ceiling", "epsilon": STRATA_EPS, "d": d,
                        "digits": 12, "rows": rows})
    invocations += [normal(i) for i in range(half, NORMAL_INVOCATIONS)]
    for inv in invocations:
        inv["csv"] = "label,base_degree,adelic_index,isogeny_class\n" + "".join(
            f"{label},{d0},{index},{cls}\n" for label, d0, index, cls in inv["rows"])
    return {"invocations": invocations,
            "sample_seed": rng.randrange(2 ** 32)}


def work_totals(inputs: dict) -> dict:
    """Ops by kind and the sieve ceilings they scan (these vary a little by seed)."""
    rows = [r for inv in inputs["invocations"] for r in inv["rows"]]
    return {"invocations": len(inputs["invocations"]), "records": len(rows),
            "epsilons": len({inv["epsilon"] for inv in inputs["invocations"]}),
            "n_scanned": sum(sieve_ceiling(sieve_modulus(index, d0, inv["d"]))
                             for inv in inputs["invocations"]
                             for _, d0, index, _ in inv["rows"])}


# -- float references -------------------------------------------------------

def witness(epsilon: Fraction) -> int:
    """Product of the primes p with (1 - 1/p) * p**epsilon < 1."""
    a, q = epsilon.numerator, epsilon.denominator
    w, p = 1, 2
    while a < q and (p - 1) ** q * p ** a < p ** q:
        w *= p
        p += 1
        while any(p % r == 0 for r in range(2, math.isqrt(p) + 1)):
            p += 1
    return w


def log_b_epsilon(epsilon: Fraction) -> float:
    w = witness(epsilon)
    return math.log(phi(w)) - (1 - float(epsilon)) * math.log(w)


def log_c_epsilon(I: int, d0: int, epsilon: Fraction) -> float:
    return ((math.log(2 * I) + math.lgamma(d0) - log_b_epsilon(epsilon))
            / (2 - float(epsilon)))


def check_upper(printed: str, log_ref: float, digits: int, what: str) -> None:
    """A printed upper bound is >= the reference and at most one unit in the
    last printed digit above it (relative slack 1e-12 for float error)."""
    got = math.log(float(printed))
    expect(got >= log_ref + math.log1p(-1e-12),
           f"{what} {printed} below reference {math.exp(log_ref)!r}")
    expect(got <= log_ref + math.log1p(10.0 ** (1 - digits) + 1e-12),
           f"{what} {printed} far above reference {math.exp(log_ref)!r}")


def check_lower(printed: str, log_ref: float, digits: int, what: str) -> None:
    got = math.log(float(printed))
    expect(got <= log_ref + math.log1p(1e-12),
           f"{what} {printed} above reference {math.exp(log_ref)!r}")
    expect(got >= log_ref + math.log1p(-(10.0 ** (1 - digits)) - 1e-12),
           f"{what} {printed} far below reference {math.exp(log_ref)!r}")


# -- ops and oracles ----------------------------------------------------------

def run(tb, inputs: dict, rec) -> None:
    bounds, arith, records = tb.bounds, tb.arith, tb.records
    sampler = random.Random(inputs["sample_seed"])
    scanned = [0]  # largest sieve ceiling scanned so far in this interpreter
    digits_of = {}
    for inv in inputs["invocations"]:
        eps, d, digits = inv["epsilon"], inv["d"], inv["digits"]
        digits_of.setdefault(eps, digits)
        parsed = rec.op("records.parse_curve_records",
                        lambda: rec.call("records.parse_curve_records",
                                         records.parse_curve_records, inv["csv"]),
                        lambda rs: _check_records(rs, inv["rows"], rec))
        if parsed is None:
            continue
        for r in parsed:
            ctx = bounds.BoundContext(r.adelic_index, r.base_degree, d)
            rec.op("bounds.exponent_candidates",
                   lambda: rec.call("bounds.exponent_candidates",
                                    bounds.exponent_candidates, ctx),
                   lambda cs: _check_candidates(cs, ctx, sampler, scanned, rec))
            rec.op("bounds.theorem_bounds",
                   lambda: rec.call("bounds.theorem_bounds", bounds.theorem_bounds,
                                    ctx, eps, digits),
                   lambda tbs: _check_theorem(tbs, ctx, eps, digits))
            rec.op("bounds.baselines",
                   lambda: rec.call("bounds.baselines", bounds.baselines, d, digits),
                   lambda b: _check_baselines(b, d, digits))
    for eps, digits in digits_of.items():
        rec.op("arith.b_epsilon",
               lambda: rec.call("arith.b_epsilon", arith.b_epsilon, eps, digits),
               lambda c: _check_b_epsilon(c, eps, digits))


def probes(tb, rec) -> list:
    outcomes = []
    for layer, stratum, args in PROBES:
        if layer == "bounds.theorem_bounds":
            ctx, eps = args
            fn = lambda: tb.bounds.theorem_bounds(tb.bounds.BoundContext(*ctx), eps)
        elif layer == "arith.b_epsilon":
            fn = lambda: tb.arith.b_epsilon(args)
        else:
            fn = lambda: tb.bounds.exponent_candidates(tb.bounds.BoundContext(*args))
        outcome = rec.probe(layer, fn)
        if outcome != "ok":
            rec.counters[f"probe.{stratum}.failed"] += 1
        outcomes.append([layer, str(args), outcome])
    return outcomes


def _check_records(parsed, rows, rec):
    got = [(r.label, r.base_degree, r.adelic_index, r.isogeny_class) for r in parsed]
    expect(got == list(rows), "parsed records differ from the generated CSV")
    rec.counters["records.parse_curve_records.rows"] += len(parsed)
    return len(parsed)


def _phi_psi(n: int) -> int:
    return phi(n) * psi(n)


def _check_candidates(cs, ctx, sampler, scanned, rec):
    B = sieve_modulus(ctx.I, ctx.d0, ctx.d)
    ceiling = sieve_ceiling(B)
    expect(cs.modulus == B, f"sieve modulus {cs.modulus}, expected {B}")
    expect(cs.ceiling == ceiling, f"ceiling {cs.ceiling}, expected {ceiling}")
    cands = list(cs.candidates)
    expect(cands == sorted(set(cands)) and cands[:1] == [1] and cands[-1] <= ceiling,
           "candidates not increasing from 1 within the ceiling")
    for n in cands:
        expect(B % _phi_psi(n) == 0, f"candidate {n}: phi*psi does not divide {B}")
    members = set(cands)
    for n in (sampler.randint(1, ceiling) for _ in range(16)):
        expect((n in members) == (B % _phi_psi(n) == 0),
               f"n = {n} misclassified for B = {B}")
    c = rec.counters
    c["bounds.exponent_candidates.n_scanned"] += ceiling
    c["bounds.exponent_candidates.candidates"] += len(cands)
    c["bounds.exponent_candidates.warm"] += ceiling <= scanned[0]
    scanned[0] = max(scanned[0], ceiling)
    return [B, ceiling, cands]


def _check_theorem(tbs, ctx, eps, digits):
    log_d = math.log(ctx.d)
    check_upper(tbs.exponent_bound.decimal,
                log_c_epsilon(ctx.I, ctx.d0, eps) + (0.5 + float(eps)) * log_d,
                digits, "exponent bound")
    check_upper(tbs.order_bound.decimal,
                2 * log_c_epsilon(ctx.I, ctx.d0, eps / 2) + (1 + float(eps)) * log_d,
                digits, "order bound")
    expect(tbs.weak_epsilon == (eps >= 1), "weak_epsilon flag")
    return [tbs.exponent_bound.decimal, tbs.order_bound.decimal]


def _check_baselines(b, d, digits):
    expect(b.parent == 129 * (5 ** d - 1) * (3 * d) ** 6, "parent bound")
    if d == 1:
        expect(b.hindry_silverman is None, "Hindry-Silverman at d = 1")
    else:
        ref = 1977408 * d * math.log(d)
        expect(abs(b.hindry_silverman - ref) <= 1e-12 * ref, "Hindry-Silverman")
    log_root = 0.5 * math.log(35 * d)
    check_upper(b.bn_exponent.decimal, math.log(720720) + log_root, digits, "bn_exponent")
    check_upper(b.bn_order.decimal, math.log(1441440) + log_root, digits, "bn_order")
    expect(b.bn_applicable == (d % 2 == 1), "bn_applicable")
    return [b.hindry_silverman, b.bn_exponent.decimal, b.bn_order.decimal]


def _check_b_epsilon(c, eps, digits):
    expect(c.witness == witness(eps), f"witness {c.witness}, expected {witness(eps)}")
    check_lower(c.decimal, log_b_epsilon(eps), digits, "b_epsilon")
    return [c.witness, c.decimal]

