"""One-shot verification suite: re-proves the finite-level facts by count and enumeration.

Each check is deterministic and self-contained; the suite report lists one
line per check with pass/fail/skip status.  The same checks back the
acceptance tests, so `verify` from the command line reproduces them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import lattice, modmatrix
from .arith import b_epsilon, dedekind_psi, euler_phi
from .bounds import BoundContext, exponent_candidates
from .exactvalue import _divisors
from .modmatrix import (
    _TRIVIAL_MOD_1,
    Mat2,
    SubgroupModN,
    _count_gl2,
    _lifts,
    _unit_table,
    b1_subgroup,
    gl2_order,
    is_full_preimage,
    reduce_subgroup,
    subgroup_closure,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass
class SuiteReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, params, ok, detail=""):
        self.checks.append(CheckResult(name, params, "pass" if ok else "fail", detail))

    def skip(self, name, params, detail=""):
        self.checks.append(CheckResult(name, params, "skip", detail))

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.checks if c.status == "skip")

    @property
    def ok(self) -> bool:
        return self.failed == 0


SETS_MAX_N = 24  # the largest modulus of the checks that hold element sets


def subgroup_family(n: int):
    """A deterministic family of subgroups of GL2(Z/nZ) for the index tests."""
    modmatrix._check_enumeration(gl2_order(n))
    out = []
    ident = Mat2.identity(n)
    out.append(("trivial", subgroup_closure([ident], n)))
    out.append(("full", _scan_preimage(SubgroupModN(1, _TRIVIAL_MOD_1), n)))
    if n >= 2:
        out.append(("b1", b1_subgroup(n)))
        gens = [Mat2(n, 1, 1, 0, 1)]
        gens += [Mat2(n, u, 0, 0, 1) for u in range(2, n) if math.gcd(u, n) == 1]
        gens += [Mat2(n, 1, 0, 0, u) for u in range(2, n) if math.gcd(u, n) == 1]
        out.append(("borel", subgroup_closure(gens, n)))
        out.append(("sl2ish", subgroup_closure(
            [Mat2(n, 1, 1, 0, 1), Mat2(n, 0, -1, 1, 0)], n)))
        out.append(("cyclic-unipotent", subgroup_closure([Mat2(n, 1, 1, 0, 1)], n)))
        out.append(("scalars", subgroup_closure(
            [Mat2(n, u, 0, 0, u) for u in range(1, n) if math.gcd(u, n) == 1], n)))
    for m in _divisors(n):
        if 2 <= m < n:
            out.append((f"preimage-b1({m})", _scan_preimage(b1_subgroup(m), n)))
    return out


def _scan_preimage(H: SubgroupModN, n: int) -> SubgroupModN:
    """The preimage of H in GL2(Z/n) by the determinant scan alone: unlike
    `full_preimage`, which checks its size against `gl2_order` and raises on
    a mismatch, a wrong closed form here shows up as a failed check.

    It runs the same lift scan, `_lifts`, as `full_preimage`, so the
    family's `full` member is not an independent route to GL2(Z/n): a fault
    in `_lifts` shapes that member and the library's preimages alike."""
    return SubgroupModN(n, frozenset(_lifts(H.codes, H.n, n)))


def run_verification_suite(max_n: int = 16) -> SuiteReport:
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    # only the checks of n <= SETS_MAX_N hold sets, and |GL2(Z/n)| is not monotone in n
    for n in range(1, min(max_n, SETS_MAX_N) + 1):
        modmatrix._check_enumeration(gl2_order(n))
    report = SuiteReport()
    _check_gl2_orders(report, max_n)
    _check_b1_index(report, max_n)
    _check_preimage_suite(report, max_n)
    _check_crt_orders(report, max_n)
    _check_arith(report)
    _check_b_epsilon(report)
    _check_lattice_scenarios(report)
    _check_sieve_examples(report)
    return report


def _check_gl2_orders(report, max_n):
    top = min(max_n, 16)
    bad = [n for n in range(1, top + 1) if _count_gl2(n) != gl2_order(n)]
    report.add("gl2-order-vs-enumeration", f"n<=:{top}", not bad,
               f"mismatches at {bad}" if bad else f"checked n=1..{top}")


def _check_b1_index(report, max_n):
    if max_n < 2:
        report.skip("b1-index-formula", "n<=1", "B1(n) needs n >= 2")
        return
    # |B1(n)| is n times the units; stop before the counts' n^2 pairs pass the cap
    bad, pairs, top = [], 0, 1
    for n in range(2, max_n + 1):
        pairs += n * n
        if pairs > modmatrix.ENUMERATION_CAP:
            break
        top = n
        if _count_gl2(n) // (n * sum(_unit_table(n))) != euler_phi(n) * dedekind_psi(n):
            bad.append(n)
    report.add("b1-index-formula", f"2<=n<=:{top}", not bad,
               f"mismatches at {bad}" if bad else "index equals phi(n)*psi(n)")


def _check_preimage_suite(report, max_n):
    top = min(max_n, SETS_MAX_N)
    if top < 2:
        report.skip("preimage-index-preservation", "n<=1", "needs n >= 2")
        report.skip("preimage-detection", "n<=1", "needs n >= 2")
        return
    checked = 0
    pres_bad, detect_bad = [], []
    for n in range(2, top + 1):
        # |K_m| = |GL2(Z/n)| / |GL2(Z/m)|, the reduction n -> m being onto
        gl2 = {m: _count_gl2(m) for m in _divisors(n)}
        for name, G in subgroup_family(n):
            entries = [_entries_of(code, n) for code in G.codes]
            for m in _divisors(n):
                claimed = is_full_preimage(G, m)
                # independent route: G contains the kernel of the reduction
                # n -> m iff as many of its elements are the identity mod m,
                # each code ((a*n + b)*n + c)*n + d taken apart here
                inside = sum(1 for a, b, c, d in entries
                             if not b % m and not c % m
                             and not (a - 1) % m and not (d - 1) % m)
                truth = inside == gl2[n] // gl2[m]
                if claimed != truth:
                    detect_bad.append((n, name, m))
                # indices as exact fractions: a wrong closed form for
                # |GL2| makes them differ, not raise
                if truth and (Fraction(gl2_order(n), G.order)
                              != Fraction(gl2_order(m), reduce_subgroup(G, m).order)):
                    pres_bad.append((n, name, m))
                checked += 1
    report.add("preimage-index-preservation", f"n<=:{top}", not pres_bad,
               f"violations {pres_bad}" if pres_bad else f"{checked} (G,m) pairs")
    report.add("preimage-detection", f"n<=:{top}", not detect_bad,
               f"violations {detect_bad}" if detect_bad else f"{checked} (G,m) pairs")


def _entries_of(code: int, n: int) -> tuple[int, int, int, int]:
    """The entries (a, b, c, d) of the code ((a*n + b)*n + c)*n + d, by a
    division chain of its own, so the count does not rest on the library's
    decoding."""
    code, d = divmod(code, n)
    code, c = divmod(code, n)
    a, b = divmod(code, n)
    return a, b, c, d


def _check_crt_orders(report, max_n):
    top = min(max_n, 30)
    bad = []
    for a in range(2, top + 1):
        for b in range(a + 1, top + 1):
            if a * b > top or math.gcd(a, b) != 1:
                continue
            if gl2_order(a * b) != gl2_order(a) * gl2_order(b):
                bad.append((a, b))
            if _count_gl2(a * b) != gl2_order(a) * gl2_order(b):
                bad.append((a, b, "enum"))
    params = f"ab<=:{top}"
    if top < 6:
        report.skip("crt-order-consistency", params, "no coprime products in range")
    else:
        report.add("crt-order-consistency", params, not bad,
                   f"mismatches {bad}" if bad else "orders multiply over coprime parts")


def _check_arith(report):
    bad = []
    for a in range(1, 200):
        for b in range(a + 1, 200):
            if math.gcd(a, b) == 1:
                if euler_phi(a * b) != euler_phi(a) * euler_phi(b):
                    bad.append(("phi", a, b))
                if dedekind_psi(a * b) != dedekind_psi(a) * dedekind_psi(b):
                    bad.append(("psi", a, b))
    report.add("arith-multiplicativity", "a,b<200", not bad,
               str(bad[:5]) if bad else "phi and psi multiplicative on coprimes")

    bad = [n for n in range(2, 10001) if dedekind_psi(n) <= n]
    report.add("psi-exceeds-n", "2<=n<=10000", not bad,
               f"failures {bad[:5]}" if bad else "psi(n) > n throughout")

    bad = []
    for n in range(1, 10001):
        phi, psi = euler_phi(n), dedekind_psi(n)
        prod = n * n
        for p in {p for p, _ in _factor_pairs(n)}:
            prod = prod // (p * p) * (p * p - 1)
        if phi * psi != prod:
            bad.append(n)
        # phi*psi > (6/pi^2) n^2 via the rational bound 98696/10000 < pi^2
        if phi * psi * 98696 <= 60000 * n * n:
            bad.append((n, "lower"))
    report.add("phi-psi-product-identity", "n<=10000", not bad,
               str(bad[:5]) if bad else "phi*psi = n^2 prod(1-1/p^2) > (6/pi^2) n^2")


def _factor_pairs(n):
    """(prime, exponent) pairs by a trial division of its own, so the
    phi-psi identity check does not test the library factorizer with itself."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            yield p, k
        p += 1
    if n > 1:
        yield n, 1


def _check_b_epsilon(report):
    grid = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
            Fraction(3, 4), Fraction(9, 10)]
    top = 10000
    phi = _phi_sieve(top)
    bad = []
    last = None
    for eps in grid:
        b = b_epsilon(eps)
        # brute-force minimum of phi(n)/n^(1-eps) over a desk-scale range,
        # compared exactly as phi(n)^q * m^(q-a) < phi(m)^q * n^(q-a)
        a, q = eps.numerator, eps.denominator
        best_n = 1
        for n in range(2, top + 1):
            if phi[n] ** q * best_n ** (q - a) < phi[best_n] ** q * n ** (q - a):
                best_n = n
        if best_n != b.witness:
            bad.append((eps, best_n, b.witness))
        if last is not None and b.value.compare(last) < 0:
            bad.append((eps, "not monotone"))
        last = b.value
    report.add("b-epsilon-primorial-scan", "n<=10^4 oracle", not bad,
               str(bad) if bad else f"witnesses confirmed for {len(grid)} epsilons")


def _phi_sieve(top):
    """[phi(0), ..., phi(top)] by a sieve of its own (phi(0) is 0), so the
    b-epsilon oracle neither factors each n nor tests the library's phi
    with itself."""
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:  # untouched by any smaller prime: p is prime
            for n in range(p, top + 1, p):
                phi[n] -= phi[n] // p
    return phi


def _check_lattice_scenarios(report):
    bad = []
    scenarios = lattice.bundled_scenarios()
    for sc in scenarios:
        res = lattice.run_scenario(sc)
        if not res.all_equal:
            bad.append((sc.ident, "unequal indices"))
        if not res.stable:
            bad.append((sc.ident, "unstable precision"))
    report.add("lattice-index-equality", "bundled scenarios", not bad,
               str(bad) if bad else f"{len(scenarios)} scenarios equal and stable")


def _check_sieve_examples(report):
    cases = [
        (BoundContext(2, 1, 1), (1,)),
        (BoundContext(6, 1, 1), (1, 2, 4)),
    ]
    bad = []
    for ctx, expected in cases:
        cs = exponent_candidates(ctx)
        if cs.candidates != expected:
            bad.append((ctx, cs.candidates))
        # unbounded cross-check: 4x the ceiling
        brute = tuple(n for n in range(1, 4 * cs.ceiling + 1)
                      if cs.modulus % (euler_phi(n) * dedekind_psi(n)) == 0)
        if brute != expected:
            bad.append((ctx, "brute", brute))
    report.add("sieve-worked-examples", "I=2 and I=6", not bad,
               str(bad) if bad else "candidate sets {1} and {1,2,4} confirmed")


def format_report(report: SuiteReport) -> str:
    lines = []
    for c in report.checks:
        lines.append(f"{c.status.upper():4s} {c.name} [{c.params}] {c.detail}")
    lines.append(f"summary: {report.passed} passed, {report.failed} failed, "
                 f"{report.skipped} skipped")
    return "\n".join(lines)
