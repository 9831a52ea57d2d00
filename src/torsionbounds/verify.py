"""One-shot verification suite: re-proves the finite-level facts by count and enumeration.

Each check is deterministic and self-contained; the suite report lists one
line per check with pass/fail/skip status.  The same checks back the
acceptance tests, so `verify` from the command line reproduces them.

What the reference of each check shares with the code it judges:
- gl2-order-vs-enumeration, b1-index-formula, crt-order-consistency:
  `gl2_order` and phi*psi against `_count_gl2`, from the products mod n:
  nothing, but crt's first half tests `gl2_order` with itself.
- preimage-detection: `is_full_preimage` against a count of the elements
  that are I mod m: `_lifts`, which lists K_m there and the family's
  `full` and `preimage-b1(m)` members here.
- preimage-index-preservation: `gl2_order` and `reduce_subgroup`, on the
  pairs that count finds full: the family.
- arith-multiplicativity, psi-exceeds-n: `euler_phi` and `dedekind_psi`
  against themselves: all of it, as checks of consistency.
- phi-psi-product-identity, b-epsilon-primorial-scan, sieve-worked-examples:
  phi*psi, `b_epsilon` and `exponent_candidates` against `_sieve`: nothing
  but the candidate set's modulus and ceiling.
- lattice-index-equality: `lattice.run_scenario` against itself for the
  equality of the two indices, which is all of it; and each index at
  l^k <= LATTICE_CLOSURE_MAX, of the bundled family and of two probe
  groups, against [GL2(Z/l^k) : H], H closed by `modmatrix._closure` from
  the generators conjugated over the rationals: `_closure`, which
  `subgroup_orders` runs for the image mod l, and `gl2_order`, but not the
  conjugation, the lifts or the sift.
preimage-detection thus still shares a kernel with what it checks; an
independent route for it would add code.
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
    SubgroupModN,
    _count_gl2,
    _lifts,
    _unit_table,
    b1_subgroup,
    gl2_order,
    is_full_preimage,
    reduce_subgroup,
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

    def _tally(self, status: str) -> int:
        return sum(1 for c in self.checks if c.status == status)

    failed = property(lambda self: self._tally("fail"))
    passed = property(lambda self: self._tally("pass"))
    skipped = property(lambda self: self._tally("skip"))

    @property
    def ok(self) -> bool:
        return self.failed == 0


SETS_MAX_N = 24  # the largest modulus of the checks that hold element sets


def subgroup_family(n: int):
    """A deterministic family of subgroups of GL2(Z/nZ) for the index tests,
    closed from generators given as entry tuples and reduced mod n."""
    modmatrix._check_enumeration(gl2_order(n))

    def closure(gens):
        return SubgroupModN(n, frozenset(modmatrix._closure(
            [modmatrix._reduce(g, n) for g in gens], n)))

    out = [("trivial", closure([(1, 0, 0, 1)])),
           ("full", _scan_preimage(SubgroupModN(1, _TRIVIAL_MOD_1), n))]
    if n >= 2:
        units = [u for u, unit in enumerate(_unit_table(n)) if unit]  # 1 first
        out += [("b1", b1_subgroup(n)),
                ("borel", closure([(1, 1, 0, 1)] + [(u, 0, 0, 1) for u in units[1:]]
                                  + [(1, 0, 0, u) for u in units[1:]])),
                ("sl2ish", closure([(1, 1, 0, 1), (0, -1, 1, 0)])),
                ("cyclic-unipotent", closure([(1, 1, 0, 1)])),
                ("scalars", closure([(u, 0, 0, u) for u in units]))]
    for m in _divisors(n):
        if 2 <= m < n:
            out.append((f"preimage-b1({m})", _scan_preimage(b1_subgroup(m), n)))
    return out


def _scan_preimage(H: SubgroupModN, n: int) -> SubgroupModN:
    """The preimage of H in GL2(Z/n) by the determinant scan alone: unlike
    `full_preimage`, which checks its size against `gl2_order` and raises on
    a mismatch, a wrong closed form here shows up as a failed check.  It
    runs `_lifts`, as `full_preimage` does, so it is not an independent route."""
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


def b1_index_by_count(n: int) -> int:
    """[GL2(Z/n) : B1(n)] without the closed form: |GL2(Z/n)| from the
    products mod n over |B1(n)|, n times the number of units."""
    return _count_gl2(n) // (n * sum(_unit_table(n)))


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
        if b1_index_by_count(n) != euler_phi(n) * dedekind_psi(n):
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
        nn, n3 = n * n, n ** 3
        try:  # a size check that fails in the lift scan is a violation, not an error
            family = subgroup_family(n)
        except modmatrix.EnumerationTooLargeError:  # the cap is checked up front
            raise
        except modmatrix.ModMatrixError as err:
            detect_bad.append((n, str(err)))
            continue
        for name, G in family:
            # each code ((a*n + b)*n + c)*n + d taken apart here, not by the library
            entries = [(code // n3, code // nn % n, code // n % n, code % n) for code in G.codes]
            for m in _divisors(n):
                claimed = is_full_preimage(G, m)
                # independent route: G contains the kernel of the reduction
                # n -> m iff as many of its elements are the identity mod m
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

    jordan = _sieve(10000)[1]
    bad = []
    for n in range(1, 10001):
        phi_psi = euler_phi(n) * dedekind_psi(n)
        if phi_psi != jordan[n]:
            bad.append(n)
        # phi*psi > (6/pi^2) n^2 via the rational bound 98696/10000 < pi^2
        if phi_psi * 98696 <= 60000 * n * n:
            bad.append((n, "lower"))
    report.add("phi-psi-product-identity", "n<=10000", not bad,
               str(bad[:5]) if bad else "phi*psi = n^2 prod(1-1/p^2) > (6/pi^2) n^2")


def _check_b_epsilon(report):
    grid = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
            Fraction(3, 4), Fraction(9, 10)]
    top = 10000
    phi = _sieve(top)[0]
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


def _sieve(top):
    """The tables [phi(n)] and [n^2 * prod over primes p | n of (1 - 1/p^2)]
    for n = 0..top (0 at n = 0), by a sieve of its own; the second is
    phi(n)*psi(n).  The references read them, so they neither factor each n
    nor test the library's phi and psi with themselves."""
    phi = list(range(top + 1))
    jordan = [n * n for n in phi]
    for p in range(2, top + 1):
        if phi[p] == p:  # untouched by any smaller prime: p is prime
            for n in range(p, top + 1, p):
                phi[n] -= phi[n] // p
                jordan[n] -= jordan[n] // (p * p)
    return phi, jordan


# the largest l^k at which lattice-index-equality closes each image by brute force
LATTICE_CLOSURE_MAX = 81


def _check_lattice_scenarios(report):
    bad = []
    closed = 0
    scenarios = lattice.bundled_scenarios()
    probes = _lattice_probes()
    results = [(sc, lattice.run_scenario(sc)) for sc in scenarios + probes]
    for sc, res in results[:len(scenarios)]:
        if not res.all_equal:
            bad.append((sc.ident, "unequal indices"))
        if not res.stable:
            bad.append((sc.ident, "unstable precision"))
    for sc, res in results:
        for name, T in (("T", sc.lattice), ("T'", sc.lattice2)):
            for r in res.reports:
                n = sc.prime ** r.precision
                if n > LATTICE_CLOSURE_MAX:
                    continue
                gens = [_conjugate_mod(g, T.basis, n) for g in sc.group.generators]
                index = gl2_order(n) // len(modmatrix._closure(gens, n))
                claimed = r.index_T if name == "T" else r.index_Tprime
                if claimed != index:
                    bad.append((sc.ident, name, r.precision, claimed, index))
                closed += 1
    report.add("lattice-index-equality", "bundled scenarios", not bad,
               str(bad) if bad else f"{len(scenarios)} scenarios equal and stable, "
               f"{closed} indices at l^k<={LATTICE_CLOSURE_MAX} by closure "
               f"({len(probes)} probes)")


def _lattice_probes():
    """Two groups on the standard lattice that reach corners of the sift the
    bundled family misses: T. and V. Dokchitser's group onto GL2(Z/4) but
    not GL2(Z/8), whose layer 1 at l = 2 is full while layer 2 is not, and
    <s, I + 9 E12> at l = 3, whose last layer at precision 3 fills only by
    conjugation.  Only their indices are judged, by closure."""
    out = []
    for ident, l, gens, ks in (
            ("dokchitser-l2", 2, ((0, 3, 7, 7), (1, 5, 6, 3)), (1, 2, 3, 4)),
            ("last-layer-l3", 3, ((0, -1, 1, 0), (1, 9, 0, 1)), (1, 2, 3))):
        T = lattice.LatticeBasis.standard(l)
        G = lattice.AdicGroup(l, tuple(map(lattice.rat_mat, gens)))
        out.append(lattice.LatticeScenario(ident, G, T, T, ks))
    return out


def _conjugate_mod(g, B, n):
    """B^-1 g B over the rationals, reduced mod n (an l-integral matrix, B a
    basis g stabilizes)."""
    a, b, c, d = B
    det = a * d - b * c
    x = lattice.rat_mul(lattice.rat_mul((d / det, -b / det, -c / det, a / det), g), B)
    return tuple(q.numerator * pow(q.denominator, -1, n) % n for q in x)


def _check_sieve_examples(report):
    cases = [(BoundContext(2, 1, 1), (1,)), (BoundContext(6, 1, 1), (1, 2, 4))]
    bad = []
    for ctx, expected in cases:
        cs = exponent_candidates(ctx)
        if cs.candidates != expected:
            bad.append((ctx, cs.candidates))
        # unbounded cross-check: 4x the ceiling, phi*psi from the sieve
        phi_psi = _sieve(4 * cs.ceiling)[1]
        brute = tuple(n for n in range(1, 4 * cs.ceiling + 1) if cs.modulus % phi_psi[n] == 0)
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
