"""`groups` workload: the modmatrix engine on a fixed ladder of moduli.

For every modulus n in MODULI the workload builds a fixed set of subgroup
types of GL2(Z/nZ) and queries each one.  Building element sets (closure,
full preimage, enumeration) and querying them (index, level, full-preimage
test, reduction, membership) are mixed, so a change that speeds one use and
slows the other shows in the totals.  The seed conjugates the generators by a
random element and draws the membership queries; orders, and so the work,
are the same for every seed.
"""
from __future__ import annotations

import math
import random

from harness import expect

MODULI = tuple(range(2, 17))
TYPES = ("full", "sl2", "borel", "b1", "split_cartan")
QUERIES = 16  # membership queries per subgroup, half of them members


# -- arithmetic of the oracle, independent of the program -------------------

def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in factor(n):
        out = out // p * (p - 1)
    return out


def psi(n: int) -> int:
    out = n
    for p in factor(n):
        out = out // p * (p + 1)
    return out


def gl2_size(n: int) -> int:
    """|GL2(Z/nZ)| = n**4 * prod over p | n of (1 - 1/p)(1 - 1/p**2)."""
    out = n ** 4
    for p in factor(n):
        out = out // p ** 3 * (p - 1) * (p * p - 1)
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def closed_order(kind: str, n: int, m: int | None = None) -> int:
    if kind == "full":
        return gl2_size(n)
    if kind == "sl2":
        return gl2_size(n) // phi(n)
    if kind == "borel":
        return n * phi(n) ** 2
    if kind == "b1":
        return n * phi(n)
    if kind == "split_cartan":
        return phi(n) ** 2
    if kind == "preimage":
        return m * phi(m) * (gl2_size(n) // gl2_size(m))
    raise ValueError(kind)


def in_type(kind: str, x, n: int, m: int | None = None) -> bool:
    """Membership predicate of the unconjugated subgroup type."""
    a, b, c, d = x
    if kind == "full":
        return True
    if kind == "sl2":
        return (a * d - b * c) % n == 1 % n
    if kind == "borel":
        return c % n == 0
    if kind == "b1":
        return a % n == 1 % n and c % n == 0
    if kind == "split_cartan":
        return b % n == 0 and c % n == 0
    if kind == "preimage":
        return a % m == 1 % m and c % m == 0
    raise ValueError(kind)


# -- raw 2x2 arithmetic for input generation --------------------------------

def mul(x, y, n):
    return ((x[0] * y[0] + x[1] * y[2]) % n, (x[0] * y[1] + x[1] * y[3]) % n,
            (x[2] * y[0] + x[3] * y[2]) % n, (x[2] * y[1] + x[3] * y[3]) % n)


def inv(x, n):
    di = pow((x[0] * x[3] - x[1] * x[2]) % n, -1, n)
    return ((x[3] * di) % n, (-x[1] * di) % n, (-x[2] * di) % n, (x[0] * di) % n)


def random_gl2(rng: random.Random, n: int):
    while True:
        x = tuple(rng.randrange(n) for _ in range(4))
        if math.gcd((x[0] * x[3] - x[1] * x[2]) % n, n) == 1:
            return x


def unit_generators(n: int) -> list[int]:
    """A small generating set of (Z/nZ)^x, chosen greedily."""
    gens: list[int] = []
    reached = {1 % n}
    for u in range(2, n):
        if math.gcd(u, n) != 1 or u in reached:
            continue
        gens.append(u)
        frontier = list(reached)
        while frontier:
            frontier = [x * g % n for x in frontier for g in gens
                        if x * g % n not in reached]
            reached.update(frontier)
    return gens


def base_generators(kind: str, n: int) -> list[tuple]:
    units = unit_generators(n)
    t = (1, 1, 0, 1)
    diag1 = [(u, 0, 0, 1) for u in units]
    diag2 = [(1, 0, 0, u) for u in units]
    if kind == "full":
        return [t, (0, n - 1, 1, 0)] + diag1
    if kind == "sl2":
        return [t, (1, 0, 1, 1)]
    if kind == "borel":
        return [t] + diag1 + diag2
    if kind == "b1":
        return [t] + diag2
    if kind == "split_cartan":
        return diag1 + diag2
    raise ValueError(kind)


def generate(seed: int) -> dict:
    """The workload's inputs as plain data; the same seed gives the same inputs."""
    rng = random.Random(f"groups:{seed}")
    cases = []
    for n in MODULI:
        h = random_gl2(rng, n)
        h_inv = inv(h, n)
        for kind in TYPES:
            gens = [mul(mul(h, g, n), h_inv, n) for g in base_generators(kind, n)]
            members = []
            for _ in range(QUERIES // 2):
                x = (1, 0, 0, 1 % n)
                for _ in range(rng.randint(1, 8)):
                    if gens:
                        x = mul(x, rng.choice(gens), n)
                members.append(x)
            others = [random_gl2(rng, n) for _ in range(QUERIES - len(members))]
            cases.append({"n": n, "kind": kind, "gens": gens, "conj": h,
                          "queries": members + others})
        for m in divisors(n)[1:-1]:
            members = []
            for _ in range(QUERIES // 2):
                while True:
                    x = (1 + m * rng.randrange(n // m), rng.randrange(n),
                         m * rng.randrange(n // m), rng.randrange(n))
                    if math.gcd((x[0] * x[3] - x[1] * x[2]) % n, n) == 1:
                        break
                members.append(x)
            others = [random_gl2(rng, n) for _ in range(QUERIES - len(members))]
            cases.append({"n": n, "kind": "preimage", "m": m, "conj": (1, 0, 0, 1),
                          "queries": members + others})
    return {"cases": cases, "verify": list(MODULI)}


def work_totals(inputs: dict) -> dict:
    """Seed-independent totals: ops by kind and elements each kind builds."""
    totals = {"cases": len(inputs["cases"]), "queries": 0, "built": 0,
              "divisor_checks": 0, "enumerated": 0}
    for case in inputs["cases"]:
        n = case["n"]
        totals["queries"] += len(case["queries"])
        totals["built"] += closed_order(case["kind"], n, case.get("m"))
        totals["divisor_checks"] += len(divisors(n))
    for n in inputs["verify"]:
        totals["enumerated"] += gl2_size(n)
    return totals


# -- ops and oracles ---------------------------------------------------------

def kernel_counts(G, n: int) -> dict[int, int]:
    """For each divisor m of n, the number of elements of G congruent to I mod m."""
    divs = divisors(n)
    counts = dict.fromkeys(divs, 0)
    for g in G.elements:
        a, b, c, d = g.a, g.b, g.c, g.d
        for m in divs:
            if (a - 1) % m == 0 and b % m == 0 and c % m == 0 and (d - 1) % m == 0:
                counts[m] += 1
    return counts


def run(tb, inputs: dict, rec) -> None:
    Mat2 = tb.Mat2
    mm = tb.modmatrix
    for case in inputs["cases"]:
        n, kind, m = case["n"], case["kind"], case.get("m")
        order = closed_order(kind, n, m)
        if kind == "preimage":
            G = rec.op("modmatrix.full_preimage",
                       lambda: rec.call("modmatrix.full_preimage", mm.full_preimage,
                                        rec.call("modmatrix.b1_subgroup",
                                                 mm.b1_subgroup, m), n),
                       lambda G: _check_order(G, order, rec, "modmatrix.full_preimage"))
        else:
            gens = [Mat2(n, *g) for g in case["gens"]]
            G = rec.op("modmatrix.subgroup_closure",
                       lambda: rec.call("modmatrix.subgroup_closure",
                                        mm.subgroup_closure, gens, n),
                       lambda G: _check_order(G, order, rec,
                                              "modmatrix.subgroup_closure"))
        if G is None:
            continue
        _query(tb, rec, G, case, order)
        del G  # so that peak_rss_mb sees one element set at a time
    for n in inputs["verify"]:
        expected = phi(n) * psi(n)
        rec.op("modmatrix.enumerate_gl2",
               lambda: _b1_index_verify(rec, mm, n),
               lambda r: _check_b1_index(r, n, expected, rec))


def _check_order(G, order, rec, layer):
    expect(G.order == order, f"order {G.order}, closed form {order}")
    rec.counters[layer + ".elements"] += G.order
    return G.order


def _b1_index_verify(rec, mm, n):
    elements = rec.call("modmatrix.enumerate_gl2", mm.enumerate_gl2, n)
    b1 = rec.call("modmatrix.b1_subgroup", mm.b1_subgroup, n)
    return len(elements), len(elements) // b1.order


def _check_b1_index(result, n, expected, rec):
    size, index = result
    expect(size == gl2_size(n), f"|GL2(Z/{n})| enumerated {size}")
    expect(index == expected, f"B1({n}) index {index}, phi*psi {expected}")
    rec.counters["modmatrix.enumerate_gl2.elements"] += size
    return index


def _query(tb, rec, G, case, order):
    mm = tb.modmatrix
    n, kind, m = case["n"], case["kind"], case.get("m")
    counts = kernel_counts(G, n)
    contains_kernel = {d: counts[d] == gl2_size(n) // gl2_size(d) for d in counts}
    level = min(d for d, ok in contains_kernel.items() if ok)

    rec.op("modmatrix.subgroup_index",
           lambda: rec.call("modmatrix.subgroup_index", mm.subgroup_index, G),
           lambda r: _equal(r, gl2_size(n) // order, "index"))
    got_level = rec.op("modmatrix.level_within",
                       lambda: rec.call("modmatrix.level_within", mm.level_within, G),
                       lambda r: _equal(r, level, "level"))
    for d in counts:
        rec.op("modmatrix.is_full_preimage",
               lambda: rec.call("modmatrix.is_full_preimage", mm.is_full_preimage, G, d),
               lambda r: _count_true(_equal(r, contains_kernel[d],
                                            f"full preimage at {d}"), rec))
    if got_level is not None:
        rec.op("modmatrix.reduce_subgroup",
               lambda: rec.call("modmatrix.reduce_subgroup", mm.reduce_subgroup,
                                G, got_level),
               lambda H: _check_reduction(H, G, counts[got_level], rec))
    queries = [tb.Mat2(n, *q) for q in case["queries"]]
    h_inv = inv(case["conj"], n)
    truth = [in_type(kind, mul(mul(h_inv, q, n), case["conj"], n), n, m)
             for q in case["queries"]]
    rec.op("modmatrix.contains",
           lambda: rec.call("modmatrix.contains", _contains_all, G, queries),
           lambda r: _check_contains(r, truth, rec))


def _contains_all(G, queries):
    return [q in G for q in queries]


def _equal(got, want, what):
    expect(got == want, f"{what}: got {got}, oracle {want}")
    return got


def _count_true(value, rec):
    rec.counters["modmatrix.is_full_preimage.true"] += bool(value)
    return value


def _check_reduction(H, G, kernel_count, rec):
    expect(H.order * kernel_count == G.order,
           f"image order {H.order}, oracle {G.order // kernel_count}")
    rec.counters["modmatrix.reduce_subgroup.elements"] += G.order
    return H.order


def _check_contains(result, truth, rec):
    expect(result == truth, f"membership {result}, oracle {truth}")
    rec.counters["modmatrix.contains.calls"] += len(truth)
    return result
