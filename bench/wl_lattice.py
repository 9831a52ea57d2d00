"""`lattice` workload: the l-adic kernel filtration behind lattice index checks.

The input is scenario-file text: three group types against three lattice
changes for each prime l, at precisions 1..k.  The seed conjugates every
generator and both lattice bases by a random unimodular matrix U; the image
of U g U^-1 in Aut(U T) is the image of g in Aut(T), so the indices, and the
work, are the same for every seed while the text differs.  k is at most 4 for
l = 2, 3 for l = 3 and l = 5, and 2 for l = 7 (l = 7, k = 3 alone would take
about 95 s per Borel scenario).
"""
from __future__ import annotations

import random
from fractions import Fraction

from harness import expect
from wl_groups import factor, gl2_size

PRECISIONS = {2: 4, 3: 3, 5: 3, 7: 2}
GROUP_TYPES = ("borel", "split_cartan", "unipotent")
# lattice change: sigma multiplies the second basis vector by l**e
SIGMA_EXP = {"diag_1_l": 1, "scalar_l": 0, "diag_1_lsq": 2}


def sigma(l: int, stype: str):
    if stype == "scalar_l":
        return (l, 0, 0, l)
    return (1, 0, 0, l ** SIGMA_EXP[stype])


def unit_generators(l: int) -> list[int]:
    """Generators of (Z/l^j)^x for every j."""
    if l == 2:
        return [3, 5]
    for g in range(2, l * l):
        if g % l and all(pow(g, (l * (l - 1)) // q, l * l) != 1
                         for q in factor(l * (l - 1))):
            return [g]
    raise ValueError(l)


def group_generators(l: int, gtype: str, stype: str) -> list[tuple]:
    """Generators of a group of type `gtype` stabilizing the standard lattice
    and its sigma-transform (the depths transpose into each other)."""
    e = SIGMA_EXP[stype]
    units = unit_generators(l)
    diag = [(u, 0, 0, 1) for u in units] + [(1, 0, 0, u) for u in units]
    if gtype == "borel":
        return diag + [(1, 1, 0, 1), (1, 0, l ** max(1, e), 1)]
    if gtype == "split_cartan":
        return diag + [(1, l, 0, 1), (1, 0, l ** (1 + e), 1)]
    if gtype == "unipotent":
        level = l ** max(1, e)
        kernel = [(1 + level, 0, 0, 1), (1, level, 0, 1), (1, 0, level, 1),
                  (1, 0, 0, 1 + level), (1, level, level, 1)]
        return kernel + [(1, 1, 0, 1)]
    raise ValueError(gtype)


def expected_index(l: int, gtype: str, stype: str, k: int) -> int:
    """Closed-form index of the image at precision k."""
    e = SIGMA_EXP[stype]
    if gtype == "borel":
        return l ** (min(max(1, e), k) - 1) * (l + 1)
    if gtype == "split_cartan":
        return l ** (min(1 + e, k) + min(1, k) - 1) * (l + 1)
    if gtype == "unipotent":
        m = min(max(1, e), k)
        return l ** (3 * m - 3) * (l - 1) ** 2 * (l + 1)
    raise ValueError(gtype)


def _mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _inv(x):
    det = Fraction(x[0] * x[3] - x[1] * x[2])
    return (x[3] / det, -x[1] / det, -x[2] / det, x[0] / det)


def random_unimodular(rng: random.Random):
    u = (rng.choice((1, -1)), 0, 0, 1)
    for _ in range(4):
        t = rng.choice((-2, -1, 1, 2))
        u = _mul(u, (1, t, 0, 1) if rng.random() < 0.5 else (1, 0, t, 1))
    return u


def _fmt(m) -> str:
    a, b, c, d = (Fraction(x) for x in m)
    return f"{a},{b};{c},{d}"


def scenario_list():
    """(ident, l, gtype, stype, k) for every scenario, in file order."""
    return [(f"{gtype}-l{l}-{stype}", l, gtype, stype, k)
            for l, k in PRECISIONS.items()
            for stype in SIGMA_EXP
            for gtype in GROUP_TYPES]


def generate(seed: int) -> dict:
    rng = random.Random(f"lattice:{seed}")
    lines = []
    for ident, l, gtype, stype, k in scenario_list():
        u = random_unimodular(rng)
        u_inv = _inv(u)
        lines.append(f"scenario {ident}")
        lines.append(f"prime {l}")
        lines.append("precisions " + " ".join(str(j) for j in range(1, k + 1)))
        for g in group_generators(l, gtype, stype):
            lines.append("generator " + _fmt(_mul(_mul(u, g), u_inv)))
        lines.append("lattice " + _fmt(u))
        lines.append("lattice2 " + _fmt(_mul(u, sigma(l, stype))))
        lines.append("end")
        lines.append("")
    return {"text": "\n".join(lines), "scenarios": scenario_list()}


def work_totals(inputs: dict) -> dict:
    """Seed-independent totals: ops and image elements mod l^(k-1)."""
    ops = image = 0
    for _, l, gtype, stype, k in inputs["scenarios"]:
        for j in range(1, k + 1):
            ops += 1
            image += _image_order(l, gtype, stype, j - 1)
    return {"ops": ops, "image_elements": image, "text_lines": inputs["text"].count("\n")}


def _image_order(l, gtype, stype, j):
    """Order of the image mod l^j (1 for j = 0)."""
    return 1 if j == 0 else gl2_size(l ** j) // expected_index(l, gtype, stype, j)


def run(tb, inputs: dict, rec) -> None:
    lat = tb.lattice
    expected = inputs["scenarios"]
    parsed = rec.op("lattice.parse_scenarios",
                    lambda: rec.call("lattice.parse_scenarios", lat.parse_scenarios,
                                     inputs["text"]),
                    lambda scs: _check_parse(scs, expected, rec))
    if parsed is None:
        return
    for sc, (ident, l, gtype, stype, k) in zip(parsed, expected):
        indices = []
        for j in sc.precisions:
            want = expected_index(l, gtype, stype, j)
            report = rec.op(
                "lattice.verify_index_equality",
                lambda: rec.call("lattice.verify_index_equality",
                                 lat.verify_index_equality,
                                 sc.group, sc.lattice, sc.lattice2, j),
                lambda r: _check_report(r, want, indices, l, j, rec))
            if report is None:
                break


def _check_parse(scenarios, expected, rec):
    expect([(sc.ident, sc.prime, tuple(sc.precisions)) for sc in scenarios]
           == [(i, l, tuple(range(1, k + 1))) for i, l, _, _, k in expected],
           "parsed scenarios differ from the generated ones")
    rec.counters["lattice.parse_scenarios.scenarios"] += len(scenarios)
    return [[sc.ident, [_fmt(g) for g in sc.group.generators],
             _fmt(sc.lattice.basis), _fmt(sc.lattice2.basis)] for sc in scenarios]


def _check_report(report, want, indices, l, k, rec):
    expect(report.index_T == report.index_Tprime,
           f"indices differ: {report.index_T} vs {report.index_Tprime}")
    expect(report.index_T == want, f"index {report.index_T}, closed form {want}")
    indices.append(report.index_T)
    expect(_stable(indices), f"indices {indices} not stable")
    # the filtration enumerates the image mod l^(k-1); its order follows from
    # the index returned at the previous precision
    rec.counters["lattice.verify_index_equality.image_elements"] += (
        1 if k == 1 else gl2_size(l ** (k - 1)) // indices[-2])
    return report.index_T


def _stable(values) -> bool:
    """Once two consecutive precisions agree, every later one agrees too."""
    settled = False
    for prev, cur in zip(values, values[1:]):
        if settled and cur != prev:
            return False
        settled = settled or cur == prev
    return True
