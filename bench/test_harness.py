"""Self-tests of the benchmark harness.  Run: python3 -m pytest -q bench"""
from __future__ import annotations

import gc
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import harness
import run
import wl_bounds
import wl_groups
import wl_lattice

WORKLOADS = (wl_groups, wl_lattice, wl_bounds)


def test_p90_needs_ten_samples_above_it():
    assert harness.p90(list(range(100))) == 89
    assert harness.p90(list(range(99))) is None
    # ties at the p90 value do not count as samples above it
    assert harness.p90([1.0] * 85 + [5.0] * 6 + list(range(10, 19))) is None
    assert harness.p90([1.0] * 85 + [5.0] * 5 + list(range(10, 20))) == 5.0


def test_p90_is_unavailable_when_a_tenth_fails():
    assert harness.p90([1.0] * 100 + [float("inf")] * 20) is None


def test_failed_op_counts_as_failed_and_the_run_continues():
    rec = harness.Recorder()

    def boom():
        raise RuntimeError("refused")

    assert rec.op("bounds.exponent_candidates", boom, lambda r: r) is None
    assert rec.op("bounds.baselines", lambda: 7, lambda r: r) == 7
    assert (rec.attempted, rec.failed) == (2, 1)
    assert rec.latencies[0] == float("inf")
    assert rec.counters["bounds.failed"] == 1
    assert rec.mismatches == []


def test_op_times_are_scaled_by_the_calibrations_around_them():
    ref = harness.REFERENCE_CALIBRATION_S
    rec = harness.Recorder()
    clock = rec.clock
    # reference speed, one sample hit by an interrupt, then half speed
    kernel = [1, 1, 1, 6, 1, 1, 2, 2, 2, 2]
    for t, k in enumerate(kernel):
        clock.record(t, t + 0.01, k * ref)
    clock.index()
    rec.windows = [(3.5, 3.7), (6.5, 8.5), (9.2, 9.3)]
    rec.latencies = [0.2, 2.0, math.inf]
    # the lone slow sample just before the first op is smoothed away
    assert clock.speed(3.5, 3.7) == pytest.approx(1.0)
    # the second op has two samples inside it, taken off its time
    assert clock.busy(6.5, 8.5) == pytest.approx(1.98)
    assert clock.speed(6.5, 8.5) == pytest.approx(0.5)
    assert rec.wall_latencies() == pytest.approx([0.2, 1.98, math.inf])
    assert rec.reference_latencies() == pytest.approx([0.2, 0.99, math.inf])
    assert rec.reference_batch_seconds() == pytest.approx(0.2 + 0.99 + 0.05)


def test_clock_samples_inside_a_long_op():
    rec = harness.Recorder()
    rec.clock.start()
    try:
        rec.op("x", lambda: sum(i * i for i in range(3 * 10 ** 6)), lambda r: r)
    finally:
        rec.clock.stop()
    start, end = rec.windows[0]
    assert any(start <= s < end for s, _, _ in rec.clock.samples)
    assert 0 < rec.wall_latencies()[0] < end - start


def test_calibration_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert harness.time_calibration() > 0
    assert gc.isenabled()


def test_traced_ops_record_spans_with_parent_and_op_id():
    rec = harness.Recorder(trace=True)
    rec.op("arith.b_epsilon", lambda: rec.call("arith.b_epsilon", abs, -3), lambda r: r)
    op_span, layer_span = rec.spans
    assert op_span[1] == "op.arith.b_epsilon" and op_span[4] is None
    assert layer_span[1] == "arith.b_epsilon" and layer_span[4] == op_span[0]
    assert layer_span[5] == op_span[5] == 0
    rec.clock.stop()
    assert harness.layer_seconds(rec.spans, rec.clock)["arith.b_epsilon"] >= 0


def _fake_group(n, order, elements=()):
    return SimpleNamespace(n=n, order=order, elements=frozenset(elements))


def test_groups_oracle_catches_a_wrong_order():
    rec = harness.Recorder()
    assert rec.op("modmatrix.subgroup_closure", lambda: _fake_group(12, 4607),
                  lambda G: wl_groups._check_order(G, 4608, rec, "x")) is None
    assert rec.failed == 1 and "4607" in rec.mismatches[0]


def test_lattice_oracle_catches_unequal_or_wrong_indices():
    for index_t, index_t2 in ((6, 3), (5, 5)):
        rec = harness.Recorder()
        report = SimpleNamespace(index_T=index_t, index_Tprime=index_t2)
        rec.op("lattice.verify_index_equality", lambda: report,
               lambda r: wl_lattice._check_report(r, 6, [], 2, 1, rec))
        assert rec.failed == 1


def test_lattice_oracle_catches_instability():
    assert wl_lattice._stable([3, 12, 12, 12])
    assert not wl_lattice._stable([3, 12, 12, 48])


def test_bounds_oracle_catches_a_planted_candidate_and_a_low_bound():
    ctx = SimpleNamespace(I=6, d0=2, d=10)
    B = wl_bounds.sieve_modulus(6, 2, 10)
    ceiling = wl_bounds.sieve_ceiling(B)
    good = [n for n in range(1, ceiling + 1) if B % wl_bounds._phi_psi(n) == 0]
    scanned = [0]
    ok = SimpleNamespace(modulus=B, ceiling=ceiling, candidates=tuple(good))
    wl_bounds._check_candidates(ok, ctx, random.Random(1), scanned,
                                harness.Recorder())
    bad_n = next(n for n in range(1, ceiling + 1) if n not in good)
    planted = SimpleNamespace(modulus=B, ceiling=ceiling,
                              candidates=tuple(sorted(good + [bad_n])))
    with pytest.raises(harness.OracleMismatch):
        wl_bounds._check_candidates(planted, ctx, random.Random(1),
                                    scanned, harness.Recorder())
    with pytest.raises(harness.OracleMismatch):
        wl_bounds.check_upper("2.99999999999", 1.0986122886681098, 12, "bound")
    wl_bounds.check_upper("3.00000000000", 1.0986122886681098, 12, "bound")


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
def test_same_seed_gives_same_inputs(workload):
    assert json.dumps(workload.generate(7), default=str) == \
        json.dumps(workload.generate(7), default=str)
    assert json.dumps(workload.generate(7), default=str) != \
        json.dumps(workload.generate(8), default=str)


@pytest.fixture(scope="module")
def tb():
    return harness.import_program()


def test_two_seeds_build_groups_of_equal_order(tb):
    """The seed conjugates the generators; the program must still build
    groups of the same orders (checked on the small moduli)."""
    def orders(seed):
        return [(c["n"], c["kind"],
                 tb.modmatrix.subgroup_closure(
                     [tb.Mat2(c["n"], *g) for g in c["gens"]], c["n"]).order)
                for c in wl_groups.generate(seed)["cases"]
                if c["n"] <= 8 and c["kind"] != "preimage"]

    assert orders(1) == orders(2)
    assert wl_groups.work_totals(wl_groups.generate(1)) == \
        wl_groups.work_totals(wl_groups.generate(2))


def test_two_seeds_give_equal_lattice_indices(tb):
    """The seed conjugates groups and lattices; the program must still find
    the same indices (checked for l = 2, 3 at k <= 2)."""
    def indices(seed):
        scenarios = tb.lattice.parse_scenarios(wl_lattice.generate(seed)["text"])
        out = []
        for sc in scenarios:
            if sc.prime in (2, 3):
                for k in (1, 2):
                    r = tb.lattice.verify_index_equality(
                        sc.group, sc.lattice, sc.lattice2, k)
                    out.append((sc.ident, k, r.index_T, r.index_Tprime))
        return out

    assert indices(1) == indices(2)
    assert wl_lattice.work_totals(wl_lattice.generate(1)) == \
        wl_lattice.work_totals(wl_lattice.generate(2))


def test_bounds_strata_are_fixed_by_design():
    a, b = (wl_bounds.work_totals(wl_bounds.generate(s)) for s in (1, 2))
    assert {k: a[k] for k in ("invocations", "records", "epsilons")} == \
        {k: b[k] for k in ("invocations", "records", "epsilons")}

    def settings(seed):
        return sorted((inv["stratum"], inv["epsilon"], inv["d"], inv["digits"])
                      for inv in wl_bounds.generate(seed)["invocations"]
                      if inv["stratum"] != "large_ceiling")

    assert settings(1) == settings(2)
    assert {9, 10} <= {d for _, _, d, _ in settings(1)}
    assert all(eps > Fraction(1, 29)
               for eps in wl_bounds.NORMAL_EPSILONS + (wl_bounds.STRATA_EPS,))


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
