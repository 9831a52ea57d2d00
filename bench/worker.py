"""One round of a workload in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED MODE SPAWNED_AT

MODE is 0 for an untraced round, 1 for a traced one, and "setup" for set-up
alone: the round stops where the timed ops would begin.  SPAWNED_AT is the
parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so set-up time counts
interpreter start, the import of `torsionbounds` and input generation.
Set-up ends where the timed ops begin.  Times are reported in reference
seconds (see harness); set-up is scaled by the median of the round's first
three calibration samples.  The wall-clock figures are kept under "wall_*".
Prints one JSON object with the round's results on stdout.
"""
from __future__ import annotations

import json
import resource
import sys
import time

import harness
import wl_bounds
import wl_groups
import wl_lattice

WORKLOADS = {"groups": wl_groups, "lattice": wl_lattice, "bounds": wl_bounds}


def main(argv) -> int:
    name, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    workload = WORKLOADS[name]
    tb = harness.import_program()
    inputs = workload.generate(seed)
    rec = harness.Recorder(mode == "1")
    wall_setup_s = time.monotonic() - spawned_at
    if mode == "setup":
        for _ in range(3):
            rec.clock.sample()
        rec.clock.index()
        first = [kernel for _, _, kernel in rec.clock.samples]
        json.dump({"setup_s": wall_setup_s * harness.REFERENCE_CALIBRATION_S
                   / harness.median(first), "wall_setup_s": wall_setup_s}, sys.stdout)
        return 0
    rec.clock.start()
    try:
        workload.run(tb, inputs, rec)
    finally:
        rec.clock.stop()
    first = [kernel for _, _, kernel in rec.clock.samples[:3]]
    setup_s = wall_setup_s * harness.REFERENCE_CALIBRATION_S / harness.median(first)
    probes = workload.probes(tb, rec) if hasattr(workload, "probes") else []
    spans = [s for s in rec.spans if s is not None]
    out = {
        "setup_s": setup_s,
        "batch_s": rec.reference_batch_seconds(),
        "latencies": _none_for_inf(rec.reference_latencies()),
        "wall_setup_s": wall_setup_s,
        "wall_batch_s": sum(rec.clock.busy(*w) for w in rec.windows),
        "wall_latencies": _none_for_inf(rec.wall_latencies()),
        "calibrations": rec.clock.samples,
        "failed": rec.failed,
        "mismatches": rec.mismatches[:20],
        "errors": rec.errors[:20],
        "digest": harness.digest([rec.canonical, probes]),
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters": dict(rec.counters),
        "layer_s": dict(harness.layer_seconds(spans, rec.clock)),
        "layer_calls": _span_counts(spans),
        "spans": spans,
    }
    json.dump(out, sys.stdout)
    return 0


def _none_for_inf(xs):
    return [x if x != float("inf") else None for x in xs]


def _span_counts(spans) -> dict:
    counts: dict = {}
    for span in spans:
        counts[span[1]] = counts.get(span[1], 0) + 1
    return counts


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
