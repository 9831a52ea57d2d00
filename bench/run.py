"""Benchmark of torsionbounds: the groups, lattice and bounds workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload groups --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25

A run repeats rounds of one workload until --seconds have passed.  Every
round runs in a fresh interpreter (bench/worker.py) on the same inputs made
from --seed, so in-process memos start cold, as in a CLI call, and set-up is
measured once per round, and in SETUP_ROUNDS set-up-only interpreters before
the rounds.  Times are in reference seconds (see harness.py).  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 rounds
alternate untraced and traced, and the metrics are the per-layer ones from
the traced rounds plus the tracing overhead.  The full record, spans
included, is written to .bench_out/.  See bench/README.md for the workloads
and metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness

WORKLOADS = ("groups", "lattice", "bounds")
WORKER = harness.ROOT / "bench" / "worker.py"
OUT_DIR = harness.ROOT / ".bench_out"
# a run must end within 180 s: no round starts after this many seconds
# unless the run still lacks its two rounds
LAST_ROUND_START_S = 110
RUN_TIMEOUT_S = 170
# set-up alone is repeated this many times before the rounds, so that
# setup_s is a median of enough samples on the workloads with long rounds
SETUP_ROUNDS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("modmatrix.subgroup_closure.s", "s", "lower"),
    ("modmatrix.subgroup_closure.calls", "count", "lower"),
    ("modmatrix.subgroup_closure.elements", "count", "lower"),
    ("modmatrix.subgroup_closure.elements_per_s", "1/s", "higher"),
    ("modmatrix.enumerate_gl2.s", "s", "lower"),
    ("modmatrix.enumerate_gl2.elements", "count", "lower"),
    ("modmatrix.full_preimage.s", "s", "lower"),
    ("modmatrix.full_preimage.elements", "count", "lower"),
    ("modmatrix.reduce_subgroup.s", "s", "lower"),
    ("modmatrix.reduce_subgroup.elements", "count", "lower"),
    ("modmatrix.is_full_preimage.s", "s", "lower"),
    ("modmatrix.is_full_preimage.calls", "count", "lower"),
    ("modmatrix.is_full_preimage.true_frac", "ratio", "higher"),
    ("modmatrix.level_within.s", "s", "lower"),
    ("modmatrix.level_within.calls", "count", "lower"),
    ("modmatrix.contains.s", "s", "lower"),
    ("modmatrix.contains.calls", "count", "lower"),
    ("lattice.parse_scenarios.s", "s", "lower"),
    ("lattice.parse_scenarios.scenarios", "count", "higher"),
    ("lattice.verify_index_equality.s", "s", "lower"),
    ("lattice.verify_index_equality.calls", "count", "lower"),
    ("lattice.verify_index_equality.image_elements", "count", "lower"),
    ("lattice.verify_index_equality.elements_per_s", "1/s", "higher"),
    ("records.parse_curve_records.s", "s", "lower"),
    ("records.parse_curve_records.rows", "count", "higher"),
    ("bounds.exponent_candidates.s", "s", "lower"),
    ("bounds.exponent_candidates.calls", "count", "lower"),
    ("bounds.exponent_candidates.n_scanned", "count", "lower"),
    ("bounds.exponent_candidates.hit_frac", "ratio", "higher"),
    ("bounds.exponent_candidates.warm_frac", "ratio", "higher"),
    ("bounds.theorem_bounds.s", "s", "lower"),
    ("bounds.theorem_bounds.calls", "count", "lower"),
    ("bounds.baselines.s", "s", "lower"),
    ("bounds.baselines.calls", "count", "lower"),
    ("arith.b_epsilon.s", "s", "lower"),
    ("arith.b_epsilon.calls", "count", "lower"),
    ("modmatrix.failed", "count", "lower"),
    ("lattice.failed", "count", "lower"),
    ("records.failed", "count", "lower"),
    ("bounds.failed", "count", "lower"),
    ("arith.failed", "count", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("probe.small_eps.failed", "count", "lower"),
    ("probe.over_budget.failed", "count", "lower"),
    ("trace.overhead_frac", "ratio", "higher"),
)


class RunError(Exception):
    pass


def run_round(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """One fresh interpreter; mode "0", "1" (traced) or "setup" (see worker)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), mode,
             repr(spawned_at)],
            cwd=harness.ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} round did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"{workload} round exited {proc.returncode}:\n{proc.stderr}")
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise RunError(f"{workload} round printed no result:\n{proc.stderr}") from None
    result["traced"] = mode == "1"
    result["wall_s"] = time.monotonic() - spawned_at
    return result


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[list[dict], list[dict]]:
    """SETUP_ROUNDS set-up rounds, then rounds until `seconds` have passed,
    and at least two; with tracing, untraced and traced rounds alternate."""
    start = time.monotonic()
    setups = [run_round(workload, seed, "setup", RUN_TIMEOUT_S)
              for _ in range(SETUP_ROUNDS)]
    rounds: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        if len(rounds) >= 2 and (
                elapsed >= seconds or elapsed >= LAST_ROUND_START_S):
            return setups, rounds
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, seed, "1" if traced else "0",
                                RUN_TIMEOUT_S - elapsed))


def ops_per_s(r: dict) -> float:
    ok = sum(1 for x in r["latencies"] if x is not None)
    return ok / r["batch_s"]


def latencies_ms(r: dict) -> list[float]:
    return [x * 1e3 if x is not None else float("inf") for x in r["latencies"]]


def end_to_end(setups: list[dict], rounds: list[dict]) -> dict:
    """setup_s and ops_per_s are taken per round, then the median over the
    run's rounds (set-up rounds included for setup_s), so that a round slowed
    by the machine moves the result least; the latency quantiles are taken
    over the ops of all rounds together."""
    latencies = [x for r in rounds for x in latencies_ms(r)]
    return {
        "setup_s": harness.median([r["setup_s"] for r in setups + rounds]),
        "ops_per_s": harness.median([ops_per_s(r) for r in rounds]),
        "op_p50_ms": harness.median(latencies),
        "op_p90_ms": harness.p90(latencies),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def layer_values(r: dict) -> dict:
    s, calls, c = r["layer_s"], r["layer_calls"], r["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name, unit, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "s":
            out[name] = s.get(layer, 0.0)
        elif field == "calls":
            out[name] = c.get(name, calls.get(layer, 0))
        elif field in ("failed", "elements", "image_elements", "scenarios", "rows",
                       "n_scanned"):
            out[name] = c.get(name, 0)
    for layer, work in (("modmatrix.subgroup_closure", "elements"),
                        ("lattice.verify_index_equality", "image_elements")):
        out[f"{layer}.elements_per_s"] = ratio(c.get(f"{layer}.{work}", 0),
                                               s.get(layer, 0.0))
    out["modmatrix.is_full_preimage.true_frac"] = ratio(
        c.get("modmatrix.is_full_preimage.true", 0),
        calls.get("modmatrix.is_full_preimage", 0))
    sieve = "bounds.exponent_candidates"
    out[sieve + ".hit_frac"] = ratio(c.get(sieve + ".candidates", 0),
                                     c.get(sieve + ".n_scanned", 0))
    out[sieve + ".warm_frac"] = ratio(c.get(sieve + ".warm", 0), calls.get(sieve, 0))
    return out


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = [layer_values(r) for r in traced]
    out = {name: harness.median([v[name] for v in values]) for name in values[0]}
    attempted = sum(len(r["latencies"]) for r in rounds)
    out["failed_frac"] = sum(r["failed"] for r in rounds) / attempted
    untraced_rate = harness.median([ops_per_s(r) for r in plain])
    traced_rate = harness.median([ops_per_s(r) for r in traced])
    out["trace.overhead_frac"] = (traced_rate - untraced_rate) / untraced_rate
    return out


def summarize(trace: bool, setups: list[dict], rounds: list[dict]) -> dict:
    digests = {r["digest"] for r in rounds}
    mismatches = [m for r in rounds for m in r["mismatches"]]
    if trace:
        values = per_layer(rounds)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end(setups, rounds)
        units = dict(END_TO_END)
    return {
        "correct": not mismatches and len(digests) == 1,
        "attempted": sum(len(r["latencies"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "digest": rounds[0]["digest"],
        "digests_agree": len(digests) == 1,
        "errors": [e for r in rounds for e in r["errors"]][:20],
    }


def write_record(workload, seed, seconds, trace, env, setups, rounds, summary) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env, "summary": summary,
              "setup_rounds": setups, "rounds": rounds}
    path.write_text(json.dumps(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not harness.PACKAGE_INIT.is_file():
        print(f"benchmark: no program source at {harness.PACKAGE_INIT}", file=sys.stderr)
        return 2
    env = harness.environment(args.seed)
    names = WORKLOADS if args.all else (args.workload,)
    trace = bool(args.trace) and not args.all
    summaries = {}
    try:
        for name in names:
            setups, rounds = run_workload(name, args.seed, args.seconds, trace)
            summaries[name] = summarize(trace, setups, rounds)
            write_record(name, args.seed, args.seconds, trace, env, setups, rounds,
                         summaries[name])
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, s in summaries.items():
        print(f"# {name}: output_digest {s['digest']} "
              f"(rounds agree: {s['digests_agree']}), "
              f"attempted {s['attempted']}, failed {s['failed']}")
        for line in s["errors"]:
            print(f"#   {line}")
    if args.all:
        print(f"{'workload':10} {'metric':14} {'value':>14} unit")
        for name, s in summaries.items():
            metrics = dict(s["metrics"])
            metrics["failed_frac"] = {"value": s["failed"] / s["attempted"],
                                      "unit": "ratio"}
            for metric, v in metrics.items():
                value = "n/a" if v["value"] is None else f"{v['value']:.6g}"
                print(f"{name:10} {metric:14} {value:>14} {v['unit']}")
        return 0 if all(s["correct"] for s in summaries.values()) else 1
    s = summaries[args.workload]
    print(json.dumps({key: s[key] for key in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
