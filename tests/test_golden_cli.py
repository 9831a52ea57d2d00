"""The CLI contract: stdout, stderr and exit code against recorded golden
output, each case within one wall budget.

`tests/golden/expected.json` holds what each command in CASES printed when
it was recorded; input files named in a command live in `tests/golden/`.
A new case is recorded from the parent commit's source, in a commit of its
own, before the change it guards: add it to CASES and run
`PYTHONPATH=src python tests/test_golden_cli.py`. After an intended output
change, rewrite the record the same way and review its diff.
"""
import contextlib
import importlib.util
import io
import json
import os
import time
from pathlib import Path
from unittest import mock

import pytest

from torsionbounds.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"
# wall seconds any one case may take in-process; the slowest, verify --max-n
# 24 and 59, lattice-check of all of GL2 at l = 31 and b1-index --n 3162
# --verify, take 0.8-1.5 s each on a 2-vCPU Xeon (all of GL2 at l = 7 and
# precision 64, generators t, s, d, took 4.5-6 s before the sift let full
# layers propagate, and takes milliseconds now)
BUDGET_S = 10

CASES = {
    "candidates-i6-d10": ["candidates", "--index", "6", "--degree", "10"],
    "candidates-large-ceiling": ["candidates", "--index", "100000", "--base-degree", "5",
                                 "--degree", "10000"],
    "candidates-over-budget": ["candidates", "--index", "1", "--base-degree", "20"],
    "b-epsilon-quarter": ["b-epsilon", "--epsilon", "1/4", "--digits", "15"],
    "b1-index-12": ["b1-index", "--n", "12", "--verify"],
    "b1-index-12-json": ["b1-index", "--n", "12", "--verify", "--format", "json"],
    "b1-index-100": ["b1-index", "--n", "100", "--verify"],
    "b1-index-58": ["b1-index", "--n", "58", "--verify"],
    "b1-index-59": ["b1-index", "--n", "59", "--verify"],
    "b1-index-227": ["b1-index", "--n", "227", "--verify"],
    "b1-index-3162": ["b1-index", "--n", "3162", "--verify"],
    "b1-index-3163": ["b1-index", "--n", "3163", "--verify"],
    "baselines-d9": ["baselines", "--degree", "9"],
    "baselines-d10": ["baselines", "--degree", "10"],
    "bounds": ["bounds", "records.csv", "--epsilon", "1/2", "--degree", "10"],
    "bounds-digits-21": ["bounds", "records.csv", "--epsilon", "1/2", "--degree", "100",
                         "--digits", "21"],
    "bounds-json": ["bounds", "records.csv", "--epsilon", "1/2", "--degree", "10",
                    "--format", "json"],
    "lattice-check": ["lattice-check", "--scenario-file", "scenario.txt"],
    "candidates-json": ["candidates", "--index", "6", "--degree", "10", "--format", "json"],
    "b-epsilon-json": ["b-epsilon", "--epsilon", "1/4", "--digits", "15", "--format", "json"],
    "b1-index-12-formula": ["b1-index", "--n", "12"],
    "b1-index-1": ["b1-index", "--n", "1"],
    "baselines-d1": ["baselines", "--degree", "1"],
    "baselines-d1-json": ["baselines", "--degree", "1", "--format", "json"],
    "baselines-d9-json": ["baselines", "--degree", "9", "--format", "json"],
    "bounds-weak-epsilon": ["bounds", "records.csv", "--epsilon", "3/2", "--degree", "1"],
    "bounds-mismatch": ["bounds", "mismatch.csv", "--epsilon", "1/2", "--degree", "10"],
    "bounds-mismatch-json": ["bounds", "mismatch.csv", "--epsilon", "1/2", "--degree", "10",
                             "--format", "json"],
    "lattice-check-json": ["lattice-check", "--format", "json"],
    "verify-2": ["verify", "--max-n", "2"],
    "verify-2-json": ["verify", "--max-n", "2", "--format", "json"],
    "verify-12": ["verify", "--max-n", "12"],
    "verify-12-json": ["verify", "--max-n", "12", "--format", "json"],
    "verify-24": ["verify", "--max-n", "24"],
    "verify-24-json": ["verify", "--max-n", "24", "--format", "json"],
    "verify-59": ["verify", "--max-n", "59"],
    "baselines-d6112": ["baselines", "--degree", "6112"],
    "baselines-d6113": ["baselines", "--degree", "6113"],
    "bounds-d6113": ["bounds", "records.csv", "--epsilon", "1/2", "--degree", "6113"],
    "lattice-check-bundled": ["lattice-check"],
    "lattice-check-denominators": ["lattice-check", "--scenario-file", "denominators.txt"],
    "lattice-check-denominators-json": ["lattice-check", "--scenario-file",
                                        "denominators.txt", "--format", "json"],
    "lattice-check-not-invariant": ["lattice-check", "--scenario-file",
                                    "not_invariant.txt"],
    "lattice-check-not-invariant-json": ["lattice-check", "--scenario-file",
                                         "not_invariant.txt", "--format", "json"],
    "lattice-check-not-prime": ["lattice-check", "--scenario-file", "not_prime.txt"],
    "lattice-check-not-prime-json": ["lattice-check", "--scenario-file", "not_prime.txt",
                                     "--format", "json"],
    "lattice-check-big-prime": ["lattice-check", "--scenario-file", "big_prime.txt"],
    "lattice-check-big-prime-json": ["lattice-check", "--scenario-file", "big_prime.txt",
                                     "--format", "json"],
    "lattice-check-big-kernel": ["lattice-check", "--scenario-file", "big_kernel.txt"],
    "lattice-check-big-kernel-json": ["lattice-check", "--scenario-file", "big_kernel.txt",
                                      "--format", "json"],
    "b-epsilon-digits-4300": ["b-epsilon", "--epsilon", "1/3", "--digits", "4300"],
    "b-epsilon-digits-4301": ["b-epsilon", "--epsilon", "1/3", "--digits", "4301"],
    "baselines-digits-4301": ["baselines", "--degree", "9", "--digits", "4301"],
    "bounds-digits-4301": ["bounds", "records.csv", "--epsilon", "1/3", "--degree", "10",
                           "--digits", "4301"],
    "lattice-check-prime-1e18": ["lattice-check", "--scenario-file", "prime_1e18.txt"],
    "lattice-check-prime-1e18-json": ["lattice-check", "--scenario-file",
                                      "prime_1e18.txt", "--format", "json"],
    "lattice-check-strong-pseudoprime": ["lattice-check", "--scenario-file",
                                         "strong_pseudoprime.txt"],
    "lattice-check-past-prime-limit": ["lattice-check", "--scenario-file",
                                       "past_prime_limit.txt"],
    "bounds-not-utf8": ["bounds", "not_utf8.txt", "--epsilon", "1/2", "--degree", "10"],
    "lattice-check-not-utf8": ["lattice-check", "--scenario-file", "not_utf8.txt"],
    "lattice-check-deep-l2": ["lattice-check", "--scenario-file", "deep_l2.txt"],
    "lattice-check-deep-l2-json": ["lattice-check", "--scenario-file", "deep_l2.txt",
                                   "--format", "json"],
    "lattice-check-unsorted-precisions": ["lattice-check", "--scenario-file",
                                          "unsorted_precisions.txt"],
    "lattice-check-unsorted-precisions-json": ["lattice-check", "--scenario-file",
                                               "unsorted_precisions.txt", "--format", "json"],
    "lattice-check-precision-0": ["lattice-check", "--scenario-file", "precision_0.txt"],
    "lattice-check-precision-800": ["lattice-check", "--scenario-file",
                                    "precision_800.txt"],
    "lattice-check-oversized-entry": ["lattice-check", "--scenario-file",
                                      "oversized_entry.txt"],
    "bounds-isogeny-class": ["bounds", "isogeny_class.csv", "--epsilon", "1/3",
                             "--degree", "10"],
    "bounds-isogeny-class-json": ["bounds", "isogeny_class.csv", "--epsilon", "1/3",
                                  "--degree", "10", "--format", "json"],
    "bounds-epsilon-1-50": ["bounds", "records.csv", "--epsilon", "1/50", "--degree", "10"],
    "b-epsilon-1-132": ["b-epsilon", "--epsilon", "1/132"],
    "bounds-epsilon-1-66": ["bounds", "records.csv", "--epsilon", "1/66", "--degree", "10"],
    "b-epsilon-denominator-1e400": ["b-epsilon", "--epsilon", "1/1" + "0" * 400],
    "bounds-denominator-1e400": ["bounds", "records.csv", "--epsilon", "1/1" + "0" * 400,
                                 "--degree", "10"],
    "lattice-check-full-image-l13": ["lattice-check", "--scenario-file",
                                     "full_image_l13.txt"],
    "lattice-check-full-image-l13-json": ["lattice-check", "--scenario-file",
                                          "full_image_l13.txt", "--format", "json"],
    "candidates-base-degree-2848": ["candidates", "--index", "1", "--base-degree", "2848"],
    "candidates-base-degree-1e6": ["candidates", "--index", "1", "--base-degree", "1000000"],
    "bounds-base-degree-3000": ["bounds", "base_degree_3000.csv", "--epsilon", "1/2",
                                "--degree", "10"],
    "lattice-check-index-over-4300-digits": ["lattice-check", "--scenario-file",
                                             "index_over_4300_digits.txt"],
    "lattice-check-index-over-4300-digits-json": ["lattice-check", "--scenario-file",
                                                  "index_over_4300_digits.txt",
                                                  "--format", "json"],
    "candidates-i6": ["candidates", "--index", "6"],
    "candidates-i6-json": ["candidates", "--index", "6", "--format", "json"],
    "b-epsilon-1-58": ["b-epsilon", "--epsilon", "1/58"],
    "b-epsilon-1-100000": ["b-epsilon", "--epsilon", "1/100000"],
    "b-epsilon-1-10000000": ["b-epsilon", "--epsilon", "1/10000000"],
    "b1-index-101": ["b1-index", "--n", "101", "--verify"],
    "lattice-check-full-image-l31": ["lattice-check", "--scenario-file",
                                     "full_image_l31.txt"],
    "lattice-check-full-image-l7-k64-tsd": ["lattice-check", "--scenario-file",
                                            "full_image_l7_k64_tsd.txt"],
    "lattice-check-full-image-l7-k64-dts": ["lattice-check", "--scenario-file",
                                            "full_image_l7_k64_dts.txt"],
    "lattice-check-kernel-1e9-k20": ["lattice-check", "--scenario-file",
                                     "kernel_1e9_k20.txt"],
    "lattice-check-kernel-1e9-k60": ["lattice-check", "--scenario-file",
                                     "kernel_1e9_k60.txt"],
    "lattice-check-repeated-precision": ["lattice-check", "--scenario-file",
                                         "repeated_precision.txt"],
    "lattice-check-dokchitser-l2": ["lattice-check", "--scenario-file",
                                    "dokchitser_l2.txt"],
    "lattice-check-gamma0-4": ["lattice-check", "--scenario-file", "gamma0_4.txt"],
    "lattice-check-unipotent-l2": ["lattice-check", "--scenario-file",
                                   "unipotent_l2.txt"],
    "lattice-check-never-fill-k64": ["lattice-check", "--scenario-file",
                                     "never_fill_k64.txt"],
    "baselines-d6111-digits-1": ["baselines", "--degree", "6111", "--digits", "1"],
    "baselines-d6111-digits-2-json": ["baselines", "--degree", "6111", "--digits", "2",
                                      "--format", "json"],
    "candidates-base-degree-16": ["candidates", "--index", "1", "--base-degree", "16"],
}


def _run(argv):
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to the terminal width
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _records():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name):
    expected = _records()[name]
    start = time.perf_counter()
    got = _run(CASES[name])
    elapsed = time.perf_counter() - start
    assert got == expected
    assert elapsed < BUDGET_S, f"{name} took {elapsed:.1f} s"


def test_every_case_has_a_record_and_every_record_a_case():
    assert sorted(_records()) == sorted(CASES)


def test_walltime_script_reads_every_case():
    path = Path(__file__).parents[1] / "tools" / "walltime.py"
    spec = importlib.util.spec_from_file_location("walltime", path)
    walltime = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(walltime)
    assert walltime.golden_cases() == CASES


if __name__ == "__main__":
    record = {name: _run(argv) for name, argv in sorted(CASES.items())}
    EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
