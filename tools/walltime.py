"""Wall time of every golden CLI case, each run in a fresh interpreter.

Usage, from any directory:

    python tools/walltime.py LABEL

runs each argv of CASES in `tests/test_golden_cli.py` as the `torsionbounds`
console script does, against this checkout's `src/`, and writes
`BENCH_cli_LABEL.json` at the root of the checkout.  The interpreter start
and the import of the package count, which an in-process timer cannot see.

Each case runs twice over, from two private copies of the package:

- `no_pyc`: run with `-B`, so no `.pyc` of the package is ever written and
  every process compiles it from source (the standard library keeps its own
  `.pyc` files);
- `pyc`: the warm-up run writes the package's `.pyc` files, which the timed
  runs read.

Per case and mode: one warm-up, then RUNS timed runs (one if the warm-up
took over SLOW_S), reported as best and median.  Two calibrations put the
figures of two machines or two moments side by side: a bare `python -c
pass`, and a fixed pure-Python loop timed in this process.  Last, the
tier-1 suite runs once (TIER1, from the root of the checkout against its
`src/`), and its wall time, exit code and summary line are recorded.
"""
import ast
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
RUNS = 5
SLOW_S = 2.0
# the console script's own body
ENTRY = "import sys; from torsionbounds.cli import main; sys.exit(main())"
# the tier-1 suite, as ROADMAP.md and the CI run it
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def golden_cases() -> dict[str, list[str]]:
    """CASES of the golden suite, read without importing it (it needs pytest)."""
    tree = ast.parse((ROOT / "tests" / "test_golden_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CASES"]:
            # string literals, lists and string arithmetic only
            return eval(compile(ast.Expression(node.value), "CASES", "eval"),
                        {"__builtins__": {}})
    raise SystemExit("walltime: no CASES in tests/test_golden_cli.py")


def timed(cmd: list[str], env: dict) -> tuple[float, int]:
    start = time.perf_counter()
    run = subprocess.run(cmd, env=env, cwd=GOLDEN, stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, run.returncode


def summary(times: list[float]) -> dict:
    return {"best_s": round(min(times), 4), "median_s": round(statistics.median(times), 4),
            "runs": len(times)}


def measure(cmd: list[str], env: dict) -> tuple[dict, int]:
    warm_up, code = timed(cmd, env)
    times = [timed(cmd, env)[0] for _ in range(1 if warm_up > SLOW_S else RUNS)]
    return summary(times), code


def tier1() -> dict:
    """One timed run of the tier-1 suite against this checkout's `src/`."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (f":{path}" if path else "")}
    start = time.perf_counter()
    run = subprocess.run([sys.executable, *TIER1], env=env, cwd=ROOT,
                         stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - start, 2), "exit": run.returncode,
            "summary": lines[-1] if lines else ""}


def loop_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/walltime.py LABEL", file=sys.stderr)
        return 1
    label = argv[0]
    cases = golden_cases()
    report = {
        "label": label,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "runs": RUNS,
        "slow_s": SLOW_S,
        "calibration": {
            "python_c_pass": measure([sys.executable, "-c", "pass"], dict(os.environ))[0],
            "python_loop": summary([loop_s() for _ in range(RUNS)]),
        },
        "cases": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        modes = {}
        for mode, flags in (("no_pyc", ["-B"]), ("pyc", [])):
            copy = Path(scratch) / mode
            shutil.copytree(ROOT / "src" / "torsionbounds", copy / "torsionbounds",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {**os.environ, "PYTHONPATH": str(copy), "COLUMNS": "80"}
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            modes[mode] = ([sys.executable, *flags, "-c", ENTRY], env)
        # input files are named relative to tests/golden, the runs' directory
        for name, args in sorted(cases.items()):
            entry = {"argv": args}
            for mode, (cmd, env) in modes.items():
                entry[mode], entry["exit"] = measure(cmd + args, env)
            report["cases"][name] = entry
            print(f"{name}: no_pyc {entry['no_pyc']['best_s']:.3f} s, "
                  f"pyc {entry['pyc']['best_s']:.3f} s", file=sys.stderr)
    report["tier1"] = tier1()
    print(f"tier-1: {report['tier1']['summary']} ({report['tier1']['wall_s']:.1f} s)",
          file=sys.stderr)
    out = ROOT / f"BENCH_cli_{label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
