"""Command-line surface.

One subcommand per artifact: `bounds` evaluates the polynomial torsion
bounds per curve record, `candidates` runs the exponent sieve, `b-epsilon`
prints the extremal totient constant, `b1-index` the upper-triangular index
formula, `lattice-check` the lattice index comparisons, `baselines` the
prior explicit bounds, and `verify` the full verification suite.

Exit codes: 0 success, 1 usage or parse error, 2 any failed verification.
All numeric flags are exact integers or rationals ("1/2"); reports are
byte-identical across identical invocations.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import lattice
from .arith import ArithError, b_epsilon, dedekind_psi, euler_phi
from .bounds import (
    BoundContext,
    BoundsError,
    baselines,
    exponent_candidates,
    theorem_bounds,
)
from .exactvalue import MAX_DIGITS
from .modmatrix import ModMatrixError
from .records import RecordParseError, check_isogeny_class_indices, parse_curve_records
from .verify import b1_index_by_count, format_report, run_verification_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    failed verifications, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# a reduced denominator q makes q the b_epsilon value's exponent denominator
# L, and its L-th-root render does not finish at this size (nor at epsilon =
# 3690702/10**7); rendering by logarithms would let the limit go
MAX_EPSILON_DENOMINATOR = 10 ** 300


def _epsilon(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if value.denominator > MAX_EPSILON_DENOMINATOR:
        raise argparse.ArgumentTypeError("denominator must be <= 10**300")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _digits(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_DIGITS}, got {value}")
    return value


def _plain(value) -> str:
    """A report value as plain text: None is n/a, a list is space-joined."""
    if value is None:
        return "n/a"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _fields(report: dict, *keys: str) -> list[str]:
    """`key value` lines of a plain report."""
    return [f"{key} {_plain(report[key])}" for key in keys]


def _emit(args, report: dict, plain_lines: list[str], status: int = EXIT_OK) -> int:
    """Print the report as JSON, or its plain rendering; return `status`."""
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(plain_lines))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="torsionbounds",
                     description="Exact polynomial torsion bound calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("bounds", help="evaluate bounds per curve record")
    p.add_argument("records", help="curve-record CSV file, or - for stdin")
    p.add_argument("--epsilon", type=_epsilon, required=True,
                   help="rational epsilon in (0, 2), e.g. 1/2")
    p.add_argument("--degree", type=_positive_int, required=True,
                   help="target extension degree d")
    p.add_argument("--digits", type=_digits, default=12)
    add_format(p)

    p = sub.add_parser("candidates", help="sieve the admissible torsion exponents")
    p.add_argument("--index", type=_positive_int, required=True,
                   help="adelic index I")
    p.add_argument("--base-degree", type=_positive_int, default=1,
                   help="base field degree d0")
    p.add_argument("--degree", type=_positive_int, default=1,
                   help="target extension degree d")
    add_format(p)

    p = sub.add_parser("b-epsilon", help="extremal totient constant")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--digits", type=_digits, default=12)
    add_format(p)

    p = sub.add_parser("b1-index", help="index of the upper-triangular subgroup")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check the formula by counting GL2(Z/n)")
    add_format(p)

    p = sub.add_parser("lattice-check", help="lattice index comparisons")
    p.add_argument("--scenario-file",
                   help="scenario description file; bundled family if omitted")
    add_format(p)

    p = sub.add_parser("baselines", help="prior explicit bounds at degree d")
    p.add_argument("--degree", type=_positive_int, required=True)
    p.add_argument("--digits", type=_digits, default=12)
    add_format(p)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--max-n", type=_positive_int, default=16)
    add_format(p)

    return parser


def _baseline_fields(base) -> dict:
    """The prior bounds of a report; the BN bounds hold for odd d only."""
    return {
        "parent": base.parent,
        "hindry_silverman": base.hindry_silverman,
        "hs_log_note": base.hs_log_note,
        "bn_exponent": base.bn_exponent.decimal if base.bn_applicable else None,
        "bn_order": base.bn_order.decimal if base.bn_applicable else None,
    }


_BOUNDS_COLUMNS = ("label", "d0", "I", "d", "sieve_modulus", "candidate_max",
                   "exponent_bound", "order_bound", "parent", "hindry_silverman",
                   "bn_exponent", "bn_order")


def _cmd_bounds(args) -> int:
    if args.records == "-":
        records = parse_curve_records(sys.stdin)
    else:
        with open(args.records, encoding="utf-8") as fh:
            records = parse_curve_records(fh)

    rows = []
    base = None
    for rec in records:
        ctx = BoundContext(rec.adelic_index, rec.base_degree, args.degree)
        cand = exponent_candidates(ctx)
        tb = theorem_bounds(ctx, args.epsilon, args.digits)
        # built once, from d and digits alone, after the first sieve, so
        # that a degree both refuse is reported by the sieve
        base = base or _baseline_fields(baselines(args.degree, args.digits))
        rows.append({
            "label": rec.label,
            "d0": rec.base_degree,
            "I": rec.adelic_index,
            "d": args.degree,
            "sieve_modulus": cand.modulus,
            "candidates": list(cand.candidates),
            "candidate_max": max(cand.candidates),
            "exponent_bound": tb.exponent_bound.decimal,
            "order_bound": tb.order_bound.decimal,
            "weak_epsilon": tb.weak_epsilon,
            **base,
        })
    failed = [{"isogeny_class": c.isogeny_class, "labels": list(c.labels),
               "indices": list(c.indices)}
              for c in check_isogeny_class_indices(records) if not c.passed]
    report = {"epsilon": str(args.epsilon), "rows": rows,
              "isogeny_class_failures": failed}

    lines = ["# label d0 I d B candidate_max exponent_bound order_bound "
             "parent hindry_silverman bn_exponent bn_order"]
    lines += [" ".join(_plain(row[key]) for key in _BOUNDS_COLUMNS) for row in rows]
    if any(row["weak_epsilon"] for row in rows):
        lines.append(f"# note: epsilon {args.epsilon} >= 1, bound valid but not sharp")
    lines.append("# note: hindry_silverman uses the natural logarithm")
    lines += [f"# FAIL isogeny class {c['isogeny_class']}: labels "
              f"{','.join(c['labels'])} carry indices "
              f"{','.join(map(str, c['indices']))}" for c in failed]
    return _emit(args, report, lines, EXIT_FAILED if failed else EXIT_OK)


def _cmd_candidates(args) -> int:
    cand = exponent_candidates(BoundContext(args.index, args.base_degree, args.degree))
    report = {
        "I": args.index, "d0": args.base_degree, "d": args.degree,
        "sieve_modulus": cand.modulus,
        "ceiling": cand.ceiling,
        "candidates": list(cand.candidates),
    }
    return _emit(args, report, _fields(report, "sieve_modulus", "ceiling", "candidates"))


def _cmd_b_epsilon(args) -> int:
    c = b_epsilon(args.epsilon, args.digits)
    report = {"epsilon": str(c.epsilon), "witness": c.witness,
              "value": c.decimal, "digits": c.digits}
    return _emit(args, report, _fields(report, "epsilon", "witness", "value"))


def _cmd_b1_index(args) -> int:
    n = args.n
    if n < 2:
        print("b1-index: error: --n must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    report = {"n": n, "index": euler_phi(n) * dedekind_psi(n)}
    lines = _fields(report, "n", "index")
    if not args.verify:
        return _emit(args, report, lines)
    brute = b1_index_by_count(n)
    report.update(enumerated=brute, verified=brute == report["index"])
    lines += _fields(report, "enumerated")
    lines.append("verified" if report["verified"] else "MISMATCH")
    return _emit(args, report, lines, EXIT_OK if report["verified"] else EXIT_FAILED)


def _cmd_lattice_check(args) -> int:
    if args.scenario_file:
        with open(args.scenario_file, encoding="utf-8") as fh:
            scenarios = lattice.parse_scenarios(fh.read())
    else:
        scenarios = lattice.bundled_scenarios()
    rows = []
    for sc in scenarios:
        res = lattice.run_scenario(sc)
        for r in res.reports:  # refused before any output: str() would not print it
            if max(r.index_T, r.index_Tprime) >= 10 ** MAX_DIGITS:
                raise lattice.LatticeError(f"scenario {sc.ident} precision {r.precision}: "
                                           f"index has more than {MAX_DIGITS} digits")
        rows.append({
            "ident": sc.ident,
            "prime": sc.prime,
            "reports": [{"precision": r.precision, "index_T": r.index_T,
                         "index_Tprime": r.index_Tprime} for r in res.reports],
            "all_equal": res.all_equal,
            "stable": res.stable,
        })
    ok = all(row["all_equal"] and row["stable"] for row in rows)
    report = {"scenarios": rows, "ok": ok}

    lines = []
    for row in rows:
        pairs = " ".join(f"k={r['precision']}:{r['index_T']}/{r['index_Tprime']}"
                         for r in row["reports"])
        verdict = ("FAIL" if not row["all_equal"]
                   else "UNSTABLE" if not row["stable"] else "pass")
        lines.append(f"{row['ident']} {pairs} {verdict}")
    lines.append(f"{'all equal and stable' if ok else 'FAILURES PRESENT'} "
                 f"({len(rows)} scenarios)")
    return _emit(args, report, lines, EXIT_OK if ok else EXIT_FAILED)


def _cmd_baselines(args) -> int:
    base = baselines(args.degree, args.digits)
    report = {"d": base.d, **_baseline_fields(base), "bn_applicable": base.bn_applicable}
    lines = _fields(report, "d", "parent")
    lines.append(f"hindry_silverman {_plain(report['hindry_silverman'])} "
                 f"({report['hs_log_note']})")
    odd_only = "" if report["bn_applicable"] else " (odd degrees only)"
    lines += [line + odd_only for line in _fields(report, "bn_exponent", "bn_order")]
    return _emit(args, report, lines)


def _cmd_verify(args) -> int:
    suite = run_verification_suite(args.max_n)
    report = {**asdict(suite), "passed": suite.passed, "failed": suite.failed,
              "skipped": suite.skipped, "ok": suite.ok}
    return _emit(args, report, [format_report(suite)],
                 EXIT_OK if suite.ok else EXIT_FAILED)


_COMMANDS = {
    "bounds": _cmd_bounds,
    "candidates": _cmd_candidates,
    "b-epsilon": _cmd_b_epsilon,
    "b1-index": _cmd_b1_index,
    "lattice-check": _cmd_lattice_check,
    "baselines": _cmd_baselines,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ArithError, BoundsError, ModMatrixError, RecordParseError,
            lattice.LatticeError, OSError, UnicodeDecodeError) as exc:
        print(f"torsionbounds: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
