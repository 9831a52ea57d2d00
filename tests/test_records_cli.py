"""Curve-record CSV handling and the command-line surface."""
import string

import pytest
from hypothesis import given, strategies as st

from torsionbounds import cli, modmatrix, verify
from torsionbounds.cli import main
from torsionbounds.records import (
    CurveRecord,
    RecordParseError,
    check_isogeny_class_indices,
    parse_curve_records,
)

CSV = "label,base_degree,adelic_index,isogeny_class\n"


# -- records ----------------------------------------------------------------

def test_parse_minimal():
    recs = parse_curve_records("label,base_degree,adelic_index\nX,1,2\n")
    assert recs == [CurveRecord("X", 1, 2, None)]


def test_parse_rejects_nonpositive_with_line_number():
    with pytest.raises(RecordParseError) as info:
        parse_curve_records(CSV + "A,1,2,\nY,2,-3,\n")
    assert info.value.line == 3


def test_parse_rejects_duplicate_labels():
    with pytest.raises(RecordParseError, match="duplicate label 'A'"):
        parse_curve_records(CSV + "A,1,2,\nA,1,2,\n")


def test_parse_rejects_bad_header():
    with pytest.raises(RecordParseError, match="bad header"):
        parse_curve_records("name,deg,idx\nX,1,2\n")


def test_parse_rejects_non_integer():
    with pytest.raises(RecordParseError) as info:
        parse_curve_records(CSV + "A,one,2,\n")
    assert info.value.line == 2


@pytest.mark.parametrize("degree,index", [
    ("1_0", "2"), ("+2", "2"), ("1", "\u0663"), ("1", "2.0"), ("1", ""), ("-1", "2"),
])
def test_parse_accepts_only_ascii_decimal_digits(degree, index):
    with pytest.raises(RecordParseError) as info:
        parse_curve_records(CSV + f"A,1,2,\nB,{degree},{index},\n")
    assert info.value.line == 3


def test_parse_allows_whitespace_around_integers():
    recs = parse_curve_records(CSV + "A, 1 ,\t12 ,C1\n")
    assert recs == [CurveRecord("A", 1, 12, "C1")]


def test_parse_rejects_missing_header():
    with pytest.raises(RecordParseError, match="missing header"):
        parse_curve_records("")


labels = st.text(alphabet=string.ascii_letters + string.digits + ".-",
                 min_size=1, max_size=10)


@given(st.lists(
    st.tuples(labels,
              st.integers(min_value=1, max_value=99),
              st.integers(min_value=1, max_value=10 ** 6),
              st.one_of(st.none(), labels)),
    max_size=8, unique_by=lambda t: t[0]))
def test_emit_parse_roundtrip(rows):
    records = [CurveRecord(*row) for row in rows]
    # labels carry no comma or quote, so the rows need no CSV quoting
    has_class = any(r.isogeny_class for r in records)
    lines = [CSV.strip() if has_class else "label,base_degree,adelic_index"]
    for r in records:
        row = [r.label, str(r.base_degree), str(r.adelic_index)]
        lines.append(",".join(row + [r.isogeny_class or ""] if has_class else row))
    assert parse_curve_records("\n".join(lines) + "\n") == records


def test_class_check_passes_on_equal_indices():
    recs = parse_curve_records(CSV + "A,1,12,C1\nB,1,12,C1\nC,1,7,\n")
    checks = check_isogeny_class_indices(recs)
    assert len(checks) == 1
    assert checks[0].passed


def test_class_check_fails_and_lists_labels():
    recs = parse_curve_records(CSV + "A,1,12,C1\nB,1,24,C1\n")
    (check,) = check_isogeny_class_indices(recs)
    assert not check.passed
    assert check.labels == ("A", "B")
    assert check.indices == (12, 24)


def test_singleton_classes_pass():
    recs = parse_curve_records(CSV + "A,1,12,C1\nB,1,24,C2\n")
    assert all(c.passed for c in check_isogeny_class_indices(recs))


# -- CLI --------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_b_epsilon_command(capsys):
    code, out, _ = run_cli(capsys, "b-epsilon", "--epsilon", "1/2")
    assert code == 0
    assert "witness 2" in out
    assert "0.707106781186" in out


@pytest.mark.parametrize("epsilon", [f"1/{10 ** 300 + 1}", "1e-301",
                                     f"{10 ** 400 - 1}/{10 ** 400}"])
def test_epsilon_denominator_past_1e300_is_a_usage_error(capsys, epsilon):
    code, out, err = run_cli(capsys, "b-epsilon", "--epsilon", epsilon)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == ("torsionbounds b-epsilon: error: argument "
                                    "--epsilon: denominator must be <= 10**300")


def test_epsilon_denominator_1e300_is_accepted(capsys):
    # 2/(2 * 10**300) reduces to 1/10**300; the walk refuses it past the cap
    for epsilon in (f"1/{10 ** 300}", f"2/{2 * 10 ** 300}"):
        code, _, err = run_cli(capsys, "b-epsilon", "--epsilon", epsilon)
        assert code == 1
        assert err == ("torsionbounds: error: input 7420738134810 exceeds "
                       "factorization cap 1000000000000\n")


def test_cli_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "candidates", "--index", "48", "--degree", "5")
    _, second, _ = run_cli(capsys, "candidates", "--index", "48", "--degree", "5")
    assert first == second


def test_usage_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "candidates", "--index", "zero")
    assert code == 1
    code, _, err = run_cli(capsys, "candidates", "--index", "0")
    assert code == 1
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 1


def test_bounds_command(tmp_path, capsys):
    path = tmp_path / "recs.csv"
    path.write_text(CSV + "X,1,2,C1\nY,1,2,C1\n")
    code, out, _ = run_cli(capsys, "bounds", str(path),
                           "--epsilon", "1/2", "--degree", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 2
    assert lines[0].startswith("X 1 2 4 ")


def test_bounds_isogeny_class_failure_exits_2(tmp_path, capsys):
    path = tmp_path / "recs.csv"
    path.write_text(CSV + "X,1,12,C1\nY,1,24,C1\n")
    code, out, _ = run_cli(capsys, "bounds", str(path),
                           "--epsilon", "1/2", "--degree", "1")
    assert code == 2
    assert "FAIL isogeny class C1" in out


def test_bounds_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "bounds", "no-such-file.csv",
                           "--epsilon", "1/2", "--degree", "1")
    assert code == 1


def test_bounds_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "recs.csv"
    path.write_text(CSV + "X,1,-2,\n")
    code, _, err = run_cli(capsys, "bounds", str(path),
                           "--epsilon", "1/2", "--degree", "1")
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("index", ["1_0", "+2", "\u0663"])
def test_bounds_rejects_non_decimal_index(tmp_path, capsys, index):
    path = tmp_path / "recs.csv"
    path.write_text(CSV + f"X,1,{index},\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "bounds", str(path),
                             "--epsilon", "1/2", "--degree", "1")
    assert (code, out) == (1, "")
    assert err.startswith("torsionbounds: error: line 2: ")
    assert len(err.splitlines()) == 1


def test_lattice_check_scenario_file(tmp_path, capsys):
    path = tmp_path / "sc.txt"
    path.write_text(
        "scenario demo\nprime 3\nprecisions 1 2\n"
        "generator 2,0;0,1\ngenerator 1,0;0,2\n"
        "generator 1,1;0,1\ngenerator 1,0;3,1\n"
        "lattice 1,0;0,1\nlattice2 3,0;0,3\nend\n")
    code, out, _ = run_cli(capsys, "lattice-check", "--scenario-file", str(path))
    assert code == 0
    assert "demo k=1:4/4 k=2:4/4 pass" in out


def test_lattice_check_prints_an_index_below_the_digit_limit(tmp_path, capsys):
    # |GL2(Z/l^60)| at l = 10^18+3 has about 4,320 digits, but the index of
    # the cyclic group of order l^59 that 1,l;0,1 generates has about 3,270
    l = 10 ** 18 + 3
    path = tmp_path / "sc.txt"
    path.write_text(f"scenario kernel\nprime {l}\nprecisions 60\n"
                    f"generator 1,{l};0,1\nlattice 1,0;0,1\nlattice2 1,0;0,1\nend\n")
    code, out, err = run_cli(capsys, "lattice-check", "--scenario-file", str(path))
    index = l ** 236 * (l * l - 1) * (l * l - l) // l ** 59
    assert 10 ** 3200 < index < 10 ** 4300
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"kernel k=60:{index}/{index} pass"


def test_verify_command_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6")
    assert code == 0
    assert "0 failed" in out


def test_verify_scan_mismatch_fails_with_exit_2(monkeypatch, capsys):
    real = verify._count_gl2
    monkeypatch.setattr(verify, "_count_gl2", lambda n: real(n) + (n == 5))
    code, out, err = run_cli(capsys, "verify", "--max-n", "6")
    assert (code, err) == (2, "")
    assert "FAIL gl2-order-vs-enumeration [n<=:6] mismatches at [5]\n" in out
    # the same count sizes the reduction kernel of the detection check
    assert "FAIL preimage-detection [n<=:6] violations [(5, 'full', 1)]\n" in out
    assert "2 failed" in out


def test_verify_wrong_gl2_order_fails_the_preimage_suite(monkeypatch, capsys):
    real = modmatrix.gl2_order
    # the closed form as the library and the suite see it
    for module in (modmatrix, verify):
        monkeypatch.setattr(module, "gl2_order", lambda n: 481 if n == 5 else real(n))
    code, out, err = run_cli(capsys, "verify", "--max-n", "6")
    assert (code, err) == (2, "")
    assert "FAIL preimage-index-preservation [n<=:6] violations [(5, 'full', 1)]\n" in out
    assert "FAIL preimage-detection [n<=:6] violations [(5, 'full', 1)]\n" in out
    assert "3 failed" in out


def test_b1_index_verify_counts_without_the_closed_form(monkeypatch, capsys):
    # --verify counts GL2(Z/5) from the products mod 5; the closed form is
    # not read
    real = modmatrix.gl2_order
    monkeypatch.setattr(modmatrix, "gl2_order", lambda n: 481 if n == 5 else real(n))
    code, out, err = run_cli(capsys, "b1-index", "--n", "5", "--verify")
    assert (code, out, err) == (0, "n 5\nindex 24\nenumerated 24\nverified\n", "")
    # a wrong count fails the verification with exit 2
    count = cli._count_gl2
    monkeypatch.setattr(cli, "_count_gl2", lambda n: count(n) + 20 * (n == 5))
    code, out, err = run_cli(capsys, "b1-index", "--n", "5", "--verify")
    assert (code, out, err) == (2, "n 5\nindex 24\nenumerated 25\nMISMATCH\n", "")
