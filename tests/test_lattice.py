"""Lattice stabilizers and index comparisons at finite precision."""
from fractions import Fraction

import pytest

from torsionbounds import lattice, modmatrix
from torsionbounds.lattice import (
    AdicGroup,
    LatticeBasis,
    LatticeError,
    NotInvariantError,
    SingularInputError,
    bundled_scenarios,
    expected_index,
    format_scenarios,
    image_in_aut,
    lattice_index,
    parse_rational_matrix,
    parse_scenarios,
    rat_mat,
    run_scenario,
    stabilizes,
    subgroup_order_prime_power,
    valuation,
    verify_index_equality,
)
from torsionbounds.modmatrix import (
    EnumerationTooLargeError,
    Mat2,
    gl2_order,
    subgroup_closure,
)


def test_valuation():
    assert valuation(Fraction(12), 2) == 2
    assert valuation(Fraction(3, 4), 2) == -2
    assert valuation(Fraction(0), 2) is None


def test_lattice_basis_validation():
    with pytest.raises(SingularInputError):
        LatticeBasis(2, rat_mat((1, 2, 2, 4)))
    with pytest.raises(LatticeError):
        LatticeBasis(2, rat_mat((Fraction(1, 3), 0, 0, 1)))
    # l-power denominators are fine
    LatticeBasis(2, rat_mat((Fraction(1, 4), 0, 0, 1)))


def test_adic_group_validation():
    with pytest.raises(LatticeError):
        AdicGroup(2, (rat_mat((Fraction(1, 2), 0, 0, 1)),))  # not 2-integral
    with pytest.raises(LatticeError):
        AdicGroup(2, (rat_mat((2, 0, 0, 1)),))  # det not a 2-unit


# -- stabilizes -------------------------------------------------------------

def test_identity_stabilizes_everything():
    for l in (2, 3, 5):
        T = LatticeBasis.standard(l).transformed(rat_mat((1, 0, 0, l)))
        assert stabilizes(rat_mat((1, 0, 0, 1)), T)


def test_lower_unipotent_stabilizes_standard():
    assert stabilizes(rat_mat((1, 0, 2, 1)), LatticeBasis.standard(2))


def test_conjugate_with_negative_valuation_fails():
    T = LatticeBasis.standard(2).transformed(rat_mat((1, 0, 0, 2)))
    # basis-conjugate of [[1,0],[1,1]] is [[1,0],[1/2,1]]
    assert not stabilizes(rat_mat((1, 0, 1, 1)), T)
    # while the upper unipotent conjugates to [[1,2],[0,1]], still integral
    assert stabilizes(rat_mat((1, 1, 0, 1)), T)


def test_stabilizes_rejects_singular():
    with pytest.raises(SingularInputError):
        stabilizes(rat_mat((1, 1, 1, 1)), LatticeBasis.standard(2))


# -- images and indices -----------------------------------------------------

def borel_group(l):
    return lattice._borel_group(l, depth=1)


def test_image_of_identity_group_is_trivial():
    G = AdicGroup(2, (rat_mat((1, 0, 0, 1)),))
    assert image_in_aut(G, LatticeBasis.standard(2), 1).order == 1


def test_borel_image_mod2():
    img = image_in_aut(borel_group(2), LatticeBasis.standard(2), 1)
    assert img.order == 2
    assert gl2_order(2) // img.order == 3


def test_borel_index_mod3():
    assert lattice_index(borel_group(3), LatticeBasis.standard(3), 1) == 4


def test_full_image_has_index_one():
    gens = tuple(rat_mat(e) for e in [(0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 0, 2)])
    G = AdicGroup(3, gens)
    assert lattice_index(G, LatticeBasis.standard(3), 2) == 1


def test_verify_index_equality_same_lattice():
    T = LatticeBasis.standard(2)
    rep = verify_index_equality(borel_group(2), T, T, 2)
    assert rep.equal and rep.index_T == rep.index_Tprime


def test_borel_against_diag_1_2_lattice():
    T = LatticeBasis.standard(2)
    T2 = T.transformed(rat_mat((1, 0, 0, 2)))
    for k in (1, 2, 3):
        rep = verify_index_equality(borel_group(2), T, T2, k)
        assert rep.equal
        assert rep.index_T == 3


def test_not_invariant_error_names_generator():
    T2 = LatticeBasis.standard(2).transformed(rat_mat((1, 0, 0, 2)))
    G = AdicGroup(2, (rat_mat((1, 0, 1, 1)),))
    with pytest.raises(NotInvariantError) as info:
        verify_index_equality(G, LatticeBasis.standard(2), T2, 1)
    assert "1,0;1,1" in str(info.value)


def test_scaling_lattice_leaves_index_unchanged():
    G = borel_group(3)
    T = LatticeBasis.standard(3)
    for k in (1, 2):
        assert lattice_index(G, T, k) == lattice_index(G, T.scaled(3), k)
        assert lattice_index(G, T, k) == lattice_index(G, T.scaled(Fraction(1, 3)), k)


# -- layered order algorithm vs direct closure ------------------------------

@pytest.mark.parametrize("l,k", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_layered_order_matches_closure(l, k):
    m = l ** k
    cases = [
        [Mat2(m, 1, 1, 0, 1)],
        [Mat2(m, 1, 1, 0, 1), Mat2(m, 1, 0, l, 1)],
        [Mat2(m, 0, m - 1, 1, 0), Mat2(m, 1, 1, 0, 1)],
    ]
    for gens in cases:
        brute = subgroup_closure(gens, m).order
        assert subgroup_order_prime_power(gens, l, k) == brute


def test_layered_order_cap_guards_the_coset_scan(monkeypatch):
    monkeypatch.setattr(modmatrix, "ENUMERATION_CAP", 10)
    def gl2_gens(m):
        return [Mat2(m, 1, 1, 0, 1), Mat2(m, 0, m - 1, 1, 0), Mat2(m, 3, 0, 0, 1)]
    # k = 2 scans the 6 cosets mod 2; k = 3 needs the 96 mod 4
    assert subgroup_order_prime_power(gl2_gens(4), 2, 2) == 96
    with pytest.raises(EnumerationTooLargeError, match="11 elements exceeds cap 10"):
        subgroup_order_prime_power(gl2_gens(8), 2, 3)


def test_layered_order_rejects_wrong_modulus():
    with pytest.raises(LatticeError):
        subgroup_order_prime_power([Mat2(4, 1, 1, 0, 1)], 2, 3)


# -- bundled scenarios ------------------------------------------------------

def test_bundled_family_shape():
    family = bundled_scenarios()
    assert len(family) == 27
    assert len({sc.ident for sc in family}) == 27


@pytest.mark.parametrize("l", [2, 3])
def test_bundled_indices_match_closed_form(l):
    for sc in bundled_scenarios(primes=(l,), precisions=(1, 2)):
        gtype, _, stype = sc.ident.partition(f"-l{l}-")
        res = run_scenario(sc)
        for rep in res.reports:
            assert rep.equal
            assert rep.index_T == expected_index(l, gtype, stype, rep.precision)
        assert res.stable


# -- scenario files ---------------------------------------------------------

def test_parse_rational_matrix():
    assert parse_rational_matrix("1,1/2;0,3") == rat_mat((1, Fraction(1, 2), 0, 3))
    with pytest.raises(LatticeError):
        parse_rational_matrix("1,2,3")


SCENARIO_TEXT = """\
# one scenario, with comments
scenario demo
prime 3
precisions 1 2
generator 2,0;0,1
generator 1,1;0,1  # upper unipotent
lattice 1,0;0,1
lattice2 3,0;0,3
end
"""


def test_parse_scenarios():
    (sc,) = parse_scenarios(SCENARIO_TEXT)
    assert sc.ident == "demo"
    assert sc.prime == 3
    assert sc.precisions == (1, 2)
    assert len(sc.group.generators) == 2


def test_scenario_format_parse_roundtrip():
    family = bundled_scenarios(primes=(2,), precisions=(1, 2))
    again = parse_scenarios(format_scenarios(family))
    assert [sc.ident for sc in again] == [sc.ident for sc in family]
    assert [sc.group.generators for sc in again] \
        == [sc.group.generators for sc in family]
    assert [sc.lattice2.basis for sc in again] == [sc.lattice2.basis for sc in family]


@pytest.mark.parametrize("text,message", [
    ("prime 3", "outside a scenario"),
    ("scenario a\nprime 3\nend", "missing"),
    ("scenario a\nscenario b", "not closed"),
    ("scenario a\nprime 3\nfrobnicate 1\nend", "unknown directive"),
    ("scenario a\nprime 3", "unterminated"),
])
def test_parse_scenarios_errors(text, message):
    with pytest.raises(LatticeError, match=message):
        parse_scenarios(text)
