from fractions import Fraction

import pytest

import trikoszul.invariants as invariants
from trikoszul.errors import NonGenericError
from trikoszul.fields import GF32003, QQ
from trikoszul.invariants import (
    bass_mu0_mu1,
    build_canonical_presentation,
    count_p_structural,
    dependent_row_count,
    dependent_row_count_generic,
    graded_minimal_generators,
    presentation_minimal_generators,
)
from trikoszul.monomials import parse_ideal, standard_monomials
from trikoszul.resolution import build_resolution


def prep(text):
    ideal = parse_ideal(text)
    return ideal, build_resolution(ideal)


# --------------------------------------------------------------- p columns


def test_p_structural_worked_example(ex31):
    assert count_p_structural(build_resolution(ex31), ex31) == 1


def test_p_structural_one_mixed_generator():
    ideal, res = prep("x^3, y^3, z^3, y^2*z^2")
    assert count_p_structural(res, ideal) == 3


def test_p_structural_generic_example(ex42):
    assert count_p_structural(build_resolution(ex42), ex42) == 3


# ------------------------------------------------------------ dependent rows


def test_dependent_rows_worked_example(ex31):
    assert dependent_row_count(build_resolution(ex31), ex31) == 2


def test_dependent_rows_full_support():
    ideal, res = prep("x^3, y^3, z^3, x*y*z")
    assert dependent_row_count(res, ideal) == 0


def test_dependent_rows_generic_example(ex42):
    assert dependent_row_count(build_resolution(ex42), ex42) == 0


def test_dependent_rows_prime_field_agrees(ex31, ex42):
    for ideal in (ex31, ex42):
        res = build_resolution(ideal)
        assert dependent_row_count(res, ideal) == dependent_row_count(
            res, ideal, field=GF32003
        )


# ------------------------------------------------------- generic row scan


def test_generic_scan_no_pure_power_rows(ex42):
    assert dependent_row_count_generic(build_resolution(ex42), ex42) == 0


def test_generic_scan_staircase(staircase5):
    res = build_resolution(staircase5)
    assert dependent_row_count_generic(res, staircase5) == 3  # n - 2


def test_generic_scan_complete_intersection(ci2):
    assert dependent_row_count_generic(build_resolution(ci2), ci2) == 3


def test_generic_scan_rejects_non_generic(ex31):
    with pytest.raises(NonGenericError):
        dependent_row_count_generic(build_resolution(ex31), ex31)


# ------------------------------------------------------------- bass numbers


def test_bass_numbers_worked_example(ex31):
    bd = bass_mu0_mu1(build_resolution(ex31), ex31)
    assert (bd.mu0, bd.mu1, bd.rhat) == (2, 4, 2)


def test_bass_numbers_full_support():
    ideal, res = prep("x^3, y^3, z^3, x*y*z")
    bd = bass_mu0_mu1(res, ideal)
    assert (bd.mu0, bd.mu1) == (3, 6)


def test_bass_numbers_m_squared(msquare):
    bd = bass_mu0_mu1(build_resolution(msquare), msquare)
    assert (bd.mu0, bd.mu1) == (3, 8)
    assert bd.rhat == 0


# -------------------------------------------------- canonical presentation


def test_canonical_presentation_drops_ideal_entries(ex31):
    res = build_resolution(ex31)
    pres = build_canonical_presentation(res, ex31)
    assert pres.target_rank == 2
    assert len(pres.relation_columns) == 6
    for coords in pres.relation_columns:
        for _, (scalar, mono) in coords.items():
            assert scalar != 0
            assert not ex31.contains(mono)
    # rows carrying only ideal entries reduce to zero: exactly rhat of them
    zero_rows = sum(1 for coords in pres.relation_columns if not coords)
    assert zero_rows == 2


# ---------------------------------------------------------- Nakayama count


def test_presentation_minimal_generators_worked_example(ex31):
    pres = build_canonical_presentation(build_resolution(ex31), ex31)
    assert presentation_minimal_generators(pres, ex31) == [
        ((0, -3, -3), {1: 1}),
        ((-3, 0, -2), {0: -1}),
        ((-2, -1, -2), {0: 1, 1: -1}),
        ((-3, -1, 0), {0: 1}),
    ]


def test_minimal_generators_sharing_a_degree():
    # rank-2 free module in degree 0 over k[x,y,z]/(x^2, y^2, z^2)
    std = standard_monomials(parse_ideal("x^2, y^2, z^2")).index
    one = Fraction(1)
    gens = [
        ((1, 0, 0), {0: one}),
        ((1, 0, 0), {0: one, 1: one}),  # same degree, independent
        ((1, 0, 0), {1: 2 * one}),  # same degree, 2 * (second - first)
        ((0, 1, 0), {1: one}),
        ((1, 1, 0), {0: one, 1: one}),  # y * second
        ((2, 0, 0), {0: one}),  # x^2 is in the ideal: every coordinate dies
        ((0, 0, 1), {1: one}),
    ]
    assert graded_minimal_generators([(0, 0, 0), (0, 0, 0)], gens, std, QQ) == [
        ((0, 0, 1), {1: one}),
        ((0, 1, 0), {1: one}),
        ((1, 0, 0), {0: one}),
        ((1, 0, 0), {0: one, 1: one}),
    ]


def test_nakayama_count_tests_generator_degrees_only(ex31, monkeypatch):
    built = []

    class CountingEchelon(invariants.Echelon):
        def __init__(self, field):
            built.append(self)
            super().__init__(field)

    monkeypatch.setattr(invariants, "Echelon", CountingEchelon)
    pres = build_canonical_presentation(build_resolution(ex31), ex31)
    presentation_minimal_generators(pres, ex31)
    degrees = {
        d for d, coords in zip(pres.relation_degrees, pres.relation_columns) if coords
    }
    assert len(built) == len(degrees) == 4
