import hashlib
import json
import time
from fractions import Fraction

import pytest

from trikoszul.classify import family_bclass
from trikoszul.cli import main
from trikoszul.errors import DimensionCapError, NonGenericError
from trikoszul.monomials import Monomial, MonomialIdeal, is_generic, parse_ideal
from trikoszul.resolution import (
    TAYLOR_MAX_GENERATORS,
    build_resolution,
    compose_is_zero,
    ordered_minimal_second_syzygies,
    resolution_for,
    scarf_resolution,
    second_syzygy,
    verify_resolution,
)


def column_monomials(mat, c):
    return sorted(str(mat.monomial_at(r, c)) for r in mat.column(c))


# ---------------------------------------------------------- second syzygies


def test_second_syzygy_worked_example(ex31):
    syz = second_syzygy(ex31, 1, 2)
    # m_12 = x^3*y: x*e2 - y*e1
    assert syz.mono_j == Monomial(1, 0, 0)
    assert syz.mono_i == Monomial(0, 1, 0)


def test_second_syzygy_pure_powers():
    ideal = parse_ideal("x^2, y^3, z^2")
    syz = second_syzygy(ideal, 1, 2)
    assert syz.mono_j == Monomial(2, 0, 0)
    assert syz.mono_i == Monomial(0, 3, 0)
    assert syz.entries_in_ideal(ideal)


def test_second_syzygy_index_errors(ex31):
    with pytest.raises(IndexError):
        second_syzygy(ex31, 2, 2)
    with pytest.raises(IndexError):
        second_syzygy(ex31, 0, 1)
    with pytest.raises(IndexError):
        second_syzygy(ex31, 3, 6)


def test_ordered_syzygies_worked_example(ex31):
    syz = ordered_minimal_second_syzygies(ex31)
    assert [(s.i, s.j) for s in syz] == [(1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]


def test_ordered_syzygies_complete_intersection(ci2):
    syz = ordered_minimal_second_syzygies(ci2)
    assert [(s.i, s.j) for s in syz] == [(1, 2), (1, 3), (2, 3)]


def test_ordered_syzygies_bclass_count():
    ideal = family_bclass(4, 4, 4, 2, [3, 2], [2, 3])  # rho = 3
    assert len(ordered_minimal_second_syzygies(ideal)) == 2 * 3 + 2


# -------------------------------------------------------------- resolutions


def test_resolution_worked_example_exact_f2(ex31):
    res = build_resolution(ex31)
    assert res.betti == (1, 5, 6, 2)
    assert res.f2_faces == ((0, 1), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4))
    # the displayed 5 x 6 matrix, including signs
    x, y, z = Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1)
    expected = {
        (0, 0): (-1, y),
        (1, 0): (1, x),
        (0, 1): (-1, Monomial(0, 0, 2)),
        (4, 1): (1, x),
        (1, 2): (-1, Monomial(0, 2, 0)),
        (2, 2): (1, Monomial(2, 0, 0)),
        (1, 3): (-1, Monomial(0, 0, 2)),
        (4, 3): (1, y),
        (2, 4): (-1, Monomial(0, 0, 3)),
        (3, 4): (1, Monomial(0, 3, 0)),
        (3, 5): (-1, Monomial(2, 0, 0)),
        (4, 5): (1, z),
    }
    assert set(res.f2.entries) == set(expected)
    for key, (scalar, monomial) in expected.items():
        assert res.f2.entries[key] == Fraction(scalar)
        assert res.f2.monomial_at(*key) == monomial


def test_resolution_worked_example_f3_columns(ex31):
    res = build_resolution(ex31)
    supports = sorted(column_monomials(res.f3, c) for c in range(res.f3.cols))
    assert supports == sorted(
        [sorted(["z^2", "y", "x"]), sorted(["z^3", "y^2*z", "x^2", "y^3"])]
    )


def test_resolution_f2_realizes_ordered_syzygies(ex31, ex42, msquare):
    for ideal in (ex31, ex42, msquare):
        res = build_resolution(ideal)
        pairs = [(s.i - 1, s.j - 1) for s in ordered_minimal_second_syzygies(ideal)]
        assert list(res.f2_faces) == pairs


def test_resolution_generic_example(ex42):
    res = build_resolution(ex42)
    assert res.betti == (1, 6, 11, 6)


def test_resolution_complete_intersection(ci2):
    res = build_resolution(ci2)
    assert res.betti == (1, 3, 3, 1)
    assert column_monomials(res.f3, 0) == sorted(["x^2", "y^2", "z^2"])


# sha256 of json.dumps(build_resolution(I).to_json(), sort_keys=True), first
# 16 hex digits, recorded with the earlier code that rescanned every face
# after each cancellation.  The ideals are the shipped corpus, m^2, m^3, the
# audit sampler's ideals for seeds 77..116 at its default settings, and ten
# ideals of 9 or 10 generators (generic chains and non-generic antichains of
# degree 4 and 5).  The digests pin the cancellation order, so the f2/f3
# bases, their signs and the JSON bytes.
FROZEN_TAYLOR_DIGESTS = [
    ("x^3, x^2*y, y^3, z^3, x^2*z^2", "027eb79b2b795ab2"),
    ("x^3, y^3, z^3, y^2*z^2", "3f05023075b7a6f4"),
    ("x^3, y^3, z^3, x*y*z", "bf08d500e93f57bb"),
    ("x^5, y^5, z^5, y^3*z^3, x*y^4*z^2, x*y^2*z^4", "33c270ff307e2f20"),
    ("x^6, y^6, z^6, x^3*y^2*z, x^2*y^3*z, x*y*z^3", "427973b892d5fe15"),
    ("x^6, y^6, z^6, x^3*z, y^3*z, x*y*z^3", "bd13cfc82752c44b"),
    ("x^6, y^6, z^6, x^3*y^3, x^3*y^2*z", "4b50fdd20ced0a68"),
    ("x^6, y^6, z^6, x^3*y^3, x^3*z^3, y^3*z^3, x*y*z^4", "0318b4ee6893c606"),
    ("x^2, x*y, x*z, y^2, y*z, z^2", "75879b888666f7ce"),
    (
        "x^3, x^2*y, x^2*z, x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3",
        "d6ce71bf3a765e1d",
    ),
    ("x^3, y^3, z^3, x^2*z, y^2*z", "7652aeb8ba407835"),
    ("x^4, y^4, z^4, x^3*z^2, x^2*y^2*z^2, y^3*z^2", "9f58a61653c70627"),
    ("x^4, y^4, z^4, x^3*y*z^2, x*y^3*z^2", "6034b7fe72532a93"),
    ("x^3, y^3, z^3, y*z^2, y^2*z", "0bb5df8994a93c5e"),
    ("x^2, y^2, z^5, y*z^3", "e9397e3b6aa086b5"),
    ("x^6, y^6, z^4, x^5*y*z^3, y^3*z^2", "082717cb3ef7a1b6"),
    ("x^5, y^4, z^6, x*y*z, x^3*y", "4940e6b073ab1d54"),
    ("x^2, y^2, z^3, x*y*z", "5b02852cafd0a03a"),
    ("x^3, y^6, z^4, x^2*y^4*z", "0305ec59eb7e7b69"),
    ("x^5, y^6, z^4, x*y*z^2, x*z^3", "053162f6cc05503a"),
    ("x^6, y^5, z^5, x^5*y^3", "5a424da52978537b"),
    ("x^4, y^2, z^2, x*y", "6f5e740c5ea44f95"),
    ("x^4, y^2, z^5, x*z^2", "2722bb19514feb91"),
    ("x^6, y^4, z^2, y^2*z", "e5d775b57e0b2ab4"),
    ("x^3, y^6, z^2, x*y^2*z, x^2*z", "c3e47d5686d5258b"),
    ("x^3, y^6, z^5, x^2*z^3", "bc7aaeefc3782d8f"),
    ("x^6, y^4, z^3, x^3*y^2", "7a9471c5b9eb0a36"),
    ("x^2, y^2, z^6, x*z^3", "cb4940518e4ade36"),
    ("x^6, y^3, z^3, x^3*y*z^2", "b3b45a6e8d5c4897"),
    ("x^2, y^2, z^2, x*y, y*z, x*z", "c497d7e37bb3b4f7"),
    ("x^3, y^6, z^4, x*z^2", "a57041c2dab112f7"),
    ("x^5, y^4, z^3, x^2*y", "048563d051b2b1da"),
    ("x^4, y^5, z^4, x^2*y^2*z^2", "0cb718058014fc2f"),
    ("x^6, y^2, z^6, x^3*y*z^3, x^2*z^5", "372c8223fe902939"),
    ("x^5, y^4, z^2, y^2*z, x^3*z", "4acb148d938d5a20"),
    ("x^2, y^2, z^5, x*y, x*z^4, y*z", "d90fbfa82ff4e768"),
    ("x^3, y^3, z^5, x^2*z^4, x*y^2*z^3", "fbeed3a7af028c89"),
    ("x^5, y^5, z^3, x^3*y^2*z, x^4*z^2", "92721edcfed1855b"),
    ("x^5, y^6, z^4, x*y^3*z^2", "559815bf13a814e8"),
    ("x^6, y^4, z^3, x^4*y*z, x^2*y^3*z^2", "0c752aac54280345"),
    ("x^5, y^3, z^6, y^2*z^5, x^3*z^3", "5a71291a77e26cd8"),
    ("x^3, y^3, z^5, x*z", "4845f5f022bf32d3"),
    ("x^2, y^6, z^5, x*y^2*z^4, y^4*z", "b6f196d9a2423055"),
    ("x^2, y^2, z^4, x*y*z^2", "a7b545b09b57dd12"),
    ("x^6, y^6, z^5, x^3*y^2*z, x^3*y^4", "dceee23e2a7a6575"),
    ("x^4, y^3, z^2, x*z, y^2*z", "99ad6aab1c32e3ba"),
    ("x^5, y^5, z^3, x^3*y^2, x*z^2", "bb65c5e36e83014c"),
    ("x^6, y^2, z^3, x^3*z^2", "4c995aeb8263d046"),
    ("x^4, y^3, z^6, x^3*y", "9d1e5fa78ba61aae"),
    ("x^6, y^2, z^2, x*y*z", "c8d87f057466d95d"),
    ("x^4, y^2, z^5, x^2*z^3", "7183d07a6a3c3ca2"),
    ("x^2, y^5, z^5, y^4*z^4", "66756bf9db3b43af"),
    ("x^3, y^2, z^6, y*z^4", "0a0c4ca36fcd6a0b"),
    ("x^3, y^4, z^4, x^2*y^2", "7b46cb3d0dbb853f"),
    (
        "x^6, y^6, z^8, x^5*z, x^4*y, x^3*y^2*z^6, x^2*y^3, x*y^4*z^5, y^5*z^2",
        "d714f4ec5cc68e74",
    ),
    (
        "x^6, y^4, z^6, y^2*z^2, x*y*z^2, x^3*z, x^3*y, x*y^3, x^2*z^2, x*z^3",
        "3e69466879f1f997",
    ),
    (
        "x^6, y^5, z^5, y*z^4, y^4*z, x^4*y, x^3*y^2, y^3*z^2, x^4*z, x*y^3*z",
        "fa56060cb6c7879a",
    ),
    (
        "x^8, y^8, z^5, x^6*z^4, x^5*y, x^4*y^2*z, x^3*y^3, x^2*y^4, x*y^5, y^6*z^3",
        "400110c0d3c69126",
    ),
    (
        "x^6, y^6, z^5, x^2*y*z, x*z^3, y*z^3, x^2*y^2, x*y*z^2, y^2*z^2, x^2*z^2",
        "59a4165dc556b189",
    ),
    (
        "x^5, y^7, z^7, y^4*z, x*y*z^3, x^2*y^3, y^2*z^3, x*y^2*z^2, x*z^4, x^2*y^2*z",
        "779289ba719e6551",
    ),
    (
        "x^7, y^7, z^3, x^5*z^2, x^4*y, x^3*y^2, x^2*y^3, x*y^4, y^5*z",
        "b09c4574b53c2bdf",
    ),
    (
        "x^4, y^5, z^6, x^2*y*z, x*y*z^2, x^3*y, y*z^3, y^2*z^2, x*y^2*z, x^3*z",
        "3878ccd7be5a10e0",
    ),
    (
        "x^7, y^6, z^7, x^4*y, x*y*z^3, x^3*y^2, x^3*z^2, y^4*z, x*y^2*z^2, x*z^4",
        "6594fcb7cc139061",
    ),
    (
        "x^7, y^8, z^6, x^6*z^2, x^5*y*z, x^4*y^2*z^5, x^3*y^3, x^2*y^4, x*y^5, y^6*z^4",
        "93ea77d8756f8036",
    ),
]


def _digest(res) -> str:
    text = json.dumps(res.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_taylor_resolution_bytes_are_frozen():
    changed = [
        text
        for text, want in FROZEN_TAYLOR_DIGESTS
        if _digest(build_resolution(parse_ideal(text))) != want
    ]
    assert changed == []


def test_m4_resolves_within_budget():
    # m^4 has 15 generators; rescanning every face after each cancellation
    # took 136 s
    m4 = parse_ideal(
        ", ".join(f"x^{a}*y^{b}*z^{4 - a - b}" for a in range(5) for b in range(5 - a))
    )
    t0 = time.perf_counter()
    res = build_resolution(m4)
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"build_resolution(m^4) took {dt:.2f}s, budget 10s"
    assert res.betti == (1, 15, 24, 10)
    assert verify_resolution(res, m4).all_ok


def _degree5_antichain(n):
    """x^5, y^5, z^5 and the first n - 3 mixed monomials of degree 5."""
    mixed = [
        Monomial(i, j, 5 - i - j)
        for i in range(5)
        for j in range(6 - i)
        if max(i, j, 5 - i - j) < 5
    ]
    pure = [Monomial(5, 0, 0), Monomial(0, 5, 0), Monomial(0, 0, 5)]
    return MonomialIdeal.from_monomials(pure + mixed[: n - 3])


def test_taylor_cap_refuses_non_generic_at_once():
    ideal = _degree5_antichain(TAYLOR_MAX_GENERATORS + 1)
    assert ideal.n == TAYLOR_MAX_GENERATORS + 1 and not is_generic(ideal)
    t0 = time.perf_counter()
    with pytest.raises(DimensionCapError):
        resolution_for(ideal)
    assert time.perf_counter() - t0 < 1.0


def test_largest_ideal_under_the_taylor_cap_resolves_in_budget():
    # the cap is a bound on runtime: about 3 s at n = 16 when it was set
    ideal = _degree5_antichain(TAYLOR_MAX_GENERATORS)
    t0 = time.perf_counter()
    res = build_resolution(ideal)
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"n = {ideal.n} took {dt:.2f}s, budget 30s"
    assert res.n == TAYLOR_MAX_GENERATORS


def test_resolve_past_the_taylor_cap_is_a_one_line_error(capsys):
    ideal = _degree5_antichain(TAYLOR_MAX_GENERATORS + 1)
    code = main(["resolve", str(ideal)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_generic_ideal_past_the_taylor_cap_takes_the_scarf_path():
    # a chain with x falling, y rising and every exponent distinct per variable
    m = TAYLOR_MAX_GENERATORS - 2
    mixed = [Monomial(m - k, k + 1, (m - k) % m + 1) for k in range(m)]
    pure = [Monomial(m + 1, 0, 0), Monomial(0, m + 1, 0), Monomial(0, 0, m + 1)]
    ideal = MonomialIdeal.from_monomials(pure + mixed)
    assert ideal.n == TAYLOR_MAX_GENERATORS + 1 and is_generic(ideal)
    res = resolution_for(ideal)
    assert res.f3_faces == scarf_resolution(ideal).f3_faces
    assert verify_resolution(res, ideal).all_ok


def test_resolution_euler_identity(ex31, ex42, msquare, ci2, staircase5):
    for ideal in (ex31, ex42, msquare, ci2, staircase5):
        res = build_resolution(ideal)
        assert res.f2.cols == res.n + res.m - 1
        assert 1 - res.n + res.f2.cols - res.m == 0


# ------------------------------------------------------------------- scarf


def test_scarf_matches_taylor_on_generic(ex42):
    taylor = build_resolution(ex42)
    scarf = scarf_resolution(ex42)
    assert scarf.betti == taylor.betti
    assert sorted(scarf.f2.col_degrees) == sorted(taylor.f2.col_degrees)
    assert sorted(scarf.f3.col_degrees) == sorted(taylor.f3.col_degrees)


def test_scarf_f3_columns_three_pure_powers(ex42):
    scarf = scarf_resolution(ex42)
    for c in range(scarf.f3.cols):
        col = scarf.f3.column(c)
        assert len(col) == 3
        for r in col:
            assert scarf.f3.monomial_at(r, c).pure_power_variable() is not None


def test_scarf_complete_intersection_full_simplex(ci2):
    scarf = scarf_resolution(ci2)
    assert scarf.betti == (1, 3, 3, 1)
    assert scarf.f3_faces == ((0, 1, 2),)


def test_scarf_rejects_non_generic(ex31):
    with pytest.raises(NonGenericError):
        scarf_resolution(ex31)


# ------------------------------------------------------------ verification


def test_verify_worked_example(ex31):
    checks = verify_resolution(build_resolution(ex31), ex31)
    assert checks.all_ok


def test_verify_detects_corruption(ex31):
    res = build_resolution(ex31)
    (r, c), _ = next(iter(sorted(res.f2.entries.items())))
    res.f2.entries[(r, c)] += 1
    checks = verify_resolution(res, ex31)
    assert not checks.d12_zero or not checks.d23_zero
    assert not checks.all_ok


def test_verify_m_squared(msquare):
    res = build_resolution(msquare)
    assert res.betti == (1, 6, 8, 3)
    assert verify_resolution(res, msquare).all_ok


def test_compose_is_zero_shape_mismatch(ex31, ci2):
    r1 = build_resolution(ex31)
    r2 = build_resolution(ci2)
    with pytest.raises(ValueError):
        compose_is_zero(r1.f1, r2.f2)
