import importlib

import pytest

from trikoszul.audit import run_audit
from trikoszul.classify import (
    KoszulClass,
    RationalSeries,
    bass_series,
    canonical_betti_oracle,
    classify,
    classify_generic,
    expand_series,
    family_bclass,
    family_staircase,
    family_tnongen,
)
from trikoszul.errors import FamilyConstraintError, NonGenericError, NotArtinianError
from trikoszul.generators import GeneratorConfig
from trikoszul.monomials import Monomial, format_ideal, is_generic, parse_ideal
from trikoszul.resolution import build_resolution, ordered_minimal_second_syzygies


# ------------------------------------------------------------------ classify


def test_classify_worked_example(ex31):
    rep = classify(ex31)
    assert rep.cls.display() == "B"
    assert (rep.n, rep.m, rep.l) == (5, 2, 4)
    assert rep.betti == (1, 5, 6, 2)
    assert (rep.p, rep.q, rep.r, rep.rhat) == (1, 1, 2, 2)
    assert rep.mu[:2] == [2, 4]
    assert not rep.golod
    assert not rep.generic


def test_classify_generic_example(ex42):
    rep = classify(ex42)
    assert rep.cls.display() == "H(3,0)"
    assert rep.generic
    assert (rep.p, rep.q, rep.r) == (3, 0, 0)


def test_classify_table_row_b():
    rep = classify(parse_ideal("x^6, y^6, z^6, x^3*z, y^3*z, x*y*z^3"))
    assert rep.cls.display() == "B"


def test_classify_complete_intersection(ci2):
    rep = classify(ci2)
    assert rep.cls.display() == "C(3)"
    assert rep.m == 1
    assert rep.mu[0] == 1
    assert all(v == 0 for v in rep.mu[1:])
    assert rep.bass is None


def test_complete_intersection_passes_the_two_route_checks(ci2, monkeypatch):
    # a complete intersection is labeled only after both routes agree
    module = importlib.import_module("trikoszul.classify")
    monkeypatch.setattr(module, "count_p_structural", lambda res, ideal: 0)
    rep = classify(ci2)
    assert rep.cls.tag == "Unclassified"
    assert "structural p = 0 disagrees with homology rank 3" in rep.cls.reason


def _moved_homology(monkeypatch, move):
    """Make classify's homology algebra pass through move(alg) first."""
    module = importlib.import_module("trikoszul.classify")
    real = module.build_homology_algebra

    def moved(model):
        alg = real(model)
        move(alg)
        return alg

    monkeypatch.setattr(module, "build_homology_algebra", moved)


def test_h2_multidegree_mismatch_is_unclassified(ex31, monkeypatch):
    # move one A2 class to another multidegree: the totals still agree, so
    # only the multidegree comparison with f2 can see it
    def move(alg):
        assert alg.a2_degrees[0] == Monomial(3, 1, 0)
        alg.a2_degrees[0] = Monomial(4, 1, 0)

    _moved_homology(monkeypatch, move)
    rep = classify(ex31)
    assert rep.cls.tag == "Unclassified"
    assert rep.cls.reason == (
        "H2 multidegrees disagree at x^3*y: 0 from the Koszul blocks, 1 columns of f2"
    )


def test_h3_multidegree_mismatch_is_unclassified(ex31, monkeypatch):
    # put the unit monomial in place of the first socle element: the A3 count
    # holds, but its multidegree xyz is no column degree of f3
    def move(alg):
        alg.a3[0] = alg.model.r_basis.index[Monomial(0, 0, 0)]

    _moved_homology(monkeypatch, move)
    rep = classify(ex31)
    assert rep.cls.tag == "Unclassified"
    assert rep.cls.reason == (
        "H3 multidegrees disagree at x*y*z: 1 from the Koszul blocks, 0 columns of f3"
    )


def test_classify_builds_the_staircase_once(ex31, monkeypatch):
    import trikoszul.monomials

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return trikoszul.monomials.standard_monomials(*args, **kwargs)

    for name in ("classify", "koszul", "invariants", "resolution"):
        module = importlib.import_module(f"trikoszul.{name}")
        monkeypatch.setattr(module, "standard_monomials", counting)
    rep = classify(ex31)
    assert rep.cls.display() == "B"
    assert calls == [ex31]


def test_classify_golod_flag(msquare):
    rep = classify(msquare)
    assert rep.cls.display() == "H(0,0)"
    assert rep.golod


def test_classify_rejects_non_primary():
    with pytest.raises(NotArtinianError):
        classify(parse_ideal("x, y"))


def test_classify_report_json_shape(ex31):
    doc = classify(ex31).to_json()
    assert doc["class"] == {"tag": "B", "params": {}}
    assert doc["mu"][:2] == [2, 4]
    assert doc["bass_series"] == {
        "num": [2, 2, -1, 0, 1],
        "den": [1, -1, -4, -1, 1],
    }
    assert doc["audit"]["ires_pure_power"] is True
    assert doc["audit"]["ires_mu1"] is True


# --------------------------------------------------------------- bass series


def test_bass_series_b_class():
    rs = bass_series(KoszulClass.b(), 5, 2)
    assert rs.numerator == (2, 2, -1, 0, 1)
    assert rs.denominator == (1, -1, -4, -1, 1)


def test_bass_series_h11():
    rs = bass_series(KoszulClass.h(1, 1), 5, 2)
    assert rs.numerator == (2, 3, -1, -1, 1)
    assert rs.denominator == (1, -1, -4, -1, 1)


def test_bass_series_golod():
    for n, m in ((5, 2), (7, 4)):
        rs = bass_series(KoszulClass.h(0, 0), n, m)
        l = n - 1
        assert rs.numerator == (m, l, 1, -1)
        assert rs.denominator == (1, -1, -l, -m)


def test_bass_series_t_class_has_degree_five_denominator():
    rs = bass_series(KoszulClass.t(), 4, 3)
    assert rs.denominator == (1, -1, -3, 0, 0, -1)


def test_bass_series_unsupported_classes():
    with pytest.raises(ValueError):
        bass_series(KoszulClass.c3(), 3, 1)
    with pytest.raises(ValueError):
        bass_series(KoszulClass.unclassified("x"), 4, 2)


def test_expand_series_discriminates_b_from_h11():
    b = bass_series(KoszulClass.b(), 5, 2)
    h = bass_series(KoszulClass.h(1, 1), 5, 2)
    assert expand_series(b, 1) == [2, 4]
    assert expand_series(h, 1) == [2, 5]


def test_expand_series_constant():
    rs = RationalSeries((3,), (1,))
    assert expand_series(rs, 4) == [3, 0, 0, 0, 0]


def test_negative_term_counts_rejected(ex31):
    with pytest.raises(ValueError):
        expand_series(RationalSeries((3,), (1,)), -1)
    with pytest.raises(ValueError):
        classify(ex31, mu_terms=-3)
    with pytest.raises(ValueError):
        run_audit(GeneratorConfig(seed=1), -1)


def test_rational_series_requires_unit_constant_term():
    with pytest.raises(ValueError):
        RationalSeries((1,), (2, 1))


def test_g_label_requires_r_at_least_two():
    with pytest.raises(ValueError):
        KoszulClass.g(1)
    assert KoszulClass.g(2).display() == "G(2)"


# ----------------------------------------------------------- generic classify


def test_classify_generic_full_support():
    ideal = parse_ideal("x^3, y^3, z^3, x*y*z")
    assert classify_generic(ideal).display() == "T"
    assert classify(ideal).cls.display() == "T"


def test_classify_generic_example42(ex42):
    assert classify_generic(ex42).display() == "H(3,0)"


def test_classify_generic_rejects_non_generic():
    # the two-variable triple shape shares the x-degree without a strong
    # divisor of the pair lcm, so the shape itself is not generic
    ideal = parse_ideal("x^3, y^3, z^3, x^2*y^2, x^2*z^2, y^2*z^2")
    assert not is_generic(ideal)
    with pytest.raises(NonGenericError):
        classify_generic(ideal)
    # the Golod-iff-no-syzygy-columns content is checked through the scan
    rep = classify(ideal)
    p_scan = sum(
        1
        for s in ordered_minimal_second_syzygies(ideal)
        if s.entries_in_ideal(ideal)
    )
    assert rep.p == p_scan
    assert rep.golod == (p_scan == 0)


def test_classify_generic_complete_intersection(ci2):
    assert classify_generic(ci2).display() == "C(3)"


# ------------------------------------------------------------- betti oracle


def test_betti_oracle_worked_example(ex31):
    assert canonical_betti_oracle(ex31, 1) == [2, 4]
    # beta_2 of the canonical module matches the class series coefficient
    assert canonical_betti_oracle(ex31, 2) == [2, 4, 11]
    assert expand_series(bass_series(KoszulClass.b(), 5, 2), 2) == [2, 4, 11]


def test_betti_oracle_t_class_second_coefficient():
    ideal = parse_ideal("x^3, y^3, z^3, x*y*z")
    rep = classify(ideal)
    b = canonical_betti_oracle(ideal, 2)
    assert b[:2] == rep.mu[:2]
    assert b[2] - b[1] - rep.l * b[0] == -2


def test_betti_oracle_h30_second_coefficient(ex42):
    rep = classify(ex42)
    b = canonical_betti_oracle(ex42, 2)
    assert b[2] - b[1] - rep.l * b[0] == -3


def test_betti_oracle_cost_guard(ex31):
    with pytest.raises(ValueError):
        canonical_betti_oracle(ex31, 5)


def test_betti_oracle_complete_intersection(ci2):
    # the canonical module of a complete intersection is free
    assert canonical_betti_oracle(ci2, 3) == [1, 0, 0, 0]


def test_betti_oracle_matches_series_to_depth_four():
    # independent syzygy iteration vs the tabulated series, four classes
    for text in (
        "x^3, x^2*y, y^3, z^3, x^2*z^2",  # B
        "x^3, y^3, z^3, y^2*z^2",  # H(3,2)
        "x^3, y^3, z^3, y*z^2, y^2*z",  # H(4,3)
        "x^2, x*y, x*z, y^2, y*z, z^2",  # H(0,0)
    ):
        ideal = parse_ideal(text)
        rep = classify(ideal)
        assert canonical_betti_oracle(ideal, 4) == rep.mu[:5], text


# ------------------------------------------------------------------- audit


def test_audit_worked_example(ex31):
    rep = classify(ex31)
    audit = rep.audit
    assert audit.ires_pure_power
    assert audit.ires_mu1
    assert audit.compclass_match is True
    assert audit.compclass_case == 2
    monos = sorted(e[2] for e in audit.f3_entries_in_ideal)
    assert monos == ["y^3", "z^3"]


def test_audit_bclass_two_pure_powers_same_column():
    ideal = family_bclass(4, 4, 4, 2, [3, 2], [2, 3])
    rep = classify(ideal)
    res = build_resolution(ideal)
    audit = rep.audit
    assert rep.cls.display() == "B"
    assert audit.ires_pure_power and audit.ires_mu1
    in_ideal = audit.f3_entries_in_ideal
    assert len(in_ideal) == 2
    cols = {e[1] for e in in_ideal}
    assert len(cols) == 1  # both pure powers sit in the same f3 column
    assert sorted(e[2] for e in in_ideal) == ["x^4", "y^4"]
    assert res.f3.cols == 3  # m = rho


def test_audit_compclass_case3(msquare):
    rep = classify(msquare)
    assert rep.audit.compclass_case == 3
    assert rep.audit.compclass_match is True


# ------------------------------------------------------------------ families


def test_family_bclass_spec_instance():
    ideal = family_bclass(4, 4, 4, 2, [3, 2], [2, 3])
    assert format_ideal(ideal) == "x^4, y^4, z^4, x^3*z^2, x^2*y^2*z^2, y^3*z^2"
    rep = classify(ideal)
    assert rep.cls.display() == "B"
    assert rep.m == 3


def test_family_tnongen_spec_instance():
    ideal = family_tnongen(4, 4, 4, 2, [(3, 1), (1, 3)])
    assert format_ideal(ideal) == "x^4, y^4, z^4, x^3*y*z^2, x*y^3*z^2"
    rep = classify(ideal)
    assert rep.cls.display() == "T"
    assert rep.m == 4


def test_family_staircase_spec_instance():
    ideal = family_staircase(3, 3, 3, [(1, 2), (2, 1)])
    assert format_ideal(ideal) == "x^3, y^3, z^3, y*z^2, y^2*z"
    rep = classify(ideal)
    assert rep.cls.display() == "H(4,3)"
    assert rep.mu[:2] == [3, 4]


def test_family_constraints_named():
    with pytest.raises(FamilyConstraintError, match="c' < c"):
        family_bclass(4, 4, 2, 2, [3, 2], [2, 3])
    with pytest.raises(FamilyConstraintError, match="decreasing"):
        family_bclass(4, 4, 4, 2, [2, 3], [2, 3])
    with pytest.raises(FamilyConstraintError, match="a_1 < a"):
        family_tnongen(3, 4, 4, 2, [(3, 1), (1, 3)])
    with pytest.raises(FamilyConstraintError, match="increasing"):
        family_staircase(3, 3, 3, [(2, 2), (1, 1)])
    with pytest.raises(FamilyConstraintError, match="b_rho < b"):
        family_staircase(3, 2, 3, [(2, 1)])


def test_dispatch_covers_small_cases(staircase5):
    # H(p,q) with q = r through the generic fast path as well
    rep = classify(staircase5)
    assert rep.cls.display() == "H(4,3)"
    assert classify_generic(staircase5).display() == "H(4,3)"


def test_deep_audit_concurs_on_both_300_classes(ex42):
    t_ideal = parse_ideal("x^3, y^3, z^3, x*y*z")
    assert classify(t_ideal, deep_audit=True).cls.display() == "T"
    assert classify(ex42, deep_audit=True).cls.display() == "H(3,0)"
