import hashlib
from dataclasses import replace

import pytest

import trikoszul.koszul as koszul
from trikoszul.classify import classify
from trikoszul.cli import main
from trikoszul.errors import InternalInvariantError
from trikoszul.fields import GF32003, PrimeField, QQ
from trikoszul.generators import GeneratorConfig, random_ideal
from trikoszul.koszul import (
    K2_DEGREES,
    K3_DEGREE,
    build_homology_algebra,
    build_koszul_model,
    canonical_a1_generators,
    homology_dims,
    rank_a1_a2,
    rank_a1_squared,
    rank_delta2,
    truncated_exterior_check,
    wedge_11,
)
from trikoszul.linalg import Echelon, SpanWithCoords
from trikoszul.monomials import Monomial, parse_ideal


def algebra(text):
    ideal = parse_ideal(text)
    return build_homology_algebra(build_koszul_model(ideal))


# ------------------------------------------------------------------ model


def block_at(model, mu):
    return next(block for block in model.blocks if block.mu == mu)


def test_model_m_squared(msquare):
    model = build_koszul_model(msquare)
    assert model.dim == 4
    # e12, e13, e23 times 1, x, y, z: ten K2 multidegrees
    assert len(model.blocks) == 10
    # d1 maps onto x, y, z, so rank d1 = 3, and A1 = 3 dim R - rank d1 - rank d2
    # with rank d2 = 3 (the K2 cells on the unit; the others bound nothing)
    assert build_homology_algebra(model).dims == (6, 8, 3)


def test_model_detects_corruption(monkeypatch):
    model = build_koszul_model(parse_ideal("x^3, y^3, z^3"))
    assert model.verify()
    # e12 -> x e2 + y e1: d1 . d2 no longer vanishes where mu is alive.  The
    # block at mu = xy has a dead K3 cell, so only the d1 . d2 check sees it
    bad_d2 = (((1, +1), (0, +1)),) + koszul._D2_TABLE[1:]
    monkeypatch.setattr(koszul, "_D2_TABLE", bad_d2)
    block = block_at(model, Monomial(1, 1, 0))
    assert not block.mask >> koszul.K3_BIT & 1
    assert not koszul.pattern_table(QQ)[block.mask].composes
    assert not model.verify()
    monkeypatch.undo()
    # flip one sign of the d3 column: d2 . d3 no longer vanishes
    assert model.verify()
    monkeypatch.setattr(koszul, "_D3_SIGNS", (-1, -1, +1))
    assert not model.verify()


def test_model_rejects_characteristic_two(msquare):
    with pytest.raises(ValueError):
        build_koszul_model(msquare, field=PrimeField(2))


def test_model_d3_follows_mapping_table(msquare):
    # column for u * e123 must be z*e12 - y*e13 + x*e23
    model = build_koszul_model(msquare)
    index = model.r_basis.index
    block = block_at(model, K3_DEGREE)
    assert block.cells[koszul.K3_BIT] == index[Monomial(0, 0, 0)]
    entry = koszul.pattern_table(model.field)[block.mask]
    z = index[Monomial(0, 0, 1)]
    y = index[Monomial(0, 1, 0)]
    x = index[Monomial(1, 0, 0)]
    assert block.relabel(entry.d3, 2) == {(0, z): 1, (1, y): -1, (2, x): 1}


# the mask bit of the cell mu / x_tau, for each face tau of {x, y, z} given
# as a bit set over the variables
_FACE_BIT = {
    0b000: koszul.K0_BIT,
    0b001: koszul.K1_BIT,
    0b010: koszul.K1_BIT + 1,
    0b100: koszul.K1_BIT + 2,
    0b011: koszul.K2_BIT,
    0b101: koszul.K2_BIT + 1,
    0b110: koszul.K2_BIT + 2,
    0b111: koszul.K3_BIT,
}


def realizable_masks() -> set[int]:
    """The masks of the up-closed families of faces inside a support S:
    mu / x_tau standard implies mu / x_sigma standard for tau within sigma
    within the support of mu."""
    masks = set()
    for support in range(8):
        faces = [f for f in range(8) if f & ~support == 0]
        for chosen in range(1 << len(faces)):
            family = {f for pos, f in enumerate(faces) if chosen >> pos & 1}
            if all(g in family for f in family for g in faces if g & f == f):
                masks.add(sum(1 << _FACE_BIT[f] for f in family))
    return masks


def test_d2_check_passes_on_every_realizable_mask(ex31, ex42, msquare):
    realizable = realizable_masks()
    for ideal in (ex31, ex42, msquare):
        assert {block.mask for block in build_koszul_model(ideal).blocks} <= realizable
    for field in (QQ, GF32003):
        table = koszul.pattern_table(field)
        assert all(table[mask].composes for mask in realizable)
        # the check is not vacuous: it fails on unrealizable masks
        failing = {mask for mask in range(256) if not table[mask].composes}
        assert len(failing) == 117
        assert not failing & realizable


def test_pattern_ranks_and_image_flags_on_every_mask():
    # recomputed by plain echelon ranks, away from the table's elimination
    def rank_of(vectors):
        ech = Echelon(QQ)
        for v in vectors:
            ech.insert(v)
        return ech.rank

    table = koszul.pattern_table(QQ)
    for mask in range(256):
        entry = table[mask]
        cols = list(entry.d2.values())
        rank = rank_of(cols)
        assert entry.rank_d2 == rank == len(cols) - len(entry.kernel)
        for t in range(3):
            alive = mask >> (koszul.K1_BIT + t) & 1
            unit_bounds = alive and rank_of(cols + [{t: 1}]) == rank
            assert entry.in_image[t] == bool(unit_bounds), (mask, t)
        if entry.composes:
            # local H2 = ker d2 / im d3, and d3 is one nonzero column or none
            assert len(entry.a2) == len(entry.kernel) - (1 if entry.d3 else 0)
    # e12 alone on e1 (the K1 cell e2 dead): d2(e12) = -y e1 bounds e1
    assert table[1 << koszul.K1_BIT | 1 << koszul.K2_BIT].in_image == (True, False, False)


def test_kernel_basis_runs_only_per_pattern(monkeypatch):
    # a fresh cache, so that the count does not depend on earlier tests
    monkeypatch.setattr(koszul, "_PATTERN_TABLES", {})
    real = koszul.kernel_basis
    calls = []

    def counting(columns, field):
        calls.append(len(columns))
        return real(columns, field)

    monkeypatch.setattr(koszul, "kernel_basis", counting)
    ideals = [random_ideal(GeneratorConfig(seed=s)) for s in range(77, 127)]
    fields = (QQ, GF32003)
    for field in fields:
        for ideal in ideals:
            classify(ideal, field)
    masks = sum(
        len({block.mask for ideal in ideals for block in build_koszul_model(ideal, field).blocks})
        for field in fields
    )
    assert 0 < len(calls) <= 4 * masks
    first = len(calls)
    for field in fields:
        for ideal in ideals:
            classify(ideal, field)
    assert len(calls) == first


# ------------------------------------------------------------------- dims


def test_homology_dims_examples(ex31, ex42, ci2):
    for field in (QQ, GF32003):
        for ideal, dims in ((ex31, (5, 6, 2)), (ex42, (6, 11, 6)), (ci2, (3, 3, 1))):
            model = build_koszul_model(ideal, field)
            alg = build_homology_algebra(model)
            assert homology_dims(model) == dims
            assert alg.dims == dims == (len(alg.a1), len(alg.a2), len(alg.a3))


# ---------------------------------------------------------- A1 generators


def test_canonical_a1_generators_worked_example(ex31):
    gens = canonical_a1_generators(ex31)
    # the x*z^2 generator follows the construction rule; the worked example's
    # printed x*z does not lie in the kernel and is treated as a typo
    assert set((str(m), c) for m, c in gens) == {
        ("x^2", 0),
        ("x*y", 0),
        ("x*z^2", 0),
        ("y^2", 1),
        ("z^2", 2),
    }


def test_canonical_a1_generators_ci(ci2):
    assert [(str(m), c) for m, c in canonical_a1_generators(ci2)] == [
        ("x", 0),
        ("y", 1),
        ("z", 2),
    ]


def test_canonical_a1_generators_staircase(staircase5):
    assert set((str(m), c) for m, c in canonical_a1_generators(staircase5)) == {
        ("x^2", 0),
        ("y^2", 1),
        ("z^2", 2),
        ("z^2", 1),
        ("y*z", 1),
    }


def test_canonical_a1_generators_independent_mod_boundaries(ex31, ex42, staircase5):
    for ideal in (ex31, ex42, staircase5):
        model = build_koszul_model(ideal)
        alg = build_homology_algebra(model)  # raises if dependent
        assert len(alg.a1) == ideal.n
        assert alg.dims[0] == ideal.n


def test_a1_generator_in_boundaries_raises(ex31, monkeypatch):
    # mark the generator's own A1 cell as a boundary in its block's pattern
    model = build_koszul_model(ex31)
    k, g = next((k, g) for k, g in enumerate(ex31.generators) if len(g.support()) >= 2)
    _, comp = canonical_a1_generators(ex31)[k]
    table = koszul.pattern_table(model.field)
    mask = block_at(model, g).mask
    in_image = tuple(t == comp for t in range(3))
    monkeypatch.setitem(table, mask, replace(table[mask], in_image=in_image))
    with pytest.raises(InternalInvariantError, match="dependent mod im"):
        build_homology_algebra(model)


def test_a1_a2_product_off_the_socle_raises(ex31, monkeypatch):
    # a product landing on the unit monomial, which is no cycle of d3
    monkeypatch.setattr(koszul, "wedge_12", lambda model, v1, v2: {0: model.field.one})
    with pytest.raises(InternalInvariantError, match="not a cycle"):
        build_homology_algebra(build_koszul_model(ex31))


# ------------------------------------------------------------------- ranks


def test_rank_a1_squared_examples(ex31, ex42, ci2):
    assert rank_a1_squared(algebra("x^3, x^2*y, y^3, z^3, x^2*z^2")) == 1
    assert rank_a1_squared(algebra("x^5, y^5, z^5, y^3*z^3, x*y^4*z^2, x*y^2*z^4")) == 3
    assert rank_a1_squared(algebra("x^2, y^2, z^2")) == 3


def test_rank_a1_a2_examples():
    assert rank_a1_a2(algebra("x^3, x^2*y, y^3, z^3, x^2*z^2")) == 1
    assert rank_a1_a2(algebra("x^3, y^3, z^3, x*y*z")) == 0
    assert rank_a1_a2(algebra("x^6, y^6, z^6, x^3*y^3, x^3*y^2*z")) == 1


def test_rank_delta2_examples(msquare):
    assert rank_delta2(algebra("x^3, x^2*y, y^3, z^3, x^2*z^2")) == 2
    assert rank_delta2(algebra("x^5, y^5, z^5, y^3*z^3, x*y^4*z^2, x*y^2*z^4")) == 0
    assert rank_delta2(build_homology_algebra(build_koszul_model(msquare))) == 0


def test_truncated_exterior_check_examples():
    assert truncated_exterior_check(algebra("x^3, y^3, z^3, x*y*z")) is True
    assert (
        truncated_exterior_check(
            algebra("x^5, y^5, z^5, y^3*z^3, x*y^4*z^2, x*y^2*z^4")
        )
        is False
    )
    assert (
        truncated_exterior_check(
            algebra("x^6, y^6, z^6, x^3*y^2*z, x^2*y^3*z, x*y*z^3")
        )
        is True
    )


def test_truncated_exterior_check_requires_p3(ex31):
    with pytest.raises(ValueError):
        truncated_exterior_check(build_homology_algebra(build_koszul_model(ex31)))


# -------------------------------------------------------- algebra structure


def test_graded_commutativity(ex31):
    model = build_koszul_model(ex31)
    alg = build_homology_algebra(model)
    for i in range(len(alg.a1)):
        for j in range(len(alg.a1)):
            ab = wedge_11(model, alg.a1[i], alg.a1[j])
            ba = wedge_11(model, alg.a1[j], alg.a1[i])
            assert ab == {k: model.field.neg(s) for k, s in ba.items()}
    for i in range(len(alg.a1)):
        assert wedge_11(model, alg.a1[i], alg.a1[i]) == {}


def test_product_well_defined_mod_boundaries(ex31):
    # perturbing a representative by a boundary must not move the A2 class
    model = build_koszul_model(ex31)
    alg = build_homology_algebra(model)
    field = model.field
    table = koszul.pattern_table(field)
    solver = SpanWithCoords(field)
    for block in model.blocks:
        d3 = table[block.mask].d3
        if d3:
            solver.seed(block.relabel(d3, 2))
    for b, vec in enumerate(alg.a2):
        assert solver.add_tagged(vec, b)
    # perturb the first A1 cycle by an image of d2 (that of the unit's e12
    # cell) and re-multiply
    block = block_at(model, K2_DEGREES[0])
    boundary_col = block.relabel(table[block.mask].d2[0], 1)
    assert len(boundary_col) == 2
    perturbed = dict(alg.a1[0])
    for k, s in boundary_col.items():
        v = field.add(perturbed.get(k, field.zero), s)
        if field.is_zero(v):
            perturbed.pop(k, None)
        else:
            perturbed[k] = v
    for j in range(1, len(alg.a1)):
        base = solver.express(wedge_11(model, alg.a1[0], alg.a1[j]))
        moved = solver.express(wedge_11(model, perturbed, alg.a1[j]))
        assert base == moved


def test_class_outside_the_span_is_an_internal_error():
    with pytest.raises(InternalInvariantError, match="not in the span"):
        SpanWithCoords(QQ).express({(0, 0): QQ.one})


def test_oracle_ranks_field_invariant(ex31, ex42):
    audit = [random_ideal(GeneratorConfig(seed=s)) for s in range(77, 137)]
    for ideal in (ex31, ex42, *audit):
        alg_q = build_homology_algebra(build_koszul_model(ideal, QQ))
        alg_p = build_homology_algebra(build_koszul_model(ideal, GF32003))
        assert alg_q.dims == alg_p.dims
        assert rank_a1_squared(alg_q) == rank_a1_squared(alg_p)
        assert rank_a1_a2(alg_q) == rank_a1_a2(alg_p)
        assert rank_delta2(alg_q) == rank_delta2(alg_p)
        rep_q, rep_p = classify(ideal, QQ), classify(ideal, GF32003)
        for name in ("p", "q", "r", "rhat", "mu"):
            assert getattr(rep_q, name) == getattr(rep_p, name), (str(ideal), name)
        assert rep_q.cls.to_json() == rep_p.cls.to_json(), str(ideal)


# sha256 of the stdout of `trikoszul homology I --show-tables` over qq and over
# gf32003, first 16 hex digits, recorded with the earlier model that built the
# global differentials d1, d2, d3.  The ideals are the shipped corpus (m^2 and
# m^3 among them) and the audit sampler's ideals for seeds 77..116 at its
# default settings.  The stdout prints the A1 labels, both multiplication
# tables, the A2 basis and the socle, so the digests pin the A2 basis, its
# signs and the order of its terms.
FROZEN_HOMOLOGY_DIGESTS = [
    ("x^3, x^2*y, y^3, z^3, x^2*z^2", "18afacba4d3669e2", "b1af4db7eb929fa5"),
    ("x^3, y^3, z^3, y^2*z^2", "f113e36895f293da", "f113e36895f293da"),
    ("x^3, y^3, z^3, x*y*z", "524b406b1566a862", "524b406b1566a862"),
    (
        "x^5, y^5, z^5, y^3*z^3, x*y^4*z^2, x*y^2*z^4",
        "c77ed9d186b9014b",
        "c77ed9d186b9014b",
    ),
    (
        "x^6, y^6, z^6, x^3*y^2*z, x^2*y^3*z, x*y*z^3",
        "8077c6cbb388488b",
        "8077c6cbb388488b",
    ),
    ("x^6, y^6, z^6, x^3*z, y^3*z, x*y*z^3", "cc7600ca7b89f642", "59abbcc7b5bd437d"),
    ("x^6, y^6, z^6, x^3*y^3, x^3*y^2*z", "2e87b2daad4bcbd7", "9555658a2aaa0983"),
    (
        "x^6, y^6, z^6, x^3*y^3, x^3*z^3, y^3*z^3, x*y*z^4",
        "67767bc8945c84d0",
        "67767bc8945c84d0",
    ),
    ("x^2, x*y, x*z, y^2, y*z, z^2", "9bd87e37716f3e9a", "9bd87e37716f3e9a"),
    (
        "x^3, x^2*y, x^2*z, x*y^2, x*y*z, x*z^2, y^3, y^2*z, y*z^2, z^3",
        "0620f08f8297ff31",
        "0620f08f8297ff31",
    ),
    ("x^3, y^3, z^3, x^2*z, y^2*z", "77139758bdd86456", "a757263ffef257b5"),
    (
        "x^4, y^4, z^4, x^3*z^2, x^2*y^2*z^2, y^3*z^2",
        "f1faff3dca022ea9",
        "20f457650c01de7b",
    ),
    ("x^4, y^4, z^4, x^3*y*z^2, x*y^3*z^2", "5ac8d217a023d627", "5ac8d217a023d627"),
    ("x^3, y^3, z^3, y*z^2, y^2*z", "aca0b8760c5c4dc3", "aca0b8760c5c4dc3"),
    ("x^2, y^2, z^5, y*z^3", "030c70e1dd86b5ce", "030c70e1dd86b5ce"),
    ("x^6, y^6, z^4, x^5*y*z^3, y^3*z^2", "a50ae18ebf0dc97c", "a50ae18ebf0dc97c"),
    ("x^5, y^4, z^6, x*y*z, x^3*y", "d67005a2f30f1f4d", "d67005a2f30f1f4d"),
    ("x^2, y^2, z^3, x*y*z", "0877f26510a49f83", "0877f26510a49f83"),
    ("x^3, y^6, z^4, x^2*y^4*z", "7d24352042c54d8e", "7d24352042c54d8e"),
    ("x^5, y^6, z^4, x*y*z^2, x*z^3", "17ade60f97c976dd", "a45e7018509a6446"),
    ("x^6, y^5, z^5, x^5*y^3", "9d2703b751c1c60c", "95c9de259e3d661c"),
    ("x^4, y^2, z^2, x*y", "bf15c21976f0e226", "6b304502d70d2d64"),
    ("x^4, y^2, z^5, x*z^2", "15b203e9fd5c275d", "10919c4ba1a1fd39"),
    ("x^6, y^4, z^2, y^2*z", "990a2583f4367fd4", "990a2583f4367fd4"),
    ("x^3, y^6, z^2, x*y^2*z, x^2*z", "de92a357b0570b5b", "f4c62278305dd967"),
    ("x^3, y^6, z^5, x^2*z^3", "4fa738c7e37aef35", "7c0de0af7801edaa"),
    ("x^6, y^4, z^3, x^3*y^2", "ffc0d79a6cb43b80", "bc22041ce1679f0d"),
    ("x^2, y^2, z^6, x*z^3", "b6298e81e78494bd", "7a00f2dfe898f7a4"),
    ("x^6, y^3, z^3, x^3*y*z^2", "6db043a022f0788b", "6db043a022f0788b"),
    ("x^2, y^2, z^2, x*y, y*z, x*z", "58846fffae7aba8f", "58846fffae7aba8f"),
    ("x^3, y^6, z^4, x*z^2", "8a90a8c93067e3f5", "faaa238fbe97d45b"),
    ("x^5, y^4, z^3, x^2*y", "cba4d6efb38175df", "a23c93f135e21c31"),
    ("x^4, y^5, z^4, x^2*y^2*z^2", "22be171c61ad322d", "22be171c61ad322d"),
    ("x^6, y^2, z^6, x^3*y*z^3, x^2*z^5", "233daa7a0ba6f8b5", "9c535853be0c6009"),
    ("x^5, y^4, z^2, y^2*z, x^3*z", "9ab98ec072cb7a32", "8f41abddb9ac5433"),
    ("x^2, y^2, z^5, x*y, x*z^4, y*z", "70ab5d703a40896c", "70ab5d703a40896c"),
    ("x^3, y^3, z^5, x^2*z^4, x*y^2*z^3", "a80de7e7a4e16ecb", "a80de7e7a4e16ecb"),
    ("x^5, y^5, z^3, x^3*y^2*z, x^4*z^2", "23792208070140cd", "23792208070140cd"),
    ("x^5, y^6, z^4, x*y^3*z^2", "705c8f72aebe61ed", "705c8f72aebe61ed"),
    ("x^6, y^4, z^3, x^4*y*z, x^2*y^3*z^2", "12d60d8a38f053da", "12d60d8a38f053da"),
    ("x^5, y^3, z^6, y^2*z^5, x^3*z^3", "43649a4e08a26908", "b42b2b236be7d43a"),
    ("x^3, y^3, z^5, x*z", "9db86c9cb3c3a897", "5406c6a20f1d9dd1"),
    ("x^2, y^6, z^5, x*y^2*z^4, y^4*z", "04bf285993b2f958", "04bf285993b2f958"),
    ("x^2, y^2, z^4, x*y*z^2", "e6f2121b611a9fe6", "e6f2121b611a9fe6"),
    ("x^6, y^6, z^5, x^3*y^2*z, x^3*y^4", "9a6e7f1807d32710", "47708d5facbee2cb"),
    ("x^4, y^3, z^2, x*z, y^2*z", "4d815778a76b0ccb", "8985148135b0657c"),
    ("x^5, y^5, z^3, x^3*y^2, x*z^2", "bddffb47c626b5ae", "0b2293c70584527f"),
    ("x^6, y^2, z^3, x^3*z^2", "9c568f0196258a6e", "87a40a6aa3e056f9"),
    ("x^4, y^3, z^6, x^3*y", "c681a5fb74c06624", "488d9b1f7acacf1f"),
    ("x^6, y^2, z^2, x*y*z", "86906eb28d8736aa", "86906eb28d8736aa"),
    ("x^4, y^2, z^5, x^2*z^3", "0398c1abe928bd04", "411e94e8bcc749be"),
    ("x^2, y^5, z^5, y^4*z^4", "b65efe06fa66351a", "b65efe06fa66351a"),
    ("x^3, y^2, z^6, y*z^4", "d937ce44a4b9052e", "d937ce44a4b9052e"),
    ("x^3, y^4, z^4, x^2*y^2", "4d4ad2bd0adaa093", "e6201d8e1283391f"),
]


def test_homology_algebra_bytes_are_frozen(capsys):
    changed = []
    for text, want_qq, want_gf in FROZEN_HOMOLOGY_DIGESTS:
        for field, want in (("qq", want_qq), ("gf32003", want_gf)):
            assert main(["homology", text, "--show-tables", "--field", field]) == 0
            out = capsys.readouterr().out
            if hashlib.sha256(out.encode()).hexdigest()[:16] != want:
                changed.append((text, field))
    assert changed == []
