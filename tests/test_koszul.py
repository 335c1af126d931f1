import pytest

from trikoszul.fields import GF32003, PrimeField, QQ
from trikoszul.koszul import (
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
from trikoszul.linalg import Echelon
from trikoszul.monomials import Monomial, parse_ideal


def algebra(text):
    ideal = parse_ideal(text)
    return build_homology_algebra(build_koszul_model(ideal))


# ------------------------------------------------------------------ model


def test_model_m_squared(msquare):
    model = build_koszul_model(msquare)
    assert model.dim == 4
    ech = Echelon(model.field)
    for col in model.d1.values():
        ech.insert(col)
    assert ech.rank == 3


def test_model_detects_corruption():
    # corrupt a column whose composition with d1 survives reduction mod I
    model = build_koszul_model(parse_ideal("x^3, y^3, z^3"))
    assert model.verify()
    unit = model.r_basis.index[Monomial(0, 0, 0)]
    col = dict(model.d2[unit])  # e12 column of the unit monomial
    row = next(iter(sorted(col)))
    col[row] = model.field.add(col[row], model.field.one)
    model.d2[unit] = col
    assert not model.verify()


def test_model_rejects_characteristic_two(msquare):
    with pytest.raises(ValueError):
        build_koszul_model(msquare, field=PrimeField(2))


def test_model_d3_follows_mapping_table(msquare):
    # column for u * e123 must be z*e12 - y*e13 + x*e23
    model = build_koszul_model(msquare)
    dim = model.dim
    idx = model.r_basis.index[Monomial(0, 0, 0)]
    col = model.d3[idx]
    z = model.r_basis.index[Monomial(0, 0, 1)]
    y = model.r_basis.index[Monomial(0, 1, 0)]
    x = model.r_basis.index[Monomial(1, 0, 0)]
    assert col == {
        0 * dim + z: model.field.one,
        1 * dim + y: model.field.neg(model.field.one),
        2 * dim + x: model.field.one,
    }


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


def test_a1_generator_in_boundaries_raises(ex31):
    # overwrite a d2 column in a generator's multidegree with that generator's
    # A1 cycle, which then bounds
    model = build_koszul_model(ex31)
    k, g = next((k, g) for k, g in enumerate(ex31.generators) if len(g.support()) >= 2)
    mono, comp = canonical_a1_generators(ex31)[k]
    block = [i for i in range(model.level_size(2)) if model.multidegree(2, i) == g]
    model.d2[block[0]] = {comp * model.dim + model.r_basis.index[mono]: model.field.one}
    with pytest.raises(RuntimeError, match="dependent mod im"):
        build_homology_algebra(model)


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
    from trikoszul.linalg import SpanWithCoords

    solver = SpanWithCoords(field)
    for u in sorted(model.d3):
        solver.seed(model.d3[u])
    for b, vec in enumerate(alg.a2):
        assert solver.add_tagged(vec, b)
    # perturb the first A1 cycle by an image of d2 and re-multiply
    boundary_col = model.d2[next(iter(sorted(model.d2)))]
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


def test_oracle_ranks_field_invariant(ex31, ex42):
    for ideal in (ex31, ex42):
        alg_q = build_homology_algebra(build_koszul_model(ideal, QQ))
        alg_p = build_homology_algebra(build_koszul_model(ideal, GF32003))
        assert alg_q.dims == alg_p.dims
        assert rank_a1_squared(alg_q) == rank_a1_squared(alg_p)
        assert rank_a1_a2(alg_q) == rank_a1_a2(alg_p)
        assert rank_delta2(alg_q) == rank_delta2(alg_p)
