"""Koszul-complex homology of R = S/I: the independent oracle for p, q, r.

R is modeled as a vector space on its standard monomials and the complex

    0 -> R -> R^3 -> R^3 -> R -> 0

is assembled from the multiplication tables of x, y, z.  Every graded piece
of the complex in a fixed multidegree has dimension at most three, so all
rank and kernel computations split into tiny exact blocks.

build_homology_algebra eliminates d2 once per K2 multidegree block.  Each
block's kernel gives rank(d2) (columns minus kernel size) and the A2
representatives; the canonical A1 generator of that multidegree, if any, is
checked against im(d2) in the same elimination.  rank(d3) counts the d3
columns seeded into the class solver (each sits alone in its multidegree),
rank(d1) counts the distinct rows d1 hits (each column is one unit entry),
and the dims follow by rank-nullity; homology_dims returns those dims.

The wedge components are ordered e1, e2, e3; e12, e13, e23; e123, and the
differentials follow

    d1 = [x y z],   d2(e12) = x e2 - y e1,  d2(e13) = x e3 - z e1,
    d2(e23) = y e3 - z e2,  d3(e123) = z e12 - y e13 + x e23.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotArtinianError
from .fields import QQ
from .linalg import Echelon, SpanWithCoords, kernel_basis
from .monomials import (
    Monomial,
    MonomialIdeal,
    StandardBasis,
    is_primary_artinian,
    standard_monomials,
)

# multidegrees of the exterior basis elements per homological level
K1_DEGREES = (Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1))
K2_DEGREES = (Monomial(1, 1, 0), Monomial(1, 0, 1), Monomial(0, 1, 1))
K3_DEGREE = Monomial(1, 1, 1)

# d2 columns: component -> ((target K1 component, variable, sign), ...)
_D2_TABLE = (
    ((1, 0, +1), (0, 1, -1)),  # e12 -> x e2 - y e1
    ((2, 0, +1), (0, 2, -1)),  # e13 -> x e3 - z e1
    ((2, 1, +1), (1, 2, -1)),  # e23 -> y e3 - z e2
)
# d3 column: e123 -> z e12 - y e13 + x e23
_D3_TABLE = ((0, 2, +1), (1, 1, -1), (2, 0, +1))

# wedge of K1 components: (i, j) -> (K2 component, sign)
_WEDGE_11 = {
    (0, 1): (0, 1),
    (1, 0): (0, -1),
    (0, 2): (1, 1),
    (2, 0): (1, -1),
    (1, 2): (2, 1),
    (2, 1): (2, -1),
}
# wedge K1 x K2 -> K3: (K1 comp, K2 comp) -> sign (zero pairs absent)
_WEDGE_12 = {(0, 2): 1, (1, 1): -1, (2, 0): 1}


@dataclass
class KoszulModel:
    """Exact-field model of the Koszul complex over R.

    d1, d2, d3 map column index to a sparse column over the previous level's
    basis indices.  Level bases are component-major: index = comp * dim + u.
    """

    ideal: MonomialIdeal
    field: object
    r_basis: StandardBasis
    d1: dict[int, dict[int, object]]
    d2: dict[int, dict[int, object]]
    d3: dict[int, dict[int, object]]

    @property
    def dim(self) -> int:
        return self.r_basis.dim

    def level_size(self, level: int) -> int:
        return self.dim * (3 if level in (1, 2) else 1)

    def label(self, level: int, idx: int) -> tuple[int, Monomial]:
        comp, u = divmod(idx, self.dim)
        return comp, self.r_basis.monomials[u]

    def multidegree(self, level: int, idx: int) -> Monomial:
        comp, u = self.label(level, idx)
        if level == 1:
            return K1_DEGREES[comp].mul(u)
        if level == 2:
            return K2_DEGREES[comp].mul(u)
        if level == 3:
            return K3_DEGREE.mul(u)
        return u

    def verify(self) -> bool:
        """d1 . d2 = 0 and d2 . d3 = 0 over the field."""
        for d_out, d_in in ((self.d1, self.d2), (self.d2, self.d3)):
            for col in d_in.values():
                acc: dict[int, object] = {}
                for row, s in col.items():
                    for row2, s2 in d_out.get(row, {}).items():
                        v = self.field.add(
                            acc.get(row2, self.field.zero), self.field.mul(s, s2)
                        )
                        if self.field.is_zero(v):
                            acc.pop(row2, None)
                        else:
                            acc[row2] = v
                if acc:
                    return False
        return True


def build_koszul_model(
    ideal: MonomialIdeal,
    field=QQ,
    dim_cap: int = 20000,
    *,
    std: StandardBasis | None = None,
) -> KoszulModel:
    """The Koszul complex of R over the staircase basis; std is the
    staircase of the ideal when the caller has already built it."""
    if field.characteristic == 2:
        raise ValueError(
            "characteristic-2 fields are rejected: sign-based wedge identities degenerate"
        )
    if not is_primary_artinian(ideal):
        raise NotArtinianError("the Koszul model requires an m-primary ideal in m^2")
    if std is None:
        std = standard_monomials(ideal, dim_cap)
    dim = std.dim
    index = std.index
    monos = std.monomials

    def times_var(u: int, var: int) -> int | None:
        m = monos[u]
        prod = (m[0] + (var == 0), m[1] + (var == 1), m[2] + (var == 2))
        return index.get(prod)

    one = field.one
    neg_one = field.neg(one)
    d1: dict[int, dict[int, object]] = {}
    for comp in range(3):
        for u in range(dim):
            target = times_var(u, comp)
            if target is not None:
                d1[comp * dim + u] = {target: one}
    d2: dict[int, dict[int, object]] = {}
    for comp, rules in enumerate(_D2_TABLE):
        for u in range(dim):
            col: dict[int, object] = {}
            for (tcomp, var, sign) in rules:
                target = times_var(u, var)
                if target is not None:
                    col[tcomp * dim + target] = one if sign > 0 else neg_one
            if col:
                d2[comp * dim + u] = col
    d3: dict[int, dict[int, object]] = {}
    for u in range(dim):
        col = {}
        for (tcomp, var, sign) in _D3_TABLE:
            target = times_var(u, var)
            if target is not None:
                col[tcomp * dim + target] = one if sign > 0 else neg_one
        if col:
            d3[u] = col
    model = KoszulModel(ideal=ideal, field=field, r_basis=std, d1=d1, d2=d2, d3=d3)
    if not model.verify():
        raise RuntimeError("Koszul differentials do not compose to zero")
    return model


def _d2_blocks(model: KoszulModel):
    """The K2 multidegree blocks in (total degree, multidegree) order, each
    as (multidegree, K2 indices, their d2 columns)."""
    groups: dict[Monomial, list[int]] = {}
    for idx in range(model.level_size(2)):
        groups.setdefault(model.multidegree(2, idx), []).append(idx)
    for mu in sorted(groups, key=lambda m: (m.degree(), m)):
        idxs = groups[mu]
        yield mu, idxs, [model.d2.get(idx, {}) for idx in idxs]


def homology_dims(model: KoszulModel) -> tuple[int, int, int]:
    """(dim A1, dim A2, dim A3), as computed by build_homology_algebra."""
    return build_homology_algebra(model).dims


def canonical_a1_generators(ideal: MonomialIdeal) -> list[tuple[Monomial, int]]:
    """The explicit minimal generating set of A1: for each generator divide
    out the first variable with positive exponent and place the quotient on
    the matching exterior component.  Returned in generator order."""
    if not is_primary_artinian(ideal):
        raise NotArtinianError("A1 generators require an m-primary ideal in m^2")
    out = []
    for g in ideal.generators:
        if g.ax > 0:
            comp = 0
        elif g.ay > 0:
            comp = 1
        else:
            comp = 2
        out.append((g.divide_by(K1_DEGREES[comp]), comp))
    return out


@dataclass
class HomologyAlgebra:
    """Bases for A1, A2, A3 plus the multiplication data into A2 and A3.

    a1 holds the canonical cycle representatives; a2 holds kernel cycles
    that are independent modulo the image of d3; a3 holds the socle
    coordinates of R (the kernel of d3 is one-dimensional per multidegree).
    mult_11[(i, j)] for i < j gives A2-class coordinates of a1[i] * a1[j];
    mult_12[(i, b)] gives A3 coordinates of a1[i] * a2[b].
    """

    model: KoszulModel
    a1: list[dict[int, object]]
    a1_labels: list[tuple[Monomial, int]]
    a2: list[dict[int, object]]
    a3: list[int]
    dims: tuple[int, int, int]
    mult_11: dict[tuple[int, int], dict[int, object]]
    mult_12: dict[tuple[int, int], dict[int, object]]


def wedge_11(model: KoszulModel, va: dict, vb: dict) -> dict[int, object]:
    """Product of two degree-1 elements, reduced in R."""
    field = model.field
    dim = model.dim
    monos = model.r_basis.monomials
    index = model.r_basis.index
    out: dict[int, object] = {}
    for ia, sa in va.items():
        ca, ua = divmod(ia, dim)
        ma = monos[ua]
        for ib, sb in vb.items():
            cb, ub = divmod(ib, dim)
            rule = _WEDGE_11.get((ca, cb))
            if rule is None:
                continue
            comp, sign = rule
            target = index.get(ma.mul(monos[ub]))
            if target is None:
                continue
            key = comp * dim + target
            term = field.mul(sa, sb)
            if sign < 0:
                term = field.neg(term)
            v = field.add(out.get(key, field.zero), term)
            if field.is_zero(v):
                out.pop(key, None)
            else:
                out[key] = v
    return out


def wedge_12(model: KoszulModel, v1: dict, v2: dict) -> dict[int, object]:
    """Product of a degree-1 and a degree-2 element, landing in K3 = R."""
    field = model.field
    dim = model.dim
    monos = model.r_basis.monomials
    index = model.r_basis.index
    out: dict[int, object] = {}
    for ia, sa in v1.items():
        ca, ua = divmod(ia, dim)
        ma = monos[ua]
        for ib, sb in v2.items():
            cb, ub = divmod(ib, dim)
            sign = _WEDGE_12.get((ca, cb))
            if sign is None:
                continue
            target = index.get(ma.mul(monos[ub]))
            if target is None:
                continue
            term = field.mul(sa, sb)
            if sign < 0:
                term = field.neg(term)
            v = field.add(out.get(target, field.zero), term)
            if field.is_zero(v):
                out.pop(target, None)
            else:
                out[target] = v
    return out


def build_homology_algebra(model: KoszulModel) -> HomologyAlgebra:
    field = model.field
    dim = model.dim
    labels = canonical_a1_generators(model.ideal)
    a1 = [{comp * dim + model.r_basis.index[mono]: field.one} for mono, comp in labels]
    # canonical generator k is homogeneous of multidegree generators[k]; the
    # generators are distinct, so independence mod im(d2) splits over blocks
    # (a pure power meets no K2 block: im(d2) is zero in its multidegree)
    a1_at = {g: k for k, g in enumerate(model.ideal.generators)}

    # class solver: boundaries seeded, A2 basis vectors tagged
    solver = SpanWithCoords(field)
    rank_d3 = sum(solver.seed(model.d3[u]) for u in sorted(model.d3))
    rank_d2 = 0
    a2: list[dict[int, object]] = []
    for mu, idxs, cols in _d2_blocks(model):
        k = a1_at.get(mu)
        if k is not None:
            # appended last, the generator's cycle leaves the d2 kernel as it
            # is and adds a combination of its own iff it lies in im(d2)
            cols.append(a1[k])
        kernel = kernel_basis(cols, field)
        if k is not None and kernel and len(idxs) in kernel[-1]:
            raise RuntimeError("canonical A1 generators are dependent mod im(d2)")
        rank_d2 += len(idxs) - len(kernel)
        for combo in kernel:
            vec = {idxs[pos]: s for pos, s in combo.items()}
            if solver.add_tagged(vec, len(a2)):
                a2.append(vec)

    # socle coordinates form the A3 basis
    monos = model.r_basis.monomials
    index = model.r_basis.index
    a3 = [
        u
        for u in range(dim)
        if all(
            index.get(
                (monos[u][0] + (v == 0), monos[u][1] + (v == 1), monos[u][2] + (v == 2))
            )
            is None
            for v in range(3)
        )
    ]
    a3_pos = {u: k for k, u in enumerate(a3)}

    mult_11 = {}
    for i, j in combinations(range(len(a1)), 2):
        mult_11[(i, j)] = solver.express(wedge_11(model, a1[i], a1[j]))
    mult_12 = {}
    for i in range(len(a1)):
        for b in range(len(a2)):
            prod = wedge_12(model, a1[i], a2[b])
            coords = {}
            for u, s in prod.items():
                if u not in a3_pos:
                    raise RuntimeError("A1*A2 product is not a cycle")
                coords[a3_pos[u]] = s
            mult_12[(i, b)] = coords
    rank_d1 = len({row for col in model.d1.values() for row in col})
    return HomologyAlgebra(
        model=model,
        a1=a1,
        a1_labels=labels,
        a2=a2,
        a3=a3,
        # rank-nullity
        dims=(
            3 * dim - rank_d1 - rank_d2,
            3 * dim - rank_d2 - rank_d3,
            dim - rank_d3,
        ),
        mult_11=mult_11,
        mult_12=mult_12,
    )


def rank_a1_squared(alg: HomologyAlgebra) -> int:
    """p: dimension of the span of pairwise A1 products inside A2."""
    ech = Echelon(alg.model.field)
    for coords in alg.mult_11.values():
        if coords:
            ech.insert(coords)
    return ech.rank


def rank_a1_a2(alg: HomologyAlgebra) -> int:
    """q: dimension of the span of A1 * A2 inside A3."""
    ech = Echelon(alg.model.field)
    for coords in alg.mult_12.values():
        if coords:
            ech.insert(coords)
    return ech.rank


def rank_delta2(alg: HomologyAlgebra) -> int:
    """r: rank of the pairing map A2 -> Hom(A1, A3)."""
    ech = Echelon(alg.model.field)
    for b in range(len(alg.a2)):
        row: dict[tuple[int, int], object] = {}
        for i in range(len(alg.a1)):
            for pos, s in alg.mult_12.get((i, b), {}).items():
                row[(i, pos)] = s
        if row:
            ech.insert(row)
    return ech.rank


def truncated_exterior_check(alg: HomologyAlgebra) -> bool:
    """Whether some three canonical A1 generators have pairwise products
    that are nonzero, independent in A2, and hence span A1^2.

    Only meaningful when p = 3; distinguishes the truncated exterior
    algebra class from H(3,0)."""
    p = rank_a1_squared(alg)
    if p != 3:
        raise ValueError(f"the truncated-exterior test requires p = 3, got {p}")
    field = alg.model.field
    for a, b, c in combinations(range(len(alg.a1)), 3):
        prods = [alg.mult_11[(a, b)], alg.mult_11[(a, c)], alg.mult_11[(b, c)]]
        if any(not v for v in prods):
            continue
        ech = Echelon(field)
        for v in prods:
            ech.insert(v)
        if ech.rank == 3:
            return True
    return False
