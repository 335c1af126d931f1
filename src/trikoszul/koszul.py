"""Koszul-complex homology of R = S/I: the independent oracle for p, q, r.

R is modeled as a vector space on its standard monomials and the complex

    0 -> R -> R^3 -> R^3 -> R -> 0

is kept as one block per K2 multidegree mu.  A cell (comp, u) is the basis
element u * e_comp of a level, u indexing the staircase; it has multidegree
u times the degree of e_comp.  Every differential preserves the multidegree,
so a block holds the whole complex at mu: the eight cells mu / x_tau, one
per face tau of {x, y, z}.  The cell is alive when mu / x_tau is a standard
monomial (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), and
which cells are alive -- the block's 8-bit mask -- fixes the block's +-1
complex entirely.  build_koszul_model walks the staircase once to list the
blocks, as (mu, mask, staircase index of each cell), in (total degree,
multidegree) order.

A pattern table, filled lazily one mask at a time per field and per sign
tables, holds each mask's local d2 and d3, the d1 . d2 = 0 and d2 . d3 = 0
check, the d2 kernel, rank(d2), whether each K1 unit vector lies in im(d2)
and the kernel vectors independent modulo im(d3).  A few dozen masks cover
every block of an ideal, so no block is eliminated on its own.
KoszulModel.verify checks the entry of every mask its blocks take.

build_homology_algebra reads each block's entry: rank(d2), the canonical A1
generator of that multidegree checked against im(d2), and the local A2
representatives, relabeled to cells.  rank(d3) counts the blocks whose K3
cell is alive (its column is nonzero and alone in its multidegree), rank(d1)
is dim R - 1 (d1 maps onto the maximal ideal of R), and the dims follow by
rank-nullity; homology_dims returns those dims.  The boundaries are seeded
into the class solver only in the blocks that carry A2 or where a product of
two A1 generators lands, the only places a class is ever expressed.

The wedge components are ordered e1, e2, e3; e12, e13, e23; e123, and the
differentials follow

    d1 = [x y z],   d2(e12) = x e2 - y e1,  d2(e13) = x e3 - z e1,
    d2(e23) = y e3 - z e2,  d3(e123) = z e12 - y e13 + x e23.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .errors import InternalInvariantError, NotArtinianError
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

# mask bits of a block's cells: the first bit of the K1 and of the K2
# components (component c sits on bit K1_BIT + c or K2_BIT + c), the K3
# cell and the K0 cell mu itself
K1_BIT, K2_BIT, K3_BIT, K0_BIT = 0, 3, 6, 7

# d2 columns: K2 component -> ((K1 component, sign), ...); in a block the
# K1 target of each component is the one cell of that component at mu
_D2_TABLE = (
    ((1, +1), (0, -1)),  # e12 -> x e2 - y e1
    ((2, +1), (0, -1)),  # e13 -> x e3 - z e1
    ((2, +1), (1, -1)),  # e23 -> y e3 - z e2
)
# d3 column: e123 -> z e12 - y e13 + x e23, as a sign per K2 component
_D3_SIGNS = (+1, -1, +1)

# wedge of K1 components: (i, j) -> (K2 component, sign)
_WEDGE_11 = {
    (0, 1): (0, 1),
    (1, 0): (0, -1),
    (0, 2): (1, 1),
    (2, 0): (1, -1),
    (1, 2): (2, 1),
    (2, 1): (2, -1),
}
# wedge K1 x K2 -> K3: (K1 comp, K2 comp) -> (K3 component, sign), zero
# pairs absent
_WEDGE_12 = {(0, 2): (0, 1), (1, 1): (0, -1), (2, 0): (0, 1)}


class KoszulBlock(NamedTuple):
    """The Koszul complex in the K2 multidegree mu, an exponent triple.

    cells holds, per mask bit, the staircase index of the cell's monomial
    mu / x_tau, or None when the cell is dead (mu / x_tau is no standard
    monomial, or not a monomial); mask has the bits of the alive cells.
    """

    mu: tuple[int, int, int]
    mask: int
    cells: tuple[int | None, ...]

    def relabel(self, vec: dict, level: int) -> dict[tuple[int, int], object]:
        """A vector at mu keyed by component of level 1 or 2, keyed by cell
        (comp, u) instead."""
        first = K1_BIT if level == 1 else K2_BIT
        return {(comp, self.cells[first + comp]): s for comp, s in vec.items()}


@dataclass(frozen=True)
class Pattern:
    """The complex of every block with one mask, keyed by component.

    d2 maps each alive K2 component to its column of signs on the alive K1
    components; d3 is the sign per alive K2 component of the K3 cell's
    column ({} when the K3 cell is dead).  kernel is the d2 kernel from
    left-to-right elimination, a2 the kernel vectors independent modulo
    im(d3) in that order, and in_image[t] tells whether the unit vector of
    K1 component t lies in im(d2).
    """

    d2: dict[int, dict[int, int]]
    d3: dict[int, int]
    composes: bool
    kernel: tuple[dict[int, object], ...]
    rank_d2: int
    in_image: tuple[bool, bool, bool]
    a2: tuple[dict[int, object], ...]


def _pattern(field, mask: int, d2_table, d3_signs) -> Pattern:
    d2 = {
        comp: {t: s for t, s in d2_table[comp] if mask >> (K1_BIT + t) & 1}
        for comp in range(3)
        if mask >> (K2_BIT + comp) & 1
    }
    d3 = {comp: d3_signs[comp] for comp in d2} if mask >> K3_BIT & 1 else {}
    # d1 sends each K1 cell to the K0 cell mu with coefficient 1 when mu is
    # alive and to 0 otherwise, so d1 . d2 of a column is the sum of its signs
    composes = not (mask >> K0_BIT & 1 and any(sum(col.values()) for col in d2.values()))
    acc: dict[int, int] = {}
    for comp, s in d3.items():
        for t, sign in d2[comp].items():
            acc[t] = acc.get(t, 0) + s * sign
    composes = composes and not any(acc.values())

    comps = list(d2)
    cols = list(d2.values())
    kernel = tuple(
        {comps[pos]: s for pos, s in combo.items()} for combo in kernel_basis(cols, field)
    )
    # appended last, a unit vector leaves the d2 kernel as it is and adds a
    # combination of its own iff it lies in im(d2)
    in_image = []
    for t in range(3):
        alive = mask >> (K1_BIT + t) & 1
        ext = kernel_basis(cols + [{t: field.one}], field) if alive else []
        in_image.append(bool(ext) and len(cols) in ext[-1])
    solver = SpanWithCoords(field)
    if d3:
        solver.seed(d3)
    a2 = tuple(vec for tag, vec in enumerate(kernel) if solver.add_tagged(vec, tag))
    return Pattern(d2, d3, composes, kernel, len(cols) - len(kernel), tuple(in_image), a2)


class PatternTable(dict):
    """mask -> Pattern over one field and one pair of sign tables, each
    entry built on first use; at most 256 entries."""

    def __init__(self, field, d2_table, d3_signs):
        super().__init__()
        self.field = field
        self.d2_table = d2_table
        self.d3_signs = d3_signs

    def __missing__(self, mask: int) -> Pattern:
        entry = self[mask] = _pattern(self.field, mask, self.d2_table, self.d3_signs)
        return entry


_PATTERN_TABLES: dict[tuple, PatternTable] = {}


def pattern_table(field) -> PatternTable:
    """The pattern table of the field under the current sign tables, shared
    by every model over that field."""
    key = (field, _D2_TABLE, _D3_SIGNS)
    table = _PATTERN_TABLES.get(key)
    if table is None:
        table = _PATTERN_TABLES[key] = PatternTable(*key)
    return table


@dataclass
class KoszulModel:
    """The Koszul complex of R as its staircase and its K2 multidegree
    blocks, in (total degree, multidegree) order."""

    ideal: MonomialIdeal
    field: object
    r_basis: StandardBasis
    blocks: list[KoszulBlock]

    @property
    def dim(self) -> int:
        return self.r_basis.dim

    def verify(self) -> bool:
        """d1 . d2 = 0 and d2 . d3 = 0 on every block: checked once on the
        pattern of each mask the blocks take."""
        table = pattern_table(self.field)
        return all(table[mask].composes for mask in {block.mask for block in self.blocks})


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
    get = std.index.get
    mus = {
        (a + da, b + db, c + dc) for da, db, dc in K2_DEGREES for a, b, c in std.monomials
    }
    blocks = []
    for mu in sorted(mus, key=lambda m: (m[0] + m[1] + m[2], m)):
        a, b, c = mu
        # the cells at mu in mask-bit order: mu over the degree of e1, e2, e3;
        # e12, e13, e23; e123; and mu itself
        cells = (
            get((a - 1, b, c)),
            get((a, b - 1, c)),
            get((a, b, c - 1)),
            get((a - 1, b - 1, c)),
            get((a - 1, b, c - 1)),
            get((a, b - 1, c - 1)),
            get((a - 1, b - 1, c - 1)),
            get(mu),
        )
        mask = 0
        for bit, u in enumerate(cells):
            if u is not None:
                mask |= 1 << bit
        blocks.append(KoszulBlock(mu, mask, cells))
    model = KoszulModel(ideal=ideal, field=field, r_basis=std, blocks=blocks)
    if not model.verify():
        raise InternalInvariantError("Koszul differentials do not compose to zero")
    return model


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

    a1 holds the canonical cycle representatives and a2 kernel cycles that
    are independent modulo the image of d3, both keyed by cell (comp, u);
    a2_degrees[b] is the multidegree of a2[b]; a3 holds the socle
    coordinates u of R (the kernel of d3 is one-dimensional per
    multidegree).
    mult_11[(i, j)] for i < j gives A2-class coordinates of a1[i] * a1[j];
    mult_12[(i, b)] gives A3 coordinates of a1[i] * a2[b].
    """

    model: KoszulModel
    a1: list[dict[tuple[int, int], object]]
    a1_labels: list[tuple[Monomial, int]]
    a2: list[dict[tuple[int, int], object]]
    a2_degrees: list[tuple[int, int, int]]
    a3: list[int]
    dims: tuple[int, int, int]
    mult_11: dict[tuple[int, int], dict[int, object]]
    mult_12: dict[tuple[int, int], dict[int, object]]


def _wedge(model: KoszulModel, va: dict, vb: dict, table: dict) -> dict:
    """Product of two elements keyed by cell, reduced in R; table maps a
    pair of components to the product's component and sign."""
    field = model.field
    monos = model.r_basis.monomials
    index = model.r_basis.index
    out: dict[tuple[int, int], object] = {}
    for (ca, ua), sa in va.items():
        ma = monos[ua]
        for (cb, ub), sb in vb.items():
            rule = table.get((ca, cb))
            if rule is None:
                continue
            comp, sign = rule
            target = index.get(ma.mul(monos[ub]))
            if target is None:
                continue
            key = (comp, target)
            term = field.mul(sa, sb)
            if sign < 0:
                term = field.neg(term)
            v = field.add(out.get(key, field.zero), term)
            if field.is_zero(v):
                out.pop(key, None)
            else:
                out[key] = v
    return out


def wedge_11(model: KoszulModel, va: dict, vb: dict) -> dict[tuple[int, int], object]:
    """Product of two degree-1 elements, reduced in R."""
    return _wedge(model, va, vb, _WEDGE_11)


def wedge_12(model: KoszulModel, v1: dict, v2: dict) -> dict[int, object]:
    """Product of a degree-1 and a degree-2 element, landing in K3 = R and
    keyed by staircase index."""
    return {u: s for (_, u), s in _wedge(model, v1, v2, _WEDGE_12).items()}


def build_homology_algebra(model: KoszulModel) -> HomologyAlgebra:
    field = model.field
    dim = model.dim
    table = pattern_table(field)
    labels = canonical_a1_generators(model.ideal)
    a1 = [{(comp, model.r_basis.index[mono]): field.one} for mono, comp in labels]
    # canonical generator k is homogeneous of multidegree generators[k]; the
    # generators are distinct, so independence mod im(d2) splits over blocks
    # (a pure power meets no K2 block: im(d2) is zero in its multidegree)
    gens = model.ideal.generators
    a1_at = {g: k for k, g in enumerate(gens)}
    # a1[i] * a1[j] is one cell of multidegree g_i * g_j
    landing = {gi.mul(gj) for gi, gj in combinations(gens, 2)}

    # class solver: boundaries seeded, A2 basis vectors tagged; blocks share
    # no cell, so a vector reduces only against its own block's rows, and a
    # block needs its rows only if it carries A2 or a product lands in it
    solver = SpanWithCoords(field)
    rank_d2 = rank_d3 = 0
    a2: list[dict[tuple[int, int], object]] = []
    a2_degrees: list[tuple[int, int, int]] = []
    for block in model.blocks:
        entry = table[block.mask]
        rank_d2 += entry.rank_d2
        if entry.d3:
            rank_d3 += 1
        k = a1_at.get(block.mu)
        if k is not None and entry.in_image[labels[k][1]]:
            raise InternalInvariantError(
                "canonical A1 generators are dependent mod im(d2)"
            )
        if entry.a2 or block.mu in landing:
            if entry.d3:
                solver.seed(block.relabel(entry.d3, 2))
            for local in entry.a2:
                vec = block.relabel(local, 2)
                if not solver.add_tagged(vec, len(a2)):
                    raise InternalInvariantError("A2 representatives are dependent")
                a2.append(vec)
                a2_degrees.append(block.mu)

    # the socle, a basis of ker d3 = A3: a K3 cell u lies in some block
    # (whose d3 column is then nonzero) unless u*x, u*y and u*z all lie in I
    in_blocks = {block.cells[K3_BIT] for block in model.blocks}
    a3 = [u for u in range(dim) if u not in in_blocks]
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
                    raise InternalInvariantError("A1*A2 product is not a cycle")
                coords[a3_pos[u]] = s
            mult_12[(i, b)] = coords
    # d1 maps onto the maximal ideal of R: each standard monomial but 1 is
    # x, y or z times a standard monomial
    rank_d1 = dim - 1
    return HomologyAlgebra(
        model=model,
        a1=a1,
        a1_labels=labels,
        a2=a2,
        a2_degrees=a2_degrees,
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


def _rank(field, vectors) -> int:
    """Dimension of the span of the vectors."""
    ech = Echelon(field)
    for v in vectors:
        if v:
            ech.insert(v)
    return ech.rank


def rank_a1_squared(alg: HomologyAlgebra) -> int:
    """p: dimension of the span of pairwise A1 products inside A2."""
    return _rank(alg.model.field, alg.mult_11.values())


def rank_a1_a2(alg: HomologyAlgebra) -> int:
    """q: dimension of the span of A1 * A2 inside A3."""
    return _rank(alg.model.field, alg.mult_12.values())


def rank_delta2(alg: HomologyAlgebra) -> int:
    """r: rank of the pairing map A2 -> Hom(A1, A3)."""
    rows = (
        {
            (i, pos): s
            for i in range(len(alg.a1))
            for pos, s in alg.mult_12.get((i, b), {}).items()
        }
        for b in range(len(alg.a2))
    )
    return _rank(alg.model.field, rows)


def truncated_exterior_check(alg: HomologyAlgebra) -> bool:
    """Whether some three canonical A1 generators have pairwise products
    that are nonzero, independent in A2, and hence span A1^2.

    Only meaningful when p = 3; distinguishes the truncated exterior
    algebra class from H(3,0)."""
    p = rank_a1_squared(alg)
    if p != 3:
        raise ValueError(f"the truncated-exterior test requires p = 3, got {p}")
    for a, b, c in combinations(range(len(alg.a1)), 3):
        prods = [alg.mult_11[(a, b)], alg.mult_11[(a, c)], alg.mult_11[(b, c)]]
        if all(prods) and _rank(alg.model.field, prods) == 3:
            return True
    return False
