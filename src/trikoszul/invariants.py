"""Invariants read off the resolution: the column count behind rank(A1^2)
and the dependent-row count behind the first Bass number.

The dependent-row count is computed as an exact Nakayama count: the minimal
number of generators of the image of the transposed last differential over
the Artinian quotient.  That image is spanned by the given relation columns,
so a column can only be a minimal generator at its own degree G, and there
(m*N)_G is spanned by the monomial multiples of the columns of lower degree:
the count tests each distinct column degree once against those multiples
and visits no other degree.  All module computations here split by
multidegree, where every component is a vector space of dimension at most
the rank of the target free module, so exact arithmetic stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonGenericError
from .fields import QQ
from .linalg import Echelon, kernel_basis
from .monomials import (
    Monomial,
    MonomialIdeal,
    StandardBasis,
    is_generic,
    standard_monomials,
)
from .resolution import Resolution

Degree = tuple[int, int, int]


def count_p_structural(res: Resolution, ideal: MonomialIdeal) -> int:
    """Number of f2 columns whose every nonzero entry's monomial lies in
    the ideal (membership, not equality to a generator)."""
    f2 = res.f2
    count = 0
    for c in range(f2.cols):
        col = f2.column(c)
        if col and all(ideal.contains(f2.monomial_at(r, c)) for r in col):
            count += 1
    return count


@dataclass(frozen=True)
class CanonicalPresentation:
    """Free presentation of the canonical module: the transpose of f3 with
    entries reduced in R.  Coordinates whose monomial falls inside the ideal
    are dropped, so every stored monomial lies outside the ideal."""

    target_rank: int
    target_degrees: tuple[Monomial, ...]
    relation_degrees: tuple[Monomial, ...]
    relation_columns: tuple[dict[int, tuple[Fraction, Monomial]], ...]


def build_canonical_presentation(
    res: Resolution, ideal: MonomialIdeal
) -> CanonicalPresentation:
    f3 = res.f3
    columns = []
    for j in range(f3.rows):
        coords: dict[int, tuple[Fraction, Monomial]] = {}
        for t in range(f3.cols):
            s = f3.entries.get((j, t))
            if s is None:
                continue
            mono = f3.monomial_at(j, t)
            if not ideal.contains(mono):
                coords[t] = (s, mono)
        columns.append(coords)
    return CanonicalPresentation(
        target_rank=f3.cols,
        target_degrees=f3.col_degrees,
        relation_degrees=f3.row_degrees,
        relation_columns=tuple(columns),
    )


def _neg(deg: Monomial | Degree) -> Degree:
    return (-deg[0], -deg[1], -deg[2])


def _shift(deg: Degree, var: int, by: int = -1) -> Degree:
    d = list(deg)
    d[var] += by
    return tuple(d)


def _degree_sort_key(deg: Degree):
    return (deg[0] + deg[1] + deg[2], deg)


def _alive(mu: Degree, d: Degree, std_index: dict) -> bool:
    """Whether a free coordinate of degree d survives at degree mu, that is,
    whether its monomial mu - d is a standard monomial of R."""
    return (mu[0] - d[0], mu[1] - d[1], mu[2] - d[2]) in std_index


def graded_minimal_generators(
    free_degrees: list[Degree],
    generators: list[tuple[Degree, dict[int, object]]],
    std_index: dict,
    field,
) -> list[tuple[Degree, dict[int, object]]]:
    """Minimal generators of the submodule N spanned by homogeneous vectors.

    Vectors are (degree, coeffs) with coeffs keyed by the free-module
    coordinate; the monomial on coordinate t is implied as degree - d_t, and
    a coordinate whose monomial lies in the ideal is dropped.  The given
    vectors generate N, so (m*N)_G is spanned by the multiples
    x^(G - deg h) * h of the vectors h with deg h <= G componentwise and
    deg h != G.  A vector of degree G is therefore a minimal generator
    exactly when it extends the span of those multiples and of the vectors
    of degree G listed before it: the graded Nakayama test, made once per
    generator degree.  Returned in increasing total degree, input order
    within a degree, each restricted to the coordinates alive at its degree.
    """
    minimal = []
    for top in sorted({deg for deg, _ in generators}, key=_degree_sort_key):
        below = [
            g
            for g in generators
            if g[0] != top and all(a <= b for a, b in zip(g[0], top))
        ]
        at_top = [g for g in generators if g[0] == top]
        ech = Echelon(field)
        for deg, coeffs in below + at_top:
            alive = {
                t: s
                for t, s in coeffs.items()
                if _alive(top, free_degrees[t], std_index)
            }
            if ech.insert(alive) and deg == top:
                minimal.append((top, alive))
    return minimal


def graded_syzygy_minimal_generators(
    free_degrees: list[Degree],
    min_gens: list[tuple[Degree, dict[int, object]]],
    std_index: dict,
    field,
) -> list[tuple[Degree, dict[int, object]]]:
    """Minimal generators of the kernel of the map sending the i-th basis
    element of a new free module onto min_gens[i].

    Kernels are computed per multidegree (the map is homogeneous), and the
    Nakayama walk over shifted kernels isolates the minimal generators.  A
    kernel generator can sit at any degree the min_gens reach, not only at
    one of their own degrees, so the walk visits all of them.
    """
    gen_degrees = [g[0] for g in min_gens]
    cands = set()
    for d in gen_degrees:
        for s in std_index:
            cands.add((d[0] + s[0], d[1] + s[1], d[2] + s[2]))
    kernels: dict[Degree, list[dict]] = {}
    minimal = []
    for mu in sorted(cands, key=_degree_sort_key):
        active = [i for i, d in enumerate(gen_degrees) if _alive(mu, d, std_index)]
        if not active:
            kernels[mu] = []
            continue
        cols = [
            {
                t: s
                for t, s in min_gens[i][1].items()
                if _alive(mu, free_degrees[t], std_index)
            }
            for i in active
        ]
        combos = kernel_basis(cols, field)
        local = [{active[pos]: s for pos, s in combo.items()} for combo in combos]
        ech = Echelon(field)
        for var in range(3):
            for kv in kernels.get(_shift(mu, var), []):
                shifted = {
                    i: s for i, s in kv.items() if _alive(mu, gen_degrees[i], std_index)
                }
                if shifted:
                    ech.insert(shifted)
        for kv in local:
            if ech.insert(kv):
                minimal.append((mu, kv))
        kernels[mu] = local
    return minimal


def presentation_minimal_generators(
    pres: CanonicalPresentation,
    ideal: MonomialIdeal,
    field=QQ,
    dim_cap: int = 20000,
    *,
    std: StandardBasis | None = None,
) -> list[tuple[Degree, dict[int, object]]]:
    """Minimal generators of the relation module of the canonical module;
    std is the staircase of the ideal when the caller has already built it."""
    if std is None:
        std = standard_monomials(ideal, dim_cap)
    free_degrees = [_neg(d) for d in pres.target_degrees]
    gens = []
    for j, coords in enumerate(pres.relation_columns):
        deg = _neg(pres.relation_degrees[j])
        coeffs = {t: field.of_fraction(s) for t, (s, _) in coords.items()}
        if coeffs:
            gens.append((deg, coeffs))
    return graded_minimal_generators(free_degrees, gens, std.index, field)


def dependent_row_count(
    res: Resolution,
    ideal: MonomialIdeal,
    field=QQ,
    dim_cap: int = 20000,
    *,
    std: StandardBasis | None = None,
) -> int:
    """Rows of f3 that are dependent mod the ideal, via the Nakayama count
    of minimal generators of the image of the transposed differential."""
    pres = build_canonical_presentation(res, ideal)
    mu1 = len(presentation_minimal_generators(pres, ideal, field, dim_cap, std=std))
    return res.f2.cols - mu1


def dependent_row_count_generic(res: Resolution, ideal: MonomialIdeal) -> int:
    """For generic ideals: rows of f3 holding an entry that equals a pure
    power generator of the ideal."""
    if not is_generic(ideal):
        raise NonGenericError("the pure-power row scan applies to generic ideals")
    pure = {
        g for g in ideal.generators if g.pure_power_variable() is not None
    }
    f3 = res.f3
    count = 0
    for j in range(f3.rows):
        if any(
            (j, t) in f3.entries and f3.monomial_at(j, t) in pure
            for t in range(f3.cols)
        ):
            count += 1
    return count


@dataclass(frozen=True)
class BassData:
    mu0: int
    mu1: int
    rhat: int


def bass_mu0_mu1(
    res: Resolution,
    ideal: MonomialIdeal,
    field=QQ,
    dim_cap: int = 20000,
    *,
    std: StandardBasis | None = None,
) -> BassData:
    rhat = dependent_row_count(res, ideal, field, dim_cap, std=std)
    mu1 = res.f2.cols - rhat
    return BassData(mu0=res.m, mu1=mu1, rhat=rhat)
