"""Minimal multigraded free resolutions of R = S/I.

The general path runs the Taylor complex on all faces through an iterative
cancellation of unit entries (pairs of faces with equal lcm), always
cancelling the least eligible pair first; for generic ideals the Scarf
complex provides a direct construction.  Entries of every matrix are a
scalar times the monomial forced by the row and column multidegrees.

The least eligible pair comes from a heap of eligible pairs keyed by
(level, row face, column face): it is filled once from the whole complex,
each cancellation pushes the equal-lcm entries its update creates, and a
popped pair whose entry has gone is skipped.  So the complex is built once
and never rescanned, and the work is about 2^n * n for n generators.
While the complex is minimalized its entries are Python ints: every Taylor
and Scarf entry starts as +-1, an update divides only by a pivot, and a
Fraction is made only when a pivot is not +-1.  The finished matrices hold
Fractions, as MultigradedMatrix promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import DimensionCapError, NonGenericError, NotArtinianError
from .monomials import (
    UNIT,
    Monomial,
    MonomialIdeal,
    divides,
    is_generic,
    is_primary_artinian,
    lcm,
    standard_monomials,
)

# The Taylor complex has 2^n - 1 faces, so time and memory double with each
# generator.  build_resolution of a non-generic antichain of degree-5
# monomials, Python 3.11.7 on one core of an Intel Xeon: n = 14 0.6 s and
# 36 MB peak RSS, n = 15 1.4 s / 59 MB, n = 16 2.8 s / 104 MB, n = 17 6.9 s /
# 201 MB, n = 18 11 s / 407 MB.  Past the cap a non-generic ideal is refused
# with DimensionCapError; a generic one goes to the Scarf complex.
TAYLOR_MAX_GENERATORS = 16


@dataclass
class MultigradedMatrix:
    """Sparse matrix with monomial row/column labels.

    entries maps (row, col) to a nonzero scalar; the monomial of an entry is
    always col_degree / row_degree, so only scalars are stored.
    """

    row_degrees: tuple[Monomial, ...]
    col_degrees: tuple[Monomial, ...]
    entries: dict[tuple[int, int], Fraction]
    _columns: dict[int, dict[int, Fraction]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def rows(self) -> int:
        return len(self.row_degrees)

    @property
    def cols(self) -> int:
        return len(self.col_degrees)

    def monomial_at(self, r: int, c: int) -> Monomial:
        return self.col_degrees[c].divide_by(self.row_degrees[r])

    def column(self, c: int) -> dict[int, Fraction]:
        if self._columns is None:
            cols: dict[int, dict[int, Fraction]] = {}
            for (r, cc), s in self.entries.items():
                cols.setdefault(cc, {})[r] = s
            self._columns = cols
        return self._columns.get(c, {})

    def is_minimal(self) -> bool:
        """No nonzero entry may carry the unit monomial."""
        return all(
            self.col_degrees[c] != self.row_degrees[r] for (r, c) in self.entries
        )

    def to_json(self) -> dict:
        ents = []
        for (r, c) in sorted(self.entries):
            s = self.entries[(r, c)]
            scalar = int(s) if s.denominator == 1 else str(s)
            ents.append([r, c, scalar, list(self.monomial_at(r, c))])
        return {
            "rows": self.rows,
            "cols": self.cols,
            "row_degrees": [list(d) for d in self.row_degrees],
            "col_degrees": [list(d) for d in self.col_degrees],
            "entries": ents,
        }


def compose_is_zero(left: MultigradedMatrix, right: MultigradedMatrix) -> bool:
    """Whether left * right vanishes under the scalar-times-monomial semantics.

    Any product entry at (r, c) is a multiple of the single monomial
    col_degree(c) / row_degree(r), so the check is a scalar sum per cell.
    """
    if left.col_degrees != right.row_degrees:
        raise ValueError("matrix shapes are not composable")
    sums: dict[tuple[int, int], Fraction] = {}
    for (j, c), s2 in right.entries.items():
        for r, s1 in left.column(j).items():
            key = (r, c)
            sums[key] = sums.get(key, Fraction(0)) + s1 * s2
    return all(v == 0 for v in sums.values())


@dataclass(frozen=True)
class SyzygyVector:
    """The pairwise second syzygy between generators i < j (1-based).

    The vector is (m_ij / m_j) e_j - (m_ij / m_i) e_i.
    """

    i: int
    j: int
    mono_j: Monomial
    mono_i: Monomial

    def entries_in_ideal(self, ideal: MonomialIdeal) -> bool:
        return ideal.contains(self.mono_j) and ideal.contains(self.mono_i)


def second_syzygy(ideal: MonomialIdeal, i: int, j: int) -> SyzygyVector:
    """Pairwise syzygy for 1 <= i < j <= n, with the signs as defined."""
    n = ideal.n
    if not (1 <= i < j <= n):
        raise IndexError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    mi = ideal.generators[i - 1]
    mj = ideal.generators[j - 1]
    m = lcm(mi, mj)
    return SyzygyVector(i=i, j=j, mono_j=m.divide_by(mj), mono_i=m.divide_by(mi))


class _DSU:
    def __init__(self, items):
        self.parent = {v: v for v in items}

    def find(self, v):
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def ordered_minimal_second_syzygies(ideal: MonomialIdeal) -> list[SyzygyVector]:
    """The set S2 under dictionary order on index pairs.

    A pairwise syzygy sigma_ij is minimal exactly when, in its multidegree,
    it is not a combination of syzygies of strictly smaller multidegree
    together with equal-multidegree syzygies that come later in dictionary
    order.  In a fixed multidegree each candidate reduces to a difference of
    unit vectors, so membership is a graph connectivity question.
    """
    if not is_primary_artinian(ideal):
        raise NotArtinianError("ordered syzygies require an m-primary ideal in m^2")
    gens = ideal.generators
    n = len(gens)
    pairs = list(combinations(range(n), 2))
    pair_lcm = {p: lcm(gens[p[0]], gens[p[1]]) for p in pairs}
    kept = []
    for (i, j) in pairs:
        mu = pair_lcm[(i, j)]
        vertices = [k for k in range(n) if divides(gens[k], mu)]
        dsu = _DSU(vertices)
        for (k, l) in pairs:
            m_kl = pair_lcm[(k, l)]
            if not divides(m_kl, mu):
                continue
            if m_kl != mu or (k, l) > (i, j):
                dsu.union(k, l)
        if dsu.find(i) != dsu.find(j):
            kept.append(second_syzygy(ideal, i + 1, j + 1))
    return kept


@dataclass
class Resolution:
    """The length-3 minimal free resolution 0 -> S^m -> S^{m+n-1} -> S^n -> S."""

    f1: MultigradedMatrix
    f2: MultigradedMatrix
    f3: MultigradedMatrix
    f2_faces: tuple[tuple[int, int], ...]
    f3_faces: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.f1.cols

    @property
    def m(self) -> int:
        return self.f3.cols

    @property
    def l(self) -> int:
        return self.n - 1

    @property
    def betti(self) -> tuple[int, int, int, int]:
        return (1, self.n, self.f2.cols, self.m)

    def to_json(self) -> dict:
        return {
            "betti": list(self.betti),
            "f1": self.f1.to_json(),
            "f2": self.f2.to_json(),
            "f3": self.f3.to_json(),
        }


def _taylor_minimalize(gens: tuple[Monomial, ...]):
    """Full Taylor complex followed by unit-entry cancellation.

    Cancelling a unit entry at (row face R, column face C) in the level-k
    differential deletes R and C, updates the remaining level-k entries,
    deletes row C from level k+1 and column R from level k-1; this is the
    standard splitting-off of a trivial subcomplex and preserves exactness.
    The pairs are taken from the heap described in the module docstring.

    A face is a bitmask with generator i on bit n-1-i.  Among faces of one
    size, the dictionary order of the index tuples is then the decreasing
    order of the masks, so the heap key (k, R, C) packs into one int.

    Returns (surviving faces by level, the columns of the surviving level-2
    and level-3 faces, their lcms), faces as index tuples in dictionary
    order.
    """
    n = len(gens)
    full = (1 << n) - 1
    bycol: list[dict[int, int | Fraction]] = [{} for _ in range(full + 1)]
    byrow: list[dict[int, int | Fraction]] = [{} for _ in range(full + 1)]
    lcm_of = [UNIT] * (full + 1)

    def key(k: int, r: int, c: int) -> int:
        return (k << 2 * n) | ((full ^ r) << n) | (full ^ c)

    queue = []
    for c in range(1, full + 1):
        # c & (c - 1) drops the largest generator index of the face
        m = lcm_of[c] = lcm(lcm_of[c & (c - 1)], gens[n - (c & -c).bit_length()])
        k = c.bit_count()
        col = bycol[c]
        sign = 1
        rest = c
        while rest:  # the face's generators in increasing index
            bit = 1 << (rest.bit_length() - 1)
            rest ^= bit
            r = c ^ bit
            col[r] = sign
            byrow[r][c] = sign
            if lcm_of[r] == m:
                queue.append(key(k, r, c))
            sign = -sign
    heapify(queue)

    cancelled = set()
    while queue:
        top = heappop(queue)
        k = top >> 2 * n
        r_face = full ^ ((top >> n) & full)
        c_face = full ^ (top & full)
        col_c = bycol[c_face]
        u = col_c.pop(r_face, None)
        if u is None:
            continue
        del byrow[r_face][c_face]
        unit = u == 1 or u == -1
        col_rest = list(col_c.items())
        for j, sj in byrow[r_face].items():
            f = sj * u if unit else Fraction(sj) / u
            colj = bycol[j]
            target = lcm_of[j]
            for i, si in col_rest:
                old = colj.get(i)
                new = -si * f if old is None else old - si * f
                if new == 0:
                    del colj[i]
                    del byrow[i][j]
                else:
                    colj[i] = new
                    byrow[i][j] = new
                    if old is None and lcm_of[i] == target:
                        heappush(queue, key(k, i, j))
        # detach the cancelled pair everywhere
        for j in byrow[r_face]:  # r as a row at level k
            del bycol[j][r_face]
        byrow[r_face] = {}
        for i in col_c:  # c as a column at level k
            del byrow[i][c_face]
        bycol[c_face] = {}
        for sup in byrow[c_face]:  # c as a row at level k+1
            del bycol[sup][c_face]
        byrow[c_face] = {}
        for sub in bycol[r_face]:  # r as a column at level k-1
            del byrow[sub][r_face]
        bycol[r_face] = {}
        cancelled.add(r_face)
        cancelled.add(c_face)

    def face(mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(n) if mask >> (n - 1 - i) & 1)

    survivors: dict[int, list[tuple[int, ...]]] = {}
    columns = {}
    lcms = {}
    for c in range(full, 0, -1):  # decreasing masks: dictionary order
        if c in cancelled:
            continue
        f = face(c)
        survivors.setdefault(len(f), []).append(f)
        if len(f) in (2, 3):
            columns[f] = {face(r): s for r, s in bycol[c].items()}
            lcms[f] = lcm_of[c]
    return survivors, columns, lcms


def _matrices_from_faces(
    gens, ones, twos, threes, bycol, lcm_of
) -> tuple[MultigradedMatrix, MultigradedMatrix, MultigradedMatrix]:
    one_index = {f: i for i, f in enumerate(ones)}
    two_index = {f: i for i, f in enumerate(twos)}
    f1 = MultigradedMatrix(
        row_degrees=(UNIT,),
        col_degrees=tuple(gens),
        entries={(0, i): Fraction(1) for i in range(len(gens))},
    )
    e2 = {}
    for c, face in enumerate(twos):
        for r_face, s in bycol[face].items():
            e2[(one_index[r_face], c)] = Fraction(s)
    f2 = MultigradedMatrix(
        row_degrees=tuple(gens),
        col_degrees=tuple(lcm_of[f] for f in twos),
        entries=e2,
    )
    e3 = {}
    for c, face in enumerate(threes):
        for r_face, s in bycol[face].items():
            e3[(two_index[r_face], c)] = Fraction(s)
    f3 = MultigradedMatrix(
        row_degrees=tuple(lcm_of[f] for f in twos),
        col_degrees=tuple(lcm_of[f] for f in threes),
        entries=e3,
    )
    return f1, f2, f3


def build_resolution(ideal: MonomialIdeal) -> Resolution:
    """Minimal resolution via Taylor-complex minimalization.

    The surviving level-2 faces come out in dictionary order and realize the
    ordered minimal second syzygies.
    """
    if not is_primary_artinian(ideal):
        raise NotArtinianError("resolution requires an m-primary ideal inside m^2")
    gens = ideal.generators
    n = len(gens)
    if n > TAYLOR_MAX_GENERATORS:
        raise DimensionCapError(
            f"Taylor construction is capped at {TAYLOR_MAX_GENERATORS} generators"
        )
    survivors, bycol, lcm_of = _taylor_minimalize(gens)
    for k in range(4, n + 1):
        if k in survivors:
            raise RuntimeError(
                f"minimalization left faces at level {k}: {survivors[k]}"
            )
    ones, twos, threes = (survivors.get(k, []) for k in (1, 2, 3))
    if len(ones) != n:
        raise RuntimeError("generator faces were cancelled; input was not minimal")
    f1, f2, f3 = _matrices_from_faces(gens, ones, twos, threes, bycol, lcm_of)
    return Resolution(
        f1=f1,
        f2=f2,
        f3=f3,
        f2_faces=tuple(twos),
        f3_faces=tuple(threes),
    )


def scarf_resolution(ideal: MonomialIdeal) -> Resolution:
    """Resolution supported on the Scarf complex (faces with unique lcm).

    Valid for generic ideals, where it is the minimal resolution; a face has
    a unique lcm among all faces iff no one-element enlargement or deletion
    preserves its lcm.
    """
    if not is_primary_artinian(ideal):
        raise NotArtinianError("resolution requires an m-primary ideal inside m^2")
    if not is_generic(ideal):
        raise NonGenericError("the Scarf complex resolves only generic ideals")
    gens = ideal.generators
    n = len(gens)

    def face_lcm(face):
        m = gens[face[0]]
        for idx in face[1:]:
            m = lcm(m, gens[idx])
        return m

    def is_scarf(face):
        m = face_lcm(face)
        in_face = set(face)
        for g in range(n):
            if g not in in_face and lcm(m, gens[g]) == m:
                return False
        if len(face) > 1:
            for t in range(len(face)):
                if face_lcm(face[:t] + face[t + 1 :]) == m:
                    return False
        return True

    ones = [(i,) for i in range(n)]
    twos = [f for f in combinations(range(n), 2) if is_scarf(f)]
    threes = [f for f in combinations(range(n), 3) if is_scarf(f)]
    if len(twos) != n - 1 + len(threes):
        raise NonGenericError(
            "Scarf complex is not a length-3 resolution shape; ideal is not generic"
        )
    lcm_of = {f: face_lcm(f) for f in ones + twos + threes}
    bycol = {}
    two_set = set(twos)
    for face in twos + threes:
        col = {}
        for t in range(len(face)):
            sub = face[:t] + face[t + 1 :]
            if len(sub) == 2 and sub not in two_set:
                raise NonGenericError("Scarf faces are not closed under subsets")
            col[sub] = 1 if t % 2 == 0 else -1
        bycol[face] = col
    f1, f2, f3 = _matrices_from_faces(gens, ones, twos, threes, bycol, lcm_of)
    res = Resolution(
        f1=f1, f2=f2, f3=f3, f2_faces=tuple(twos), f3_faces=tuple(threes)
    )
    if not (compose_is_zero(f1, f2) and compose_is_zero(f2, f3)):
        raise NonGenericError("Scarf boundary does not square to zero")
    return res


def resolution_for(ideal: MonomialIdeal) -> Resolution:
    """Taylor path by default; Scarf fast path for generic ideals whose
    generator count exceeds the Taylor cap."""
    if ideal.n > TAYLOR_MAX_GENERATORS and is_generic(ideal):
        return scarf_resolution(ideal)
    return build_resolution(ideal)


@dataclass(frozen=True)
class ResolutionChecks:
    d12_zero: bool
    d23_zero: bool
    minimal: bool
    euler: bool
    k_polynomial: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.d12_zero
            and self.d23_zero
            and self.minimal
            and self.euler
            and self.k_polynomial
        )

    def to_json(self) -> dict:
        return {
            "d12_zero": self.d12_zero,
            "d23_zero": self.d23_zero,
            "minimal": self.minimal,
            "euler": self.euler,
            "k_polynomial": self.k_polynomial,
            "all_ok": self.all_ok,
        }


def verify_resolution(
    res: Resolution, ideal: MonomialIdeal, dim_cap: int = 20000
) -> ResolutionChecks:
    """Audit a resolution: differentials compose to zero, minimality, the
    Euler characteristic, and the K-polynomial against the Hilbert series."""
    d12 = compose_is_zero(res.f1, res.f2)
    d23 = compose_is_zero(res.f2, res.f3)
    minimal = res.f1.is_minimal() and res.f2.is_minimal() and res.f3.is_minimal()
    euler = (
        1 - res.n + res.f2.cols - res.f3.cols == 0
        and res.f2.cols == res.n + res.f3.cols - 1
    )
    k_poly = _k_polynomial_check(res, ideal, dim_cap)
    return ResolutionChecks(d12, d23, minimal, euler, k_poly)


def _k_polynomial_check(res: Resolution, ideal: MonomialIdeal, dim_cap: int) -> bool:
    try:
        std = standard_monomials(ideal, dim_cap)
    except NotArtinianError:
        return False
    socle_top = max((m.degree() for m in std.monomials), default=0)
    degree_lists = [
        [d.degree() for d in res.f1.col_degrees],
        [d.degree() for d in res.f2.col_degrees],
        [d.degree() for d in res.f3.col_degrees],
    ]
    top = max(
        [socle_top + 3] + [d for degs in degree_lists for d in degs]
    )
    lhs = [0] * (top + 1)
    lhs[0] = 1
    for sign, degs in zip((-1, 1, -1), degree_lists):
        for d in degs:
            lhs[d] += sign
    hilb = [0] * (top + 1)
    for m in std.monomials:
        hilb[m.degree()] += 1
    cube = [1, -3, 3, -1]  # (1 - t)^3
    rhs = [0] * (top + 1)
    for i, ci in enumerate(cube):
        for j, hj in enumerate(hilb):
            if i + j <= top:
                rhs[i + j] += ci * hj
    return lhs == rhs
