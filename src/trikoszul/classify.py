"""Classification of R = S/I into the Koszul-algebra classes, with Bass
series, the canonical-module Betti oracle, family generators, and the
conjecture audit.

The classifier computes p and r twice -- structurally from the resolution
and through the Koszul homology oracle -- and checks the multidegrees of
Koszul H2 and H3 against the column degrees of f2 and f3.  It refuses to
emit a class when the two routes disagree, since a disagreement would
contradict the structure theorems and must surface loudly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import FamilyConstraintError, NonGenericError, NotArtinianError
from .fields import QQ
from .invariants import (
    bass_mu0_mu1,
    build_canonical_presentation,
    count_p_structural,
    dependent_row_count_generic,
    graded_syzygy_minimal_generators,
    presentation_minimal_generators,
    _neg,
)
from .koszul import (
    K3_DEGREE,
    build_homology_algebra,
    build_koszul_model,
    rank_a1_a2,
    rank_a1_squared,
    rank_delta2,
    truncated_exterior_check,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    format_ideal,
    is_complete_intersection,
    is_generic,
    is_primary_artinian,
    standard_monomials,
)
from .resolution import (
    Resolution,
    ordered_minimal_second_syzygies,
    resolution_for,
    scarf_resolution,
)


@dataclass(frozen=True)
class KoszulClass:
    """Class label: C3, T, B, G(r), H(p, q), or Unclassified."""

    tag: str
    p: int | None = None
    q: int | None = None
    r: int | None = None
    reason: str | None = None

    @staticmethod
    def c3() -> "KoszulClass":
        return KoszulClass("C3")

    @staticmethod
    def t() -> "KoszulClass":
        return KoszulClass("T")

    @staticmethod
    def b() -> "KoszulClass":
        return KoszulClass("B")

    @staticmethod
    def g(r: int) -> "KoszulClass":
        if r < 2:
            raise ValueError("the G label is only emitted for r >= 2")
        return KoszulClass("G", r=r)

    @staticmethod
    def h(p: int, q: int) -> "KoszulClass":
        return KoszulClass("H", p=p, q=q)

    @staticmethod
    def unclassified(reason: str) -> "KoszulClass":
        return KoszulClass("Unclassified", reason=reason)

    def display(self) -> str:
        if self.tag == "C3":
            return "C(3)"
        if self.tag == "G":
            return f"G({self.r})"
        if self.tag == "H":
            return f"H({self.p},{self.q})"
        return self.tag

    def to_json(self) -> dict:
        params: dict = {}
        if self.tag == "G":
            params["r"] = self.r
        elif self.tag == "H":
            params["p"] = self.p
            params["q"] = self.q
        elif self.tag == "Unclassified":
            params["reason"] = self.reason
        return {"tag": self.display(), "params": params}


@dataclass(frozen=True)
class RationalSeries:
    """Integer-coefficient numerator/denominator, ascending degree."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __post_init__(self):
        if not self.denominator or self.denominator[0] != 1:
            raise ValueError("denominator must have constant term 1")

    def to_json(self) -> dict:
        return {"num": list(self.numerator), "den": list(self.denominator)}


def bass_series(cls: KoszulClass, n: int, m: int) -> RationalSeries:
    """The tabulated Bass series for the class, with l = n - 1 substituted."""
    l = n - 1
    if cls.tag == "T":
        return RationalSeries((m, l, -2, -1, 1), (1, -1, -l, -(m - 3), 0, -1))
    if cls.tag == "B":
        return RationalSeries((m, l - 2, -1, 0, 1), (1, -1, -l, -(m - 1), 1))
    if cls.tag == "G":
        r = cls.r
        return RationalSeries((m, l - r, -(r - 1), -1, 1), (1, -1, -l, -n, 1))
    if cls.tag == "H":
        p, q = cls.p, cls.q
        if p == 0 and q == 0:
            return RationalSeries((m, l, 1, -1), (1, -1, -l, -m))
        return RationalSeries((m, l - q, -p, -1, 1), (1, -1, -l, -(m - p), q))
    raise ValueError(f"no Bass series is tabulated for class {cls.display()}")


def expand_series(rs: RationalSeries, terms: int) -> list[int]:
    """Coefficients mu_0..mu_terms of the power-series expansion."""
    if terms < 0:
        raise ValueError(f"the number of terms must be at least 0, got {terms}")
    num = list(rs.numerator)
    den = list(rs.denominator)
    out = []
    for k in range(terms + 1):
        v = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            v -= den[i] * out[k - i]
        out.append(v)
    return out


@dataclass(frozen=True)
class AuditRecord:
    """Per-ideal conjecture audit: pass/fail per clause, never an assertion."""

    ires_pure_power: bool
    ires_mu1: bool
    compclass_match: bool | None
    compclass_case: int | None
    f3_entries_in_ideal: tuple[tuple[int, int, str], ...]
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "ires_pure_power": self.ires_pure_power,
            "ires_mu1": self.ires_mu1,
            "compclass_match": self.compclass_match,
            "compclass_case": self.compclass_case,
            "f3_entries_in_ideal": [list(e) for e in self.f3_entries_in_ideal],
            "notes": list(self.notes),
        }


@dataclass
class InvariantReport:
    """Aggregate record for one ideal."""

    ideal: MonomialIdeal
    n: int
    m: int
    l: int
    p: int
    q: int
    r: int
    rhat: int
    generic: bool
    golod: bool
    cls: KoszulClass
    mu: list[int]
    betti: tuple[int, int, int, int]
    dim: int
    bass: RationalSeries | None = None
    audit: AuditRecord | None = None
    diagnostics: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "ideal": format_ideal(self.ideal),
            "n": self.n,
            "m": self.m,
            "l": self.l,
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "rhat": self.rhat,
            "generic": self.generic,
            "golod": self.golod,
            "class": self.cls.to_json(),
            "mu": list(self.mu),
            "bass_series": self.bass.to_json() if self.bass else None,
            "betti": list(self.betti),
            "dim": self.dim,
            "audit": self.audit.to_json() if self.audit else None,
            "diagnostics": list(self.diagnostics),
        }


def _dispatch(p: int, q: int, r: int, alg) -> tuple[KoszulClass, list[str]]:
    notes: list[str] = []
    if (p, q, r) == (3, 0, 0):
        if truncated_exterior_check(alg):
            return KoszulClass.t(), notes
        return KoszulClass.h(3, 0), notes
    if (p, q, r) == (1, 1, 2):
        return KoszulClass.b(), notes
    if p == 0 and q == 1 and r >= 2:
        notes.append(
            f"noteworthy: (0,1,{r}) lands in G({r}); no monomial examples were known"
        )
        return KoszulClass.g(r), notes
    if q == r:
        if (p, q, r) == (0, 1, 1):
            notes.append("labeling choice: (0,1,1) reported as H(0,1), not G(1)")
        return KoszulClass.h(p, q), notes
    return (
        KoszulClass.unclassified(f"(p,q,r)=({p},{q},{r}) matches no class row"),
        notes,
    )


def classify(
    ideal: MonomialIdeal,
    field=QQ,
    dim_cap: int = 20000,
    mu_terms: int = 5,
    resolution: Resolution | None = None,
    with_audit: bool = True,
    deep_audit: bool = False,
) -> InvariantReport:
    """Full pipeline: resolution, structural invariants, homology oracle,
    agreement checks, class dispatch, Bass series, and the conjecture audit.

    With deep_audit, a (3,0,0) invariant triple is double-checked through
    the canonical-module Betti oracle at depth two: the second coefficient
    must pick the same side of the T / H(3,0) split or the ideal is
    reported Unclassified."""
    if mu_terms < 0:
        raise ValueError(f"mu_terms must be at least 0, got {mu_terms}")
    if not is_primary_artinian(ideal):
        raise NotArtinianError(
            "classification requires an m-primary monomial ideal inside m^2"
        )
    std = standard_monomials(ideal, dim_cap)
    res = resolution if resolution is not None else resolution_for(ideal)
    n, m = res.n, res.m
    generic = is_generic(ideal)
    diagnostics: list[str] = []

    model = build_koszul_model(ideal, field, std=std)
    alg = build_homology_algebra(model)
    p_oracle = rank_a1_squared(alg)
    q = rank_a1_a2(alg)
    r_oracle = rank_delta2(alg)
    p_struct = count_p_structural(res, ideal)
    bass = bass_mu0_mu1(res, ideal, field, std=std)
    rhat = bass.rhat

    if alg.dims != (n, m + n - 1, m):
        diagnostics.append(
            f"homology dims {alg.dims} disagree with resolution ranks {(n, m + n - 1, m)}"
        )
    monos = model.r_basis.monomials
    for level, homology, resolved in (
        (2, alg.a2_degrees, res.f2.col_degrees),
        (3, [monos[u].mul(K3_DEGREE) for u in alg.a3], res.f3.col_degrees),
    ):
        ours, theirs = Counter(homology), Counter(resolved)
        differ = [mu for mu in ours.keys() | theirs.keys() if ours[mu] != theirs[mu]]
        if differ:
            # name the least multidegree, by total degree, then exponents
            mu = min(differ, key=lambda m: (sum(m), m))
            diagnostics.append(
                f"H{level} multidegrees disagree at {Monomial(*mu)}: {ours[mu]} "
                f"from the Koszul blocks, {theirs[mu]} columns of f{level}"
            )
    if p_struct != p_oracle:
        diagnostics.append(
            f"structural p = {p_struct} disagrees with homology rank {p_oracle}"
        )
    if rhat != r_oracle:
        diagnostics.append(
            f"dependent-row count {rhat} disagrees with rank(delta_2) = {r_oracle}"
        )
    notes: list[str] = []
    if diagnostics:
        cls = KoszulClass.unclassified("; ".join(diagnostics))
    elif is_complete_intersection(ideal):
        cls = KoszulClass.c3()
        notes.append("complete intersection: no Bass series is tabulated")
    else:
        cls, notes = _dispatch(p_oracle, q, r_oracle, alg)
        if deep_audit and cls.tag in ("T", "H") and (p_oracle, q, r_oracle) == (3, 0, 0):
            beta = canonical_betti_oracle(ideal, 2, field, dim_cap)
            delta = beta[2] - beta[1] - (n - 1) * beta[0]
            want = -2 if cls.tag == "T" else -3
            if delta != want:
                notes.append(
                    f"beta_2 oracle disagrees with the truncated-exterior split: "
                    f"delta = {delta}, class {cls.display()} demands {want}"
                )
                cls = KoszulClass.unclassified(notes[-1])
    diagnostics.extend(notes)

    series = None
    if cls.tag in ("T", "B", "G", "H"):
        series = bass_series(cls, n, m)
        mu = expand_series(series, mu_terms)
    elif cls.tag == "C3":
        mu = [m] + [0] * mu_terms
    else:
        mu = [bass.mu0, bass.mu1]
    report = InvariantReport(
        ideal=ideal,
        n=n,
        m=m,
        l=n - 1,
        p=p_oracle,
        q=q,
        r=r_oracle,
        rhat=rhat,
        generic=generic,
        golod=cls.tag == "H" and cls.p == 0 and cls.q == 0,
        cls=cls,
        mu=mu,
        betti=res.betti,
        dim=std.dim,
        bass=series,
        diagnostics=tuple(diagnostics),
    )
    if with_audit:
        report.audit = audit_conjectures(ideal, report, res)
    return report


def classify_generic(ideal: MonomialIdeal, field=QQ) -> KoszulClass:
    """Shape-based fast classification for generic ideals.

    All mixed generators of full support (and at least one of them) force
    the truncated exterior algebra; otherwise the syzygy scan decides
    between Golod and H(p, q) with q read off the pure-power row scan."""
    if not is_generic(ideal):
        raise NonGenericError("classify_generic requires a generic ideal")
    if not is_primary_artinian(ideal):
        raise NotArtinianError("classification requires an m-primary ideal in m^2")
    if is_complete_intersection(ideal):
        return KoszulClass.c3()
    mixed = [g for g in ideal.generators if g.pure_power_variable() is None]
    if mixed and all(g.ax > 0 and g.ay > 0 and g.az > 0 for g in mixed):
        return KoszulClass.t()
    syzygies = ordered_minimal_second_syzygies(ideal)
    p = sum(1 for s in syzygies if s.entries_in_ideal(ideal))
    if p == 0:
        return KoszulClass.h(0, 0)
    res = scarf_resolution(ideal)
    q = dependent_row_count_generic(res, ideal)
    return KoszulClass.h(p, q)


def canonical_betti_oracle(
    ideal: MonomialIdeal, terms: int, field=QQ, dim_cap: int = 20000
) -> list[int]:
    """Betti numbers beta_0..beta_terms of the canonical module over R,
    by iterated minimal presentation; these equal the Bass numbers of R."""
    if terms > 4:
        raise ValueError("the Betti oracle is cost-guarded at 4 terms")
    if not is_primary_artinian(ideal):
        raise NotArtinianError("the Betti oracle requires an m-primary ideal in m^2")
    res = resolution_for(ideal)
    std = standard_monomials(ideal, dim_cap)
    pres = build_canonical_presentation(res, ideal)
    out = [res.m]
    if terms == 0:
        return out
    gens = presentation_minimal_generators(pres, ideal, field, std=std)
    out.append(len(gens))
    free_degrees = [_neg(d) for d in pres.target_degrees]
    for _ in range(2, terms + 1):
        if not gens:
            out.append(0)
            continue
        nxt = graded_syzygy_minimal_generators(free_degrees, gens, std.index, field)
        out.append(len(nxt))
        free_degrees = [g[0] for g in gens]
        gens = nxt
    return out


# ---------------------------------------------------------------------------
# conjecture audit


def _compclass_predict(ideal: MonomialIdeal) -> tuple[int | None, str | None]:
    """Pattern-match the generator shapes against the conjectured cases.

    Returns (case number 1..4, None) or (None, parse failure note)."""
    gens = ideal.generators
    mixed = [g for g in gens if g.pure_power_variable() is None]
    if mixed and all(g.ax > 0 and g.ay > 0 and g.az > 0 for g in mixed):
        return 1, None
    # case 2: a chain of generators constant in one variable, strictly
    # monotone in the two others, starting and ending on the axes
    for var in range(3):
        if not mixed:
            break
        exps = [g[var] for g in mixed]
        v = min(exps)
        if v <= 0:
            continue
        alpha = [g for g in mixed if g[var] == v]
        beta = [g for g in mixed if g[var] > v]
        if len(alpha) < 2:
            continue
        others = [w for w in range(3) if w != var]
        for s, t in (others, others[::-1]):
            chain = sorted(alpha, key=lambda g: g[s])
            s_exps = [g[s] for g in chain]
            t_exps = [g[t] for g in chain]
            if s_exps[0] != 0 or t_exps[-1] != 0:
                continue
            if any(a >= b for a, b in zip(s_exps, s_exps[1:])):
                continue
            if any(a <= b for a, b in zip(t_exps, t_exps[1:])):
                continue
            return 2, None
    # case 3: two-variable generators of all three flavors
    flavors = set()
    for g in mixed:
        sup = g.support()
        if len(sup) == 2:
            flavors.add(sup)
    if flavors == {(0, 1), (0, 2), (1, 2)}:
        return 3, None
    return 4, None


def audit_conjectures(
    ideal: MonomialIdeal, report: InvariantReport, res: Resolution
) -> AuditRecord:
    """Check the two resolution conjectures on a classified ideal.

    (a) every f3 entry lying in the ideal is a pure-power generator;
    (b) mu^1 equals m+n-1 minus the count of f3 entries in the ideal;
    (c) the class predicted by the generator-shape pattern matches.
    Failures are recorded, never raised."""
    f3 = res.f3
    in_ideal = []
    for (r, t) in sorted(f3.entries):
        mono = f3.monomial_at(r, t)
        if ideal.contains(mono):
            in_ideal.append((r, t, str(mono)))
    pure_gens = {g for g in ideal.generators if g.pure_power_variable() is not None}
    names = {str(g) for g in pure_gens}
    ires_pure = all(e[2] in names for e in in_ideal)
    mu1 = report.m + report.n - 1 - report.rhat
    ires_mu1 = mu1 == report.m + report.n - 1 - len(in_ideal)
    notes: list[str] = []
    case, fail = _compclass_predict(ideal)
    if fail is not None:
        notes.append(f"compclass pattern parse failure: {fail}")
        match = None
    else:
        cls = report.cls
        if case == 1:
            match = cls.tag == "T"
        elif case == 2:
            match = cls.tag == "B"
        elif case == 3:
            if report.p == 0:
                match = cls.tag == "H" and cls.p == 0 and cls.q == 0
            else:
                # the Golod iff-clause: with p > 0 the shape falls through
                match = cls.tag == "H" and (cls.p + cls.q) >= 1
        else:
            match = cls.tag == "H" and (cls.p + cls.q) >= 1
        if cls.tag in ("C3", "Unclassified"):
            match = None
            notes.append(f"compclass audit skipped for class {cls.display()}")
    return AuditRecord(
        ires_pure_power=ires_pure,
        ires_mu1=ires_mu1,
        compclass_match=match,
        compclass_case=case,
        f3_entries_in_ideal=tuple(in_ideal),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# family generators;  written generator order follows the statements:
# pure powers first, then the mixed chain


def _require(cond: bool, inequality: str) -> None:
    if not cond:
        raise FamilyConstraintError(f"family constraint violated: {inequality}")


def family_bclass(
    a: int, b: int, c: int, cprime: int, a_list: list[int], b_list: list[int]
) -> MonomialIdeal:
    """x^a, y^b, z^c, x^{a_1}z^{c'}, x^{a_i}y^{b_i}z^{c'} ..., y^{b_rho}z^{c'}
    with the x-exponents strictly decreasing and the y-exponents strictly
    increasing; lands in class B with m = rho."""
    _require(len(a_list) == len(b_list), "len(a_list) == len(b_list)")
    _require(len(a_list) >= 1, "rho >= 2")
    rho = len(a_list) + 1
    _require(a >= 2 and b >= 2 and c >= 2, "pure power exponents >= 2")
    _require(0 < cprime < c, "0 < c' < c")
    _require(a_list[0] < a, "a_1 < a")
    _require(all(v > 0 for v in a_list), "a_i > 0")
    _require(
        all(x > y for x, y in zip(a_list, a_list[1:])), "a_i strictly decreasing"
    )
    _require(all(v > 0 for v in b_list), "b_i > 0")
    _require(
        all(x < y for x, y in zip(b_list, b_list[1:])), "b_i strictly increasing"
    )
    _require(b_list[-1] < b, "b_rho < b")
    gens = [Monomial(a, 0, 0), Monomial(0, b, 0), Monomial(0, 0, c)]
    gens.append(Monomial(a_list[0], 0, cprime))
    for i in range(1, rho - 1):
        gens.append(Monomial(a_list[i], b_list[i - 1], cprime))
    gens.append(Monomial(0, b_list[-1], cprime))
    ideal = MonomialIdeal.from_monomials(gens)
    _require(ideal.n == rho + 3, "generators form a minimal set of size rho + 3")
    return ideal


def family_tnongen(
    a: int, b: int, c: int, cprime: int, pairs: list[tuple[int, int]]
) -> MonomialIdeal:
    """x^a, y^b, z^c, x^{a_i}y^{b_i}z^{c'} with full-support mixed chain;
    lands in the truncated exterior class with m = rho + 2."""
    rho = len(pairs)
    _require(rho >= 1, "rho >= 1")
    _require(a >= 2 and b >= 2 and c >= 2, "pure power exponents >= 2")
    _require(0 < cprime < c, "0 < c' < c")
    a_list = [p[0] for p in pairs]
    b_list = [p[1] for p in pairs]
    _require(all(v > 0 for v in a_list), "a_i > 0")
    _require(all(v > 0 for v in b_list), "b_i > 0")
    _require(a_list[0] < a, "a_1 < a")
    _require(
        all(x > y for x, y in zip(a_list, a_list[1:])), "a_i strictly decreasing"
    )
    _require(
        all(x < y for x, y in zip(b_list, b_list[1:])), "b_i strictly increasing"
    )
    _require(b_list[-1] < b, "b_rho < b")
    gens = [Monomial(a, 0, 0), Monomial(0, b, 0), Monomial(0, 0, c)]
    gens += [Monomial(ai, bi, cprime) for ai, bi in pairs]
    ideal = MonomialIdeal.from_monomials(gens)
    _require(ideal.n == rho + 3, "generators form a minimal set of size rho + 3")
    return ideal


def family_staircase(
    a: int, b: int, c: int, pairs: list[tuple[int, int]]
) -> MonomialIdeal:
    """x^a, y^b, z^c, y^{b_i}z^{c_i} with b_i strictly increasing and c_i
    strictly decreasing; lands in H(n-1, n-2) with mu^1 = n-1, mu^0 = n-2."""
    rho = len(pairs)
    _require(rho >= 1, "rho >= 1")
    _require(a >= 2 and b >= 2 and c >= 2, "pure power exponents >= 2")
    b_list = [p[0] for p in pairs]
    c_list = [p[1] for p in pairs]
    _require(all(v > 0 for v in b_list), "b_i > 0")
    _require(all(v > 0 for v in c_list), "c_i > 0")
    _require(
        all(x < y for x, y in zip(b_list, b_list[1:])), "b_i strictly increasing"
    )
    _require(b_list[-1] < b, "b_rho < b")
    _require(
        all(x > y for x, y in zip(c_list, c_list[1:])), "c_i strictly decreasing"
    )
    _require(c_list[0] < c, "c_1 < c")
    gens = [Monomial(a, 0, 0), Monomial(0, b, 0), Monomial(0, 0, c)]
    gens += [Monomial(0, bi, ci) for bi, ci in pairs]
    ideal = MonomialIdeal.from_monomials(gens)
    _require(ideal.n == rho + 3, "generators form a minimal set of size rho + 3")
    return ideal
