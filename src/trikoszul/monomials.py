"""Monomials in k[x, y, z], monomial ideals, and the staircase basis of R = S/I.

A monomial is an exponent triple.  A monomial ideal stores its minimal
generating set in a stable order: minimalization keeps the input order of the
surviving generators, which the resolution code downstream relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import DimensionCapError, IdealParseError, NotArtinianError

VAR_NAMES = ("x", "y", "z")


class Monomial(NamedTuple):
    """Exponent triple for x^ax * y^ay * z^az; (0, 0, 0) is the unit."""

    ax: int
    ay: int
    az: int

    def degree(self) -> int:
        return self.ax + self.ay + self.az

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(self.ax + other.ax, self.ay + other.ay, self.az + other.az)

    def divide_by(self, other: "Monomial") -> "Monomial":
        if not divides(other, self):
            raise ArithmeticError(f"{other} does not divide {self}")
        return Monomial(self.ax - other.ax, self.ay - other.ay, self.az - other.az)

    def is_unit(self) -> bool:
        return self.ax == 0 and self.ay == 0 and self.az == 0

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, e in enumerate(self) if e > 0)

    def pure_power_variable(self) -> int | None:
        """Index of the only variable with positive exponent, or None."""
        sup = self.support()
        return sup[0] if len(sup) == 1 else None

    def __str__(self) -> str:
        if self.is_unit():
            return "1"
        parts = []
        for name, e in zip(VAR_NAMES, self):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


UNIT = Monomial(0, 0, 0)


def lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return Monomial(max(m1.ax, m2.ax), max(m1.ay, m2.ay), max(m1.az, m2.az))


def divides(m1: Monomial, m2: Monomial) -> bool:
    return m1.ax <= m2.ax and m1.ay <= m2.ay and m1.az <= m2.az


def strictly_divides(m1: Monomial, m2: Monomial) -> bool:
    """Proper division: divides and not equal."""
    return m1 != m2 and divides(m1, m2)


def strongly_divides(m1: Monomial, m2: Monomial) -> bool:
    """m1 divides m2/v for every variable v dividing m2.

    Componentwise: wherever m2 is positive m1 is strictly smaller, and
    wherever m2 is zero so is m1.  Vacuously true when m2 is the unit.
    """
    if m2.is_unit():
        return True
    return all(e1 == 0 if e2 == 0 else e1 < e2 for e1, e2 in zip(m1, m2))


def minimal_generators(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal elements, keeping first occurrences in order."""
    out: list[Monomial] = []
    for g in monomials:
        if any(divides(h, g) for h in out):
            continue
        out = [h for h in out if not divides(g, h)]
        out.append(g)
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its ordered minimal generating set."""

    generators: tuple[Monomial, ...]

    @staticmethod
    def from_monomials(monomials: Iterable[Monomial]) -> "MonomialIdeal":
        return MonomialIdeal(minimal_generators(monomials))

    @property
    def n(self) -> int:
        return len(self.generators)

    def contains(self, m: Monomial) -> bool:
        return any(divides(g, m) for g in self.generators)

    def pure_power_exponents(self) -> tuple[int | None, int | None, int | None]:
        """Exponent of the pure power generator per variable, if present."""
        out: list[int | None] = [None, None, None]
        for g in self.generators:
            v = g.pure_power_variable()
            if v is not None:
                out[v] = g[v]
        return tuple(out)

    def __str__(self) -> str:
        return format_ideal(self)


def format_ideal(ideal: MonomialIdeal) -> str:
    return ", ".join(str(g) for g in ideal.generators)


def _parse_error(message: str, pos: int) -> IdealParseError:
    return IdealParseError(message, pos)


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse a comma-separated list of monomial terms over x, y, z.

    Grammar: ideal := term ("," term)*; term := factor ("*" factor)*;
    factor := var ("^" uint)?.  Whitespace is insignificant; repeated
    variables within a term multiply.  The result is minimalized,
    preserving input order among the survivors.
    """
    n = len(text)
    i = 0

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    def parse_factor(j: int) -> tuple[Monomial, int]:
        ch = text[j]
        if ch.isalpha():
            if ch not in VAR_NAMES:
                raise _parse_error(f"unknown variable {ch!r}", j)
        else:
            raise _parse_error(f"expected a variable, found {ch!r}", j)
        var = VAR_NAMES.index(ch)
        j = skip_ws(j + 1)
        exp = 1
        if j < n and text[j] == "^":
            j = skip_ws(j + 1)
            if j >= n or not text[j].isdigit():
                raise _parse_error("expected an exponent after '^'", j)
            start = j
            while j < n and text[j].isdigit():
                j += 1
            exp = int(text[start:j])
            j = skip_ws(j)
        exps = [0, 0, 0]
        exps[var] = exp
        return Monomial(*exps), j

    def parse_term(j: int) -> tuple[Monomial, int]:
        if j >= n:
            raise _parse_error("expected a term", j)
        mono, j = parse_factor(j)
        while j < n and text[j] == "*":
            j = skip_ws(j + 1)
            if j >= n:
                raise _parse_error("expected a factor after '*'", j)
            nxt, j = parse_factor(j)
            mono = mono.mul(nxt)
        return mono, j

    i = skip_ws(i)
    if i >= n:
        raise _parse_error("empty ideal text", i)
    terms = []
    mono, i = parse_term(i)
    terms.append(mono)
    i = skip_ws(i)
    while i < n:
        if text[i] != ",":
            raise _parse_error(f"expected ',' or '*', found {text[i]!r}", i)
        i = skip_ws(i + 1)
        mono, i = parse_term(i)
        terms.append(mono)
        i = skip_ws(i)
    return MonomialIdeal.from_monomials(terms)


def is_primary_artinian(ideal: MonomialIdeal) -> bool:
    """True iff the ideal contains a pure power of each variable and sits
    inside the square of the maximal ideal."""
    if not ideal.generators:
        return False
    if any(g.degree() < 2 for g in ideal.generators):
        return False
    return all(e is not None for e in ideal.pure_power_exponents())


def is_generic(ideal: MonomialIdeal) -> bool:
    """Whenever two generators share the same positive degree in some
    variable, a third generator must strongly divide their lcm."""
    gens = ideal.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            gi, gj = gens[i], gens[j]
            if not any(e1 == e2 > 0 for e1, e2 in zip(gi, gj)):
                continue
            m = lcm(gi, gj)
            if not any(
                k != i and k != j and strongly_divides(gens[k], m)
                for k in range(len(gens))
            ):
                return False
    return True


def is_complete_intersection(ideal: MonomialIdeal) -> bool:
    return ideal.n == 3 and all(
        g.pure_power_variable() is not None for g in ideal.generators
    )


@dataclass
class StandardBasis:
    """Monomials outside the ideal, in degree-lexicographic order
    (total degree first, then x before y before z)."""

    monomials: tuple[Monomial, ...]
    index: dict[Monomial, int]

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def __contains__(self, m: Monomial) -> bool:
        return m in self.index


def _deglex_key(m: Monomial):
    return (m.degree(), -m.ax, -m.ay)


def standard_monomials(ideal: MonomialIdeal, dim_cap: int = 20000) -> StandardBasis:
    """Enumerate the staircase basis of R = S/I; errors if not Artinian or
    if the dimension exceeds dim_cap."""
    if not is_primary_artinian(ideal):
        raise NotArtinianError(
            "standard monomial basis requires an m-primary ideal inside m^2"
        )
    a, b, c = ideal.pure_power_exponents()
    if a + b + c - 2 > dim_cap:
        raise DimensionCapError(
            f"dim_k R is at least {a + b + c - 2}, above the cap {dim_cap}"
        )
    gens = ideal.generators
    cells: list[Monomial] = []
    count = 0
    for i in range(a):
        for j in range(b):
            # cells (i, j, k) lie in I exactly for k >= k0
            k0 = min((g.az for g in gens if g.ax <= i and g.ay <= j), default=c)
            if k0 == 0:
                continue
            count += k0
            if count > dim_cap:
                raise DimensionCapError(
                    f"dim_k R exceeds the cap {dim_cap}"
                )
            for k in range(k0):
                cells.append(Monomial(i, j, k))
    cells.sort(key=_deglex_key)
    return StandardBasis(tuple(cells), {m: i for i, m in enumerate(cells)})
