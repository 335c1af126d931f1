"""Sparse exact Gaussian elimination.

Vectors are dicts mapping sortable hashable keys to nonzero field scalars.
All pivoting is leading-position (smallest key), which keeps every
computation deterministic for a fixed insertion order.
"""

from __future__ import annotations

from .errors import InternalInvariantError


def axpy(field, vec: dict, c, row: dict) -> None:
    """In place vec -= c * row, dropping entries that become zero."""
    for k, s in row.items():
        t = field.sub(vec.get(k, field.zero), field.mul(c, s))
        if field.is_zero(t):
            vec.pop(k, None)
        else:
            vec[k] = t


class Echelon:
    """Incremental row echelon; insert() reports whether the rank grew."""

    def __init__(self, field):
        self.field = field
        self.pivots: dict = {}  # leading key -> row with that pivot normalized to 1

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        v = dict(vec)
        while v:
            k = min(v)
            row = self.pivots.get(k)
            if row is None:
                break
            axpy(self.field, v, v[k], row)
        return v

    def insert(self, vec: dict) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        k = min(v)
        inv = self.field.inv(v[k])
        self.pivots[k] = {kk: self.field.mul(inv, s) for kk, s in v.items()}
        return True

    def basis(self) -> list[dict]:
        return [self.pivots[k] for k in sorted(self.pivots)]


def kernel_basis(columns: list[dict], field) -> list[dict]:
    """Kernel of the matrix with the given sparse columns.

    Returns coefficient combinations keyed by column position, in the
    deterministic order produced by left-to-right elimination.
    """
    ech: dict = {}  # leading key -> (column residue, combination)
    kernel = []
    for idx, col in enumerate(columns):
        v = dict(col)
        combo = {idx: field.one}
        while v:
            k = min(v)
            if k not in ech:
                break
            pr, pc = ech[k]
            c = v[k]
            axpy(field, v, c, pr)
            axpy(field, combo, c, pc)
        if v:
            k = min(v)
            inv = field.inv(v[k])
            ech[k] = (
                {kk: field.mul(inv, s) for kk, s in v.items()},
                {kk: field.mul(inv, s) for kk, s in combo.items()},
            )
        else:
            kernel.append(combo)
    return kernel


class SpanWithCoords:
    """Echelon that can express vectors in terms of tagged inserted vectors.

    Untagged (seed) vectors contribute to the span but not to coordinates;
    used with boundaries as seeds and homology class representatives as
    tagged vectors, express() yields coordinates modulo the boundary span.
    """

    def __init__(self, field):
        self.field = field
        self.pivots: dict = {}  # leading key -> (row, tag coordinates of row)

    def _reduce(self, vec: dict):
        v = dict(vec)
        acc: dict = {}
        while v:
            k = min(v)
            if k not in self.pivots:
                break
            row, tags = self.pivots[k]
            c = v[k]
            axpy(self.field, v, c, row)
            for t, s in tags.items():
                u = self.field.add(acc.get(t, self.field.zero), self.field.mul(c, s))
                if self.field.is_zero(u):
                    acc.pop(t, None)
                else:
                    acc[t] = u
        return v, acc

    def _store(self, v: dict, tags: dict) -> None:
        k = min(v)
        inv = self.field.inv(v[k])
        self.pivots[k] = (
            {kk: self.field.mul(inv, s) for kk, s in v.items()},
            {kk: self.field.mul(inv, s) for kk, s in tags.items()},
        )

    def seed(self, vec: dict) -> bool:
        v, _ = self._reduce(vec)
        if not v:
            return False
        self._store(v, {})
        return True

    def add_tagged(self, vec: dict, tag) -> bool:
        v, acc = self._reduce(vec)
        if not v:
            return False
        tags = {t: self.field.neg(s) for t, s in acc.items()}
        tags[tag] = self.field.one
        self._store(v, tags)
        return True

    def express(self, vec: dict) -> dict:
        """Coordinates of vec's class over the tagged vectors.

        Requires vec to lie in the current span (seeds plus tagged).
        """
        v, acc = self._reduce(vec)
        if v:
            raise InternalInvariantError("vector is not in the span")
        return acc
