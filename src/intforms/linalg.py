"""Sparse exact linear algebra over the package's field scalars.

Rows and vectors are plain dicts mapping column labels to nonzero field
elements: anything exact with +, -, *, / and truthiness, such as the
rational functions of `scalars`, the Gaussian rationals of `gaussians` or
Fractions.  Elimination keeps a reduced row-echelon
basis incrementally, so solving, ranks, and canonical representatives
modulo a row space all come from the same pivot table.

Column labels can be arbitrary hashable values; pass ``key`` when they
are not mutually comparable.  Pivot choice is the minimal column of each
row, which makes every result deterministic for a fixed insertion order.
"""

from __future__ import annotations

from .sparse import add_scaled

__all__ = ["LinearSystem"]


class LinearSystem:
    """Equations sum_c A[c]*x_c = b, with named right-hand sides.

    Each call to add() contributes one equation; rhs maps tag -> value so
    several right-hand sides share a single elimination.  Query methods
    trigger reduction lazily; adding more rows afterwards is fine.
    """

    def __init__(self, key=None):
        self._key = key
        self._pending = []
        self._pivots = {}
        self._obstructions = []

    def add(self, coeffs, rhs=None):
        coeffs = {c: v for c, v in coeffs.items() if v}
        rhs = {t: v for t, v in (rhs or {}).items() if v}
        if coeffs or rhs:
            self._pending.append((coeffs, rhs))

    def _absorb(self, coeffs, rhs):
        pivots = self._pivots
        for col in list(coeffs):
            hit = pivots.get(col)
            if hit is not None:
                factor = -coeffs.pop(col)
                add_scaled(coeffs, hit[0], factor)
                add_scaled(rhs, hit[1], factor)
        if not coeffs:
            if rhs:
                self._obstructions.append(rhs)
            return
        col = min(coeffs, key=self._key) if self._key else min(coeffs)
        lead = coeffs.pop(col)
        coeffs = {c: v / lead for c, v in coeffs.items()}
        rhs = {t: v / lead for t, v in rhs.items()}
        for pcoeffs, prhs in pivots.values():
            factor = pcoeffs.pop(col, None)
            if factor is not None:
                factor = -factor
                add_scaled(pcoeffs, coeffs, factor)
                add_scaled(prhs, rhs, factor)
        pivots[col] = (coeffs, rhs)

    def _reduce(self):
        for coeffs, rhs in self._pending:
            self._absorb(coeffs, rhs)
        self._pending = []

    def rank(self):
        self._reduce()
        return len(self._pivots)

    def pivot_columns(self):
        self._reduce()
        cols = self._pivots.keys()
        return sorted(cols, key=self._key) if self._key else sorted(cols)

    def consistent(self, tag):
        """Whether the tagged right-hand side lies in the column space."""
        self._reduce()
        return not any(tag in obs for obs in self._obstructions)

    def solve(self, tag):
        """A particular solution {col: value} with free columns at zero.

        Returns None when the tagged right-hand side is inconsistent.
        Columns absent from the result carry the value zero.
        """
        self._reduce()
        if not self.consistent(tag):
            return None
        out = {}
        for col, (_, rhs) in self._pivots.items():
            val = rhs.get(tag)
            if val:
                out[col] = val
        return out

    def reduce_mod(self, vec):
        """Canonical representative of vec modulo the row space.

        The result is supported only on non-pivot columns; two vectors are
        congruent mod the added rows iff their representatives are equal.
        """
        self._reduce()
        vec = {c: v for c, v in vec.items() if v}
        for col in list(vec):
            hit = self._pivots.get(col)
            if hit is not None:
                add_scaled(vec, hit[0], -vec.pop(col))
        return vec
