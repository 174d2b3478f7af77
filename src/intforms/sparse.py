"""The one accumulation kernel and vector base behind every sparse linear
combination.

Algebra elements, tensors, form coordinates, hom-form values, the sphere's
functionals (by generator slot), matrices (by row and column) and
elimination rows are all dicts from a key to a nonzero coefficient.
`add_scaled` is the loop that sums them; `SparseVector` is the group
structure built on it: `+`, `-`, negation, `==`, truth and `is_zero`,
with the coefficients held in `terms`.

A subclass supplies two hooks and keeps only what differs: its products,
printing and validation.

- `_mate(other)` returns `other` as a vector of the same space (embedding
  scalars where the class allows it), or None for a foreign type, so
  the operator hands over to the other operand.  When `other` is of the
  class but lives in another space, it raises the class's own error, a
  `ValueError`; `==` reads that as False.
- `_like(terms)` builds a vector of the same space holding `terms`.

The module stays outside the benchmark's traced layers on purpose: time
spent here, in the kernel or in an inherited operator, stays with the
layer that called it.
"""

from __future__ import annotations

__all__ = ["SparseVector", "add_scaled"]


def add_scaled(target, source, factor=None):
    """target += factor * source in place, dropping entries that cancel.

    The factor multiplies each value of source from the left; without a
    factor the values are added as they are, with no product.  Only target
    is written, so source may be a shared or memoised dict, but target must
    be a dict the caller owns.  Returns target.
    """
    for key, value in source.items():
        if factor is not None:
            value = factor * value
        have = target.get(key)
        if have is not None:
            value = have + value
        if value:
            target[key] = value
        elif have is not None:
            del target[key]
    return target


class SparseVector:
    """A finite linear combination: `terms` maps keys to nonzero values."""

    __slots__ = ("terms",)
    __hash__ = None

    def __add__(self, other):
        other = self._mate(other)
        if other is None:
            return NotImplemented
        return self._like(add_scaled(dict(self.terms), other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._mate(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._mate(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __eq__(self, other):
        try:
            other = self._mate(other)
        except ValueError:
            return False  # another space
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def _scaled(self, coeff):
        """coeff times each value, coeff on the left; coeff is already coerced."""
        if not coeff:
            return self._like({})
        return self._like({k: coeff * c for k, c in self.terms.items()})
