"""The one accumulation kernel and vector base behind every sparse linear
combination.

Algebra elements, tensors, form coordinates, hom-form values, the sphere's
functionals (by generator slot), matrices (by row and column) and
elimination rows are all dicts from a key to a nonzero coefficient.
`add_scaled` is the loop that sums them; `SparseVector` is the group
structure built on it: `+`, `-`, negation, `==`, truth and `is_zero`,
with the coefficients held in `terms`.

A subclass declares, as class keywords, the attributes that fix its space
and its mismatch error, as in `class HomForm(SparseVector, space=("spec",
"degree"), mismatch=DegreeMismatch)`, and keeps only its products,
printing, validation and `_like(terms)`, a vector of its space holding
`terms`.  The base `_mate(other)` returns None for a foreign type, so the
operator hands over; raises the mismatch error (a `ValueError`, read by
`==` as False), its `message` naming the attribute and both values, when a
space attribute differs by `!=` (calculi and bases by identity); and
otherwise returns `other`.  Only `AlgElement` overrides it, to embed scalars.

The module stays outside the benchmark's traced layers on purpose: time
spent here, in the kernel or in an inherited operator, stays with the
layer that called it.
"""

from __future__ import annotations

from operator import attrgetter

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

    def __init_subclass__(
        cls, *, space, mismatch=ValueError, message="cannot mix {name} {0} and {1}"
    ):
        cls._space = attrgetter(*space)  # one C call per operand, no loop
        cls._space_names = space
        cls._mismatch = mismatch
        cls._message = message

    def _mate(self, other):
        if not isinstance(other, self.__class__):
            return None
        if self._space(other) != self._space(self):
            for name in self._space_names:
                mine, theirs = getattr(self, name), getattr(other, name)
                if mine != theirs:
                    raise self._mismatch(self._message.format(mine, theirs, name=name))
        return other

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
