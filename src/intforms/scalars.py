"""Exact scalars: rational functions over Q in declared parameters.

Every coefficient of the presented algebras is a ScalarRF: a reduced
fraction of integer-coefficient polynomials in the parameters of one
ScalarContext.  The matrix-algebra calculus uses sympy's Gaussian
rationals QQ_I instead.  There are no floats anywhere and no tolerance
knobs: equality is equality of canonical forms.
"""
from __future__ import annotations

from fractions import Fraction

from sympy import ZZ, grlex
from sympy.polys.fields import field as _fraction_field


class PoleAtAssignment(ArithmeticError):
    """Substitution point lies on the zero set of the (reduced) denominator."""


def _check_names(names):
    seen = set()
    for name in names:
        if not name.isidentifier():
            raise ValueError(f"parameter name {name!r} is not an identifier")
        if name in seen:
            raise ValueError(f"duplicate parameter {name!r}")
        seen.add(name)


class ScalarContext:
    """A fixed tuple of commuting parameters, e.g. ("q",) or ("q", "p").

    Values from different contexts never mix; arithmetic between them raises
    ValueError.  The underlying field is ZZ(params) with deglex monomial
    order, so reduced fractions have gcd-free numerator/denominator and a
    denominator whose leading coefficient is positive.
    """

    def __init__(self, parameters=()):
        names = tuple(parameters)
        _check_names(names)
        self.parameters = names
        packed = _fraction_field(list(names), ZZ, grlex)
        self._field = packed[0]
        self._gens = {name: gen for name, gen in zip(names, packed[1:])}
        self.zero = ScalarRF(self, self._field.zero)
        self.one = ScalarRF(self, self._field.one)

    def parameter(self, name):
        if name not in self._gens:
            raise KeyError(f"unknown parameter {name!r}; declared: {self.parameters}")
        return ScalarRF(self, self._gens[name])

    def from_fraction(self, value):
        value = Fraction(value)
        return ScalarRF(self, self._field(value.numerator) / self._field(value.denominator))

    def from_int(self, value):
        return ScalarRF(self, self._field(int(value)))

    def parse(self, text):
        from .parser import parse_scalar  # grammar is shared with the frontend

        return parse_scalar(self, text)

    def coerce(self, value):
        if isinstance(value, ScalarRF):
            if value.context is not self:
                raise ValueError("scalar from a different context")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")

    def __repr__(self):
        return f"ScalarContext{self.parameters!r}"


class ScalarRF:
    """Reduced rational function with exact arithmetic.

    Thin wrapper around a sympy fraction-field element; the wrapper pins the
    canonicalization contract, the printing grammar, and Fraction evaluation.
    """

    __slots__ = ("context", "_ex")

    def __init__(self, context, ex):
        self.context = context
        self._ex = ex

    # -- arithmetic ---------------------------------------------------------

    def _with(self, other):
        # None signals "not my type": dunders then defer via NotImplemented
        # so AlgElement and friends get their reflected chance
        if isinstance(other, ScalarRF):
            if other.context is not self.context:
                raise ValueError("scalar from a different context")
            return other._ex
        if isinstance(other, (int, Fraction)):
            return self.context.coerce(other)._ex
        return None

    def __add__(self, other):
        ex = self._with(other)
        if ex is None:
            return NotImplemented
        return ScalarRF(self.context, self._ex + ex)

    __radd__ = __add__

    def __sub__(self, other):
        ex = self._with(other)
        if ex is None:
            return NotImplemented
        return ScalarRF(self.context, self._ex - ex)

    def __rsub__(self, other):
        ex = self._with(other)
        if ex is None:
            return NotImplemented
        return ScalarRF(self.context, ex - self._ex)

    def __mul__(self, other):
        ex = self._with(other)
        if ex is None:
            return NotImplemented
        return ScalarRF(self.context, self._ex * ex)

    __rmul__ = __mul__

    def __truediv__(self, other):
        divisor = self._with(other)
        if divisor is None:
            return NotImplemented
        if not divisor:
            raise ZeroDivisionError("division by the zero rational function")
        return ScalarRF(self.context, self._ex / divisor)

    def __rtruediv__(self, other):
        ex = self._with(other)
        if ex is None:
            return NotImplemented
        if not self._ex:
            raise ZeroDivisionError("division by the zero rational function")
        return ScalarRF(self.context, ex / self._ex)

    def __pow__(self, exponent):
        exponent = int(exponent)
        if exponent < 0 and not self._ex:
            raise ZeroDivisionError("negative power of zero")
        return ScalarRF(self.context, self._ex ** exponent)

    def __neg__(self):
        return ScalarRF(self.context, -self._ex)

    def __bool__(self):
        return bool(self._ex)

    def is_zero(self):
        return not self._ex

    def __eq__(self, other):
        if isinstance(other, ScalarRF):
            return self.context is other.context and self._ex == other._ex
        if isinstance(other, (int, Fraction)):
            return self._ex == self.context.coerce(other)._ex
        return NotImplemented

    def __hash__(self):
        # constants equal ints and Fractions, so they must hash like them
        num, den = self._ex.numer, self._ex.denom
        if num.is_ground and den.is_ground:
            return hash(Fraction(int(num.LC), int(den.LC)))
        return hash(self._ex)

    # -- inspection ---------------------------------------------------------

    def numer_terms(self):
        """Terms of the reduced numerator as (exponent tuple, int), deglex desc."""
        return _sorted_terms(self._ex.numer)

    def denom_terms(self):
        return _sorted_terms(self._ex.denom)

    def evaluate(self, assignment):
        """Exact value at parameter -> Fraction/int assignment.

        Substitution happens after reduction, so removable singularities are
        gone: (q - q^-1)/(q^2 - q^-2) at q=1 evaluates to 1/2.
        """
        values = []
        for name in self.context.parameters:
            if name not in assignment:
                raise KeyError(f"no value for parameter {name!r}")
            values.append(Fraction(assignment[name]))
        den = _eval_poly(self._ex.denom, values)
        if den == 0:
            raise PoleAtAssignment(f"denominator vanishes at {assignment!r}")
        return _eval_poly(self._ex.numer, values) / den

    def __str__(self):
        names = self.context.parameters
        num, den = self._ex.numer, self._ex.denom
        num_terms, den_terms = _sorted_terms(num), _sorted_terms(den)
        num_str = _poly_str(num_terms, names)
        if den == 1:
            return num_str
        den_str = _poly_str(den_terms, names)
        if len(num_terms) > 1:
            num_str = f"({num_str})"
        if not _atomic_denominator(den_terms):
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"

    def __repr__(self):
        return f"<ScalarRF {self}>"


def _sorted_terms(poly):
    # deglex descending: total degree first, ties by exponent tuple.
    return sorted(poly.terms(), key=lambda tc: (sum(tc[0]), tc[0]), reverse=True)


def _eval_poly(poly, values):
    total = Fraction(0)
    for monom, coeff in poly.terms():
        term = Fraction(int(coeff))
        for value, exp in zip(values, monom):
            if exp:
                term *= value ** exp
        total += term
    return total


def _monom_str(monom, names):
    parts = []
    for name, exp in zip(names, monom):
        if exp == 1:
            parts.append(name)
        elif exp:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)


def _poly_str(terms, names):
    if not terms:
        return "0"
    chunks = []
    for monom, coeff in terms:
        coeff = int(coeff)
        body = _monom_str(monom, names)
        mag = abs(coeff)
        if body and mag == 1:
            text = body
        elif body:
            text = f"{mag}*{body}"
        else:
            text = str(mag)
        if not chunks:
            chunks.append(f"-{text}" if coeff < 0 else text)
        else:
            chunks.append(f" - {text}" if coeff < 0 else f" + {text}")
    return "".join(chunks)


def _atomic_denominator(terms):
    # safe to print unparenthesized after '/': a plain integer, or a power of
    # a single symbol with coefficient 1
    if len(terms) != 1:
        return False
    monom, coeff = terms[0]
    used = sum(1 for e in monom if e)
    if used == 0:
        return True
    return int(coeff) == 1 and used == 1
