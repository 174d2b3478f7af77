"""Exact scalars: rational functions over Q in declared parameters.

Every coefficient of the presented algebras is a ScalarRF, a rational
function in the parameters of one ScalarContext.  A value is held in exactly
one of two forms:

* a Laurent polynomial -- a dict from exponent tuples (negative exponents
  allowed) to nonzero int or Fraction coefficients -- whenever its reduced
  denominator is a monomial;
* an element of sympy's fraction field ZZ(params), only for a true rational
  function, whose reduced denominator has at least two terms.

Sums, products, integer powers and division by a monomial of Laurent values
stay in the dict and never call sympy.  Division by a non-monomial and
anything involving a true rational function go through the field, and a
field result whose denominator is a monomial goes back to the dict.  So each
value has one representation, and equality is equality of canonical forms.
The matrix-algebra calculus uses sympy's Gaussian rationals QQ_I instead.
There are no floats anywhere and no tolerance knobs.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from operator import add, neg, sub

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
    ValueError.  True rational functions live in the field ZZ(params) with
    deglex monomial order, so reduced fractions have gcd-free
    numerator/denominator and a denominator whose leading coefficient is
    positive.
    """

    def __init__(self, parameters=()):
        names = tuple(parameters)
        _check_names(names)
        self.parameters = names
        self._field = _fraction_field(list(names), ZZ, grlex)[0]
        self._unit = (0,) * len(names)
        self.zero = ScalarRF(self, {})
        self.one = ScalarRF(self, {self._unit: 1})

    def parameter(self, name):
        if name not in self.parameters:
            raise KeyError(f"unknown parameter {name!r}; declared: {self.parameters}")
        exps = tuple(int(other == name) for other in self.parameters)
        return ScalarRF(self, {exps: 1})

    def from_fraction(self, value):
        return ScalarRF(self, self._constant(Fraction(value)))

    def from_int(self, value):
        return ScalarRF(self, self._constant(int(value)))

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

    def _constant(self, value):
        return {self._unit: _reduce(value)} if value else {}

    def _to_field(self, terms):
        # numerator and denominator are already reduced and hold no zeros
        poly, integer = self._field.ring.dtype, ZZ.dtype
        shift, den = denominator = _denominator(terms, self._unit)
        numer = {exps: integer(c) for exps, c in _numerator(terms, denominator)}
        return self._field.raw_new(poly(numer), poly({shift: integer(den)}))

    def _from_field(self, ex):
        # back to the dict when the reduced denominator is a monomial
        denom = ex.denom
        if len(denom) != 1:
            return ScalarRF(self, None, ex)
        ((shift, den),) = denom.items()
        den = int(den)
        return ScalarRF(
            self,
            {
                tuple(map(sub, exps, shift)): _reduce(Fraction(int(c), den))
                for exps, c in ex.numer.items()
            },
        )


class ScalarRF:
    """Reduced rational function with exact arithmetic.

    Exactly one of `_terms` and `_ex` is set.  `_terms` is the Laurent dict
    {exponent tuple: nonzero int or Fraction} when the reduced denominator
    is a monomial; otherwise `_ex` is the sympy fraction-field element.
    Constants are Laurent values and hash like the equal int or Fraction.
    """

    __slots__ = ("context", "_terms", "_ex")

    def __init__(self, context, terms, ex=None):
        self.context = context
        self._terms = terms
        self._ex = ex

    # -- arithmetic ---------------------------------------------------------

    def _operand(self, other):
        # None signals "not my type": dunders then defer via NotImplemented
        # so AlgElement and friends get their reflected chance
        if isinstance(other, ScalarRF):
            if other.context is not self.context:
                raise ValueError("scalar from a different context")
            return other
        if isinstance(other, (int, Fraction)):
            return ScalarRF(self.context, self.context._constant(other))
        return None

    def _field_value(self):
        if self._ex is not None:
            return self._ex
        return self.context._to_field(self._terms)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self._terms is not None and other._terms is not None:
            return ScalarRF(self.context, _add(self._terms, other._terms))
        return _via_field(add, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self._terms is not None and other._terms is not None:
            return ScalarRF(self.context, _add(self._terms, _neg(other._terms)))
        return _via_field(sub, self, other)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self._terms is not None and other._terms is not None:
            return ScalarRF(self.context, _add(other._terms, _neg(self._terms)))
        return _via_field(sub, other, self)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self._terms is not None and other._terms is not None:
            return ScalarRF(self.context, _mul(self._terms, other._terms))
        return _via_field(operator.mul, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _divide(self, other)

    def __rtruediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _divide(other, self)

    def __pow__(self, exponent):
        n = operator.index(exponent)  # TypeError for Fractions and floats
        if n < 0 and not self:
            raise ZeroDivisionError("negative power of zero")
        if n == 0:
            return self.context.one
        terms = self._terms
        if terms is not None and len(terms) == 1:
            ((exps, coeff),) = terms.items()
            return ScalarRF(self.context, _monomial_power(exps, coeff, n))
        if terms is not None and n > 0:
            return ScalarRF(self.context, _power(terms, n))
        # sympy's negative powers leave the denominator's sign as it falls,
        # so invert by field division, which normalises it
        base = self._field_value()
        if n < 0:
            base, n = self.context._field.one / base, -n
        return self.context._from_field(base**n)

    def __neg__(self):
        if self._terms is None:
            return ScalarRF(self.context, None, -self._ex)
        return ScalarRF(self.context, _neg(self._terms))

    def __bool__(self):
        return self._ex is not None or bool(self._terms)

    def is_zero(self):
        return not self._terms and self._ex is None

    def __eq__(self, other):
        if isinstance(other, ScalarRF):
            if self.context is not other.context:
                return False
            if self._terms is None:
                return other._terms is None and self._ex == other._ex
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == self.context._constant(other)
        return NotImplemented

    def __hash__(self):
        # constants equal ints and Fractions, so they must hash like them
        terms = self._terms
        if terms is None:
            return hash(self._ex)
        if not terms:
            return hash(0)
        if len(terms) == 1:
            ((exps, coeff),) = terms.items()
            if not any(exps):
                return hash(coeff)
        return hash(frozenset(terms.items()))

    # -- inspection ---------------------------------------------------------

    def numer_terms(self):
        """Terms of the reduced numerator as (exponent tuple, int), deglex desc."""
        return self._fraction_terms()[0]

    def denom_terms(self):
        if self._terms is None:
            return _poly_terms(self._ex.denom)
        return [_denominator(self._terms, self.context._unit)]

    def _fraction_terms(self):
        if self._terms is None:
            return _poly_terms(self._ex.numer), _poly_terms(self._ex.denom)
        denominator = _denominator(self._terms, self.context._unit)
        return _sorted_terms(_numerator(self._terms, denominator)), [denominator]

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
        if self._terms is None:
            den = _eval_terms(self._ex.denom.items(), values)
            if den == 0:
                raise PoleAtAssignment(f"denominator vanishes at {assignment!r}")
            return _eval_terms(self._ex.numer.items(), values) / den
        for exps in self._terms:
            if any(e < 0 and v == 0 for e, v in zip(exps, values)):
                raise PoleAtAssignment(f"denominator vanishes at {assignment!r}")
        return _eval_terms(self._terms.items(), values)

    def __str__(self):
        names = self.context.parameters
        num_terms, den_terms = self._fraction_terms()
        num_str = _poly_str(num_terms, names)
        if den_terms == [(self.context._unit, 1)]:
            return num_str
        den_str = _poly_str(den_terms, names)
        if len(num_terms) > 1:
            num_str = f"({num_str})"
        if not _atomic_denominator(den_terms):
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"

    def __repr__(self):
        return f"<ScalarRF {self}>"


def _via_field(op, left, right):
    return left.context._from_field(op(left._field_value(), right._field_value()))


def _divide(left, right):
    if not right:
        raise ZeroDivisionError("division by the zero rational function")
    a, b = left._terms, right._terms
    if a is not None and b is not None and len(b) == 1:
        ((exps, coeff),) = b.items()
        return ScalarRF(left.context, _mul(a, _monomial_power(exps, coeff, -1)))
    return _via_field(operator.truediv, left, right)


# -- Laurent dicts ------------------------------------------------------------
# Operands are never mutated; every result is a fresh dict without zeros.


def _reduce(value):
    # an integral Fraction becomes its int, so hot products stay on ints
    return value.numerator if value.denominator == 1 else value


def _neg(terms):
    return {exps: -coeff for exps, coeff in terms.items()}


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for exps, coeff in b.items():
        total = out.get(exps, 0) + coeff
        if total:
            out[exps] = total
        else:
            del out[exps]
    return out


def _mul(a, b):
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    if len(a) == 1:
        # a monomial times anything: exponents shift, no term cancels
        ((e, c),) = a.items()
        return {tuple(map(add, e, f)): c * d for f, d in b.items()}
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            exps = tuple(map(add, e, f))
            out[exps] = out.get(exps, 0) + c * d
    return {exps: coeff for exps, coeff in out.items() if coeff}


def _monomial_power(exps, coeff, n):
    if n < 0:
        coeff = Fraction(1, coeff) if isinstance(coeff, int) else 1 / coeff
        exps, n = tuple(-e for e in exps), -n
    return {tuple(e * n for e in exps): _reduce(coeff**n)}


def _power(terms, n):
    # square-and-multiply, n >= 1
    out = None
    while True:
        if n & 1:
            out = terms if out is None else _mul(out, terms)
        n >>= 1
        if not n:
            return out
        terms = _mul(terms, terms)


def _denominator(terms, unit):
    """Reduced denominator (exps, int > 0) of a Laurent dict.

    It is the least common denominator of the coefficients times the
    monomial that clears the negative exponents; with the numerator below,
    no integer or parameter divides both parts, as in sympy's reduced form.
    """
    low, den = unit, 1
    for exps, coeff in terms.items():
        if coeff.denominator != 1:
            den = lcm(den, coeff.denominator)
        if exps and min(exps) < 0:
            low = tuple(map(min, low, exps))
    return tuple(map(neg, low)), den


def _numerator(terms, denominator):
    # (exps, int) terms of the reduced numerator over `denominator`
    shift, den = denominator
    return [
        (tuple(map(add, exps, shift)), coeff.numerator * (den // coeff.denominator))
        for exps, coeff in terms.items()
    ]


def _sorted_terms(terms):
    # deglex descending: total degree first, ties by exponent tuple.
    terms.sort(key=_deglex, reverse=True)
    return terms


def _poly_terms(poly):
    return _sorted_terms([(exps, int(coeff)) for exps, coeff in poly.items()])


def _deglex(term):
    return sum(term[0]), term[0]


def _eval_terms(items, values):
    total = Fraction(0)
    for monom, coeff in items:
        term = Fraction(coeff)
        for value, exp in zip(values, monom):
            if exp:
                term *= value**exp
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
    return coeff == 1 and used == 1
