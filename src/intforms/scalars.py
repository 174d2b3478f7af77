"""Exact scalars: rational functions over Q in declared parameters.

Every coefficient of the presented algebras is a ScalarRF, a rational
function in the parameters of one ScalarContext.  A value is held in exactly
one of two forms:

* a Laurent polynomial -- a dict from packed exponents (below) to nonzero
  int or Fraction coefficients -- whenever its reduced denominator is a
  monomial;
* a reduced fraction (numer, denom) of polynomials over Z -- dicts from
  exponent tuples without negative entries to nonzero ints -- only for a
  true rational function, whose reduced denominator has at least two terms.

A Laurent key packs the exponent tuple e into one int by Kronecker
substitution, sum(e[i] * 2**(32*i)): parameter i owns the balanced 32-bit
digit i, the unit monomial is 0, a one-parameter key is the exponent
itself, and the key of a product of monomials is the sum of their keys.
Exponents lie in [-2**30, 2**30).  Adding the bias, 2**30 in every digit,
takes an in-range digit into [0, 2**31), so the top bit of each digit is
its guard bit (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  A sum of two
in-range keys has digits in [-2**31, 2**31); one that left the range sets
its guard bit, a negative one through the borrow.  So every exponent sum
z pays the one test (z + bias) & guard, and no digit wraps into its
neighbour: a product, power, parse or fallback result with an exponent
outside the range raises ExponentOutOfRange.  Keys are unpacked into
tuples only on the way to the fraction form, for printing and for
evaluation, so everything a caller reads is in exponent tuples.  Printing
moves negative exponents into the denominator, so 1/q^(2**30) and values
whose exponents in one parameter spread over more than the range print a
power outside it, and that text does not parse back.

Sums, products, integer powers and division by a monomial of Laurent values
stay in the dict.  Division by a non-monomial and anything involving a true
rational function work on fractions, with Henrici's cross-cancelled products
and sums.  Their polynomial gcds over Z take the primitive PRS method
(Knuth, TAOCP vol. 2, 4.6.1; Brown, J. ACM 18, 1971).  A gcd with a
monomial side is a monomial times an integer gcd, and one whose images
modulo a prime are coprime is 1 times the gcd of the contents; neither
runs the PRS.  A fraction whose reduced denominator is a monomial goes back
to the dict.  Reduced is the canonical
form of sympy's fraction field ZZ(params): numerator and denominator share
no factor, integer content included, and the leading coefficient of the
denominator under grlex is positive.  So each value has one representation,
and equality is equality of canonical forms.  There are no floats anywhere
and no tolerance knobs.

The constant 1 is the context's `one` whenever it is built from an int or
a Fraction, and a product with `one` returns the other factor without
arithmetic.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub

_DIGIT = 32  # bits of packed exponent per parameter
_LIMIT = 1 << 30  # exponents lie in [-_LIMIT, _LIMIT)
_MASK = (1 << _DIGIT) - 1


class PoleAtAssignment(ArithmeticError):
    """Substitution point lies on the zero set of the (reduced) denominator."""


class ExponentOutOfRange(ValueError):
    """A Laurent exponent left [-2**30, 2**30), the range of a packed digit."""


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
    ValueError.

    The context owns the packed exponent layout: `_pack` and `_unpack`
    convert between exponent tuples and keys, `_bias` and `_guard` hold
    2**30 and 2**31 in every digit, and `_mul` is the Laurent product, which
    guard-tests every exponent sum.

    The context shares Laurent monomials: a product of two monomials is
    looked up by its packed exponents and its `_reduce`d coefficient, so
    each such value exists once per context and `x * y is x * y` for
    monomials x, y.  The key holds the reduced coefficient because
    `2 == Fraction(2)`: an unreduced key would let one stand for the other.
    Sharing is safe because no operation writes to a ScalarRF or its dict.
    """

    def __init__(self, parameters=()):
        names = tuple(parameters)
        _check_names(names)
        self.parameters = names
        self._shifts = tuple(range(0, _DIGIT * len(names), _DIGIT))
        self._bias = sum(_LIMIT << shift for shift in self._shifts)
        self._guard = self._bias << 1
        self._unit_exps = (0,) * len(names)  # the unit monomial, unpacked
        self.zero = ScalarRF(self, {})
        self.one = ScalarRF(self, {0: 1})
        self._monomials = {(0, 1): self.one}

    def parameter(self, name):
        if name not in self.parameters:
            raise KeyError(f"unknown parameter {name!r}; declared: {self.parameters}")
        return ScalarRF(self, {1 << self._shifts[self.parameters.index(name)]: 1})

    def from_fraction(self, value):
        return self._scalar(_exact(value))

    def from_int(self, value):
        return self._scalar(operator.index(value))

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

    def _scalar(self, value):
        # the constant value of an int or Fraction; 1 is `one` itself, so
        # that products with it take the short-circuit
        if value == 1:
            return self.one
        return ScalarRF(self, self._constant(value))

    def _constant(self, value):
        return {0: _reduce(value)} if value else {}

    def _pack(self, exps):
        """The key of an exponent tuple; ExponentOutOfRange off the range."""
        packed = 0
        for shift, e in zip(self._shifts, exps):
            if not -_LIMIT <= e < _LIMIT:
                raise self._out_of_range(exps)
            packed += e << shift
        return packed

    def _unpack(self, packed):
        packed += self._bias
        return tuple(((packed >> shift) & _MASK) - _LIMIT for shift in self._shifts)

    def _unpacked(self, terms):
        # the (exponent tuple, coefficient) items of a Laurent dict
        unpack = self._unpack
        return [(unpack(packed), coeff) for packed, coeff in terms.items()]

    def _out_of_range(self, exps):
        monomial = _monom_str(exps, self.parameters)
        return ExponentOutOfRange(f"{monomial} has an exponent outside [-2^30, 2^30)")

    def _overflow(self, e, f):
        # the exception for keys e, f whose sum failed the guard test
        return self._out_of_range(tuple(map(add, self._unpack(e), self._unpack(f))))

    def _monomial(self, packed, coeff):
        # the shared value coeff * params^exps, coeff a nonzero int or Fraction
        coeff = _reduce(coeff)
        key = (packed, coeff)
        value = self._monomials.get(key)
        if value is None:
            value = self._monomials[key] = ScalarRF(self, {packed: coeff})
        return value

    def _mul(self, a, b):
        """The product of two Laurent dicts, guard-testing every exponent sum."""
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return {}
        bias, guard = self._bias, self._guard
        out = {}
        if len(a) == 1:
            # a monomial times anything: exponents shift, no term cancels
            ((e, c),) = a.items()
            for f, d in b.items():
                z = e + f
                if (z + bias) & guard:
                    raise self._overflow(e, f)
                out[z] = c * d
        else:
            for e, c in a.items():
                for f, d in b.items():
                    z = e + f
                    if (z + bias) & guard:
                        raise self._overflow(e, f)
                    out[z] = out.get(z, 0) + c * d
            out = {z: coeff for z, coeff in out.items() if coeff}
        for z, coeff in out.items():
            if type(coeff) is Fraction and coeff.denominator == 1:
                out[z] = coeff.numerator
        return out

    def _monomial_power(self, packed, coeff, n):
        if n < 0:
            coeff = Fraction(1, coeff) if isinstance(coeff, int) else 1 / coeff
        exps = self._pack(tuple(e * n for e in self._unpack(packed)))
        return {exps: _reduce(coeff ** abs(n))}

    def _power(self, terms, n):
        # the n-th power of a Laurent dict, n >= 1.  Its extreme exponents
        # in each parameter are n times the operand's, so the bound is
        # checked before the first product.
        columns = list(zip(*map(self._unpack, terms)))
        self._pack(tuple(min(column) * n for column in columns))
        self._pack(tuple(max(column) * n for column in columns))
        return _power(terms, n, self._mul)

    def _from_fraction(self, numer, denom):
        # the value of a coprime fraction: back to the dict when the
        # denominator is a monomial, else with its sign normalised
        if not numer:
            return self.zero
        if len(denom) == 1:
            ((shift, den),) = denom.items()
            return ScalarRF(
                self,
                {
                    self._pack(tuple(map(sub, exps, shift))): _reduce(Fraction(c, den))
                    for exps, c in numer.items()
                },
            )
        if denom[max(denom, key=_grlex)] < 0:
            numer, denom = _neg(numer), _neg(denom)
        return ScalarRF(self, None, (numer, denom))


class ScalarRF:
    """Reduced rational function with exact arithmetic.

    Exactly one of `_terms` and `_frac` is set.  `_terms` is the Laurent
    dict {packed exponents: nonzero int or Fraction} when the reduced
    denominator is a monomial; otherwise `_frac` is the reduced pair
    (numer, denom) of {exponent tuple: nonzero int} polynomials.  The
    packed keys follow the context's layout (see the module docstring);
    `_fraction()` and `ScalarContext._from_fraction` are the only moves
    between the two exponent forms.  Constants are Laurent values and hash
    like the equal int or Fraction; other Laurent values hash their
    unpacked terms, so no hash depends on the key layout.

    A product with the context's `one` returns the other factor itself:
    `x * one is x` and `one * x is x` for every scalar x, and an int or
    Fraction factor is coerced first.
    """

    __slots__ = ("context", "_terms", "_frac")

    def __init__(self, context, terms, frac=None):
        self.context = context
        self._terms = terms
        self._frac = frac

    # -- arithmetic ---------------------------------------------------------

    def _operand(self, other):
        # None signals "not my type": dunders then defer via NotImplemented
        # so AlgElement and friends get their reflected chance
        if isinstance(other, ScalarRF):
            if other.context is not self.context:
                raise ValueError("scalar from a different context")
            return other
        if isinstance(other, (int, Fraction)):
            return self.context._scalar(other)
        return None

    def _fraction(self):
        if self._frac is not None:
            return self._frac
        # a Laurent dict over its reduced monomial denominator
        items = self.context._unpacked(self._terms)
        shift, den = denominator = _denominator(items, self.context._unit_exps)
        return dict(_numerator(items, denominator)), {shift: den}

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self._terms is not None and other._terms is not None:
            return ScalarRF(self.context, _add(self._terms, other._terms))
        return _rational(_fraction_add, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self._terms is not None and other._terms is not None:
            return ScalarRF(self.context, _add(self._terms, _neg(other._terms)))
        return _rational(_fraction_sub, self, other)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self._terms is not None and other._terms is not None:
            return ScalarRF(self.context, _add(other._terms, _neg(self._terms)))
        return _rational(_fraction_sub, other, self)

    def __mul__(self, other):
        context = self.context
        if other is context.one:
            return self
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self is context.one:
            return other
        a, b = self._terms, other._terms
        if a is not None and b is not None:
            if len(a) == 1 == len(b):
                ((e, c),) = a.items()
                ((f, d),) = b.items()
                z = e + f
                if (z + context._bias) & context._guard:
                    raise context._overflow(e, f)
                return context._monomial(z, c * d)
            return ScalarRF(context, context._mul(a, b))
        return _rational(_fraction_mul, self, other)

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
            ((packed, coeff),) = terms.items()
            return ScalarRF(self.context, self.context._monomial_power(packed, coeff, n))
        if terms is not None and n > 0:
            return ScalarRF(self.context, self.context._power(terms, n))
        # powers of a coprime pair stay coprime; inverting may flip the sign
        numer, denom = self._fraction()
        if n < 0:
            numer, denom, n = denom, numer, -n
        return self.context._from_fraction(_power(numer, n, _mul), _power(denom, n, _mul))

    def __neg__(self):
        if self._terms is None:
            numer, denom = self._frac
            return ScalarRF(self.context, None, (_neg(numer), denom))
        return ScalarRF(self.context, _neg(self._terms))

    def __bool__(self):
        return self._frac is not None or bool(self._terms)

    def is_zero(self):
        return not self._terms and self._frac is None

    def __eq__(self, other):
        if isinstance(other, ScalarRF):
            if self.context is not other.context:
                return False
            if self._terms is None:
                return other._terms is None and self._frac == other._frac
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == self.context._constant(other)
        return NotImplemented

    def __hash__(self):
        # constants equal ints and Fractions, so they must hash like them
        terms = self._terms
        if terms is None:
            numer, denom = self._frac
            return hash((frozenset(numer.items()), frozenset(denom.items())))
        if not terms:
            return hash(0)
        if len(terms) == 1:
            ((packed, coeff),) = terms.items()
            if not packed:
                return hash(coeff)
        return hash(frozenset(self.context._unpacked(terms)))

    # -- inspection ---------------------------------------------------------

    def numer_terms(self):
        """Terms of the reduced numerator as (exponent tuple, int), deglex desc."""
        return self._fraction_terms()[0]

    def denom_terms(self):
        if self._terms is None:
            return _sorted_terms(list(self._frac[1].items()))
        items = self.context._unpacked(self._terms)
        return [_denominator(items, self.context._unit_exps)]

    def _fraction_terms(self):
        if self._terms is None:
            numer, denom = self._frac
            return _sorted_terms(list(numer.items())), _sorted_terms(list(denom.items()))
        items = self.context._unpacked(self._terms)
        denominator = _denominator(items, self.context._unit_exps)
        return _sorted_terms(_numerator(items, denominator)), [denominator]

    def evaluate(self, assignment):
        """Exact value at parameter -> Fraction/int assignment.

        Substitution happens after reduction, so removable singularities are
        gone: (q - q^-1)/(q^2 - q^-2) at q=1 evaluates to 1/2.
        """
        values = []
        for name in self.context.parameters:
            if name not in assignment:
                raise KeyError(f"no value for parameter {name!r}")
            values.append(Fraction(_exact(assignment[name])))
        if self._terms is None:
            numer, denom = self._frac
            den = _eval_terms(denom.items(), values)
            if den == 0:
                raise PoleAtAssignment(f"denominator vanishes at {assignment!r}")
            return _eval_terms(numer.items(), values) / den
        items = self.context._unpacked(self._terms)
        for exps, _ in items:
            if any(e < 0 and v == 0 for e, v in zip(exps, values)):
                raise PoleAtAssignment(f"denominator vanishes at {assignment!r}")
        return _eval_terms(items, values)

    def __str__(self):
        names = self.context.parameters
        num_terms, den_terms = self._fraction_terms()
        num_str = _poly_str(num_terms, names)
        if den_terms == [(self.context._unit_exps, 1)]:
            return num_str
        den_str = _poly_str(den_terms, names)
        if len(num_terms) > 1:
            num_str = f"({num_str})"
        if not _atomic_denominator(den_terms):
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"

    def __repr__(self):
        return f"<ScalarRF {self}>"


def _rational(op, left, right):
    return left.context._from_fraction(*op(left._fraction(), right._fraction()))


def _divide(left, right):
    if not right:
        raise ZeroDivisionError("division by the zero rational function")
    a, b = left._terms, right._terms
    if a is not None and b is not None and len(b) == 1:
        # times the inverse monomial, whose key may lie one past the range
        # (the inverse of 1/q^(2^30)); differences of in-range exponents
        # still pass the guard test exactly
        context = left.context
        ((packed, coeff),) = b.items()
        return ScalarRF(context, context._mul(a, {-packed: 1 / Fraction(coeff)}))
    numer, denom = right._fraction()
    return left.context._from_fraction(*_fraction_mul(left._fraction(), (denom, numer)))


# -- Laurent dicts ------------------------------------------------------------
# Operands are never mutated; every result is a fresh dict without zeros.
# `_neg`, `_add` and `_power` serve the polynomials of the fractions too.


def _exact(value):
    # a float would be taken as its binary approximation, so only exact
    # numbers pass
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, not {type(value).__name__}")
    return value


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
        if not total:
            del out[exps]
        elif type(total) is Fraction:
            out[exps] = _reduce(total)
        else:
            out[exps] = total
    return out


def _power(terms, n, mul):
    # square-and-multiply with the product `mul`, n >= 1
    out = None
    while True:
        if n & 1:
            out = terms if out is None else mul(out, terms)
        n >>= 1
        if not n:
            return out
        terms = mul(terms, terms)


def _denominator(items, unit):
    """Reduced denominator (exps, int > 0) of Laurent (exps, coeff) items.

    It is the least common denominator of the coefficients times the
    monomial that clears the negative exponents; with the numerator below,
    no integer or parameter divides both parts.
    """
    low, den = unit, 1
    for exps, coeff in items:
        if coeff.denominator != 1:
            den = lcm(den, coeff.denominator)
        if exps and min(exps) < 0:
            low = tuple(map(min, low, exps))
    return tuple(map(neg, low)), den


def _numerator(items, denominator):
    # (exps, int) terms of the reduced numerator over `denominator`
    shift, den = denominator
    return [
        (tuple(map(add, exps, shift)), coeff.numerator * (den // coeff.denominator))
        for exps, coeff in items
    ]


# -- fractions of polynomials over Z ------------------------------------------
# A polynomial is a dict {exponent tuple without negative entries: nonzero
# int}; a fraction is a pair (numer, denom) of them, coprime including the
# integer content.  Signs are left as they fall until `_from_fraction`.


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


def _fraction_mul(a, b):
    # Henrici: cancel across, so the product of the reduced cofactors is reduced
    (n1, d1), (n2, d2) = a, b
    g1, g2 = _gcd(n1, d2), _gcd(n2, d1)
    return (
        _mul(_divexact(n1, g1), _divexact(n2, g2)),
        _mul(_divexact(d1, g2), _divexact(d2, g1)),
    )


def _fraction_add(a, b):
    # Henrici: over d1*d2/g with g = gcd(d1, d2), only g can share a factor
    # with the numerator
    (n1, d1), (n2, d2) = a, b
    g = _gcd(d1, d2)
    e1, e2 = _divexact(d1, g), _divexact(d2, g)
    numer = _add(_mul(n1, e2), _mul(n2, e1))
    h = _gcd(numer, g)
    return _divexact(numer, h), _mul(e1, _divexact(d2, h))


def _fraction_sub(a, b):
    numer, denom = b
    return _fraction_add(a, (_neg(numer), denom))


def _gcd(f, g):
    """The gcd over Z of f and g, with a positive leading coefficient."""
    if not f:
        out = g
    elif not g or f == g:
        out = f
    else:
        out = _prs_gcd(f, g, 0)
    if out and out[max(out, key=_grlex)] < 0:
        return _neg(out)
    return out


def _prs_gcd(f, g, k):
    # f and g are nonzero and hold no variable before the k-th.  As
    # polynomials in variable k over Z[later variables], gcd = gcd of the
    # contents times gcd of the primitive parts, and the latter is the last
    # nonzero pseudo-remainder of the primitive PRS, made primitive.
    if len(f) == 1 or len(g) == 1:
        return _monomial_gcd(f, g)
    a, b = _split(f, k), _split(g, k)
    content_a, content_b = _content(a, k), _content(b, k)
    content = _prs_gcd(content_a, content_b, k + 1)
    a, b = _primitive(a, content_a), _primitive(b, content_b)
    if max(a) < max(b):
        a, b = b, a
    if max(b) and _coprime_images(a, b):
        return content
    while max(b):
        r = _pseudo_remainder(a, b)
        if not r:
            return _mul(content, _join(b, k))
        a, b = b, _primitive(r, _content(r, k))
    return content  # the primitive parts are coprime


# Images modulo a prime, with every variable after the main one at a fixed
# point.  A common factor of two polynomials maps to a common factor of
# their images, of the same degree in the main variable when a leading
# coefficient stays nonzero; so coprime images settle that the primitive
# parts are coprime, and the PRS, whose pseudo-remainders swell on large
# coprime inputs, runs only where a factor may be shared.
_PRIME = 2**31 - 1
_POINTS = (1009, 2003, 3001, 4001, 5003, 6007)


def _coprime_images(a, b):
    images = []
    for coeffs in (a, b):
        image = [0] * (max(coeffs) + 1)
        for degree, poly in coeffs.items():
            image[degree] = _image(poly)
        if not image[-1]:
            return False  # the point is a zero of the leading coefficient
        images.append(image)
    f, g = images
    while len(g) > 1:
        inverse = pow(g[-1], -1, _PRIME)
        while len(f) >= len(g):
            factor = f[-1] * inverse % _PRIME
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - factor * c) % _PRIME
            while f and not f[-1]:
                f.pop()
        if not f:
            return False
        f, g = g, f
    return True


def _image(poly):
    total = 0
    for exps, coeff in poly.items():
        for point, e in zip(_POINTS, exps):
            if e:
                coeff = coeff * pow(point, e, _PRIME)
        total += coeff
    return total % _PRIME


def _monomial_gcd(f, g):
    # one side is a single term: the gcd is the monomial of the least
    # exponents times the gcd of all integer coefficients
    low, content = None, 0
    for poly in (f, g):
        for exps, coeff in poly.items():
            low = exps if low is None else tuple(map(min, low, exps))
            content = gcd(content, coeff)
    return {low: content}


def _split(f, k):
    # {degree in variable k: coefficient polynomial without variable k}
    out = {}
    for exps, coeff in f.items():
        out.setdefault(exps[k], {})[exps[:k] + (0,) + exps[k + 1 :]] = coeff
    return out


def _join(coeffs, k):
    return {
        exps[:k] + (degree,) + exps[k + 1 :]: coeff
        for degree, poly in coeffs.items()
        for exps, coeff in poly.items()
    }


def _content(coeffs, k):
    # gcd of the coefficients of a polynomial split at variable k
    polys = sorted(coeffs.values(), key=len)
    out = polys[0]
    for poly in polys[1:]:
        out = _prs_gcd(out, poly, k + 1)
    return out


def _primitive(coeffs, content):
    return {degree: _divexact(poly, content) for degree, poly in coeffs.items()}


def _pseudo_remainder(a, b):
    # the remainder of lc(b)^e * a by b in the main variable, where each
    # reduction step multiplies by lc(b) once; only its primitive part is
    # used, so the further power of lc(b) in prem proper is left out
    top = max(b)
    lead = b[top]
    rest = {degree: poly for degree, poly in b.items() if degree != top}
    r = dict(a)
    while r:
        degree = max(r)
        if degree < top:
            break
        factor = _neg(r.pop(degree))
        r = {d: _mul(poly, lead) for d, poly in r.items()}
        for d, poly in rest.items():
            d += degree - top
            total = _add(r.get(d, {}), _mul(poly, factor))
            if total:
                r[d] = total
            else:
                r.pop(d, None)
    return r


def _divexact(f, g):
    """The quotient f / g of polynomials over Z, where g divides f."""
    if len(g) == 1:
        ((shift, den),) = g.items()
        if den == 1 and not any(shift):
            return f
        return {tuple(map(sub, exps, shift)): coeff // den for exps, coeff in f.items()}
    lead = max(g, key=_grlex)
    lead_coeff = g[lead]
    quotient = {}
    while f:
        top = max(f, key=_grlex)
        coeff, remainder = divmod(f[top], lead_coeff)
        shift = tuple(map(sub, top, lead))
        if remainder or any(e < 0 for e in shift):
            raise ArithmeticError("polynomial division is not exact")
        quotient[shift] = coeff
        f = _add(f, {tuple(map(add, shift, e)): -coeff * c for e, c in g.items()})
    return quotient


def _sorted_terms(terms):
    # grlex descending: total degree first, ties by exponent tuple.
    terms.sort(key=_grlex_term, reverse=True)
    return terms


def _grlex(exps):
    return sum(exps), exps


def _grlex_term(term):
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
