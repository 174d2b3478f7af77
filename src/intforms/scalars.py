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
power outside it, and that text does not parse back.  A power over 2**20
bits raises CoefficientTooLarge before it is taken: a monomial's by its
coefficient, a sum's by an estimate of its terms times their bits.

Sums, products, integer powers and division by a monomial of Laurent values
stay in the dict.  Division by a non-monomial and anything involving a true
rational function work on fractions, with Henrici's cross-cancelled products
and sums, which read the cofactors f/h, g/h beside the gcd h over Z.  A
fraction whose reduced denominator is a monomial goes back to the dict.
Reduced is the canonical form of sympy's fraction field ZZ(params):
numerator and denominator share no factor, integer content included, and
the leading coefficient of the denominator under grlex is positive.  So
each value has one representation, and equality is equality of canonical
forms.  There are no floats anywhere and no tolerance knobs.

A gcd with a single-term side is a monomial times an integer gcd; every
other runs the heuristic gcd (Char, Geddes and Gonnet, "GCDHEU",
J. Symbolic Comput. 7, 1989).  It evaluates f and g, without their common
content, at an odd integer xi in a parameter x that varies, from
2 min(|f|, |g|) + 29 on (|.| the largest coefficient), takes the gcd of the
images, by recursion over the other parameters, and reads a candidate from
its symmetric xi-adic digits.  A candidate of content 1 dividing both sides
exactly is their gcd, and the quotients are the cofactors: each answer is
certified by trial division, and a failed one moves xi on by about e.
Where one parameter varies, each side's monomial content comes out and the
rest is a dense integer list.  Each point is first held to the size bound:
images of degree * bits(xi) bits over 2**20 raise CoefficientTooLarge.  The
bound holds at every level of the recursion, and the inner points grow with
the outer images, so a sparse pair of high degree in two parameters is
refused rather than answered: (q^600 + p^600 + 1)(q + p) against
(q^600 - p^600 + 2)(q + p) has images of about 3,600 bits at q = xi, too
large for points of their gcd of degree 601 in p.

The loop stops, since the degree is at least 1 and xi grows until the bound
refuses it; before that, a large enough xi gives a certificate.  Write the
sides f = h F and g = h G with F, G coprime.  The coefficients of F and G
in the other parameters are polynomials in x that share no factor, so some
combination of them over Z[x] is a nonzero integer r; in one variable,
r = Res(F, G).  At x = xi the gcd of the images is h(xi) times
gcd(F(xi), G(xi)), up to sign.  Only finitely many xi are unlucky, where that has
positive degree (Brown, J. ACM 18, 1971): a shared factor in a parameter y
makes xi a root of a nonzero polynomial in x, a y-leading coefficient of
F or G or their resultant in y.  At any other xi it is an integer s that
divides r.  Once xi > 2 |r| |h|, the symmetric digits of s h(xi) are s
times the coefficients of h, so the candidate is h, and it divides.  The
heuristic needs few points in practice (Liao and Fateman, "Evaluation of
the heuristic polynomial GCD", ISSAC 1995).

The constant 1 is the context's `one` whenever it is built from an int or
a Fraction, and a product with `one` returns the other factor without
arithmetic.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import add, neg, sub

_DIGIT = 32  # bits of packed exponent per parameter
_LIMIT = 1 << 30  # exponents lie in [-_LIMIT, _LIMIT)
_MASK = (1 << _DIGIT) - 1
_COEFF_BITS = 1 << 20  # bound on the bits of a power


class PoleAtAssignment(ArithmeticError):
    """Substitution point lies on the zero set of the (reduced) denominator."""


class ExponentOutOfRange(ValueError):
    """A Laurent exponent left [-2**30, 2**30), the range of a packed digit."""


class CoefficientTooLarge(ValueError):
    """A power would have a coefficient, or a sum of them, over 2**20 bits."""


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
        if type(coeff) is not int:
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
        exps = self._pack(tuple(e * n for e in self._unpack(packed)))
        if coeff == 1 or coeff == -1:
            # a unit coefficient stays an int: -1 only to an odd power
            return {exps: -1 if coeff == -1 and n & 1 else 1}
        bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
        if bits * abs(n) > _COEFF_BITS:
            raise CoefficientTooLarge(f"({coeff})^{n} has a coefficient over 2^20 bits")
        if n < 0:
            coeff = Fraction(1, coeff) if isinstance(coeff, int) else 1 / coeff
        return {exps: _reduce(coeff ** abs(n))}

    def _power(self, terms, n):
        # the n-th power of a Laurent dict, n >= 1.  Its extreme exponents
        # in each parameter are n times the operand's, so the bounds are
        # checked before the first product.
        if not terms:
            return {}
        columns = list(zip(*map(self._unpack, terms)))
        self._pack(tuple(min(column) * n for column in columns))
        self._pack(tuple(max(column) * n for column in columns))
        _check_power_size(columns, terms.values(), n)
        # square-and-multiply on integers, times L, the lcm of the
        # denominators; the result is divided by L^n once
        den = lcm(*(c.denominator for c in terms.values()))
        scaled = {z: c.numerator * (den // c.denominator) for z, c in terms.items()}
        out, den = _power(scaled, n, self._mul), den**n
        return out if den == 1 else {z: _reduce(Fraction(c, den)) for z, c in out.items()}

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
        if _sign(denom) < 0:
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
        if type(other) is not ScalarRF or other.context is not context:
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
        for part in (numer, denom):
            _check_power_size(list(zip(*part)), part.values(), n)
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
        return self._fraction_terms()[1]

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


def _check_power_size(columns, coeffs, n):
    # the n-th power of t terms has at most C(n + t - 1, t - 1) terms, and
    # at most n * s + 1 exponents in a parameter whose exponents span s.
    # With L the lcm of the coefficients' denominators, each of its
    # coefficients is an integer under (L * sum |c|)^n over L^n.
    t = len(coeffs)
    den = lcm(*(c.denominator for c in coeffs))
    bits = n * (int(den * sum(map(abs, coeffs))).bit_length() + den.bit_length() - 1)
    count = min(comb(n + t - 1, t - 1), prod(n * (max(c) - min(c)) + 1 for c in columns))
    if count * bits > _COEFF_BITS:
        raise CoefficientTooLarge(f"a {t}-term sum to the {n} has over 2^20 bits")


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
    _, n1, d2 = _gcd_cofactors(n1, d2)
    _, n2, d1 = _gcd_cofactors(n2, d1)
    return _mul(n1, n2), _mul(d1, d2)


def _fraction_add(a, b):
    # Henrici: over d1*d2/g with g = gcd(d1, d2), only g can share a factor
    # with the numerator
    (n1, d1), (n2, d2) = a, b
    g, e1, e2 = _gcd_cofactors(d1, d2)
    _, numer, g = _gcd_cofactors(_add(_mul(n1, e2), _mul(n2, e1)), g)
    return numer, _mul(_mul(e1, e2), g)


def _fraction_sub(a, b):
    numer, denom = b
    return _fraction_add(a, (_neg(numer), denom))


def _gcd_cofactors(f, g):
    """(h, f/h, g/h) for the gcd h over Z of f and g, with h's leading
    coefficient under grlex positive (see the module docstring)."""
    if not f or not g or f == g:
        h = f or g
        if not h:
            return {}, {}, {}
        sign = _sign(h)
        unit = {(0,) * len(next(iter(h))): sign}
        return (h if sign > 0 else _neg(h)), (unit if f else {}), (unit if g else {})
    if len(f) == 1 or len(g) == 1:
        # the monomial of the least exponents times the content's gcd
        low, content = tuple(map(min, *f, *g)), gcd(*f.values(), *g.values())
        if content == 1 and not any(low):
            return {low: 1}, f, g
        return {low: content}, _shifted(f, low, content), _shifted(g, low, content)
    low_f, low_g = tuple(map(min, *f)), tuple(map(min, *g))
    top_f, top_g = tuple(map(max, *f)), tuple(map(max, *g))
    ends = zip(low_f, top_f, low_g, top_g)
    varying = [i for i, (a, b, c, d) in enumerate(ends) if a != b or c != d]
    i = varying[0]
    if len(varying) > 1:
        out = _heu_gcd(f, g, i, max(top_f[i], top_g[i]))
        return out if _sign(out[0]) > 0 else tuple(map(_neg, out))
    # dense lists in the one parameter i that varies, without each side's
    # monomial content; no point is below 29, so a degree past the size
    # bound is refused before the lists are built
    _check_gcd_size(max(top_f[i] - low_f[i], top_g[i] - low_g[i]), 29)
    out = _dense_gcd(_dense(f, i, low_f[i], top_f[i]), _dense(g, i, low_g[i], top_g[i]))
    low = tuple(map(min, low_f, low_g))
    shifts = (low, tuple(map(sub, low_f, low)), tuple(map(sub, low_g, low)))
    # each list times x^shift
    return tuple(
        {s[:i] + (s[i] + k,) + s[i + 1 :]: c for k, c in enumerate(part) if c}
        for part, s in zip(out, shifts)
    )


def _points(degree, norm):
    # the heuristic's points for a gcd of that degree, from the smaller
    # side's largest coefficient: odd, from 2 * norm + 29 on, growing by
    # about e.  The sequence has no end; the size bound refuses a point
    xi = 2 * norm + 29
    while True:
        _check_gcd_size(degree, xi)
        yield xi
        xi = xi * 73794 // 27011 | 1


def _dense_gcd(a, b):
    # the heuristic on coefficient lists, lowest degree first, with nonzero
    # ends: (h, a/h, b/h) with h's last entry positive
    content = gcd(*a, *b)
    if content != 1:
        a, b = [c // content for c in a], [c // content for c in b]
    norm = min(max(map(abs, a)), max(map(abs, b)))
    for xi in _points(max(len(a), len(b)) - 1, norm):
        h = _digits(gcd(_horner(a, xi), _horner(b, xi)), xi)
        divisor = gcd(*h)
        h = [c // divisor for c in h]
        u = _dense_quotient(a, h)
        v = None if u is None else _dense_quotient(b, h)
        if v is not None:
            return [c * content for c in h], u, v


def _heu_gcd(f, g, i, degree):
    # the heuristic on dicts of that degree in parameter i, through images
    # at x_i = xi, whose gcd is taken recursively: (h, f/h, g/h) with h of
    # either sign
    content = gcd(*f.values(), *g.values())
    if content != 1:
        f, g = ({e: c // content for e, c in poly.items()} for poly in (f, g))
    norm = min(max(map(abs, f.values())), max(map(abs, g.values())))
    for xi in _points(degree, norm):
        images = [{}, {}]
        for image, poly in zip(images, (f, g)):
            for e, c in poly.items():
                key = e[:i] + (0,) + e[i + 1 :]
                image[key] = image.get(key, 0) + c * xi ** e[i]
        images = [{e: c for e, c in image.items() if c} for image in images]
        h = {
            e[:i] + (k,) + e[i + 1 :]: d
            for e, c in _gcd_cofactors(*images)[0].items()
            for k, d in enumerate(_digits(c, xi))
            if d
        }
        divisor = gcd(*h.values())
        h = {e: c // divisor for e, c in h.items()}
        try:
            return {e: c * content for e, c in h.items()}, _divexact(f, h), _divexact(g, h)
        except ArithmeticError:
            pass


def _check_gcd_size(degree, xi):
    if degree * xi.bit_length() > _COEFF_BITS:
        raise CoefficientTooLarge(f"a gcd of degree {degree} has images over 2^20 bits")


def _horner(coeffs, xi):
    # a run of zeros is one power of xi; the constant term is nonzero
    value = gap = 0
    for c in reversed(coeffs):
        if c:
            value, gap = value * xi**gap + c, 0
        gap += 1
    return value


def _digits(n, xi):
    # the symmetric digits of n in the odd base xi, lowest first.  The
    # balanced residue of n modulo xi^m is its low m digits, so a long n is
    # halved first rather than losing one digit per division
    if n.bit_length() > 64 * xi.bit_length():
        m = n.bit_length() // xi.bit_length() // 2
        power = xi**m
        low = (n + power // 2) % power - power // 2
        digits = _digits(low, xi)
        return digits + [0] * (m - len(digits)) + _digits((n - low) // power, xi)
    half, out = xi // 2, []
    while n:
        out.append((n + half) % xi - half)
        n = (n - out[-1]) // xi
    return out


def _dense_quotient(a, b):
    # a / b over Z for coefficient lists, or None if b does not divide a
    m = len(b) - 1
    if len(a) <= m or not b[0] or a[0] % b[0]:
        return None
    r, lead, quotient = list(a), b[-1], []
    rest = [(j, c) for j, c in enumerate(b[:m]) if c]
    for k in range(len(a) - 1 - m, -1, -1):
        coeff, remainder = divmod(r[k + m], lead)
        if remainder:
            return None
        quotient.append(coeff)
        for j, c in rest:
            r[k + j] -= coeff * c
    return None if any(r[:m]) else quotient[::-1]


def _dense(f, i, low, top):
    # the coefficient list of f / x_i^low, in which only x_i varies
    out = [0] * (top - low + 1)
    for e, c in f.items():
        out[e[i] - low] = c
    return out


def _shifted(f, shift, den):
    # f / (den * x^shift), exact
    return {tuple(map(sub, e, shift)): c // den for e, c in f.items()}


def _divexact(f, g):
    """The quotient f / g of polynomials over Z; ArithmeticError unless g
    divides f."""
    if g == {(0,) * len(next(iter(g))): 1}:
        return f
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


def _sign(f):
    # the sign of the leading coefficient under grlex
    return 1 if f[max(f, key=_grlex)] > 0 else -1


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
