"""Exact Gaussian rationals, the scalars of the matrix-algebra calculus.

A Gaussian is (re + im*I)/den, held as three ints with den > 0 and no
common factor of all three, so one `math.gcd` reduces every result and
equal values have equal triples.  `x` and `y` give the real and imaginary
parts as Fractions.  Only ints, Fractions and Gaussians enter: a float
would bring its binary approximation, so it raises TypeError, as does
anything else.  Values print as sympy's QQ_I does: `1/2 - 3*I/4`, `-I`,
`0`.

Like `sparse`, the module stays outside the benchmark's traced layers:
time spent here stays with the layer that called it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

__all__ = ["Gaussian", "I", "gaussian"]


class Gaussian:
    """(re + im*I)/den in lowest terms; immutable."""

    __slots__ = ("re", "im", "den")

    def __new__(cls, re=0, im=0, den=1):
        re, im, den = operator.index(re), operator.index(im), operator.index(den)
        if not den:
            raise ZeroDivisionError("Gaussian with denominator 0")
        if den < 0:
            re, im, den = -re, -im, -den
        return _reduced(re, im, den)

    @property
    def x(self):
        return Fraction(self.re, self.den)

    @property
    def y(self):
        return Fraction(self.im, self.den)

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return _reduced(self.re + other.re, self.im + other.im, self.den)
        return _reduced(
            self.re * other.den + other.re * self.den,
            self.im * other.den + other.im * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other + -self

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _reduced(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _divide(self, other)

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _divide(other, self)

    def __neg__(self):
        return _raw(-self.re, -self.im, self.den)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.den == other.den

    def __hash__(self):
        # real values equal ints and Fractions, so they hash like them
        if not self.im:
            return hash(Fraction(self.re, self.den))
        return hash((self.re, self.im, self.den))

    def __str__(self):
        real = str(self.x)
        if not self.im:
            return real
        part = abs(self.y)
        body = "I" if part.numerator == 1 else f"{part.numerator}*I"
        if part.denominator != 1:
            body = f"{body}/{part.denominator}"
        if not self.re:
            return f"-{body}" if self.im < 0 else body
        return f"{real} - {body}" if self.im < 0 else f"{real} + {body}"

    def __repr__(self):
        return f"<Gaussian {self}>"


def gaussian(value):
    """The Gaussian an int, a Fraction or a Gaussian stands for."""
    out = _operand(value)
    if out is None:
        raise TypeError(
            f"expected an int, a Fraction or a Gaussian, not {type(value).__name__}"
        )
    return out


def _operand(value):
    # None signals "not my type", so the operators hand over
    if type(value) is Gaussian:
        return value
    if isinstance(value, int):
        return _raw(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _raw(value.numerator, 0, value.denominator)
    return None


def _divide(a, b):
    # (a.re + a.im*I)/a.den times b.den/(b.re + b.im*I), the latter
    # expanded by the conjugate
    norm = b.re * b.re + b.im * b.im
    if not norm:
        raise ZeroDivisionError("division by the zero Gaussian")
    return _reduced(
        (a.re * b.re + a.im * b.im) * b.den,
        (a.im * b.re - a.re * b.im) * b.den,
        a.den * norm,
    )


def _reduced(re, im, den):
    # den > 0
    g = gcd(re, im, den)
    if g != 1:
        re, im, den = re // g, im // g, den // g
    return _raw(re, im, den)


def _raw(re, im, den):
    z = object.__new__(Gaussian)
    z.re, z.im, z.den = re, im, den
    return z


I = _raw(0, 1, 1)
