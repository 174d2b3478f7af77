"""Exact scalar arithmetic: rational functions in the parameters."""
from __future__ import annotations

import operator
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Rational, factorint, grlex, symbols
from sympy.ntheory.modular import crt
from sympy.polys.fields import field
from sympy.polys.rings import ring

from intforms import scalars
from intforms.ncalg import AlgElement
from intforms.parser import parse_scalar
from intforms.scalars import (
    CoefficientTooLarge,
    ExponentOutOfRange,
    PoleAtAssignment,
    ScalarContext,
    ScalarRF,
)

_BOUND = 2**30  # Laurent exponents lie in [-_BOUND, _BOUND)


def test_reduction_to_lowest_terms(qctx):
    q = qctx.parameter("q")
    s = (q - 1 / q) / (q * q - 1 / (q * q))
    assert s == q / (q * q + 1)
    assert str(s) == "q/(q^2 + 1)"


def test_sign_normalisation(qctx):
    q = qctx.parameter("q")
    assert (1 - q) / (q - 1) == qctx.from_int(-1)
    assert str((1 - q) / (q - 1)) == "-1"
    # denominator's leading coefficient is kept positive
    assert str(1 / (1 - q)) == "-1/(q - 1)"


def test_integer_content_cancels(qctx):
    q = qctx.parameter("q")
    assert str((2 * q) / 2) == "q"
    assert str((2 * q + 2) / 4) == "(q + 1)/2"


def test_power_rejects_non_integer_exponents(qctx):
    q = qctx.parameter("q")
    for exponent in (Fraction(1, 2), Fraction(4, 2), 2.9, 2.0):
        with pytest.raises(TypeError):
            q**exponent
    assert q ** True == q


def test_negative_power_normalises_the_denominator_sign(qctx):
    q = qctx.parameter("q")
    assert (1 - q) ** -1 == -1 / (q - 1)
    assert str((1 - q) ** -2 * (1 - q)) == "-1/(q - 1)"
    assert hash((1 - q) ** -1) == hash(1 / (1 - q))
    assert qctx.zero**0 == 1


def test_power_and_inverse(qctx):
    q = qctx.parameter("q")
    assert q**0 == qctx.one
    assert q**-3 == 1 / (q * q * q)
    assert (q + 1) ** 2 == q * q + 2 * q + 1
    with pytest.raises(ZeroDivisionError):
        qctx.zero**-1
    with pytest.raises(ZeroDivisionError):
        q / qctx.zero


def test_is_zero_and_equality(qctx):
    q = qctx.parameter("q")
    assert (q - q).is_zero()
    assert qctx.zero == 0
    assert q != 0
    assert q == qctx.parameter("q")
    assert hash(q) == hash(qctx.parameter("q"))


def test_cross_context_mixing_rejected(qctx, qpctx):
    with pytest.raises(ValueError):
        qctx.parameter("q") + qpctx.parameter("q")


def test_unknown_parameter_rejected(qctx):
    with pytest.raises(KeyError):
        qctx.parameter("p")


def test_evaluate(qctx):
    q = qctx.parameter("q")
    s = (q - 1 / q) / (q * q - 1 / (q * q))
    assert s.evaluate({"q": 1}) == Fraction(1, 2)
    assert s.evaluate({"q": Fraction(2, 3)}) == Fraction(Fraction(2, 3), Fraction(4, 9) + 1)
    with pytest.raises(PoleAtAssignment):
        (1 / (q - 1)).evaluate({"q": 1})
    with pytest.raises(KeyError):
        s.evaluate({})


def test_exact_entry_points_reject_floats(qctx):
    # Fraction(0.1) is the binary approximation and int(2.7) truncates
    q = qctx.parameter("q")
    for value in (0.1, 2.0, "1/2"):
        with pytest.raises(TypeError):
            qctx.from_fraction(value)
        with pytest.raises(TypeError):
            (q + 1).evaluate({"q": value})
    for value in (2.7, 2.0, Fraction(5, 2)):
        with pytest.raises(TypeError):
            qctx.from_int(value)
    assert qctx.from_fraction(3) == 3
    assert (q + 1).evaluate({"q": Fraction(1, 10)}) == Fraction(11, 10)


def test_evaluate_pole_masked_by_reduction(qctx):
    # (q^2-1)/(q-1) reduces to q+1, so q=1 is not a pole
    q = qctx.parameter("q")
    s = (q * q - 1) / (q - 1)
    assert s.evaluate({"q": 1}) == 2


def test_str_two_parameters(qpctx):
    q = qpctx.parameter("q")
    p = qpctx.parameter("p")
    # symbols print in declaration order, q before p
    s = p * q * q - 2 * p + q
    assert str(s) == "q^2*p + q - 2*p"
    assert str(s / (p * q)) == "(q^2*p + q - 2*p)/(q*p)"
    assert str(1 / p) == "1/p"
    assert str(-q / p) == "-q/p"


def test_parse_round_trip_examples(qpctx):
    for text in [
        "q/(q^2 + 1)",
        "-1/(q - 1)",
        "(p*q^2 + q - 2*p)/(p*q)",
        "q^-2",
        "3/4",
        "-p^3*q + 1/2",
        "(q - q^-1)/(q^2 - q^-2)",
    ]:
        s = parse_scalar(qpctx, text)
        assert parse_scalar(qpctx, str(s)) == s


def test_parse_matches_constructed(qctx):
    q = qctx.parameter("q")
    assert parse_scalar(qctx, "(q - q^-1)/(q^2 - q^-2)") == q / (q * q + 1)
    assert parse_scalar(qctx, "q^2*(q^2+1)") == q**4 + q**2
    assert parse_scalar(qctx, "2 - q") == 2 - q


def test_constants_hash_like_ints_and_fractions(qctx):
    assert qctx.from_int(3) == 3 and hash(qctx.from_int(3)) == hash(3)
    half = qctx.from_fraction(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert hash(qctx.zero) == hash(0)
    assert {qctx.from_int(-2): "found"}[Fraction(-2)] == "found"


def test_empty_context():
    ctx = ScalarContext(())
    assert parse_scalar(ctx, "3/4 - 1") == ctx.from_fraction(Fraction(-1, 4))
    assert str(ctx.from_fraction(Fraction(-1, 4))) == "-1/4"


@st.composite
def rational_scalars(draw, ctx):
    def poly(nonzero=False):
        terms = draw(
            st.lists(
                st.tuples(
                    st.integers(-4, 4), st.integers(0, 3), st.integers(0, 2)
                ),
                min_size=1 if nonzero else 0,
                max_size=4,
            )
        )
        q = ctx.parameter("q")
        p = ctx.parameter("p")
        acc = ctx.zero
        for c, a, b in terms:
            acc = acc + c * q**a * p**b
        return acc

    num = poly()
    den = poly(nonzero=True)
    assume(not den.is_zero())
    return num / den


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_field_laws_and_round_trip(qpctx, data):
    a = data.draw(rational_scalars(qpctx))
    b = data.draw(rational_scalars(qpctx))
    c = data.draw(rational_scalars(qpctx))
    assert (a + b) * c == a * c + b * c
    assert a - a == 0
    if not b.is_zero():
        assert (a / b) * b == a
    assert parse_scalar(qpctx, str(a)) == a


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_equal_scalars_hash_equally(qpctx, data):
    a = data.draw(rational_scalars(qpctx))
    b = data.draw(rational_scalars(qpctx))
    # |value| < 50 as bounds, not a filter: filtering tripped the health check
    bound = Fraction(599, 12)
    value = data.draw(st.fractions(min_value=-bound, max_value=bound, max_denominator=12))
    q, p = qpctx.parameter("q"), qpctx.parameter("p")
    rational = (q - p) / (q * p + 1)  # a true rational function
    routes = [a, value, qpctx.from_fraction(value), qpctx.zero + value, rational]
    # through the fraction field and back out of it
    routes += [a * rational / rational, (a + rational) - rational, a / rational * rational]
    routes += [(qpctx.one * value) * rational / rational, rational * q / q]
    if not b.is_zero():
        routes += [a * b / b, (qpctx.one * value) * b / b, rational * b / b]
    if value.denominator == 1:
        routes += [int(value), qpctx.from_int(int(value))]
    for x in routes:
        for y in routes:
            if x == y:
                assert hash(x) == hash(y), (x, y)


# -- representation -----------------------------------------------------------


def _is_laurent(s):
    return s._frac is None and isinstance(s._terms, dict)


def test_monomial_denominators_are_held_as_laurent_dicts(qctx, qpctx):
    q = qctx.parameter("q")
    haar = (q - q**-1) / (q**2 - q**-2)
    assert not _is_laurent(haar)
    routes = [
        haar * (q**2 + 1),
        (q**2 + 1) * haar,
        (q**2 + 1) / (1 / haar),
        haar / (1 / (q**3 + q)) / q,
    ]
    for value in routes:
        assert _is_laurent(value) and value == q and str(value) == "q"
    assert _is_laurent((q * q - 1) / (q - 1))
    assert _is_laurent(haar - haar) and (haar - haar).is_zero()
    assert _is_laurent(haar**0) and haar**0 == 1
    qp, p = qpctx.parameter("q"), qpctx.parameter("p")
    ratio = (p - 1) / (p**3 - 1)
    assert not _is_laurent(ratio)
    assert _is_laurent(ratio * (p**2 + p + 1) / (2 * qp))
    assert str(ratio * (p**2 + p + 1) / (2 * qp)) == "1/(2*q)"


def test_printing_and_poles_across_representations(qctx, qpctx):
    q = qctx.parameter("q")
    with pytest.raises(PoleAtAssignment):
        (1 / q).evaluate({"q": 0})
    with pytest.raises(PoleAtAssignment):
        (q - q**-2).evaluate({"q": 0})
    assert (q + 1).evaluate({"q": 0}) == 1
    assert str(1 / q) == "1/q"
    assert str((q**2 + 1) / (2 * q)) == "(q^2 + 1)/(2*q)"
    assert str(q / 2 + q**-1 / 2) == "(q^2 + 1)/(2*q)"
    assert str(-1 / (q - 1)) == "-1/(q - 1)"
    assert (q / 2 + q**-1 / 2).denom_terms() == [((1,), 2)]
    assert (q / 2 + q**-1 / 2).numer_terms() == [((2,), 1), ((0,), 1)]
    qp, p = qpctx.parameter("q"), qpctx.parameter("p")
    assert str(qp**2 * p + qp - 2 * p) == "q^2*p + q - 2*p"
    assert str(Fraction(3, 4) * qp**-2 * p) == "3*p/(4*q^2)"


# -- oracle: every operation agrees with sympy's fraction field ----------------

_FIELD, _Q, _P = field(["q", "p"], ZZ, grlex)
_coefficients = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
)
_monomials = st.tuples(_coefficients, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def laurent_scalars(draw, ctx, monomials=_monomials, min_size=0):
    """A sum of `monomials` built through the public API, and the same in sympy."""
    s, f = ctx.zero, _FIELD.zero
    for c, a, b in draw(st.lists(monomials, min_size=min_size, max_size=4)):
        s = s + c * ctx.parameter("q") ** a * ctx.parameter("p") ** b
        f = f + _FIELD(c.numerator) / c.denominator * _Q**a * _P**b
    return s, f


@st.composite
def paired_scalars(draw, ctx):
    """A scalar built through the public API and the same value in sympy."""

    def mixed():
        # at least two terms, and both q and p occur
        s, f = ctx.zero, _FIELD.zero
        terms = draw(st.lists(_polynomial_terms, min_size=2, max_size=3, unique_by=lambda t: t[1:]))
        assume(any(a for _, a, _ in terms) and any(b for _, _, b in terms))
        for c, a, b in terms:
            s = s + c * ctx.parameter("q") ** a * ctx.parameter("p") ** b
            f = f + c * _Q**a * _P**b
        return s, f

    shape = draw(st.sampled_from(("laurent", "quotient", "mixed")))
    s, f = draw(laurent_scalars(ctx))
    if shape == "quotient":
        d, g = draw(laurent_scalars(ctx, min_size=2))
        if g:
            s, f = s / d, f / g
    elif shape == "mixed":
        # numerator and denominator of at least two terms in both q and p,
        # often with a common factor that has to cancel
        (a, fa), (b, fb) = mixed(), mixed()
        s, f = a / b, fa / fb
        if draw(st.booleans()):
            c, fc = mixed()
            s, f = (a * c) / (b * c), (fa * fc) / (fb * fc)
    return s, f


_polynomial_terms = st.tuples(
    st.integers(-4, 4).filter(bool), st.integers(0, 2), st.integers(0, 2)
)


def _field_terms(poly):
    terms = [(exps, int(c)) for exps, c in poly.terms()]
    return sorted(terms, key=lambda tc: (sum(tc[0]), tc[0]), reverse=True)


def _int_poly(poly):
    return {exps: int(c) for exps, c in poly.items()}


def _assert_matches(s, f):
    ctx = s.context
    assert s.numer_terms() == _field_terms(f.numer)
    assert s.denom_terms() == _field_terms(f.denom)
    # printing from sympy's reduced pair gives the same text
    assert str(s) == str(ScalarRF(ctx, None, (_int_poly(f.numer), _int_poly(f.denom))))
    assert _is_laurent(s) == (len(f.denom) == 1)
    if not _is_laurent(s):
        assert s._frac == (_int_poly(f.numer), _int_poly(f.denom))
    printed = [e for terms in (s.numer_terms(), s.denom_terms()) for exps, _ in terms for e in exps]
    if all(-_BOUND <= e < _BOUND for e in printed):
        # the parser reads each printed power as a scalar, so a printed
        # exponent outside the range cannot be read back
        assert s == parse_scalar(ctx, str(s))


def _sympy_value(f, point):
    subs = {sym: Rational(v.numerator, v.denominator) for sym, v in zip(symbols("q p"), point)}
    den = f.denom.as_expr().subs(subs)
    if den == 0:
        return None
    value = f.numer.as_expr().subs(subs) / den
    return Fraction(int(value.p), int(value.q))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_operations_agree_with_the_fraction_field(qpctx, data):
    x, fx = data.draw(paired_scalars(qpctx))
    y, fy = data.draw(paired_scalars(qpctx))
    for s, f in [(x, fx), (y, fy), (-x, -fx)]:
        _assert_matches(s, f)
    for op in (operator.add, operator.sub, operator.mul):
        _assert_matches(op(x, y), op(fx, fy))
    if fy:
        _assert_matches(x / y, fx / fy)
        _assert_matches(x * y / y, fx)
    n = data.draw(st.integers(-3, 3))
    if n == 0:
        _assert_matches(x**n, _FIELD.one)
    elif n > 0:
        _assert_matches(x**n, fx**n)
    elif fx:
        # sympy's fx**n with n < 0 can leave a negative leading coefficient
        # in the denominator; its quotient is reduced and sign-normalised
        _assert_matches(x**n, (_FIELD.one / fx) ** -n)
    assert (x == y) == (fx == fy)
    if fx == fy:
        assert hash(x) == hash(y)
    if fx.denom == 1 and fx.numer.is_ground:
        constant = Fraction(int(fx.numer.LC))
        assert x == constant and hash(x) == hash(constant)
    point = data.draw(
        st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=3)] * 2)
    )
    expected = _sympy_value(fx, point)
    assignment = dict(zip(("q", "p"), point))
    if expected is None:
        with pytest.raises(PoleAtAssignment):
            x.evaluate(assignment)
    else:
        assert x.evaluate(assignment) == expected


# `_monomials` with some exponents shifted to within 4 of an end of the
# range.  Only Laurent arithmetic meets them: the fallback's gcd refuses
# degrees whose images pass its size bound, so these stay out of its way.
_edge_exponents = st.one_of(
    st.integers(-3, 3), st.integers(-_BOUND, -_BOUND + 3), st.integers(_BOUND - 4, _BOUND - 1)
)
_edge_monomials = st.tuples(_coefficients, _edge_exponents, _edge_exponents)


def _in_range(f):
    # whether the Laurent exponents of f, a value over a monomial, are in range
    ((shift, _),) = f.denom.terms()
    return all(
        -_BOUND <= e - s < _BOUND for exps in f.numer.monoms() for e, s in zip(exps, shift)
    )


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_laurent_arithmetic_near_the_exponent_bound_agrees_with_the_fraction_field(qpctx, data):
    x, fx = data.draw(laurent_scalars(qpctx, _edge_monomials))
    y, fy = data.draw(laurent_scalars(qpctx, _edge_monomials))
    n = data.draw(st.integers(1, 3))
    routes = [
        (lambda: -x, -fx),
        (lambda: x + y, fx + fy),
        (lambda: x - y, fx - fy),
        (lambda: x * y, fx * fy),
        (lambda: x**n, fx**n),
    ]
    if len(fy.numer) == 1:
        # dividing by a monomial and its negative powers stay Laurent
        routes += [(lambda: x / y, fx / fy), (lambda: y**-n, (_FIELD.one / fy) ** n)]
    for route, f in routes:
        if _in_range(f):
            _assert_matches(route(), f)
        else:
            with pytest.raises(ExponentOutOfRange):
                route()
    point = data.draw(st.tuples(*[st.sampled_from((Fraction(-1), Fraction(1)))] * 2))
    assert x.evaluate(dict(zip(("q", "p"), point))) == _sympy_value(fx, point)


def test_cancellation_into_and_out_of_the_field(qpctx):
    q, p = qpctx.parameter("q"), qpctx.parameter("p")
    a = q**2 - p**-1
    b = (q - 1) / (q + p)
    pairs = [
        ((q**2 - 1) / (q - 1), _Q + 1),
        (a * b / b, _Q**2 - 1 / _P),
        (a * b, (_Q**2 - 1 / _P) * (_Q - 1) / (_Q + _P)),
        (b * (q + p) / (q - 1), _FIELD.one),
        ((p - 1) / (p**3 - 1) * (p**2 + p + 1), _FIELD.one),
        ((q - 1 / q) / (q**2 - q**-2), _Q / (_Q**2 + 1)),
    ]
    for s, f in pairs:
        _assert_matches(s, f)


# -- the gcd against sympy's --------------------------------------------------

_RING, _RQ, _RP = ring("q,p", ZZ, grlex)


@st.composite
def integer_polynomials(draw, min_size=0):
    terms = draw(st.lists(_polynomial_terms, min_size=min_size, max_size=4))
    poly = _RING.zero
    for c, a, b in terms:
        poly += c * _RQ**a * _RP**b
    return poly


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_gcd_agrees_with_sympy(data):
    # the planted common factor is a product of one to three small polynomials
    small = integer_polynomials(min_size=1).filter(bool)
    factors = data.draw(st.lists(small, min_size=1, max_size=3))
    common = _RING.one
    for factor in factors:
        common *= factor
    f = data.draw(integer_polynomials()) * common
    g = data.draw(integer_polynomials()) * common
    assume(f or g)
    h, *cofactors = scalars._gcd_cofactors(_int_poly(f), _int_poly(g))
    # sympy's gcd carries the full integer content, with its sign taken
    # from the lex leading term; ours has a positive leading coefficient
    # under grlex, the order of the fractions' canonical form
    expected = f.gcd(g)
    assert h in (_int_poly(expected), _int_poly(-expected))
    assert h[max(h, key=lambda e: (sum(e), e))] > 0
    # h times each cofactor is its input, and the cofactors are coprime
    for x, cofactor in zip((f, g), cofactors):
        assert scalars._mul(cofactor, h) == _int_poly(x)
    assert scalars._gcd_cofactors(*cofactors)[0] == {(0, 0): 1}


def test_gcd_edge_cases():
    q2, qp = {(2, 0): 1}, {(1, 1): 1}
    assert scalars._gcd_cofactors({}, {}) == ({}, {}, {})
    line = {(1, 0): -3, (0, 0): 6}
    assert scalars._gcd_cofactors({}, line) == (scalars._neg(line), {}, {(0, 0): -1})
    assert scalars._gcd_cofactors({(2, 1): -4}, {(3, 0): 6, (1, 2): 2}) == (
        {(1, 0): 2},
        {(1, 1): -2},
        {(2, 0): 3, (0, 2): 1},
    )
    assert scalars._gcd_cofactors(q2, qp) == ({(1, 0): 1}, {(1, 0): 1}, {(0, 1): 1})
    with pytest.raises(ArithmeticError):
        scalars._divexact({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1})


# N^2 * C and D^2 * C share only C, but their primitive PRS swells: it took
# seconds where the heuristic takes a fraction of a millisecond
_N = -20 * _RQ**2 * _RP**6 + 4 * _RQ**4 + 10
_D = 30 * _RQ**2 * _RP**4 - 40 * _RP**6 - 15 * _RQ**5
_C = _RQ * _RP + 3 * _RQ**2 - _RP


_RING3, _X, _Y, _Z = ring("x,y,z", ZZ, grlex)


@pytest.mark.parametrize(
    "common, f, g",
    [
        (_C, _N**2, _D**2),
        (_X * _Y - 3 * _Z**2 + 1, (_X + _Y + _Z) ** 2, _X * _Z**3 - 2 * _Y + 5),
    ],
    ids=["swelling-pair", "three-parameters"],
)
def test_the_heuristic_settles_common_factors_without_the_prs(common, f, g):
    h, u, v = scalars._gcd_cofactors(_int_poly(f * common), _int_poly(g * common))
    assert (h, u, v) == (_int_poly(common), _int_poly(f), _int_poly(g))


def _heuristic_points(n):
    # the first n points of a gcd whose smaller side has largest coefficient 1
    xi, out = 31, []
    for _ in range(n):
        out.append(xi)
        xi = xi * 73794 // 27011 | 1
    return out


def _defeating_constant(n):
    """A c for which q + c and q^2 + q + 1 have images at each of the first
    n points with a common prime P > xi/2, so that P's xi-adic digits read
    as a candidate of positive degree, which does not divide: c = -xi mod P
    at each point, by the CRT."""
    moduli, residues = [], []
    for xi in _heuristic_points(n):
        prime = max(factorint(xi * xi + xi + 1))
        assert 2 * prime > xi
        moduli.append(prime)
        residues.append(-xi % prime)
    return int(crt(moduli, residues)[0])


@pytest.mark.parametrize("points", [6, 12])
@pytest.mark.parametrize("shape", ["univariate", "bivariate"])
def test_the_heuristic_moves_past_points_that_a_crafted_constant_defeats(
    monkeypatch, points, shape
):
    assert _heuristic_points(3) == [31, 85, 233]
    c = _defeating_constant(points)
    # the bivariate pair runs the retry of the recursive heuristic
    f = _RQ + c if shape == "univariate" else (_RQ + c) * (_RP + 1)
    g = _RQ**2 + _RQ + 1
    seen = []
    check = scalars._check_gcd_size

    def spy(degree, xi):
        seen.append(xi)
        return check(degree, xi)

    monkeypatch.setattr(scalars, "_check_gcd_size", spy)
    start = time.perf_counter()
    h, u, v = scalars._gcd_cofactors(_int_poly(f), _int_poly(g))
    assert time.perf_counter() - start < 1
    # every crafted point fails, and the next one settles the gcd; the
    # univariate path first holds the degree to the bound at xi = 29
    first = [29] if shape == "univariate" else []
    assert seen == first + _heuristic_points(points + 1)
    expected = f.gcd(g)
    assert expected == 1
    assert (h, u, v) == (_int_poly(expected), _int_poly(f), _int_poly(g))


def test_a_sparse_gcd_of_high_degree_is_exact_up_to_its_size_bound(qctx):
    q = qctx.parameter("q")
    value = 1 / (q**10_000 + 2) * (q + 3)
    assert value.numer_terms() == [((1,), 1), ((0,), 3)]
    assert value.denom_terms() == [((10_000,), 1), ((0,), 2)]
    # its images at the least point would have about 5 * 2^30 bits
    with pytest.raises(CoefficientTooLarge):
        1 / (q ** (2**30 - 1) + 2) * (q + 3)


def test_a_sparse_bivariate_gcd_of_high_degree_is_refused(qpctx):
    q, p = qpctx.parameter("q"), qpctx.parameter("p")

    def quotient(n):
        return (q**n + p**n + 1) * (q + p) / ((q**n - p**n + 2) * (q + p))

    value = quotient(300)
    assert value.numer_terms() == [((300, 0), 1), ((0, 300), 1), ((0, 0), 1)]
    assert value.denom_terms() == [((300, 0), 1), ((0, 300), -1), ((0, 0), 2)]
    # the images at q = xi have coefficients of about 3,600 bits, so the
    # points of their gcd in p are refused at the size bound
    start = time.perf_counter()
    with pytest.raises(CoefficientTooLarge, match="a gcd of degree 601 "):
        quotient(600)
    assert time.perf_counter() - start < 0.5


# -- shared Laurent monomials -------------------------------------------------


@st.composite
def monomial_pairs(draw):
    """Two Laurent monomials whose exponents may cancel and whose
    coefficients may multiply to 1 or to an integral Fraction."""
    c, a, b = draw(_monomials)
    shape = draw(st.sampled_from(("free", "inverse", "cancel", "integral")))
    if shape == "inverse":
        d, e, f = 1 / Fraction(c), -a, -b
    elif shape == "cancel":
        d, e, f = draw(_coefficients), -a, draw(st.integers(-3, 3))
    elif shape == "integral":
        # c*d is the integer k, held as a Fraction by the raw product
        d = Fraction(draw(st.integers(-4, 4).filter(bool))) / Fraction(c)
        e, f = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    else:
        d, e, f = draw(_monomials)
    return (c, a, b), (d, e, f)


def _raw_monomial(ctx, c, a, b):
    return ScalarRF(ctx, {ctx._pack((a, b)): scalars._reduce(Fraction(c))})


@given(pair=monomial_pairs())
@settings(max_examples=150, deadline=None)
def test_monomial_products_are_shared_and_canonical(qpctx, pair):
    x, y = (_raw_monomial(qpctx, *m) for m in pair)
    general = ScalarRF(qpctx, qpctx._mul(x._terms, y._terms))
    product = x * y
    assert product == general
    assert hash(product) == hash(general)
    assert str(product) == str(general)
    # the shared value holds the reduced coefficient: an int when integral
    ((_, coeff),) = product._terms.items()
    reduced = scalars._reduce(coeff)
    assert type(coeff) is type(reduced) and coeff == reduced
    assert x * y is x * y
    assert y * x is product
    if product == 1:
        assert product is qpctx.one


@given(pair=monomial_pairs(), n=st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_arithmetic_leaves_shared_monomials_unchanged(qpctx, pair, n):
    x, y = (_raw_monomial(qpctx, *m) for m in pair)
    shared = x * y
    terms, text = dict(shared._terms), str(shared)
    -shared
    shared + x
    x + shared
    shared - y
    shared**n
    shared * (x + y)
    assert shared._terms == terms and str(shared) == text
    assert x * y is shared


# -- integral coefficients stay ints ---------------------------------------------


def _ints_where_integral(value):
    return all(
        type(c) is int or c.denominator != 1 for c in value._terms.values()
    )


def test_integral_sums_and_products_hold_ints(qctx):
    q = qctx.parameter("q")
    half = q / 2
    for value in (
        (half + 1) * 2,  # monomial times polynomial
        half + half,  # sum
        3 * half - half,  # difference
        (q / 3 + Fraction(1, 3)) * (3 * q + 3),  # polynomial times polynomial
    ):
        assert _ints_where_integral(value), value._terms
    assert ((half + 1) * 2)._terms == {qctx._pack((1,)): 1, qctx._pack((0,)): 2}


_laurent = st.dictionaries(
    st.tuples(st.integers(-2, 2)),
    st.fractions(max_denominator=4).filter(bool).map(scalars._reduce),
    min_size=1,
    max_size=3,
)


@given(a=_laurent, b=_laurent)
@settings(max_examples=150, deadline=None)
def test_laurent_arithmetic_reduces_integral_fractions(qctx, a, b):
    x, y = (ScalarRF(qctx, {qctx._pack(e): c for e, c in t.items()}) for t in (a, b))
    for value in (x * y, x + y, x - y):
        assert _ints_where_integral(value), value._terms


# -- the exponent bound -----------------------------------------------------------

_TOP, _BOTTOM = _BOUND - 1, -_BOUND


def _other(qpctx, name):
    return qpctx.parameter("p" if name == "q" else "q")


@pytest.mark.parametrize("name", ["q", "p"])
def test_products_reach_both_ends_of_the_exponent_range(qpctx, name):
    x, y = qpctx.parameter(name), _other(qpctx, name)
    assert str(x ** (_TOP - 1) * x) == f"{name}^{_TOP}"
    assert str(x ** (_BOTTOM + 1) * x**-1) == f"1/{name}^{_BOUND}"
    assert str(x ** (_BOTTOM + 1) / x) == f"1/{name}^{_BOUND}"
    # the inverse of x^-2^30 is out of range, but these quotients are not
    assert x**-1 / x**_BOTTOM == x**_TOP and x**_BOTTOM / x**_BOTTOM == 1
    assert (x + y) * x ** (_TOP - 1) == x**_TOP + y * x ** (_TOP - 1)
    assert (x ** (_TOP - 1) + y) * (x + 1) == x**_TOP + x ** (_TOP - 1) + y * x + y
    assert (x ** (_BOTTOM + 1) + y) * (x**-1 + 1) == (
        x**_BOTTOM + x ** (_BOTTOM + 1) + y * x**-1 + y
    )
    both = x**_TOP * y**_BOTTOM
    assert str(both) == f"{name}^{_TOP}/{y}^{_BOUND}"
    assert (both * x**-1 * y).numer_terms() == [((_TOP - 1, 0) if name == "q" else (0, _TOP - 1), 1)]


@pytest.mark.parametrize("name", ["q", "p"])
def test_products_past_the_exponent_range_raise(qpctx, name):
    x, y = qpctx.parameter(name), _other(qpctx, name)
    top, bottom = x**_TOP, x**_BOTTOM
    routes = [
        lambda: top * x,  # monomial times monomial
        lambda: (top * y**-5) * x,  # the other digit negative
        lambda: (top * y**_BOTTOM) * x,
        lambda: bottom * x**-1,
        lambda: (bottom * y**_TOP) * x**-1,
        lambda: bottom / x,  # division by a monomial
        lambda: top * (x + 1),  # monomial times polynomial
        lambda: (x**-1 + y) * bottom,
        lambda: (top + y) * (x + 1),  # polynomial times polynomial
        lambda: (bottom + y) * (x**-1 + 1),
    ]
    for route in routes:
        with pytest.raises(ExponentOutOfRange):
            route()


def test_powers_parsing_and_the_fallback_check_the_bound(qpctx):
    q, p = qpctx.parameter("q"), qpctx.parameter("p")
    assert parse_scalar(qpctx, "q^-1073741824") == q**_BOTTOM
    assert str(parse_scalar(qpctx, "p^1073741823")) == f"p^{_TOP}"
    assert (q ** (2**29 - 1) + p) ** 2 == q ** (2**30 - 2) + 2 * q ** (2**29 - 1) * p + p**2
    routes = [
        lambda: q**_BOUND,
        lambda: p ** (_BOTTOM - 1),
        lambda: (2 * q**-2) ** (2**29 + 1),
        lambda: (q**_BOTTOM) ** -1,
        lambda: 1 / p**_BOTTOM,
        # the bound is checked before the first product of a power
        lambda: (q ** (2**29) + p) ** 2,
        lambda: (p ** -(2**29) + q) ** 3,
        lambda: parse_scalar(qpctx, "q^1073741824"),
        lambda: parse_scalar(qpctx, "p^-1073741825"),
        # a fraction that returns to the dict with a shifted exponent
        lambda: q**_TOP / (q + 1) * (q**2 + q),
        lambda: q**_BOTTOM / (p + 1) * ((p + 1) / q),
    ]
    for route in routes:
        with pytest.raises(ExponentOutOfRange):
            route()


def test_keys_pack_the_exponent_tuples(qctx, qpctx):
    assert qctx._pack((5,)) == 5 and qctx.one._terms == {0: 1}
    for exps in [(0, 0), (3, -2), (_TOP, _BOTTOM), (_BOTTOM, _TOP), (-1, -1)]:
        assert qpctx._unpack(qpctx._pack(exps)) == exps
    for exps in [(_BOUND, 0), (0, _BOTTOM - 1)]:
        with pytest.raises(ExponentOutOfRange, match=r"outside \[-2\^30, 2\^30\)"):
            qpctx._pack(exps)


def test_powers_over_2_to_the_20_bits_are_refused(qctx):
    q = qctx.parameter("q")
    # a monomial: the bits of its coefficient times |n|, 2 * 2^19 = 2^20
    assert (2 * q) ** (2**19) == 2 ** (2**19) * q ** (2**19)
    assert (2 * q) ** -(2**19) == q ** -(2**19) / 2 ** (2**19)
    for n in (2**19 + 1, -(2**19) - 1):
        with pytest.raises(CoefficientTooLarge, match=r"over 2\^20 bits"):
            (2 * q) ** n
    # a sum: (q + 2)^n has n + 1 terms of at most 2n bits each (3^n < 4^n),
    # so the estimate 2n(n + 1) passes 2^20 between n = 723 and 724
    big = (q + 2) ** 723
    assert len(big.numer_terms()) == 724 and big.evaluate({"q": 1}) == 3**723
    for n in (724, -724, 100_000):
        with pytest.raises(CoefficientTooLarge, match=r"over 2\^20 bits"):
            (q + 2) ** n
    # a fraction, each part on its own: the denominator of
    # ((q + 1)/(q^2 + 3))^n has n + 1 terms of 3n bits, 3n(n + 1) > 2^20 from 591
    ratio = (q + 1) / (q**2 + 3)
    assert (ratio**590).evaluate({"q": 1}) == Fraction(1, 2**590)
    for n in (591, -591):
        with pytest.raises(CoefficientTooLarge, match=r"over 2\^20 bits"):
            ratio**n


def test_powers_of_sums_with_fraction_coefficients(qpctx):
    q, p = qpctx.parameter("q"), qpctx.parameter("p")
    fq, fp = _FIELD(_Q), _FIELD(_P)
    cases = [
        (q / 3 + 1, fq / 3 + 1, 7),
        (q / 3 + p / 5 + 1, fq / 3 + fp / 5 + 1, 6),
        (
            Fraction(-2, 3) / q + Fraction(5, 4) * p**2 - q * p / 6,
            -2 / (3 * fq) + 5 * fp**2 / 4 - fq * fp / 6,
            5,
        ),
        (q / 2 + Fraction(3, 2), fq / 2 + _FIELD(3) / 2, 4),  # integral terms appear
        (q / 3 + 2 * p, fq / 3 + 2 * fp, 1),
    ]
    for s, f, n in cases:
        _assert_matches(s**n, f**n)
    # one division by 3^500 at the end instead of a Fraction per term product
    start = time.perf_counter()
    big = (q / 3 + 1) ** 500
    assert time.perf_counter() - start < 0.3
    assert big.evaluate({"q": 3, "p": 1}) == 2**500


# -- products with one ----------------------------------------------------------


def test_products_with_one_return_the_other_factor(qpctx):
    q, p = qpctx.parameter("q"), qpctx.parameter("p")
    one = qpctx.one
    for x in (q + p**-1, 3 * q**2 / p, (q - p) / (q * p + 1), qpctx.zero, one):
        assert x * one is x and one * x is x
    assert qpctx.coerce(1) is one
    assert qpctx.from_int(1) is one and qpctx.from_fraction(Fraction(1)) is one
    assert one * 3 == 3 and Fraction(1, 2) * one == Fraction(1, 2)
    assert q * 1 == q and 1 * q == q


def test_one_times_an_algebra_element_defers_to_the_element(qplane):
    x = qplane.gen("x")
    product = qplane.context.one * x
    assert isinstance(product, AlgElement) and product == x


# -- powers of monomials --------------------------------------------------------


@pytest.mark.parametrize("name", ["q", "p"])
def test_monomial_powers_match_repeated_products(qpctx, name):
    x = qpctx.parameter(name)
    for coeff in (1, -1, 2, Fraction(-1, 3)):
        m = coeff * x**3 * _other(qpctx, name) ** -1
        for n in range(-5, 6):
            want = qpctx.one
            for _ in range(abs(n)):
                want = want * m
            if n < 0:
                want = 1 / want
            got = m**n
            assert got == want, (coeff, n)
            ((c,),) = [got._terms.values()]
            if coeff in (1, -1):
                assert type(c) is int and c == coeff ** (n % 2)


@pytest.mark.parametrize("coeff", [1, -1])
def test_unit_monomial_powers_check_the_bound(qpctx, coeff):
    q, p = qpctx.parameter("q"), qpctx.parameter("p")
    assert str((coeff * q * p**-1) ** _TOP) == f"{'-' if coeff < 0 else ''}q^{_TOP}/p^{_TOP}"
    routes = [
        lambda: (coeff * q) ** _BOUND,
        lambda: (coeff * p**-1) ** (_BOUND + 1),
        lambda: (coeff * q**2) ** -(2**29 + 1),
    ]
    for route in routes:
        with pytest.raises(ExponentOutOfRange):
            route()
