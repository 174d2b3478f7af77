"""Exact scalar arithmetic: rational functions in the parameters."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intforms.scalars import PoleAtAssignment, ScalarContext


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
        s = qpctx.parse(text)
        assert qpctx.parse(str(s)) == s


def test_parse_matches_constructed(qctx):
    q = qctx.parameter("q")
    assert qctx.parse("(q - q^-1)/(q^2 - q^-2)") == q / (q * q + 1)
    assert qctx.parse("q^2*(q^2+1)") == q**4 + q**2
    assert qctx.parse("2 - q") == 2 - q


def test_constants_hash_like_ints_and_fractions(qctx):
    assert qctx.from_int(3) == 3 and hash(qctx.from_int(3)) == hash(3)
    half = qctx.from_fraction(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert hash(qctx.zero) == hash(0)
    assert {qctx.from_int(-2): "found"}[Fraction(-2)] == "found"


def test_empty_context():
    ctx = ScalarContext(())
    assert ctx.parse("3/4 - 1") == ctx.from_fraction(Fraction(-1, 4))
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
    assert qpctx.parse(str(a)) == a


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_equal_scalars_hash_equally(qpctx, data):
    a = data.draw(rational_scalars(qpctx))
    b = data.draw(rational_scalars(qpctx))
    value = data.draw(st.fractions(max_denominator=12).filter(lambda f: abs(f) < 50))
    routes = [a, value, qpctx.from_fraction(value), qpctx.zero + value]
    if not b.is_zero():
        routes += [a * b / b, (qpctx.one * value) * b / b]
    if value.denominator == 1:
        routes += [int(value), qpctx.from_int(int(value))]
    for x in routes:
        for y in routes:
            if x == y:
                assert hash(x) == hash(y), (x, y)
