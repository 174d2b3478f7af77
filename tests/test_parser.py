"""Literal grammar: scalars, elements, tensors, form expressions, ladder
rules, and the sectioned presentation-file reader."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intforms import descent
from intforms.descent import sphere_fixtures
from intforms.ncalg import Presentation, ReductionBudgetExceeded, TensorElement
from intforms.parser import (
    ParseError,
    parse_element,
    parse_form_terms,
    parse_ladder_rhs,
    parse_presentation_file,
    parse_scalar,
    parse_tensor,
)
from intforms.scalars import CoefficientTooLarge, ExponentOutOfRange


def test_scalar_errors_carry_position(qctx):
    with pytest.raises(ParseError) as err:
        parse_scalar(qctx, "q + $")
    assert err.value.line == 1
    assert err.value.col == 5
    with pytest.raises(ParseError) as err:
        parse_scalar(qctx, "q +")
    assert err.value.col == 4
    with pytest.raises(ParseError):
        parse_scalar(qctx, "q * beta")
    with pytest.raises(ParseError):
        parse_scalar(qctx, "q q")


def test_scalar_grammar(qctx):
    q = qctx.parameter("q")
    assert parse_scalar(qctx, "-q^2 + 1") == 1 - q * q
    assert parse_scalar(qctx, "q^-2") == 1 / (q * q)
    assert parse_scalar(qctx, "(q + 1)*(q - 1)") == q * q - 1
    assert parse_scalar(qctx, "1/2/2") == parse_scalar(qctx, "1/4")


def test_element_grammar(sl2):
    q = sl2.context.parameter("q")
    a, b, c, d = (sl2.gen(g) for g in ("alpha", "beta", "gamma", "delta"))
    assert parse_element(sl2, "alpha*delta") == sl2.one + q * (b * c)
    assert parse_element(sl2, "beta^2*gamma - q^-1*beta") == b * b * c - (1 / q) * b
    assert parse_element(sl2, "2 - q") == sl2.scalar(2 - q)
    assert parse_element(sl2, "(q + 1)*gamma") == (1 + q) * c
    assert parse_element(sl2, "beta^0") == sl2.one
    assert parse_element(sl2, "-delta*alpha") == -(d * a)


def test_element_errors(sl2):
    with pytest.raises(ParseError):
        parse_element(sl2, "alpha^-1")
    with pytest.raises(ParseError):
        parse_element(sl2, "omega")
    with pytest.raises(ParseError):
        parse_element(sl2, "alpha/beta")
    with pytest.raises(ParseError):
        parse_element(sl2, "(alpha + beta)*gamma")


def test_element_round_trip(sl2):
    q = sl2.context.parameter("q")
    cases = [
        sl2.one,
        sl2.zero,
        sl2.gen("beta") ** 2 * sl2.gen("gamma") - (1 / q) * sl2.gen("beta"),
        (q + 1) * sl2.gen("alpha") * sl2.gen("gamma") - sl2.scalar(3),
    ]
    for e in cases:
        assert parse_element(sl2, str(e)) == e


def test_tensor_grammar(sl2):
    a, b, c = sl2.gen("alpha"), sl2.gen("beta"), sl2.gen("gamma")
    t = parse_tensor(sl2, "alpha @ alpha + beta @ gamma")
    assert t == TensorElement.of(a, a) + TensorElement.of(b, c)
    u = parse_tensor(sl2, "alpha*beta @ gamma - beta @ 1")
    assert u == TensorElement.of(a * b, c) - TensorElement.of(b, sl2.one)
    with pytest.raises(ParseError):
        parse_tensor(sl2, "alpha + beta @ gamma")


def test_form_terms(sl2):
    q = sl2.context.parameter("q")
    forms = ("w0", "w+", "w-")
    terms = parse_form_terms(sl2, forms, "q^2*(q^2 + 1)*w0.w+ - beta*w-")
    assert terms == [
        (sl2.scalar(q**4 + q**2), ("w0", "w+")),
        (-sl2.gen("beta"), ("w-",)),
    ]
    assert parse_form_terms(sl2, forms, "alpha") == [(sl2.gen("alpha"), ())]
    assert parse_form_terms(sl2, forms, "0") == [(sl2.zero, ())]
    with pytest.raises(ParseError):
        parse_form_terms(sl2, forms, "w-*beta")
    with pytest.raises(ParseError):
        parse_form_terms(sl2, forms, "w-*w+")


def test_form_literal_boundaries(qplane):
    # form names that collide with generator-name prefixes must not split them
    terms = parse_form_terms(qplane, ("dx", "dy"), "x*dx + y*dy")
    assert terms == [
        (qplane.gen("x"), ("dx",)),
        (qplane.gen("y"), ("dy",)),
    ]


def test_ladder_rhs(qctx):
    q = qctx.parameter("q")
    forms = ("w0", "w+", "w-")
    assert parse_ladder_rhs(qctx, forms, "-q^4 * dual(w0)") == (-(q**4), ("w0",))
    assert parse_ladder_rhs(qctx, forms, "dual(w-.w+)") == (qctx.one, ("w-", "w+"))
    with pytest.raises(ParseError):
        parse_ladder_rhs(qctx, forms, "q^4 * w0")
    with pytest.raises(ParseError):
        parse_ladder_rhs(qctx, forms, "beta * dual(w0)")


SAMPLE = """\
# a minimal file
[scalars]
parameters = q

[algebra]
generators = x y
rule y*x -> q^-1 * x*y   # straighten

[grading]
x = 1
y = 1
"""


def test_presentation_file_sections():
    sections = parse_presentation_file(SAMPLE)
    assert sections["scalars"] == [(3, "parameters = q")]
    assert sections["algebra"] == [
        (6, "generators = x y"),
        (7, "rule y*x -> q^-1 * x*y"),
    ]
    assert [lineno for lineno, _ in sections["grading"]] == [10, 11]
    assert sections["hopf"] == []


def test_presentation_file_errors():
    with pytest.raises(ParseError):
        parse_presentation_file("[nonsense]\n")
    with pytest.raises(ParseError):
        parse_presentation_file("order = 1\n")
    with pytest.raises(ParseError):
        parse_presentation_file("[algebra\ngenerators = x\n")


def test_presentation_file_with_any_header():
    text = "[coproduct a]\nx @ y  # one term\n\n[other]\nz\n[coproduct a]\nw\n"
    assert parse_presentation_file(text, sections=("coproduct a", "other", "none")) == {
        "coproduct a": [(2, "x @ y"), (7, "w")],
        "other": [(5, "z")],
        "none": [],
    }


# -- each production stays inside the entry points that accept it -----------

FORMS = ("w0", "w+", "w-")


@pytest.mark.parametrize(
    "entry, text",
    [
        ("scalar", "q @ q"),
        ("scalar", "q * dual(w0)"),
        ("element", "alpha @ beta"),
        ("element", "dual(w0)"),
        ("form", "alpha @ beta"),
        ("form", "q * dual(w0)"),
        ("form", "w0 @ alpha"),
        ("tensor", "alpha*beta"),
        ("tensor", "alpha @ beta + gamma"),
        ("tensor", "alpha @ beta @ gamma"),
        ("tensor", "(alpha @ beta)"),
        ("ladder", "dual(w0) + q * dual(w+)"),
        ("ladder", "q * dual(w0) - dual(w0)"),
        ("ladder", "beta * dual(w0)"),
        ("ladder", "q^4 * w0"),
        ("ladder", "q^4"),
        ("ladder", "dual(w0) @ dual(w+)"),
        ("ladder", "dual(w0)^2"),
        ("ladder", "dual(q)"),
    ],
)
def test_productions_stay_in_their_entry_point(sl2, entry, text):
    parse = {
        "scalar": lambda: parse_scalar(sl2.context, text),
        "element": lambda: parse_element(sl2, text),
        "form": lambda: parse_form_terms(sl2, FORMS, text),
        "tensor": lambda: parse_tensor(sl2, text),
        "ladder": lambda: parse_ladder_rhs(sl2.context, FORMS, text),
    }[entry]
    with pytest.raises(ParseError):
        parse()


def test_kind_errors_point_at_the_term(sl2):
    with pytest.raises(ParseError) as err:
        parse_tensor(sl2, "alpha @ beta + gamma", line=4)
    assert (err.value.line, err.value.col) == (4, 16)
    with pytest.raises(ParseError) as err:
        parse_ladder_rhs(sl2.context, FORMS, "dual(w0) + q * dual(w+)")
    assert err.value.col == 12


def test_dual_is_still_a_generator_name(qctx):
    pres = Presentation(qctx, generators=("dual", "x"), rules=[])
    assert parse_element(pres, "dual*x - q*dual") == pres.element(
        {(0, 1): qctx.one, (0,): -qctx.parameter("q")}
    )


@pytest.mark.parametrize(
    "body, line",
    [
        ("[coproduct alpha^2]\nalpha @ alpha\nalpha*beta\n", 3),
        ("# comment\n\n[coproduct delta^2]\ndelta @ delta @ delta\n", 4),
        ("[coproduct alpha^2]\nalpha @ alpha\n[coproduct delta^2]\ndelta @ $\n", 4),
        ("[coproduct alpha^2]\nalpha @ alpha\n\n# the counit is no fixture\n[counit alpha]\n", 5),
    ],
)
def test_fixture_errors_carry_the_file_line(monkeypatch, tmp_path, sl2, body, line):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "broken.fixtures").write_text(body, encoding="utf-8")
    monkeypatch.setattr(descent.resources, "files", lambda package: tmp_path)
    with pytest.raises(ParseError) as err:
        sphere_fixtures(sl2, "broken.fixtures")
    assert err.value.line == line


# -- fuzzing the grammar ------------------------------------------------------

# the grammar's tokens over qplane: ints of at most two digits, its
# parameters and generators, and the operators
INTS = st.integers(0, 99).map(str)
TOKENS = st.one_of(
    INTS, st.sampled_from(("q", "p", "x", "y", "+", "-", "*", "/", "^", "(", ")", "@"))
)
# token strings shaped by the grammar's productions, so that most of them
# get past the syntax checks to the arithmetic
EXPRESSIONS = st.recursive(
    st.one_of(INTS, st.sampled_from(("q", "p", "x", "y"))),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*", "/", "@")), inner).map(" ".join),
        st.tuples(inner, st.sampled_from(("^", "^ -")), INTS).map(" ".join),
        inner.map("( {} )".format),
        inner.map("- {}".format),
    ),
    max_leaves=6,
)
# what a bad literal may raise; anything else escapes the CLI's exit 2
REFUSALS = (ParseError, ExponentOutOfRange, CoefficientTooLarge, ReductionBudgetExceeded)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.lists(TOKENS, max_size=10).map(" ".join), EXPRESSIONS))
def test_literals_parse_or_raise_a_refusal(qplane, text):
    for parse, target in ((parse_scalar, qplane.context), (parse_element, qplane)):
        try:
            parse(target, text)
        except REFUSALS:
            pass
