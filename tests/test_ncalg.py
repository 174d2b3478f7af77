"""Presented algebras: rewriting, normal bases, confluence, grading, Hopf
operations on quantum SL(2)."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intforms.ncalg import (
    MIXED,
    GradingAbsent,
    Presentation,
    ReductionBudgetExceeded,
    RuleOrientationError,
    TensorElement,
    UnknownGenerator,
    antipode,
    check_local_confluence,
    coproduct,
    counit,
    zdegree,
)

from intforms.presets import get_preset

from conftest import make_qplane_presentation, make_sl2_presentation


def test_qplane_normalize(qplane):
    q = qplane.context.parameter("q")
    x, y = qplane.gen("x"), qplane.gen("y")
    assert y * x == (1 / q) * (x * y)
    assert (y * y * x).sorted_terms() == [(qplane.word("x", "y", "y"), 1 / q**2)]
    assert qplane.word("x", "x", "y") in qplane.normal_words(3)
    assert qplane.word("y", "x") not in qplane.normal_words(2)


def test_qplane_normal_words(qplane):
    words = qplane.normal_words(3)
    assert len(words) == 1 + 2 + 3 + 4
    assert words[0] == ()
    assert qplane.word("x", "y", "y") in words
    assert all(list(w) == sorted(w) for w in words)
    assert qplane.normal_words(4, degree=2) == [
        qplane.word("x", "x"),
        qplane.word("x", "y"),
        qplane.word("y", "y"),
    ]


def test_sl2_defining_relations(sl2):
    q = sl2.context.parameter("q")
    a, b, c, d = (sl2.gen(g) for g in ("alpha", "beta", "gamma", "delta"))
    assert a * b == q * (b * a)
    assert a * c == q * (c * a)
    assert b * d == q * (d * b)
    assert c * d == q * (d * c)
    assert b * c == c * b
    assert a * d - d * a == (q - 1 / q) * (b * c)
    assert a * d == sl2.one + q * (b * c)
    # quantum determinant
    assert a * d - q * (b * c) == sl2.one
    assert d * a - (1 / q) * (b * c) == sl2.one


def test_sl2_normal_basis(sl2):
    words = sl2.normal_words(4)
    # (l+1)^2 monomials in each total length l
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    assert [len(by_len.get(l, [])) for l in range(5)] == [1, 4, 9, 16, 25]
    ia, id_ = sl2.index("alpha"), sl2.index("delta")
    for w in words:
        assert not (ia in w and id_ in w)
        # a normal word is its own normal form
        assert sl2.monomial(w).terms == {w: sl2.context.one}


def test_sl2_powers(sl2):
    b, c = sl2.gen("beta"), sl2.gen("gamma")
    bc = b * c
    assert (bc**2).sorted_terms() == [
        (sl2.word("beta", "beta", "gamma", "gamma"), sl2.context.one)
    ]
    assert bc**0 == sl2.one


def test_powers_need_an_integer_exponent(qplane):
    # int() would have truncated x ** 2.7 to x^2 without a word
    x = qplane.gen("x")
    for exponent in (2.7, 2.0, Fraction(5, 2)):
        with pytest.raises(TypeError):
            x ** exponent
    assert x ** 2 == x * x


def test_mul_associative_randomised(sl2):
    rng = random.Random(7)
    gens = ["alpha", "beta", "gamma", "delta"]
    for _ in range(40):
        a, b, c = (
            sl2.monomial(tuple(rng.choice(gens) for _ in range(rng.randint(0, 3))))
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


def test_element_ops(sl2):
    q = sl2.context.parameter("q")
    a, b = sl2.gen("alpha"), sl2.gen("beta")
    e = 2 * a - b * q
    assert e.coefficient(("alpha",)) == sl2.context.from_int(2)
    assert e.coefficient(("delta",)) == sl2.context.zero
    assert e - e == sl2.zero
    assert not e.is_zero()
    assert (-e) + e == sl2.zero
    assert e.scale(q) == 2 * q * a - q * q * b


def test_zdegree(sl2, qplane):
    a, b = sl2.gen("alpha"), sl2.gen("beta")
    assert zdegree(a * a) == 2
    assert zdegree(b) == -1
    assert zdegree(b * sl2.gen("gamma")) == 0
    assert zdegree(a + b) is MIXED
    assert zdegree(sl2.zero) == 0
    ungraded = Presentation(sl2.context, generators=("t",))
    with pytest.raises(GradingAbsent):
        zdegree(ungraded.gen("t"))
    assert zdegree(qplane.gen("x") * qplane.gen("y")) == 2


def test_unknown_generator(qplane):
    with pytest.raises(UnknownGenerator):
        qplane.word("x", "z")
    with pytest.raises(UnknownGenerator):
        qplane.index("z")


def test_rule_orientation_enforced(qctx):
    q = qctx.parameter("q")
    with pytest.raises(RuleOrientationError):
        Presentation(qctx, generators=("x",), rules=[(("x",), {("x", "x"): q})])
    # alphabetical generator order makes the unit-resolving relation of
    # quantum SL(2) increase in deglex, so it must be rejected outright
    with pytest.raises(RuleOrientationError):
        Presentation(
            qctx,
            generators=("alpha", "beta", "gamma", "delta"),
            rules=[(("alpha", "delta"), {(): qctx.one, ("beta", "gamma"): q})],
        )


def test_grading_homogeneity_enforced(qctx):
    with pytest.raises(ValueError):
        Presentation(
            qctx,
            generators=("x", "y"),
            rules=[(("y", "x"), {("x",): qctx.one})],
            grading={"x": 1, "y": 1},
        )


def test_confluence_sl2(sl2):
    report = check_local_confluence(sl2, max_degree=6)
    assert report.ok
    assert report.checks
    assert report.failures == []


def test_confluence_qplane(qplane):
    report = check_local_confluence(qplane, max_degree=6)
    assert report.ok
    assert report.checks == []


def test_confluence_detects_bad_coefficient(qctx):
    # corrupt the unit-resolving rule: alpha*delta -> 1 + q^2*beta*gamma
    q = qctx.parameter("q")
    pres = make_sl2_presentation(qctx)
    target = pres.word("alpha", "delta")
    rules = []
    for lhs, rhs in pres.rules:
        if lhs == target:
            rhs = {(): qctx.one, ("beta", "gamma"): q * q}
        rules.append((lhs, rhs))
    bad = Presentation(qctx, generators=pres.generators, rules=rules)
    report = check_local_confluence(bad, max_degree=4)
    assert not report.ok
    witness = report.failures[0]
    assert witness["word"]
    assert witness["route1"] != witness["route2"]


def test_reduction_budget(qctx):
    pres = make_sl2_presentation(qctx)
    long_word = ("delta",) * 4 + ("alpha",) * 4
    with pytest.raises(ReductionBudgetExceeded):
        pres.element({long_word: 1}, budget=3)
    assert pres.monomial(long_word) == pres.monomial(long_word)


def test_long_word_normalises_without_recursion(qctx):
    # y^k x^k = q^(-k^2) x^k y^k takes k^2 rewrite steps in one chain
    q = qctx.parameter("q")
    k = 40
    pres = make_qplane_presentation(qctx)
    value = pres.monomial(pres.word(*("y",) * k + ("x",) * k))
    want = pres.monomial(pres.word(*("x",) * k + ("y",) * k), coeff=q ** (-k * k))
    assert value == want


@pytest.mark.parametrize("budget", [100, 40 * 40 - 1])
def test_long_word_exhausts_the_budget(qctx, budget):
    pres = make_qplane_presentation(qctx)
    word = pres.word(*("y",) * 40 + ("x",) * 40)
    with pytest.raises(ReductionBudgetExceeded):
        pres.element({word: 1}, budget=budget)
    # one budget unit per rewrite step: k^2 units are exactly enough
    assert pres.element({word: 1}, budget=40 * 40)


def _leftmost_normal_form(pres, word):
    """Reference: rewrite the leftmost redex of some reducible word, repeatedly."""
    terms = {word: pres.context.one}
    while True:
        for raw, coeff in terms.items():
            hits = [
                (pos, lhs, rhs)
                for pos in range(len(raw))
                for lhs, rhs in pres.rules
                if raw[pos : pos + len(lhs)] == lhs
            ]
            if hits:
                break
        else:
            return terms
        pos, lhs, rhs = hits[0]
        del terms[raw]
        for rword, rcoeff in rhs.items():
            new = raw[:pos] + rword + raw[pos + len(lhs) :]
            total = terms.get(new, pres.context.zero) + coeff * rcoeff
            if total:
                terms[new] = total
            else:
                terms.pop(new, None)


PRESETS = {name: get_preset(name).load().presentation for name in ("qplane", "sl2-3d")}


@given(
    name=st.sampled_from(sorted(PRESETS)),
    letters=st.lists(st.integers(0, 3), max_size=7),
)
@settings(max_examples=60, deadline=None)
def test_worklist_matches_leftmost_rewriting(name, letters):
    shipped = PRESETS[name]
    # a fresh presentation, so the normal form is computed rather than cached
    pres = Presentation(shipped.context, shipped.generators, shipped.rules)
    word = tuple(g % len(pres.generators) for g in letters)
    assert pres.monomial(word).terms == _leftmost_normal_form(pres, word)


def test_str_formatting(sl2):
    q = sl2.context.parameter("q")
    a, b = sl2.gen("alpha"), sl2.gen("beta")
    assert str(sl2.one) == "1"
    assert str(sl2.zero) == "0"
    assert str(a * a) == "alpha^2"
    assert str(2 * a - b) == "2*alpha - beta"
    assert str((1 / q) * b) == "1/q*beta"
    assert str((1 + q) * b) == "(q + 1)*beta"


def test_coproduct_generator(sl2):
    a = sl2.gen("alpha")
    da = coproduct(sl2, a)
    expected = TensorElement.of(a, a) + TensorElement.of(sl2.gen("beta"), sl2.gen("gamma"))
    assert da == expected


def test_coproduct_is_algebra_map(sl2):
    q = sl2.context.parameter("q")
    a, b = sl2.gen("alpha"), sl2.gen("beta")
    assert coproduct(sl2, a * b) == coproduct(sl2, a) * coproduct(sl2, b)
    # straightening alpha*beta (x) alpha*gamma and beta*alpha (x) gamma*alpha
    # lands both on beta*alpha (x) alpha*gamma, with weights q and 1/q
    da2 = coproduct(sl2, a * a)
    terms = da2.terms
    assert terms[(sl2.word("alpha", "alpha"), sl2.word("alpha", "alpha"))] == sl2.context.one
    assert terms[(sl2.word("beta", "alpha"), sl2.word("alpha", "gamma"))] == q + 1 / q
    assert terms[(sl2.word("beta", "beta"), sl2.word("gamma", "gamma"))] == sl2.context.one
    assert len(terms) == 3


def test_counit(sl2):
    a, d = sl2.gen("alpha"), sl2.gen("delta")
    assert counit(sl2, a * d) == sl2.context.one
    assert counit(sl2, sl2.gen("beta")) == sl2.context.zero
    assert counit(sl2, a * a + 3 * sl2.gen("gamma")) == sl2.context.one


def test_antipode(sl2):
    q = sl2.context.parameter("q")
    a, b, c, d = (sl2.gen(g) for g in ("alpha", "beta", "gamma", "delta"))
    assert antipode(sl2, b) == (-1 / q) * b
    assert antipode(sl2, b * c) == b * c
    assert antipode(sl2, antipode(sl2, b)) == (1 / (q * q)) * b
    assert antipode(sl2, b, power=-1) == -q * b
    # S is antimultiplicative: S(alpha*beta) = S(beta) S(alpha)
    assert antipode(sl2, a * b) == antipode(sl2, b) * antipode(sl2, a)
    assert antipode(sl2, d) == a


def test_antipode_table_is_built_once(sl2, monkeypatch):
    # the generator images depend only on the presentation, so after a
    # first call S and S^-1 normalise no element for their tables
    w = sl2.gen("alpha") * sl2.gen("beta") + sl2.gen("delta")
    first = {power: antipode(sl2, w, power=power) for power in (1, -1)}
    calls = []
    element = Presentation.element

    def counted(self, *args, **kwargs):
        calls.append(args)
        return element(self, *args, **kwargs)

    monkeypatch.setattr(Presentation, "element", counted)
    for _ in range(3):
        for power in (1, -1):
            assert antipode(sl2, w, power=power) == first[power]
    assert calls == []


def test_antipode_axiom(sl2):
    # m (S (x) id) Delta = counit * unit, checked on all four generators
    for g in ("alpha", "beta", "gamma", "delta"):
        e = sl2.gen(g)
        acc = sl2.zero
        for left, right, coeff in coproduct(sl2, e).sweedler():
            acc = acc + (antipode(sl2, left) * right).scale(coeff)
        assert acc == sl2.one.scale(counit(sl2, e))


def test_antipode_inverse(sl2):
    rng = random.Random(3)
    gens = ["alpha", "beta", "gamma", "delta"]
    for _ in range(12):
        w = sl2.monomial(tuple(rng.choice(gens) for _ in range(rng.randint(1, 3))))
        assert antipode(sl2, antipode(sl2, w, power=-1)) == w
        s_s_w = antipode(sl2, antipode(sl2, w))
        assert antipode(sl2, antipode(sl2, s_s_w, power=-1), power=-1) == w


def test_tensor_element_ops(sl2):
    a, b = sl2.gen("alpha"), sl2.gen("beta")
    t = TensorElement.of(a, b) - TensorElement.of(a, b)
    assert t.is_zero()
    s = TensorElement.of(a, a) + 2 * TensorElement.of(b, b)
    assert s.sweedler()
    assert "@" in str(s)


def test_tensor_arithmetic_rejects_non_tensors(qplane):
    # x (x) y + x used to build a tensor with a bare word among its keys,
    # and t + 5 failed inside the method with an AttributeError
    x, y = qplane.gen("x"), qplane.gen("y")
    t = TensorElement.of(x, y)
    for other in (x, 5):
        with pytest.raises(TypeError):
            t + other
        with pytest.raises(TypeError):
            t - other
        with pytest.raises(TypeError):
            other + t
    assert t != x


def test_fraction_factors_scale(qplane, monkeypatch):
    # a Fraction used to take the word product on elements and raise
    # TypeError on tensors
    half = Fraction(1, 2)
    x, y = qplane.gen("x"), qplane.gen("y")
    t = TensorElement.of(x, y)
    scaled_x, scaled_t = x.scale(half), t.scale(half)

    def refuse(word, budget):
        raise AssertionError("a scalar factor took the word product")

    monkeypatch.setattr(qplane, "_normal_word", refuse)
    assert half * x == x * half == scaled_x
    assert half * t == t * half == scaled_t


def test_scalar_elements_equal_their_fractions(qplane):
    half = Fraction(1, 2)
    assert qplane.scalar(half) == half
    assert half == qplane.scalar(half)
    assert qplane.scalar(half) != Fraction(1, 3)
    assert qplane.scalar(1) == 1
