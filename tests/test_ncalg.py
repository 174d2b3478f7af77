"""Presented algebras: rewriting, normal bases, confluence, grading, Hopf
operations on quantum SL(2)."""
from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intforms import ncalg
from intforms.ncalg import (
    DEFAULT_BUDGET,
    MIXED,
    GradingAbsent,
    Presentation,
    ReductionBudgetExceeded,
    RuleOrientationError,
    TensorElement,
    UnknownGenerator,
    _Budget,
    antipode,
    check_local_confluence,
    coproduct,
    counit,
    mul_terms,
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
    assert qplane.normal_words(4, degree=2) == (
        qplane.word("x", "x"),
        qplane.word("x", "y"),
        qplane.word("y", "y"),
    )


def test_normal_words_memo_is_shared_and_immutable(qpctx):
    pres = make_qplane_presentation(qpctx)
    first = pres.normal_words(3)
    graded = pres.normal_words(3, degree=2)
    assert pres.normal_words(3) is first
    assert pres.normal_words(3, degree=2) is graded
    assert first == pres.normal_words(4)[: len(first)]
    assert graded == tuple(w for w in first if len(w) == 2)
    with pytest.raises(AttributeError):
        first.append((1, 0))
    with pytest.raises(TypeError):
        first[0] = (1, 0)


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


def test_letters_must_be_ints(qplane, sl2):
    # floats used to pass the range check: (1.0, 0) was taken as a word and
    # (0.5,) failed later with a bare KeyError
    with pytest.raises(TypeError):
        qplane.word(1.0, 0)
    with pytest.raises(TypeError):
        sl2.monomial((2.0, 1))
    with pytest.raises(TypeError):
        qplane.monomial((0.5,))
    with pytest.raises(TypeError):
        qplane.element({(Fraction(1),): 1})
    # (1.0, 0) == (1, 0), so a seen int word must not let the float through
    assert qplane.monomial((1, 0)) == qplane.monomial(qplane.word("y", "x"))
    with pytest.raises(TypeError):
        qplane.monomial((1.0, 0))


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


@pytest.mark.parametrize("scaled", [False, True])
def test_confluence_resolves_an_inclusion_ambiguity(qctx, scaled):
    # b -> a rewrites inside a*b*c -> (q)*a^2*c and overlaps no rule's end,
    # so the strict-inclusion branch alone finds the ambiguity
    coeff = qctx.parameter("q") if scaled else 1
    rules = [(("a", "b", "c"), {("a", "a", "c"): coeff}), (("b",), {("a",): 1})]
    pres = Presentation(qctx, generators=("a", "b", "c"), rules=rules)
    report = check_local_confluence(pres, max_degree=3)
    (check,) = report.checks
    assert check["name"] == "a*b*c"
    assert check["ok"] is not scaled
    assert str(check["route1"]) == ("q*a^2*c" if scaled else "a^2*c")
    assert str(check["route2"]) == "a^2*c"


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


def test_reduction_budget(qctx, monkeypatch):
    pres = make_sl2_presentation(qctx)
    long_word = ("delta",) * 4 + ("alpha",) * 4
    with monkeypatch.context() as patch:
        patch.setattr(ncalg, "DEFAULT_BUDGET", 3)
        with pytest.raises(ReductionBudgetExceeded):
            pres.element({long_word: 1})
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
def test_long_word_exhausts_the_budget(qctx, budget, monkeypatch):
    pres = make_qplane_presentation(qctx)
    word = pres.word(*("y",) * 40 + ("x",) * 40)
    monkeypatch.setattr(ncalg, "DEFAULT_BUDGET", budget)
    with pytest.raises(ReductionBudgetExceeded):
        pres.element({word: 1})
    # one budget unit per rewrite step: k^2 units are exactly enough
    monkeypatch.setattr(ncalg, "DEFAULT_BUDGET", 40 * 40)
    assert pres.element({word: 1})


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
    words=st.lists(st.lists(st.integers(0, 3), max_size=12), min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_worklist_matches_leftmost_rewriting(name, words):
    shipped = PRESETS[name]
    # a fresh presentation, so the normal forms are computed rather than
    # cached, and words in turn, so a later one-term chain may end on a
    # word an earlier one cached
    pres = Presentation(shipped.context, shipped.generators, shipped.rules)
    for letters in words:
        word = tuple(g % len(pres.generators) for g in letters)
        got = pres._normal_word(word, _Budget(DEFAULT_BUDGET))
        assert got == _leftmost_normal_form(pres, word)


@given(name=st.sampled_from(sorted(PRESETS)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_products_match_leftmost_rewriting(name, data):
    # mul_terms starts the redex search near the end of the left word
    shipped = PRESETS[name]
    pres = Presentation(shipped.context, shipped.generators, shipped.rules)
    words = shipped.normal_words(4)
    factor = st.dictionaries(st.sampled_from(words), st.integers(1, 3), max_size=3)
    a, b = data.draw(factor), data.draw(factor)
    coerce = pres.context.coerce
    want = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for word, coeff in _leftmost_normal_form(pres, wa + wb).items():
                total = want.get(word, pres.context.zero) + ca * cb * coeff
                if total:
                    want[word] = total
                else:
                    del want[word]
    a = {w: coerce(c) for w, c in a.items()}
    b = {w: coerce(c) for w, c in b.items()}
    assert mul_terms(pres, a, b, {}) == want


def test_one_term_chain_caches_only_its_ends(qctx):
    # y^40 x^40 rewrites in 1,600 one-term steps; none of the words between
    # its ends is kept
    pres = make_qplane_presentation(qctx)
    before = len(pres._nf_cache)
    pres.monomial(pres.word(*("y",) * 40 + ("x",) * 40))
    assert len(pres._nf_cache) - before <= 3


def test_long_words_never_recurse(qctx, monkeypatch):
    sl2 = make_sl2_presentation(qctx)
    plane = make_qplane_presentation(qctx)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        # delta alpha branches into two words at every step
        value = sl2.monomial(sl2.word(*("delta",) * 10 + ("alpha",) * 10))
        monkeypatch.setattr(ncalg, "DEFAULT_BUDGET", 10**4)
        with pytest.raises(ReductionBudgetExceeded):
            plane.element({plane.word(*("y",) * 200 + ("x",) * 200): 1})
    finally:
        sys.setrecursionlimit(limit)
    # the counit is multiplicative with counit(alpha) = counit(delta) = 1
    assert counit(sl2, value) == 1


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
    s = TensorElement.of(a, a) + TensorElement.of(b, b, 2)
    assert s.sweedler()
    assert "@" in str(s)


def test_tensor_arithmetic_rejects_non_tensors(qplane):
    # x (x) y + x used to build a tensor with a bare word among its keys,
    # and t + 5 failed inside the method with an AttributeError; a tensor
    # takes its coefficient in TensorElement.of, so t * 5 is refused too
    x, y = qplane.gen("x"), qplane.gen("y")
    t = TensorElement.of(x, y)
    for other in (x, 5):
        with pytest.raises(TypeError):
            t + other
        with pytest.raises(TypeError):
            t - other
        with pytest.raises(TypeError):
            other + t
        with pytest.raises(TypeError):
            t * other
        with pytest.raises(TypeError):
            other * t
    assert t != x


def test_fraction_factors_scale(qplane, monkeypatch):
    # a Fraction used to take the word product on elements
    half = Fraction(1, 2)
    x = qplane.gen("x")
    scaled_x = x.scale(half)

    def refuse(word, budget):
        raise AssertionError("a scalar factor took the word product")

    monkeypatch.setattr(qplane, "_normal_word", refuse)
    assert half * x == x * half == scaled_x


def test_scalar_elements_equal_their_fractions(qplane):
    half = Fraction(1, 2)
    assert qplane.scalar(half) == half
    assert half == qplane.scalar(half)
    assert qplane.scalar(half) != Fraction(1, 3)
    assert qplane.scalar(1) == 1
