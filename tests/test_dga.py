"""Graded calculus on the two reference presentations: the right action
through sigma, left-to-right coefficient conversion, the exterior
differential against published values, and the d-squared / density checks
with their negative controls."""
from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intforms import cli, dga, linmap
from intforms.dga import CalculusSpec, DegreeOverflow, check_d_squared, check_density
from intforms.homconn import twisted_partial
from intforms.multider import TwistedMultiDerivation
from intforms.ncalg import RuleOrientationError
from intforms.presets import REGISTRY, load_calc

from intforms.sparse import add_scaled

from conftest import (
    identity_sigma,
    make_qplane_calculus,
    make_sl2_3d_calculus,
    parse_form,
    qplane_form_rules,
    sl2_3d_form_rules,
)


def random_element(pres, rng, max_len=3, terms=2):
    words = pres.normal_words(max_len)
    out = pres.zero
    for _ in range(terms):
        out = out + pres.monomial(rng.choice(words), coeff=rng.randint(-3, 3))
    return out


# -- right action ---------------------------------------------------------


def test_right_mul_quantum_plane(qplane, qplane_calc):
    p = qplane.context.parameter("p")
    x = qplane.gen("x")
    dx = qplane_calc.basis_form("dx")
    assert dx * x == qplane_calc.form(1, {"dx": p * x})
    assert str(dx * x) == "p*x*dx"


def test_right_mul_3d_relations(sl2, sl2_3d_calc):
    q = sl2.context.parameter("q")
    spec = sl2_3d_calc
    alpha, beta = sl2.gen("alpha"), sl2.gen("beta")
    w0, wp, wm = (spec.basis_form(n) for n in ("w0", "w+", "w-"))
    assert w0 * alpha == spec.form(1, {"w0": alpha * q**-2})
    assert w0 * beta == spec.form(1, {"w0": beta * q**2})
    assert wp * alpha == spec.form(1, {"w+": alpha / q})
    assert wm * beta == spec.form(1, {"w-": beta * q})


def test_right_mul_unit_and_zero(qplane, qplane_calc):
    form = parse_form(qplane_calc, "x*dx + y*dy")
    assert form * qplane.one == form
    assert (form * qplane.zero).is_zero()
    assert form * 1 == form


def test_right_mul_associative(qplane, qplane_calc, sl2, sl2_3d_calc):
    rng = random.Random(411)
    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        units = [spec.basis_form(w) for w in spec.basis(1) + spec.basis(2)]
        for _ in range(10):
            omega = rng.choice(units)
            a = random_element(pres, rng)
            b = random_element(pres, rng)
            assert (omega * a) * b == omega * (a * b)


def test_right_mul_higher_degree_iterates(qplane, qplane_calc):
    # (dx.dy)*x pushes x through both letters: sigma11(sigma21.. collapses
    # to the diagonal product p*(p/q)*x on the only basis 2-form
    p = qplane.context.parameter("p")
    q = qplane.context.parameter("q")
    x = qplane.gen("x")
    top = qplane_calc.basis_form(("dx", "dy"))
    assert top * x == qplane_calc.form(2, {("dx", "dy"): x * (p * p / q)})


# -- left coefficients to right coefficients -------------------------------


def test_left_from_right_quantum_plane(qplane, qplane_calc):
    p = qplane.context.parameter("p")
    x = qplane.gen("x")
    dx = (qplane_calc.index("dx"),)
    assert dga.right_coords(qplane_calc, qplane_calc.form(1, {dx: x})) == {dx: x / p}


def test_left_from_right_3d(sl2, sl2_3d_calc):
    q = sl2.context.parameter("q")
    alpha = sl2.gen("alpha")
    w0 = (sl2_3d_calc.index("w0"),)
    omega = sl2_3d_calc.form(1, {w0: alpha})
    assert dga.right_coords(sl2_3d_calc, omega) == {w0: alpha * q**2}


def test_left_from_right_unit(qplane, qplane_calc):
    dy = (qplane_calc.index("dy"),)
    assert dga.right_coords(qplane_calc, qplane_calc.basis_form(dy)) == {dy: qplane.one}


def test_left_from_right_roundtrip(qplane, qplane_calc, sl2, sl2_3d_calc):
    # a*e = sum_w w*c_w on every basis word e of every degree, and on sums
    # of such terms, where several left terms feed one right coefficient
    rng = random.Random(903)

    def from_right(spec, degree, comps):
        total = spec.zero(degree)
        for word, c in comps.items():
            total = total + spec.basis_form(word) * c
        return total

    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        for degree in range(1, spec.top_degree + 1):
            basis = spec.basis(degree)
            assert basis
            for word in basis:
                for _ in range(4):
                    a = random_element(pres, rng)
                    omega = a * spec.basis_form(word)
                    comps = dga.right_coords(spec, omega)
                    assert from_right(spec, degree, comps) == omega
            omega = spec.form(degree, {w: random_element(pres, rng) for w in basis})
            assert from_right(spec, degree, dga.right_coords(spec, omega)) == omega


# -- the twist table ---------------------------------------------------------


# preset name -> (session fixture, builder of a fresh spec on its derivation)
_CALCULI = {
    "qplane": ("qplane_calc", make_qplane_calculus),
    "sl2-3d": ("sl2_3d_calc", make_sl2_3d_calculus),
}


@st.composite
def coefficients(draw, pres, max_len=3):
    """A multi-term element: random normal words with int or Fraction scalars."""
    words = pres.normal_words(max_len)
    terms = draw(st.lists(
        st.tuples(
            st.sampled_from(words),
            st.one_of(
                st.integers(-3, 3),
                st.fractions(min_value=-2, max_value=2, max_denominator=4),
            ),
        ),
        min_size=1,
        max_size=4,
    ))
    return pres.element(dict(terms))


def _twist_results(spec, coords, degree, right_factor, i, a):
    # right_coords, mul (by a degree-1 form and by a) and the
    # connection-kernel row, as plain dicts comparable across specs
    omega = spec.form(degree, coords)
    return [
        dga.right_coords(spec, omega),
        dga.mul(spec, omega, spec.form(1, right_factor)).terms,
        dga.right_mul(spec, omega, a).terms,
        twisted_partial(spec, i, a),
    ]


@pytest.mark.parametrize("name", sorted(_CALCULI))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_twist_table_agrees_with_a_cold_table(request, name, data):
    # random multi-term coefficients on every basis word, against a freshly
    # built spec of the same derivation, whose table starts empty
    fixture, build = _CALCULI[name]
    warm = request.getfixturevalue(fixture)
    pres = warm.presentation
    degree = data.draw(st.integers(1, warm.top_degree))
    coords = {w: data.draw(coefficients(pres)) for w in warm.basis(degree)}
    right_factor = {w: data.draw(coefficients(pres)) for w in warm.basis(1)}
    i = data.draw(st.integers(0, warm.n - 1))
    a = data.draw(coefficients(pres))
    args = (coords, degree, right_factor, i, a)
    first = _twist_results(warm, *args)
    assert _twist_results(warm, *args) == first
    cold = build(warm.tmd)
    assert not cold._twists
    assert _twist_results(cold, *args) == first


def _map_applies(monkeypatch):
    """Count every map evaluation on an element: `MapMatrix.entry`, the one
    way to apply a map."""
    calls = []
    entry = linmap.MapMatrix.entry

    def counted(self, *args):
        calls.append(self)
        return entry(self, *args)

    monkeypatch.setattr(linmap.MapMatrix, "entry", counted)
    return calls


def test_twist_table_serves_repeated_calls(qplane, qplane_calc, sl2, sl2_3d_calc, monkeypatch):
    rng = random.Random(1307)
    runs = []
    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        omega = spec.form(1, {w: random_element(pres, rng) for w in spec.basis(1)})
        other = spec.form(1, {w: random_element(pres, rng) for w in spec.basis(1)})
        a = random_element(pres, rng, terms=3)
        runs += [
            lambda spec=spec, omega=omega: dga.right_coords(spec, omega),
            lambda spec=spec, omega=omega, other=other: dga.mul(spec, omega, other),
            lambda spec=spec, a=a: [twisted_partial(spec, i, a) for i in range(spec.n)],
        ]
    first = [run() for run in runs]
    calls = _map_applies(monkeypatch)
    assert [run() for run in runs] == first
    assert calls == []


def test_twist_table_grows_with_words_not_coefficients(cold_preset, monkeypatch, capsys):
    # one entry per (kind, form word, normal word, appended word) that the
    # verify run reached through the one table reader, dga._twisted; the
    # connection kernel keeps rows on normal words instead
    preset = cold_preset("sl2-3d")
    reached = set()
    twisted = dga._twisted

    def recording(spec, kind, word, a, tail, out, keep=None):
        reached.update((kind, word, u, tail) for u in a)
        return twisted(spec, kind, word, a, tail, out, keep)

    monkeypatch.setattr(dga, "_twisted", recording)
    assert cli.main(["verify", "preset:sl2-3d", "--max-len", "3"]) == 0
    capsys.readouterr()

    spec = preset.load().spec
    pres = spec.presentation
    table = spec._twists
    assert table and set(table) <= reached
    basis_words = {w for k in range(1, spec.top_degree + 1) for w in spec.basis(k)}
    for kind, word, u, tail in table:
        assert pres.monomial(u).terms == {u: pres.context.one}
        assert word in basis_words and tail in basis_words | {()}
    assert {kind for kind, *_ in table} == {"right", "left"}
    kernel = spec.tmd._kernel_memo
    assert len(kernel) > 1
    for u in kernel:
        assert pres.monomial(u).terms == {u: pres.context.one}
        assert u[1:] in kernel


# -- exterior differential --------------------------------------------------


def test_d_on_3d_generators(sl2, sl2_3d_calc):
    spec = sl2_3d_calc
    assert dga.d(spec, sl2.gen("alpha")) == parse_form(spec, "alpha*w0 - q*beta*w+")
    assert dga.d(spec, sl2.gen("beta")) == parse_form(spec, "-q^2*beta*w0 + alpha*w-")
    assert dga.d(spec, sl2.gen("gamma")) == parse_form(spec, "gamma*w0 - q*delta*w+")
    assert dga.d(spec, sl2.gen("delta")) == parse_form(spec, "-q^2*delta*w0 + gamma*w-")


def test_d_of_unit_vanishes(sl2, sl2_3d_calc, qplane, qplane_calc):
    assert dga.d(sl2_3d_calc, sl2.one).is_zero()
    assert dga.d(qplane_calc, qplane.one).is_zero()


def test_d_alpha_beta_left_and_right_coords(sl2, sl2_3d_calc):
    spec = sl2_3d_calc
    q = sl2.context.parameter("q")
    alpha, beta = sl2.gen("alpha"), sl2.gen("beta")
    left = dga.d(spec, alpha * beta)
    assert left == parse_form(spec, "alpha^2*w- - q^2*beta^2*w+")
    # the same form with coefficients on the right: q^2 w-. alpha^2 - w+.beta^2
    right = spec.basis_form("w-") * (alpha * alpha * q**2) - spec.basis_form(
        "w+"
    ) * (beta * beta)
    assert right == left


def test_d_on_basis_forms(sl2, sl2_3d_calc):
    spec = sl2_3d_calc
    assert dga.d(spec, spec.basis_form("w0")) == parse_form(spec, "q * w-.w+")
    assert dga.d(spec, spec.basis_form("w+")) == parse_form(spec, "q^2*(q^2 + 1) * w0.w+")
    assert dga.d(spec, spec.basis_form("w-")) == parse_form(spec, "q^2*(q^2 + 1) * w-.w0")


def test_d_is_linear(sl2, sl2_3d_calc):
    rng = random.Random(77)
    spec = sl2_3d_calc
    for _ in range(5):
        a = random_element(sl2, rng)
        b = random_element(sl2, rng)
        assert dga.d(spec, a + b) == dga.d(spec, a) + dga.d(spec, b)


def test_graded_leibniz(sl2, sl2_3d_calc):
    rng = random.Random(2024)
    spec = sl2_3d_calc
    one_forms = [
        spec.form(1, {w: random_element(sl2, rng, max_len=2)}) for w in spec.basis(1)
    ]
    # degrees (1, 1): d(omega*eta) = d(omega)*eta - omega*d(eta)
    for omega in one_forms:
        for eta in one_forms:
            lhs = dga.d(spec, omega * eta)
            rhs = dga.d(spec, omega) * eta - omega * dga.d(spec, eta)
            assert lhs == rhs
    # degrees (0, 2): d(a*eta) = d(a)*eta + a*d(eta)
    for w in spec.basis(2):
        a = random_element(sl2, rng, max_len=2)
        eta = spec.form(2, {w: random_element(sl2, rng, max_len=2)})
        assert dga.d(spec, a * eta) == dga.d(spec, a) * eta + a * dga.d(spec, eta)


def test_graded_leibniz_degree_zero_one_qplane(qplane, qplane_calc):
    rng = random.Random(15)
    spec = qplane_calc
    for _ in range(6):
        a = random_element(qplane, rng)
        eta = spec.form(1, {rng.choice(spec.basis(1)): random_element(qplane, rng)})
        assert dga.d(spec, a * eta) == dga.d(spec, a) * eta + a * dga.d(spec, eta)


def test_degree_overflow(qplane, qplane_calc):
    spec = qplane_calc
    top = spec.basis_form(("dx", "dy"))
    with pytest.raises(DegreeOverflow):
        dga.d(spec, top)
    assert dga.d(spec, spec.zero(2)).degree == 3
    assert dga.d(spec, spec.zero(2)).is_zero()


def test_form_letters_must_be_ints(qplane_calc):
    spec = qplane_calc
    with pytest.raises(TypeError):
        spec.reduce_word((0.5,))
    assert spec.reduce_word((1, 0)) == spec.reduce_word(("dy", "dx"))
    with pytest.raises(TypeError):
        spec.reduce_word((1.0, 0))
    with pytest.raises(TypeError):
        spec.basis_form((0.0,))


# -- higher-form structure ---------------------------------------------------


def test_bases_match_declared_order(qplane_calc, sl2_3d_calc):
    q2 = sl2_3d_calc
    assert [q2.word_str(w) for w in q2.basis(2)] == ["w-.w+", "w-.w0", "w0.w+"]
    assert [q2.word_str(w) for w in q2.basis(3)] == ["w-.w0.w+"]
    assert q2.basis(4) == ()
    assert [qplane_calc.word_str(w) for w in qplane_calc.basis(2)] == ["dx.dy"]


def test_degree_zero_is_the_empty_word(qplane_calc, sl2_3d_calc):
    # the forms of degree 0 are the algebra, free on the empty word 1
    from_file = load_calc(REGISTRY["qplane"].source).spec
    for spec in (qplane_calc, sl2_3d_calc, from_file):
        assert spec.basis(0) == ((),)
        assert spec.word_str(()) == "1"
        with pytest.raises(ValueError):
            spec.basis(-1)


def test_every_degree_three_product_hits_the_volume_form(sl2_3d_calc):
    spec = sl2_3d_calc
    volume = spec.basis(3)[0]
    from itertools import permutations

    for perm in permutations(range(3)):
        reduced = spec.reduce_word(perm)
        assert set(reduced) == {volume}
        assert reduced[volume]


def _all_positions_nf(spec, rules, word, memo):
    """Reference normal form: rewrite each redex first, in turn.

    Every route must end in the same normal form, or the rules are not
    confluent on this word.
    """
    known = memo.get(word)
    if known is not None:
        return known
    result = None
    for pos in range(len(word)):
        for lhs, rhs in rules:
            if word[pos : pos + len(lhs)] != lhs:
                continue
            out = {}
            for repl, coeff in rhs.items():
                rest = word[:pos] + repl + word[pos + len(lhs) :]
                add_scaled(out, _all_positions_nf(spec, rules, rest, memo), coeff)
            if result is None:
                result = out
            else:
                assert out == result, f"routes disagree on {spec.word_str(word)}"
    if result is None:
        result = {word: spec.context.one}
    memo[word] = result
    return result


@pytest.mark.parametrize(
    "calc, form_rules, words",
    [
        ("qplane_calc", qplane_form_rules, 2 + 4 + 8),
        ("sl2_3d_calc", sl2_3d_form_rules, 3 + 9 + 27 + 81),
    ],
)
def test_normal_forms_agree_with_all_positions_rewriting(request, calc, form_rules, words):
    spec = request.getfixturevalue(calc)
    rules = [
        (
            tuple(map(spec.index, lhs)),
            {tuple(map(spec.index, w)): spec.context.coerce(c) for w, c in rhs.items()},
        )
        for lhs, rhs in form_rules(spec.context).items()
    ]
    memo = {}
    checked = 0
    for length in range(1, spec.top_degree + 2):
        for word in product(range(spec.n), repeat=length):
            assert spec.reduce_word(word) == _all_positions_nf(spec, rules, word, memo)
            checked += 1
    assert checked == words


def test_form_rules_rewrite_products(qplane, qplane_calc, sl2, sl2_3d_calc):
    p = qplane.context.parameter("p")
    q = qplane.context.parameter("q")
    dydx = qplane_calc.form(2, {("dy", "dx"): 1})
    assert dydx == qplane_calc.form(2, {("dx", "dy"): -p / q})
    qq = sl2.context.parameter("q")
    wpwm = sl2_3d_calc.form(2, {("w+", "w-"): 1})
    assert wpwm == sl2_3d_calc.form(2, {("w-", "w+"): -(qq**2)})


def test_mixed_degrees_rejected(qplane, qplane_calc):
    spec = qplane_calc
    with pytest.raises(ValueError):
        spec.form(1, {("dx", "dy"): 1})
    with pytest.raises(ValueError):
        parse_form(spec, "x*dx + dx.dy")
    with pytest.raises(ValueError):
        parse_form(spec, "x*dx") + parse_form(spec, "dx.dy")


def test_form_str_roundtrip(sl2, sl2_3d_calc):
    spec = sl2_3d_calc
    text = "alpha*w0 - q*beta*w+"
    assert str(parse_form(spec, text)) == text
    assert str(spec.zero(2)) == "0"
    assert str(spec.basis_form(("w-", "w0"))) == "w-.w0"


# -- load-time validation -----------------------------------------------------


def test_rule_must_preserve_degree(qplane_tmd):
    with pytest.raises(ValueError, match="degree"):
        CalculusSpec(
            qplane_tmd,
            form_names=("dx", "dy"),
            rules={("dy", "dx"): {("dx",): 1}},
            top_degree=2,
        )


def test_rule_must_decrease_canonical_order(qplane_tmd):
    ctx = qplane_tmd.presentation.context
    with pytest.raises(RuleOrientationError):
        CalculusSpec(
            qplane_tmd,
            form_names=("dx", "dy"),
            rules={
                ("dx", "dx"): {},
                ("dy", "dy"): {},
                ("dx", "dy"): {("dy", "dx"): ctx.one},
            },
            top_degree=2,
        )


def test_words_above_top_degree_must_vanish(qplane_tmd):
    ctx = qplane_tmd.presentation.context
    with pytest.raises(ValueError, match="top degree"):
        CalculusSpec(
            qplane_tmd,
            form_names=("dx", "dy"),
            rules={("dy", "dx"): {("dx", "dy"): -ctx.one}},
            top_degree=2,
        )


def test_non_confluent_rules_rejected(sl2_3d_tmd):
    ctx = sl2_3d_tmd.presentation.context
    one = ctx.one
    rules = {
        ("a", "a"): {},
        ("b", "b"): {},
        ("c", "c"): {},
        ("b", "a"): {("a", "b"): one},
        ("c", "a"): {("a", "c"): one},
        # two-term right-hand side breaks the c.b.b overlap
        ("c", "b"): {("b", "c"): one, ("a", "c"): one},
    }
    with pytest.raises(ValueError, match="confluent"):
        CalculusSpec(sl2_3d_tmd, ("a", "b", "c"), rules, top_degree=3)


def test_declared_basis_must_match_rules(sl2_3d_tmd):
    with pytest.raises(ValueError, match="basis"):
        make = make_sl2_3d_calculus
        spec = make(sl2_3d_tmd)  # sanity: the good declaration loads
        CalculusSpec(
            sl2_3d_tmd,
            form_names=("w0", "w+", "w-"),
            form_order=("w-", "w0", "w+"),
            rules=dict.fromkeys(
                [("w0", "w0"), ("w+", "w+"), ("w-", "w-")], {}
            )
            | {
                ("w+", "w-"): {("w-", "w+"): -spec.context.parameter("q") ** 2},
                ("w0", "w-"): {("w-", "w0"): -spec.context.parameter("q") ** 4},
                ("w+", "w0"): {("w0", "w+"): -spec.context.parameter("q") ** 4},
            },
            top_degree=3,
            bases={2: [("w-", "w+"), ("w-", "w0")]},  # one word missing
        )


def test_d_value_must_be_degree_two(sl2_3d_tmd):
    q = sl2_3d_tmd.presentation.context.parameter("q")
    with pytest.raises(ValueError, match="degree-2"):
        CalculusSpec(
            sl2_3d_tmd,
            form_names=("w0", "w+", "w-"),
            form_order=("w-", "w0", "w+"),
            rules={
                ("w0", "w0"): {},
                ("w+", "w+"): {},
                ("w-", "w-"): {},
                ("w+", "w-"): {("w-", "w+"): -(q**2)},
                ("w0", "w-"): {("w-", "w0"): -(q**4)},
                ("w+", "w0"): {("w0", "w+"): -(q**4)},
            },
            d_on_forms={"w0": {("w-",): q}},
            top_degree=3,
        )


# -- d squared ----------------------------------------------------------------


def test_d_squared_vanishes_3d(sl2_3d_calc):
    report = check_d_squared(sl2_3d_calc, 5)
    assert report.ok
    assert report.counts["inputs"] == 94  # 91 normal words plus the three basis forms


def test_d_squared_vanishes_quantum_plane(qplane_calc):
    report = check_d_squared(qplane_calc, 6)
    assert report.ok
    assert report.counts["inputs"] == 30


def test_d_squared_catches_corrupted_differential(sl2, sl2_3d_tmd):
    q = sl2.context.parameter("q")
    q2, q4 = q**2, q**4
    corrupted = CalculusSpec(
        sl2_3d_tmd,
        form_names=("w0", "w+", "w-"),
        form_order=("w-", "w0", "w+"),
        rules={
            ("w0", "w0"): {},
            ("w+", "w+"): {},
            ("w-", "w-"): {},
            ("w+", "w-"): {("w-", "w+"): -q2},
            ("w0", "w-"): {("w-", "w0"): -q4},
            ("w+", "w0"): {("w0", "w+"): -q4},
        },
        # the q in front of w-.w+ is dropped
        d_on_forms={
            "w0": {("w-", "w+"): 1},
            "w+": {("w0", "w+"): q2 * (q2 + 1)},
            "w-": {("w-", "w0"): q2 * (q2 + 1)},
        },
        top_degree=3,
    )
    report = check_d_squared(corrupted, 2)
    assert not report.ok
    by_input = {f["input"]: f["witness"] for f in report.failures}
    assert by_input["alpha"] == parse_form(corrupted, "(1 - q)*alpha*w-.w+")


# -- density ------------------------------------------------------------------


def test_density_quantum_plane(qplane_calc):
    witness = check_density(qplane_calc, 1)
    assert witness is not None
    assert witness.holds()


def test_density_3d(sl2_3d_calc):
    witness = check_density(sl2_3d_calc, 2)
    assert witness is not None
    assert witness.holds()
    assert len(witness.pairs) == 3


def test_density_fails_for_zero_derivation(qplane):
    zero = qplane.zero
    rows = {"x": (zero, zero), "y": (zero, zero)}
    tmd = TwistedMultiDerivation(
        qplane,
        rows,
        identity_sigma(qplane, 2),
        identity_sigma(qplane, 2),
    )
    spec = CalculusSpec(
        tmd,
        form_names=("dx", "dy"),
        rules={
            ("dx", "dx"): {},
            ("dy", "dy"): {},
            ("dx", "dy"): {},
            ("dy", "dx"): {},
        },
        top_degree=1,
    )
    assert check_density(spec, 2) is None
