"""Hom-forms and the hom-connection on the two reference calculi: dual
pairing, module structure, published connection values, curvature with a
corrupted-constant negative control, and the table-read evaluations against
their generic definitions."""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intforms import cli, dga, homconn, suites
from intforms.dga import FormElement
from intforms.homconn import (
    DegreeMismatch,
    HomForm,
    curvature,
    dual_basis,
    dual_form,
    hom_apply,
    hom_mul_form,
    hom_right_act,
    is_flat,
    nabla,
    twisted_partial,
)
from intforms.presets import REGISTRY, load_calc
from intforms.suites import Options

from conftest import random_element


# -- evaluation and module structure ---------------------------------------


def test_dual_pairing(qplane, qplane_calc, sl2, sl2_3d_calc):
    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        duals = dual_basis(spec, 1)
        for i, f in enumerate(duals):
            for j, w in enumerate(spec.basis(1)):
                want = pres.one if i == j else pres.zero
                assert f(spec.basis_form(w)) == want


def test_apply_zero_and_degree_guard(sl2, sl2_3d_calc):
    phi0 = dual_form(sl2_3d_calc, ("w-", "w+"))
    assert phi0(sl2_3d_calc.zero(2)) == sl2.zero
    with pytest.raises(DegreeMismatch):
        phi0(sl2_3d_calc.basis_form("w0"))


def test_apply_moves_left_coefficients_right(sl2, sl2_3d_calc):
    # alpha*w0 = w0*q^2*alpha, so the dual of w0 picks up the twist
    q = sl2.context.parameter("q")
    alpha = sl2.gen("alpha")
    xi0 = dual_form(sl2_3d_calc, "w0")
    assert xi0(alpha * sl2_3d_calc.basis_form("w0")) == q**2 * alpha


def test_right_action_3d_oracle(sl2, sl2_3d_calc):
    q = sl2.context.parameter("q")
    alpha = sl2.gen("alpha")
    acted = dual_form(sl2_3d_calc, "w0") * alpha
    assert acted(sl2_3d_calc.basis_form("w0")) == q**2 * alpha
    assert acted(sl2_3d_calc.basis_form("w+")) == sl2.zero
    assert acted(sl2_3d_calc.basis_form("w-")) == sl2.zero


def test_right_action_is_module_action(qplane, qplane_calc, sl2, sl2_3d_calc):
    rng = random.Random(29)
    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        f = dual_form(spec, spec.basis(1)[-1])
        assert f * pres.one == f
        for _ in range(8):
            a = random_element(pres, rng, max_len=2)
            b = random_element(pres, rng, max_len=2)
            assert (f * a) * b == f * (a * b)


def test_mul_form_quantum_plane(qplane, qplane_calc):
    ctx = qplane.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    spec = qplane_calc
    xi = dual_form(spec, ("dx", "dy"))
    assert xi * spec.basis_form("dx") == dual_form(spec, "dy")
    assert xi * spec.basis_form("dy") == HomForm(spec, 1, {"dx": -p / q})


def test_mul_form_3d(sl2, sl2_3d_calc):
    q = sl2.context.parameter("q")
    spec = sl2_3d_calc
    phi = dual_form(spec, ("w-", "w0", "w+"))
    lowered = phi * spec.basis_form("w-")
    assert lowered(spec.basis_form(("w0", "w+"))) == sl2.one
    assert lowered(spec.basis_form(("w-", "w0"))) == sl2.zero
    # w0 anticommutes past w- at cost -q^4
    assert phi * spec.basis_form("w0") == HomForm(spec, 2, {("w-", "w+"): -(q**4)})


def test_mul_form_degree_guard(qplane_calc):
    xi_x = dual_form(qplane_calc, "dx")
    with pytest.raises(DegreeMismatch):
        hom_mul_form(qplane_calc, xi_x, qplane_calc.basis_form("dx"))


def test_homform_construction_guards(qplane_calc, sl2_3d_calc):
    with pytest.raises(DegreeMismatch):
        HomForm(qplane_calc, 3, {})
    with pytest.raises(ValueError):
        HomForm(sl2_3d_calc, 2, {("w+", "w-"): 1})


def test_kernels_build_hom_forms_without_rechecking(monkeypatch, sl2, sl2_3d_calc):
    spec = sl2_3d_calc
    alpha, delta = sl2.gen("alpha"), sl2.gen("delta")
    f = HomForm(spec, 1, {"w0": alpha, "w-": sl2.one})
    g = HomForm(spec, 2, {w: delta for w in spec.basis(2)})
    built = []
    real_init = HomForm.__init__

    def counted(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(HomForm, "__init__", counted)
    outputs = [
        hom_right_act(spec, f, alpha * delta),
        hom_right_act(spec, f, 0),
        nabla(spec, g),
        f + f * alpha,
        -f,
        f - f,
    ]
    assert built == []
    for h in outputs:
        assert set(h.terms) <= set(spec.basis(h.degree))
        assert all(h.terms.values())
    assert outputs[1].is_zero() and outputs[5].is_zero()
    # the public constructor keeps its checks
    with pytest.raises(ValueError, match="not a degree-2 basis word"):
        HomForm(spec, 2, {"w0": 1})
    with pytest.raises(ValueError, match="not a degree-1 basis word"):
        HomForm(spec, 1, {("w0", "w0"): alpha})
    assert len(built) == 2


def test_homform_display(sl2, sl2_3d_calc):
    f = HomForm(sl2_3d_calc, 1, {"w0": sl2.gen("alpha"), "w-": sl2.one})
    assert str(f) == "w- := 1, w0 := alpha"
    assert str(HomForm(sl2_3d_calc, 1, {})) == "0"


# -- the connection --------------------------------------------------------


def test_nabla_kills_duals(qplane, qplane_calc, sl2, sl2_3d_calc):
    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        for f in dual_basis(spec, 1):
            assert nabla(spec, f) == pres.zero


def test_nabla_3d_diagonal_shortcut(sl2, sl2_3d_tmd, sl2_3d_calc):
    q = sl2.context.parameter("q")
    spec = sl2_3d_calc
    weights = {"w0": q**0, "w+": q**-2, "w-": q**2}
    rng = random.Random(62)
    for _ in range(10):
        f = HomForm(
            spec, 1, {w: random_element(sl2, rng) for w in spec.basis(1)}
        )
        want = sl2.zero
        for name, weight in weights.items():
            row = sl2_3d_tmd.partial(f(spec.basis_form(name)))
            want = want + weight * row[spec.index(name)]
        assert nabla(spec, f) == want


def test_nabla_quantum_plane_closed_form(qplane, qplane_calc):
    ctx = qplane.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    x, y = qplane.gen("x"), qplane.gen("y")
    xi_y = dual_form(qplane_calc, "dy")
    for r in range(4):
        for s in range(4):
            f = xi_y * (x**r * y ** (s + 1))
            scale = p ** -(r + s) * q**r * (p ** (s + 1) - 1) / (p - 1)
            assert nabla(qplane_calc, f) == scale * (x**r * y**s)


def test_leibniz(qplane, qplane_calc, sl2, sl2_3d_calc):
    rng = random.Random(7)
    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        for _ in range(20):
            word = rng.choice(spec.basis(1))
            f = HomForm(spec, 1, {word: random_element(pres, rng)})
            a = random_element(pres, rng)
            lhs = nabla(spec, f * a)
            rhs = nabla(spec, f) * a + f(dga.d(spec, a))
            assert lhs == rhs


def test_uniqueness_identity(qplane, qplane_calc, sl2, sl2_3d_calc):
    # any hom-form is recovered from the duals: f = sum xi_i * sigma_hat_ik(f(w_k))
    rng = random.Random(19)
    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        hat = spec.tmd.sigma_hat
        for _ in range(6):
            f = HomForm(
                spec, 1, {w: random_element(pres, rng) for w in spec.basis(1)}
            )
            total = HomForm(spec, 1, {})
            for i in range(spec.n):
                xi = dual_form(spec, (i,))
                for k in range(spec.n):
                    total = total + xi * hat.entry(i, k, f.terms.get((k,), pres.zero))
            assert total == f


# -- higher levels, curvature, flatness -------------------------------------


def test_nabla1_3d_values(sl2, sl2_3d_calc):
    q = sl2.context.parameter("q")
    spec = sl2_3d_calc
    phi0 = dual_form(spec, ("w-", "w+"))
    phip = dual_form(spec, ("w-", "w0"))
    phim = dual_form(spec, ("w0", "w+"))
    assert nabla(spec, phi0) == HomForm(spec, 1, {"w0": q})
    assert nabla(spec, phip) == HomForm(spec, 1, {"w-": q**2 * (q**2 + 1)})
    assert nabla(spec, phim) == HomForm(spec, 1, {"w+": q**2 * (q**2 + 1)})


def test_nabla1_quantum_plane_top_dual(qplane_calc):
    xi = dual_form(qplane_calc, ("dx", "dy"))
    assert nabla(qplane_calc, xi).is_zero()


def test_nabla2_3d(sl2, sl2_3d_calc):
    spec = sl2_3d_calc
    phi = dual_form(spec, ("w-", "w0", "w+"))
    assert nabla(spec, phi).is_zero()
    rng = random.Random(88)
    for _ in range(6):
        a = random_element(sl2, rng, max_len=2)
        assert nabla(spec, phi * a) == phi * dga.d(spec, a)


def test_nabla_n_guards(qplane_calc, sl2_3d_calc):
    # the level is the degree less one, so the guards are the degrees a
    # hom-form can have: 1..top, each a level with its own output
    for spec in (qplane_calc, sl2_3d_calc):
        for degree in range(1, spec.top_degree + 1):
            value = nabla(spec, dual_basis(spec, degree)[0])
            assert value.is_zero() or degree > 1
            assert getattr(value, "degree", 0) == degree - 1
        with pytest.raises(DegreeMismatch):
            HomForm(spec, spec.top_degree + 1, {})


def test_degree_zero_hom_forms_are_refused(qplane, qplane_calc):
    # I_0 is the algebra, held as an element, so nabla needs no level guard
    for build in (
        lambda: HomForm(qplane_calc, 0, {(): qplane.one}),
        lambda: HomForm(qplane_calc, 0, {}),
        lambda: HomForm(qplane_calc, -1, {}),
        lambda: dual_form(qplane_calc, ()),
    ):
        with pytest.raises(DegreeMismatch, match="no hom-forms in degree"):
            build()


def test_flatness_reports(qplane_calc, sl2_3d_calc):
    for spec in (qplane_calc, sl2_3d_calc):
        report = is_flat(spec)
        assert report.ok
        assert not report.failures
        assert len(report.checks) == len(spec.basis(2))


def test_curvature_right_linear(qplane, qplane_calc, sl2, sl2_3d_calc):
    rng = random.Random(53)
    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        for _ in range(5):
            f = HomForm(
                spec, 2, {w: random_element(pres, rng, max_len=2) for w in spec.basis(2)}
            )
            a = random_element(pres, rng, max_len=2)
            assert curvature(spec, f * a) == curvature(spec, f) * a


def test_curvature_refuses_a_degree_one_hom_form(qplane_calc, sl2_3d_calc):
    # nabla sends degree 1 to an element, which a second nabla cannot take
    with pytest.raises(DegreeMismatch, match="got degree 1"):
        curvature(qplane_calc, dual_form(qplane_calc, "dx"))
    # above degree 2 it is nabla twice, a hom-form two degrees lower
    value = curvature(sl2_3d_calc, dual_form(sl2_3d_calc, ("w-", "w0", "w+")))
    assert value.degree == 1 and value.is_zero()


def test_corrupted_connection_detected(sl2, sl2_3d_tmd, sl2_3d_calc):
    # replace the q^-2 weight by q^-1; the Leibniz rule breaks and the
    # curvature picks it up on a right-translate of a dual form
    q = sl2.context.parameter("q")
    spec, tmd = sl2_3d_calc, sl2_3d_tmd
    weights = {"w0": q**0, "w+": q**-1, "w-": q**2}

    def bad_nabla(f):
        total = sl2.zero
        for name, weight in weights.items():
            row = tmd.partial(f(spec.basis_form(name)))
            total = total + weight * row[spec.index(name)]
        return total

    def bad_nabla1(f):
        values = {}
        for e in spec.basis(1):
            unit = FormElement(spec, 1, {e: sl2.one})
            values[e] = bad_nabla(f * unit) + f(dga.d(spec, unit))
        return HomForm(spec, 1, values)

    alpha, beta = sl2.gen("alpha"), sl2.gen("beta")
    phi0 = dual_form(spec, ("w-", "w+"))
    # scalar values hide the corruption on the duals themselves
    assert bad_nabla(bad_nabla1(phi0)) == sl2.zero
    assert bad_nabla(bad_nabla1(phi0 * alpha)) == q**3 * (1 - q) * alpha
    assert curvature(spec, phi0 * alpha) == sl2.zero
    xip = dual_form(spec, "w+")
    assert bad_nabla(xip * alpha) == -q * beta
    assert bad_nabla(xip) * alpha + xip(dga.d(spec, alpha)) == -beta


# -- the connection's check rows, seen failing --------------------------------


def test_product_rule_row_fails_on_a_wrong_inverse():
    # qplane's 'sigma inverse 1' with y -> y: sigma-hat, and with it the
    # kernel T, is wrong, and the product rule breaks at the second sample
    source = REGISTRY["qplane"].source
    assert source.count("y -> q^-1*y") == 1
    bundle = load_calc(source.replace("y -> q^-1*y", "y -> y"))
    got = suites.run_checks(suites._nabla_checks(bundle, Options(max_len=2, cases=5)))
    assert [(row["status"], row["witness"]) for row in got] == [
        ("pass", None),
        ("fail", "case 1: ((-9*q^2*p^2 + 9*q*p^2 + 9*q^2 - 9*q + 9*p + 9)/p)*x*y"
                 " + ((-3*q^2*p^2 + 3*q*p^2 + 3*q^2 - 3*q + 3*p + 3)/p)*y + 3*x + 1"
                 " versus ((9*p + 9)/p)*x*y + ((3*p + 3)/p)*y + 3*x + 1"),
    ]


def test_dual_row_fails_on_a_patched_kernel_row(monkeypatch):
    """The "connection kills every dual one-form" row, seen failing.

    No datum reaches this row: nabla of the dual of omega_i is T_i(1), and
    T_i(1) is the zero row that seeds every `_fill_rows` memo, whatever the
    partial rows and sigma say.  So the seed of the kernel memo is patched,
    on a freshly loaded bundle, whose memo no other test shares.
    """
    bundle = load_calc(REGISTRY["qplane"].source)
    pres = bundle.presentation
    monkeypatch.setitem(bundle.tmd._kernel_memo, (), (pres.one, pres.zero))
    got = suites.run_checks(suites._nabla_checks(bundle, Options(max_len=2, cases=5)))
    assert (got[0]["status"], got[0]["witness"]) == ("fail", "dual of dx maps to 1")


# -- hom-forms of another calculus ------------------------------------------


def test_foreign_hom_forms_are_rejected(qplane, qplane_calc, sl2_3d_calc):
    spec = qplane_calc
    one = dual_form(sl2_3d_calc, "w0")
    two = dual_form(sl2_3d_calc, ("w-", "w+"))
    calls = (
        lambda: nabla(spec, one),
        lambda: nabla(spec, two),
        lambda: hom_apply(spec, one, spec.basis_form("dx")),
        lambda: hom_right_act(spec, one, qplane.gen("x")),
        lambda: hom_mul_form(spec, two, spec.basis_form("dx")),
    )
    for call in calls:
        with pytest.raises(ValueError, match="same calculus"):
            call()


# -- table reads against the generic definitions ----------------------------


@st.composite
def values(draw, pres, max_len=3):
    """An element of one to three terms: normal words with small int scalars."""
    words = pres.normal_words(max_len)
    terms = draw(st.lists(
        st.tuples(st.sampled_from(words), st.integers(-3, 3).filter(bool)),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[0],
    ))
    return pres.element(dict(terms))


def _hom_form(data, spec, degree):
    pres = spec.presentation
    return HomForm(spec, degree, {w: data.draw(values(pres)) for w in spec.basis(degree)})


def _generic_nabla_n(spec, n, f):
    pres = spec.presentation
    sign = (-1) ** (n + 1)
    out = {}
    for e in spec.basis(n):
        unit = FormElement(spec, n, {e: pres.one})
        val = nabla(spec, hom_mul_form(spec, f, unit))
        val = val + sign * hom_apply(spec, f, dga.d(spec, unit))
        if val:
            out[e] = val
    return HomForm(spec, n, out)


def _generic_apply(spec, f, omega):
    pres = spec.presentation
    total = pres.zero
    for w, c in dga.right_coords(spec, omega).items():
        total = total + f.terms.get(w, pres.zero) * c
    return total


@pytest.fixture(scope="module")
def sl2_alpha_d_calc():
    # sl2-3d with alpha in d w0: the right coordinates of d e no longer
    # commute with a hom-form's values, so the order of f(b)*S shows
    source = REGISTRY["sl2-3d"].source
    return load_calc(source.replace("d w0 = q * w-.w+", "d w0 = q * alpha * w-.w+")).spec


@pytest.mark.parametrize(
    "fixture, n",
    [
        ("sl2_3d_calc", 0),
        ("sl2_3d_calc", 1),
        ("sl2_3d_calc", 2),
        ("qplane_calc", 0),
        ("qplane_calc", 1),
        ("sl2_alpha_d_calc", 1),
    ],
)
@given(data=st.data(), row=st.booleans())
@settings(max_examples=30, deadline=None)
def test_nabla_n_table_matches_the_generic_extension(request, fixture, n, data, row):
    # dense random hom-forms, and the ladder's row shape: one basis word
    # carrying one normal word; the table-read kernel at every level, level
    # 0 against the kernel rows T_i read directly
    spec = request.getfixturevalue(fixture)
    pres = spec.presentation
    if row:
        word = data.draw(st.sampled_from(spec.basis(n + 1)))
        u = data.draw(st.sampled_from(pres.normal_words(3)))
        c = data.draw(st.integers(-3, 3).filter(bool))
        f = HomForm(spec, n + 1, {word: pres.monomial(u, coeff=c)})
    else:
        f = _hom_form(data, spec, n + 1)
    if n == 0:
        want = pres.zero
        for (i,), value in f.terms.items():
            want = want + twisted_partial(spec, i, value)
    else:
        want = _generic_nabla_n(spec, n, f)
    values = {b: value.terms for b, value in f.terms.items()}
    assert homconn._value(spec, n, homconn._nabla_level(spec, n, values)) == want
    assert nabla(spec, f) == want


@pytest.mark.parametrize("fixture", ["sl2_3d_calc", "qplane_calc"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_hom_evaluation_matches_right_coords(request, fixture, data):
    spec = request.getfixturevalue(fixture)
    pres = spec.presentation
    degree = data.draw(st.integers(1, spec.top_degree))
    f = _hom_form(data, spec, degree)
    omega = spec.form(degree, {w: data.draw(values(pres)) for w in spec.basis(degree)})
    assert hom_apply(spec, f, omega) == _generic_apply(spec, f, omega)
    a = data.draw(values(pres))
    acted = hom_right_act(spec, f, a)
    for e in spec.basis(degree):
        assert acted.terms.get(e, pres.zero) == _generic_apply(
            spec, f, FormElement(spec, degree, {e: a})
        )


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_nabla_is_linear_over_rational_scalars(qplane_calc, data):
    # scalars are central, so nabla(f*(c*a)) == c*nabla(f*a) with c on the
    # rational path: a denominator that is not a monomial
    spec = qplane_calc
    pres = spec.presentation
    q, p = pres.context.parameter("q"), pres.context.parameter("p")
    k = data.draw(st.integers(1, 3))
    denom = data.draw(st.sampled_from([p**k - 1, q**k - 1, q - p, q + p**k]))
    numer = data.draw(st.integers(-3, 3).filter(bool)) * q ** data.draw(
        st.integers(-2, 2)
    ) * p ** data.draw(st.integers(-2, 2)) + data.draw(st.integers(-2, 2))
    c = numer / denom
    assume(c._terms is None)  # the reduced denominator is not a monomial
    f = _hom_form(data, spec, 1)
    a = data.draw(values(pres))
    assert nabla(spec, f * (c * a)) == c * nabla(spec, f * a)


def test_nabla_n_table_has_one_entry_per_level_and_word(cold_preset, capsys):
    preset = cold_preset("sl2-3d")
    assert cli.main(["verify", "preset:sl2-3d", "--max-len", "3"]) == 0
    capsys.readouterr()
    # the level tables, built once per level from 0 to top-1, hold each
    # source e once: one triple per basis word of e.(i,), one pair per right
    # coordinate of d e, and no pair at level 0, where d 1 = 0
    spec = preset.load().spec
    assert sorted(spec._levels) == list(range(spec.top_degree))
    for n, (lift, pair) in spec._levels.items():
        triples = Counter((e, i, b) for b, rows in lift.items() for e, i, _ in rows)
        assert triples == Counter((e, i, b) for e in spec.basis(n) for i in range(spec.n)
                                  for b in spec.reduce_word(e + (i,)))
        pairs = Counter((e, b) for b, rows in pair.items() for e, _ in rows)
        assert pairs == Counter((e, b) for e in spec.basis(n)
                                for b in dga._right_terms(spec, dga._d_word(spec, e)))
    assert not spec._levels[0][1] and spec._levels[1][1]
