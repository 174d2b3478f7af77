"""Descent to the quantum sphere: projective data, connection, ladder."""

from __future__ import annotations

import collections
import functools
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intforms import descent, dga, ncalg, suites
from intforms.descent import (
    BHomForm,
    SphereData,
    check_sphere_ladder,
    fhat_crosscheck,
    nabla_coH,
    nabla_coH_1,
    psi,
    psi_inv,
    sphere_fixtures,
    sphere_flatness,
    theta,
    theta_star,
)
from intforms.dga import FormElement
from intforms.homconn import DegreeMismatch
from intforms.integrals import sl2_lambda
from intforms.ncalg import TensorElement, coproduct, zdegree
from intforms.presets import load_calc


@pytest.fixture(scope="module")
def sphere(sl2_3d_calc):
    return SphereData(sl2_3d_calc)


def corners(pres):
    return tuple(pres.gen(g) for g in ("alpha", "beta", "gamma", "delta"))


def invariant_sample(pres, rng, max_len=4, terms=2):
    words = pres.normal_words(max_len, degree=0)
    out = pres.zero
    for _ in range(terms):
        out = out + pres.monomial(rng.choice(words), rng.randint(1, 5))
    return out


def random_functional(sphere, rng):
    pres = sphere.presentation
    plus = [invariant_sample(pres, rng, max_len=2) for _ in range(3)]
    minus = [invariant_sample(pres, rng, max_len=2) for _ in range(3)]
    return BHomForm.from_coordinates(sphere, plus, minus)


def test_needs_sl2(qplane_calc):
    with pytest.raises(ValueError, match="SL"):
        SphereData(qplane_calc)


def test_determinant_identities(sphere, sl2):
    assert all(c["ok"] for c in sphere.determinant_checks())
    direct = sl2.zero
    weighted = sl2.zero
    for b, a, w in zip(sphere.minus_coeffs, sphere.plus_coeffs, sphere.plus_weights):
        direct = direct + b * a
        weighted = weighted + w * (a * b)
    assert direct == sl2.one
    assert weighted == sl2.one


def test_corrupted_weight_fails_determinant(sl2_3d_calc):
    bad = SphereData(sl2_3d_calc)
    q = bad.q
    bad.plus_weights = (bad.plus_weights[0], q**-3, bad.plus_weights[2])
    checks = bad.determinant_checks()
    assert checks[0]["ok"]
    assert not checks[1]["ok"]
    assert checks[1]["witness"]


def test_dual_value_table(sphere):
    """Pairings between the generators and their duals, both summands."""
    for i in range(3):
        wd = sphere.plus_dual(i)
        ud = sphere.minus_dual(i)
        for j in range(3):
            want = sphere.plus_weights[i] * (
                sphere.minus_coeffs[i] * sphere.plus_coeffs[j]
            )
            assert wd(sphere.plus_generators[j]) == want
            assert not wd(sphere.minus_generators[j])
            assert ud(sphere.minus_generators[j]) == (
                sphere.plus_coeffs[i] * sphere.minus_coeffs[j]
            )
            assert not ud(sphere.plus_generators[j])


def test_dual_basis_reproduction(sphere):
    assert all(c["ok"] for c in sphere.reproduction_checks())


def test_module_generator_dictionary(sphere):
    """The left-coefficient spellings match the projective generators.

    Sliding an invariant-degree coefficient through a form letter costs a
    grade scale, so each spelling is a scalar multiple of a generator; this
    pins all six scalars.
    """
    pres = sphere.presentation
    q = sphere.q
    for k, (gens, index, scale) in enumerate(
        (
            ((sphere.minus_generators), 0, q**2),
            ((sphere.minus_generators), 2, q**2),
            ((sphere.minus_generators), 1, q**2),
            ((sphere.plus_generators), 1, q**-4),
            ((sphere.plus_generators), 2, -(q**-2) / (q + q**-1)),
            ((sphere.plus_generators), 0, q**-2),
        )
    ):
        assert sphere.module_generators[k] == gens[index] * pres.scalar(scale), k


def test_values_must_be_invariant(sphere, sl2):
    alpha = sl2.gen("alpha")
    zeros = (sl2.zero,) * 3
    with pytest.raises(DegreeMismatch):
        BHomForm(sphere, 1, (alpha, sl2.zero, sl2.zero), zeros)
    with pytest.raises(DegreeMismatch):
        BHomForm.top(sphere, alpha)


def test_from_values_consistency_guard(sphere, sl2):
    honest = sphere.plus_dual(0)
    rebuilt = BHomForm.from_values(sphere, honest.plus_values, honest.minus_values)
    assert rebuilt == honest
    with pytest.raises(ValueError, match="dual-basis expansion"):
        BHomForm.from_values(sphere, (sl2.one, sl2.zero, sl2.zero), (sl2.zero,) * 3)


def test_functional_algebra(sphere, sl2):
    f = sphere.plus_dual(0)
    g = sphere.minus_dual(2)
    assert f + g - f == g
    assert (-f).plus_values[0] == -f.plus_values[0]
    assert f != g
    assert not (f - f)
    with pytest.raises(DegreeMismatch):
        f + sphere.top_dual()
    assert str(BHomForm.from_coordinates(sphere)) == "0"
    assert "top" in str(theta_star(sphere, sl2.one))


def test_evaluation_is_right_linear(sphere, sl2):
    rng = random.Random(11)
    for _ in range(6):
        f = random_functional(sphere, rng)
        gen = rng.choice(sphere.module_generators)
        b = invariant_sample(sl2, rng)
        c = invariant_sample(sl2, rng)
        omega = gen * b
        assert f(omega * c) == f(omega) * c
        assert (f * c)(omega) == f(c * omega)
        assert (f * b) * c == f * (b * c)


def test_right_action_stays_invariant(sphere, sl2):
    alpha = sl2.gen("alpha")
    with pytest.raises(DegreeMismatch):
        sphere.plus_dual(0) * alpha
    with pytest.raises(DegreeMismatch):
        sphere.top_dual() * alpha


def test_nabla_on_dual_generators(sphere, sl2):
    """The connection sends each dual to a scaled derivation of its coefficient."""
    q = sphere.q
    tmd = sphere.spec.tmd
    for i in range(3):
        want = (sphere.plus_weights[i] * q**-2) * tmd.partial(
            sphere.minus_coeffs[i]
        )[sphere.plus]
        assert nabla_coH(sphere, sphere.plus_dual(i)) == want
        want = (q**2) * tmd.partial(sphere.plus_coeffs[i])[sphere.minus]
        assert nabla_coH(sphere, sphere.minus_dual(i)) == want
    beta, alpha = sl2.gen("beta"), sl2.gen("alpha")
    frozen = (-(q**-2) * (1 + q * q)) * (beta * alpha)
    assert nabla_coH(sphere, sphere.plus_dual(0)) == frozen


def test_nabla_zero_and_degree(sphere, sl2):
    zero = BHomForm.from_coordinates(sphere)
    assert nabla_coH(sphere, zero) == sl2.zero
    rng = random.Random(23)
    for _ in range(5):
        out = nabla_coH(sphere, random_functional(sphere, rng))
        assert zdegree(out) in (None, 0)


def test_nabla_leibniz(sphere, sl2):
    """nabla(f*b) = nabla(f)*b + f(db) over the invariant generators."""
    rng = random.Random(5)
    alpha, beta, gamma, delta = corners(sl2)
    samples = [alpha * beta, gamma * delta, beta * gamma]
    fs = list(sphere.dual_basis()) + [random_functional(sphere, rng) for _ in range(3)]
    for f in fs:
        for b in samples:
            lhs = nabla_coH(sphere, f * b)
            rhs = nabla_coH(sphere, f) * b + f(dga.d(sphere.spec, b))
            assert lhs == rhs


def test_fixtures_match_hopf_data(sphere, sl2):
    alpha, beta, gamma, delta = corners(sl2)
    q = sphere.q
    fx = sphere_fixtures(sl2)
    assert fx["alpha^2"] == coproduct(sl2, alpha * alpha)
    assert fx["delta^2"] == coproduct(sl2, delta * delta)
    want = (
        TensorElement.of(alpha * alpha, alpha * alpha)
        + TensorElement.of(beta * alpha, alpha * gamma, q + q**-1)
        + TensorElement.of(beta * beta, gamma * gamma)
    )
    assert fx["alpha^2"] == want
    want = (
        TensorElement.of(gamma * gamma, beta * beta)
        + TensorElement.of(delta * gamma, beta * delta, q + q**-1)
        + TensorElement.of(delta * delta, delta * delta)
    )
    assert fx["delta^2"] == want


def test_crosscheck_dual_basis(sphere):
    for i in range(6):
        report = fhat_crosscheck(sphere, i)
        assert report.ok, report.failures
    assert fhat_crosscheck(sphere, BHomForm.from_coordinates(sphere)).ok


def counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_suite_crosscheck_reads_its_inputs_once(monkeypatch, sl2_3d_calc):
    # six duals share one fixture read and the two cached coproducts
    calls = collections.Counter()
    counted = functools.partial(counting, calls)
    monkeypatch.setattr(suites, "sphere_fixtures", counted("fixtures", suites.sphere_fixtures))
    monkeypatch.setattr(descent, "sphere_fixtures", counted("fixtures", descent.sphere_fixtures))
    monkeypatch.setattr(descent, "coproduct", counted("coproduct", descent.coproduct))
    checks = dict(suites._sphere_checks(SphereData(sl2_3d_calc), None))
    assert checks["double route to the connection agrees on every dual"]() is None
    assert calls == {"fixtures": 1, "coproduct": 2}


def test_connection_evaluates_no_hopf_map(monkeypatch, sl2_3d_calc):
    # a fresh sphere has no cached coproducts, so any Hopf use would show
    calls = collections.Counter()
    for module in (descent, ncalg):
        for name in ("coproduct", "antipode"):
            monkeypatch.setattr(module, name, counting(calls, name, getattr(module, name)))
    fresh = SphereData(sl2_3d_calc)
    rng = random.Random(11)
    for f in (*fresh.dual_basis(), random_functional(fresh, rng)):
        nabla_coH(fresh, f)
    nabla_coH_1(fresh, fresh.top_dual())
    assert calls == {}
    assert fhat_crosscheck(fresh, 0).ok
    assert calls["coproduct"] == 2 and calls["antipode"] > 0


@st.composite
def coordinate_functionals(draw, sphere):
    """from_coordinates on six degree-0 normal words (length <= 4) times
    small integers, zero included."""
    pres = sphere.presentation
    words = pres.normal_words(4, degree=0)
    coords = [
        pres.monomial(draw(st.sampled_from(words)), draw(st.integers(-3, 3)))
        for _ in range(6)
    ]
    return BHomForm.from_coordinates(sphere, coords[:3], coords[3:])


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_dual_basis_route_equals_the_sweedler_route(sphere, data):
    f = data.draw(coordinate_functionals(sphere))
    got = nabla_coH(sphere, f)
    letter_values = (f.value_on_plus(None), f.value_on_minus(None))
    fixtures = sphere_fixtures(sphere.presentation)
    for squares in (
        sphere._sweedler_squares,
        (fixtures["alpha^2"], fixtures["delta^2"]),
    ):
        fhat = descent._fhat_values(sphere, f, squares)
        assert fhat == letter_values
        assert descent._nabla_from_letter_values(sphere, *fhat) == got


def test_crosscheck_catches_a_negated_antipode():
    text = resources.files("intforms").joinpath("data", "sl2_3d.calc").read_text()
    line = "antipode: alpha = delta"
    assert text.count(line + "\n") == 1
    bundle = load_calc(text.replace(line + "\n", "antipode: alpha = -delta\n"))
    bad = SphereData(bundle.spec)
    alpha = bad.presentation.gen("alpha")
    assert ncalg.antipode(bad.presentation, alpha) == -bad.presentation.gen("delta")
    report = fhat_crosscheck(bad, 0)
    assert not report.ok
    # the fixtures still match the coproducts, and the dual-basis route
    # needs no antipode: the Sweedler sum is what breaks
    failed = [c["name"] for c in report.failures]
    assert "translation route equals the written-out formula" in failed
    assert "dual-basis extension equals the translation route" in failed
    assert not any(name.startswith("fixture coproduct") for name in failed)
    f = bad.plus_dual(0)
    assert nabla_coH(bad, f) == descent._nabla_written_out(bad, f)


@pytest.mark.parametrize(
    "old, new, witness",
    [
        ("antipode: alpha = delta", "antipode: alpha = -delta",
         "dual 0: translation route equals the written-out formula: "),
        ("coproduct: alpha = alpha @ alpha + beta @ gamma",
         "coproduct: alpha = alpha @ alpha - beta @ gamma",
         "dual 0: fixture coproduct of alpha^2 matches the Hopf data: "),
    ],
    ids=["antipode", "coproduct"],
)
def test_double_route_row_fails_on_a_hopf_edit(old, new, witness):
    # a broken [hopf] line fails the row that compares the Hopf data's
    # route to the connection with the fixtures' and the written-out one
    text = resources.files("intforms").joinpath("data", "sl2_3d.calc").read_text()
    assert text.count(old + "\n") == 1
    bad = SphereData(load_calc(text.replace(old + "\n", new + "\n")).spec)
    rows = suites.run_checks(suites._sphere_checks(bad, suites.Options(max_len=2, cases=5)))
    failed = [row for row in rows if row["status"] != "pass"]
    assert [row["name"] for row in failed] == ["double route to the connection agrees on every dual"]
    assert failed[0]["status"] == "fail" and failed[0]["witness"].startswith(witness)


def test_crosscheck_random_functionals(sphere):
    rng = random.Random(17)
    for _ in range(3):
        assert fhat_crosscheck(sphere, random_functional(sphere, rng)).ok


def test_crosscheck_detects_corrupted_coproduct(sphere, sl2):
    """Dropping a Sweedler component splits the two routes."""
    alpha, beta, gamma, delta = corners(sl2)
    good = (coproduct(sl2, alpha * alpha), coproduct(sl2, delta * delta))
    terms = dict(good[0].terms)
    del terms[next(k for k in terms if len(set(k[0])) == 2)]
    bad = (TensorElement(sl2, terms), good[1])
    f = sphere.plus_dual(0)
    honest = descent._nabla_from_letter_values(
        sphere, *descent._fhat_values(sphere, f, good)
    )
    broken = descent._nabla_from_letter_values(
        sphere, *descent._fhat_values(sphere, f, bad)
    )
    assert honest == nabla_coH(sphere, f)
    assert broken != honest


def test_crosscheck_reports_broken_weights(sl2_3d_calc):
    bad = SphereData(sl2_3d_calc)
    q = bad.q
    bad.plus_weights = (bad.plus_weights[0], q**-3, bad.plus_weights[2])
    report = fhat_crosscheck(bad, 0)
    assert not report.ok
    assert any("determinant" in c["name"] for c in report.failures)
    assert report.first_failure().startswith(report.failures[0]["name"])


def test_sphere_d_values(sphere, sl2):
    alpha, beta, gamma, delta = corners(sl2)
    spec = sphere.spec
    q = sphere.q

    def d(x, y):
        # d of the one-form x*minus + y*plus, with left coefficients x, y
        terms = {(sphere.minus,): x, (sphere.plus,): y}
        return dga.d(spec, FormElement(spec, 1, {w: c for w, c in terms.items() if c}))

    x = alpha * alpha
    y = (-(q * q)) * (beta * beta)
    # the one-form with these coefficients is exact, so its d vanishes
    assert d(x, y).is_zero()
    frozen = (-(1 + q * q)) * (beta * alpha)
    assert spec.tmd.partial(x)[sphere.plus] == frozen
    word = (sphere.minus, sphere.plus)
    assert d(x, sl2.zero) == FormElement(spec, 2, {word: (-(q * q)) * frozen})
    assert d(sl2.zero, sl2.zero).is_zero()


def test_sphere_d_matches_ambient_differential(sphere, sl2):
    """On sphere one-forms the ambient d has a single basis coefficient.

    The vertical components must cancel.  On the wedge of plus and minus
    the surviving coefficient of d(x*minus + y*plus) is
    partial(x)[plus] - q^-2 partial(y)[minus]; the stored basis word runs
    the other way round and differs by -q^2.
    """
    rng = random.Random(3)
    spec = sphere.spec
    partial = spec.tmd.partial
    q = sphere.q
    word = (sphere.minus, sphere.plus)
    for gen in sphere.module_generators:
        omega = gen * invariant_sample(sl2, rng)
        x = omega.terms.get((sphere.minus,), sl2.zero)
        y = omega.terms.get((sphere.plus,), sl2.zero)
        wedge = partial(x)[sphere.plus] - (q**-2) * partial(y)[sphere.minus]
        assert dga.d(spec, omega) == FormElement(spec, 2, {word: (-(q * q)) * wedge})


def test_evaluation_guards(sphere, sl2_3d_calc):
    spec = sl2_3d_calc
    pres = spec.presentation
    f = sphere.plus_dual(0)
    vertical = next(
        i for i in range(3) if i not in (sphere.plus, sphere.minus)
    )
    with pytest.raises(DegreeMismatch, match="component"):
        f(FormElement(spec, 1, {(vertical,): pres.one}))
    with pytest.raises(DegreeMismatch):
        f(spec.basis_form((sphere.minus, sphere.plus)))
    with pytest.raises(DegreeMismatch, match="Z-degree"):
        f(FormElement(spec, 1, {(sphere.minus,): pres.gen("alpha")}))
    with pytest.raises(DegreeMismatch):
        sphere.top_dual()(FormElement(spec, 1, {(sphere.minus,): pres.one}))


def test_flatness(sphere):
    report = sphere_flatness(sphere)
    assert report.ok, report.failures
    names = [c["name"] for c in report.checks]
    assert "lifted connection kills the top dual" in names
    assert sum("curvature vanishes" in n for n in names) == 3


def test_flatness_short_circuits_on_broken_data(sl2_3d_calc):
    bad = SphereData(sl2_3d_calc)
    q = bad.q
    bad.plus_weights = (bad.plus_weights[0], q**-3, bad.plus_weights[2])
    report = sphere_flatness(bad)
    assert not report.ok
    assert not any("curvature" in c["name"] for c in report.checks)


def test_theta_maps(sphere, sl2):
    alpha, beta, gamma, delta = corners(sl2)
    b = beta * gamma
    c = alpha * beta
    assert theta(sphere, b) == sphere.top_form * b
    assert theta_star(sphere, b)(theta(sphere, c)) == b * c
    assert theta_star(sphere, sl2.one)(sphere.top_form) == sl2.one
    with pytest.raises(DegreeMismatch):
        theta_star(sphere, alpha)


def test_psi_roundtrips(sphere, sl2):
    rng = random.Random(29)
    for _ in range(6):
        gen = rng.choice(sphere.module_generators)
        omega = gen * invariant_sample(sl2, rng)
        assert psi_inv(sphere, psi(sphere, omega)) == omega
        f = random_functional(sphere, rng)
        assert psi(sphere, psi_inv(sphere, f)) == f


def test_ladder_single_square(sphere, sl2):
    """Both routes from an invariant to a one-form functional agree."""
    beta, gamma = sl2.gen("beta"), sl2.gen("gamma")
    b = beta * gamma
    lhs = psi(sphere, dga.d(sphere.spec, b))
    rhs = nabla_coH_1(sphere, theta_star(sphere, b))
    assert lhs == rhs


def test_ladder(sphere):
    report = check_sphere_ladder(sphere, 3)
    assert report.ok
    # invariant words have even length: 4 of them up to the bound,
    # each feeding one function square and six one-form squares
    assert report.counts == {"squares": 28, "round_trips": 48}
    assert not report.failures


def test_ladder_corruption_fails_before_squares(sl2_3d_calc):
    bad = SphereData(sl2_3d_calc)
    q = bad.q
    bad.plus_weights = (bad.plus_weights[0], q**-3, bad.plus_weights[2])
    report = check_sphere_ladder(bad, 3)
    assert not report.ok
    assert report.counts["squares"] == 0
    assert any(not c["ok"] for c in report.checks)
    assert "determinant" in report.first_failure()


def test_lambda_integrates_the_descended_connection(sphere):
    """The Haar-type functional restricted to invariants kills the image."""
    rng = random.Random(41)
    fs = list(sphere.dual_basis()) + [random_functional(sphere, rng) for _ in range(4)]
    for f in fs:
        assert not sl2_lambda(nabla_coH(sphere, f))


# -- letter values and the wedge table ---------------------------------------------


def _on_plus_six_products(sphere, values, s=None):
    """The plus-letter value times s, expanded through each of the three terms."""
    total = sphere.presentation.zero
    for w, v, b in zip(sphere.plus_weights, values, sphere.minus_coeffs):
        total = total + w * (v * (b if s is None else b * s))
    return total


def _on_minus_six_products(sphere, values, r=None):
    total = sphere.presentation.zero
    for v, a in zip(values, sphere.plus_coeffs):
        total = total + v * (a if r is None else a * r)
    return total


def _expand_six_products(sphere, plus_values, minus_values, b=None):
    def at(c):
        return c if b is None else b * c

    return (
        tuple(_on_plus_six_products(sphere, plus_values, at(a)) for a in sphere.plus_coeffs),
        tuple(_on_minus_six_products(sphere, minus_values, at(c)) for c in sphere.minus_coeffs),
    )


def test_letter_values_match_the_six_product_expansion(sphere, sl2):
    """Arbitrary six-tuples, consistent or not, with and without a factor."""
    rng = random.Random(31)
    alpha, beta, gamma, delta = corners(sl2)
    consistent = random_functional(sphere, rng)
    tuples = [(consistent.plus_values, consistent.minus_values)]
    for _ in range(4):
        tuples.append(
            tuple(tuple(invariant_sample(sl2, rng) for _ in range(3)) for _ in range(2))
        )
    tuples.append(((sl2.one, sl2.zero, sl2.zero), (sl2.zero,) * 3))
    for plus_values, minus_values in tuples:
        f = BHomForm(sphere, 1, plus_values, minus_values)
        for s, r in ((None, None), (beta * beta, alpha * alpha), (beta * delta, gamma * alpha)):
            assert f.value_on_plus(s) == _on_plus_six_products(sphere, plus_values, s)
            assert f.value_on_minus(r) == _on_minus_six_products(sphere, minus_values, r)
        letters = (
            descent._on_plus(sphere, plus_values), descent._on_minus(sphere, minus_values)
        )
        for b in (None, sl2.one, invariant_sample(sl2, rng)):
            assert descent._expand(sphere, *letters, b) == (
                _expand_six_products(sphere, plus_values, minus_values, b)
            )


def test_lifted_connection_equals_the_contraction_route(sphere, sl2):
    """nabla_coH_1 reads the wedge table; the contraction f*w and the
    evaluation f(dw) give the same values on every invariant word."""
    spec = sphere.spec
    words = sl2.normal_words(4, degree=0)
    assert len(words) > 4
    for word in words:
        f = sphere.top_dual() * sl2.monomial(word, 2)
        plus_values, minus_values = (
            [nabla_coH(sphere, f * w) + f(dga.d(spec, w)) for w in gens]
            for gens in (sphere.plus_generators, sphere.minus_generators)
        )
        want = BHomForm.from_values(sphere, plus_values, minus_values)
        assert nabla_coH_1(sphere, f) == want, sl2.word_str(word)


def test_wedge_table_leaves_a_corrupted_weight_to_the_determinant(sl2_3d_calc):
    bad = SphereData(sl2_3d_calc)
    table = bad._generator_wedges
    assert nabla_coH_1(bad, bad.top_dual()).is_zero()
    q = bad.q
    bad.plus_weights = (bad.plus_weights[0], q**-3, bad.plus_weights[2])
    assert bad._generator_wedges is table
    for report in (sphere_flatness(bad), check_sphere_ladder(bad, 3), fhat_crosscheck(bad, 0)):
        assert not report.ok
        assert report.failures[0]["name"].startswith("quantum determinant")
        names = [c["name"] for c in report.checks]
        assert not any("lifted" in n or "curvature" in n for n in names)
    assert check_sphere_ladder(bad, 3).counts["squares"] == 0


def test_letter_values_and_the_wedge_table_bound_the_work(monkeypatch, sl2_3d_calc):
    fresh = SphereData(sl2_3d_calc)
    pres = fresh.presentation
    rng = random.Random(7)
    coords = [invariant_sample(pres, rng) for _ in range(6)]
    b = invariant_sample(pres, rng)
    calls = collections.Counter()
    monkeypatch.setattr(
        ncalg.AlgElement, "__mul__", counting(calls, "algmul", ncalg.AlgElement.__mul__)
    )
    # two letter values of three products each, then six letter products
    BHomForm.from_coordinates(fresh, coords[:3], coords[3:])
    assert 0 < calls["algmul"] <= 12
    nabla_coH_1(fresh, fresh.top_dual())
    monkeypatch.setattr(dga, "mul", counting(calls, "mul", dga.mul))
    monkeypatch.setattr(dga, "d", counting(calls, "d", dga.d))
    # the products with the generators and their differentials are
    # constants of the sphere, read from the table the first call built
    lifted = nabla_coH_1(fresh, fresh.top_dual() * b)
    assert calls["mul"] == 0 and calls["d"] == 0
    assert lifted == psi(fresh, dga.d(fresh.spec, b))


def test_letter_values_are_computed_once_per_functional(monkeypatch):
    # a freshly loaded calculus, so that no other test has filled its memos
    source = (resources.files("intforms") / "data" / "sl2_3d.calc").read_text()
    fresh = SphereData(load_calc(source).spec)
    calls = collections.Counter()
    for name in ("_on_plus", "_on_minus"):
        monkeypatch.setattr(descent, name, counting(calls, name, getattr(descent, name)))
    mul = ncalg.AlgElement.__mul__
    products = []  # (left operand, right operand) ids, in order

    def traced(self, other):
        products.append((id(self), id(other)))
        return mul(self, other)

    monkeypatch.setattr(ncalg.AlgElement, "__mul__", traced)
    report = check_sphere_ladder(fresh, 4)
    assert report.ok and report.counts == {"squares": 63, "round_trips": 108}
    # the six contractions of the wedge table once, then per invariant word
    # (9 of them) 1 lift, 6 images read by their square and their round trip,
    # 6 coordinate functionals and the psi_inv of each (279 per side, and
    # 2,358 products, when every reader recomputed the letter values)
    assert calls["_on_plus"] == calls["_on_minus"] == 6 + 9 * 19
    assert len(products) <= 2142

    table = {id(v) for c, _ in fresh._generator_wedges for v in c._letter_values()}
    f = fresh.top_dual() * invariant_sample(fresh.presentation, random.Random(3))
    calls.clear()
    products.clear()
    nabla_coH_1(fresh, f)
    by_top = [right in table for left, right in products if left == id(f.top_value)]
    # t times the twelve stored letter values and the six differentials;
    # the one letter evaluation per side is from_values' consistency check
    assert by_top.count(True) == 12 and len(by_top) == 18
    assert calls["_on_plus"] == calls["_on_minus"] == 1

    builds = collections.Counter()
    kept = []
    letter_values = BHomForm._letter_values

    def watched(g):
        before = g._letters
        out = letter_values(g)
        if g._letters is not before:
            builds[id(g)] += 1
            kept.append(g)  # keeps ids unique while the ladder runs
        return out

    monkeypatch.setattr(BHomForm, "_letter_values", watched)
    assert check_sphere_ladder(fresh, 2).ok
    assert builds and max(builds.values()) == 1


def test_reassigned_weights_reach_every_later_evaluation(sl2_3d_calc):
    fresh = SphereData(sl2_3d_calc)
    pres, q = fresh.presentation, fresh.q
    rng = random.Random(5)
    values = tuple(invariant_sample(pres, rng) for _ in range(3))
    f = random_functional(fresh, rng)
    nabla_coH(fresh, f)  # f's letter values are now kept
    fresh.plus_weights = (fresh.plus_weights[0], q**-3, fresh.plus_weights[2])
    assert descent._on_plus(fresh, values) == _on_plus_six_products(fresh, values)
    assert f.value_on_plus(None) == _on_plus_six_products(fresh, f.plus_values)
    for i in range(3):
        unit = tuple(pres.one if k == i else pres.zero for k in range(3))
        want = tuple(_on_plus_six_products(fresh, unit, a) for a in fresh.plus_coeffs)
        assert fresh.plus_dual(i).plus_values == want
    reports = (sphere_flatness(fresh), check_sphere_ladder(fresh, 3), fhat_crosscheck(fresh, 0))
    for report in reports:
        assert report.failures[0]["name"].startswith("quantum determinant")


@pytest.mark.parametrize(
    "old, new, witness",
    [
        ("d w+ = q^2*(q^2 + 1) * w0.w+", "d w+ = q^2*(q^2 + 2) * w0.w+",
         "DegreeMismatch: not a two-form on the sphere: component at w0.w+"),
        ("partial: beta = -q^2*beta, 0, alpha", "partial: beta = -q^2*beta, 0, -alpha",
         "ValueError: value at plus generator 0 fails the dual-basis expansion: "
         "(q^7 + 2*q^5)*beta^2*gamma^2 + (q^6 + 3*q^4)*beta*gamma + q^3 versus "
         "-2*q^7*beta^4*gamma^4 + (2*q^8 - 2*q^6 - 2*q^4)*beta^3*gamma^3 + "
         "(3*q^7 + 2*q^5 - 2*q^3)*beta^2*gamma^2 + (q^6 + 3*q^4)*beta*gamma + q^3"),
    ],
    ids=["d-w-plus", "partial-beta"],
)
def test_sphere_ladder_row_reports_a_broken_calculus(old, new, witness):
    source = (resources.files("intforms") / "data" / "sl2_3d.calc").read_text()
    assert old in source
    sphere = SphereData(load_calc(source.replace(old, new, 1)).spec)
    name = "projective ladder commutes with exact round trips"
    thunk = dict(suites._sphere_checks(sphere, suites.Options()))[name]
    (row,) = suites.run_checks([(name, thunk)])
    assert (row["status"], row["witness"]) == ("fail", witness)
