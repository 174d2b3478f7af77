"""Windowed linear algebra for integral forms: the Haar-type functional,
lambda annihilation, image ranks and cokernels, connection integrals with
preimages, and the ladder diagrams linking the two complexes."""
from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from intforms import dga, homconn
from intforms.dga import CalculusSpec
from intforms.homconn import HomForm, dual_form, nabla, nabla_n, twisted_partial
from intforms import integrals, scalars, suites
from intforms.cli import main
from intforms.integrals import (
    FiltrationViolated,
    LadderDiagram,
    NoPreimageUpToBound,
    block_ranks,
    check_ladder,
    check_lambda_annihilates,
    integral_class,
    sl2_lambda,
)
from intforms.linalg import LinearSystem
from intforms.multider import TwistedMultiDerivation
from intforms.ncalg import MIXED, Presentation, zdegree
from intforms.presets import REGISTRY, load_calc
from intforms.scalars import ScalarContext
from intforms.suites import Options, checks_for

from conftest import identity_sigma


def make_free_line(partial_image=None, grading=None):
    """One-generator presentation with a single untwisted derivation."""
    ctx = ScalarContext(())
    pres = Presentation(ctx, ("x",), grading=grading)
    image = pres.zero if partial_image is None else partial_image(pres)
    tmd = TwistedMultiDerivation(
        pres,
        {"x": (image,)},
        identity_sigma(pres, 1),
        identity_sigma(pres, 1),
    )
    return CalculusSpec(tmd, ("dx",), {("dx", "dx"): {}}, top_degree=1)


# -- the functional ---------------------------------------------------------


def test_lambda_values(sl2):
    q = sl2.context.parameter("q")
    beta, gamma = sl2.gen("beta"), sl2.gen("gamma")
    bg = beta * gamma
    assert sl2_lambda(sl2.one) == sl2.context.one
    assert sl2_lambda(bg) == -1 / (q + q**-1)
    assert sl2_lambda(bg * bg) == (q - q**-1) / (q**3 - q**-3)
    assert sl2_lambda(2 * sl2.one + 3 * bg) == 2 - 3 / (q + q**-1)


def test_lambda_closed_form_matches_the_quotient(sl2):
    # (-1)^l/[l+1]_q, the form sl2_lambda divides by, against the quotient
    # (-1)^l (q - q^-1)/(q^(l+1) - q^-(l+1)) it replaces
    q = sl2.context.parameter("q")
    beta, gamma = sl2.gen("beta"), sl2.gen("gamma")
    for l in range(21):
        want = (-1) ** l * (q - q**-1) / (q ** (l + 1) - q ** -(l + 1))
        assert sl2_lambda(beta**l * gamma**l) == want, l


def test_lambda_kills_alpha_delta_and_unbalanced(sl2):
    alpha, beta, gamma, delta = (
        sl2.gen(g) for g in ("alpha", "beta", "gamma", "delta")
    )
    zero = sl2.context.zero
    assert sl2_lambda(alpha * beta**2 * gamma) == zero
    assert sl2_lambda(beta * delta * gamma) == zero
    assert sl2_lambda(beta**2 * gamma) == zero
    assert sl2_lambda(sl2.zero) == zero


def test_lambda_vanishes_off_degree_zero(sl2):
    zero = sl2.context.zero
    for w in set(sl2.normal_words(4)) - set(sl2.normal_words(4, degree=0)):
        assert sl2_lambda(sl2.monomial(w)) == zero


def test_lambda_wants_sl2(qplane):
    with pytest.raises(ValueError):
        sl2_lambda(qplane.gen("x"))


# -- lambda kills the image of nabla ----------------------------------------


def test_lambda_annihilates(sl2_3d_calc):
    report = check_lambda_annihilates(sl2_3d_calc, 4)
    assert report.ok
    assert report.counts["coordinates"] == 3 * 55


def test_lambda_annihilates_single_case(sl2, sl2_3d_calc):
    # nabla(xi_+ * alpha*gamma) = -q - (1+q^2)*beta*gamma, which the
    # functional balances to zero
    q = sl2.context.parameter("q")
    f = dual_form(sl2_3d_calc, "w+") * (sl2.gen("alpha") * sl2.gen("gamma"))
    value = nabla(sl2_3d_calc, f)
    bg = sl2.gen("beta") * sl2.gen("gamma")
    assert value == -q * sl2.one - (1 + q**2) * bg
    assert sl2_lambda(value) == sl2.context.zero


def test_lambda_sign_control(sl2, sl2_3d_calc, monkeypatch):
    # flipping the sign of the (beta*gamma) row must be caught
    q = sl2.context.parameter("q")
    bg_word = (sl2.generators.index("beta"), sl2.generators.index("gamma"))

    def flipped(a):
        return sl2_lambda(a) + 2 * a.coefficient(bg_word) / (q + q**-1)

    monkeypatch.setattr(integrals, "sl2_lambda", flipped)
    report = check_lambda_annihilates(sl2_3d_calc, 2)
    assert not report.ok
    assert any(f["witness"] for f in report.failures)


# -- image rank and cokernel -------------------------------------------------


def _block_images(spec, length_bound, degree):
    """Reference: the nonzero images T_i(w) of one Z-degree block, column
    by column, from twisted_partial and zdegree alone, raising what the
    window raises."""
    pres = spec.presentation
    out = []
    for i in range(spec.n):
        for w in pres.normal_words(length_bound):
            value = twisted_partial(spec, i, pres._monomial(w))
            for word in value.terms:
                if len(word) > length_bound:
                    raise FiltrationViolated(
                        f"nabla escapes the window: coordinate ({spec.form_names[i]}, "
                        f"{pres.word_str(w)}) produced {pres.word_str(word)}"
                    )
            if value and zdegree(value) is MIXED:
                raise FiltrationViolated(
                    f"image of ({spec.form_names[i]}, {pres.word_str(w)}) mixes Z-degrees"
                )
            if value and zdegree(value) == degree:
                out.append(value)
    return out


def _single_block(spec, length_bound, degree):
    """Reference: (rank, cokernel) of one degree block, from that block's
    own images alone."""
    pres = spec.presentation
    targets = pres.normal_words(length_bound, degree=degree)
    system = LinearSystem(key=integrals._pivot_key)
    for value in _block_images(spec, length_bound, degree):
        system.add(dict(value.terms))
    hit = set(system.pivot_columns())
    return system.rank(), tuple(pres.monomial(w) for w in targets if w not in hit)


def test_image_rank_quantum_plane_blocks(qplane_calc):
    for d, (rank, cokernel) in enumerate(block_ranks(qplane_calc, 6, range(6))):
        assert rank == d + 1
        assert cokernel == ()


def test_image_rank_sl2_degree_zero_block(sl2, sl2_3d_calc):
    ((rank, cokernel),) = block_ranks(sl2_3d_calc, 6, (0,))
    assert cokernel == (sl2.one,)
    assert rank == len(sl2.normal_words(6, degree=0)) - 1


def test_image_rank_zero_derivation():
    spec = make_free_line(grading={"x": 1})
    pres = spec.presentation
    for d, (rank, cokernel) in enumerate(block_ranks(spec, 4, range(5))):
        assert rank == 0
        assert cokernel == (pres.monomial((0,) * d),)


def test_image_rank_order_invariant(sl2_3d_calc):
    ((rank, cokernel),) = block_ranks(sl2_3d_calc, 3, (0,))
    assert (rank, cokernel) == _single_block(sl2_3d_calc, 3, 0)
    rows = [dict(value.terms) for value in _block_images(sl2_3d_calc, 3, 0)]
    targets = sl2_3d_calc.presentation.normal_words(3, degree=0)
    rng = random.Random(5)
    for _ in range(3):
        rng.shuffle(rows)
        system = LinearSystem(key=integrals._pivot_key)
        for row in rows:
            system.add(row)
        assert system.rank() == rank
        hit = set(system.pivot_columns())
        assert {w for w in targets if w not in hit} == {
            tuple(rep.terms)[0] for rep in cokernel
        }


def test_filtration_violation():
    # every caller of the window is graded, so the free line is too
    spec = make_free_line(lambda pres: pres.gen("x") ** 2, grading={"x": 1})
    with pytest.raises(FiltrationViolated, match=r"coordinate \(dx, x\^2\) produced x\^3"):
        integrals._column_images(spec, 2)


def test_mixed_degree_violation():
    spec = make_free_line(
        lambda pres: pres.one + pres.gen("x") ** 2, grading={"x": 1}
    )
    with pytest.raises(FiltrationViolated, match=r"image of \(dx, x\) mixes Z-degrees"):
        integrals._column_images(spec, 3)


SWEEP = "truncated cokernel vanishes in every degree block"


def test_degree_sweep_builds_each_image_once(monkeypatch):
    # --max-len 12 has 91 window words on each of qplane's two forms; block
    # by block the sweep would build those 182 images 12 times, 2,184 calls
    calls = []
    image = integrals.twisted_partial

    def counted(spec, i, a):
        calls.append((i, tuple(a.terms)))
        return image(spec, i, a)

    monkeypatch.setattr(integrals, "twisted_partial", counted)
    checks = dict(checks_for(REGISTRY["qplane"], "integral", Options(max_len=12)))
    assert checks[SWEEP]() is None
    assert len(calls) == len(set(calls)) == 182


def test_degree_sweep_matches_single_blocks(qplane_calc):
    degrees = range(12)
    for d, block in zip(degrees, block_ranks(qplane_calc, 12, degrees)):
        assert block == _single_block(qplane_calc, 12, d)


@pytest.mark.parametrize("bound, image", [
    (2, lambda pres: pres.gen("x") ** 2),
    (3, lambda pres: pres.one + pres.gen("x") ** 2),
], ids=["filtration", "mixed"])
def test_degree_sweep_raises_what_the_first_block_raises(bound, image):
    spec = make_free_line(image, grading={"x": 1})
    with pytest.raises(FiltrationViolated) as want:
        _single_block(spec, bound, 0)
    with pytest.raises(FiltrationViolated) as got:
        next(block_ranks(spec, bound, range(bound)))
    assert str(got.value) == str(want.value)


def test_integral_command_output_is_that_of_single_blocks(capsys, monkeypatch):
    def run(*extra):
        assert main(["integral", "preset:qplane", "--format", "json", *extra]) == 0
        return capsys.readouterr().out

    degrees = [[]] + [["--degree", str(d)] for d in range(4)]
    swept = [run(*extra) for extra in degrees]
    monkeypatch.setattr(
        suites, "block_ranks",
        lambda spec, bound, ds: (_single_block(spec, bound, d) for d in ds),
    )
    assert [run(*extra) for extra in degrees] == swept


# -- qplane's closed-form preimages -------------------------------------------

QPLANE_PARTIAL_X = ("partial: x = 1, 0", "partial: x = 1, 1")


def _qplane_onto(old=None, new=None, max_len=4):
    source = REGISTRY["qplane"].source
    if old is not None:
        assert old in source
        source = source.replace(old, new, 1)
    bundle = load_calc(source)
    ((_, onto), _) = suites._qplane_integral(bundle, Options(max_len=max_len))
    return bundle, onto


@pytest.mark.parametrize(
    "old, new, witness",
    [
        (*QPLANE_PARTIAL_X, "x^1 y^0"),
        ("partial: y = 0, 1", "partial: y = 0, 2", "x^0 y^0"),
        ("sigma inverse 2: x -> q*p^-1*x, y -> p^-1*y",
         "sigma inverse 2: x -> q*p^-1*x, y -> q^-1*y", "x^0 y^0"),
    ],
    ids=["partial-x", "partial-y", "sigma-inverse-2"],
)
def test_closed_form_row_fails_on_a_wrong_datum(old, new, witness):
    _, onto = _qplane_onto(old, new)
    assert onto() == f"closed-form preimage misses {witness}"


@pytest.mark.parametrize("edit, holds", [((), True), (QPLANE_PARTIAL_X, False)],
                         ids=["shipped", "partial-x"])
def test_closed_form_cross_multiplied_agrees_with_the_quotient(edit, holds):
    # nabla((num/den)*g) == x^r y^s, the statement on rational scalars, and
    # num*nabla(g) == den*x^r y^s, the one the check makes, on every word
    bundle, _ = _qplane_onto(*edit)
    spec, pres = bundle.spec, bundle.presentation
    q, p = pres.context.parameter("q"), pres.context.parameter("p")
    dy = dual_form(spec, ("dy",))
    agreed = []
    for w in pres.normal_words(6):
        r = sum(1 for g in w if pres.generators[g] == "x")
        s = len(w) - r
        num, den = p ** (r + s) * q**-r * (p - 1), p ** (s + 1) - 1
        longer = pres.word(*(("x",) * r + ("y",) * (s + 1)))
        target = pres._monomial(w)
        quotient = nabla(spec, dy * pres.monomial(longer, coeff=num / den)) == target
        crossed = num * nabla(spec, dy * pres._monomial(longer)) == den * target
        assert quotient == crossed, w
        agreed.append(crossed)
    assert all(agreed) is holds


def test_closed_form_preimages_stay_off_the_rational_path(monkeypatch):
    # the coefficient num/den has a denominator that is not a monomial;
    # cross-multiplied, the check's scalars are all Laurent polynomials
    calls = dict.fromkeys(("_rational", "_divide", "_gcd_cofactors"), 0)
    for name in calls:
        def counted(*args, _real=getattr(scalars, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(scalars, name, counted)
    ((_, onto), _) = checks_for(REGISTRY["qplane"], "integral", Options(max_len=12))
    assert onto() is None
    assert calls == dict.fromkeys(calls, 0)


# -- integral classes --------------------------------------------------------


def test_integral_class_of_one(sl2, sl2_3d_calc):
    c, f = integral_class(sl2_3d_calc, sl2.one, 2)
    assert c == sl2.context.one
    assert f.is_zero()


def test_integral_class_betagamma(sl2, sl2_3d_calc):
    q = sl2.context.parameter("q")
    bg = sl2.gen("beta") * sl2.gen("gamma")
    c, f = integral_class(sl2_3d_calc, bg, 4)
    assert c == -1 / (q + q**-1)
    assert c == sl2_lambda(bg)
    assert nabla(sl2_3d_calc, f) == bg - c * sl2.one


def test_integral_class_degree_one(sl2, sl2_3d_calc):
    alpha = sl2.gen("alpha")
    c, f = integral_class(sl2_3d_calc, alpha, 3)
    assert c == sl2.context.zero
    assert nabla(sl2_3d_calc, f) == alpha


def test_integral_class_quantum_plane(qplane, qplane_calc):
    a = qplane.gen("x") ** 2 * qplane.gen("y")
    c, f = integral_class(qplane_calc, a, 4)
    assert c == qplane.context.zero
    assert nabla(qplane_calc, f) == a


def test_integral_class_guards(sl2, sl2_3d_calc):
    with pytest.raises(ValueError):
        integral_class(sl2_3d_calc, sl2.one + sl2.gen("alpha"), 3)
    bg = sl2.gen("beta") * sl2.gen("gamma")
    with pytest.raises(NoPreimageUpToBound):
        integral_class(sl2_3d_calc, bg, 1)


def test_chain_property_on_window(qplane, qplane_calc, sl2, sl2_3d_calc):
    # nabla after its first extension vanishes on windowed coordinates
    for pres, spec in ((qplane, qplane_calc), (sl2, sl2_3d_calc)):
        for e in spec.basis(2):
            for w in pres.normal_words(2):
                f = HomForm(spec, 2, {e: pres.monomial(w)})
                assert nabla(spec, nabla_n(spec, 1, f)) == pres.zero


@pytest.mark.parametrize(
    "name, old, new, build, max_len, rows",
    [
        ("qplane", "partial: y = 0, 1", "partial: y = 0, 1 + x", suites._qplane_integral, 4, [
            ("fail", "closed-form preimage misses x^0 y^0"),
            ("fail", "FiltrationViolated: image of (dy, y) mixes Z-degrees"),
        ]),
        ("sl2-3d", "partial: beta = -q^2*beta, 0, alpha", "partial: beta = -q^3*beta, 0, alpha",
         suites._sl2_integral, 2, [
            ("fail", "lambda(nabla(dual(w0)*beta*gamma)): (q^2 - q)/(q^2 + 1)"),
            ("fail", "(beta*gamma)^1: got 0, want -q/(q^2 + 1)"),
        ]),
    ],
    ids=["qplane-partial-y", "sl2-partial-beta"],
)
def test_window_rows_fail_on_a_partial_edit(name, old, new, build, max_len, rows):
    # one coefficient of a partial row edited: qplane's degree-block row
    # meets an image of mixed Z-degree in the window, and sl2-3d's Haar and
    # cokernel-class rows see the functional and the class of beta*gamma move
    source = REGISTRY[name].source
    assert source.count(old) == 1
    bundle = load_calc(source.replace(old, new))
    got = suites.run_checks(build(bundle, Options(max_len=max_len)))
    assert [(row["status"], row["witness"]) for row in got] == rows


# -- ladder diagrams ---------------------------------------------------------


def make_qplane_ladder(qplane, spec):
    ctx = qplane.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    return LadderDiagram(
        spec,
        [
            {(): dual_form(spec, ("dx", "dy"))},
            {"dx": -dual_form(spec, "dy"), "dy": HomForm(spec, 1, {"dx": p / q})},
            {("dx", "dy"): qplane.one},
        ],
    )


def make_sl2_ladder(sl2, spec):
    q = sl2.context.parameter("q")
    phi = dual_form(spec, ("w-", "w0", "w+"))
    return LadderDiagram(
        spec,
        [
            {(): phi},
            {
                "w-": dual_form(spec, ("w0", "w+")),
                "w0": HomForm(spec, 2, {("w-", "w+"): -(q**4)}),
                "w+": HomForm(spec, 2, {("w-", "w0"): q**6}),
            },
            {
                ("w-", "w0"): dual_form(spec, "w+"),
                ("w-", "w+"): HomForm(spec, 1, {"w0": -(q**4)}),
                ("w0", "w+"): HomForm(spec, 1, {"w-": q**6}),
            },
            {("w-", "w0", "w+"): sl2.one},
        ],
    )


def test_ladder_quantum_plane(qplane, qplane_calc):
    report = check_ladder(make_qplane_ladder(qplane, qplane_calc), 5)
    assert report.ok
    assert not report.failures
    assert all(c["ok"] for c in report.checks if "rank" in c)


def test_ladder_3d(sl2, sl2_3d_calc):
    report = check_ladder(make_sl2_ladder(sl2, sl2_3d_calc), 3)
    assert report.ok
    assert report.counts["squares"] == 7 * 30
    assert [c["rank"] for c in report.checks if "rank" in c] == [30, 90, 90, 30]


def test_ladder_trivial():
    spec = make_free_line()
    diagram = LadderDiagram(
        spec,
        [{(): dual_form(spec, "dx")}, {"dx": spec.presentation.one}],
    )
    report = check_ladder(diagram, 4)
    assert report.ok


def test_ladder_broken_vertical(qplane, qplane_calc):
    spec = qplane_calc
    ctx = qplane.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    bad = LadderDiagram(
        spec,
        [
            {(): dual_form(spec, ("dx", "dy"))},
            # sign flipped on the dx leg
            {"dx": dual_form(spec, "dy"), "dy": HomForm(spec, 1, {"dx": p / q})},
            {("dx", "dy"): qplane.one},
        ],
    )
    report = check_ladder(bad, 2)
    assert not report.ok
    witness = report.failures[0]
    assert witness["lhs"] != witness["rhs"]
    assert report.first_failure().startswith(witness["name"])


def test_ladder_vertical_escaping_the_window(qplane, qplane_calc):
    # a top vertical multiplying by x lengthens every word by one letter
    spec = qplane_calc
    q, p = qplane.context.parameter("q"), qplane.context.parameter("p")
    diagram = LadderDiagram(
        spec,
        [
            {(): dual_form(spec, ("dx", "dy"))},
            {"dx": -dual_form(spec, "dy"), "dy": HomForm(spec, 1, {"dx": p / q})},
            {("dx", "dy"): qplane.gen("x")},
        ],
    )
    with pytest.raises(FiltrationViolated, match="vertical 2 escapes the window"):
        check_ladder(diagram, 2)


def test_ladder_validation(qplane, qplane_calc):
    spec = qplane_calc
    with pytest.raises(ValueError):
        LadderDiagram(spec, [{(): dual_form(spec, ("dx", "dy"))}])
    with pytest.raises(ValueError):
        LadderDiagram(
            spec,
            [
                {(): dual_form(spec, ("dx", "dy"))},
                {"dx": -dual_form(spec, "dy")},
                {("dx", "dy"): qplane.one},
            ],
        )
    with pytest.raises(ValueError):
        LadderDiagram(
            spec,
            [
                {(): dual_form(spec, "dx")},
                {"dx": -dual_form(spec, "dy"), "dy": dual_form(spec, "dx")},
                {("dx", "dy"): qplane.one},
            ],
        )


SL2_FAST = ["--max-len", "2", "--max-degree", "3", "--cases", "5"]


@pytest.mark.parametrize(
    "old, new, witness",
    [
        ("1: w0 = -q^4 * dual(w-.w+)", "1: w0 = q^4 * dual(w-.w+)",
         "level 0 at 1 * beta: w-.w+ := -q^2*beta, w0.w+ := q^4*alpha "
         "versus w-.w+ := q^2*beta, w0.w+ := q^4*alpha"),
        ("2: w-.w+ = -q^4 * dual(w0)", "2: w-.w+ = q^4 * dual(w0)",
         "level 1 at w- * alpha: w0 := q^2*beta, w+ := q^5*alpha "
         "versus w0 := -q^2*beta, w+ := q^5*alpha"),
        ("3: w-.w0.w+ = 1", "3: w-.w0.w+ = q",
         "level 2 at w-.w+ * beta: q^5*beta versus q^4*beta"),
    ],
    ids=["upper-leg-level-1", "upper-leg-level-2", "upper-leg-top"],
)
def test_sl2_ladder_witness_at_each_upper_leg_level(capsys, tmp_path, old, new, witness):
    # one vertical edited per level that supplies an upper leg; the first
    # failing square is the one whose upper leg reads the edited rows first
    source = REGISTRY["sl2-3d"].source
    assert old in source
    path = tmp_path / "sl2_3d.calc"
    path.write_text(source.replace(old, new, 1))
    assert main(["verify", str(path), *SL2_FAST, "--format", "json"]) == 1
    failed = [row for row in json.loads(capsys.readouterr().out)["checks"]
              if row["status"] != "pass"]
    assert failed == [{
        "name": "chain ladder commutes with bijective verticals up to length 2",
        "status": "fail",
        "witness": witness,
    }]


@pytest.mark.parametrize(
    "old, new, rows",
    [
        ("d w0 = q * w-.w+", "d w0 = q * alpha * w-.w+", [
            ("fail", "dual of w-.w+ maps to w0 := q^3*alpha"),
            ("pass", None),
            ("fail", "curvature on dual of w-.w+: q^3*alpha"),
            ("fail", "level 1 at w0 * 1: w0 := -q^9*alpha versus w0 := -q^7*alpha"),
        ]),
        ("d w+ = q^2*(q^2 + 1) * w0.w+", "d w+ = q^2*(q^2 + 2) * w0.w+", [
            ("fail", "dual of w0.w+ maps to w+ := (q^4 + 2*q^2)"),
            ("fail", "w-.w+ := q^2"),
            ("pass", None),
            ("fail", "level 0 at 1 * 1: 0 versus w-.w+ := q^2"),
        ]),
        ("d w+ = q^2*(q^2 + 1) * w0.w+", "d w+ = q^2*(q^2 + 1) * alpha * w0.w+", [
            ("fail", "dual of w0.w+ maps to w+ := (q^7 + q^5)*alpha"),
            ("fail", "w-.w+ := (q^7 + q^5)*alpha + (-q^4 - q^2)"),
            ("fail", "curvature on dual of w0.w+: (-q^6 - q^4)*beta"),
            ("fail", "level 0 at 1 * 1: 0 versus "
                     "w-.w+ := (q^7 + q^5)*alpha + (-q^4 - q^2)"),
        ]),
    ],
    ids=["alpha-in-d-w0", "scalar-in-d-w+", "alpha-in-d-w+"],
)
def test_level_n_connection_rows_fail_on_a_d_edit(old, new, rows):
    """The rows that read the level-n connection, on one `d` rule edited:
    sl2-3d's level-one and level-two rows, the generic curvature row and
    the ladder, at the fast flags.

    The curvature row fails only when an algebra coefficient enters `d`.
    With scalar `d` coefficients, level one sends each degree-2 dual to a
    hom-form with scalar values (the scalars of e.(i,) and the right
    coordinates of d e), and every T_i kills scalars, so nabla of it is 0
    whatever the scalars are.
    """
    source = REGISTRY["sl2-3d"].source
    assert old in source
    bundle = load_calc(source.replace(old, new, 1))
    opts = Options(max_len=2, max_degree=3, cases=5)
    checks = (suites._sl2_flatness(bundle, opts) + suites._flatness_checks(bundle, opts)
              + suites._ladder_checks(bundle, opts))
    got = [(row["status"], row["witness"]) for row in suites.run_checks(checks)]
    assert got == rows


@pytest.mark.parametrize("name, bound", [("sl2-3d", 3), ("qplane", 4)])
def test_upper_legs_agree_with_the_vertical_on_right_coordinates(monkeypatch, name, bound):
    # with the connection kernel zeroed every square with a nonzero upper
    # leg fails and reports it; each must equal sum_b V_(k+1)(b)*R_b over
    # the right coordinates R_b of d(e*a), the vertical applied by the right
    # action without the rows of check_ladder
    bundle = REGISTRY[name].load()
    spec, diagram = bundle.spec, bundle.ladder
    pres = spec.presentation
    top = spec.top_degree
    monkeypatch.setattr(homconn, "_nabla_level", lambda spec, n, vector: {})
    report = check_ladder(diagram, bound)
    seen = {(c["level"], c["source"], c["word"]): c["lhs"] for c in report.failures}
    nonzero = 0
    for k, e in [(0, ())] + [(k, e) for k in range(1, top) for e in spec.basis(k)]:
        for w in pres.normal_words(bound):
            a = pres._monomial(w)
            omega = a if not e else dga.right_mul(spec, spec.basis_form(e), a)
            want = pres.zero if k + 1 == top else HomForm(spec, top - k - 1, {})
            for b, r in dga.right_coords(spec, dga.d(spec, omega)).items():
                want = want + diagram.verticals[k + 1][b] * r
            key = (k, "1" if k == 0 else spec.word_str(e), pres.word_str(w))
            assert seen.pop(key, want._like({})) == want, key
            nonzero += bool(want)
    assert not seen
    assert nonzero == len(report.failures) > 0


@pytest.mark.parametrize("name, bound, calls", [("sl2-3d", 3, 210), ("qplane", 4, 45)])
def test_ladder_acts_once_per_square_below_the_top(monkeypatch, name, bound, calls):
    # each row V_k(e)*u is one right action, shared by the matrix, the lower
    # leg and the upper legs of the level below
    diagram = REGISTRY[name].load().ladder
    count = 0
    real = homconn._right_act

    def counted(*args):
        nonlocal count
        count += 1
        return real(*args)

    monkeypatch.setattr(homconn, "_right_act", counted)
    report = check_ladder(diagram, bound)
    assert report.ok
    assert count == report.counts["squares"] == calls


@pytest.mark.parametrize("name, bound, reads", [("sl2-3d", 3, 21), ("qplane", 4, 6)])
def test_ladder_reads_each_level_product_once(monkeypatch, name, bound, reads):
    # warm: a first run fills the twist table and the differentials of the
    # basis words; with the level tables emptied, a second run reduces each
    # product e.(i,) of a level's source e and form index i once, not once a
    # square, from level 0 (e = 1, so the products are the (i,)) up
    bundle = load_calc(REGISTRY[name].source)
    spec = bundle.spec
    assert check_ladder(bundle.ladder, bound).ok
    getattr(spec, "_levels", {}).clear()
    seen = Counter()
    real = CalculusSpec._reduce_word

    def counted(self, word):
        seen[word] += 1
        return real(self, word)

    monkeypatch.setattr(CalculusSpec, "_reduce_word", counted)
    assert check_ladder(bundle.ladder, bound).ok
    products = {e + (i,) for n in range(spec.top_degree) for e in spec.basis(n)
                for i in range(spec.n)}
    assert set(seen) <= products
    assert sum(seen.values()) == len(products) == reads


def _nonempty(coords):
    return {b: terms for b, terms in coords.items() if terms}


@pytest.mark.parametrize("name, bound, pairs", [("sl2-3d", 6, 980), ("qplane", 12, 273)])
def test_leibniz_coordinates_match_the_form_product(name, bound, pairs):
    # the ladder's right coordinates of d(e*a), read from its d-leg tables
    # (d a itself at the empty source), against the differential of the
    # form product, on every source and window word of the benchmark
    spec = REGISTRY[name].load().spec
    pres = spec.presentation
    tables = {}
    for k in range(spec.top_degree):
        tables.update(integrals._leibniz(spec, k))
    seen = 0
    for w in pres.normal_words(bound):
        a = pres._monomial(w)
        da = dga._right_terms(spec, dga.d(spec, a))
        for e, table in tables.items():
            omega = a if not e else dga.right_mul(spec, spec.basis_form(e), a)
            want = _nonempty(dga._right_terms(spec, dga.d(spec, omega)))
            got = integrals._d_leg(pres, table, a.terms, da)
            assert _nonempty(got) == want, (e, w)
            seen += 1
    assert seen == pairs


@pytest.mark.parametrize("name, middle", [("qplane", 4), ("sl2-3d", 18)])
def test_shipped_ladders_are_the_top_form_pairing(name, middle):
    # Theta_k(e)(e') = (-1)^(k(n-k)) pi_top(e.e'), pi_top the coefficient of
    # the top basis word; Theta_0(1) = dual(top) and Theta_n(top) = 1
    bundle = REGISTRY[name].load()
    spec, verticals = bundle.spec, bundle.ladder.verticals
    pres = spec.presentation
    n = spec.top_degree
    (top,) = spec.basis(n)
    assert verticals[0] == {(): dual_form(spec, top)}
    assert verticals[n] == {top: pres.one}
    checked = 0
    for k in range(1, n):
        sign = (-1) ** (k * (n - k))
        for e in spec.basis(k):
            for e2 in spec.basis(n - k):
                theta = sign * spec.reduce_word(e + e2).get(top, 0)
                assert verticals[k][e].terms.get(e2, pres.zero) == pres.scalar(theta), (e, e2)
                checked += 1
    assert checked == middle
