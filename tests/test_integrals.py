"""Windowed linear algebra for integral forms: the Haar-type functional,
lambda annihilation, image ranks and cokernels, connection integrals with
preimages, and the ladder diagrams linking the two complexes."""
from __future__ import annotations

import random

import pytest

from intforms import dga
from intforms.dga import CalculusSpec
from intforms.homconn import HomForm, dual_form, nabla, nabla_n
from intforms import integrals, suites
from intforms.cli import main
from intforms.integrals import (
    FiltrationViolated,
    LadderDiagram,
    NoPreimageUpToBound,
    Truncation,
    block_ranks,
    check_ladder,
    check_lambda_annihilates,
    integral_class,
    sl2_lambda,
)
from intforms.linalg import LinearSystem
from intforms.multider import TwistedMultiDerivation
from intforms.ncalg import Presentation
from intforms.presets import REGISTRY
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


def _single_block(spec, length_bound, degree):
    """Reference: (rank, cokernel) of one degree block, from that block's
    own Truncation and its images alone."""
    trunc = Truncation(spec, length_bound, degree)
    system = LinearSystem(key=integrals._pivot_key)
    for i, w in trunc.columns():
        value = trunc._block_image(i, w)
        if value:
            system.add(dict(value.terms))
    hit = set(system.pivot_columns())
    pres = spec.presentation
    return system.rank(), tuple(pres.monomial(w) for w in trunc.target_words if w not in hit)


def test_image_rank_quantum_plane_blocks(qplane_calc):
    for d, (rank, cokernel) in enumerate(block_ranks(qplane_calc, 6, range(6))):
        assert rank == d + 1
        assert cokernel == ()


def test_image_rank_sl2_degree_zero_block(sl2, sl2_3d_calc):
    ((rank, cokernel),) = block_ranks(sl2_3d_calc, 6, (0,))
    assert cokernel == (sl2.one,)
    assert rank == len(Truncation(sl2_3d_calc, 6, 0).target_words) - 1


def test_image_rank_zero_derivation():
    spec = make_free_line(grading={"x": 1})
    pres = spec.presentation
    for d, (rank, cokernel) in enumerate(block_ranks(spec, 4, range(5))):
        assert rank == 0
        assert cokernel == (pres.monomial((0,) * d),)


def test_image_rank_order_invariant(sl2_3d_calc):
    ((rank, cokernel),) = block_ranks(sl2_3d_calc, 3, (0,))
    assert (rank, cokernel) == _single_block(sl2_3d_calc, 3, 0)
    trunc = Truncation(sl2_3d_calc, 3, degree=0)
    rows = []
    for i, w in trunc.columns():
        value = trunc._block_image(i, w)
        if value:
            rows.append(dict(value.terms))
    rng = random.Random(5)
    for _ in range(3):
        rng.shuffle(rows)
        system = LinearSystem(key=integrals._pivot_key)
        for row in rows:
            system.add(row)
        assert system.rank() == rank
        hit = set(system.pivot_columns())
        assert {w for w in trunc.target_words if w not in hit} == {
            tuple(rep.terms)[0] for rep in cokernel
        }


def test_filtration_violation():
    spec = make_free_line(lambda pres: pres.gen("x") ** 2)
    with pytest.raises(FiltrationViolated):
        Truncation(spec, 2)._image(0, (0, 0))


def test_mixed_degree_violation():
    spec = make_free_line(
        lambda pres: pres.one + pres.gen("x") ** 2, grading={"x": 1}
    )
    with pytest.raises(FiltrationViolated):
        Truncation(spec, 3, degree=2)._block_image(0, (0,))


SWEEP = "truncated cokernel vanishes in every degree block"


def test_degree_sweep_builds_each_image_once(monkeypatch):
    # --max-len 12 has 91 window words on each of qplane's two forms; block
    # by block the sweep would build those 182 images 12 times, 2,184 calls
    calls = []
    image = Truncation._image

    def counted(self, i, w):
        calls.append((i, w))
        return image(self, i, w)

    monkeypatch.setattr(Truncation, "_image", counted)
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


def _nonempty(coords):
    return {b: terms for b, terms in coords.items() if terms}


@pytest.mark.parametrize("name, bound, pairs", [("sl2-3d", 6, 980), ("qplane", 12, 273)])
def test_leibniz_coordinates_match_the_form_product(name, bound, pairs):
    # the ladder's right coordinates of d(e*a) against the differential of
    # the form product, on every source and window word of the benchmark
    spec = REGISTRY[name].load().spec
    pres = spec.presentation
    sources = [()] + [e for k in range(1, spec.top_degree) for e in spec.basis(k)]
    seen = 0
    for w in pres.normal_words(bound):
        a = pres._monomial(w)
        da = dga._right_terms(spec, dga.d(spec, a))
        for e in sources:
            omega = a if not e else dga.right_mul(spec, spec.basis_form(e), a)
            want = _nonempty(dga._right_terms(spec, dga.d(spec, omega)))
            assert _nonempty(integrals._d_right_mul(spec, e, a, da)) == want, (e, w)
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
