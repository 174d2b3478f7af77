"""Shared fixtures: scalar contexts, the two presented algebras used
throughout (quantum plane, quantum SL(2) with its Hopf structure), and their
twisted multi-derivations."""
from __future__ import annotations

import pytest

from intforms.dga import CalculusSpec
from intforms.linmap import AlgebraMap, GradeScale, MapMatrix
from intforms.multider import TwistedMultiDerivation
from intforms.ncalg import HopfData, Presentation
from intforms.scalars import ScalarContext


def make_qplane_presentation(ctx):
    q = ctx.parameter("q")
    return Presentation(
        ctx,
        generators=("x", "y"),
        rules=[((("y", "x")), {("x", "y"): 1 / q})],
        grading={"x": 1, "y": 1},
    )


def make_sl2_presentation(ctx):
    q = ctx.parameter("q")
    qi = 1 / q
    rules = [
        (("alpha", "beta"), {("beta", "alpha"): q}),
        (("gamma", "alpha"), {("alpha", "gamma"): qi}),
        (("gamma", "beta"), {("beta", "gamma"): ctx.one}),
        (("delta", "beta"), {("beta", "delta"): qi}),
        (("gamma", "delta"), {("delta", "gamma"): q}),
        (("delta", "alpha"), {("alpha", "delta"): ctx.one, ("beta", "gamma"): qi - q}),
        (("alpha", "delta"), {(): ctx.one, ("beta", "gamma"): q}),
    ]
    hopf = HopfData(
        coproduct={
            "alpha": [(("alpha",), ("alpha",), 1), (("beta",), ("gamma",), 1)],
            "beta": [(("alpha",), ("beta",), 1), (("beta",), ("delta",), 1)],
            "gamma": [(("gamma",), ("alpha",), 1), (("delta",), ("gamma",), 1)],
            "delta": [(("delta",), ("delta",), 1), (("gamma",), ("beta",), 1)],
        },
        counit={"alpha": 1, "beta": 0, "gamma": 0, "delta": 1},
        antipode={
            "alpha": {("delta",): 1},
            "delta": {("alpha",): 1},
            "beta": {("beta",): -qi},
            "gamma": {("gamma",): -q},
        },
        antipode_inv={
            "alpha": {("delta",): 1},
            "delta": {("alpha",): 1},
            "beta": {("beta",): -q},
            "gamma": {("gamma",): -qi},
        },
    )
    # generator order beta < alpha < delta < gamma makes all seven relations
    # deglex-decreasing and the system locally confluent
    return Presentation(
        ctx,
        generators=("beta", "alpha", "delta", "gamma"),
        rules=rules,
        grading={"alpha": 1, "gamma": 1, "beta": -1, "delta": -1},
        hopf=hopf,
    )


def make_qplane_tmd(pres):
    ctx = pres.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    x, y = pres.gen("x"), pres.gen("y")
    zero = pres.zero
    sigma = MapMatrix.from_images(
        pres,
        {
            "x": [[p * x, zero], [zero, (p / q) * x]],
            "y": [[q * y, (p - 1) * x], [zero, p * y]],
        },
    )
    inverses = [
        AlgebraMap(pres, {"x": (1 / p) * x, "y": (1 / q) * y}, name="sigma11_inv"),
        AlgebraMap(pres, {"x": (q / p) * x, "y": (1 / p) * y}, name="sigma22_inv"),
    ]
    rows = {"x": (pres.one, zero), "y": (zero, pres.one)}
    return TwistedMultiDerivation(pres, rows, sigma, diag_inverses=inverses)


def make_sl2_3d_tmd(pres):
    """Left-covariant 3D calculus data in basis order (0, +, -)."""
    ctx = pres.context
    q = ctx.parameter("q")
    a, b, c, d = (pres.gen(g) for g in ("alpha", "beta", "gamma", "delta"))
    zero = pres.zero
    q2 = q * q
    sigma = MapMatrix.diagonal(
        [GradeScale(pres, q, -2), GradeScale(pres, q, -1), GradeScale(pres, q, -1)]
    )
    inverses = [
        GradeScale(pres, q, 2),
        GradeScale(pres, q, 1),
        GradeScale(pres, q, 1),
    ]
    rows = {
        "alpha": (a, -q * b, zero),
        "beta": (-q2 * b, zero, a),
        "gamma": (c, -q * d, zero),
        "delta": (-q2 * d, zero, c),
    }
    return TwistedMultiDerivation(pres, rows, sigma, diag_inverses=inverses)


def qplane_form_rules(ctx):
    q, p = ctx.parameter("q"), ctx.parameter("p")
    return {
        ("dx", "dx"): {},
        ("dy", "dy"): {},
        ("dy", "dx"): {("dx", "dy"): -p / q},
    }


def sl2_3d_form_rules(ctx):
    q = ctx.parameter("q")
    q2, q4 = q**2, q**4
    return {
        ("w0", "w0"): {},
        ("w+", "w+"): {},
        ("w-", "w-"): {},
        ("w+", "w-"): {("w-", "w+"): -q2},
        ("w0", "w-"): {("w-", "w0"): -q4},
        ("w+", "w0"): {("w0", "w+"): -q4},
    }


def make_qplane_calculus(tmd):
    return CalculusSpec(
        tmd,
        form_names=("dx", "dy"),
        rules=qplane_form_rules(tmd.presentation.context),
        top_degree=2,
    )


def make_sl2_3d_calculus(tmd):
    return CalculusSpec(
        tmd,
        form_names=("w0", "w+", "w-"),
        form_order=("w-", "w0", "w+"),
        rules=sl2_3d_form_rules(tmd.presentation.context),
        d_on_forms={
            "w0": "q * w-.w+",
            "w+": "q^2*(q^2 + 1) * w0.w+",
            "w-": "q^2*(q^2 + 1) * w-.w0",
        },
        top_degree=3,
        bases={2: [("w-", "w+"), ("w-", "w0"), ("w0", "w+")]},
    )


def random_element(pres, rng, max_len=3, terms=2):
    words = pres.normal_words(max_len)
    out = pres.zero
    for _ in range(terms):
        out = out + pres.monomial(rng.choice(words), coeff=rng.randint(-3, 3))
    return out


@pytest.fixture(scope="session")
def qctx():
    return ScalarContext(("q",))


@pytest.fixture(scope="session")
def qpctx():
    return ScalarContext(("q", "p"))


@pytest.fixture(scope="session")
def qplane(qpctx):
    return make_qplane_presentation(qpctx)


@pytest.fixture(scope="session")
def sl2(qctx):
    return make_sl2_presentation(qctx)


@pytest.fixture(scope="session")
def qplane_tmd(qplane):
    return make_qplane_tmd(qplane)


@pytest.fixture(scope="session")
def sl2_3d_tmd(sl2):
    return make_sl2_3d_tmd(sl2)


@pytest.fixture(scope="session")
def qplane_calc(qplane_tmd):
    return make_qplane_calculus(qplane_tmd)


@pytest.fixture(scope="session")
def sl2_3d_calc(sl2_3d_tmd):
    return make_sl2_3d_calculus(sl2_3d_tmd)
