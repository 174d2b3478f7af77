"""Shared fixtures: scalar contexts, the two presented algebras used
throughout (quantum plane, quantum SL(2) with its Hopf structure), their
twisted multi-derivations, and cold_preset for tests that measure what a
first load of a shipped preset builds."""
from __future__ import annotations

import pytest

from intforms.dga import CalculusSpec
from intforms.linmap import MapMatrix
from intforms.multider import TwistedMultiDerivation
from intforms.ncalg import HopfData, Presentation
from intforms.parser import parse_form_terms
from intforms.presets import REGISTRY
from intforms.scalars import ScalarContext
from intforms.sparse import add_scaled


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


def diagonal_sigma(pres, diags):
    """The diagonal algebra map with entry i sending g to diags[i][g]: a
    diagonal sigma, or the inverses of a sigma's diagonal entries."""
    n = len(diags)
    return MapMatrix.from_images(
        pres,
        {
            g: [[diags[i][g] if i == j else pres.zero for j in range(n)] for i in range(n)]
            for g in pres.generators
        },
    )


def identity_sigma(pres, n):
    """The n x n identity: sigma(g) = g times the identity matrix, and the
    inverse of its own diagonal."""
    return diagonal_sigma(pres, [{g: pres.gen(g) for g in pres.generators}] * n)


def grade_scaling(pres, base, exponent):
    """{generator: base^(exponent * deg g) * g}, a diagonal entry of a graded sigma."""
    return {
        g: pres.gen(g).scale(base ** (exponent * deg))
        for g, deg in zip(pres.generators, pres.grading)
    }


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
    inverse = diagonal_sigma(
        pres, [{"x": (1 / p) * x, "y": (1 / q) * y}, {"x": (q / p) * x, "y": (1 / p) * y}]
    )
    rows = {"x": (pres.one, zero), "y": (zero, pres.one)}
    return TwistedMultiDerivation(pres, rows, sigma, inverse)


def make_sl2_3d_tmd(pres):
    """Left-covariant 3D calculus data in basis order (0, +, -)."""
    ctx = pres.context
    q = ctx.parameter("q")
    a, b, c, d = (pres.gen(g) for g in ("alpha", "beta", "gamma", "delta"))
    zero = pres.zero
    q2 = q * q
    sigma = diagonal_sigma(
        pres, [grade_scaling(pres, q, -2), grade_scaling(pres, q, -1), grade_scaling(pres, q, -1)]
    )
    inverse = diagonal_sigma(
        pres, [grade_scaling(pres, q, 2), grade_scaling(pres, q, 1), grade_scaling(pres, q, 1)]
    )
    rows = {
        "alpha": (a, -q * b, zero),
        "beta": (-q2 * b, zero, a),
        "gamma": (c, -q * d, zero),
        "delta": (-q2 * d, zero, c),
    }
    return TwistedMultiDerivation(pres, rows, sigma, inverse)


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
    q = tmd.presentation.context.parameter("q")
    return CalculusSpec(
        tmd,
        form_names=("w0", "w+", "w-"),
        form_order=("w-", "w0", "w+"),
        rules=sl2_3d_form_rules(tmd.presentation.context),
        d_on_forms={
            "w0": {("w-", "w+"): q},
            "w+": {("w0", "w+"): q**2 * (q**2 + 1)},
            "w-": {("w-", "w0"): q**2 * (q**2 + 1)},
        },
        top_degree=3,
        bases={2: [("w-", "w+"), ("w-", "w0"), ("w0", "w+")]},
    )


def parse_form(spec, text):
    """The form a text spells in the form names of spec."""
    coords = {}
    for coeff, word in parse_form_terms(spec.presentation, spec.form_names, text):
        add_scaled(coords, {word: coeff})
    return spec.form(len(next(iter(coords))), coords)


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


@pytest.fixture
def cold_preset(monkeypatch):
    """cold_preset(name): the shipped preset with its loaded bundle dropped
    for this test, so its next load builds every table and memo from empty
    whatever ran before; the bundle is restored afterwards."""

    def cold(name):
        preset = REGISTRY[name]
        monkeypatch.setattr(preset, "_cache", None)
        return preset

    return cold
