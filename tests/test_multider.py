"""Twisted multi-derivations: extension, the Leibniz law, freeness
verification, q-skew detection."""
from __future__ import annotations

import random

import pytest

from intforms.linmap import Identity, MapMatrix, identity_matrix
from intforms.multider import (
    SigmaNotDiagonal,
    TwistedMultiDerivation,
    detect_q_skew,
    inverse_identities,
    verify_free,
)
from intforms.ncalg import MIXED


def test_partial_on_generators(sl2_3d_tmd, sl2):
    q = sl2.context.parameter("q")
    a, b = sl2.gen("alpha"), sl2.gen("beta")
    assert sl2_3d_tmd.partial(a) == (a, -q * b, sl2.zero)
    assert sl2_3d_tmd.partial(sl2.one) == (sl2.zero,) * 3


def test_partial_of_beta_gamma_vanishes_at_zero_index(sl2_3d_tmd, sl2):
    # partial_0(beta gamma) = partial_0(beta) sigma_0(gamma) + beta partial_0(gamma)
    #                       = (-q^2 beta)(q^-2 gamma) + beta gamma = 0
    bc = sl2.gen("beta") * sl2.gen("gamma")
    row = sl2_3d_tmd.partial(bc)
    assert row[0] == sl2.zero


def test_partial_linear(sl2_3d_tmd, sl2):
    q = sl2.context.parameter("q")
    a, d = sl2.gen("alpha"), sl2.gen("delta")
    lhs = sl2_3d_tmd.partial(a * a - q * d)
    ra = sl2_3d_tmd.partial(a * a)
    rd = sl2_3d_tmd.partial(d)
    assert lhs == tuple(ra[i] - q * rd[i] for i in range(3))


def _random_elements(pres, rng, count, max_len):
    words = pres.normal_words(max_len)
    out = []
    for _ in range(count):
        e = pres.zero
        for _ in range(rng.randint(1, 3)):
            e = e + pres.monomial(rng.choice(words), rng.randint(-2, 3))
        out.append(e)
    return out


@pytest.mark.parametrize("fixture", ["qplane_tmd", "sl2_3d_tmd"])
def test_twisted_leibniz_randomised(fixture, request):
    tmd = request.getfixturevalue(fixture)
    pres = tmd.presentation
    rng = random.Random(2024)
    elems = _random_elements(pres, rng, 30, 4)
    for a, b in zip(elems[::2], elems[1::2]):
        left = tmd.partial(a * b)
        pa = tmd.partial(a)
        pb = tmd.partial(b)
        sig_b = tmd.sigma.apply(b)
        for i in range(tmd.n):
            twisted = pres.zero
            for j in range(tmd.n):
                twisted = twisted + pa[j] * sig_b[j][i]
            assert left[i] == twisted + a * pb[i]


def test_bracketing_independence(qplane_tmd, qplane):
    # partial over (xy)(yx) and x(y(yx)) must agree: both reduce to the
    # same element, and extension only ever sees its normal words
    x, y = qplane.gen("x"), qplane.gen("y")
    w1 = (x * y) * (y * x)
    w2 = x * (y * (y * x))
    assert w1 == w2
    assert qplane_tmd.partial(w1) == qplane_tmd.partial(w2)


def test_verify_free_passes(qplane_tmd, sl2_3d_tmd):
    for tmd in (qplane_tmd, sl2_3d_tmd):
        report = verify_free(tmd)
        assert report.ok, report.failures
        assert len(report.checks) == 9


def test_verify_free_catches_sign_flip(qplane, qplane_tmd):
    from conftest import make_qplane_tmd

    # the constructor always builds a correct bar, so flip the sign of its
    # (1, 0) entry afterwards
    broken = make_qplane_tmd(qplane)
    bar = broken.sigma_bar

    def flipped(word):
        m = [list(row) for row in bar.on_word(word)]
        m[1][0] = -m[1][0]
        return tuple(map(tuple, m))

    broken.sigma_bar = MapMatrix(qplane, 2, bar.kind, flipped)
    report = verify_free(broken)
    assert not report.ok
    names = [c["name"] for c in report.failures]
    assert any("bar" in n for n in names)
    assert all(c["witness"] for c in report.failures)
    # the sweep names the product and formats its first witness
    witnesses = dict(inverse_identities(broken, qplane.normal_words(2)))
    assert witnesses["bar o sigma^T = id"].startswith("entry (1,0) on y: ")
    assert witnesses["hat o bar^T = id"] is not None
    sound = inverse_identities(qplane_tmd, qplane.normal_words(3))
    assert [w for _, w in sound] == [None] * 4


def test_degree_shifts(sl2_3d_tmd):
    assert sl2_3d_tmd.degree_shifts() == [0, -2, 2]


def test_detect_q_skew_3d(sl2_3d_tmd, sl2):
    q = sl2.context.parameter("q")
    constants = detect_q_skew(sl2_3d_tmd)
    assert constants == [sl2.context.one, 1 / (q * q), q * q]


def test_detect_q_skew_requires_diagonal(qplane_tmd):
    with pytest.raises(SigmaNotDiagonal):
        detect_q_skew(qplane_tmd)


def test_detect_q_skew_untwisted(qplane):
    sigma = identity_matrix(qplane, 2)
    rows = {"x": (qplane.one, qplane.zero), "y": (qplane.zero, qplane.one)}
    tmd = TwistedMultiDerivation(qplane, rows, sigma, [Identity(qplane)] * 2)
    ones = detect_q_skew(tmd)
    assert ones == [qplane.context.one] * 2


def test_row_validation(qplane):
    inverses = [Identity(qplane)] * 2
    sigma = identity_matrix(qplane, 2)
    with pytest.raises(ValueError):
        TwistedMultiDerivation(qplane, {"x": (qplane.one,)}, sigma, inverses)
    with pytest.raises(ValueError):
        TwistedMultiDerivation(qplane, {"x": (qplane.one, qplane.zero)}, sigma, inverses)
