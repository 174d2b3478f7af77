"""Twisted multi-derivations: extension, the Leibniz law, freeness
verification, q-skew detection."""
from __future__ import annotations

import random
import sys

import pytest

from intforms.linmap import MapMatrix
from intforms.multider import (
    SigmaNotDiagonal,
    TwistedMultiDerivation,
    detect_q_skew,
    inverse_identities,
    verify_free,
)
from intforms.ncalg import MIXED

from conftest import (
    identity_sigma,
    make_qplane_presentation,
    make_qplane_tmd,
    make_sl2_3d_tmd,
    make_sl2_presentation,
)


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
        for i in range(tmd.n):
            twisted = pres.zero
            for j in range(tmd.n):
                twisted = twisted + pa[j] * tmd.sigma.entry(j, i, b)
            assert left[i] == twisted + a * pb[i]


def _recursive_partial(tmd, word):
    """partial on a word by the twisted Leibniz rule on its leading letter,
    recursing on the rest."""
    pres = tmd.presentation
    if not word:
        return (pres.zero,) * tmd.n
    head, tail = word[0], word[1:]
    row_g = tmd.partial_on_gens[head]
    if not tail:
        return row_g
    sig = tmd.sigma.on_word(tail)
    rest = _recursive_partial(tmd, tail)
    g = pres.monomial((head,))
    return tuple(
        sum((row_g[j] * sig[j][i] for j in range(tmd.n)), pres.zero) + g * rest[i]
        for i in range(tmd.n)
    )


@pytest.mark.parametrize("cached", [0, 7])
def test_partial_of_a_long_word_needs_no_stack(qplane, cached):
    # 120 letters under a 150-frame limit; with a cached suffix the memo
    # is filled from the first missing one
    tmd = make_qplane_tmd(qplane)
    word = (0,) * 117 + (1,) * 3
    if cached:
        tmd.partial(qplane.monomial(word[-cached:]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        row = tmd.partial(qplane.monomial(word))
    finally:
        sys.setrecursionlimit(limit)
    assert row == _recursive_partial(make_qplane_tmd(qplane), word)
    assert all(word[k:] in tmd._memo for k in range(len(word) + 1))


def _kernel_formula(tmd, u):
    """Reference row: sum_jk sigma_bar_kj(partial_j(sigma_hat_ki(u))) on the
    monomial u, evaluated as written."""
    pres = tmd.presentation
    unit = pres.monomial(u)
    row = []
    for i in range(tmd.n):
        total = pres.zero
        for k in range(tmd.n):
            part = tmd.partial(tmd.sigma_hat.entry(k, i, unit))
            for j in range(tmd.n):
                total = total + tmd.sigma_bar.entry(k, j, part[j])
        row.append(total)
    return tuple(row)


KERNEL_CASES = {
    "qplane": (make_qplane_presentation, make_qplane_tmd, "qpctx", 10),
    "sl2-3d": (make_sl2_presentation, make_sl2_3d_tmd, "qctx", 6),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_rows_match_the_formula(request, name):
    # the rows extend along words with sigma-hat as the twist; a twist by
    # sigma instead differs on qplane, whose sigma is not diagonal.  Longest
    # words first, on a fresh derivation, so most fills span several suffixes
    make_pres, make_tmd, ctx, max_len = KERNEL_CASES[name]
    tmd = make_tmd(make_pres(request.getfixturevalue(ctx)))
    words = tmd.presentation.normal_words(max_len)
    assert len(words) == {"qplane": 66, "sl2-3d": 140}[name]
    for u in reversed(words):
        assert tmd._kernel_word(u) == _kernel_formula(tmd, u), u


def test_kernel_of_a_long_word_needs_no_stack(qplane):
    tmd = make_qplane_tmd(qplane)
    word = (0,) * 117 + (1,) * 3
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        row = tmd._kernel_word(word)
    finally:
        sys.setrecursionlimit(limit)
    assert row == _kernel_formula(tmd, word)
    assert all(word[k:] in tmd._kernel_memo for k in range(len(word) + 1))


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
    sigma = identity_sigma(qplane, 2)
    rows = {"x": (qplane.one, qplane.zero), "y": (qplane.zero, qplane.one)}
    tmd = TwistedMultiDerivation(qplane, rows, sigma, sigma)
    ones = detect_q_skew(tmd)
    assert ones == [qplane.context.one] * 2


def test_row_validation(qplane):
    sigma = identity_sigma(qplane, 2)
    with pytest.raises(ValueError):
        TwistedMultiDerivation(qplane, {"x": (qplane.one,)}, sigma, sigma)
    with pytest.raises(ValueError):
        TwistedMultiDerivation(qplane, {"x": (qplane.one, qplane.zero)}, sigma, sigma)
