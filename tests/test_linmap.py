"""Map expressions, map matrices, the composition product, and the
triangular construction of the inverse pair."""
from __future__ import annotations

import random

import pytest

from intforms.linmap import (
    AlgebraMap,
    Compose,
    DiagonalNotInvertible,
    GradeScale,
    Identity,
    MapMatrix,
    NotTriangular,
    Scale,
    SizeMismatch,
    Sum,
    Zero,
    bullet,
    identity_matrix,
    is_identity_on_words,
    transpose_inverse,
)
from intforms.ncalg import GradingAbsent, Presentation


def _table(mat, words):
    """The matrix's values on each word, for comparing two map matrices."""
    return [mat.on_word(w) for w in words]


def test_basic_nodes(qplane):
    q = qplane.context.parameter("q")
    x, y = qplane.gen("x"), qplane.gen("y")
    ident = Identity(qplane)
    assert ident.apply(x * y - 2 * y) == x * y - 2 * y
    assert Zero(qplane).apply(x) == qplane.zero
    doubler = Scale(2, ident)
    assert doubler.apply(x) == 2 * x
    assert Sum([ident, doubler]).apply(y) == 3 * y
    swap = AlgebraMap(qplane, {"x": q * y, "y": x}, name="swap")
    assert swap.apply(x * x) == q * q * (y * y)
    assert Compose(swap, swap).apply(x) == q * (x)
    assert swap.on_word(()) == qplane.one


def test_zero_map_shares_the_zero_without_a_memo(qplane, sl2):
    # the sl2 sigma matrices are mostly Zero entries; each value is the one
    # shared presentation.zero, and no per-word table fills up
    zero = Zero(qplane)
    for word in qplane.normal_words(3):
        assert zero.on_word(word) is qplane.zero
    x, y = qplane.gen("x"), qplane.gen("y")
    assert zero.apply(x * y - 2 * y) is qplane.zero
    assert not hasattr(zero, "_memo")
    with pytest.raises(ValueError):
        zero.apply(sl2.gen("alpha"))


def test_algebra_map_validation(qplane):
    with pytest.raises(ValueError):
        AlgebraMap(qplane, {"x": qplane.gen("x")})  # y image missing


def test_grade_scale(sl2):
    q = sl2.context.parameter("q")
    scale = GradeScale(sl2, q, -2)
    a, b = sl2.gen("alpha"), sl2.gen("beta")
    assert scale.apply(a) == (1 / (q * q)) * a
    assert scale.apply(b) == (q * q) * b
    assert scale.apply(a * b) == a * b
    # mixed-degree input splits into homogeneous words
    assert scale.apply(a + b) == (1 / (q * q)) * a + (q * q) * b
    ungraded = Presentation(sl2.context, generators=("t",))
    with pytest.raises(GradingAbsent):
        GradeScale(ungraded, q, -2)


def test_map_linearity_randomised(qplane_tmd, qplane):
    rng = random.Random(11)
    ctx = qplane.context
    q = ctx.parameter("q")
    entry = qplane_tmd.sigma_bar.entries[1][0]
    words = qplane.normal_words(3)

    def rand_elem():
        out = qplane.zero
        for _ in range(rng.randint(1, 3)):
            out = out + qplane.monomial(rng.choice(words), rng.randint(-3, 3))
        return out

    for _ in range(25):
        u, v = rand_elem(), rand_elem()
        lam = q ** rng.randint(-2, 2) * rng.randint(1, 3)
        assert entry.apply(u + v.scale(lam)) == entry.apply(u) + entry.apply(v).scale(lam)


def test_matrix_kinds(qplane, qplane_tmd):
    assert qplane_tmd.sigma.kind == "upper_triangular"
    assert qplane_tmd.sigma_bar.kind == "lower_triangular"
    assert qplane_tmd.sigma_hat.kind == "upper_triangular"
    assert identity_matrix(qplane, 2).kind == "diagonal"
    with pytest.raises(SizeMismatch):
        MapMatrix.from_entries(qplane, [[Zero(qplane)], [Zero(qplane), Zero(qplane)]])


def test_multiplicative_matrix_on_words(qplane, qplane_tmd):
    ctx = qplane.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    sigma = qplane_tmd.sigma
    # sigma(xy) = sigma(x) sigma(y), checked against a hand expansion
    m = sigma.on_word(qplane.word("x", "y"))
    assert m[0][0] == p * q * (qplane.gen("x") * qplane.gen("y"))
    assert m[0][1] == p * (p - 1) * (qplane.gen("x") * qplane.gen("x"))
    assert m[1][0] == qplane.zero
    assert m[1][1] == (p * p / q) * (qplane.gen("x") * qplane.gen("y"))


def test_bullet_identity_and_shapes(qplane, qplane_tmd):
    sigma = qplane_tmd.sigma
    ident = identity_matrix(qplane, 2)
    words = qplane.normal_words(3)
    assert _table(bullet(sigma, ident), words) == _table(sigma, words)
    assert _table(bullet(ident, sigma), words) == _table(sigma, words)
    with pytest.raises(SizeMismatch):
        bullet(sigma, identity_matrix(qplane, 3))


def test_bullet_is_entrywise_composition(qplane, qplane_tmd):
    sigma = qplane_tmd.sigma
    bar = qplane_tmd.sigma_bar
    prod = bullet(bar, sigma)
    for word in qplane.normal_words(3):
        for i in range(2):
            for j in range(2):
                direct = qplane.zero
                for k in range(2):
                    direct = direct + bar.entries[i][k].apply(
                        sigma.entries[k][j].on_word(word)
                    )
                assert prod.entries[i][j].on_word(word) == direct


def test_qplane_bar_matches_closed_form(qplane, qplane_tmd):
    ctx = qplane.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    bar = qplane_tmd.sigma_bar
    for r in range(4):
        for s in range(4):
            word = qplane.word(*(("x",) * r + ("y",) * s))
            mono = qplane.monomial(word)
            m = bar.on_word(word)
            assert m[0][0] == mono.scale(p ** -r * q ** -s)
            assert m[0][1] == qplane.zero
            assert m[1][1] == mono.scale((q / p) ** r * p ** -s)
            if s == 0:
                assert m[1][0] == qplane.zero
            else:
                lower = qplane.monomial(qplane.word(*(("x",) * (r + 1) + ("y",) * (s - 1))))
                assert m[1][0] == lower.scale(
                    p ** -r * q ** (r - s + 1) * (p ** -s - 1)
                )


def test_qplane_hat_matches_closed_form(qplane, qplane_tmd):
    ctx = qplane.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    hat = qplane_tmd.sigma_hat
    for r in range(4):
        for s in range(4):
            word = qplane.word(*(("x",) * r + ("y",) * s))
            mono = qplane.monomial(word)
            m = hat.on_word(word)
            assert m[0][0] == mono.scale(p ** r * q ** s)
            assert m[1][0] == qplane.zero
            assert m[1][1] == mono.scale((p / q) ** r * p ** s)
            if s == 0:
                assert m[0][1] == qplane.zero
            else:
                upper = qplane.monomial(qplane.word(*(("x",) * (r + 1) + ("y",) * (s - 1))))
                assert m[0][1] == upper.scale(p ** (r + 1) * (p ** s - 1))


def test_inverse_pair_identities_to_length_four(qplane, qplane_tmd):
    words = qplane.normal_words(4)
    sigma_t = qplane_tmd.sigma.transpose()
    bar_t = qplane_tmd.sigma_bar.transpose()
    assert is_identity_on_words(bullet(qplane_tmd.sigma_bar, sigma_t), words) is None
    assert is_identity_on_words(bullet(sigma_t, qplane_tmd.sigma_bar), words) is None
    assert is_identity_on_words(bullet(qplane_tmd.sigma_hat, bar_t), words) is None
    assert is_identity_on_words(bullet(bar_t, qplane_tmd.sigma_hat), words) is None


def test_diagonal_sigma_hat_equals_sigma(sl2, sl2_3d_tmd):
    words = sl2.normal_words(3)
    assert sl2_3d_tmd.sigma.kind == "diagonal"
    assert sl2_3d_tmd.sigma_bar.kind == "diagonal"
    assert _table(sl2_3d_tmd.sigma_hat, words) == _table(sl2_3d_tmd.sigma, words)


def test_transpose_inverse_rejects(qplane, qplane_tmd):
    sigma = qplane_tmd.sigma
    general = bullet(sigma, sigma.transpose())
    assert general.kind == "general"
    with pytest.raises(NotTriangular):
        transpose_inverse(general, [Identity(qplane), Identity(qplane)])
    bad_inv = [Identity(qplane), Identity(qplane)]
    with pytest.raises(DiagonalNotInvertible):
        transpose_inverse(sigma, bad_inv)


def test_single_generator_trivial_inverse(qctx):
    pres = Presentation(qctx, generators=("t",))
    sigma = MapMatrix.from_entries(pres, [[Identity(pres)]])
    bar = transpose_inverse(sigma, [Identity(pres)])
    assert bar.on_word(pres.word("t"))[0][0] == pres.gen("t")
    hat = transpose_inverse(bar, [Identity(pres)])
    assert hat.on_word(pres.word("t", "t"))[0][0] == pres.gen("t") ** 2
