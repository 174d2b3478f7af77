"""Maps, map matrices given by their values on words, the composition
product, and the triangular construction of the inverse pair."""
from __future__ import annotations

import random
import sys

import pytest

from intforms import linmap
from intforms.linmap import (
    AlgebraMap,
    DiagonalNotInvertible,
    GradeScale,
    MapMatrix,
    MatrixEntry,
    NotTriangular,
    SizeMismatch,
    Zero,
    bullet,
    free_pair,
    is_identity_on_words,
    transpose_inverse,
)
from intforms.ncalg import AlgElement, GradingAbsent, Presentation

from conftest import identity_map, make_qplane_presentation


def _table(mat, words):
    """The matrix's values on each word, for comparing two map matrices."""
    return [mat.on_word(w) for w in words]


def test_basic_nodes(qplane):
    q = qplane.context.parameter("q")
    x, y = qplane.gen("x"), qplane.gen("y")
    ident = identity_map(qplane)
    assert ident.apply(x * y - 2 * y) == x * y - 2 * y
    assert Zero(qplane).apply(x) == qplane.zero
    swap = AlgebraMap(qplane, {"x": q * y, "y": x}, name="swap")
    assert swap.apply(x * x) == q * q * (y * y)
    assert swap.apply(swap.apply(x)) == q * x
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


def test_grade_scale_rejects_a_float_exponent(sl2):
    # int() would have truncated 2.7 to 2 without a word
    q = sl2.context.parameter("q")
    with pytest.raises(TypeError):
        GradeScale(sl2, q, 2.7)


def test_grade_scale_checks_raw_words_only(sl2, monkeypatch):
    # apply hands over the normal words of an element, already checked; a
    # raw word through on_word is checked, also when an equal one is memoised
    q = sl2.context.parameter("q")
    scale = GradeScale(sl2, q, 1)
    checked = []
    coerce = sl2._coerce_word

    def counting(word):
        checked.append(word)
        return coerce(word)

    monkeypatch.setattr(sl2, "_coerce_word", counting)
    a, b = sl2.gen("alpha"), sl2.gen("beta")
    assert scale.apply(a * a + b) == (q * q) * (a * a) + (1 / q) * b
    assert checked == []
    assert scale.on_word((1, 1)) == (q * q) * (a * a)
    assert checked == [(1, 1)]
    with pytest.raises(TypeError):
        scale.on_word((1.0, 1))


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
    assert MapMatrix.diagonal([identity_map(qplane)] * 2).kind == "diagonal"
    assert qplane_tmd.sigma.transpose().kind == "lower_triangular"
    x, y = qplane.gen("x"), qplane.gen("y")
    with pytest.raises(SizeMismatch):
        MapMatrix.from_images(qplane, {"x": [[x]], "y": [[y, x], [x, y]]})


def test_entries_are_shared_zeros_and_views(qplane, qplane_tmd, sl2_3d_tmd):
    # the slots a kind forces to vanish hold one Zero, which callers skip;
    # an off-diagonal slot reads the matrix's value and keeps no memo
    for mat in (qplane_tmd.sigma, qplane_tmd.sigma_bar, sl2_3d_tmd.sigma_hat):
        zeros = {id(e) for row in mat.entries for e in row if isinstance(e, Zero)}
        assert len(zeros) == 1
    bar = qplane_tmd.sigma_bar
    assert isinstance(bar.entries[0][1], Zero)
    entry = bar.entries[1][0]
    assert isinstance(entry, MatrixEntry) and not hasattr(entry, "_memo")
    for word in qplane.normal_words(3):
        assert entry.on_word(word) is bar.on_word(word)[1][0]
    diag = MapMatrix.diagonal([identity_map(qplane)] * 3)
    assert [isinstance(e, Zero) for e in diag.entries[0]] == [False, True, True]
    # a diagonal slot of a diagonal matrix or of an inverse holds its map
    assert all(isinstance(sl2_3d_tmd.sigma.entries[i][i], GradeScale) for i in range(3))
    assert [repr(bar.entries[i][i]) for i in range(2)] == ["sigma11_inv", "sigma22_inv"]


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
    ident = MapMatrix.diagonal([identity_map(qplane)] * 2)
    words = qplane.normal_words(3)
    assert _table(bullet(sigma, ident), words) == _table(sigma, words)
    assert _table(bullet(ident, sigma), words) == _table(sigma, words)
    with pytest.raises(SizeMismatch):
        bullet(sigma, MapMatrix.diagonal([identity_map(qplane)] * 3))


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
        transpose_inverse(general, [identity_map(qplane), identity_map(qplane)])
    bad_inv = [identity_map(qplane), identity_map(qplane)]
    with pytest.raises(DiagonalNotInvertible):
        transpose_inverse(sigma, bad_inv)


def test_single_generator_trivial_inverse(qctx):
    pres = Presentation(qctx, generators=("t",))
    sigma = MapMatrix.diagonal([identity_map(pres)])
    bar = transpose_inverse(sigma, [identity_map(pres)])
    assert bar.on_word(pres.word("t"))[0][0] == pres.gen("t")
    hat = transpose_inverse(bar, [identity_map(pres)])
    assert hat.on_word(pres.word("t", "t"))[0][0] == pres.gen("t") ** 2


def test_three_by_three_inverse_pairs(qctx):
    # on a free algebra, an upper and a lower triangular 3x3 sigma: the gap-2
    # slot of bar and hat needs two substitution steps, forward for the upper
    # sigma and backward for the lower one
    pres = Presentation(qctx, generators=("x", "y"))
    q = qctx.parameter("q")
    x, y, one, zero = pres.gen("x"), pres.gen("y"), pres.one, pres.zero
    upper = {
        "x": [[q * x, x, y], [zero, 2 * x, q * y], [zero, zero, q * q * x]],
        "y": [[y, x + y, one], [zero, (1 / q) * y, x], [zero, zero, 3 * y]],
    }
    lower = {g: [list(col) for col in zip(*m)] for g, m in upper.items()}
    inverses = [
        AlgebraMap(pres, {"x": (1 / q) * x, "y": y}),
        AlgebraMap(pres, {"x": x / 2, "y": q * y}),
        AlgebraMap(pres, {"x": (1 / (q * q)) * x, "y": y / 3}),
    ]
    words = pres.normal_words(3)
    for images, kinds, corner in (
        (upper, ("lower_triangular", "upper_triangular"), (2, 0)),
        (lower, ("upper_triangular", "lower_triangular"), (0, 2)),
    ):
        sigma = MapMatrix.from_images(pres, images)
        bar, hat = free_pair(sigma, inverses)
        assert (bar.kind, hat.kind) == kinds
        sigma_t, bar_t = sigma.transpose(), bar.transpose()
        for left, right in ((bar, sigma_t), (sigma_t, bar), (hat, bar_t), (bar_t, hat)):
            assert is_identity_on_words(bullet(left, right), words) is None
        i, j = corner
        assert any(bar.on_word(w)[i][j] for w in words)
        assert any(hat.on_word(w)[j][i] for w in words)


# -- values from the memoised prefix -----------------------------------------


def _low_stack(fn, *args):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def _long_words(rng):
    """A 200-letter raw word over x, y and a 210-letter one that leaves it
    after 150 letters."""
    word = tuple(rng.randrange(2) for _ in range(200))
    return word, word[:150] + (1 - word[150],) + tuple(rng.randrange(2) for _ in range(59))


def _fold_matrices(pres, images, word):
    """The product of the letters' matrices from the identity, letter by letter."""
    n = len(images[0])
    acc = tuple(tuple(pres.one if i == j else pres.zero for j in range(n)) for i in range(n))
    for letter in word:
        m = images[letter]
        acc = tuple(
            tuple(sum((acc[i][k] * m[k][j] for k in range(n)), pres.zero) for j in range(n))
            for i in range(n)
        )
    return acc


def test_sigma_extends_its_memoised_prefix(qpctx, monkeypatch):
    # a fresh presentation keeps the long words out of the shared caches
    pres = make_qplane_presentation(qpctx)
    q, p = qpctx.parameter("q"), qpctx.parameter("p")
    x, y, zero = pres.gen("x"), pres.gen("y"), pres.zero
    images = {
        0: ((p * x, zero), (zero, (p / q) * x)),
        1: ((q * y, (p - 1) * x), (zero, p * y)),
    }
    calls = []
    product = linmap._matrix_product

    def counted(presentation, a, b):
        calls.append(1)
        return product(presentation, a, b)

    monkeypatch.setattr(linmap, "_matrix_product", counted)
    sigma = MapMatrix.from_images(pres, images)
    first, second = _long_words(random.Random(20))
    assert _low_stack(sigma.on_word, first) == _fold_matrices(pres, images, first)
    # one matrix product per new word: the word and each of its prefixes
    assert len(calls) == 200
    assert _low_stack(sigma.on_word, second) == _fold_matrices(pres, images, second)
    assert len(calls) == 260
    # every prefix of both words is memoised
    for word in (first, second):
        for k in range(len(word) + 1):
            sigma.on_word(word[:k])
    assert len(calls) == 260
    assert sigma.on_word(first[:37]) == _fold_matrices(pres, images, first[:37])


def test_algebra_map_extends_its_memoised_prefix(qpctx, monkeypatch):
    pres = make_qplane_presentation(qpctx)
    q, p = qpctx.parameter("q"), qpctx.parameter("p")
    swap = AlgebraMap(pres, {"x": p * pres.gen("y"), "y": q * pres.gen("x")})
    calls = []
    mul = AlgElement.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    first, second = _long_words(random.Random(21))
    monkeypatch.setattr(AlgElement, "__mul__", counted)
    value = _low_stack(swap.on_word, first)
    assert len(calls) == 200
    _low_stack(swap.on_word, second)
    assert len(calls) == 260
    monkeypatch.undo()
    assert all(w[:k] in swap._memo for w in (first, second) for k in range(len(w) + 1))
    for word, got in ((first, value), (second, swap.on_word(second))):
        want = pres.one
        for letter in word:
            want = want * swap.images[letter]
        assert got == want
