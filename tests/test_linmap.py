"""Map matrices given by their values on words (a single map is a
diagonal entry), the check that a composition product is the identity, the
triangular construction of the inverse pair, and sigma as one algebra map
A -> M_n(A) on raw words."""
from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intforms import linmap
from intforms.linmap import (
    MapMatrix,
    NotTriangular,
    SizeMismatch,
    composite_is_identity,
    free_pair,
    transpose_inverse,
)
from intforms.multider import TwistedMultiDerivation, inverse_identities, verify_free
from intforms.ncalg import AlgElement, Presentation
from intforms.presets import REGISTRY, load_calc

from conftest import diagonal_sigma, identity_sigma, make_qplane_presentation


def _table(mat, words):
    """The matrix's values on each word, for comparing two map matrices."""
    return [mat.on_word(w) for w in words]


def test_basic_nodes(qplane):
    q = qplane.context.parameter("q")
    x, y = qplane.gen("x"), qplane.gen("y")
    ident = identity_sigma(qplane, 1)
    assert ident.entry(0, 0, x * y - 2 * y) == x * y - 2 * y
    swap = diagonal_sigma(qplane, [{"x": q * y, "y": x}])
    assert swap.entry(0, 0, x * x) == q * q * (y * y)
    assert swap.entry(0, 0, swap.entry(0, 0, x)) == q * x
    assert swap.on_word(()) == ((qplane.one,),)


def test_algebra_map_validation(qplane):
    x = qplane.gen("x")
    with pytest.raises(ValueError, match=r"missing for \['y'\]"):
        MapMatrix.from_images(qplane, {"x": [[x]]})
    with pytest.raises(KeyError):
        MapMatrix.from_images(qplane, {"x": [[x]], "y": [[x]], "z": [[x]]})


def test_grade_scale():
    # `sigma grades: q^-2, q^-1, q^-1` gives sigma_ii(a) = l_i^deg(a) a on
    # homogeneous a, extended linearly, and its inverses l_i^(-deg a) a
    tmd = REGISTRY["sl2-3d"].load().tmd
    pres = tmd.presentation
    q = pres.context.parameter("q")
    a, b = pres.gen("alpha"), pres.gen("beta")
    assert tmd.sigma.entry(0, 0, a) == (1 / (q * q)) * a
    assert tmd.sigma.entry(0, 0, b) == (q * q) * b
    assert tmd.sigma.entry(0, 0, a * b) == a * b
    # mixed-degree input splits into homogeneous words
    assert tmd.sigma.entry(0, 0, a + b) == (1 / (q * q)) * a + (q * q) * b
    assert tmd.sigma.entry(1, 1, a + b) == (1 / q) * a + q * b
    assert tmd.sigma_bar.entry(0, 0, a + b) == (q * q) * a + (1 / (q * q)) * b
    assert tmd.sigma.entry(0, 1, a) is pres.zero


def test_map_linearity_randomised(qplane_tmd, qplane):
    rng = random.Random(11)
    ctx = qplane.context
    q = ctx.parameter("q")
    bar = qplane_tmd.sigma_bar
    words = qplane.normal_words(3)

    def rand_elem():
        out = qplane.zero
        for _ in range(rng.randint(1, 3)):
            out = out + qplane.monomial(rng.choice(words), rng.randint(-3, 3))
        return out

    for _ in range(25):
        u, v = rand_elem(), rand_elem()
        lam = q ** rng.randint(-2, 2) * rng.randint(1, 3)
        assert bar.entry(1, 0, u + v.scale(lam)) == bar.entry(1, 0, u) + bar.entry(1, 0, v).scale(lam)


def test_matrix_kinds(qplane, qplane_tmd):
    assert qplane_tmd.sigma.kind == "upper_triangular"
    assert qplane_tmd.sigma_bar.kind == "lower_triangular"
    assert qplane_tmd.sigma_hat.kind == "upper_triangular"
    assert identity_sigma(qplane, 2).kind == "diagonal"
    assert qplane_tmd.sigma.transpose().kind == "lower_triangular"
    x, y = qplane.gen("x"), qplane.gen("y")
    with pytest.raises(SizeMismatch):
        MapMatrix.from_images(qplane, {"x": [[x]], "y": [[y, x], [x, y]]})


def test_entry_reads_the_value_or_the_forced_zero(qplane, sl2):
    # a slot the kind forces to vanish is the shared zero, and the value is
    # not read; any other slot sums on_word(w)[i][j] over the terms
    x, y = qplane.gen("x"), qplane.gen("y")
    reads = []

    def value(word):
        reads.append(word)
        m = qplane.monomial(word)
        return ((m, qplane.zero), (m.scale(2) + x, m.scale(3)))

    mat = MapMatrix(qplane, 2, "lower_triangular", value)
    a = x * y - 2 * y
    assert mat.entry(0, 1, a) is qplane.zero
    assert reads == []
    want = qplane.zero
    for word, coeff in a.terms.items():
        want = want + value(word)[1][0].scale(coeff)
    reads.clear()
    assert mat.entry(1, 0, a) == want == a.scale(2) + x.scale(-1)
    assert sorted(reads) == sorted(a.terms)
    with pytest.raises(ValueError):
        mat.entry(1, 0, sl2.gen("alpha"))
    diag = identity_sigma(qplane, 3)
    assert [diag.entry(0, j, x) for j in range(3)] == [x, qplane.zero, qplane.zero]
    assert diag.entry(0, 2, x) is qplane.zero


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


def _composite_witness(amat, bmat, words):
    """composite_is_identity by its definition: each entry of A o B summed
    from A.entry over every k, no slot skipped, against the word's normal
    form on the diagonal and zero off it."""
    pres, n = amat.presentation, amat.n
    for word in words:
        bw = bmat.on_word(word)
        for i in range(n):
            for j in range(n):
                got = sum((amat.entry(i, k, bw[k][j]) for k in range(n)), pres.zero)
                want = pres.monomial(word) if i == j else pres.zero
                if got != want:
                    return f"entry ({i},{j}) on {pres.word_str(word)}: {got} != {want}"
    return None


def test_composite_identity_and_shapes(qplane, qplane_tmd, sl2):
    sigma = qplane_tmd.sigma
    ident = identity_sigma(qplane, 2)
    words = qplane.normal_words(3)
    assert composite_is_identity(ident, ident, words) is None
    # sigma composed with the identity, either way round, is sigma
    witness = "entry (0,0) on x: p*x != x"
    assert composite_is_identity(sigma, ident, words) == witness
    assert composite_is_identity(ident, sigma, words) == witness
    with pytest.raises(SizeMismatch):
        composite_is_identity(sigma, identity_sigma(qplane, 3), words)
    with pytest.raises(ValueError, match="different presentations"):
        composite_is_identity(identity_sigma(sl2, 2), ident, words)


def test_composite_is_entrywise_composition(qplane, qplane_tmd):
    # bar inverts sigma^T, not sigma, so bar o sigma differs from the
    # identity; the raw word y*x goes first, and on it bar o sigma^T is the
    # identity only against its normal form q^-1*x*y
    sigma = qplane_tmd.sigma
    bar = qplane_tmd.sigma_bar
    words = [qplane.word("y", "x"), *qplane.normal_words(3)]
    witness = composite_is_identity(bar, sigma, words)
    assert witness == _composite_witness(bar, sigma, words)
    assert witness == "entry (0,1) on y*x: ((p - 1)/(q*p))*x^2 != 0"
    assert composite_is_identity(bar, sigma, words[1:]).startswith("entry (0,1) on y: ")
    assert composite_is_identity(bar, sigma.transpose(), words) is None


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
    assert composite_is_identity(qplane_tmd.sigma_bar, sigma_t, words) is None
    assert composite_is_identity(sigma_t, qplane_tmd.sigma_bar, words) is None
    assert composite_is_identity(qplane_tmd.sigma_hat, bar_t, words) is None
    assert composite_is_identity(bar_t, qplane_tmd.sigma_hat, words) is None


def test_diagonal_sigma_hat_equals_sigma(sl2, sl2_3d_tmd):
    words = sl2.normal_words(3)
    assert sl2_3d_tmd.sigma.kind == "diagonal"
    assert sl2_3d_tmd.sigma_bar.kind == "diagonal"
    assert _table(sl2_3d_tmd.sigma_hat, words) == _table(sl2_3d_tmd.sigma, words)


def test_transpose_inverse_rejects(qplane, qplane_tmd):
    sigma = qplane_tmd.sigma
    general = MapMatrix(qplane, 2, "general", sigma.on_word)
    with pytest.raises(NotTriangular):
        transpose_inverse(general, identity_sigma(qplane, 2))
    with pytest.raises(SizeMismatch):
        transpose_inverse(sigma, identity_sigma(qplane, 3))
    # the identity does not invert sigma's diagonal: the pair still builds,
    # and the freeness row names the first identity it breaks
    rows = {qplane.generators[g]: row for g, row in qplane_tmd.partial_on_gens.items()}
    tmd = TwistedMultiDerivation(qplane, rows, sigma, identity_sigma(qplane, 2))
    (row,) = [c for c in verify_free(tmd).checks if c["name"] == "bar o sigma^T = id"]
    assert not row["ok"]
    assert row["witness"] == "entry (0,0) on x: p*x != x"


def test_single_generator_trivial_inverse(qctx):
    pres = Presentation(qctx, generators=("t",))
    sigma = identity_sigma(pres, 1)
    bar = transpose_inverse(sigma, sigma)
    assert bar.on_word(pres.word("t"))[0][0] == pres.gen("t")
    hat = transpose_inverse(bar, sigma)
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
    inverse = diagonal_sigma(pres, [
        {"x": (1 / q) * x, "y": y},
        {"x": x / 2, "y": q * y},
        {"x": (1 / (q * q)) * x, "y": y / 3},
    ])
    words = pres.normal_words(3)
    for images, kinds, corner in (
        (upper, ("lower_triangular", "upper_triangular"), (2, 0)),
        (lower, ("upper_triangular", "lower_triangular"), (0, 2)),
    ):
        sigma = MapMatrix.from_images(pres, images)
        bar, hat = free_pair(sigma, inverse)
        assert (bar.kind, hat.kind) == kinds
        sigma_t, bar_t = sigma.transpose(), bar.transpose()
        for left, right in ((bar, sigma_t), (sigma_t, bar), (hat, bar_t), (bar_t, hat)):
            assert composite_is_identity(left, right, words) is None
        i, j = corner
        assert any(bar.on_word(w)[i][j] for w in words)
        assert any(hat.on_word(w)[j][i] for w in words)


@pytest.fixture(scope="module")
def plane(qctx):
    """A quantum plane over Q(q) of its own, so that the drawn maps and raw
    words stay out of the shared presentations' memos."""
    return make_qplane_presentation(qctx)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_composite_matches_the_entrywise_definition(plane, data):
    # a drawn 3x3 triangular sigma whose diagonal entries scale each
    # generator: free_pair's four products are the identity on normal
    # words, and on any words, raw ones included, composite_is_identity
    # gives what the definition does, also once an entry of bar is corrupted
    q = plane.context.parameter("q")
    x, y, one, zero = plane.gen("x"), plane.gen("y"), plane.one, plane.zero
    units = st.sampled_from([q, 1 / q, plane.context.coerce(2), q * q])
    entries = st.sampled_from([zero, zero, one, x, y, x + y, q * x - y])
    scales = [[data.draw(units) for _ in range(3)] for _ in plane.generators]
    images = {
        g: [[scales[a][i] * plane.gen(g) if i == j else data.draw(entries) if i < j else zero
             for j in range(3)] for i in range(3)]
        for a, g in enumerate(plane.generators)
    }
    if data.draw(st.booleans(), label="lower"):
        images = {g: [list(col) for col in zip(*m)] for g, m in images.items()}
    inverse = diagonal_sigma(plane, [
        {g: (1 / scales[a][i]) * plane.gen(g) for a, g in enumerate(plane.generators)}
        for i in range(3)
    ])
    sigma = MapMatrix.from_images(plane, images)
    bar, hat = free_pair(sigma, inverse)
    sigma_t, bar_t = sigma.transpose(), bar.transpose()
    normal = data.draw(st.lists(st.sampled_from(plane.normal_words(3)), min_size=1, max_size=4))
    raw = data.draw(st.lists(st.lists(st.integers(0, 1), max_size=4).map(tuple), max_size=3))
    for left, right in ((bar, sigma_t), (sigma_t, bar), (hat, bar_t), (bar_t, hat)):
        assert composite_is_identity(left, right, normal) is None
        assert composite_is_identity(left, right, raw) == _composite_witness(left, right, raw)
    # one entry of bar, on one of the normal words, off by a nonzero element
    i, j = data.draw(st.sampled_from(
        [(i, j) for i in range(3) for j in range(3) if not linmap._vanishes(bar.kind, i, j)]
    ), label="slot")
    spot = data.draw(st.sampled_from(normal), label="word")
    error = data.draw(entries.filter(bool), label="error")

    def corrupted(word):
        m = [list(row) for row in bar.on_word(word)]
        if word == spot:
            m[i][j] = m[i][j] + error
        return tuple(map(tuple, m))

    broken = MapMatrix(plane, 3, bar.kind, corrupted)
    words = raw + normal
    for left, right in ((broken, sigma_t), (sigma_t, broken)):
        assert composite_is_identity(left, right, words) == _composite_witness(left, right, words)
    # sigma^T o bar reads bar on the word itself, and sigma's diagonal
    # entries are invertible, so the corruption shows on spot
    assert composite_is_identity(sigma_t, broken, [spot]) is not None


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
        "x": ((p * x, zero), (zero, (p / q) * x)),
        "y": ((q * y, (p - 1) * x), (zero, p * y)),
    }
    by_letter = [images["x"], images["y"]]
    calls = []
    product = linmap._matrix_product

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(linmap, "_matrix_product", counted)
    sigma = MapMatrix.from_images(pres, images)
    first, second = _long_words(random.Random(20))
    assert _low_stack(sigma.on_word, first) == _fold_matrices(pres, by_letter, first)
    # one matrix product per new word: the word and each of its prefixes
    assert len(calls) == 200
    assert _low_stack(sigma.on_word, second) == _fold_matrices(pres, by_letter, second)
    assert len(calls) == 260
    # every prefix of both words is memoised
    for word in (first, second):
        for k in range(len(word) + 1):
            sigma.on_word(word[:k])
    assert len(calls) == 260
    assert sigma.on_word(first[:37]) == _fold_matrices(pres, by_letter, first[:37])


def test_algebra_map_extends_its_memoised_prefix(qpctx, monkeypatch):
    pres = make_qplane_presentation(qpctx)
    q, p = qpctx.parameter("q"), qpctx.parameter("p")
    images = {"x": p * pres.gen("y"), "y": q * pres.gen("x")}
    swap = diagonal_sigma(pres, [images])
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
            want = want * images[pres.generators[letter]]
        assert got == ((want,),)


# -- sigma as one algebra map A -> M_n(A) ------------------------------------


@pytest.fixture(scope="module")
def fresh_tmds():
    """The shipped qplane and sl2-3d derivations, loaded apart from the
    registry so that random raw words stay out of its memos."""
    return {name: load_calc(REGISTRY[name].source).tmd for name in ("qplane", "sl2-3d")}


def _matmul(pres, a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), pres.zero) for j in range(n))
        for i in range(n)
    )


@pytest.mark.parametrize("name", ["qplane", "sl2-3d"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_sigma_is_one_algebra_map_on_raw_words(fresh_tmds, name, data):
    tmd = fresh_tmds[name]
    pres, n = tmd.presentation, tmd.n
    letters = st.integers(0, len(pres.generators) - 1)
    u = tuple(data.draw(st.lists(letters, max_size=8), label="u"))
    v = tuple(data.draw(st.lists(letters, max_size=8 - len(u)), label="v"))
    mats = (tmd.sigma, tmd.sigma_bar, tmd.sigma_hat)
    # multiplicative on raw words
    assert tmd.sigma.on_word(u + v) == _matmul(pres, tmd.sigma.on_word(u), tmd.sigma.on_word(v))
    # entry is linear
    c = data.draw(st.integers(-3, 3), label="c")
    a, b = pres.monomial(u), pres.monomial(v, 2) - pres.monomial(v[::-1])
    for mat in mats:
        for i in range(n):
            for j in range(n):
                got = mat.entry(i, j, a + b.scale(c))
                assert got == mat.entry(i, j, a) + mat.entry(i, j, b).scale(c)
    for identity, witness in inverse_identities(tmd, [u, v, u + v]):
        assert witness is None, identity
    if name == "sl2-3d":
        q = pres.context.parameter("q")
        grades = (q ** -2, q ** -1, q ** -1)
        for w in (u, v, u + v):
            deg = sum(pres.grading[g] for g in w)
            mono = pres.monomial(w)
            for mat, sign in ((tmd.sigma, 1), (tmd.sigma_bar, -1)):
                want = tuple(
                    tuple(mono.scale(lam ** (sign * deg)) if i == j else pres.zero for j in range(n))
                    for i, lam in enumerate(grades)
                )
                assert mat.on_word(w) == want
            assert tmd.sigma_hat.on_word(w) == tmd.sigma.on_word(w)


@pytest.mark.parametrize("name", ["qplane", "sl2-3d"])
def test_hat_shares_the_diagonal_sigma_memoises(fresh_tmds, name):
    # hat's diagonal entries are sigma's, so hat reads sigma's memo instead
    # of evaluating them again: on every raw word up to length 4 they are
    # the very objects sigma holds
    tmd = fresh_tmds[name]
    letters = range(len(tmd.presentation.generators))
    for length in range(5):
        for word in itertools.product(letters, repeat=length):
            hat, sigma = tmd.sigma_hat.on_word(word), tmd.sigma.on_word(word)
            for i in range(tmd.n):
                assert hat[i][i] is sigma[i][i]
