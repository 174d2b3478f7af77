"""Matrix-algebra calculus: Pauli derivations, Koszul complex, trace pairing."""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ_I

from intforms import matrixcalc as mc
from intforms.dga import DegreeOverflow
from intforms.gaussians import Gaussian, I
from intforms.matrixcalc import (
    DerBasis,
    I_UNIT,
    MatElement,
    MatForm,
    MatHomForm,
    NotClosed,
    commutator,
    curvature_mn,
    gaussian,
    koszul_d,
    nabla_chain,
    nabla_hom,
    nabla_mn,
    phi,
    phi_inv,
    phi_ladder,
    structure_constants,
    trace_integral,
)


@pytest.fixture(scope="module")
def pauli():
    return DerBasis.pauli()


def units(n=2):
    return [MatElement.unit(n, r, s) for r in range(n) for s in range(n)]


def random_matrix(rng, n=2):
    return MatElement(
        [
            [rng.randint(-4, 4) + rng.randint(-4, 4) * I_UNIT for _ in range(n)]
            for _ in range(n)
        ]
    )


def epsilon(i, j, l):
    if (i, j, l) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return 1
    if (i, j, l) in ((2, 1, 0), (1, 0, 2), (0, 2, 1)):
        return -1
    return 0


def test_matrix_arithmetic():
    a = MatElement([[1, 2], [3, -1]])
    b = MatElement([[0, I_UNIT], [1, 0]])
    assert not a.trace()
    assert a * b == MatElement([[2, I_UNIT], [-1, 3 * I_UNIT]])
    assert 2 * a == a * 2 == a + a
    assert commutator(a, a) == MatElement.zero(2)
    assert MatElement.identity(2) * a == a
    assert MatElement.unit(2, 0, 1) * MatElement.unit(2, 1, 0) == MatElement.unit(2, 0, 0)
    assert not MatElement.zero(2)
    assert a
    with pytest.raises(ValueError, match="square"):
        MatElement([[1, 2]])


def _parts(x, y):
    # the Gaussian x + y*I from ints, Fractions or Gaussians
    return gaussian(x) + y * I


# entries with small parts and mostly zero, so that sums and products cancel
PARTS = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))
ZERO = gaussian(0)
ENTRIES = st.one_of(st.just(ZERO), st.just(ZERO), st.builds(_parts, PARTS, PARTS))


# -- Gaussian rationals against sympy's QQ_I ----------------------------------

WIDE_PARTS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
SCALARS = st.one_of(
    st.builds(lambda x, y: (_parts(x, y), QQ_I(x, y)), WIDE_PARTS, WIDE_PARTS),
    st.builds(lambda x: (gaussian(x), QQ_I(x, 0)), WIDE_PARTS),
    st.builds(lambda y: (_parts(0, y), QQ_I(0, y)), WIDE_PARTS),
    st.integers(-3, 3).map(lambda n: (n, QQ_I(n, 0))),
    WIDE_PARTS.map(lambda x: (x, QQ_I(x, 0))),
)


def _matches(g, z):
    assert isinstance(g, Gaussian)
    assert (g.x, g.y) == (Fraction(int(z.x.numerator), int(z.x.denominator)),
                          Fraction(int(z.y.numerator), int(z.y.denominator)))
    assert str(g) == str(z)
    assert bool(g) == bool(z)
    assert g == _parts(g.x, g.y) and hash(g) == hash(_parts(g.x, g.y))


@given(a=SCALARS, b=SCALARS)
@settings(max_examples=300, deadline=None)
def test_gaussians_agree_with_qq_i(a, b):
    (x, zx), (y, zy) = a, b
    if not isinstance(x, Gaussian):
        if not isinstance(y, Gaussian):
            return  # plain numbers on both sides are not ours to check
        x, zx, y, zy = y, zy, x, zx
    _matches(x, zx)
    _matches(-x, -zx)
    for op in (operator.add, operator.sub, operator.mul):
        _matches(op(x, y), op(zx, zy))
        _matches(op(y, x), op(zy, zx))
    if zy:
        _matches(x / y, zx / zy)
    if zx:
        _matches(y / x, zy / zx)
    assert (x == y) == (zx == zy)
    if not x.y:
        assert x == x.x and hash(x) == hash(x.x)


def test_gaussian_printing():
    cases = {
        (0, 0): "0",
        (1, 0): "1",
        (0, 1): "I",
        (0, -1): "-I",
        (Fraction(1, 2), Fraction(-3, 4)): "1/2 - 3*I/4",
        (-1, 1): "-1 + I",
        (0, Fraction(-1, 2)): "-I/2",
        (5, Fraction(-1, 3)): "5 - I/3",
        (0, Fraction(3, 2)): "3*I/2",
    }
    for (x, y), text in cases.items():
        assert str(_parts(x, y)) == text == str(QQ_I(x, y))
    assert Gaussian(2, -4, -6) == _parts(Fraction(-1, 3), Fraction(2, 3))
    with pytest.raises(ZeroDivisionError):
        gaussian(1) / 0
    with pytest.raises(ZeroDivisionError):
        Gaussian(1, 1, 0)


def test_exact_entry_points_reject_floats_and_strings():
    # QQ_I took gaussian(0.1) for 1/10 and raised its own CoercionFailed
    # for the rest
    one = MatElement.identity(2)
    for value in (0.1, 0.25, 2.0, "1/3", 1j, None):
        with pytest.raises(TypeError):
            gaussian(value)
        with pytest.raises(TypeError):
            value * I
        with pytest.raises(TypeError):
            one * value
        with pytest.raises(TypeError):
            value * one
        with pytest.raises(TypeError):
            MatElement([[value, 0], [0, 1]])
    with pytest.raises(TypeError):
        MatElement([[0.0, 0], [0, 1]])  # a float zero is refused, not dropped
    with pytest.raises(TypeError):
        gaussian(1) * 0.5
    assert gaussian(_parts(1, 2)) == _parts(1, 2)
    assert one * Fraction(1, 4) == MatElement([[Fraction(1, 4), 0], [0, Fraction(1, 4)]])


def _rows(n):
    return st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)


# the dense formulas, on plain row lists
def _dense_add(a, b):
    return [[x + y for x, y in zip(row, orow)] for row, orow in zip(a, b)]


def _dense_neg(a):
    return [[-x for x in row] for row in a]


def _dense_mul(a, b):
    n = len(a)
    return [
        [sum((a[r][k] * b[k][s] for k in range(n)), ZERO) for s in range(n)]
        for r in range(n)
    ]


def _dense_scale(c, a):
    return [[c * x for x in row] for row in a]


def _dense_str(a):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in a) + "]"


@given(data=st.data(), n=st.sampled_from((2, 3)))
@settings(max_examples=120, deadline=None)
def test_matrices_agree_with_dense_rows(data, n):
    a, b = data.draw(_rows(n)), data.draw(_rows(n))
    c = data.draw(ENTRIES)
    x, y = MatElement(a), MatElement(b)
    for got, want in (
        (x + y, _dense_add(a, b)),
        (x - y, _dense_add(a, _dense_neg(b))),
        (-x, _dense_neg(a)),
        (x * y, _dense_mul(a, b)),
        (c * x, _dense_scale(c, a)),
        (x * c, _dense_scale(c, a)),
    ):
        assert str(got) == _dense_str(want)
        assert got == MatElement(want)
        assert bool(got) == any(v for row in want for v in row)
    assert str(x) == _dense_str(a)
    assert x.trace() == sum((a[r][r] for r in range(n)), ZERO)
    assert all(x.entry(r, s) == a[r][s] for r in range(n) for s in range(n))
    assert (x == y) == (a == b)
    assert bool(x) == any(v for row in a for v in row)


def test_matrix_product_rejects_another_size():
    # the dense product used to truncate to the smaller size
    with pytest.raises(ValueError, match="2x2 and a 3x3"):
        MatElement.identity(2) * MatElement.identity(3)


def test_basis_validation():
    with pytest.raises(ValueError, match="traceless"):
        DerBasis((MatElement([[1, 0], [0, 0]]),))
    with pytest.raises(ValueError, match="size"):
        DerBasis((MatElement([[0, 1], [1, 0]]), MatElement([[0]])))
    with pytest.raises(ValueError, match="at least one"):
        DerBasis(())


def test_derivation_values(pauli):
    sx, sy, sz = pauli.matrices
    assert pauli.derive(2, sx) == MatElement([[0, 2 * I_UNIT], [-2 * I_UNIT, 0]])
    assert pauli.derive(2, sx) == -2 * sy
    for l in range(3):
        assert not pauli.derive(l, MatElement.identity(2))
        assert not pauli.derive(l, pauli.matrices[l])


def test_derivation_leibniz(pauli):
    rng = random.Random(11)
    for _ in range(20):
        a, b = random_matrix(rng), random_matrix(rng)
        for l in range(3):
            lhs = pauli.derive(l, a * b)
            assert lhs == pauli.derive(l, a) * b + a * pauli.derive(l, b)


def test_structure_constants(pauli):
    c = pauli.constants()
    for i in range(3):
        for j in range(3):
            for l in range(3):
                assert c[i][j][l] == gaussian(-2 * epsilon(i, j, l))
    # brackets of the derivations themselves close through c
    rng = random.Random(5)
    a = random_matrix(rng)
    for i in range(3):
        for j in range(3):
            lhs = pauli.derive(i, pauli.derive(j, a)) - pauli.derive(j, pauli.derive(i, a))
            rhs = MatElement.zero(2)
            for l in range(3):
                rhs = rhs + c[i][j][l] * pauli.derive(l, a)
            assert lhs == rhs


def test_structure_constants_not_closed():
    sx = MatElement([[0, 1], [1, 0]])
    sy = MatElement([[0, -I_UNIT], [I_UNIT, 0]])
    with pytest.raises(NotClosed, match="leaves the span"):
        structure_constants(DerBasis((sx, sy)))
    with pytest.raises(NotClosed, match="dependent"):
        structure_constants(DerBasis((sx, 2 * sx)))


def test_structure_constants_need_antisymmetry():
    sx = MatElement([[0, 1], [1, 0]])
    sy = MatElement([[0, -I_UNIT], [I_UNIT, 0]])
    sz2 = MatElement([[2, 0], [0, -2]])
    # closed, but the rescaled third leg breaks total antisymmetry
    with pytest.raises(NotClosed, match="antisymmetric"):
        structure_constants(DerBasis((sx, sy, sz2)))


def test_form_constructor_guards(pauli):
    one = MatElement.identity(2)
    with pytest.raises(ValueError, match="increasing"):
        MatForm(pauli, 2, {(1, 0): one})
    with pytest.raises(ValueError, match="increasing"):
        MatForm(pauli, 2, {(1, 1): one})
    with pytest.raises(DegreeOverflow):
        MatForm(pauli, 4, {})


def test_wedge_antisymmetry(pauli):
    for i in range(3):
        assert (pauli.one_form(i) * pauli.one_form(i)).is_zero()
        for j in range(3):
            lhs = pauli.one_form(i) * pauli.one_form(j)
            assert lhs == -(pauli.one_form(j) * pauli.one_form(i))


def test_wedge_coefficients_slide(pauli):
    rng = random.Random(3)
    a = random_matrix(rng)
    w, e = pauli.one_form(0), pauli.one_form(1)
    assert (w * a) * e == w * (a * e)
    assert (a * w) * e == a * (w * e)
    assert (w * e) * pauli.one_form(2) == w * (e * pauli.one_form(2))
    with pytest.raises(DegreeOverflow, match="top degree"):
        (w * e) * (w * e)


def test_form_evaluation_signs(pauli):
    top = pauli.one_form(0) * pauli.one_form(1) * pauli.one_form(2)
    one = MatElement.identity(2)
    for perm in permutations(range(3)):
        sign = epsilon(*perm)
        expected = sign * one if sign else MatElement.zero(2)
        assert top.at(*perm) == expected
    assert not top.at(0, 0, 1)
    with pytest.raises(DegreeOverflow):
        top.at(0, 1)


def test_d_on_matrices(pauli):
    sx, sy, sz = pauli.matrices
    da = koszul_d(pauli, sx)
    assert da == MatForm(pauli, 1, {(1,): 2 * sz, (2,): -2 * sy})
    for l in range(3):
        assert da.at(l) == pauli.derive(l, sx)
    assert koszul_d(pauli, MatElement.identity(2)).is_zero()


def test_d_on_one_forms(pauli):
    one = MatElement.identity(2)
    w1, w2, w3 = (pauli.one_form(l) for l in range(3))
    assert koszul_d(pauli, w1) == 2 * (w2 * w3)
    assert koszul_d(pauli, w2) == -2 * (w1 * w3)
    assert koszul_d(pauli, w3) == 2 * (w1 * w2)
    # independent route: the half-sum over structure constants, cross-multiplied
    c = pauli.constants()
    for l in range(3):
        acc = MatForm(pauli, 2, {})
        for i in range(3):
            for j in range(3):
                if c[i][j][l]:
                    acc = acc + (c[i][j][l] * one) * (pauli.one_form(i) * pauli.one_form(j))
        assert 2 * koszul_d(pauli, pauli.one_form(l)) == -acc


def test_d_kills_punctured_top_words(pauli):
    one = MatElement.identity(2)
    for word in pauli.words(2):
        assert koszul_d(pauli, MatForm(pauli, 2, {word: one})).is_zero()


def test_d_squared_vanishes(pauli):
    for u in units():
        assert koszul_d(pauli, koszul_d(pauli, u)).is_zero()
        for word in pauli.words(1):
            w = MatForm(pauli, 1, {word: u})
            assert koszul_d(pauli, koszul_d(pauli, w)).is_zero()


def test_d_graded_leibniz(pauli):
    rng = random.Random(7)
    for _ in range(10):
        a, b = random_matrix(rng), random_matrix(rng)
        w = pauli.one_form(rng.randrange(3), a)
        e = pauli.one_form(rng.randrange(3), b)
        assert koszul_d(pauli, a * e) == koszul_d(pauli, a) * e + a * koszul_d(pauli, e)
        assert koszul_d(pauli, w * e) == koszul_d(pauli, w) * e - w * koszul_d(pauli, e)


def test_d_degree_guard(pauli):
    top = pauli.one_form(0) * pauli.one_form(1) * pauli.one_form(2)
    with pytest.raises(DegreeOverflow):
        koszul_d(pauli, top)
    with pytest.raises(ValueError, match="matrix or a form"):
        koszul_d(pauli, 3)


def test_functional_evaluation(pauli):
    rng = random.Random(13)
    a, b = random_matrix(rng), random_matrix(rng)
    f = MatHomForm(pauli, 1, {(0,): a})
    w = pauli.one_form(0, b) + pauli.one_form(1, b)
    assert f(w) == a * b
    # right-linearity through the central generators
    assert f(w * b) == f(w) * b
    assert (f * b)(w) == f(b * w)
    with pytest.raises(DegreeOverflow, match="cannot eat"):
        f(w * pauli.one_form(2))
    with pytest.raises(ValueError, match="increasing"):
        MatHomForm(pauli, 1, {(0, 1): a})


def test_functional_algebra(pauli):
    rng = random.Random(17)
    a, b = random_matrix(rng), random_matrix(rng)
    f = MatHomForm(pauli, 2, {(0, 1): a})
    g = MatHomForm(pauli, 2, {(0, 1): b, (1, 2): a})
    assert f + g - f == g
    assert (f - f).is_zero()
    assert -(-f) == f
    # contraction drops one degree and matches direct evaluation
    w = pauli.one_form(1, b)
    fw = f * w
    assert fw.degree == 1
    assert fw.value((0,)) == f(w * pauli.one_form(0))


def test_nabla_values(pauli):
    sx, sy, sz = pauli.matrices
    assert nabla_mn(pauli, [(2, sx)]) == -2 * sy
    assert nabla_mn(pauli, [(0, sx), (1, sy), (2, sz)]) == MatElement.zero(2)
    assert nabla_mn(pauli, []) == MatElement.zero(2)
    f = MatHomForm(pauli, 1, {(2,): sx})
    assert nabla_hom(pauli, f) == -2 * sy
    # a functional on the wrong degree is rejected
    with pytest.raises(DegreeOverflow):
        nabla_hom(pauli, MatHomForm(pauli, 2, {(0, 1): sx}))


def test_trace_integral(pauli):
    assert trace_integral(MatElement.identity(2)) == gaussian(1)
    for m in pauli.matrices:
        assert not trace_integral(m)
    assert trace_integral(MatElement([[3, 0], [0, 1]])) == gaussian(2)


def test_trace_kills_connection_image(pauli):
    for l in range(3):
        for u in units():
            assert not trace_integral(nabla_mn(pauli, [(l, u)]))


def test_trace_separates_only_by_class(pauli):
    rng = random.Random(23)
    one = MatElement.identity(2)
    for _ in range(50):
        a = random_matrix(rng)
        assert not trace_integral(a - trace_integral(a) * one)


def test_curvature_vanishes_both_routes(pauli):
    for word in pauli.words(2):
        for u in units():
            f = MatHomForm(pauli, 2, {word: u})
            assert not curvature_mn(pauli, f)
            assert not nabla_hom(pauli, nabla_chain(pauli, 1, f))
    with pytest.raises(DegreeOverflow, match="two-form"):
        curvature_mn(pauli, MatHomForm(pauli, 1, {(0,): MatElement.identity(2)}))


def test_phi_top_and_signs(pauli):
    one = MatElement.identity(2)
    top = pauli.one_form(0) * pauli.one_form(1) * pauli.one_form(2)
    assert phi(pauli, top) == one
    # degree 0 pairs into the full top form
    f = phi(pauli, one)
    assert f(top) == one
    assert f.value((0, 1, 2)) == one
    # (N-1)k is even at every k here, so the pairing signs are direct
    g = phi(pauli, pauli.one_form(0))
    assert g.value((1, 2)) == one
    assert g.value((0, 1)) == MatElement.zero(2)


def test_phi_roundtrips(pauli):
    for k in range(4):
        for word in pauli.words(k):
            for u in units():
                w = MatForm(pauli, k, {word: u})
                assert phi_inv(pauli, k, phi(pauli, w)) == w
    rng = random.Random(29)
    for k in range(1, 4):
        values = {word: random_matrix(rng) for word in pauli.words(k)}
        f = MatHomForm(pauli, k, values)
        assert phi(pauli, phi_inv(pauli, 3 - k, f)) == f


def test_phi_ladder(pauli):
    report = phi_ladder(pauli)
    assert report.ok
    names = [c["name"] for c in report.checks]
    assert names[0] == "square from degree 0 commutes (4 cases)"
    assert names[1] == "square from degree 1 commutes (12 cases)"
    assert names[2] == "square from degree 2 commutes (12 cases)"
    assert "class of the identity spans the cokernel" in names
    assert "image of the connection is the traceless matrices" in names
    assert all(c["witness"] is None for c in report.checks)


def test_passing_checks_print_no_matrix(monkeypatch):
    # a check that passes builds no witness text, so it prints no matrix
    def refuse(self):
        raise AssertionError("a matrix was printed")

    monkeypatch.setattr(MatElement, "__str__", refuse)
    basis = DerBasis.pauli()  # fresh, so its structure constants are solved here
    assert phi_ladder(basis).ok
    for word in basis.words(2):
        f = MatHomForm(basis, 2, {word: MatElement.unit(2, 0, 1)})
        assert not curvature_mn(basis, f)


def corrupted_pauli(i, j, l):
    basis = DerBasis.pauli()
    c = [[list(row) for row in plane] for plane in basis.constants()]
    c[i][j][l] = c[i][j][l] + 1
    basis._constants = tuple(tuple(tuple(row) for row in plane) for plane in c)
    return basis


def test_phi_ladder_catches_broken_constants():
    report = phi_ladder(corrupted_pauli(0, 2, 0))
    assert not report.ok
    assert any("square" in f["name"] and f["witness"] for f in report.failures)
    assert report.first_failure().startswith(report.failures[0]["name"])


def test_square_of_d_catches_what_the_ladder_cannot():
    # a fully off-diagonal corruption enters both legs of every square as
    # the same f(dw) term and cancels; only d*d sees it
    basis = corrupted_pauli(1, 2, 0)
    assert phi_ladder(basis).ok
    broken = [u for u in units() if koszul_d(basis, koszul_d(basis, u))]
    assert broken
