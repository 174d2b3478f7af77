"""The accumulation kernel and the vector base behind every sparse linear
combination."""
from __future__ import annotations

import importlib
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intforms
from intforms.descent import BHomForm, SphereData
from intforms.dga import DegreeOverflow, FormElement
from intforms.homconn import DegreeMismatch, HomForm
from intforms.matrixcalc import DerBasis, MatElement, MatForm, MatHomForm, gaussian
from intforms.ncalg import AlgElement, TensorElement, coproduct
from intforms.scalars import ScalarContext
from intforms.sparse import SparseVector, add_scaled

CTX = ScalarContext(("q",))
Q = CTX.parameter("q")

KEYS = st.integers(0, 5)
# small pools, so that sums cancel often
FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
SCALARS = st.builds(
    lambda a, b, e: CTX.from_int(a) + b * Q**e,
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-1, 1),
)
KINDS = {"fraction": (FRACTIONS, Fraction(0)), "scalar": (SCALARS, CTX.zero)}


def _naive(target, source, factor, zero):
    out = dict(target)
    for key, value in source.items():
        out[key] = out.get(key, zero) + (value if factor is None else factor * value)
    return {key: value for key, value in out.items() if value}


@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)))
@settings(max_examples=150, deadline=None)
def test_add_scaled_is_the_sum_without_zeros(data, kind):
    values, zero = KINDS[kind]
    nonzero = values.filter(bool)
    target = data.draw(st.dictionaries(KEYS, nonzero))
    source = data.draw(st.dictionaries(KEYS, nonzero))
    factor = data.draw(st.none() | values)
    want = _naive(target, source, factor, zero)
    before = dict(source)
    out = dict(target)
    assert add_scaled(out, source, factor) is out
    assert out == want
    assert all(out.values())
    assert source == before


class _NoProducts(Fraction):
    def __mul__(self, other):
        raise AssertionError("multiplied without a factor")

    __rmul__ = __mul__


def test_add_scaled_without_factor_multiplies_nothing():
    target = {0: Fraction(1), 1: Fraction(2)}
    source = {0: _NoProducts(-1), 2: _NoProducts(3)}
    assert add_scaled(target, source) == {1: 2, 2: 3}


# -- the vector base ----------------------------------------------------------

SUBCLASSES = (
    AlgElement,
    TensorElement,
    FormElement,
    HomForm,
    BHomForm,
    MatElement,
    MatForm,
    MatHomForm,
)


@pytest.fixture(scope="module")
def sphere(sl2_3d_calc):
    return SphereData(sl2_3d_calc)


def _cases(sl2, qplane, spec, sphere):
    """Per class: x and y of one space, z of the class in another space,
    the class's mismatch error, and a foreign operand."""
    q = sl2.context.parameter("q")
    a, b, c, d = (sl2.gen(n) for n in ("alpha", "beta", "gamma", "delta"))
    e0, e1 = spec.basis(1)[:2]
    top = spec.basis(2)[0]
    pauli = DerBasis.pauli()
    m = MatElement([[1, gaussian(0, 2)], [3, -1]])
    n = MatElement([[0, 1], [gaussian(1, 1), 2]])
    return {
        AlgElement: (a * b + 2 * c, q * d - 1, qplane.gen("x"), ValueError, object()),
        TensorElement: (
            coproduct(sl2, a),
            TensorElement.of(b, c, q) + TensorElement.of(a, a),
            TensorElement.of(qplane.gen("x"), qplane.gen("y")),
            ValueError,
            a,
        ),
        FormElement: (
            spec.form(1, {e0: a * b, e1: q}),
            spec.form(1, {e0: -c}),
            spec.form(2, {top: a}),
            ValueError,
            a,
        ),
        HomForm: (
            HomForm(spec, 1, {e0: a, e1: b * c}),
            HomForm(spec, 1, {e1: 3}),
            HomForm(spec, 2, {top: d}),
            DegreeMismatch,
            5,
        ),
        BHomForm: (
            sphere.plus_dual(0) + sphere.minus_dual(1) * (b * c),
            sphere.minus_dual(2),
            sphere.top_dual(),
            DegreeMismatch,
            a,
        ),
        MatElement: (
            m,
            n,
            MatElement([[1, 0, 0], [0, gaussian(0, 1), 0], [0, 0, 2]]),
            ValueError,
            pauli.one_form(0),
        ),
        MatForm: (
            pauli.one_form(0, m) + pauli.one_form(2, n),
            pauli.one_form(0, n),
            MatForm(pauli, 2, {(0, 1): m}),
            DegreeOverflow,
            m,
        ),
        MatHomForm: (
            MatHomForm(pauli, 1, {(0,): m, (1,): n}),
            MatHomForm(pauli, 1, {(2,): m}),
            MatHomForm(pauli, 2, {(0, 2): n}),
            DegreeOverflow,
            pauli.one_form(0, m),
        ),
    }


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda cls: cls.__name__)
def test_group_laws_and_mismatches(cls, sl2, qplane, sl2_3d_calc, sphere):
    x, y, z, error, foreign = _cases(sl2, qplane, sl2_3d_calc, sphere)[cls]
    assert all(isinstance(v, cls) for v in (x, y, z))
    assert x and y and not x.is_zero()
    zero = x - x
    assert not zero and zero.is_zero()
    assert -(-x) == x
    assert x - y == x + (-y)
    assert x + y == y + x
    assert x + y != x
    scaled = x * 0
    assert not scaled and scaled.is_zero() and scaled == zero
    # the same class in another space: + raises the class's error, == is False
    with pytest.raises(error):
        x + z
    with pytest.raises(error):
        x - z
    assert (x == z) is False
    assert (x != z) is True
    # a foreign type is handed back to Python, which raises TypeError
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(TypeError):
            op(x, foreign)
        with pytest.raises(TypeError):
            op(foreign, x)
    assert x != foreign


def _package_vector_classes():
    """Every SparseVector subclass defined in the package, once all of its
    modules are imported."""
    for info in pkgutil.iter_modules(intforms.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"intforms.{info.name}")
    return [
        cls for cls in SparseVector.__subclasses__()
        if cls.__module__.startswith("intforms.")
    ]


def test_subclasses_keep_to_the_two_hooks():
    """No vector class re-implements what the base provides."""
    provided = {
        name for name, value in vars(SparseVector).items()
        if callable(value) or value is None
    }
    assert {"__add__", "__sub__", "__neg__", "__eq__", "__bool__", "is_zero"} <= provided
    classes = _package_vector_classes()
    assert set(SUBCLASSES) <= set(classes)
    for cls in classes:
        assert not provided & set(vars(cls)), cls.__name__
        assert {"_mate", "_like"} <= set(vars(cls)), cls.__name__
        assert "terms" not in cls.__slots__
