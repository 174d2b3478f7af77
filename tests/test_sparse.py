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


def _cases(sl2, qplane, spec, qspec, sphere):
    """Per class: x and y of one space; per declared space attribute, a z
    of the class that differs from x in that attribute alone; the class's
    mismatch error; and a foreign operand."""
    q = sl2.context.parameter("q")
    a, b, c, d = (sl2.gen(n) for n in ("alpha", "beta", "gamma", "delta"))
    e0, e1 = spec.basis(1)[:2]
    top = spec.basis(2)[0]
    f0 = qspec.basis(1)[0]
    other_sphere = SphereData(spec)
    pauli, other_pauli = DerBasis.pauli(), DerBasis.pauli()
    m = MatElement([[1, gaussian(0, 2)], [3, -1]])
    n = MatElement([[0, 1], [gaussian(1, 1), 2]])
    return {
        AlgElement: (
            a * b + 2 * c,
            q * d - 1,
            {"presentation": qplane.gen("x")},
            ValueError,
            object(),
        ),
        TensorElement: (
            coproduct(sl2, a),
            TensorElement.of(b, c, q) + TensorElement.of(a, a),
            {"presentation": TensorElement.of(qplane.gen("x"), qplane.gen("y"))},
            ValueError,
            a,
        ),
        FormElement: (
            spec.form(1, {e0: a * b, e1: q}),
            spec.form(1, {e0: -c}),
            {"degree": spec.form(2, {top: a}), "spec": qspec.form(1, {f0: 1})},
            ValueError,
            a,
        ),
        HomForm: (
            HomForm(spec, 1, {e0: a, e1: b * c}),
            HomForm(spec, 1, {e1: 3}),
            {"degree": HomForm(spec, 2, {top: d}), "spec": HomForm(qspec, 1, {f0: 1})},
            DegreeMismatch,
            5,
        ),
        BHomForm: (
            sphere.plus_dual(0) + sphere.minus_dual(1) * (b * c),
            sphere.minus_dual(2),
            {"degree": sphere.top_dual(), "sphere": other_sphere.plus_dual(0)},
            DegreeMismatch,
            a,
        ),
        MatElement: (
            m,
            n,
            {"n": MatElement([[1, 0, 0], [0, gaussian(0, 1), 0], [0, 0, 2]])},
            ValueError,
            pauli.one_form(0),
        ),
        MatForm: (
            pauli.one_form(0, m) + pauli.one_form(2, n),
            pauli.one_form(0, n),
            {"degree": MatForm(pauli, 2, {(0, 1): m}), "basis": other_pauli.one_form(0, m)},
            DegreeOverflow,
            m,
        ),
        MatHomForm: (
            MatHomForm(pauli, 1, {(0,): m, (1,): n}),
            MatHomForm(pauli, 1, {(2,): m}),
            {
                "degree": MatHomForm(pauli, 2, {(0, 2): n}),
                "basis": MatHomForm(other_pauli, 1, {(0,): m}),
            },
            DegreeOverflow,
            pauli.one_form(0, m),
        ),
    }


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda cls: cls.__name__)
def test_group_laws_and_mismatches(cls, sl2, qplane, sl2_3d_calc, qplane_calc, sphere):
    x, y, others, error, foreign = _cases(sl2, qplane, sl2_3d_calc, qplane_calc, sphere)[cls]
    assert all(isinstance(v, cls) for v in (x, y, *others.values()))
    assert x and y and not x.is_zero()
    zero = x - x
    assert not zero and zero.is_zero()
    assert -(-x) == x
    assert x - y == x + (-y)
    assert x + y == y + x
    assert x + y != x
    scaled = x * 0
    assert not scaled and scaled.is_zero() and scaled == zero
    # one z per declared space attribute, differing from x there alone:
    # + and - raise the class's error, naming both values; == is False
    assert set(others) == set(cls._space_names)
    for attr, z in others.items():
        differs = [
            name for name in cls._space_names
            if getattr(z, name) != getattr(x, name)
        ]
        assert differs == [attr], cls.__name__
        for op in (lambda u, v: u + v, lambda u, v: u - v):
            with pytest.raises(error) as raised:
                op(x, z)
            assert str(getattr(x, attr)) in str(raised.value)
            assert str(getattr(z, attr)) in str(raised.value)
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
    """The base owns the group law and the same-space check; a vector class
    declares its space and builds its own vectors with `_like`."""
    provided = {
        name for name, value in vars(SparseVector).items()
        if callable(value) or value is None
    }
    assert {
        "__add__", "__sub__", "__neg__", "__eq__", "__bool__", "is_zero", "_mate"
    } <= provided
    classes = _package_vector_classes()
    # a new vector class has to join the group-law test above
    assert set(classes) == set(SUBCLASSES)
    for cls in classes:
        own = set(vars(cls))
        # AlgElement alone overrides _mate, to embed scalars before the check
        assert provided & own == ({"_mate"} if cls is AlgElement else set()), cls.__name__
        assert "_like" in own, cls.__name__
        assert cls._space_names, cls.__name__
        assert set(cls._space_names) <= set(cls.__slots__), cls.__name__
        # == reads a mismatch as False only when it is a ValueError
        assert issubclass(cls._mismatch, ValueError), cls.__name__
        assert "terms" not in cls.__slots__
