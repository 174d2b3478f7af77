"""The accumulation kernel behind every sparse linear combination."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intforms.scalars import ScalarContext
from intforms.sparse import add_scaled

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
