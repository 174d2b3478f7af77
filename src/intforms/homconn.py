"""Right-linear functionals on forms and the hom-connection they support.

A hom-form of degree n is stored by its values on the basis n-form words;
right linearity plus right-freeness of each degree (certified by the
sigma-bar identities) determine it everywhere.  To evaluate one, a form's
left coefficients cross to the right through the twist table's "right"
entries (`dga._twisted`), and the hom-form's values multiply in on term
dicts (`ncalg.mul_terms`); the right action reads the same entries for
the acting element on each basis word.

The connection sends a degree-1 hom-form f to sum_i T_i(f(omega_i)), with
kernel T_i = sum_jk bar_kj o partial_j o hat_ki (bar and hat being
sigma-bar and sigma-hat).  As nabla(f b) = nabla(f) b + f(db), T is a
right twisted multi-derivation with twist hat,

    T_i(ab) = sum_j T_j(a) hat_ji(b) + a T_i(b):

take f supported on omega_m, put b = hat_mj(w), and sum over m with
sum_m bar_mi o hat_mj = delta_ij.  So its rows on normal words extend
like partial's (`multider`).

The connection is one function of the hom-form's degree: at level
n = deg f - 1 it sends f to e -> nabla(f*e) + (-1)^(n+1) f(d e) on the
basis n-words e; level 0, whose one source e = 1 has d 1 = 0, is the map
above.  Every level runs on {basis word: term dict} values, as a hom-form
holds them (`_nabla_level`), from tables built once per level (`_level`):
for each basis (n+1)-word b, the triples (e, i, r), r the scalar of b in
e.(i,) (`spec.reduce_word`), and the pairs (e, S), S the right coordinate
at b of (-1)^(n+1) d e (`dga._d_word`).  The value f(b) adds r*T_i(f(b))
and f(b)*S to the value at e, with no form product or d.
"""

from __future__ import annotations

from . import dga
from .dga import FormElement
from .ncalg import AlgElement, mul_terms
from .report import CheckReport
from .sparse import SparseVector, add_scaled

__all__ = [
    "DegreeMismatch",
    "HomForm",
    "curvature",
    "dual_basis",
    "dual_form",
    "hom_apply",
    "hom_mul_form",
    "hom_right_act",
    "is_flat",
    "nabla",
    "twisted_partial",
]


class DegreeMismatch(ValueError):
    pass


class HomForm(SparseVector, space=("spec", "degree"), mismatch=DegreeMismatch):
    """Values of one right-linear map on the basis words of its degree."""

    __slots__ = ("spec", "degree")

    def __init__(self, spec, degree, terms):
        allowed = set(spec.basis(degree)) if degree >= 1 else ()
        if not allowed:
            raise DegreeMismatch(f"no hom-forms in degree {degree}")
        table = {}
        for word, elem in terms.items():
            word = spec._coerce_form_word(word)
            if word not in allowed:
                raise ValueError(
                    f"{spec.word_str(word)} is not a degree-{degree} basis word"
                )
            if not isinstance(elem, AlgElement):
                elem = spec.presentation.scalar(elem)
            if elem:
                table[word] = elem
        self.spec = spec
        self.degree = degree
        self.terms = table

    def __call__(self, omega):
        return hom_apply(self.spec, self, omega)

    def __mul__(self, other):
        if isinstance(other, FormElement):
            return hom_mul_form(self.spec, self, other)
        return hom_right_act(self.spec, self, other)

    @classmethod
    def _unchecked(cls, spec, degree, terms):
        """A hom-form on terms that already map basis words of this degree
        to nonzero elements, built without the constructor's checks."""
        f = cls.__new__(cls)
        f.spec = spec
        f.degree = degree
        f.terms = terms
        return f

    def _like(self, terms):
        return HomForm._unchecked(self.spec, self.degree, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        spec = self.spec
        parts = []
        for word in sorted(self.terms, key=spec._rank_key):
            parts.append(f"{spec.word_str(word)} := {self.terms[word]}")
        return ", ".join(parts)

    def __repr__(self):
        return f"<HomForm deg {self.degree}: {self}>"


def dual_form(spec, word):
    """The hom-form sending one basis word to 1 and the others to 0."""
    word = spec._coerce_form_word(word)
    return HomForm(spec, len(word), {word: spec.presentation.one})


def dual_basis(spec, degree):
    return tuple(dual_form(spec, w) for w in spec.basis(degree))


def _check_hom(spec, f):
    if not isinstance(f, HomForm) or f.spec is not spec:
        raise ValueError("expected a hom-form of the same calculus")


def _pair(pres, values, coords, out):
    """out += sum_w values[w]*c_w over right coordinates {w: terms}; returns out."""
    for w, c in coords.items():
        fv = values.get(w)
        if fv:
            mul_terms(pres, fv.terms, c, out)
    return out


def hom_apply(spec, f, omega):
    """Evaluate as f(sum_w w*c_w) = sum_w f(w)*c_w, the right coefficients
    c_w read from the twist table (left ones cross through sigma-bar)."""
    _check_hom(spec, f)
    if not isinstance(omega, FormElement) or omega.spec is not spec:
        raise ValueError("expected a form of the same calculus")
    if f.degree != omega.degree:
        raise DegreeMismatch(
            f"hom-form of degree {f.degree} applied to degree {omega.degree}"
        )
    pres = spec.presentation
    return AlgElement(pres, _pair(pres, f.terms, dga._right_terms(spec, omega), {}))


def _right_act(spec, values, degree, a):
    """{e: terms of f(a*e)} over the basis words e of the degree where it is
    nonzero, for f given by values {basis word: element} and a by its terms:
    the right coordinates of a*e are read where f has values."""
    pres = spec.presentation
    out = {}
    for e in spec.basis(degree):
        terms = _pair(pres, values, dga._twisted(spec, "right", e, a, (), {}, values), {})
        if terms:
            out[e] = terms
    return out


def hom_right_act(spec, f, a):
    """(f*a)(e) = f(a*e): the right module structure on hom-forms."""
    _check_hom(spec, f)
    if not isinstance(a, AlgElement):
        a = spec.presentation.scalar(a)
    values = _right_act(spec, f.terms, f.degree, a.terms)
    return HomForm._unchecked(spec, f.degree, dga._elements(spec, values))


def hom_mul_form(spec, f, omega):
    """(f*omega)(e) = f(omega*e); lowers the degree by deg(omega).  No check
    calls it: the tests use it, as HomForm's form product, to check the
    connection's levels above 0."""
    _check_hom(spec, f)
    if not isinstance(omega, FormElement) or omega.spec is not spec:
        raise ValueError("expected a form of the same calculus")
    m = f.degree - omega.degree
    if m < 1:
        raise DegreeMismatch(
            f"degree-{omega.degree} form exhausts a degree-{f.degree} hom-form"
        )
    pres = spec.presentation
    values = {}
    for e in spec.basis(m):
        val = hom_apply(spec, f, dga.mul(spec, omega, FormElement(spec, m, {e: pres.one})))
        if val:
            values[e] = val
    return HomForm._unchecked(spec, m, values)


def twisted_partial(spec, i, a):
    """Row i of the connection kernel, sum_jk bar_kj(partial_j(hat_ki(a)))."""
    rows = spec.tmd._kernel_word
    out = {}
    for u, s in a.terms.items():
        add_scaled(out, rows(u)[i].terms, s)
    return AlgElement(spec.presentation, out)


def _level(spec, n):
    """(triples, pairs) of level n by basis (n+1)-word, as the module
    docstring has them."""
    tables = spec._levels.get(n)
    if tables is None:
        lift, pair = {}, {}
        sign = spec.context.coerce((-1) ** (n + 1))
        for e in spec.basis(n):
            for i in range(spec.n):
                for b, r in spec._reduce_word(e + (i,)).items():
                    lift.setdefault(b, []).append((e, i, r))
            for b, terms in dga._right_terms(spec, dga._d_word(spec, e)).items():
                pair.setdefault(b, []).append((e, {u: sign * s for u, s in terms.items()}))
        tables = spec._levels[n] = (lift, pair)
    return tables


def _nabla_level(spec, n, values):
    """The level-n connection from degree n+1 to degree n on {basis word:
    term dict}, read from the level's tables; entries may be empty."""
    lift, pair = _level(spec, n)
    pres = spec.presentation
    kernel = spec.tmd._kernel_word
    out = {}
    for b, terms in values.items():
        for e, i, r in lift.get(b, ()):
            target = out.setdefault(e, {})
            for u, c in terms.items():
                add_scaled(target, kernel(u)[i].terms, r * c)
        for e, d_terms in pair.get(b, ()):
            mul_terms(pres, terms, d_terms, out.setdefault(e, {}))
    return out


def _value(spec, n, values):
    """The element at n = 0, else the degree-n hom-form, holding the
    {basis word: term dict} values of level n."""
    if n == 0:
        return AlgElement(spec.presentation, values.get((), {}))
    return HomForm._unchecked(spec, n, dga._elements(spec, values))


def nabla(spec, f):
    """The connection at level n = deg f - 1: for a degree-1 hom-form, the
    element the unique hom-connection vanishing on the dual basis forms
    gives; above, a degree-n hom-form (see the module docstring).

    A basis word e has coefficient 1, and sigma(1) = sigma-bar(1) = id, so
    (f*e)(i) = f(e.(i,)) = sum_b r_b*f(b) over the scalar coordinates r_b
    of e.(i,), and d(1*e) is d e; `_nabla_level` reads both from tables.
    """
    _check_hom(spec, f)
    n = f.degree - 1
    return _value(spec, n, _nabla_level(spec, n, {b: v.terms for b, v in f.terms.items()}))


def curvature(spec, f):
    """nabla after nabla, on a hom-form of degree n + 2 >= 2: an element for
    a degree-2 hom-form, level 0 after level 1; above, a degree-n hom-form."""
    _check_hom(spec, f)
    if f.degree < 2:
        raise DegreeMismatch(f"the curvature starts at degree 2, got degree {f.degree}")
    return nabla(spec, nabla(spec, f))


def is_flat(spec):
    """Evaluate the curvature on each degree-2 dual form.

    Right-linearity of the curvature (property-tested separately) makes
    this finite check conclusive.
    """
    report = CheckReport()
    for e in spec.basis(2):
        value = curvature(spec, dual_form(spec, e))
        report.add(
            f"curvature on dual of {spec.word_str(e)}",
            value.is_zero(),
            None if value.is_zero() else value,
        )
    return report

