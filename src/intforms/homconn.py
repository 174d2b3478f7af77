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
like partial's (`multider`).  Its
level-n extension, e -> nabla(f*e) + (-1)^(n+1) f(d e), reads the
scalar coordinates of the basis products e.(i,) from `spec.reduce_word`
and the right coordinates of the signed d e from `dga.signed_d`, built
once per basis word.  So a call costs the scalar products that combine
them with f's values, and no form product or differential.
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
    "nabla_n",
    "twisted_partial",
]


class DegreeMismatch(ValueError):
    pass


class HomForm(SparseVector, space=("spec", "degree"), mismatch=DegreeMismatch):
    """Values of one right-linear map on the basis words of its degree."""

    __slots__ = ("spec", "degree")

    def __init__(self, spec, degree, terms):
        allowed = set(spec.basis(degree))
        if not allowed:
            raise DegreeMismatch(f"no basis forms in degree {degree}")
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

    def value(self, word):
        word = self.spec._coerce_form_word(word)
        return self.terms.get(word, self.spec.presentation.zero)

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


def _pair(pres, f, coords, out):
    """out += sum_w f(w)*c_w over right coordinates {w: terms}; returns out."""
    for w, c in coords.items():
        fv = f.terms.get(w)
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
    return AlgElement(pres, _pair(pres, f, dga._right_terms(spec, omega), {}))


def hom_right_act(spec, f, a):
    """(f*a)(e) = f(a*e): the right module structure on hom-forms, reading
    the right coordinates of a*e on the basis words where f has values."""
    _check_hom(spec, f)
    pres = spec.presentation
    if not isinstance(a, AlgElement):
        a = pres.scalar(a)
    values = {}
    for e in spec.basis(f.degree):
        coords = dga._twisted(spec, "right", e, a.terms, (), {}, f.terms)
        terms = _pair(pres, f, coords, {})
        if terms:
            values[e] = AlgElement(pres, terms)
    return HomForm._unchecked(spec, f.degree, values)


def hom_mul_form(spec, f, omega):
    """(f*omega)(e) = f(omega*e); lowers the degree by deg(omega)."""
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


def _kernel(spec, i, a, out):
    """out += T_i(a) for a term dict a, read from the kernel rows; returns out."""
    rows = spec.tmd._kernel_word
    for u, s in a.items():
        add_scaled(out, rows(u)[i].terms, s)
    return out


def twisted_partial(spec, i, a):
    """Row i of the connection kernel, sum_jk bar_kj(partial_j(hat_ki(a)))."""
    return AlgElement(spec.presentation, _kernel(spec, i, a.terms, {}))


def nabla(spec, f):
    """The unique hom-connection vanishing on the dual basis forms."""
    _check_hom(spec, f)
    if f.degree != 1:
        raise DegreeMismatch("the connection consumes degree-1 hom-forms")
    out = {}
    for (i,), v in f.terms.items():
        _kernel(spec, i, v.terms, out)
    return AlgElement(spec.presentation, out)


def nabla_n(spec, n, f):
    """Level-n extension: values e -> nabla(f*e) + (-1)^(n+1) f(d e).

    A basis word e has coefficient 1, and sigma(1) = sigma-bar(1) = id, so
    (f*e)(i) = f(e.(i,)) = sum_b r_b*f(b) over the scalar coordinates r_b
    of e.(i,) (`spec.reduce_word`), and d(1*e) is d e (`dga.signed_d`).
    """
    _check_hom(spec, f)
    if not 1 <= n < spec.top_degree:
        raise DegreeMismatch(
            f"level {n} outside 1..{spec.top_degree - 1}"
        )
    if f.degree != n + 1:
        raise DegreeMismatch(
            f"level {n} consumes degree {n + 1}, got {f.degree}"
        )
    pres = spec.presentation
    values = {}
    for e in spec.basis(n):
        out = {}
        for i in range(spec.n):
            lowered = {}
            for b, r in spec._reduce_word(e + (i,)).items():
                fv = f.terms.get(b)
                if fv:
                    add_scaled(lowered, fv.terms, r)
            _kernel(spec, i, lowered, out)
        terms = _pair(pres, f, dga.signed_d(spec, e), out)
        if terms:
            values[e] = AlgElement(pres, terms)
    return HomForm._unchecked(spec, n, values)


def curvature(spec, f):
    """nabla after its level-1 extension, on a degree-2 hom-form."""
    return nabla(spec, nabla_n(spec, 1, f))


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

