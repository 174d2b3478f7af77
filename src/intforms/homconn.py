"""Right-linear functionals on forms and the hom-connection they support.

A hom-form of degree n is stored by its values on the basis n-form words;
right linearity plus right-freeness of each degree (certified by the
sigma-bar identities) determine it everywhere.  The connection sends a
degree-1 hom-form f to the sum of twisted derivations of its values, and
extends to higher degrees through the right module structure and the
exterior differential.
"""

from __future__ import annotations

from . import dga
from .dga import FormElement
from .ncalg import AlgElement
from .report import CheckReport
from .sparse import SparseVector, add_scaled

__all__ = [
    "DegreeMismatch",
    "HomForm",
    "NotAUnit",
    "curvature",
    "dual_basis",
    "dual_form",
    "gauge_transform",
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


class NotAUnit(ValueError):
    pass


class HomForm(SparseVector):
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

    def _mate(self, other):
        if not isinstance(other, HomForm):
            return None
        if self.spec is not other.spec or self.degree != other.degree:
            raise DegreeMismatch("hom-forms of different degrees")
        return other

    def _like(self, terms):
        return HomForm(self.spec, self.degree, terms)

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


def hom_apply(spec, f, omega):
    """Evaluate as f(sum_w w*c_w) = sum_w f(w)*c_w, the right coefficients
    c_w from `dga.right_coords` (left ones cross through sigma-bar)."""
    if not isinstance(omega, FormElement) or omega.spec is not spec:
        raise ValueError("expected a form of the same calculus")
    if f.degree != omega.degree:
        raise DegreeMismatch(
            f"hom-form of degree {f.degree} applied to degree {omega.degree}"
        )
    terms = {}
    for w, c in dga.right_coords(spec, omega).items():
        fv = f.terms.get(w)
        if fv:
            add_scaled(terms, (fv * c).terms)
    return AlgElement(spec.presentation, terms)


def hom_right_act(spec, f, a):
    """(f*a)(e) = f(a*e): the right module structure on hom-forms."""
    if not isinstance(a, AlgElement):
        a = spec.presentation.scalar(a)
    values = {
        e: hom_apply(spec, f, FormElement(spec, f.degree, {e: a}))
        for e in spec.basis(f.degree)
    }
    return HomForm(spec, f.degree, values)


def hom_mul_form(spec, f, omega):
    """(f*omega)(e) = f(omega*e); lowers the degree by deg(omega)."""
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
    return HomForm(spec, m, values)


def twisted_partial(spec, i, a):
    """Row i of the connection kernel,
    sum_jk sigma_bar_kj(partial_j(sigma_hat_ki(a))), read from the twist
    table per normal word of a."""
    terms = dga._twisted(spec, "kernel", (i,), a, (), {}).get((), {})
    return AlgElement(spec.presentation, terms)


def nabla(spec, f):
    """The unique hom-connection vanishing on the dual basis forms."""
    if f.degree != 1:
        raise DegreeMismatch("the connection consumes degree-1 hom-forms")
    total = spec.presentation.zero
    for i in range(spec.n):
        v = f.terms.get((i,))
        if v:
            total = total + twisted_partial(spec, i, v)
    return total


def nabla_n(spec, n, f):
    """Level-n extension: values e -> nabla(f*e) + (-1)^(n+1) f(d e)."""
    if not 1 <= n < spec.top_degree:
        raise DegreeMismatch(
            f"level {n} outside 1..{spec.top_degree - 1}"
        )
    if f.degree != n + 1:
        raise DegreeMismatch(
            f"level {n} consumes degree {n + 1}, got {f.degree}"
        )
    pres = spec.presentation
    sign = (-1) ** (n + 1)
    values = {}
    for e in spec.basis(n):
        unit = FormElement(spec, n, {e: pres.one})
        val = nabla(spec, hom_mul_form(spec, f, unit))
        val = val + sign * hom_apply(spec, f, dga.d(spec, unit))
        if val:
            values[e] = val
    return HomForm(spec, n, values)


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


def gauge_transform(spec, u, f, u_inv=None):
    """Connection conjugated by left multiplication with the unit u.

    Only scalar units can be inverted here; anything else needs an
    explicit u_inv, which is certified before use.
    """
    pres = spec.presentation
    if not isinstance(u, AlgElement):
        u = pres.scalar(u)
    if u_inv is None:
        if list(u.terms.keys()) != [()]:
            raise NotAUnit(
                "cannot invert a non-scalar element; pass u_inv explicitly"
            )
        u_inv = pres.scalar(1 / u.terms[()])
    else:
        if u * u_inv != pres.one or u_inv * u != pres.one:
            raise NotAUnit("u_inv is not a two-sided inverse of u")
    shifted = HomForm(
        spec, f.degree, {w: u_inv * v for w, v in f.terms.items()}
    )
    return u * nabla(spec, shifted)
