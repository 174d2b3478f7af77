"""Descent of the 3D calculus to the quantum sphere inside quantum SL(2).

The degree-zero subalgebra B of quantum SL(2) inherits a two-sided calculus
from the three-dimensional left-covariant one: its one-forms split into two
finitely generated projective summands with explicit dual bases, its
two-forms are free of rank one, and the hom-connection descends to
functionals on them.  This module builds that projective data, the descended
connection, the degree-two differential, flatness, and the ladder
identifying the complex of integral forms on B with its de Rham complex.
Both vertical maps of that ladder have explicit inverses here, so
bijectivity is certified by exact round trips rather than by rank counts.

The connection needs the values of the equivariant extension f^ of f at the
two free letters e+ and e-.  The paper reaches them through the translation
map, as Sweedler sums of c*f(e.S(x1))*x2 over the coproducts of alpha^2 and
delta^2.  f is right linear, so such a sum is f(e.sum S(x1)x2), and the
antipode axiom sum S(x1)x2 = eps(x)*1 collapses it to f(e), the dual-basis
extension of f at the letter.  nabla_coH reads that value directly.
fhat_crosscheck plays three routes against each other: the dual-basis
extension, the Sweedler sum over the machine Hopf data and over the shipped
fixture coproducts, and the written-out six-generator formula.

A one-form functional keeps its six values on the projective generators,
and every route reads them through the two letter values f(e+) and f(e-):
evaluation, the right action, the consistency check, combinations of the
dual bases, psi_inv and the connection.  f is right linear, so a value at a
letter times a coefficient is the letter value times that coefficient.
"""

from __future__ import annotations

import functools
from importlib import resources

from . import dga
from .dga import FormElement
from .homconn import DegreeMismatch
from .ncalg import AlgElement, TensorElement, antipode, coproduct, mul_terms, zdegree
from .parser import parse_presentation_file, parse_tensor
from .report import CheckReport
from .sparse import SparseVector

__all__ = [
    "BHomForm",
    "SphereData",
    "check_sphere_ladder",
    "fhat_crosscheck",
    "nabla_coH",
    "nabla_coH_1",
    "psi",
    "psi_inv",
    "sphere_fixtures",
    "sphere_flatness",
    "theta",
    "theta_star",
]


class SphereData:
    """Projective presentation of the one-forms on the quantum sphere.

    Stores the ambient 3D calculus together with the generator coefficients
    of the two projective summands (one per vertical form letter), the
    scalar weights entering the plus-side pairing, and the six module
    generators in their customary left-coefficient spelling.  The duals,
    the determinant identities and every evaluation read the weights and
    coefficients live, so a corrupted weight is caught by the determinant
    identities instead of being baked into cached duals.  Two tables are
    built once, on first use: the coproducts of alpha^2 and delta^2
    (_sweedler_squares) and the two-form coefficients of the generators'
    products and differentials (_generator_wedges).  Both read only the
    Hopf data, the generators and the calculus, never the weights.
    """

    def __init__(self, spec):
        pres = spec.presentation
        if not {"alpha", "beta", "gamma", "delta"} <= set(pres.generators):
            raise ValueError("the sphere descent lives on the quantum SL(2) preset")
        if pres.grading is None:
            raise ValueError("the sphere descent needs the Z-grading")
        shifts = spec.tmd.degree_shifts()
        try:
            # the form letter named after a sign pairs with the derivation
            # row shifting degree by the opposite sign
            self.plus = shifts.index(-2)
            self.minus = shifts.index(2)
        except ValueError:
            raise ValueError(
                "the ambient calculus lacks derivation rows of degree shift -2 and 2"
            ) from None
        self.spec = spec
        self.presentation = pres
        ctx = pres.context
        self.q = ctx.parameter("q")
        q = self.q
        alpha, beta, gamma, delta = (
            pres.gen(g) for g in ("alpha", "beta", "gamma", "delta")
        )
        self.minus_coeffs = (alpha * alpha, gamma * gamma, alpha * gamma)
        self.plus_coeffs = (
            delta * delta,
            (q * q) * (beta * beta),
            (-(q + q**-1)) * (beta * delta),
        )
        self.plus_weights = (ctx.one, q**-4, q**-2)
        self.unit_minus = FormElement(spec, 1, {(self.minus,): pres.one})
        self.unit_plus = FormElement(spec, 1, {(self.plus,): pres.one})
        self.minus_generators = tuple(self.unit_minus * c for c in self.minus_coeffs)
        self.plus_generators = tuple(self.unit_plus * c for c in self.plus_coeffs)
        # basis words a sphere form may use, per degree, with the name and
        # Z-degree of the right coefficient each one carries
        self.form_slots = {
            1: {(self.minus,): ("minus", 2), (self.plus,): ("plus", -2)},
            2: {(self.minus, self.plus): ("two-form", 0)},
        }
        self.module_generators = (
            FormElement(spec, 1, {(self.minus,): alpha * alpha}),
            FormElement(spec, 1, {(self.minus,): alpha * gamma}),
            FormElement(spec, 1, {(self.minus,): gamma * gamma}),
            FormElement(spec, 1, {(self.plus,): beta * beta}),
            FormElement(spec, 1, {(self.plus,): beta * delta}),
            FormElement(spec, 1, {(self.plus,): delta * delta}),
        )
        self.top_form = spec.basis_form((self.minus, self.plus))

    def one_form(self, r, s):
        """Assemble the one-form with right coefficients r (minus) and s (plus)."""
        return self.unit_minus * r + self.unit_plus * s

    def determinant_checks(self):
        pres = self.presentation
        direct = pres.zero
        reversed_ = pres.zero
        for b, a, w in zip(self.minus_coeffs, self.plus_coeffs, self.plus_weights):
            direct = direct + b * a
            reversed_ = reversed_ + w * (a * b)
        checks = []
        for name, total in (
            ("quantum determinant, direct order", direct),
            ("quantum determinant, weighted reverse order", reversed_),
        ):
            ok = total == pres.one
            checks.append(
                {"name": name, "ok": ok, "witness": None if ok else str(total)}
            )
        return checks

    def reproduction_checks(self):
        """Each projective generator must survive its own dual-basis expansion."""
        checks = []
        for side, gens, dual in (
            ("plus", self.plus_generators, self.plus_dual),
            ("minus", self.minus_generators, self.minus_dual),
        ):
            duals = [dual(i) for i in range(3)]
            for j, gen in enumerate(gens):
                total = self.spec.zero(1)
                for i in range(3):
                    total = total + gens[i] * duals[i](gen)
                ok = total == gen
                checks.append(
                    {
                        "name": f"dual basis reproduces {side} generator {j}",
                        "ok": ok,
                        "witness": None if ok else str(total),
                    }
                )
        return checks

    def plus_dual(self, i):
        zero = self.presentation.zero
        values = tuple(
            self.plus_weights[i] * (self.minus_coeffs[i] * a) for a in self.plus_coeffs
        )
        return BHomForm(self, 1, values, (zero, zero, zero))

    def minus_dual(self, i):
        zero = self.presentation.zero
        values = tuple(self.plus_coeffs[i] * b for b in self.minus_coeffs)
        return BHomForm(self, 1, (zero, zero, zero), values)

    def dual_basis(self):
        return tuple(self.plus_dual(i) for i in range(3)) + tuple(
            self.minus_dual(i) for i in range(3)
        )

    def top_dual(self):
        """The functional dual to the free generator of the two-forms."""
        return BHomForm.top(self, self.presentation.one)

    @functools.cached_property
    def _sweedler_squares(self):
        pres = self.presentation
        alpha = pres.gen("alpha")
        delta = pres.gen("delta")
        return (coproduct(pres, alpha * alpha), coproduct(pres, delta * delta))

    @functools.cached_property
    def _generator_wedges(self):
        """Two-form coefficients of products with the projective generators.

        One entry per generator w, plus side first: the coefficients of w*g
        for the six generators g, in the same order, and the coefficient of
        d w.  nabla_coH_1 reads a two-form functional through them.
        """
        spec = self.spec
        gens = self.plus_generators + self.minus_generators

        def coeff(omega):
            return _form_coords(self, omega, 2)[0]

        return tuple(
            (tuple(coeff(w * g) for g in gens), coeff(dga.d(spec, w)))
            for w in gens
        )


def _form_coords(sphere, omega, degree):
    """Right coefficients of a sphere form, one per word of form_slots[degree]."""
    spec = sphere.spec
    if not isinstance(omega, FormElement) or omega.spec is not spec:
        raise ValueError("expected a form of the ambient 3D calculus")
    kind = ("one-form", "two-form")[degree - 1]
    if omega.degree != degree:
        raise DegreeMismatch(f"expected a {kind}, got degree {omega.degree}")
    slots = sphere.form_slots[degree]
    totals = dict.fromkeys(slots, spec.presentation.zero)
    for w, c in dga.right_coords(spec, omega).items():
        if w not in totals:
            raise DegreeMismatch(
                f"not a {kind} on the sphere: component at " + spec.word_str(w)
            )
        totals[w] = c
    for w, (name, want) in slots.items():
        coeff = totals[w]
        if coeff and zdegree(coeff) != want:
            raise DegreeMismatch(
                f"the {name} coefficient must have Z-degree {want}, got {coeff}"
            )
    return tuple(totals.values())


def _on_plus(sphere, values, s=None):
    """f(plus letter * s) for f with these plus values; s = None stands for 1.

    The letter value is sum_i v_i*(w_i*b_i) over the values, the weights and
    the minus coefficients, summed into one term dict.  f is right linear,
    so s multiplies that sum once instead of entering each of its terms.
    """
    terms = {}
    for w, v, b in zip(sphere.plus_weights, values, sphere.minus_coeffs):
        mul_terms(sphere.presentation, v.terms, (w * b).terms, terms)
    total = AlgElement(sphere.presentation, terms)
    return total if s is None else total * s


def _on_minus(sphere, values, r=None):
    """f(minus letter * r) for f with these minus values; r = None stands for 1.

    The letter value is sum_i v_i*a_i over the values and the plus
    coefficients, and r multiplies it once, as on the plus side.
    """
    terms = {}
    for v, a in zip(values, sphere.plus_coeffs):
        mul_terms(sphere.presentation, v.terms, a.terms, terms)
    total = AlgElement(sphere.presentation, terms)
    return total if r is None else total * r


def _expand(sphere, plus_values, minus_values, b=None):
    """Generator values of f*b for f = sum of values times the dual bases.

    Read with f's own values this is f*b, and f itself exactly when the
    values are consistent; b = None stands for 1 without the products by it.
    Each letter value is computed once and multiplied by b times each
    generator's coefficient.
    """
    at_plus = _on_plus(sphere, plus_values)
    at_minus = _on_minus(sphere, minus_values)

    def at(c):
        return c if b is None else b * c

    return (
        tuple(at_plus * at(a) for a in sphere.plus_coeffs),
        tuple(at_minus * at(c) for c in sphere.minus_coeffs),
    )


class BHomForm(SparseVector, space=("sphere", "degree"), mismatch=DegreeMismatch):
    """Right-linear functional on the sphere's one- or two-forms.

    Degree one stores the six values on the projective generators, plus side
    in slots 0-2 and minus side in slots 3-5; evaluation expands any sphere
    form through the dual bases, so the values determine the functional
    everywhere.  Degree two stores the single value on the free generator
    in slot 0.  Values always lie in the degree-zero subalgebra.
    """

    __slots__ = ("sphere", "degree")

    def __init__(self, sphere, degree, plus_values=(), minus_values=(), top_value=None):
        pres = sphere.presentation
        if degree == 1:
            if len(plus_values) != 3 or len(minus_values) != 3:
                raise ValueError("a degree-one functional carries 3 + 3 values")
            values = (*plus_values, *minus_values)
        elif degree == 2:
            values = (pres.zero if top_value is None else top_value,)
        else:
            raise DegreeMismatch(f"no sphere functionals in degree {degree}")
        terms = {}
        for slot, v in enumerate(values):
            v = v if isinstance(v, AlgElement) else pres.scalar(v)
            if v:
                if zdegree(v) != 0:
                    raise DegreeMismatch(
                        f"functional values must be coaction invariants, got {v}"
                    )
                terms[slot] = v
        self.sphere = sphere
        self.degree = degree
        self.terms = terms

    def _values(self, slots):
        zero = self.sphere.presentation.zero
        return tuple(self.terms.get(slot, zero) for slot in slots)

    @property
    def plus_values(self):
        return self._values(range(3)) if self.degree == 1 else ()

    @property
    def minus_values(self):
        return self._values(range(3, 6)) if self.degree == 1 else ()

    @property
    def top_value(self):
        if self.degree == 2:
            return self.terms.get(0, self.sphere.presentation.zero)
        return None

    def _like(self, terms):
        f = BHomForm.__new__(BHomForm)
        f.sphere = self.sphere
        f.degree = self.degree
        f.terms = terms
        return f

    @classmethod
    def from_values(cls, sphere, plus_values, minus_values):
        """Functional with prescribed generator values.

        Arbitrary six-tuples need not extend to the whole module, so each
        value is re-expanded through the dual bases and a mismatch raises
        with the offending slot.
        """
        f = cls(sphere, 1, plus_values, minus_values)
        witness = f._consistency_witness()
        if witness is not None:
            raise ValueError(witness)
        return f

    @classmethod
    def from_coordinates(cls, sphere, plus_coords=(), minus_coords=()):
        """Left combination of the dual bases; consistent by construction."""
        pres = sphere.presentation
        plus_coords = tuple(plus_coords) + (pres.zero,) * (3 - len(plus_coords))
        minus_coords = tuple(minus_coords) + (pres.zero,) * (3 - len(minus_coords))
        return cls(sphere, 1, *_expand(sphere, plus_coords, minus_coords))

    @classmethod
    def top(cls, sphere, value):
        return cls(sphere, 2, top_value=value)

    def value_on_plus(self, s):
        """Value at the plus letter times s."""
        return _on_plus(self.sphere, self.plus_values, s)

    def value_on_minus(self, r):
        return _on_minus(self.sphere, self.minus_values, r)

    def _consistency_witness(self):
        again = _expand(self.sphere, self.plus_values, self.minus_values)
        for side, values, expanded in zip(
            ("plus", "minus"), (self.plus_values, self.minus_values), again
        ):
            for j in range(3):
                if expanded[j] != values[j]:
                    return (
                        f"value at {side} generator {j} fails the dual-basis "
                        f"expansion: {values[j]} versus {expanded[j]}"
                    )
        return None

    def __call__(self, omega):
        if self.degree == 1:
            r, s = _form_coords(self.sphere, omega, 1)
            return self.value_on_plus(s) + self.value_on_minus(r)
        (coeff,) = _form_coords(self.sphere, omega, 2)
        return self.top_value * coeff

    def __mul__(self, other):
        if isinstance(other, FormElement):
            # contraction (f*w)(w') = f(w w'), one degree down; no check
            # calls it or the degree-2 call: the tests use both as the
            # reference for nabla_coH_1
            if self.degree != 2 or other.degree != 1:
                raise DegreeMismatch("contraction needs a two-form functional and a one-form")
            plus_values = [self(other * g) for g in self.sphere.plus_generators]
            minus_values = [self(other * g) for g in self.sphere.minus_generators]
            return BHomForm(self.sphere, 1, plus_values, minus_values)
        pres = self.sphere.presentation
        b = other if isinstance(other, AlgElement) else pres.scalar(other)
        if b and zdegree(b) != 0:
            raise DegreeMismatch(f"the right action only admits invariants, got {b}")
        if self.degree == 2:
            return BHomForm.top(self.sphere, self.top_value * b)
        # b slides through the free letters, so acting on the argument is
        # just right multiplication inside each value
        return BHomForm(
            self.sphere, 1, *_expand(self.sphere, self.plus_values, self.minus_values, b)
        )

    def __str__(self):
        if self.degree == 2:
            return f"top := {self.top_value}"
        parts = []
        for side, values in (("plus", self.plus_values), ("minus", self.minus_values)):
            for i, v in enumerate(values):
                if v:
                    parts.append(f"{side}{i} := {v}")
        return ", ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<BHomForm degree {self.degree}: {self}>"


def sphere_fixtures(presentation, filename="sphere.fixtures"):
    """Hand-expanded coproduct components shipped with the package.

    Returns the two squared corner-generator coproducts keyed by source
    element, each summed from one raw tensor term per fixture line.
    """
    text = (
        resources.files("intforms")
        .joinpath("data", filename)
        .read_text(encoding="utf-8")
    )
    sections = parse_presentation_file(
        text, sections=("coproduct alpha^2", "coproduct delta^2")
    )
    out = {}
    for name, lines in sections.items():
        total = TensorElement(presentation, {})
        for lineno, term in lines:
            total = total + parse_tensor(presentation, term, line=lineno)
        out[name.partition(" ")[2]] = total
    return out


def _fhat_values(sphere, f, squares):
    """Values of the induced equivariant functional at the two free letters,
    through the translation map: sum c*f(e.S(x1))*x2 over each coproduct.

    squares holds the coproducts of the elements lifting the grading group
    in degrees 2 and -2; the antipode of each left leg lands in the degree
    matching the letter, so the values come out homogeneous.  By the
    antipode axiom they equal f(e+) and f(e-), so only fhat_crosscheck
    takes this route, as a check on the Hopf data.
    """
    pres = sphere.presentation
    values = []
    for square, value_on in zip(squares, (f.value_on_plus, f.value_on_minus)):
        total = pres.zero
        for left, right, c in square.sweedler():
            total = total + (value_on(antipode(pres, left)) * right).scale(c)
        values.append(total)
    return tuple(values)


def _nabla_from_letter_values(sphere, at_plus, at_minus):
    q = sphere.q
    tmd = sphere.spec.tmd
    return (q**-2) * tmd.partial(at_plus)[sphere.plus] + (q**2) * tmd.partial(
        at_minus
    )[sphere.minus]


def nabla_coH(sphere, f):
    """Descended hom-connection on a one-form functional.

    Combines the two grade-shifting derivations of the values of f's
    equivariant extension at the free letters.  Those values are read from
    the dual-basis extension, f(e+) and f(e-): the translation-map sum over
    a coproduct collapses to them by right linearity and the antipode axiom
    (see the module docstring), so no Hopf map is evaluated here.  The
    result is again a coaction invariant.
    """
    if not isinstance(f, BHomForm) or f.degree != 1:
        raise DegreeMismatch("the descended connection starts at one-form functionals")
    out = _nabla_from_letter_values(
        sphere, f.value_on_plus(None), f.value_on_minus(None)
    )
    if out and zdegree(out) != 0:
        raise RuntimeError(f"the descended connection left the invariants: {out}")
    return out


def nabla_coH_1(sphere, f):
    """Lift of the connection to two-form functionals.

    The value on a one-form w is nabla(f*w) + f(dw); evaluating on the six
    projective generators pins the result down, and the constructor checks
    that those values extend.  f*w and f(dw) are the top value times the
    coefficients of _generator_wedges, as the contraction and evaluation
    would compute them.
    """
    if not isinstance(f, BHomForm) or f.degree != 2:
        raise DegreeMismatch("the lifted connection starts at two-form functionals")
    top = f.top_value
    values = []
    for products, dw in sphere._generator_wedges:
        contracted = BHomForm(
            sphere, 1, [top * c for c in products[:3]], [top * c for c in products[3:]]
        )
        values.append(nabla_coH(sphere, contracted) + top * dw)
    return BHomForm.from_values(sphere, values[:3], values[3:])


def _nabla_written_out(sphere, f):
    """The same connection, spelled out on the six module generators."""
    pres = sphere.presentation
    q = sphere.q
    alpha, beta, gamma, delta = (
        pres.gen(g) for g in ("alpha", "beta", "gamma", "delta")
    )
    vm0, vm1, vm2, vp0, vp1, vp2 = (f(w) for w in sphere.module_generators)
    tmd = sphere.spec.tmd

    def raised(a):
        return tmd.partial(a)[sphere.minus]

    def lowered(a):
        return tmd.partial(a)[sphere.plus]

    return (
        (q**2) * raised(vm0) * (delta * delta)
        - (q**3 + q) * raised(vm1) * (beta * delta)
        + (q**4) * raised(vm2) * (beta * beta)
        + (q**-4) * lowered(vp0) * (gamma * gamma)
        - (q**-3 + q**-5) * lowered(vp1) * (alpha * gamma)
        + (q**-2) * lowered(vp2) * (alpha * alpha)
        + (q + q**-1)
        * (
            ((q**2) * vm2 - vp2) * (alpha * beta)
            + (vm0 - (q**-2) * vp0) * (gamma * delta)
            - (q * vm1 - (q**-1) * vp1) * (alpha * delta + (q**-1) * (beta * gamma))
        )
    )


def fhat_crosscheck(sphere, f, fixtures=None):
    """Play three routes to the descended connection against each other.

    f may be a functional or an index into the dual basis.  The routes are
    the dual-basis extension (nabla_coH), the translation-map Sweedler sum
    (_fhat_values) and the written-out six-generator formula.  The fixture
    coproducts are first compared with the machine extension of the Hopf
    data, and the Sweedler sum is evaluated once with each.  It must equal
    the written-out formula, and the dual-basis extension, to which the
    antipode axiom reduces it; so broken Hopf data splits the routes.
    fixtures defaults to the shipped file; callers checking many
    functionals load it once with sphere_fixtures, and a corrupted copy
    turns the comparison into a control.
    """
    if isinstance(f, int):
        f = sphere.dual_basis()[f]
    if fixtures is None:
        fixtures = sphere_fixtures(sphere.presentation)
    # every route reads f through the same dual-basis expansion, so a broken
    # weight cancels between them; the determinant identities catch it
    report = CheckReport(sphere.determinant_checks())
    squares = sphere._sweedler_squares
    for key, machine in zip(("alpha^2", "delta^2"), squares):
        ok = fixtures[key] == machine
        report.add(
            f"fixture coproduct of {key} matches the Hopf data",
            ok,
            None if ok else f"{fixtures[key]} versus {machine}",
        )
    via_fixtures = _nabla_from_letter_values(
        sphere, *_fhat_values(sphere, f, (fixtures["alpha^2"], fixtures["delta^2"]))
    )
    via_machine = _nabla_from_letter_values(sphere, *_fhat_values(sphere, f, squares))
    written = _nabla_written_out(sphere, f)
    for name, lhs, rhs in (
        ("translation route agrees between fixture and Hopf data", via_fixtures, via_machine),
        ("translation route equals the written-out formula", via_machine, written),
        ("dual-basis extension equals the translation route", nabla_coH(sphere, f), via_machine),
    ):
        ok = lhs == rhs
        report.add(name, ok, None if ok else f"{lhs} versus {rhs}")
    return report


def sphere_flatness(sphere):
    """Certify flatness of the descended connection.

    Checks the determinant identities and dual-basis reproduction first (a
    corrupted weight should fail there, not in some downstream square), then
    that the lifted connection kills the top dual, then the curvature on the
    top dual times each algebra generator of the invariants.
    """
    report = CheckReport(sphere.determinant_checks() + sphere.reproduction_checks())
    if not report.ok:
        return report
    phi = sphere.top_dual()
    lifted = nabla_coH_1(sphere, phi)
    ok = lifted.is_zero()
    report.add(
        "lifted connection kills the top dual", ok, None if ok else str(lifted)
    )
    pres = sphere.presentation
    alpha, beta, gamma, delta = (
        pres.gen(g) for g in ("alpha", "beta", "gamma", "delta")
    )
    for name, b in (
        ("alpha*beta", alpha * beta),
        ("gamma*delta", gamma * delta),
        ("beta*gamma", beta * gamma),
    ):
        curv = nabla_coH(sphere, nabla_coH_1(sphere, phi * b))
        ok = not curv
        report.add(
            f"curvature vanishes on the top dual times {name}",
            ok,
            None if ok else str(curv),
        )
    return report


def psi(sphere, omega):
    """Pair a one-form against the dual bases, swapping the two summands.

    This is the vertical map matching d with the descended connection: its
    generator values collapse through the determinant identity to products
    of the right coefficients of omega.
    """
    r, s = _form_coords(sphere, omega, 1)
    q = sphere.q
    plus_values = tuple((-(q * q)) * (r * a) for a in sphere.plus_coeffs)
    minus_values = tuple(s * b for b in sphere.minus_coeffs)
    return BHomForm(sphere, 1, plus_values, minus_values)


def psi_inv(sphere, f):
    """Explicit inverse of psi on consistent functionals."""
    if not isinstance(f, BHomForm) or f.degree != 1:
        raise DegreeMismatch("psi_inv starts at one-form functionals")
    r = -(sphere.q**-2) * _on_plus(sphere, f.plus_values)
    return sphere.one_form(r, _on_minus(sphere, f.minus_values))


def theta(sphere, b):
    """Identify an invariant with a two-form: the free generator times b."""
    return sphere.top_form * b


def theta_star(sphere, b):
    """Identify an invariant with a two-form functional."""
    return BHomForm.top(sphere, b)


def check_sphere_ladder(sphere, length_bound):
    """Verify the ladder between the de Rham and integral complexes of B.

    The determinant identities run first; if the projective data is broken
    every square downstream would fail for the same uninteresting reason, so
    the squares are skipped and the report carries the determinant witness.
    Otherwise both squares are checked on every invariant normal word up to
    the bound (tensored with each module generator where the source is a
    one-form), and bijectivity of the vertical maps is certified by round
    trips in both directions.  The report counts squares and round trips;
    each failing one is a check named by its source, with a field naming
    the square or the direction of the round trip.
    """
    report = CheckReport(sphere.determinant_checks(), squares=0, round_trips=0)
    if not report.ok:
        return report
    counts = report.counts
    spec = sphere.spec
    pres = sphere.presentation
    words = pres.normal_words(length_bound, degree=0)
    for w in words:
        b = pres._monomial(w)
        lhs = psi(sphere, dga.d(spec, b))
        rhs = nabla_coH_1(sphere, theta_star(sphere, b))
        counts["squares"] += 1
        if lhs != rhs:
            report.add(
                pres.word_str(w),
                False,
                f"{lhs} versus {rhs}",
                square="functions to one-form functionals",
            )
        for k, gen in enumerate(sphere.module_generators):
            omega = gen * b
            lhs2 = theta(sphere, nabla_coH(sphere, psi(sphere, omega)))
            rhs2 = dga.d(spec, omega)
            counts["squares"] += 1
            if lhs2 != rhs2:
                report.add(
                    f"generator {k} times {pres.word_str(w)}",
                    False,
                    f"{lhs2} versus {rhs2}",
                    square="one-forms to invariants",
                )
    for w in words:
        b = pres._monomial(w)
        for k, gen in enumerate(sphere.module_generators):
            omega = gen * b
            back = psi_inv(sphere, psi(sphere, omega))
            counts["round_trips"] += 1
            if back != omega:
                report.add(
                    f"generator {k} times {pres.word_str(w)}",
                    False,
                    str(back),
                    direction="form round trip",
                )
        for slot in range(6):
            coords = [pres.zero] * 6
            coords[slot] = b
            f = BHomForm.from_coordinates(sphere, coords[:3], coords[3:])
            back = psi(sphere, psi_inv(sphere, f))
            counts["round_trips"] += 1
            if back != f:
                report.add(
                    f"slot {slot} times {pres.word_str(w)}",
                    False,
                    str(back),
                    direction="functional round trip",
                )
    return report
