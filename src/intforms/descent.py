"""Descent of the 3D calculus to the quantum sphere inside quantum SL(2).

The degree-zero subalgebra B of quantum SL(2) inherits a two-sided calculus
from the three-dimensional left-covariant one: its one-forms split into two
finitely generated projective summands with explicit dual bases, its
two-forms are free of rank one, and the hom-connection descends to
functionals on them.  This module builds that projective data, the descended
connection (computed through the translation map, with the written-out
six-generator formula kept as an independent cross-check), the degree-two
differential, flatness, and the ladder identifying the complex of integral
forms on B with its de Rham complex.  Both vertical maps of that ladder have
explicit inverses here, so bijectivity is certified by exact round trips
rather than by rank counts.

A one-form functional keeps its six values on the projective generators;
evaluation, the right action, the consistency check and combinations of the
dual bases all read them through one dual-basis expansion.
"""

from __future__ import annotations

from importlib import resources

from . import dga
from .dga import FormElement
from .homconn import DegreeMismatch
from .ncalg import TensorElement, antipode, coproduct, zdegree
from .parser import ParseError, parse_tensor
from .report import CheckReport

__all__ = [
    "BHomForm",
    "CrossCheckFailed",
    "SphereData",
    "check_sphere_ladder",
    "fhat_crosscheck",
    "nabla_coH",
    "nabla_coH_1",
    "project_degree0",
    "psi",
    "psi_inv",
    "sphere_d",
    "sphere_fixtures",
    "sphere_flatness",
    "theta",
    "theta_star",
]


class CrossCheckFailed(ValueError):
    """The two routes to the descended connection disagree.

    Raised by ``fhat_crosscheck(...).raise_first(CrossCheckFailed)``.
    """


def project_degree0(a):
    """Degree-zero component of an element of the graded coordinate ring."""
    pres = a.presentation
    kept = {w: c for w, c in a.terms.items() if pres.word_degree(w) == 0}
    return pres.element(kept)


class SphereData:
    """Projective presentation of the one-forms on the quantum sphere.

    Stores the ambient 3D calculus together with the generator coefficients
    of the two projective summands (one per vertical form letter), the
    scalar weights entering the plus-side pairing, and the six module
    generators in their customary left-coefficient spelling.  Everything
    downstream reads these fields live, so a corrupted weight is caught by
    the determinant identities instead of being baked into cached duals.
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
        self._squares = None

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

    def _sweedler_squares(self):
        if self._squares is None:
            pres = self.presentation
            alpha = pres.gen("alpha")
            delta = pres.gen("delta")
            self._squares = (
                coproduct(pres, alpha * alpha),
                coproduct(pres, delta * delta),
            )
        return self._squares


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
    for word, coeff in omega.terms.items():
        for w, c in dga.right_coords(spec, coeff, word).items():
            if w not in totals:
                raise DegreeMismatch(
                    f"not a {kind} on the sphere: component at " + spec.word_str(w)
                )
            totals[w] = totals[w] + c
    for w, (name, want) in slots.items():
        coeff = totals[w]
        if coeff and zdegree(coeff) != want:
            raise DegreeMismatch(
                f"the {name} coefficient must have Z-degree {want}, got {coeff}"
            )
    return tuple(totals.values())


def _on_plus(sphere, values, s=None):
    """f(plus letter * s) for f with these plus values; s = None stands for 1."""
    total = sphere.presentation.zero
    for w, v, b in zip(sphere.plus_weights, values, sphere.minus_coeffs):
        total = total + w * (v * (b if s is None else b * s))
    return total


def _on_minus(sphere, values, r=None):
    """f(minus letter * r) for f with these minus values; r = None stands for 1."""
    total = sphere.presentation.zero
    for v, a in zip(values, sphere.plus_coeffs):
        total = total + v * (a if r is None else a * r)
    return total


def _expand(sphere, plus_values, minus_values, b=None):
    """Generator values of f*b for f = sum of values times the dual bases.

    Read with f's own values this is f*b, and f itself exactly when the
    values are consistent; b = None stands for 1 without the products by it.
    """
    def at(c):
        return c if b is None else b * c

    return (
        tuple(_on_plus(sphere, plus_values, at(a)) for a in sphere.plus_coeffs),
        tuple(_on_minus(sphere, minus_values, at(c)) for c in sphere.minus_coeffs),
    )


class BHomForm:
    """Right-linear functional on the sphere's one- or two-forms.

    Degree one stores the six values on the projective generators, plus side
    before minus side; evaluation expands any sphere form through the dual
    bases, so the values determine the functional everywhere.  Degree two
    stores the single value on the free generator.  Values always lie in the
    degree-zero subalgebra.
    """

    __slots__ = ("sphere", "degree", "plus_values", "minus_values", "top_value")

    def __init__(self, sphere, degree, plus_values=(), minus_values=(), top_value=None):
        pres = sphere.presentation
        def invariant(v):
            v = v if hasattr(v, "terms") else pres.scalar(v)
            if v and zdegree(v) != 0:
                raise DegreeMismatch(
                    f"functional values must be coaction invariants, got {v}"
                )
            return v

        self.sphere = sphere
        self.degree = degree
        if degree == 1:
            if len(plus_values) != 3 or len(minus_values) != 3:
                raise ValueError("a degree-one functional carries 3 + 3 values")
            self.plus_values = tuple(invariant(v) for v in plus_values)
            self.minus_values = tuple(invariant(v) for v in minus_values)
            self.top_value = None
        elif degree == 2:
            self.plus_values = ()
            self.minus_values = ()
            self.top_value = invariant(pres.zero if top_value is None else top_value)
        else:
            raise DegreeMismatch(f"no sphere functionals in degree {degree}")

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

    def is_zero(self):
        if self.degree == 1:
            return not any(self.plus_values) and not any(self.minus_values)
        return not self.top_value

    def __bool__(self):
        return not self.is_zero()

    def _mate(self, other):
        if not isinstance(other, BHomForm):
            return None
        if other.sphere is not self.sphere or other.degree != self.degree:
            raise DegreeMismatch("functionals live on different sphere modules")
        return other

    def __add__(self, other):
        mate = self._mate(other)
        if mate is None:
            return NotImplemented
        if self.degree == 2:
            return BHomForm.top(self.sphere, self.top_value + mate.top_value)
        return BHomForm(
            self.sphere,
            1,
            tuple(a + b for a, b in zip(self.plus_values, mate.plus_values)),
            tuple(a + b for a, b in zip(self.minus_values, mate.minus_values)),
        )

    def __neg__(self):
        if self.degree == 2:
            return BHomForm.top(self.sphere, -self.top_value)
        return BHomForm(
            self.sphere,
            1,
            tuple(-v for v in self.plus_values),
            tuple(-v for v in self.minus_values),
        )

    def __sub__(self, other):
        mate = self._mate(other)
        if mate is None:
            return NotImplemented
        return self + (-mate)

    def __mul__(self, other):
        if isinstance(other, FormElement):
            # contraction (f*w)(w') = f(w w'), one degree down
            if self.degree != 2 or other.degree != 1:
                raise DegreeMismatch("contraction needs a two-form functional and a one-form")
            plus_values = [self(other * g) for g in self.sphere.plus_generators]
            minus_values = [self(other * g) for g in self.sphere.minus_generators]
            return BHomForm(self.sphere, 1, plus_values, minus_values)
        pres = self.sphere.presentation
        b = other if hasattr(other, "terms") else pres.scalar(other)
        if b and zdegree(b) != 0:
            raise DegreeMismatch(f"the right action only admits invariants, got {b}")
        if self.degree == 2:
            return BHomForm.top(self.sphere, self.top_value * b)
        # b slides through the free letters, so acting on the argument is
        # just right multiplication inside each value
        return BHomForm(
            self.sphere, 1, *_expand(self.sphere, self.plus_values, self.minus_values, b)
        )

    def __eq__(self, other):
        mate = self._mate(other)
        if mate is None:
            return NotImplemented
        if self.degree == 2:
            return self.top_value == mate.top_value
        return (
            self.plus_values == mate.plus_values
            and self.minus_values == mate.minus_values
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


def _fixture_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", line=lineno)
            current = line[1:-1].strip()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ParseError("fixture term before any [section]", line=lineno)
        sections[current].append(line)
    return sections


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
    out = {}
    for name, lines in _fixture_sections(text).items():
        head, _, key = name.partition(" ")
        if head != "coproduct" or not key:
            raise ParseError(f"unknown fixture section [{name}]")
        total = TensorElement(presentation, {})
        for line in lines:
            total = total + parse_tensor(presentation, line)
        out[key] = total
    return out


def _fhat_values(sphere, f, squares):
    """Values of the induced equivariant functional at the two free letters.

    squares holds the coproducts of the elements lifting the grading group
    in degrees 2 and -2; the antipode of each left leg lands in the degree
    matching the letter, so the values come out homogeneous.
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

    Computed through the translation map: extend f equivariantly to the
    ambient calculus, then combine the two grade-shifting derivations of its
    letter values.  The result is again a coaction invariant.
    """
    if not isinstance(f, BHomForm) or f.degree != 1:
        raise DegreeMismatch("the descended connection starts at one-form functionals")
    at_plus, at_minus = _fhat_values(sphere, f, sphere._sweedler_squares())
    out = _nabla_from_letter_values(sphere, at_plus, at_minus)
    if out and zdegree(out) != 0:
        raise RuntimeError(f"the descended connection left the invariants: {out}")
    return out


def nabla_coH_1(sphere, f):
    """Lift of the connection to two-form functionals.

    The value on a one-form w is nabla(f*w) + f(dw); evaluating on the six
    projective generators pins the result down, and the constructor checks
    that those values extend.
    """
    if not isinstance(f, BHomForm) or f.degree != 2:
        raise DegreeMismatch("the lifted connection starts at two-form functionals")
    spec = sphere.spec
    plus_values, minus_values = (
        [nabla_coH(sphere, f * w) + f(dga.d(spec, w)) for w in gens]
        for gens in (sphere.plus_generators, sphere.minus_generators)
    )
    return BHomForm.from_values(sphere, plus_values, minus_values)


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
    """Play the two routes to the descended connection against each other.

    f may be a functional or an index into the dual basis.  The fixture
    coproducts are reloaded and compared with the machine extension of the
    Hopf data, the translation-map route is evaluated once with each, and
    the written-out six-generator formula must agree with both.  Passing
    fixtures overrides the shipped file and turns the comparison into a
    control.
    """
    if isinstance(f, int):
        f = sphere.dual_basis()[f]
    pres = sphere.presentation
    if fixtures is None:
        fixtures = sphere_fixtures(pres)
    # both routes read f through the same dual-basis expansion, so a broken
    # weight cancels between them; the determinant identities catch it
    report = CheckReport(sphere.determinant_checks())
    machine = {}
    for key in ("alpha^2", "delta^2"):
        g = pres.gen(key.partition("^")[0])
        machine[key] = coproduct(pres, g * g)
        ok = fixtures[key] == machine[key]
        report.add(
            f"fixture coproduct of {key} matches the Hopf data",
            ok,
            None if ok else f"{fixtures[key]} versus {machine[key]}",
        )
    via_fixtures = _nabla_from_letter_values(
        sphere, *_fhat_values(sphere, f, (fixtures["alpha^2"], fixtures["delta^2"]))
    )
    via_machine = nabla_coH(sphere, f)
    written = _nabla_written_out(sphere, f)
    for name, lhs, rhs in (
        ("translation route agrees between fixture and Hopf data", via_fixtures, via_machine),
        ("translation route equals the written-out formula", via_machine, written),
    ):
        ok = lhs == rhs
        report.add(name, ok, None if ok else f"{lhs} versus {rhs}")
    return report


def sphere_d(sphere, x, y):
    """Two-form coefficient of d on the one-form x*minus + y*plus.

    x and y are the left coefficients, of Z-degrees 2 and -2; the vertical
    components of d cancel on such forms, and what is returned is the left
    coefficient on the wedge of plus and minus (the stored basis word runs
    the other way round and differs by -q^2).
    """
    for name, coeff, want in (("x", x, 2), ("y", y, -2)):
        if coeff and zdegree(coeff) != want:
            raise DegreeMismatch(f"{name} must have Z-degree {want}, got {coeff}")
    q = sphere.q
    tmd = sphere.spec.tmd
    return tmd.partial(x)[sphere.plus] - (q**-2) * tmd.partial(y)[sphere.minus]


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
        b = pres.monomial(w)
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
        b = pres.monomial(w)
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
