"""Verification suites behind the command-line reports.

One table, SUITES, decides what runs: preset kind -> slice -> check
builders, in report order.  A slice command runs its slice, verify runs
them all.  Any calculus, a file target included, gets the checks of the
paper's general results; the quantum plane and quantum SL(2) append their
closed forms and a negative control to the slices; the sphere and the
matrix algebra run whole.  A command with no checks raises ValueError.

A check thunk returns None to pass, a witness string to fail, ("skipped",
reason) to skip, or (True, note) to pass with a printable witness;
raising also fails, with the exception as the witness.  A negative
control is a deliberately corrupted variant that must fail, and a
corrupted variant that sails through is itself reported as a failure.
"""

from __future__ import annotations

import random
from time import perf_counter

from . import dga
from .descent import (
    BHomForm,
    check_sphere_ladder,
    fhat_crosscheck,
    nabla_coH,
    nabla_coH_1,
    sphere_fixtures,
    sphere_flatness,
)
from .dga import check_d_squared, check_density
from .homconn import HomForm, dual_basis, dual_form, is_flat, nabla
from .integrals import (
    block_ranks,
    check_ladder,
    check_lambda_annihilates,
    integral_class,
    sl2_lambda,
)
from .matrixcalc import (
    DerBasis,
    MatElement,
    MatHomForm,
    curvature_mn,
    koszul_d,
    nabla_hom,
    phi_ladder,
    structure_constants,
    trace_integral,
)
from .multider import inverse_identities, verify_free
from .ncalg import AlgElement, check_local_confluence
from .presets import load_calc
from .sparse import add_scaled

__all__ = ["Options", "SUITES", "checks_for", "run_checks"]


class Options:
    """Knobs shared by every command."""

    __slots__ = ("max_len", "max_degree", "seed", "cases", "degree")

    def __init__(self, max_len=4, max_degree=6, seed=0, cases=100, degree=None):
        self.max_len = max_len
        self.max_degree = max_degree
        self.seed = seed
        self.cases = cases
        self.degree = degree


def _random_element(pres, rng, max_len):
    # two drawn terms; a normal word is its own normal form
    words = pres.normal_words(max_len)
    ctx = pres.context
    terms = {}
    for _ in range(2):
        word = rng.choice(words)
        coeff = ctx.coerce(rng.randint(-3, 3))
        if coeff:
            add_scaled(terms, {word: ctx.one}, coeff)
    return AlgElement(pres, terms)


# -- calculus slices -----------------------------------------------------------


def _freeness_checks(bundle, opts):
    tmd, pres = bundle.tmd, bundle.presentation
    checks = []

    checks.append((
        "derivation data verifies as free",
        lambda: verify_free(tmd).first_failure(),
    ))

    def identities():
        for name, witness in inverse_identities(tmd, pres.normal_words(opts.max_len)):
            if witness is not None:
                return f"{name}: {witness}"
        return None

    checks.append((
        f"inverse identities hold on words up to length {opts.max_len}",
        identities,
    ))
    return checks


def _nabla_checks(bundle, opts):
    spec = bundle.spec
    pres = bundle.presentation
    checks = []

    def duals_die():
        for i, xi in enumerate(dual_basis(spec, 1)):
            value = nabla(spec, xi)
            if not value.is_zero():
                return f"dual of {spec.form_names[i]} maps to {value}"
        return None

    checks.append(("connection kills every dual one-form", duals_die))

    def leibniz():
        rng = random.Random(opts.seed)
        bound = min(opts.max_len, 4)
        for case in range(opts.cases):
            f = HomForm(
                spec,
                1,
                {word: _random_element(pres, rng, bound) for word in spec.basis(1)},
            )
            a = _random_element(pres, rng, bound)
            lhs = nabla(spec, f * a)
            rhs = nabla(spec, f) * a + f(dga.d(spec, a))
            if lhs != rhs:
                return f"case {case}: {lhs} versus {rhs}"
        return None

    checks.append((
        f"connection obeys the product rule on {opts.cases} seeded samples",
        leibniz,
    ))
    return checks


def _flatness_checks(bundle, opts):
    del opts
    return [(
        "curvature vanishes on the degree-2 duals",
        lambda: is_flat(bundle.spec).first_failure(),
    )]


def _ladder_checks(bundle, opts):
    def squares():
        if bundle.ladder is None:
            return "skipped", "no ladder section"
        report = check_ladder(bundle.ladder, opts.max_len)
        if report.ok:
            return True, f"{report.counts['squares']} squares"
        return report.first_failure()

    return [(
        f"chain ladder commutes with bijective verticals up to length {opts.max_len}",
        squares,
    )]


def _density_checks(bundle, opts):
    def witnessed():
        bound = min(opts.max_len, 2)
        witness = check_density(bundle.spec, bound)
        if witness is None:
            return f"no density family with words of length <= {bound}"
        return None

    return [("calculus is dense", witnessed)]


def _confluence_checks(bundle, opts):
    def confluent():
        report = check_local_confluence(bundle.presentation, opts.max_degree)
        if report.ok:
            return True, f"{len(report.checks)} overlaps resolved"
        return f"{len(report.failures)} unresolved overlaps"

    return [(
        f"rewriting is locally confluent up to degree {opts.max_degree}",
        confluent,
    )]


def _d_squared_checks(bundle, opts):
    return [(
        "differential squares to zero on the window",
        lambda: check_d_squared(bundle.spec, min(opts.max_len, 5)).first_failure(),
    )]


# -- closed forms of the worked examples --------------------------------------


def _qplane_inverses(bundle, opts):
    del opts
    pres, tmd = bundle.presentation, bundle.tmd

    def closed_forms():
        q, p = pres.context.parameter("q"), pres.context.parameter("p")
        bar, hat = tmd.sigma_bar, tmd.sigma_hat
        for r in range(5):
            for s in range(5):
                word = pres.word(*(("x",) * r + ("y",) * s))
                mono = pres.monomial(word)
                shorter = None
                if s > 0:
                    shorter = pres.monomial(
                        pres.word(*(("x",) * (r + 1) + ("y",) * (s - 1)))
                    )
                m = bar.on_word(word)
                ok = (
                    m[0][0] == mono.scale(p**-r * q**-s)
                    and m[0][1] == pres.zero
                    and m[1][1] == mono.scale((q / p) ** r * p**-s)
                )
                if s == 0:
                    ok = ok and m[1][0] == pres.zero
                else:
                    ok = ok and m[1][0] == shorter.scale(
                        p**-r * q ** (r - s + 1) * (p**-s - 1)
                    )
                if not ok:
                    return f"triangular inverse at x^{r} y^{s}"
                m = hat.on_word(word)
                ok = (
                    m[0][0] == mono.scale(p**r * q**s)
                    and m[1][0] == pres.zero
                    and m[1][1] == mono.scale((p / q) ** r * p**s)
                )
                if s == 0:
                    ok = ok and m[0][1] == pres.zero
                else:
                    ok = ok and m[0][1] == shorter.scale(p ** (r + 1) * (p**s - 1))
                if not ok:
                    return f"double twist at x^{r} y^{s}"
        return None

    return [("triangular inverses match the closed forms", closed_forms)]


def _qplane_integral(bundle, opts):
    spec = bundle.spec
    pres = bundle.presentation

    def onto():
        q, p = pres.context.parameter("q"), pres.context.parameter("p")
        names = pres.generators
        for w in pres.normal_words(opts.max_len):
            r = sum(1 for g in w if names[g] == "x")
            s = len(w) - r
            # the closed-form preimage of x^r y^s under the connection is
            # (num/den)*g; scalars are central and nabla and the right
            # action are linear over them, and den != 0 for s >= 0, so
            # num*nabla(g) == den*x^r y^s states it with Laurent scalars only
            num = p ** (r + s) * q**-r * (p - 1)
            den = p ** (s + 1) - 1
            longer = pres.word(*(("x",) * r + ("y",) * (s + 1)))
            g = dual_form(spec, ("dy",)) * pres._monomial(longer)
            if num * nabla(spec, g) != den * pres._monomial(w):
                return f"closed-form preimage misses x^{r} y^{s}"
        return None

    def blocks():
        # a degree-d preimage uses words one letter longer, so the top
        # block of the window stays out of the sweep
        degrees = (opts.degree,) if opts.degree is not None else range(opts.max_len)
        for degree, (_, cokernel) in zip(degrees, block_ranks(spec, opts.max_len, degrees)):
            if cokernel:
                missed = ", ".join(str(m) for m in cokernel)
                return f"degree {degree} block misses {missed}"
        return None

    return [
        (f"closed-form preimages hit every monomial up to length {opts.max_len}", onto),
        ("truncated cokernel vanishes in every degree block", blocks),
    ]


def _qplane_controls(bundle, opts):
    del opts

    def flipped_vertical():
        patched = bundle.source.replace("1: dx = -1 * dual(dy)", "1: dx = 1 * dual(dy)")
        if patched == bundle.source:
            return "control patch found nothing to corrupt"
        report = check_ladder(load_calc(patched).ladder, 2)
        if report.ok:
            return "sign-flipped ladder vertical passed"
        bad = report.failures[0]
        return True, f"fails as expected at level {bad['level']}, {bad['word']}"

    return [("negative control: sign-flipped ladder vertical", flipped_vertical)]


def _sl2_level_one(bundle):
    spec = bundle.spec
    q = bundle.presentation.context.parameter("q")
    heavy = q * q * (q * q + 1)
    expected = {
        ("w-", "w+"): HomForm(spec, 1, {"w0": q}),
        ("w-", "w0"): HomForm(spec, 1, {"w-": heavy}),
        ("w0", "w+"): HomForm(spec, 1, {"w+": heavy}),
    }
    for word, want in expected.items():
        got = nabla(spec, dual_form(spec, word))
        if got != want:
            return f"dual of {'.'.join(word)} maps to {got}"
    return None


def _sl2_flatness(bundle, opts):
    del opts
    spec = bundle.spec

    def level_two():
        top = nabla(spec, dual_form(spec, ("w-", "w0", "w+")))
        return None if top.is_zero() else str(top)

    return [
        (
            "level-one connection values are the scaled duals",
            lambda: _sl2_level_one(bundle),
        ),
        ("level-two connection kills the top dual", level_two),
    ]


def _sl2_integral(bundle, opts):
    spec = bundle.spec
    pres = bundle.presentation

    def annihilates():
        report = check_lambda_annihilates(spec, opts.max_len)
        if not report.ok:
            return report.first_failure()
        return True, f"{report.counts['coordinates']} window coordinates"

    def classes():
        q = pres.context.parameter("q")
        bg = pres.gen("beta") * pres.gen("gamma")
        lines = []
        power = pres.one
        for level in (1, 2):
            power = power * bg
            want = ((-1) ** level) * (q - q**-1) / (
                q ** (level + 1) - q ** -(level + 1)
            )
            bound = max(opts.max_len, 2 * level + 2)
            c, _ = integral_class(spec, power, bound)
            if c != want:
                return f"(beta*gamma)^{level}: got {c}, want {want}"
            label = "beta*gamma" if level == 1 else f"(beta*gamma)^{level}"
            lines.append(f"Lambda({label}) = {c}")
        return True, "; ".join(lines)

    return [
        (
            f"Haar functional kills the connection image up to length {opts.max_len}",
            annihilates,
        ),
        ("cokernel classes of the beta*gamma powers", classes),
    ]


def _sl2_controls(bundle, opts):
    del opts

    def shifted_d():
        patched = bundle.source.replace("d w0 = q * w-.w+", "d w0 = q^2 * w-.w+")
        if patched == bundle.source:
            return "control patch found nothing to corrupt"
        try:
            witness = _sl2_level_one(load_calc(patched))
        except ValueError as exc:
            return True, f"rejected at build time: {exc}"
        if witness is None:
            return "exponent-shifted d rule passed the level-one values"
        return True, f"fails as expected: {witness}"

    return [("negative control: exponent-shifted d rule", shifted_d)]


# -- sphere and matrix suites --------------------------------------------------


def _sphere_checks(sphere, opts):
    pres = sphere.presentation
    checks = []

    checks.append((
        "determinants, dual reproduction, and flatness",
        lambda: sphere_flatness(sphere).first_failure(),
    ))

    def dual_values():
        q = sphere.q
        tmd = sphere.spec.tmd
        for i in range(3):
            want = (sphere.plus_weights[i] * q**-2) * tmd.partial(
                sphere.minus_coeffs[i], sphere.plus
            )
            got = nabla_coH(sphere, sphere.plus_dual(i))
            if got != want:
                return f"plus dual {i}: {got} versus {want}"
            want = (q * q) * tmd.partial(sphere.plus_coeffs[i], sphere.minus)
            got = nabla_coH(sphere, sphere.minus_dual(i))
            if got != want:
                return f"minus dual {i}: {got} versus {want}"
        return None

    checks.append(("connection values on the six dual generators", dual_values))

    def crosscheck():
        fixtures = sphere_fixtures(pres)
        for i in range(6):
            report = fhat_crosscheck(sphere, i, fixtures)
            if not report.ok:
                return f"dual {i}: {report.first_failure()}"
        return None

    checks.append(("double route to the connection agrees on every dual", crosscheck))

    def top_dies():
        value = nabla_coH_1(sphere, sphere.top_dual())
        return str(value) if value else None

    checks.append(("level-one connection kills the top dual", top_dies))

    def ladder():
        report = check_sphere_ladder(sphere, min(opts.max_len, 4))
        if report.ok:
            counts = report.counts
            return True, f"{counts['squares']} squares, {counts['round_trips']} round trips"
        return report.first_failure()

    checks.append(("projective ladder commutes with exact round trips", ladder))

    def haar_restriction():
        if sl2_lambda(pres.one) != pres.context.one:
            return "Haar functional is not normalised"
        for i, f in enumerate(sphere.dual_basis()):
            value = sl2_lambda(nabla_coH(sphere, f))
            if value:
                return f"dual {i}: Lambda o nabla = {value}"
        rng = random.Random(opts.seed)
        words = pres.normal_words(min(opts.max_len, 4), degree=0)
        for case in range(min(opts.cases, 20)):
            coords = [
                pres.monomial(rng.choice(words), coeff=rng.randint(-2, 2))
                for _ in range(6)
            ]
            f = BHomForm.from_coordinates(sphere, coords[:3], coords[3:])
            value = sl2_lambda(nabla_coH(sphere, f))
            if value:
                return f"case {case}: Lambda o nabla = {value}"
        return None

    checks.append((
        "Haar functional restricts to the descended integral",
        haar_restriction,
    ))

    def corrupted():
        bad = sphere_fixtures(pres, "sphere_corrupt.fixtures")
        report = fhat_crosscheck(sphere, 0, fixtures=bad)
        if report.ok:
            return "sign-flipped coproduct fixture passed the cross-check"
        return True, f"fails as expected: {report.failures[0]['name']}"

    checks.append(("negative control: sign-flipped coproduct fixture", corrupted))
    return checks


def _corrupted_constants(basis):
    plane = [[list(row) for row in p] for p in basis.constants()]
    plane[0][2][0] = plane[0][2][0] + 1
    twin = DerBasis(basis.matrices)
    twin._constants = tuple(tuple(tuple(row) for row in p) for p in plane)
    return twin


def _matrix_checks(basis, opts):
    del opts
    checks = []

    def constants():
        c = structure_constants(basis)
        flat = [
            c[i][j][l]
            for i in range(basis.N)
            for j in range(basis.N)
            for l in range(basis.N)
        ]
        if not any(flat):
            return "structure constants vanish identically"
        return None

    checks.append((
        "structure constants close and are totally antisymmetric",
        constants,
    ))

    def curvature():
        for word in basis.words(2):
            for unit in MatElement.units(basis.n):
                f = MatHomForm(basis, 2, {word: unit})
                direct = curvature_mn(basis, f)
                composed = nabla_hom(basis, nabla_hom(basis, f))
                if direct or composed:
                    return f"word {word}, unit {unit}: {direct} versus {composed}"
        return None

    checks.append(("curvature vanishes by formula and by composition", curvature))

    def trace_kills():
        for l in range(basis.N):
            for unit in MatElement.units(basis.n):
                value = trace_integral(basis.derive(l, unit))
                if value:
                    return f"derivation {l}, unit {unit}: {value}"
        return None

    checks.append(("trace integral kills the connection image", trace_kills))

    def d_squared():
        for unit in MatElement.units(basis.n):
            if koszul_d(basis, koszul_d(basis, unit)):
                return f"d^2 at {unit}"
            for l in range(basis.N):
                form = basis.one_form(l, unit)
                if koszul_d(basis, koszul_d(basis, form)):
                    return f"d^2 at {unit} w{l + 1}"
        return None

    checks.append(("differential squares to zero on the basis", d_squared))

    checks.append((
        "vertical maps invert and the cokernel is one line",
        lambda: phi_ladder(basis).first_failure(),
    ))

    def corrupted():
        report = phi_ladder(_corrupted_constants(basis))
        if report.ok:
            return "corrupted structure constants passed the ladder"
        return True, f"fails as expected: {report.failures[0]['name']}"

    checks.append(("negative control: corrupted structure constant", corrupted))
    return checks


# -- assembly ------------------------------------------------------------------

# slice -> builders for any calculus, with no closed form assumed
_CALCULUS = {
    "invert-sigma": (_freeness_checks,),
    "nabla": (_nabla_checks,),
    "flatness": (_flatness_checks,),
    "integral": (),
    "iso-check": (_ladder_checks,),
    "density": (_density_checks,),
    "axioms": (_confluence_checks, _d_squared_checks),
    "controls": (),
}


def _calculus_with(own):
    """The calculus slices, each followed by a preset's own builders."""
    return {piece: generic + own.get(piece, ()) for piece, generic in _CALCULUS.items()}


# preset kind -> slice -> check builders, in report order.  A builder maps
# (loaded preset, Options) to (name, thunk) pairs; verify runs every slice.
# Sphere and matrix run whole, through the command named after their kind.
SUITES = {
    "calculus": _CALCULUS,
    "presentation": {"axioms": (_confluence_checks,)},
    "qplane": _calculus_with({
        "invert-sigma": (_qplane_inverses,),
        "integral": (_qplane_integral,),
        "controls": (_qplane_controls,),
    }),
    "sl2-3d": _calculus_with({
        "flatness": (_sl2_flatness,),
        "integral": (_sl2_integral,),
        "controls": (_sl2_controls,),
    }),
    "sphere": {"verify": (_sphere_checks,)},
    "matrix": {"verify": (_matrix_checks,)},
}


def checks_for(preset, command, opts):
    """Ordered (name, thunk) list for one command against one preset.

    Raises ValueError when the command has nothing to check on the preset,
    or when --degree is given to a preset whose checks do not read it.
    """
    kind = preset.kind
    if opts.degree is not None and kind != "qplane":  # no other kind reads it
        raise ValueError(f"{preset.name} has no checks that read --degree")
    loaded = preset.load()
    if kind == "calculus" and loaded.spec is None:
        kind = "presentation"  # a file with an algebra but no calculus
    suite = SUITES[kind]
    pieces = suite.values() if command == "verify" else [suite.get(command, ())]
    checks = [
        check
        for builders in pieces
        for build in builders
        for check in build(loaded, opts)
    ]
    if not checks:
        hint = f"; run '{kind} verify'" if "verify" in suite else ""
        raise ValueError(f"{preset.name} has no checks for '{command}'{hint}")
    return checks


def run_checks(checks):
    """Execute thunks in order; returns check dicts with timings."""

    def execute(item):
        name, thunk = item
        start = perf_counter()
        try:
            outcome = thunk()
        except Exception as exc:  # a failing check must not sink the report
            outcome = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if outcome is None:
            status, witness = "pass", None
        elif isinstance(outcome, tuple):
            first, second = outcome
            if first is True:
                status, witness = "pass", second
            else:
                status, witness = str(first), second
        else:
            status, witness = "fail", str(outcome)
        return {"name": name, "status": status, "witness": witness, "elapsed": elapsed}

    return [execute(item) for item in checks]
