"""Verification suites behind the command-line reports.

Each preset contributes named checks grouped into slices matching the
commands; verify runs the union.  A check thunk returns None to pass, a
witness string to fail, ("skipped", reason) to skip, or (True, note) to
pass with a printable witness; raising also fails, with the exception as
the witness.  Every suite ends with a deliberately corrupted variant that
must fail, and a corrupted variant that sails through is itself reported
as a failure.
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
from .homconn import HomForm, dual_basis, dual_form, is_flat, nabla, nabla_n
from .integrals import (
    check_ladder,
    check_lambda_annihilates,
    image_rank,
    integral_class,
    sl2_lambda,
)
from .linmap import bullet, is_identity_on_words
from .matrixcalc import (
    DerBasis,
    MatElement,
    MatHomForm,
    curvature_mn,
    koszul_d,
    nabla_chain,
    nabla_hom,
    nabla_mn,
    phi_ladder,
    structure_constants,
    trace_integral,
)
from .multider import verify_free
from .ncalg import check_local_confluence
from .presets import load_calc

__all__ = ["Options", "SLICES", "checks_for", "run_checks"]

SLICES = (
    "invert-sigma",
    "nabla",
    "flatness",
    "integral",
    "iso-check",
    "density",
    "axioms",
    "controls",
)


class Options:
    """Knobs shared by every command."""

    __slots__ = ("max_len", "max_degree", "seed", "cases", "degree")

    def __init__(self, max_len=4, max_degree=6, seed=0, cases=100, degree=None):
        self.max_len = max_len
        self.max_degree = max_degree
        self.seed = seed
        self.cases = cases
        self.degree = degree


def _random_element(pres, rng, max_len, terms=2):
    words = pres.normal_words(max_len)
    out = pres.zero
    for _ in range(terms):
        out = out + pres.monomial(rng.choice(words), coeff=rng.randint(-3, 3))
    return out


# -- calculus slices -----------------------------------------------------------


def _freeness_checks(bundle, opts, preset_name):
    tmd, pres = bundle.tmd, bundle.presentation
    checks = []

    checks.append((
        "derivation data verifies as free",
        lambda: verify_free(tmd).first_failure(),
    ))

    def identities():
        words = pres.normal_words(opts.max_len)
        sigma_t = tmd.sigma.transpose()
        bar_t = tmd.sigma_bar.transpose()
        pairs = (
            ("bar o sigma-transpose", bullet(tmd.sigma_bar, sigma_t)),
            ("sigma-transpose o bar", bullet(sigma_t, tmd.sigma_bar)),
            ("hat o bar-transpose", bullet(tmd.sigma_hat, bar_t)),
            ("bar-transpose o hat", bullet(bar_t, tmd.sigma_hat)),
        )
        for label, product in pairs:
            witness = is_identity_on_words(product, words)
            if witness is not None:
                return f"{label}: {witness}"
        return None

    checks.append((
        f"inverse identities hold on words up to length {opts.max_len}",
        identities,
    ))

    if preset_name == "qplane":
        checks.append((
            "triangular inverses match the closed forms",
            lambda: _qplane_closed_forms(bundle),
        ))
    return checks


def _qplane_closed_forms(bundle):
    pres, tmd = bundle.presentation, bundle.tmd
    ctx = pres.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
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


def _flatness_checks(bundle, opts, preset_name):
    del opts
    spec = bundle.spec
    checks = [(
        "curvature vanishes on the degree-2 duals",
        lambda: is_flat(spec).first_failure(),
    )]
    if preset_name == "sl2-3d":
        checks.append((
            "level-one connection values are the scaled duals",
            lambda: _sl2_level_one(bundle),
        ))
        checks.append((
            "level-two connection kills the top dual",
            lambda: _sl2_level_two(bundle),
        ))
    return checks


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
        got = nabla_n(spec, 1, dual_form(spec, word))
        if got != want:
            return f"dual of {'.'.join(word)} maps to {got}"
    return None


def _sl2_level_two(bundle):
    spec = bundle.spec
    top = nabla_n(spec, 2, dual_form(spec, ("w-", "w0", "w+")))
    return None if top.is_zero() else str(top)


def _qplane_onto_witness(bundle, r, s):
    """Closed-form preimage of x^r y^s under the connection."""
    pres = bundle.presentation
    ctx = pres.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    coeff = p ** (r + s) * q**-r * (p - 1) / (p ** (s + 1) - 1)
    longer = pres.word(*(("x",) * r + ("y",) * (s + 1)))
    return dual_form(bundle.spec, ("dy",)) * pres.monomial(longer, coeff=coeff)


def _integral_checks(bundle, opts, preset_name):
    spec = bundle.spec
    pres = bundle.presentation
    checks = []
    if preset_name == "sl2-3d":

        def annihilates():
            report = check_lambda_annihilates(spec, opts.max_len)
            if not report.ok:
                return report.first_failure()
            return True, f"{report.counts['coordinates']} window coordinates"

        checks.append((
            f"Haar functional kills the connection image up to length {opts.max_len}",
            annihilates,
        ))

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

        checks.append(("cokernel classes of the beta*gamma powers", classes))
    else:

        def onto():
            names = pres.generators
            for w in pres.normal_words(opts.max_len):
                r = sum(1 for g in w if names[g] == "x")
                s = len(w) - r
                f = _qplane_onto_witness(bundle, r, s)
                if nabla(spec, f) != pres.monomial(w):
                    return f"closed-form preimage misses x^{r} y^{s}"
            return None

        checks.append((
            f"closed-form preimages hit every monomial up to length {opts.max_len}",
            onto,
        ))

        def blocks():
            # a degree-d preimage uses words one letter longer, so the top
            # block of the window stays out of the sweep
            degrees = (
                (opts.degree,) if opts.degree is not None else range(opts.max_len)
            )
            for degree in degrees:
                _, cokernel = image_rank(spec, opts.max_len, degree=degree)
                if cokernel:
                    missed = ", ".join(str(m) for m in cokernel)
                    return f"degree {degree} block misses {missed}"
            return None

        checks.append(("truncated cokernel vanishes in every degree block", blocks))
    return checks


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


def _axiom_checks(bundle, opts):
    pres = bundle.presentation
    checks = []

    def confluent():
        report = check_local_confluence(pres, opts.max_degree)
        if report.ok:
            return True, f"{len(report.checks)} overlaps resolved"
        return f"{len(report.failures)} unresolved overlaps"

    checks.append((
        f"rewriting is locally confluent up to degree {opts.max_degree}",
        confluent,
    ))

    if bundle.spec is not None:

        checks.append((
            "differential squares to zero on the window",
            lambda: check_d_squared(bundle.spec, min(opts.max_len, 5)).first_failure(),
        ))
    return checks


def _calculus_controls(bundle, preset_name):
    checks = []
    if preset_name == "qplane":

        def flipped_vertical():
            patched = bundle.source.replace(
                "1: dx = -1 * dual(dy)", "1: dx = 1 * dual(dy)"
            )
            if patched == bundle.source:
                return "control patch found nothing to corrupt"
            report = check_ladder(load_calc(patched).ladder, 2)
            if report.ok:
                return "sign-flipped ladder vertical passed"
            bad = report.failures[0]
            return True, f"fails as expected at level {bad['level']}, {bad['word']}"

        checks.append(
            ("negative control: sign-flipped ladder vertical", flipped_vertical)
        )
    if preset_name == "sl2-3d":

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

        checks.append(("negative control: exponent-shifted d rule", shifted_d))
    return checks


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
                sphere.minus_coeffs[i]
            )[sphere.plus]
            got = nabla_coH(sphere, sphere.plus_dual(i))
            if got != want:
                return f"plus dual {i}: {got} versus {want}"
            want = (q * q) * tmd.partial(sphere.plus_coeffs[i])[sphere.minus]
            got = nabla_coH(sphere, sphere.minus_dual(i))
            if got != want:
                return f"minus dual {i}: {got} versus {want}"
        return None

    checks.append(("connection values on the six dual generators", dual_values))

    def crosscheck():
        for i in range(6):
            report = fhat_crosscheck(sphere, i)
            if not report.ok:
                return f"dual {i}: {report.first_failure()}"
        return None

    checks.append(("double route to the connection agrees on every dual", crosscheck))

    def top_dies():
        value = nabla_coH_1(sphere, sphere.top_dual())
        if any(value.plus_values + value.minus_values):
            return str(value)
        return None

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


def _matrix_units(n):
    return [MatElement.unit(n, r, s) for r in range(n) for s in range(n)]


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
            for unit in _matrix_units(basis.n):
                f = MatHomForm(basis, 2, {word: unit})
                direct = curvature_mn(basis, f)
                composed = nabla_hom(basis, nabla_chain(basis, 1, f))
                if direct or composed:
                    return f"word {word}, unit {unit}: {direct} versus {composed}"
        return None

    checks.append(("curvature vanishes by formula and by composition", curvature))

    def trace_kills():
        for l in range(basis.N):
            for unit in _matrix_units(basis.n):
                value = trace_integral(nabla_mn(basis, [(l, unit)]))
                if value:
                    return f"derivation {l}, unit {unit}: {value}"
        return None

    checks.append(("trace integral kills the connection image", trace_kills))

    def d_squared():
        for unit in _matrix_units(basis.n):
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


def checks_for(preset, command, opts):
    """Ordered (name, thunk) list for one command against one preset."""
    whole = {"sphere": _sphere_checks, "matrix": _matrix_checks}.get(preset.kind)
    if whole is not None:
        if command != "verify":
            raise ValueError(
                f"{preset.name} has no '{command}' slice; run "
                f"'{preset.kind} verify'"
            )
        return whole(preset.load(), opts)
    bundle = preset.load()
    name = preset.name
    if bundle.spec is None and command != "verify":
        raise ValueError(f"{name} has no calculus section for '{command}'")
    slices = {
        "invert-sigma": lambda: _freeness_checks(bundle, opts, name),
        "nabla": lambda: _nabla_checks(bundle, opts),
        "flatness": lambda: _flatness_checks(bundle, opts, name),
        "integral": lambda: _integral_checks(bundle, opts, name),
        "iso-check": lambda: _ladder_checks(bundle, opts),
        "density": lambda: _density_checks(bundle, opts),
        "axioms": lambda: _axiom_checks(bundle, opts),
        "controls": lambda: _calculus_controls(bundle, name),
    }
    if command == "verify":
        checks = []
        for piece in SLICES:
            if bundle.spec is None and piece != "axioms":
                continue
            checks.extend(slices[piece]())
        return checks
    return slices[command]()


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
