"""Presentation files and the preset registry.

A presentation file is a sectioned text format describing one algebra and,
optionally, its calculus and chain ladder.  The builder turns the parsed
sections into the same objects the library exposes programmatically; the
four shipped presets are loaded through exactly this path so the file
format stays honest.

The twist sigma of a [derivation] is an algebra map A -> M_n(A) given by
generator images (`sigma images:`), and the inverses of its diagonal
entries are one diagonal algebra map given the same way, a `sigma inverse
i:` line per entry.  On a graded algebra, `sigma grades: l_1, ..., l_n`
stands for sigma_ii(g) = l_i^deg(g) * g and its inverses
g -> l_i^(-deg g) * g.  Both are linmap.MapMatrix.from_images.
"""

from __future__ import annotations

from importlib import resources

# the builtin SHA-256: importing hashlib would load OpenSSL for one digest
try:
    from _sha2 import sha256
except ImportError:  # Python 3.10 and 3.11
    from _sha256 import sha256

from .descent import SphereData
from .dga import CalculusSpec
from .homconn import HomForm
from .integrals import LadderDiagram
from .linmap import MapMatrix
from .matrixcalc import DerBasis
from .multider import TwistedMultiDerivation
from .ncalg import HopfData, Presentation
from .parser import (
    ParseError,
    parse_element,
    parse_form_terms,
    parse_ladder_rhs,
    parse_presentation_file,
    parse_scalar,
    parse_tensor,
)
from .scalars import ScalarContext
from .sparse import add_scaled

__all__ = [
    "CalcBundle",
    "Preset",
    "REGISTRY",
    "get_preset",
    "load_calc",
    "resolve_target",
]

class CalcBundle:
    """Everything one presentation file defines, ready to run."""

    def __init__(self, presentation, tmd, spec, ladder, source):
        self.presentation = presentation
        self.tmd = tmd
        self.spec = spec
        self.ladder = ladder
        self.source = source

    def __repr__(self):
        parts = ["presentation"]
        if self.tmd is not None:
            parts.append("derivation")
        if self.spec is not None:
            parts.append("calculus")
        if self.ladder is not None:
            parts.append("ladder")
        return f"<CalcBundle {' + '.join(parts)}>"


def _cut(text, sep):
    # text.partition(sep) with the part after sep blanked out up to its
    # place in the line, so that the parser's columns are the line's
    head, found, tail = text.partition(sep)
    return head, found, " " * len(head + found) + tail


def _pieces(text, sep=","):
    # the pieces of text between seps, each blanked out up to its place
    start = 0
    for piece in text.split(sep):
        yield " " * start + piece
        start += len(piece) + len(sep)


def _split_assign(rest, lineno, what):
    # the stripped left side and the blanked-out right side
    lhs, eq, rhs = _cut(rest, "=")
    if not eq:
        raise ParseError(f"{what} needs 'lhs = rhs'", lineno, 1)
    return lhs.strip(), rhs


def _generator(pres, name, lineno):
    # the generator a directive names, which 'generators:' must list
    if name not in pres.generators:
        raise ParseError(f"{name!r} is not in 'generators:'", lineno, 1)
    return name


def _names_list(text):
    return tuple(piece.strip() for piece in text.split(",") if piece.strip())


def _each_key_once(sections):
    # a directive's key is its text up to '=', or up to ':' without one
    # ("partial: y", "1: dx", "top"); a repeat would silently replace the
    # first.  Relations are not keyed: the confluence check judges them.
    for directives in sections.values():
        seen = {}
        for lineno, text in directives:
            if text.partition(":")[0].strip() == "relation":
                continue
            head = text.partition("=" if "=" in text else ":")[0]
            key = "".join(head.split())
            if key in seen:
                raise ParseError(f"'{head.strip()}' repeats line {seen[key]}", lineno, 1)
            seen[key] = lineno


def _build_presentation(sections):
    params = ()
    for lineno, text in sections["scalars"]:
        key, sep, rest = _cut(text, ":")
        if key.strip() != "parameters" or not sep:
            raise ParseError("expected 'parameters: name, ...'", lineno, 1)
        params = _names_list(rest)
    ctx = ScalarContext(params)
    generators = None
    relations = []
    for lineno, text in sections["algebra"]:
        key, sep, rest = _cut(text, ":")
        key = key.strip()
        if not sep:
            raise ParseError(
                "algebra directives are 'generators:' or 'relation:'", lineno, 1
            )
        if key == "generators":
            generators = _names_list(rest)
        elif key == "relation":
            _, rhs = _split_assign(rest, lineno, "a relation")
            relations.append((lineno, _cut(rest, "=")[0], rhs))
        else:
            raise ParseError(f"unknown algebra directive '{key}'", lineno, 1)
    if generators is None:
        raise ParseError("missing 'generators:' directive", 1, 1)
    # relations are parsed against the free algebra so nothing rewrites yet
    free = Presentation(ctx, generators=generators, rules=[])
    rules = []
    for lineno, lhs_text, rhs_text in relations:
        lhs = parse_element(free, lhs_text, line=lineno)
        if len(lhs.terms) != 1:
            raise ParseError("relation left side must be a single word", lineno, 1)
        ((word, coeff),) = lhs.terms.items()
        if coeff != ctx.one or not word:
            raise ParseError("relation left side must be a bare word", lineno, 1)
        rhs = parse_element(free, rhs_text, line=lineno)
        rules.append((word, dict(rhs.terms)))
    grading = None
    if sections["grading"]:
        grading = {}
        for lineno, text in sections["grading"]:
            name, value = _split_assign(text, lineno, "a grading line")
            name = _generator(free, name, lineno)
            try:
                grading[name] = int(value)
            except ValueError:
                raise ParseError("grading degree must be an integer", lineno, 1) from None
        for name in generators:
            if name not in grading:
                raise ParseError(f"{name!r} has no degree", sections["grading"][0][0], 1)
    hopf = _build_hopf(sections["hopf"], free) if sections["hopf"] else None
    return Presentation(
        ctx, generators=generators, rules=rules, grading=grading, hopf=hopf
    )


def _build_hopf(directives, free):
    ctx = free.context
    coproduct, counit, antipode, antipode_inv = {}, {}, {}, {}
    for lineno, text in directives:
        key, sep, rest = _cut(text, ":")
        key = key.strip()
        if not sep:
            raise ParseError("hopf directives are 'map: generator = value'", lineno, 1)
        name, value = _split_assign(rest, lineno, "a hopf directive")
        name = _generator(free, name, lineno)
        if key == "coproduct":
            tensor = parse_tensor(free, value, line=lineno)
            coproduct[name] = [
                (left, right, c) for (left, right), c in sorted(tensor.terms.items())
            ]
        elif key == "counit":
            counit[name] = parse_scalar(ctx, value, line=lineno)
        elif key == "antipode":
            antipode[name] = dict(parse_element(free, value, line=lineno).terms)
        elif key == "antipode inverse":
            antipode_inv[name] = dict(parse_element(free, value, line=lineno).terms)
        else:
            raise ParseError(f"unknown hopf directive '{key}'", lineno, 1)
    return HopfData(
        coproduct=coproduct,
        counit=counit,
        antipode=antipode,
        antipode_inv=antipode_inv,
    )


def _parse_matrix(pres, text, lineno):
    if not (text.lstrip().startswith("[") and text.endswith("]")):
        raise ParseError("matrix literals look like [a, b; c, d]", lineno, 1)
    return [
        [parse_element(pres, piece, line=lineno) for piece in _pieces(row)]
        for row in _pieces(text.replace("[", " ", 1)[:-1], ";")
    ]


def _build_tmd(sections, pres):
    ctx = pres.context
    rows = {}
    images = {}
    grades = None
    inverse_maps = {}
    for lineno, text in sections["derivation"]:
        key, sep, rest = _cut(text, ":")
        key = key.strip()
        if not sep:
            raise ParseError("derivation directives need ':'", lineno, 1)
        if key == "partial":
            name, value = _split_assign(rest, lineno, "a partial row")
            rows[_generator(pres, name, lineno)] = tuple(
                parse_element(pres, piece, line=lineno) for piece in _pieces(value)
            )
        elif key == "sigma images":
            name, value = _split_assign(rest, lineno, "a sigma image")
            images[_generator(pres, name, lineno)] = _parse_matrix(pres, value, lineno)
        elif key == "sigma grades":
            grades = lineno, tuple(parse_scalar(ctx, piece, line=lineno) for piece in _pieces(rest))
        elif key.startswith("sigma inverse"):
            try:
                idx = int(key[len("sigma inverse"):])
            except ValueError:
                raise ParseError(
                    "expected 'sigma inverse <index>: gen -> image, ...'", lineno, 1
                ) from None
            maps = {}
            for piece in _pieces(rest):
                gen, arrow, image = _cut(piece, "->")
                if not arrow:
                    raise ParseError("inverse entries are 'generator -> image'", lineno, 1)
                maps[_generator(pres, gen.strip(), lineno)] = parse_element(pres, image, line=lineno)
            for name in pres.generators:
                if name not in maps:
                    raise ParseError(f"{name!r} has no image under '{key}'", lineno, 1)
            inverse_maps[idx] = maps
        else:
            raise ParseError(f"unknown derivation directive '{key}'", lineno, 1)
    if not rows:
        raise ParseError("derivation section lacks partial rows", 1, 1)
    n = len(next(iter(rows.values())))
    if grades is not None:
        if images or inverse_maps:
            raise ParseError("sigma grades replace sigma images and inverses", grades[0], 1)
        images, inverse = _graded_sigma(pres, n, *grades)
    elif set(inverse_maps) != set(range(1, n + 1)):
        raise ParseError(f"need 'sigma inverse 1..{n}' directives", 1, 1)
    else:
        inverse = _diagonal_images(pres, [inverse_maps[i + 1] for i in range(n)])
    sigma = MapMatrix.from_images(pres, images)
    return TwistedMultiDerivation(pres, rows, sigma, MapMatrix.from_images(pres, inverse))


def _diagonal_images(pres, diags):
    # {generator: the diagonal matrix whose entry i is diags[i][generator]}
    zero, n = pres.zero, len(diags)
    return {g: [[d[g] if i == j else zero for j in range(n)] for i, d in enumerate(diags)]
            for g in pres.generators}


def _graded_sigma(pres, n, lineno, grades):
    """The image matrices of sigma and of its diagonal inverse that
    `sigma grades` stands for."""
    if len(grades) != n:
        raise ParseError(f"expected {n} sigma grades", lineno, 1)
    if pres.grading is None:
        raise ParseError("sigma grades need a [grading] section", lineno, 1)
    if not all(grades):
        raise ParseError("sigma grades must be invertible", lineno, 1)
    gens = [(g, pres.gen(g), deg) for g, deg in zip(pres.generators, pres.grading)]
    return tuple(
        _diagonal_images(pres, [{g: x.scale(lam ** (sign * deg)) for g, x, deg in gens}
                                for lam in grades])
        for sign in (1, -1)
    )


def _scalar_form_terms(pres, names, text, lineno):
    out = {}
    for coeff, word in parse_form_terms(pres, names, text, line=lineno):
        scalar = coeff.coefficient(())
        if pres.scalar(scalar) != coeff:
            raise ParseError("form rule coefficients must be scalars", lineno, 1)
        add_scaled(out, {word: scalar})
    return out


def _build_calculus(sections, tmd):
    pres = tmd.presentation
    names = None
    order = None
    bases = {}
    rules = {}
    for lineno, text in sections["forms"]:
        key, sep, rest = _cut(text, ":")
        key = key.strip()
        if not sep:
            raise ParseError("forms directives need ':'", lineno, 1)
        if key == "names":
            names = _names_list(rest)
        elif key == "order":
            order = _names_list(rest)
        elif key == "rule":
            if names is None:
                raise ParseError("'names:' must precede form rules", lineno, 1)
            lhs, rhs = _split_assign(rest, lineno, "a form rule")
            pair = tuple(piece.strip() for piece in lhs.split("."))
            if len(pair) != 2:
                raise ParseError("form rules rewrite two-letter words", lineno, 1)
            rules[pair] = _scalar_form_terms(pres, names, rhs, lineno)
        elif key.startswith("basis"):
            try:
                degree = int(key[len("basis"):])
            except ValueError:
                raise ParseError("expected 'basis <degree>: words'", lineno, 1) from None
            bases[degree] = [
                tuple(w.strip() for w in piece.strip().split("."))
                for piece in rest.split(",")
            ]
        else:
            raise ParseError(f"unknown forms directive '{key}'", lineno, 1)
    if names is None:
        raise ParseError("a calculus needs form 'names:' and 'top:'", 1, 1)
    top = None
    d_rules = {}
    for lineno, text in sections["calculus"]:
        if text.lstrip().startswith("d "):
            head, rhs = _split_assign(text, lineno, "a d rule")
            name = head[2:].strip()
            if name not in names:
                raise ParseError(f"'{head}': {name!r} is not in 'names:'", lineno, 1)
            value = d_rules[name] = {}
            for coeff, word in parse_form_terms(pres, names, rhs, line=lineno):
                add_scaled(value, {word: coeff})
        else:
            key, sep, rest = _cut(text, ":")
            if key.strip() == "top" and sep:
                try:
                    top = int(rest.strip())
                except ValueError:
                    raise ParseError("'top:' takes an integer", lineno, 1) from None
            else:
                raise ParseError(
                    "calculus directives are 'top: <n>' or 'd <form> = ...'", lineno, 1
                )
    if top is None:
        raise ParseError("a calculus needs form 'names:' and 'top:'", 1, 1)
    return CalculusSpec(
        tmd,
        form_names=names,
        rules=rules,
        d_on_forms=d_rules or None,
        top_degree=top,
        form_order=order,
        bases=bases or None,
    )


def _build_ladder(sections, spec):
    pres = spec.presentation
    ctx = pres.context
    top = spec.top_degree
    verticals = [dict() for _ in range(top + 1)]
    for lineno, text in sections["ladder"]:
        key, sep, rest = _cut(text, ":")
        if not sep:
            raise ParseError("ladder directives are 'k: source = image'", lineno, 1)
        try:
            k = int(key.strip())
        except ValueError:
            raise ParseError("ladder level must be an integer", lineno, 1) from None
        if not 0 <= k <= top:
            raise ParseError(f"ladder level {k} outside 0..{top}", lineno, 1)
        lhs, rhs = _split_assign(rest, lineno, "a ladder directive")
        source = () if lhs == "1" else tuple(piece.strip() for piece in lhs.split("."))
        if k == top:
            image = parse_element(pres, rhs, line=lineno)
        else:
            coeff, word = parse_ladder_rhs(ctx, spec.form_names, rhs, line=lineno)
            image = HomForm(spec, top - k, {word: coeff})
        verticals[k][source] = image
    return LadderDiagram(spec, verticals)


def load_calc(text):
    """Build the full bundle a presentation file describes."""
    sections = parse_presentation_file(text)
    _each_key_once(sections)
    presentation = _build_presentation(sections)
    tmd = _build_tmd(sections, presentation) if sections["derivation"] else None
    spec = None
    if tmd is not None and (sections["forms"] or sections["calculus"]):
        spec = _build_calculus(sections, tmd)
    ladder = None
    if spec is not None and sections["ladder"]:
        ladder = _build_ladder(sections, spec)
    return CalcBundle(presentation, tmd, spec, ladder, text)


# -- registry ------------------------------------------------------------------


class Preset:
    """Named, hashed input plus a loader for its objects.

    The kind picks the preset's checks from `suites.SUITES`; a file target
    is kind "calculus" whatever its name, so it runs the generic checks.
    """

    def __init__(self, name, description, kind, loader, source):
        self.name = name
        self.description = description
        self.kind = kind
        self._loader = loader
        self.source = source
        self._cache = None

    def load(self):
        if self._cache is None:
            self._cache = self._loader(self.source)
        return self._cache

    @property
    def digest(self):
        payload = f"{self.name}\n{self.source}".encode()
        return sha256(payload).hexdigest()

    def __repr__(self):
        return f"<Preset {self.name}>"


def _data_text(filename):
    return resources.files("intforms").joinpath("data", filename).read_text()


def _load_sphere(source):
    return SphereData(load_calc(source).spec)


def _load_matrix(source):
    del source
    return DerBasis.pauli()


_MATRIX_SOURCE = (
    "matrix algebra, n = 2\n"
    "E1 = [[0, 1], [1, 0]]\n"
    "E2 = [[0, -i], [i, 0]]\n"
    "E3 = [[1, 0], [0, -1]]\n"
    "derivations a -> i*[E_l, a]\n"
)


def _registry():
    qplane_text = _data_text("qplane.calc")
    sl2_text = _data_text("sl2_3d.calc")
    presets = (
        Preset(
            "qplane",
            "quantum plane with the two-parameter covariant calculus",
            "qplane",
            load_calc,
            qplane_text,
        ),
        Preset(
            "sl2-3d",
            "quantum SL(2) with the left-covariant three-dimensional calculus",
            "sl2-3d",
            load_calc,
            sl2_text,
        ),
        Preset(
            "podles-sphere",
            "standard quantum sphere as the degree-0 subalgebra of quantum SL(2)",
            "sphere",
            _load_sphere,
            sl2_text,
        ),
        Preset(
            "matrix-m2",
            "two-by-two matrix algebra with its commutator derivation calculus",
            "matrix",
            _load_matrix,
            _MATRIX_SOURCE,
        ),
    )
    return {p.name: p for p in presets}


REGISTRY = _registry()


def get_preset(name):
    """Exact registry name, or a unique prefix of one."""
    if name in REGISTRY:
        return REGISTRY[name]
    matches = [p for key, p in REGISTRY.items() if key.startswith(name)]
    if len(matches) == 1:
        return matches[0]
    hint = ", ".join(REGISTRY)
    raise KeyError(f"unknown preset '{name}' (have: {hint})")


def resolve_target(target):
    """`preset:NAME` or a path to a presentation file."""
    if target.startswith("preset:"):
        return get_preset(target[len("preset:"):])
    with open(target, encoding="utf-8") as handle:
        text = handle.read()
    name = target.rsplit("/", 1)[-1]
    if name.endswith(".calc"):
        name = name[: -len(".calc")]
    return Preset(name, f"presentation file {target}", "calculus", load_calc, text)
