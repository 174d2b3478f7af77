"""Truncated exact linear algebra for the complex of integral forms.

Everything here works inside a finite window: hom-form coordinates carried
by normal words of bounded length.  The preset twists never lengthen words
(certified on the fly; violations raise with a witness), so the window is
an honest finite model.  On top of it: image ranks and cokernel
representatives of the connection, the Haar-type functional on quantum
SL(2), the annihilation law lambda(nabla(f)) = 0, connection integrals
with explicit preimages, and commutation of the ladder diagrams tying the
de Rham complex to the integral one.
"""

from __future__ import annotations

from . import dga
from .homconn import HomForm, dual_basis, nabla, nabla_n, twisted_partial
from .linalg import LinearSystem
from .ncalg import AlgElement, MIXED, mul_terms, zdegree
from .report import CheckReport
from .sparse import add_scaled

__all__ = [
    "FiltrationViolated",
    "LadderDiagram",
    "NoPreimageUpToBound",
    "Truncation",
    "check_ladder",
    "check_lambda_annihilates",
    "image_rank",
    "integral_class",
    "sl2_lambda",
]


class FiltrationViolated(ValueError):
    pass


class NoPreimageUpToBound(ValueError):
    pass


def _word_key(word):
    return (len(word), word)


def _pivot_key(word):
    # eliminate deglex-largest words first so cokernel classes get their
    # minimal representatives (the class of 1 shows up as 1, not as the
    # longest unhit word)
    return (-len(word),) + tuple(-g for g in word)


class Truncation:
    """Window of hom-form coordinates with words of length <= length_bound.

    degree restricts the codomain to one Z-degree block; columns whose
    image lands elsewhere are dropped, columns with images of mixed degree
    are a filtration violation.
    """

    def __init__(self, spec, length_bound, degree=None):
        self.spec = spec
        self.length_bound = length_bound
        self.degree = degree
        pres = spec.presentation
        self.words = pres.normal_words(length_bound)
        if degree is None:
            self.target_words = self.words
        else:
            self.target_words = pres.normal_words(length_bound, degree=degree)

    def columns(self):
        for i in range(self.spec.n):
            for w in self.words:
                yield (i, w)

    def _image(self, i, w):
        # nabla of the coordinate hom-form with value w at form i, for an
        # index word such as the window's own words in columns()
        pres = self.spec.presentation
        value = twisted_partial(self.spec, i, pres._monomial(w))
        for word in value.terms:
            if len(word) > self.length_bound:
                raise FiltrationViolated(
                    f"nabla escapes the window: coordinate "
                    f"({self.spec.form_names[i]}, "
                    f"{pres.word_str(w)}) produced "
                    f"{pres.word_str(word)}"
                )
        return value

    def _block_image(self, i, w):
        # _image, or None when the degree filter excludes the column
        value = self._image(i, w)
        if self.degree is None or not value:
            return value
        deg = zdegree(value)
        if deg is MIXED:
            raise FiltrationViolated(
                f"image of ({self.spec.form_names[i]}, "
                f"{self.spec.presentation.word_str(w)}) mixes Z-degrees"
            )
        return value if deg == self.degree else None


def image_rank(spec, length_bound, degree=None):
    """Row-reduce nabla on the window; returns (rank, cokernel).

    The cokernel is a tuple of monomials, one per window word whose class
    is not hit.  Representatives are exact, because the reduced row space
    has canonical pivot words independent of assembly order.
    """
    trunc = Truncation(spec, length_bound, degree)
    system = LinearSystem(key=_pivot_key)
    for i, w in trunc.columns():
        value = trunc._block_image(i, w)
        if value is None or not value:
            continue
        system.add(dict(value.terms))
    pivots = set(system.pivot_columns())
    pres = spec.presentation
    cokernel = tuple(
        pres.monomial(w) for w in trunc.target_words if w not in pivots
    )
    return system.rank(), cokernel


def sl2_lambda(a):
    """Haar-type functional on quantum SL(2), normalised to 1 at 1.

    Supported on the powers (beta*gamma)^l, where it evaluates to
    (-1)^l (q - q^-1)/(q^(l+1) - q^-(l+1)); every other normal word,
    in particular anything containing alpha or delta, is sent to 0.
    """
    pres = a.presentation
    names = set(pres.generators)
    if not {"alpha", "beta", "gamma", "delta"} <= names:
        raise ValueError("the functional lives on the quantum SL(2) preset")
    at = {g: pres.generators.index(g) for g in ("alpha", "beta", "gamma", "delta")}
    ctx = pres.context
    q = ctx.parameter("q")
    total = ctx.zero
    for word, coeff in a.terms.items():
        if at["alpha"] in word or at["delta"] in word:
            continue
        m = sum(1 for g in word if g == at["beta"])
        n = len(word) - m
        if m != n:
            continue
        value = (q - q**-1) / (q ** (m + 1) - q ** (-m - 1))
        if m % 2:
            value = -value
        total = total + coeff * value
    return total


def check_lambda_annihilates(spec, length_bound):
    """Certify sl2_lambda(nabla(xi_i * w)) = 0 on every window coordinate.

    Only failing coordinates become checks; counts carry the number of
    coordinates swept.
    """
    pres = spec.presentation
    report = CheckReport(coordinates=0)
    for i, xi in enumerate(dual_basis(spec, 1)):
        name = spec.form_names[spec.basis(1)[i][0]]
        for w in pres.normal_words(length_bound):
            value = sl2_lambda(nabla(spec, xi * pres._monomial(w)))
            report.counts["coordinates"] += 1
            if value:
                report.add(
                    f"lambda(nabla(dual({name})*{pres.word_str(w)}))", False, value
                )
    return report


def integral_class(spec, a, length_bound):
    """Solve nabla(f) = a - c*1 inside the window; return (c, f).

    For Z-degree-0 input the scalar c certifies the class of a in the
    cokernel as c times the class of 1; nonzero homogeneous degrees force
    c = 0 and the solve is a plain preimage search.  The solution is
    substituted back before being returned.
    """
    pres = spec.presentation
    ctx = pres.context
    if not a:
        return ctx.zero, HomForm(spec, 1, {})
    degree = zdegree(a)
    if degree is MIXED:
        raise ValueError("integral classes need a Z-homogeneous element")
    trunc = Truncation(spec, length_bound, degree)
    rows = {}
    for i, w in trunc.columns():
        value = trunc._block_image(i, w)
        if value is None:
            continue
        for word, coeff in value.terms.items():
            rows.setdefault(word, {})[("f", i, w)] = coeff
    if degree == 0:
        rows.setdefault((), {})[("c",)] = ctx.one
    system = LinearSystem()
    support = set(rows) | set(a.terms)
    for word in sorted(support, key=_word_key):
        system.add(rows.get(word, {}), rhs={"target": a.coefficient(word)})
    solution = system.solve("target")
    if solution is None:
        raise NoPreimageUpToBound(
            f"no preimage of {a} with coordinates of length <= {length_bound}"
        )
    c = solution.get(("c",), ctx.zero)
    values = {}
    for label, coeff in solution.items():
        if label == ("c",):
            continue
        _, i, w = label
        have = values.get((i,), pres.zero)
        values[(i,)] = have + pres.monomial(w, coeff=coeff)
    f = HomForm(spec, 1, values)
    if nabla(spec, f) + pres.scalar(c) != a:
        raise RuntimeError("solver returned an invalid preimage")
    return c, f


class LadderDiagram:
    """Vertical maps comparing the de Rham row to the integral row.

    verticals[k] sends each basis k-form word (the empty word at k = 0) to
    its image under the k-th vertical map: a hom-form of degree top-k
    below the top, an algebra element at the top.  Right-linearity does
    the rest.
    """

    def __init__(self, spec, verticals):
        top = spec.top_degree
        if len(verticals) != top + 1:
            raise ValueError(f"expected {top + 1} vertical maps")
        table = []
        for k, given in enumerate(verticals):
            expected = ((),) if k == 0 else spec.basis(k)
            images = {}
            for word, image in given.items():
                word = () if k == 0 and word == () else spec._coerce_form_word(word)
                images[word] = image
            if set(images) != set(expected):
                raise ValueError(f"vertical {k} must cover the degree-{k} basis")
            for word, image in images.items():
                if k == top:
                    if not isinstance(image, AlgElement):
                        raise ValueError("the top vertical lands in the algebra")
                elif not (isinstance(image, HomForm) and image.degree == top - k):
                    raise ValueError(
                        f"vertical {k} must send {spec.word_str(word)} to a "
                        f"degree-{top - k} hom-form"
                    )
            table.append(images)
        self.spec = spec
        self.verticals = table

    def apply(self, k, coords):
        """V_k on the form sum_b b*R_b of degree k >= 1, given by its right
        coordinates {basis word b: term dict R_b}; right-linearity makes it
        sum_b V_k(b)*R_b."""
        spec = self.spec
        pres = spec.presentation
        terms = {}
        for b, r in coords.items():
            if r:
                add_scaled(terms, (self.verticals[k][b] * AlgElement(pres, r)).terms)
        if k == spec.top_degree:
            return AlgElement(pres, terms)
        return HomForm._unchecked(spec, spec.top_degree - k, terms)


def _hom_vector(f):
    return {(word, u): c for word, value in f.terms.items()
            for u, c in value.terms.items()}


def _d_right_mul(spec, e, a, da):
    """Right coordinates of d(e*a) from those of d a, which they are at the
    empty source (k = 0).  For a basis k-word e the graded Leibniz rule
    gives d(e*a) = d(e)*a + (-1)^k e*da = (-1)^k (e*da - S_e*a), S_e being
    (-1)^(k+1) d e in right coordinates (`dga.signed_d`), and e*omega_i*R =
    sum_b r_b b*R over the scalars r_b of e.(i,).  Entries may be empty."""
    if not e:
        return da
    sign = spec.context.coerce((-1) ** len(e))
    out = {}
    for (i,), terms in da.items():
        for b, r in spec._reduce_word(e + (i,)).items():
            add_scaled(out.setdefault(b, {}), terms, sign * r)
    for b, terms in dga.signed_d(spec, e).items():
        add_scaled(out.setdefault(b, {}), mul_terms(spec.presentation, terms, a.terms, {}), -sign)
    return out


def check_ladder(diagram, length_bound):
    """Walk every square on the windowed basis and rank the verticals.

    A square at level k compares V_(k+1)(d omega) with the level-(top-k-1)
    connection applied to V_k(omega), omega running over basis-word times
    normal-word products.  The upper leg (`_d_right_mul`) takes d(e*a) in
    right coordinates by the graded Leibniz rule d(e*a) = (-1)^k (e*da -
    S_e*a), S_e the right coordinates of (-1)^(k+1) d e, with those of d a
    built once per window word.  Verticals are bijective on the window iff
    their matrix rank matches both dimensions.  The report counts the
    squares and holds one check per failing square (with its level, source,
    word, lhs and rhs) followed by one check per vertical (with its level,
    rank, domain and codomain).
    """
    spec = diagram.spec
    pres = spec.presentation
    top = spec.top_degree
    words = pres.normal_words(length_bound)
    report = CheckReport(squares=0)
    ranks = []
    # right coordinates of d a, one per window word, shared by every source
    d_words = {w: dga._right_terms(spec, dga.d(spec, pres._monomial(w))) for w in words}
    for k in range(top + 1):
        sources = ((),) if k == 0 else spec.basis(k)
        level = top - k - 1
        system = LinearSystem()
        for e in sources:
            for w in words:
                a = pres._monomial(w)
                # right-linearity: V_k(e*a) = V_k(e)*a, the square's lower
                # leg and the vertical's matrix row at once
                below = diagram.verticals[k][e] * a
                vector = dict(below.terms) if k == top else _hom_vector(below)
                for label in vector:
                    u = label if k == top else label[1]
                    if len(u) > length_bound:
                        raise FiltrationViolated(
                            f"vertical {k} escapes the window on "
                            f"{pres.word_str(w)}"
                        )
                if vector:
                    system.add(vector)
                if k == top:
                    continue
                lhs = diagram.apply(k + 1, _d_right_mul(spec, e, a, d_words[w]))
                rhs = nabla(spec, below) if level == 0 else nabla_n(spec, level, below)
                report.counts["squares"] += 1
                if lhs != rhs:
                    source = "1" if k == 0 else spec.word_str(e)
                    word = pres.word_str(w)
                    report.add(
                        f"level {k} at {source} * {word}",
                        False,
                        f"{lhs} versus {rhs}",
                        level=k,
                        source=source,
                        word=word,
                        lhs=lhs,
                        rhs=rhs,
                    )
        n_target = 1 if k == top else len(spec.basis(top - k))
        ranks.append((k, system.rank(), len(sources) * len(words), n_target * len(words)))
    for k, rank, domain, codomain in ranks:
        report.add(
            f"vertical at level {k} has rank {rank}",
            rank == domain == codomain,
            level=k,
            rank=rank,
            domain=domain,
            codomain=codomain,
        )
    return report
