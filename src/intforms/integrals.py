"""Truncated exact linear algebra for the complex of integral forms.

Everything here works inside a finite window: hom-form coordinates carried
by normal words of bounded length.  The preset twists never lengthen words
(certified on the fly; violations raise with a witness), so the window is
an honest finite model.  On top of it: image ranks and cokernel
representatives of the connection, the Haar-type functional on quantum
SL(2), the annihilation law lambda(nabla(f)) = 0, connection integrals
with explicit preimages, and commutation of the ladder diagrams tying the
de Rham complex to the integral one, each leg read from rows built once.
"""

from __future__ import annotations

from . import dga, homconn
from .homconn import HomForm, dual_basis, nabla, twisted_partial
from .linalg import LinearSystem
from .ncalg import AlgElement, MIXED, mul_terms, zdegree
from .report import CheckReport
from .sparse import add_scaled

__all__ = [
    "FiltrationViolated",
    "LadderDiagram",
    "NoPreimageUpToBound",
    "block_ranks",
    "check_ladder",
    "check_lambda_annihilates",
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


def _column_images(spec, length_bound):
    """{Z-degree: [(i, w, T_i(w))]} over the window's columns (i, w) whose
    image is nonzero, w a normal word of length <= length_bound, in column
    order (by form index, then by window word).

    T_i(w) is nabla of the coordinate hom-form with value w at form i.  An
    image with a word longer than the bound, or of mixed Z-degree, raises
    FiltrationViolated at its column.
    """
    pres = spec.presentation
    words = pres.normal_words(length_bound)
    blocks = {}
    for i in range(spec.n):
        for w in words:
            value = twisted_partial(spec, i, pres._monomial(w))
            for word in value.terms:
                if len(word) > length_bound:
                    raise FiltrationViolated(
                        f"nabla escapes the window: coordinate "
                        f"({spec.form_names[i]}, {pres.word_str(w)}) produced "
                        f"{pres.word_str(word)}"
                    )
            if not value:
                continue
            degree = zdegree(value)
            if degree is MIXED:
                raise FiltrationViolated(
                    f"image of ({spec.form_names[i]}, {pres.word_str(w)}) mixes Z-degrees"
                )
            blocks.setdefault(degree, []).append((i, w, value))
    return blocks


def block_ranks(spec, length_bound, degrees):
    """Row-reduce nabla on the window's degree blocks; yields (rank, cokernel)
    for each degree in turn.

    The cokernel is a tuple of monomials, one per window word of the
    block's degree whose class is not hit.  Representatives are exact,
    because the reduced row space has canonical pivot words independent of
    assembly order.  Every column's image is built once, before the first
    block (`_column_images`), so the filtration and mixed-degree errors come
    in column order whatever the degrees; a caller that stops early
    eliminates no further block.
    """
    pres = spec.presentation
    # first, so GradingAbsent comes before any image
    targets = [pres.normal_words(length_bound, degree=d) for d in degrees]
    blocks = _column_images(spec, length_bound)
    for degree, target in zip(degrees, targets):
        system = LinearSystem(key=_pivot_key)
        for _, _, value in blocks.get(degree, ()):
            system.add(dict(value.terms))
        pivots = set(system.pivot_columns())
        yield system.rank(), tuple(pres.monomial(w) for w in target if w not in pivots)


def sl2_lambda(a):
    """Haar-type functional on quantum SL(2), normalised to 1 at 1.

    Supported on the powers (beta*gamma)^l, where it evaluates to
    (-1)^l (q - q^-1)/(q^(l+1) - q^-(l+1)) = (-1)^l/[l+1]_q, with
    [l+1]_q = sum_j q^(l-2j) over j = 0..l, so each word costs one division
    of its coefficient; every other normal word, in particular anything
    containing alpha or delta, is sent to 0.
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
        m = word.count(at["beta"])
        if at["alpha"] in word or at["delta"] in word or 2 * m != len(word):
            continue
        qint = sum((q ** (m - 2 * j) for j in range(m + 1)), ctx.zero)
        total = total + (-1) ** m * coeff / qint
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
    rows = {}
    for i, w, value in _column_images(spec, length_bound).get(degree, ()):
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
    below the top, an algebra element at the top.  Right-linearity,
    V_k(e*a) = V_k(e)*a, extends it to all forms (`check_ladder`'s rows).
    """

    def __init__(self, spec, verticals):
        top = spec.top_degree
        if len(verticals) != top + 1:
            raise ValueError(f"expected {top + 1} vertical maps")
        table = []
        for k, given in enumerate(verticals):
            images = {spec._coerce_form_word(word): image for word, image in given.items()}
            if set(images) != set(spec.basis(k)):
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


def _leibniz(spec, k):
    """The d leg's tables at level k, from the connection's: for each basis
    k-word e, the lifts {i: [(b, (-1)^k r_b)]} over the scalars r_b of
    e.(i,) and the right coordinates {b: terms} of d e = (-1)^(k+1) S_e, for
    d(e*a) = d(e)*a + (-1)^k e*da with e*omega_i*R = sum_b r_b b*R; at
    k = 0, e = 1 and d(1*a) = da."""
    lift, pair = homconn._level(spec, k)
    sign = spec.context.coerce((-1) ** k)
    tables = {e: ({i: [] for i in range(spec.n)}, {}) for e in spec.basis(k)}
    for b, triples in lift.items():
        for e, i, r in triples:
            tables[e][0][i].append((b, sign * r))
    for b, pairs in pair.items():
        for e, terms in pairs:
            tables[e][1][b] = {u: -sign * s for u, s in terms.items()}
    return tables


def _d_leg(pres, tables, a, da):
    """Right coordinates {b: terms} of d(e*a) from those of d a, for a term
    dict a and the Leibniz tables of e; entries may be empty."""
    lifts, de = tables
    out = {}
    for (i,), terms in da.items():
        for b, r in lifts[i]:
            add_scaled(out.setdefault(b, {}), terms, r)
    for b, terms in de.items():
        mul_terms(pres, terms, a, out.setdefault(b, {}))
    return out


def _flat(values):
    """{(word, u): c} from {word: {u: c}}, term dicts."""
    return {(word, u): c for word, terms in values.items() for u, c in terms.items()}


def check_ladder(diagram, length_bound):
    """Walk every square on the windowed basis and rank the verticals.

    A square at level k compares V_(k+1)(d omega) with the level-(top-k-1)
    connection applied to V_k(omega), omega = e*u running over basis words
    e times normal words u.  The row V_k(e)*u, built once as {basis word:
    term dict} by the right action on term dicts (`homconn._right_act`), is
    the vertical's matrix row, flattened to (word, u) columns, the lower
    leg's input at square (k, e, u) and, scalars being central, a summand of
    level k-1's upper legs sum R_b[u] V_k(b)*u, R_b the right coordinates
    of d omega.  Both legs read tables built once per level: the
    connection's, walked over the row's support, and the Leibniz lifts
    (`_leibniz`).  A failing square's witness is its two legs, as computed.
    Verticals are bijective on the window iff their matrix rank matches both
    dimensions.  The report counts the squares and holds one check per
    failing square (with its level, source, word, lhs and rhs), then one per
    vertical (with its level, rank, domain and codomain).
    """
    spec = diagram.spec
    pres = spec.presentation
    one = spec.context.one
    top = spec.top_degree
    words = pres.normal_words(length_bound)
    report = CheckReport(squares=0)
    ranks = []
    # right coordinates of d a, one per window word, shared by every source
    d_words = {w: dga._right_terms(spec, dga.d(spec, pres._monomial(w))) for w in words}
    rows = [{} for _ in range(top + 1)]  # V_k(e)*u by word, built on demand

    def row(k, e, u):
        values = rows[k].get((e, u))
        if values is None:
            image = diagram.verticals[k][e]
            if k == top:
                values = {(): mul_terms(pres, image.terms, {u: one}, {})}
            else:
                values = homconn._right_act(spec, image.terms, top - k, {u: one})
            rows[k][e, u] = values
        return values

    for k in range(top + 1):
        sources = spec.basis(k)
        level = top - k - 1
        leibniz = _leibniz(spec, k) if k < top else {}
        system = LinearSystem()
        for e in sources:
            for w in words:
                values = row(k, e, w)
                del rows[k][e, w]  # its own square is its last reader
                vector = _flat(values)
                if any(len(u) > length_bound for _, u in vector):
                    raise FiltrationViolated(
                        f"vertical {k} escapes the window on {pres.word_str(w)}"
                    )
                system.add(vector)
                if k == top:
                    continue
                lhs = {}
                domega = _d_leg(pres, leibniz[e], {w: one}, d_words[w])
                for b, r in domega.items():
                    for u, c in r.items():
                        for word, terms in row(k + 1, b, u).items():
                            add_scaled(lhs.setdefault(word, {}), terms, c)
                rhs = homconn._nabla_level(spec, level, values)
                report.counts["squares"] += 1
                # the legs agree when their nonzero entries do
                if lhs != rhs and _flat(lhs) != _flat(rhs):
                    source = spec.word_str(e)
                    word = pres.word_str(w)
                    lhs = homconn._value(spec, level, lhs)
                    rhs = homconn._value(spec, level, rhs)
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
        codomain = len(spec.basis(top - k)) * len(words)
        ranks.append((k, system.rank(), len(sources) * len(words), codomain))
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
