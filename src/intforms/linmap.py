"""Linear maps on a presented algebra and square matrices of them.

A map is a linear endomorphism evaluated per word: the identity, a
generator-image map, a grade scaling, the zero map, or one entry of a
matrix.  A MapMatrix is its value on words: value(word) is the n x n tuple
of the entries' images of the word.  Its kind records the triangular zero
pattern; the slots the kind forces to vanish hold one shared Zero, so
callers skip them at no cost.  Every other slot is a MatrixEntry view that
reads the value, except that diagonal and transpose_inverse put the maps
their diagonal is made of in the diagonal slots.

Only the two costly sources memoise per word: from_images (products of the
generators' image matrices) and transpose_inverse, the one triangular
substitution that builds the inverse pair of a free twisted
multi-derivation (bar inverts sigma^T, and hat inverts bar^T by the same
step).  transpose, diagonal and bullet, the product with entrywise
composition, read through to the matrices and maps they are built from.

Evaluation is defined on raw words, not only normal ones: a generator-image
map multiplies images along the word as written.  Whether that descends to
the algebra is exactly the well-definedness question, so the verification
passes compare raw-word evaluation of each relation's two sides.
"""
from __future__ import annotations

import functools
import operator

from .ncalg import AlgElement, GradingAbsent
from .sparse import add_scaled


def by_generator(presentation, table, what):
    """{generator index: value} of a table keyed by generator name or index.

    Elements, alone or in rows or matrices, are taken into the presentation;
    every generator needs an entry.
    """
    out = {}
    for key, value in table.items():
        idx = presentation.index(key) if isinstance(key, str) else key
        if not 0 <= idx < len(presentation.generators):
            raise ValueError(f"no generator with index {idx}")
        out[idx] = _elements(presentation, value)
    missing = [g for i, g in enumerate(presentation.generators) if i not in out]
    if missing:
        raise ValueError(f"{what} missing for {missing}")
    return out


def _elements(presentation, value):
    if isinstance(value, (tuple, list)):
        return tuple(_elements(presentation, v) for v in value)
    return presentation.element(value.terms if hasattr(value, "terms") else value)


class SizeMismatch(ValueError):
    pass


class NotTriangular(ValueError):
    pass


class DiagonalNotInvertible(ValueError):
    pass


class MapExpr:
    """Base: a linear endomorphism of the algebra, evaluated per word."""

    __slots__ = ("presentation", "_memo")

    def __init__(self, presentation):
        self.presentation = presentation
        self._memo = {}

    def on_word(self, word):
        cached = self._memo.get(word)
        if cached is None:
            cached = self._memo[word] = self._eval_word(word)
        return cached

    def apply(self, element):
        if element.presentation is not self.presentation:
            raise ValueError("element from a different presentation")
        terms = {}
        for word, coeff in element.terms.items():
            add_scaled(terms, self.on_word(word).terms, coeff)
        return AlgElement(self.presentation, terms)

    def _eval_word(self, word):
        raise NotImplementedError


class Zero(MapExpr):
    """The zero map: every value is the shared `presentation.zero`, so it
    keeps no memo."""

    __slots__ = ()

    def __init__(self, presentation):
        self.presentation = presentation

    def on_word(self, word):
        return self.presentation.zero

    def apply(self, element):
        if element.presentation is not self.presentation:
            raise ValueError("element from a different presentation")
        return self.presentation.zero

    def __repr__(self):
        return "0"


class Identity(MapExpr):
    __slots__ = ()

    def _eval_word(self, word):
        return self.presentation.monomial(word)

    def __repr__(self):
        return "id"


class AlgebraMap(MapExpr):
    """Endomorphism given by a complete generator-image table.

    A word maps to the product of the images of its letters; 1 maps to 1.
    """

    __slots__ = ("images", "name")

    def __init__(self, presentation, images, name=None):
        super().__init__(presentation)
        self.images = by_generator(presentation, images, "generator images")
        self.name = name

    def _eval_word(self, word):
        acc = self.presentation.one
        for letter in word:
            acc = acc * self.images[letter]
        return acc

    def __repr__(self):
        return self.name or f"<AlgebraMap {len(self.images)} gens>"


class GradeScale(MapExpr):
    """a -> base^(exponent * |a|) a on homogeneous a, extended linearly."""

    __slots__ = ("base", "exponent")

    def __init__(self, presentation, base, exponent):
        if presentation.grading is None:
            raise GradingAbsent("grade scaling needs a graded presentation")
        super().__init__(presentation)
        self.base = presentation.context.coerce(base)
        if not self.base:
            raise ValueError("grade scaling base must be invertible")
        self.exponent = operator.index(exponent)  # TypeError for floats

    def _eval_word(self, word):
        degree = sum(self.presentation.grading[g] for g in word)
        return self.presentation.monomial(word, self.base ** (self.exponent * degree))

    def __repr__(self):
        return f"<GradeScale {self.base}^({self.exponent}*deg)>"


class MatrixEntry(MapExpr):
    """Entry (i, j) of a MapMatrix, read from the matrix's value; no memo."""

    __slots__ = ("matrix", "i", "j")

    def __init__(self, matrix, i, j):
        self.presentation = matrix.presentation
        self.matrix = matrix
        self.i = i
        self.j = j

    def on_word(self, word):
        return self.matrix.on_word(word)[self.i][self.j]

    def __repr__(self):
        return f"<entry ({self.i},{self.j})>"


# kind -> (the entries below the diagonal vanish, those above it vanish)
KINDS = {
    "general": (False, False),
    "upper_triangular": (True, False),
    "lower_triangular": (False, True),
    "diagonal": (True, True),
}
_KIND_OF = {zeros: kind for kind, zeros in KINDS.items()}


class MapMatrix:
    """Square matrix of maps, given by its value on words.

    value(word) is the n x n tuple whose entry (i, j) is the (i, j) map
    applied to the word.  The kind flag records the structural zero pattern:
    every slot the kind forces to vanish holds one shared Zero, every other
    slot a MatrixEntry view of the value (or, see _with_diagonal, the map on
    the diagonal).
    """

    __slots__ = ("presentation", "n", "kind", "value", "entries")

    def __init__(self, presentation, n, kind, value):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.presentation = presentation
        self.n = n
        self.kind = kind
        self.value = value
        zero = Zero(presentation)
        self.entries = tuple(
            tuple(
                zero if i != j and KINDS[kind][i < j] else MatrixEntry(self, i, j)
                for j in range(n)
            )
            for i in range(n)
        )

    @classmethod
    def from_images(cls, presentation, images):
        """Algebra map A -> M_n(A), from {generator: n x n matrix of elements}.

        A word evaluates to the product of its letters' matrices, memoised.
        """
        table = by_generator(presentation, images, "generator image matrices")
        n = len(table[0])
        if any(len(m) != n or any(len(row) != n for row in m) for m in table.values()):
            raise SizeMismatch("generator image matrices must share one square size")
        kind = _kind_of(n, lambda i, j: all(m[i][j].is_zero() for m in table.values()))
        one = _diagonal(presentation, (presentation.one,) * n)

        def product(word):
            acc = one
            for letter in word:
                acc = _matrix_product(presentation, acc, table[letter])
            return acc

        return cls(presentation, n, kind, functools.cache(product))

    @classmethod
    def diagonal(cls, maps):
        """The diagonal matrix of maps, read through to them."""
        maps = tuple(maps)
        pres = maps[0].presentation
        if any(m.presentation is not pres for m in maps):
            raise ValueError("entry from a different presentation")

        def value(word):
            return _diagonal(pres, [m.on_word(word) for m in maps])

        return _with_diagonal(cls(pres, len(maps), "diagonal", value), maps)

    def entry(self, i, j):
        return self.entries[i][j]

    def on_word(self, word):
        return self.value(word)

    def apply(self, element):
        n = self.n
        out = [[{} for _ in range(n)] for _ in range(n)]
        for word, coeff in element.terms.items():
            m = self.on_word(word)
            for i in range(n):
                for j in range(n):
                    add_scaled(out[i][j], m[i][j].terms, coeff)
        pres = self.presentation
        return tuple(tuple(AlgElement(pres, terms) for terms in row) for row in out)

    def transpose(self):
        if self.kind == "diagonal":
            return self
        value = self.value

        def flipped(word):
            return tuple(zip(*value(word)))

        return MapMatrix(self.presentation, self.n, _transposed(self.kind), flipped)

    def __repr__(self):
        return f"<MapMatrix {self.n}x{self.n} {self.kind}>"


def _with_diagonal(mat, maps):
    """mat with the maps as its diagonal entries, in place of views.

    Each map is the diagonal of mat's value, and reading it directly does not
    build the whole value.
    """
    mat.entries = tuple(
        tuple(maps[i] if i == j else e for j, e in enumerate(row))
        for i, row in enumerate(mat.entries)
    )
    return mat


def _kind_of(n, is_zero):
    below = all(is_zero(i, j) for i in range(n) for j in range(i))
    above = all(is_zero(i, j) for i in range(n) for j in range(i + 1, n))
    return _KIND_OF[below, above]


def _transposed(kind):
    return _KIND_OF[KINDS[kind][::-1]]


def _diagonal(presentation, diag):
    zero = presentation.zero
    n = len(diag)
    return tuple(tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n))


def _matrix_product(presentation, a, b):
    n = len(a)
    return tuple(
        tuple(_total(presentation, (a[i][k] * b[k][j] for k in range(n))) for j in range(n))
        for i in range(n)
    )


def _total(presentation, parts):
    terms = {}
    for part in parts:
        add_scaled(terms, part.terms)
    return AlgElement(presentation, terms) if terms else presentation.zero


def identity_matrix(presentation, n):
    return MapMatrix.diagonal([Identity(presentation)] * n)


def bullet(amat, bmat):
    """Matrix product with entrywise composition: (A o B)_ij = sum_k A_ik . B_kj.

    Read through: each word takes B's value and applies A's entries to it.
    """
    if amat.n != bmat.n:
        raise SizeMismatch(f"sizes {amat.n} and {bmat.n}")
    if amat.presentation is not bmat.presentation:
        raise ValueError("matrices over different presentations")
    pres, n = amat.presentation, amat.n
    a, b = amat.entries, bmat.entries
    # slot (i, j) -> the k for which neither A_ik nor B_kj is Zero
    live = [[k for k in range(n) if not isinstance(a[i][k], Zero)] for i in range(n)]
    ks = [[[k for k in live[i] if not isinstance(b[k][j], Zero)] for j in range(n)] for i in range(n)]

    def value(word):
        bw = bmat.on_word(word)
        return tuple(
            tuple(_total(pres, (a[i][k].apply(bw[k][j]) for k in ks[i][j])) for j in range(n))
            for i in range(n)
        )

    return MapMatrix(pres, n, _kind_of(n, lambda i, j: not ks[i][j]), value)


def is_identity_on_words(mat, words):
    """None when mat is the identity on every word, else the first witness."""
    pres = mat.presentation
    for word in words:
        m = mat.on_word(word)
        target = pres.monomial(word)
        for i in range(mat.n):
            for j in range(mat.n):
                want = target if i == j else pres.zero
                if m[i][j] != want:
                    return (
                        f"entry ({i},{j}) on {pres.word_str(word)}: "
                        f"{m[i][j]} != {want}"
                    )
    return None


def _check_diag_inverses(sigma, diag_inverses):
    pres = sigma.presentation
    if len(diag_inverses) != sigma.n:
        raise SizeMismatch("one diagonal inverse per row is required")
    for i, inv in enumerate(diag_inverses):
        diag = sigma.entries[i][i]
        for g in range(len(pres.generators)):
            target = pres.monomial((g,))
            if inv.apply(diag.on_word((g,))) != target or diag.apply(inv.on_word((g,))) != target:
                raise DiagonalNotInvertible(
                    f"supplied inverse of diagonal entry {i} fails on "
                    f"generator {pres.generators[g]}"
                )


def _verify_inverse_pair(left, right):
    pres = left.presentation
    words = [()] + [(g,) for g in range(len(pres.generators))]
    for amat, bmat in ((left, right), (right, left)):
        witness = is_identity_on_words(bullet(amat, bmat), words)
        if witness is not None:
            raise RuntimeError(f"inverse identity fails at {witness}")


def transpose_inverse(m, diag_inverses):
    """Matrix x with x o m^T = m^T o x = id, for a triangular m; memoised.

    On each word, x_ii = inv_i and x_ij = -inv_i(sum_k m_ki(x_kj)), k from
    j to i with i left out: forward substitution when m^T is lower
    triangular, backward when it is upper.  The supplied inverses of the
    diagonal entries are verified by round trip on every generator, and
    they are x's diagonal entries.
    """
    if m.kind == "general":
        raise NotTriangular(f"matrix is {m.kind}")
    _check_diag_inverses(m, diag_inverses)
    pres = m.presentation
    n = m.n
    forward = m.kind != "lower_triangular"
    # the off-diagonal slots in substitution order, with the m_ki to sum over
    steps = []
    for gap in range(1, n):
        for lo in range(n - gap):
            hi = lo + gap
            i, j = (hi, lo) if forward else (lo, hi)
            ks = [
                (m.entries[k][i], k)
                for k in range(lo, hi + 1)
                if k != i and not isinstance(m.entries[k][i], Zero)
            ]
            if ks:
                steps.append((i, j, ks))

    def value(word):
        diag = [inv.on_word(word) for inv in diag_inverses]
        x = [list(row) for row in _diagonal(pres, diag)]
        for i, j, ks in steps:
            total = _total(pres, (mki.apply(x[k][j]) for mki, k in ks if x[k][j]))
            if total:
                x[i][j] = -diag_inverses[i].apply(total)
        return tuple(map(tuple, x))

    out = MapMatrix(pres, n, _transposed(m.kind), functools.cache(value))
    _with_diagonal(out, diag_inverses)
    _verify_inverse_pair(out, m.transpose())
    return out


def free_pair(sigma, diag_inverses):
    """(bar, hat): bar inverts sigma^T, hat inverts bar^T by the same step."""
    bar = transpose_inverse(sigma, diag_inverses)
    hat = transpose_inverse(bar, [sigma.entries[i][i] for i in range(sigma.n)])
    return bar, hat
