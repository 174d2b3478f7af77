"""Linear maps on a presented algebra and square matrices of them.

Map expressions are small immutable trees (identity, generator-image maps,
grade scalings, compositions, sums, scalar multiples, matrix entries) that
evaluate on words with per-node memoization.  Matrices of maps carry a
triangularity kind; the module provides the entrywise-composition product
of such matrices and one triangular substitution, transpose_inverse, that
builds the inverse pair of a triangular matrix: bar inverts sigma^T, and
hat inverts bar^T by the same step.

Evaluation is defined on raw words, not only normal ones: a generator-image
map multiplies images along the word as written.  Whether that descends to
the algebra is exactly the well-definedness question, so the verification
passes compare raw-word evaluation of each relation's two sides.
"""
from __future__ import annotations

from .ncalg import AlgElement, GradingAbsent
from .sparse import add_scaled


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
    __slots__ = ()

    def _eval_word(self, word):
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
        table = {}
        for key, image in images.items():
            idx = presentation.index(key) if isinstance(key, str) else key
            if not 0 <= idx < len(presentation.generators):
                raise ValueError(f"no generator with index {idx}")
            table[idx] = presentation.element(
                image.terms if hasattr(image, "terms") else image
            )
        missing = [
            presentation.generators[i]
            for i in range(len(presentation.generators))
            if i not in table
        ]
        if missing:
            raise ValueError(f"generator images missing for {missing}")
        self.images = table
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
        self.exponent = int(exponent)

    def _eval_word(self, word):
        degree = sum(self.presentation.grading[g] for g in word)
        return self.presentation.monomial(word, self.base ** (self.exponent * degree))

    def __repr__(self):
        return f"<GradeScale {self.base}^({self.exponent}*deg)>"


class Compose(MapExpr):
    """outer after inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner):
        if outer.presentation is not inner.presentation:
            raise ValueError("composed maps live on different presentations")
        super().__init__(outer.presentation)
        self.outer = outer
        self.inner = inner

    def _eval_word(self, word):
        return self.outer.apply(self.inner.on_word(word))

    def __repr__(self):
        return f"({self.outer!r} . {self.inner!r})"


class Sum(MapExpr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("empty sum; use Zero")
        super().__init__(parts[0].presentation)
        for part in parts:
            if part.presentation is not self.presentation:
                raise ValueError("summed maps live on different presentations")
        self.parts = parts

    def _eval_word(self, word):
        terms = {}
        for part in self.parts:
            add_scaled(terms, part.on_word(word).terms)
        return AlgElement(self.presentation, terms)

    def __repr__(self):
        return "(" + " + ".join(repr(p) for p in self.parts) + ")"


class Scale(MapExpr):
    __slots__ = ("coeff", "inner")

    def __init__(self, coeff, inner):
        super().__init__(inner.presentation)
        self.coeff = self.presentation.context.coerce(coeff)
        self.inner = inner

    def _eval_word(self, word):
        return self.inner.on_word(word).scale(self.coeff)

    def __repr__(self):
        return f"({self.coeff})*{self.inner!r}"


class MatrixEntry(MapExpr):
    __slots__ = ("matrix", "i", "j")

    def __init__(self, matrix, i, j):
        super().__init__(matrix.presentation)
        self.matrix = matrix
        self.i = i
        self.j = j

    def _eval_word(self, word):
        return self.matrix.on_word(word)[self.i][self.j]

    def __repr__(self):
        return f"<entry ({self.i},{self.j})>"


KINDS = ("general", "upper_triangular", "lower_triangular", "diagonal")


class MapMatrix:
    """Square matrix of maps; optionally an algebra map A -> M_n(A).

    Built either from per-generator image matrices (multiplicative: a word
    evaluates to the product of its letters' matrices) or from explicit
    MapExpr entries.  The kind flag records the structural zero pattern.
    """

    __slots__ = ("presentation", "n", "entries", "kind", "_images", "_memo")

    def __init__(self, presentation, n, entries, kind, images):
        self.presentation = presentation
        self.n = n
        self.entries = entries
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self._images = images
        self._memo = {}

    @classmethod
    def from_images(cls, presentation, images):
        """images: {generator: n x n matrix of algebra elements}."""
        table = {}
        n = None
        for key, matrix in images.items():
            idx = presentation.index(key) if isinstance(key, str) else key
            rows = tuple(
                tuple(
                    presentation.element(e.terms if hasattr(e, "terms") else e)
                    for e in row
                )
                for row in matrix
            )
            if n is None:
                n = len(rows)
            if len(rows) != n or any(len(r) != n for r in rows):
                raise SizeMismatch("generator image matrices must share one square size")
            table[idx] = rows
        missing = [
            presentation.generators[i]
            for i in range(len(presentation.generators))
            if i not in table
        ]
        if missing:
            raise ValueError(f"generator image matrices missing for {missing}")
        kind = _kind_of(n, lambda i, j: all(m[i][j].is_zero() for m in table.values()))
        self = cls(presentation, n, None, kind, table)
        self.entries = tuple(
            tuple(MatrixEntry(self, i, j) for j in range(n)) for i in range(n)
        )
        return self

    @classmethod
    def from_entries(cls, presentation, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise SizeMismatch("matrix of maps must be square")
        for row in entries:
            for e in row:
                if e.presentation is not presentation:
                    raise ValueError("entry from a different presentation")
        kind = _kind_of(n, lambda i, j: isinstance(entries[i][j], Zero))
        return cls(presentation, n, entries, kind, None)

    def entry(self, i, j):
        return self.entries[i][j]

    def on_word(self, word):
        cached = self._memo.get(word)
        if cached is not None:
            return cached
        pres = self.presentation
        if self._images is not None:
            acc = _scalar_matrix(pres, self.n, pres.one)
            for letter in word:
                acc = _matrix_product(pres, acc, self._images[letter])
        else:
            acc = tuple(
                tuple(self.entries[i][j].on_word(word) for j in range(self.n))
                for i in range(self.n)
            )
        self._memo[word] = acc
        return acc

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
        flipped = {
            "upper_triangular": "lower_triangular",
            "lower_triangular": "upper_triangular",
        }
        out = MapMatrix.from_entries(
            self.presentation,
            tuple(tuple(self.entries[j][i] for j in range(self.n)) for i in range(self.n)),
        )
        out.kind = flipped.get(self.kind, self.kind)
        return out

    def __repr__(self):
        return f"<MapMatrix {self.n}x{self.n} {self.kind}>"


def _kind_of(n, is_zero):
    above = all(is_zero(i, j) for i in range(n) for j in range(i + 1, n))
    below = all(is_zero(i, j) for i in range(n) for j in range(i))
    if above and below:
        return "diagonal"
    if below:
        return "upper_triangular"
    if above:
        return "lower_triangular"
    return "general"


def _scalar_matrix(presentation, n, diag):
    zero = presentation.zero
    return tuple(tuple(diag if i == j else zero for j in range(n)) for i in range(n))


def _matrix_product(presentation, a, b):
    n = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(n)), presentation.zero)
            for j in range(n)
        )
        for i in range(n)
    )


def identity_matrix(presentation, n):
    entries = tuple(
        tuple(
            Identity(presentation) if i == j else Zero(presentation)
            for j in range(n)
        )
        for i in range(n)
    )
    return MapMatrix.from_entries(presentation, entries)


def bullet(amat, bmat):
    """Matrix product with entrywise composition: (A o B)_ij = sum_k A_ik . B_kj."""
    if amat.n != bmat.n:
        raise SizeMismatch(f"sizes {amat.n} and {bmat.n}")
    if amat.presentation is not bmat.presentation:
        raise ValueError("matrices over different presentations")
    pres = amat.presentation
    n = amat.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            parts = [
                Compose(amat.entries[i][k], bmat.entries[k][j])
                for k in range(n)
                if not isinstance(amat.entries[i][k], Zero)
                and not isinstance(bmat.entries[k][j], Zero)
            ]
            row.append(Zero(pres) if not parts else Sum(parts))
        rows.append(tuple(row))
    return MapMatrix.from_entries(pres, rows)


def is_identity_on_words(mat, words):
    pres = mat.presentation
    for word in words:
        m = mat.on_word(word)
        target = pres.monomial(word)
        for i in range(mat.n):
            for j in range(mat.n):
                want = target if i == j else pres.zero
                if m[i][j] != want:
                    return (word, i, j, m[i][j], want)
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
            word, i, j, got, want = witness
            raise RuntimeError(
                f"inverse identity fails at entry ({i},{j}) on "
                f"{pres.word_str(word)}: {got} != {want}"
            )


def transpose_inverse(m, diag_inverses):
    """Matrix x with x o m^T = m^T o x = id, for a triangular m.

    x_ij = -inv_i o sum_k m_ki o x_kj, k from j to i with i left out: forward
    substitution when m^T is lower triangular, backward when it is upper.
    The supplied inverses of the diagonal entries are verified by round trip
    on every generator.
    """
    if m.kind == "general":
        raise NotTriangular(f"matrix is {m.kind}")
    _check_diag_inverses(m, diag_inverses)
    pres = m.presentation
    n = m.n
    forward = m.kind != "lower_triangular"
    x = [[Zero(pres) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        x[i][i] = diag_inverses[i]
    for gap in range(1, n):
        for lo in range(n - gap):
            hi = lo + gap
            i, j = (hi, lo) if forward else (lo, hi)
            parts = [
                Compose(diag_inverses[i], Compose(m.entries[k][i], x[k][j]))
                for k in range(lo, hi + 1)
                if k != i
                and not isinstance(m.entries[k][i], Zero)
                and not isinstance(x[k][j], Zero)
            ]
            if parts:
                x[i][j] = Scale(-1, Sum(parts))
    out = MapMatrix.from_entries(pres, x)
    _verify_inverse_pair(out, m.transpose())
    return out


def free_pair(sigma, diag_inverses):
    """(bar, hat): bar inverts sigma^T, hat inverts bar^T by the same step."""
    bar = transpose_inverse(sigma, diag_inverses)
    hat = transpose_inverse(bar, [sigma.entries[i][i] for i in range(sigma.n)])
    return bar, hat
