"""Square matrices of linear maps on a presented algebra.

A MapMatrix is the one map type here: an n x n matrix of linear
endomorphisms, given by its value on words.  on_word(word) is the n x n
tuple of the entries' images of the word, memoised per word, and
entry(i, j, a), the (i, j) map applied to an element, is the one way to
apply a map.  Its kind records the triangular zero pattern, and an entry
in a slot the kind forces to vanish is presentation.zero without a look at
the value.

Every map a free twisted multi-derivation needs is fixed by its values on
the generators, and from_images is the constructor for those: an algebra
map A -> M_n(A) in which a word evaluates to the product of its letters'
image matrices, the products skipping the slots the kind forces to vanish.
The twist sigma is one, and so are the inverses of its diagonal entries,
given together as one diagonal matrix.  transpose_inverse is the one
triangular substitution that builds the inverse pair: bar inverts sigma^T
with the supplied inverse's diagonal, and hat inverts bar^T with sigma's
own diagonal, whose memoised values it shares.  transpose and bullet, the
product with entrywise composition, read through the on_word of the
matrices they are built from.

Evaluation is defined on raw words, not only normal ones: a generator-image
map multiplies images along the word as written.  Whether that descends to
the algebra is exactly the well-definedness question, so the verification
passes compare raw-word evaluation of each relation's two sides.
"""
from __future__ import annotations

import functools

from .ncalg import AlgElement
from .sparse import add_scaled


def by_generator(presentation, table, what):
    """{generator index: value} of a table keyed by generator name.

    Elements, alone or in rows or matrices, are taken into the presentation;
    every generator needs an entry.
    """
    out = {presentation.index(name): _elements(presentation, v) for name, v in table.items()}
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
    """Base of MapMatrix: a value per word and its one memo.  It stays a
    class of its own because perfbench/spans.py counts calls of
    `MapExpr.on_word` as `linmap.on_word_calls`."""

    __slots__ = ("presentation", "_value", "_memo")

    def __init__(self, presentation, value):
        self.presentation = presentation
        self._value = value
        self._memo = {}

    def on_word(self, word):
        cached = self._memo.get(word)
        if cached is None:
            cached = self._memo[word] = self._value(word)
        return cached


# kind -> (the entries below the diagonal vanish, those above it vanish)
KINDS = {
    "general": (False, False),
    "upper_triangular": (True, False),
    "lower_triangular": (False, True),
    "diagonal": (True, True),
}
_KIND_OF = {zeros: kind for kind, zeros in KINDS.items()}


class MapMatrix(MapExpr):
    """Square matrix of maps, given by its value on words.

    value(word) is the n x n tuple whose entry (i, j) is the (i, j) map
    applied to the word; on_word memoises it.  The kind records the
    structural zero pattern.
    """

    __slots__ = ("n", "kind")

    def __init__(self, presentation, n, kind, value):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        super().__init__(presentation, value)
        self.n = n
        self.kind = kind

    @classmethod
    def from_images(cls, presentation, images):
        """Algebra map A -> M_n(A), from {generator: n x n matrix of elements}.

        A word evaluates to the product of its letters' matrices, memoised
        with every prefix: a new word extends its longest memoised prefix,
        one matrix product per letter the memo lacks.
        """
        table = by_generator(presentation, images, "generator image matrices")
        n = len(table[0])
        if any(len(m) != n or any(len(row) != n for row in m) for m in table.values()):
            raise SizeMismatch("generator image matrices must share one square size")
        kind = _kind_of(n, lambda i, j: all(m[i][j].is_zero() for m in table.values()))
        times = functools.partial(_matrix_product, presentation, _live(n, kind, kind))
        memo = {(): _diagonal(presentation, (presentation.one,) * n)}
        out = cls(presentation, n, kind, functools.partial(_extend_prefix, memo, table, times))
        out._memo = memo
        return out

    def entry(self, i, j, a):
        """The (i, j) map applied to the element a."""
        pres = self.presentation
        if a.presentation is not pres:
            raise ValueError("element from a different presentation")
        if _vanishes(self.kind, i, j):
            return pres.zero
        terms = {}
        for word, coeff in a.terms.items():
            add_scaled(terms, self.on_word(word)[i][j].terms, coeff)
        return AlgElement(pres, terms)

    def transpose(self):
        if self.kind == "diagonal":
            return self
        kind = _transposed(self.kind)
        return MapMatrix(self.presentation, self.n, kind, lambda w: tuple(zip(*self.on_word(w))))

    def __repr__(self):
        return f"<MapMatrix {self.n}x{self.n} {self.kind}>"


def _extend_prefix(memo, images, times, word):
    """Value of word under a multiplicative map, memoising every prefix.

    memo holds the empty word and, with each word, all its prefixes.  The
    loop starts from the longest memoised prefix (the word itself when it
    is memoised) and multiplies one letter's image on the right at a time,
    so the values are those of a fold from the empty word, and a long word
    costs no stack depth.
    """
    end = len(word)
    while word[:end] not in memo:
        end -= 1
    value = memo[word[:end]]
    for pos in range(end, len(word)):
        value = times(value, images[word[pos]])
        memo[word[: pos + 1]] = value
    return value


def _vanishes(kind, i, j):
    """Whether the kind forces entry (i, j) to vanish."""
    return i != j and KINDS[kind][i < j]


def _live(n, akind, bkind):
    """Slot (i, j) of a product A B -> the k for which the kinds force
    neither A_ik nor B_kj to vanish; an empty list is a vanishing slot."""
    return [
        [
            [k for k in range(n) if not _vanishes(akind, i, k) and not _vanishes(bkind, k, j)]
            for j in range(n)
        ]
        for i in range(n)
    ]


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


def _matrix_product(presentation, live, a, b):
    return tuple(
        tuple(_total(presentation, (a[i][k] * b[k][j] for k in ks)) for j, ks in enumerate(row))
        for i, row in enumerate(live)
    )


def _total(presentation, parts):
    terms = {}
    for part in parts:
        add_scaled(terms, part.terms)
    return AlgElement(presentation, terms) if terms else presentation.zero


def bullet(amat, bmat):
    """Matrix product with entrywise composition: (A o B)_ij = sum_k A_ik . B_kj.

    Read through: each word takes B's value and applies A's entries to it.
    """
    if amat.n != bmat.n:
        raise SizeMismatch(f"sizes {amat.n} and {bmat.n}")
    if amat.presentation is not bmat.presentation:
        raise ValueError("matrices over different presentations")
    pres, n = amat.presentation, amat.n
    live = _live(n, amat.kind, bmat.kind)

    def value(word):
        bw = bmat.on_word(word)
        return tuple(
            tuple(
                _total(pres, (amat.entry(i, k, bw[k][j]) for k in ks))
                for j, ks in enumerate(row)
            )
            for i, row in enumerate(live)
        )

    return MapMatrix(pres, n, _kind_of(n, lambda i, j: not live[i][j]), value)


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


def _check_diag_inverses(m, inverse):
    pres = m.presentation
    if inverse.n != m.n:
        raise SizeMismatch("the inverse needs one diagonal entry per row")
    for i in range(m.n):
        for g in range(len(pres.generators)):
            target = pres.monomial((g,))
            if (
                inverse.entry(i, i, m.entry(i, i, target)) != target
                or m.entry(i, i, inverse.entry(i, i, target)) != target
            ):
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


def transpose_inverse(m, inverse):
    """Matrix x with x o m^T = m^T o x = id, for a triangular m.

    inverse's diagonal entries invert m's; they are verified by round trip
    on every generator and become x's diagonal, values and all.  On each
    word, x_ij = -inv_i(sum_k m_ki(x_kj)) off the diagonal, k from j to i
    with i left out: forward substitution when m^T is lower triangular,
    backward when it is upper.
    """
    if m.kind == "general":
        raise NotTriangular(f"matrix is {m.kind}")
    _check_diag_inverses(m, inverse)
    pres = m.presentation
    n = m.n
    forward = m.kind != "lower_triangular"
    # the off-diagonal slots in substitution order, with the k to sum over
    steps = []
    for gap in range(1, n):
        for lo in range(n - gap):
            hi = lo + gap
            i, j = (hi, lo) if forward else (lo, hi)
            ks = [k for k in range(lo, hi + 1) if k != i and not _vanishes(m.kind, k, i)]
            if ks:
                steps.append((i, j, ks))

    def value(word):
        diag = inverse.on_word(word)
        x = [list(row) for row in _diagonal(pres, [diag[i][i] for i in range(n)])]
        for i, j, ks in steps:
            total = _total(pres, (m.entry(k, i, x[k][j]) for k in ks if x[k][j]))
            if total:
                x[i][j] = -inverse.entry(i, i, total)
        return tuple(map(tuple, x))

    out = MapMatrix(pres, n, _transposed(m.kind), value)
    _verify_inverse_pair(out, m.transpose())
    return out


def free_pair(sigma, inverse):
    """(bar, hat): bar inverts sigma^T, hat inverts bar^T by the same step.

    inverse's diagonal inverts sigma's, and sigma's own diagonal inverts
    bar's, so hat's diagonal values are the ones sigma memoises.
    """
    bar = transpose_inverse(sigma, inverse)
    return bar, transpose_inverse(bar, sigma)
