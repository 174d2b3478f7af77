"""Presented noncommutative algebras with confluent word rewriting.

An algebra is a finite generator list with an ordered rewrite system whose
left-hand sides are words and whose right-hand sides are linear combinations
of strictly deglex-smaller words.  Elements are finite linear combinations of
irreducible ("normal") words with ScalarRF coefficients.  Optional extras: a
Z-grading on generators and Hopf structure maps: tables of the generator
images of the coproduct, counit, antipode and its inverse, which
coproduct, counit and antipode extend (anti)multiplicatively.

Normal forms rewrite the leftmost redex.  With two-letter left sides only, a
letter moves left past all its transposing neighbours in one run, charged
one budget unit per swap; a run is taken only at a length no cached word has.
A product of normal words folds the letters of the shorter factor onto the
other one at a time, so each letter-times-normal-word product is rewritten
once and cached, whatever head or tail the product carries.  On a confluent
system (check_local_confluence) every order of reduction gives the same
normal form (Bergman's diamond lemma).
"""
from __future__ import annotations

import operator
from fractions import Fraction

from .report import CheckReport
from .scalars import ScalarRF
from .sparse import SparseVector, add_scaled


class UnknownGenerator(KeyError):
    pass


class ReductionBudgetExceeded(RuntimeError):
    pass


class GradingAbsent(ValueError):
    pass


class RuleOrientationError(ValueError):
    """A rewrite rule fails to strictly decrease the deglex word order."""


class _Mixed:
    __slots__ = ()

    def __repr__(self):
        return "Mixed"


#: zdegree() result for an element whose words have unequal degrees.
MIXED = _Mixed()

DEFAULT_BUDGET = 10**6

# coefficients that act by scaling rather than by the word product; the
# ABC check of Fraction is the slow one, so it comes last
_SCALARS = (ScalarRF, int, Fraction)


def _deglex_key(word):
    return (len(word), word)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit):
        self.left = limit

    def spend(self, units=1):
        self.left -= units
        if self.left < 0:
            raise ReductionBudgetExceeded("rewrite step budget exhausted")


class Presentation:
    """Generators in rewrite order plus an oriented rewrite system."""

    def __init__(self, context, generators, rules=(), grading=None):
        self.context = context
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        self._index = {name: i for i, name in enumerate(self.generators)}
        self.rules = []
        self._rules_at = {i: [] for i in range(len(self.generators))}
        self._max_lhs = 1
        self._nf_cache = {}
        self._nf_lengths = set()  # the lengths of the words in _nf_cache
        self._words_memo = {}
        self.grading = None
        if grading is not None:
            self.grading = tuple(int(grading[name]) for name in self.generators)
        for lhs, rhs in rules:
            self._add_rule(lhs, rhs)
        # (a, b) -> c where the rule _find_redex applies on a*b is the
        # transposition a*b -> c*b*a; None unless every left side has two letters
        first = dict(reversed(self.rules))
        self._swaps = None if any(len(lhs) != 2 for lhs in first) else {
            lhs: rhs[lhs[::-1]] for lhs, rhs in first.items() if list(rhs) == [lhs[::-1]]
        }
        # {map: {letter: image}} for the maps "coproduct", "counit",
        # "antipode" and "antipode inverse"; set by the loader of a [hopf] section
        self.hopf = None
        self.one = AlgElement(self, {(): context.one})
        self.zero = AlgElement(self, {})

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGenerator(name) from None

    def word(self, *names):
        return tuple(self.index(n) if isinstance(n, str) else self._check_letter(n) for n in names)

    def _check_letter(self, i):
        i = operator.index(i)  # TypeError for floats and Fractions
        if not 0 <= i < len(self.generators):
            raise UnknownGenerator(f"generator index {i} out of range")
        return i

    def _coerce_word(self, word):
        return self.word(*word)

    def _add_rule(self, lhs, rhs):
        lhs = self._coerce_word(lhs)
        if not lhs:
            raise ValueError("empty rule left-hand side")
        coeffs = {}
        for word, coeff in rhs.items():
            word = self._coerce_word(word)
            coeff = self.context.coerce(coeff)
            if coeff:
                coeffs[word] = coeffs.get(word, self.context.zero) + coeff
        coeffs = {w: c for w, c in coeffs.items() if c}
        key = _deglex_key(lhs)
        for word in coeffs:
            if _deglex_key(word) >= key:
                raise RuleOrientationError(
                    f"rule {self.word_str(lhs)} -> ... does not decrease deglex "
                    f"(offending word {self.word_str(word)})"
                )
        if self.grading is not None:
            lhs_deg = sum(self.grading[g] for g in lhs)
            for word in coeffs:
                if sum(self.grading[g] for g in word) != lhs_deg:
                    raise ValueError(
                        f"rule {self.word_str(lhs)} is not degree-homogeneous"
                    )
        self.rules.append((lhs, coeffs))
        self._rules_at[lhs[0]].append((lhs, coeffs))
        self._max_lhs = max(self._max_lhs, len(lhs))

    # -- normal forms --------------------------------------------------------

    def _find_redex(self, word, start=0):
        rules_at = self._rules_at
        for pos in range(start, len(word)):
            for lhs, coeffs in rules_at[word[pos]]:
                if word[pos : pos + len(lhs)] == lhs:
                    return pos, lhs, coeffs
        return None

    def _normal_word(self, word, budget, start=0):
        """Normal form of a raw word as {normal word: scalar}, memoised.

        An explicit worklist rather than recursion, so long words cost
        memory and budget, not stack depth: each pending word rewrites its
        leftmost redex (one budget unit a step) in place with a running
        scalar while the rule has one term, and a multi-term rule hands its
        pieces to the stack, the word being summed up after them.  So only
        the words asked for and the pieces of a branch are cached.

        No redex of word may start before start.  The search for a leftmost
        redex resumes there, and a word rewritten at pos resumes at
        max(pos - (max_lhs - 1), 0): a redex starting further left would
        end inside the untouched head, which had none.

        A run swaps b = lhs[1] on left while the redex at its left is a
        transposition, as no other redex can be leftmost.  It would skip the
        lookups of the words it passes, but none of them hits: a one-term
        chain keeps its length, and no cached word has it.
        """
        cache = self._nf_cache
        result = cache.get(word)
        if result is not None:
            return result
        lengths, swaps = self._nf_lengths, self._swaps
        back = self._max_lhs - 1
        one = self.context.one
        stack = [(word, start, None)]
        while stack:
            node, start, pieces = stack.pop()
            if pieces is not None:
                result = {}
                for piece, coeff in pieces:
                    add_scaled(result, cache[piece], coeff)
                cache[node] = result
                lengths.add(len(node))
                continue
            if node in cache:
                continue
            top, scale = node, one
            while True:
                hit = self._find_redex(top, start)
                if hit is None:
                    cache[node] = {top: scale}
                    lengths.add(len(node))
                    break
                budget.spend()
                pos, lhs, coeffs = hit
                if swaps is not None and lhs in swaps and len(top) not in lengths:
                    b, p = lhs[1], pos
                    while p and (top[p - 1], b) in swaps:
                        p -= 1
                    if p < pos:
                        budget.spend(pos - p)
                        passed = top[p : pos + 1]
                        for a in set(passed):
                            scale = scale * swaps[a, b] ** passed.count(a)
                        top = top[:p] + (b,) + passed + top[pos + 2 :]
                        start = max(p - back, 0)
                        continue
                head, tail = top[:pos], top[pos + len(lhs) :]
                start = max(pos - back, 0)
                pieces = [(head + rword + tail, scale * rcoeff) for rword, rcoeff in coeffs.items()]
                if len(pieces) == 1 and pieces[0][0] not in cache:
                    ((top, scale),) = pieces
                    continue
                stack.append((node, None, pieces))
                stack.extend((piece, start, None) for piece, _ in reversed(pieces))
                break
        return cache[word]

    def element(self, coeffs):
        """Normalize a {word: scalar} mapping into an AlgElement."""
        bud = _Budget(DEFAULT_BUDGET)
        out = {}
        for word, coeff in coeffs.items():
            word = self._coerce_word(word)
            coeff = self.context.coerce(coeff)
            if coeff:
                add_scaled(out, self._normal_word(word, bud), coeff)
        return AlgElement(self, out)

    def monomial(self, word, coeff=1):
        return self.element({tuple(word): coeff})

    def _monomial(self, word):
        """monomial(word) for a word already checked: a tuple of letter
        indices, such as a normal word or a memo key."""
        return AlgElement(self, dict(self._normal_word(word, _Budget(DEFAULT_BUDGET))))

    def gen(self, name):
        return AlgElement(self, {(self.index(name),): self.context.one})

    def scalar(self, value):
        value = self.context.coerce(value)
        return AlgElement(self, {(): value} if value else {})

    # -- basis enumeration ----------------------------------------------------

    def normal_words(self, max_len, degree=None):
        """Normal words of length <= max_len in deglex order, as a tuple.

        With degree set (graded presentations only), keep words of that
        Z-degree.  Memoised per (max_len, degree); the tuple is shared, so
        no caller can change what the next one reads.
        """
        if degree is not None and self.grading is None:
            raise GradingAbsent("presentation has no grading")
        key = (max_len, degree)
        words = self._words_memo.get(key)
        if words is not None:
            return words
        if degree is not None:
            grading = self.grading
            words = tuple(
                w for w in self.normal_words(max_len)
                if sum(grading[g] for g in w) == degree
            )
        else:
            layer = [()]
            out = [()]
            n = len(self.generators)
            for _ in range(max_len):
                nxt = []
                for word in layer:
                    for g in range(n):
                        cand = word + (g,)
                        if self._new_suffix_clean(cand):
                            nxt.append(cand)
                out.extend(nxt)
                layer = nxt
            words = tuple(out)
        self._words_memo[key] = words
        return words

    def _new_suffix_clean(self, word):
        # word[:-1] is already normal, so only suffixes ending at the new
        # letter can contain a fresh redex.
        for k in range(2, min(self._max_lhs, len(word)) + 1):
            tail = word[-k:]
            for lhs, _ in self._rules_at[tail[0]]:
                if tail == lhs:
                    return False
        for lhs, _ in self._rules_at[word[-1]]:
            if len(lhs) == 1:
                return False
        return True

    def word_str(self, word):
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            name = self.generators[word[i]]
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)

    def __repr__(self):
        return f"<Presentation {'*'.join(self.generators)}, {len(self.rules)} rules>"


class AlgElement(SparseVector, space=("presentation",)):
    """Linear combination of normal words; always kept in normal form."""

    __slots__ = ("presentation",)

    def __init__(self, presentation, terms):
        self.presentation = presentation
        self.terms = terms

    def _mate(self, other):
        # the base first: Fraction's ABC makes the scalar test the slower one
        mate = SparseVector._mate(self, other)
        if mate is None and isinstance(other, _SCALARS):
            return self.presentation.scalar(other)  # scalars embed via the unit
        return mate

    def _like(self, terms):
        return AlgElement(self.presentation, terms)

    def scale(self, coeff):
        return self._scaled(self.presentation.context.coerce(coeff))

    def __mul__(self, other):
        # the element first: Fraction's ABC makes the scalar test the slower one
        if not isinstance(other, AlgElement):
            return self.scale(other) if isinstance(other, _SCALARS) else NotImplemented
        other = self._mate(other)
        pres = self.presentation
        return AlgElement(pres, mul_terms(pres, self.terms, other.terms, {}))

    def __rmul__(self, other):
        if isinstance(other, AlgElement):
            return other * self
        return self.scale(other) if isinstance(other, _SCALARS) else NotImplemented

    def __truediv__(self, other):
        # scalar denominators only; the algebra has no quotients
        if isinstance(other, AlgElement):
            return NotImplemented
        coeff = self.presentation.context.coerce(other)
        return self.scale(1 / coeff)

    def __pow__(self, n):
        n = operator.index(n)  # TypeError for Fractions and floats
        if n < 0:
            raise ValueError("negative powers are not defined in the algebra")
        out = self.presentation.one
        for _ in range(n):
            out = out * self
        return out

    def coefficient(self, word):
        word = self.presentation._coerce_word(word)
        return self.terms.get(word, self.presentation.context.zero)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda wc: _deglex_key(wc[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pres = self.presentation
        chunks = []
        for word, coeff in self.sorted_terms():
            text = _term_str(pres, word, coeff)
            if not chunks:
                chunks.append(text)
            elif text.startswith("-"):
                chunks.append(f" - {text[1:]}")
            else:
                chunks.append(f" + {text}")
        return "".join(chunks)

    def __repr__(self):
        return f"<AlgElement {self}>"


def mul_terms(pres, a, b, out):
    """out += a*b for term dicts {normal word: scalar} of pres; returns out.

    The product behind AlgElement.__mul__, open to callers that sum several
    products into one dict; out must be a dict the caller owns.  A product
    word wa + wb the normal-form cache lacks is built one letter at a time:
    the letters of the shorter factor fold onto the other, g*v from the
    right of wa or v*g from the left of wb, each normal word v times a
    letter read from or left in the cache.  So a letter crossing a normal
    word is rewritten once, whatever head the product carries.  Since v is
    normal, a redex of v*g starts at len(v) - (max_lhs - 1) or later.
    """
    bud = _Budget(DEFAULT_BUDGET)
    cache, normal, one = pres._nf_cache, pres._normal_word, pres.context.one
    back = pres._max_lhs - 1
    for wa, ca in a.items():
        if not wa:  # the unit word: each wb is its own normal form
            add_scaled(out, b, ca)
            continue
        for wb, cb in b.items():
            word = wa + wb
            nf = cache.get(word)
            if nf is None:
                left = len(wa) <= len(wb)
                nf = {wb if left else wa: one}
                for g in reversed(wa) if left else wb:
                    step = {}
                    for v, c in nf.items():
                        if left:
                            vg = normal((g,) + v, bud)
                        else:
                            vg = normal(v + (g,), bud, max(len(v) - back, 0))
                        add_scaled(step, vg, None if c is one else c)
                    nf = step
                cache[word] = nf
                pres._nf_lengths.add(len(word))
            add_scaled(out, nf, ca * cb)
    return out


def _coeff_needs_parens(coeff):
    return len(coeff.numer_terms()) > 1


def _term_str(pres, word, coeff):
    if not word:
        text = str(coeff)
        return f"({text})" if _coeff_needs_parens(coeff) else text
    body = pres.word_str(word)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    text = str(coeff)
    if _coeff_needs_parens(coeff):
        text = f"({text})"
    return f"{text}*{body}"


# -- spec surface -------------------------------------------------------------


def zdegree(a):
    """Common Z-degree of the element's words, or MIXED."""
    presentation = a.presentation
    if presentation.grading is None:
        raise GradingAbsent("presentation has no grading")
    degree = None
    for word in a.terms:
        d = sum(presentation.grading[g] for g in word)
        if degree is None:
            degree = d
        elif degree != d:
            return MIXED
    return 0 if degree is None else degree


def check_local_confluence(presentation, max_degree):
    """Resolve every overlap ambiguity between rule left-hand sides.

    Overlap words longer than max_degree are skipped.  Returns a
    CheckReport with one check per ambiguity, named by its overlap word and
    carrying the word and the normal forms of both reduction routes.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    pres = presentation
    report = CheckReport()
    seen = set()
    rules = pres.rules
    for i, (l1, r1) in enumerate(rules):
        for j, (l2, r2) in enumerate(rules):
            # suffix of l1 meets prefix of l2
            for k in range(1, min(len(l1), len(l2)) + 1):
                if k == len(l1) == len(l2) and i == j:
                    continue  # a rule trivially overlaps itself in full
                if l1[-k:] != l2[:k]:
                    continue
                word = l1 + l2[k:]
                _record_ambiguity(pres, report, seen, max_degree,
                                  word, (0, l1, r1), (len(l1) - k, l2, r2))
            # l2 strictly inside l1
            if len(l2) < len(l1):
                for pos in range(1, len(l1) - len(l2)):
                    if l1[pos : pos + len(l2)] == l2:
                        _record_ambiguity(pres, report, seen, max_degree,
                                          l1, (0, l1, r1), (pos, l2, r2))
    return report


def _record_ambiguity(pres, report, seen, max_degree, word, hit1, hit2):
    if len(word) > max_degree:
        return
    key = (word, hit1[0], id(hit1[1]), hit2[0], id(hit2[1]))
    if key in seen:
        return
    seen.add(key)
    nf1 = _apply_then_normalize(pres, word, hit1)
    nf2 = _apply_then_normalize(pres, word, hit2)
    resolved = nf1 == nf2
    report.add(
        pres.word_str(word),
        resolved,
        None if resolved else f"{nf1} versus {nf2}",
        word=word,
        route1=nf1,
        route2=nf2,
    )


def _apply_then_normalize(pres, word, hit):
    pos, lhs, coeffs = hit
    head, tail = word[:pos], word[pos + len(lhs) :]
    raw = {}
    for rword, rcoeff in coeffs.items():
        cand = head + rword + tail
        raw[cand] = raw.get(cand, pres.context.zero) + rcoeff
    return pres.element(raw)


# -- Hopf structure -----------------------------------------------------------


class TensorElement(SparseVector, space=("presentation",)):
    """Element of A tensor A, normal-word pairs with scalar coefficients."""

    __slots__ = ("presentation",)

    def __init__(self, presentation, terms):
        self.presentation = presentation
        self.terms = terms

    @classmethod
    def of(cls, a, b, coeff=1):
        pres = a.presentation
        coeff = pres.context.coerce(coeff)
        if not coeff:
            return cls(pres, {})
        # the word pairs are distinct, so no two terms can cancel
        return cls(pres, {
            (wa, wb): coeff * ca * cb
            for wa, ca in a.terms.items()
            for wb, cb in b.terms.items()
        })

    def _like(self, terms):
        return TensorElement(self.presentation, terms)

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        other = self._mate(other)
        # componentwise: (a x b)(c x d) = ac x bd
        pres = self.presentation
        terms = {}
        for (u1, u2), c in self.terms.items():
            for (v1, v2), d in other.terms.items():
                left = pres._monomial(u1 + v1)
                right = pres._monomial(u2 + v2)
                add_scaled(terms, TensorElement.of(left, right, c * d).terms)
        return TensorElement(pres, terms)

    def sweedler(self):
        """List of (left AlgElement, right AlgElement, scalar) components."""
        pres = self.presentation
        return [
            (pres.monomial(u), pres.monomial(v), c) for (u, v), c in sorted(self.terms.items())
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        pres = self.presentation
        bits = []
        for (u, v), c in sorted(self.terms.items()):
            lhs, rhs = pres.word_str(u), pres.word_str(v)
            text = f"{lhs} @ {rhs}"
            if c != 1:
                coeff = str(c)
                if _coeff_needs_parens(c):
                    coeff = f"({coeff})"
                text = f"{coeff}*{lhs} @ {rhs}"
            bits.append(text)
        return " + ".join(bits)

    __repr__ = __str__


def _extend(pres, table, a, unit, backwards=False):
    """Sum of unit(c) times the images of w's letters, read from the Hopf
    table, over the terms c*w of a; backwards for an antihomomorphism."""
    if pres.hopf is None:
        raise ValueError("presentation carries no Hopf data")
    images = pres.hopf[table]
    total = unit(pres.context.zero)
    for word, coeff in a.terms.items():
        part = unit(coeff)
        for letter in reversed(word) if backwards else word:
            part = part * images[letter]
        total = total + part
    return total


def coproduct(presentation, a):
    """Multiplicative extension of the generator coproducts."""
    pres = presentation
    return _extend(pres, "coproduct", a, lambda c: TensorElement.of(pres.one, pres.one, c))


def counit(presentation, a):
    return _extend(presentation, "counit", a, presentation.context.coerce)


def antipode(presentation, a, power=1):
    """Anti-multiplicative extension of S (power 1) or S^{-1} (power -1)."""
    if power not in (1, -1):
        raise ValueError("antipode power must be 1 or -1")
    table = "antipode" if power > 0 else "antipode inverse"
    return _extend(presentation, table, a, presentation.scalar, backwards=True)
