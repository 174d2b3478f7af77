"""Right twisted multi-derivations.

A multi-derivation is a row of n maps (partial_1 ... partial_n) together with
a matrix sigma of maps, obeying the twisted Leibniz rule

    partial_i(ab) = sum_j partial_j(a) sigma_ji(b) + a partial_i(b).

Generator rows determine everything: extension (TwistedMultiDerivation.partial)
peels off the leading letter, filling a per-word memo in a loop from the
shortest suffix up.  The derivation is free: sigma is a triangular matrix
given by its values on words, and the bar = (sigma^T)^-1 and
hat = (bar^T)^-1 matrices are always built from it and the inverses of
its diagonal entries by linmap.free_pair, two calls of one memoised
transpose-inverse.  verify_free re-derives every assumed identity
(relations respected, both inverse pairs) and reports failures with
witnesses instead of raising; inverse_identities is the one sweep of the
inverse pairs over a list of words.  The untwisted case is sigma =
linmap.identity_matrix.
"""
from __future__ import annotations

from .linmap import bullet, by_generator, free_pair, is_identity_on_words
from .ncalg import MIXED, AlgElement, zdegree
from .report import CheckReport
from .sparse import add_scaled


class SigmaNotDiagonal(ValueError):
    pass


class TwistedMultiDerivation:
    def __init__(self, presentation, partial_on_gens, sigma, diag_inverses):
        self.presentation = presentation
        self.n = sigma.n
        rows = by_generator(presentation, partial_on_gens, "partial rows")
        if any(len(row) != self.n for row in rows.values()):
            raise ValueError("partial row length differs from sigma size")
        self.partial_on_gens = rows
        self.sigma = sigma
        self.sigma_bar, self.sigma_hat = free_pair(sigma, diag_inverses)
        self._memo = {(): (presentation.zero,) * self.n}

    # -- extension -----------------------------------------------------------

    def _partial_word(self, word):
        memo = self._memo
        cached = memo.get(word)
        if cached is not None:
            return cached
        # every suffix of a memoised word is memoised, so fill the memo
        # from the shortest suffix missing up to the whole word: a loop,
        # so a long word costs no stack depth
        pres = self.presentation
        start = len(word) - 1
        while word[start:] in memo:
            start -= 1
        for pos in range(start, -1, -1):
            head, tail = word[pos], word[pos + 1 :]
            row_g = self.partial_on_gens[head]
            if not tail:
                result = row_g
            else:
                sig = self.sigma.on_word(tail)
                tail_row = memo[tail]
                g_elem = pres._monomial((head,))
                result = tuple(
                    sum((row_g[j] * sig[j][i] for j in range(self.n)), pres.zero)
                    + g_elem * tail_row[i]
                    for i in range(self.n)
                )
            memo[word[pos:]] = result
        return result

    def partial(self, a):
        """Row (partial_1(a), ..., partial_n(a))."""
        if a.presentation is not self.presentation:
            raise ValueError("element from a different presentation")
        out = [{} for _ in range(self.n)]
        for word, coeff in a.terms.items():
            for terms, part in zip(out, self._partial_word(word)):
                add_scaled(terms, part.terms, coeff)
        return tuple(AlgElement(self.presentation, terms) for terms in out)

    def degree_shifts(self):
        """Per-index Z-degree shift on generators, MIXED when inconsistent."""
        pres = self.presentation
        shifts = []
        for i in range(self.n):
            seen = None
            for g, row in self.partial_on_gens.items():
                if row[i].is_zero():
                    continue
                d = zdegree(row[i])
                shift = MIXED if d is MIXED else d - pres.grading[g]
                if seen is None:
                    seen = shift
                elif seen != shift:
                    seen = MIXED
            shifts.append(seen)
        return shifts


def _relation_respected(pres, matrix, lhs, rhs):
    got = matrix.on_word(lhs)
    want = matrix.apply(pres.element(dict(rhs)))
    for i in range(matrix.n):
        for j in range(matrix.n):
            if got[i][j] != want[i][j]:
                return (
                    f"entry ({i},{j}) on rule {pres.word_str(lhs)}: "
                    f"{got[i][j]} != {want[i][j]}"
                )
    return None


def inverse_identities(t, words):
    """(name, witness) for each product the inverse pairs make the identity.

    The witness is None when the product is the identity on every word of
    words; the pairs are produced one at a time, so a caller may stop early.
    """
    sigma_t = t.sigma.transpose()
    bar_t = t.sigma_bar.transpose()
    for name, left, right in (
        ("bar o sigma^T = id", t.sigma_bar, sigma_t),
        ("sigma^T o bar = id", sigma_t, t.sigma_bar),
        ("hat o bar^T = id", t.sigma_hat, bar_t),
        ("bar^T o hat = id", bar_t, t.sigma_hat),
    ):
        yield name, is_identity_on_words(bullet(left, right), words)


def verify_free(t):
    """Re-check every assumption behind (partial, sigma) freeness.

    Returns a CheckReport; failures carry witnesses and nothing raises.
    """
    pres = t.presentation
    report = CheckReport()

    zero_row = t._partial_word(())
    report.add("partial(1) is the zero row", all(e.is_zero() for e in zero_row))

    for label, matrix in (
        ("sigma", t.sigma),
        ("sigma_bar", t.sigma_bar),
        ("sigma_hat", t.sigma_hat),
    ):
        witness = None
        for lhs, rhs in pres.rules:
            witness = _relation_respected(pres, matrix, lhs, rhs)
            if witness is not None:
                break
        report.add(f"{label} respects the defining relations", witness is None, witness)

    words = [()] + [(g,) for g in range(len(pres.generators))]
    for name, witness in inverse_identities(t, words):
        report.add(name, witness is None, witness)

    witness = None
    for lhs, rhs in pres.rules:
        got = t._partial_word(lhs)
        want = t.partial(pres.element(dict(rhs)))
        for i in range(t.n):
            if got[i] != want[i]:
                witness = (
                    f"index {i} on rule {pres.word_str(lhs)}: {got[i]} != {want[i]}"
                )
                break
        if witness is not None:
            break
    report.add("partial annihilates the defining relations", witness is None, witness)
    return report


def _ratio(a, b):
    """Scalar c with a = c*b, or None; b must be nonzero."""
    word = next(iter(b.terms))
    c = a.coefficient(word) / b.coefficient(word)
    return c if a == b.scale(c) else None


def detect_q_skew(t):
    """Constants q_i with sigma_i^{-1} o partial_i o sigma_i = q_i partial_i.

    Defined for diagonal sigma only; returns None when some index is not
    q-skew.  Indices whose partial vanishes on all generators report 1.
    """
    if t.sigma.kind != "diagonal":
        raise SigmaNotDiagonal(f"sigma is {t.sigma.kind}")
    pres = t.presentation
    out = []
    for i in range(t.n):
        sig_i = t.sigma.entries[i][i]
        inv_i = t.sigma_bar.entries[i][i]
        ratio = None
        for g in range(len(pres.generators)):
            base = t.partial_on_gens[g][i]
            twisted = inv_i.apply(t.partial(sig_i.on_word((g,)))[i])
            if base.is_zero():
                if not twisted.is_zero():
                    return None
                continue
            c = _ratio(twisted, base)
            if c is None or (ratio is not None and c != ratio):
                return None
            ratio = c
        out.append(ratio if ratio is not None else pres.context.one)
    return out
