"""Right twisted multi-derivations.

A multi-derivation is a row of n maps (partial_1 ... partial_n) together with
an algebra map sigma: A -> M_n(A), obeying the twisted Leibniz rule

    partial_i(ab) = sum_j partial_j(a) sigma_ji(b) + a partial_i(b).

Generator rows determine everything: extension (`_fill_rows`) peels off the
leading letter, filling a per-word memo in a loop from the shortest suffix
up.  The connection kernel T_i = sum_jk bar_kj o partial_j o hat_ki is one
too, with twist hat: T_i(ab) = sum_j T_j(a) hat_ji(b) + a T_i(b).  (Put
b = hat_mj(w) in the hom-connection rule nabla(f b) = nabla(f) b + f(db)
for f supported on omega_m, and sum over m with sum_m bar_mi o hat_mj =
delta_ij.)  So `_kernel_word` takes the formula on generators only and
extends it by the same loop.  The derivation is free: sigma is a
triangular linmap.MapMatrix given by its generators' image matrices, the
inverses of its diagonal entries are a diagonal one given the same way, and
linmap.free_pair builds bar = (sigma^T)^-1 and hat = (bar^T)^-1 from the
two by one transpose-inverse step.  Every map is applied through its
entries.  verify_free re-derives every assumed identity (relations
respected, both inverse pairs) and reports failures with witnesses instead
of raising; inverse_identities is the one sweep of the inverse pairs over a
list of words, each product checked entry by entry on term dicts by
linmap.composite_is_identity.
"""
from __future__ import annotations

import functools

from .linmap import by_generator, composite_is_identity, free_pair
from .ncalg import MIXED, AlgElement, mul_terms, zdegree
from .report import CheckReport
from .sparse import add_scaled


class SigmaNotDiagonal(ValueError):
    pass


class TwistedMultiDerivation:
    def __init__(self, presentation, partial_on_gens, sigma, inverse):
        self.presentation = presentation
        self.n = sigma.n
        rows = by_generator(presentation, partial_on_gens, "partial rows")
        if any(len(row) != self.n for row in rows.values()):
            raise ValueError("partial row length differs from sigma size")
        self.partial_on_gens = rows
        self.sigma = sigma
        self.sigma_bar, self.sigma_hat = free_pair(sigma, inverse)
        self._memo = {(): (presentation.zero,) * self.n}
        self._kernel_memo = dict(self._memo)

    # -- extension -----------------------------------------------------------

    def _partial_word(self, word):
        return _fill_rows(self.presentation, self._memo, word, self.partial_on_gens, self.sigma)

    @functools.cached_property
    def _kernel_gens(self):
        # the formula sum_jk bar_kj(partial_j(hat_ki(g))), on generators g only
        pres, bar = self.presentation, self.sigma_bar
        hats = [self.sigma_hat.on_word((g,)) for g in range(len(pres.generators))]
        return [
            tuple(sum((bar.entry(k, j, d) for k, row in enumerate(hat)
                       for j, d in enumerate(self.partial(row[i]))), pres.zero)
                  for i in range(self.n))
            for hat in hats
        ]

    def _kernel_word(self, word):
        """Row (T_1(u), ..., T_n(u)) of the connection kernel on a normal word u."""
        pres, gens = self.presentation, self._kernel_gens
        return _fill_rows(pres, self._kernel_memo, word, gens, self.sigma_hat)

    def partial(self, a, index=None):
        """Row (partial_1(a), ..., partial_n(a)), or partial_index(a) alone."""
        if a.presentation is not self.presentation:
            raise ValueError("element from a different presentation")
        rows = range(self.n) if index is None else (index,)
        out = [{} for _ in rows]
        for word, coeff in a.terms.items():
            row = self._partial_word(word)
            for terms, i in zip(out, rows):
                add_scaled(terms, row[i].terms, coeff)
        out = tuple(AlgElement(self.presentation, terms) for terms in out)
        return out if index is None else out[0]

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


def _fill_rows(pres, memo, word, gen_rows, twist):
    """Row D(word) of D_i(g w) = sum_j D_j(g) twist_ji(w) + g D_i(w),
    from the rows on generators.  memo holds the zero row on the empty word
    and, with each word, all its suffixes; it is filled from the shortest
    missing suffix up, in a loop, so a long word costs no stack depth."""
    if word in memo:
        return memo[word]
    start = len(word) - 1
    while word[start:] in memo:
        start -= 1
    for pos in range(start, -1, -1):
        head, tail = word[pos], word[pos + 1 :]
        row = gen_rows[head]
        if tail:
            # one term dict per index; zero values and twist entries are skipped
            letter = {(head,): pres.context.one}
            out = [mul_terms(pres, letter, r.terms, {}) for r in memo[tail]]
            for part, sig_j in zip(row, twist.on_word(tail)):
                for terms, s in zip(out, sig_j):
                    if part.terms and s.terms:
                        mul_terms(pres, part.terms, s.terms, terms)
            row = tuple(AlgElement(pres, terms) for terms in out)
        memo[word[pos:]] = row
    return row


def _relation_respected(pres, matrix, lhs, rhs):
    got = matrix.on_word(lhs)
    rhs = pres.element(dict(rhs))
    for i in range(matrix.n):
        for j in range(matrix.n):
            want = matrix.entry(i, j, rhs)
            if got[i][j] != want:
                return f"entry ({i},{j}) on rule {pres.word_str(lhs)}: {got[i][j]} != {want}"
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
        yield name, composite_is_identity(left, right, words)


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
        ratio = None
        for g in range(len(pres.generators)):
            base = t.partial_on_gens[g][i]
            twisted = t.sigma_bar.entry(i, i, t.partial(t.sigma.on_word((g,))[i][i])[i])
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
