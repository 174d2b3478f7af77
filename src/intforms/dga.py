"""Differential graded algebra on top of a free twisted multi-derivation.

Degree one is free as a left and as a right module on the basis forms:
a coefficient crosses a form letter through sigma one way and through
sigma-bar = (sigma^T)^-1 the other, omega_i*a = sum_j sigma_ij(a)*omega_j
and a*omega_i = sum_k omega_k*sigma-bar_ki(a); `_push` runs both.  Higher
degrees are words in the basis forms modulo rewrite rules on adjacent
pairs, normalised by an ncalg Presentation whose letters are the forms in
canonical order, each of degree 1; the exterior differential combines the
derivation rows (degree 0) with declared values on the basis forms.  All
rewrite data is validated at construction: the engine rejects rules that
change degree or fail to decrease the canonical order, every overlap up
to one past the top degree must resolve, and no word may survive above
the top degree.

Each calculus keeps one twist table (`CalculusSpec._twists`) of the two
per-word evaluations that move a coefficient across forms: sigma-bar
pushed along a form word and reduced (kind "right": `right_coords`, and
the hom-form evaluations of `homconn`), and sigma^T pushed along the
reversed word and reduced with the right factor's word appended (kind
"left": `mul`).  An entry is keyed by (kind, form word, normal word u,
appended word) and holds the value on the monomial u as {basis word:
{normal word: scalar}}.  sigma and sigma-bar are linear over the
scalars, which are central, so a coefficient sum_u s_u*u is read as
sum_u s_u * entry(u): a general coefficient is expanded into its terms,
and a hit costs scalar products only.

The connection kernel T_i = sum_jk sigma-bar_kj o partial_j o
sigma-hat_ki is no kind of the table: it is a right twisted
multi-derivation with twist sigma-hat, T_i(ab) = sum_j T_j(a)
sigma-hat_ji(b) + a T_i(b) (put b = sigma-hat_mj(w) in nabla(f b) =
nabla(f) b + f(db) for f supported on omega_m, and sum over m with
sum_m sigma-bar_mi o sigma-hat_mj = delta_ij), so it keeps rows on
normal words as partial does (`multider`).

Degree 0 is the algebra itself, free on the empty form word: `basis(0)`
is ((),), written 1, and d 1 = 0.  So the connection's level tables
(`homconn._level`) and the ladder read every degree alike.
"""

from __future__ import annotations

import operator

from .linalg import LinearSystem
from .ncalg import AlgElement, Presentation, check_local_confluence
from .report import CheckReport
from .sparse import SparseVector, add_scaled

__all__ = [
    "CalculusSpec",
    "DegreeOverflow",
    "DensityWitness",
    "FormElement",
    "check_d_squared",
    "check_density",
    "d",
    "mul",
    "right_mul",
]


class DegreeOverflow(ValueError):
    pass


class CalculusSpec:
    """Generators, rewrite rules, and differentials of one graded calculus.

    form_names is index-aligned with the derivation rows of ``tmd``.
    form_order lists the same names in ascending canonical order (defaults
    to form_names); rule right-hand sides must be strictly smaller in the
    induced degree-lexicographic order.  rules maps a word of form names to
    {word: scalar}; d_on_forms maps a form name to its degree-2 value as
    {word: coefficient} (omitted names differentiate to zero).  bases
    optionally pins the stored basis order for degrees >= 2; degree 0 has
    the one basis word (), the empty word.

    The spec holds the calculus's twist table (see the module docstring):
    `_twists` maps (kind, form word, normal word u, appended word) to the
    kind's evaluation on the monomial u; the kinds are "right" and "left".
    The maps behind each kind are linear over the scalars, so one entry per
    normal word serves every coefficient, and the table grows with the
    words reached, never with the coefficients.  `_levels` holds the
    connection's tables per level (`homconn._level`).
    """

    def __init__(
        self,
        tmd,
        form_names,
        rules,
        d_on_forms=None,
        top_degree=2,
        form_order=None,
        bases=None,
    ):
        self.tmd = tmd
        self.presentation = tmd.presentation
        self.context = self.presentation.context
        self.form_names = tuple(form_names)
        self.n = len(self.form_names)
        if self.n != tmd.n:
            raise ValueError("one form name is needed per derivation row")
        if len(set(self.form_names)) != self.n:
            raise ValueError("duplicate form names")
        self._index = {name: i for i, name in enumerate(self.form_names)}
        if top_degree < 1:
            raise ValueError("top degree must be at least 1")
        self.top_degree = top_degree

        order = tuple(form_order) if form_order is not None else self.form_names
        if sorted(order) != sorted(self.form_names):
            raise ValueError("form order must permute the form names")
        # letter r of the engine is form index _unrank[r], whose rank is r
        self._rank = {self._index[name]: pos for pos, name in enumerate(order)}
        self._unrank = tuple(self._index[name] for name in order)
        self._letters = Presentation(
            self.context,
            order,
            rules=[self._letter_rule(lhs, rhs) for lhs, rhs in rules.items()],
            grading=dict.fromkeys(order, 1),
        )
        self._sigma_t = tmd.sigma.transpose()
        self._reduce_memo = {}
        self._dword_memo = {}
        self._levels = {}
        self._twists = {}
        self._bases = self._build_bases(bases)

        self.d_on_forms = {}
        for name in self.form_names:
            value = (d_on_forms or {}).get(name)
            self.d_on_forms[self._index[name]] = self._coerce_d_value(name, value)

    # -- construction helpers -------------------------------------------------

    def index(self, name):
        if isinstance(name, str):
            try:
                return self._index[name]
            except KeyError:
                raise KeyError(f"unknown form name {name!r}") from None
        name = operator.index(name)  # TypeError for floats and Fractions
        if not 0 <= name < self.n:
            raise KeyError(f"form index {name} out of range")
        return name

    def _coerce_form_word(self, word):
        if isinstance(word, str):
            return (self.index(word),)
        return tuple(self.index(l) for l in word)

    def word_str(self, word):
        return ".".join(self.form_names[i] for i in word) or "1"

    def _rank_key(self, word):
        return tuple(self._rank[l] for l in word)

    def _letter_rule(self, lhs, rhs):
        """A form rule spelled with form names, as the letter engine takes it."""
        lhs = self._coerce_form_word(lhs)
        if len(lhs) < 2:
            raise ValueError("rule left-hand sides must have degree at least 2")
        names = self.form_names
        out = {}
        for word, coeff in rhs.items():
            word = tuple(names[i] for i in self._coerce_form_word(word))
            out[word] = out.get(word, self.context.zero) + self.context.coerce(coeff)
        return tuple(names[i] for i in lhs), out

    def _form_word_of(self, letters):
        return tuple(self._unrank[r] for r in letters)

    def reduce_word(self, word):
        """Canonical form of a raw form word as {basis word: scalar}."""
        return self._reduce_word(self._coerce_form_word(word))

    def _reduce_word(self, word):
        # reduce_word for a word of form indices already checked
        out = self._reduce_memo.get(word)
        if out is None:
            nf = self._letters._monomial(self._rank_key(word)).terms
            out = {self._form_word_of(w): c for w, c in nf.items()}
            self._reduce_memo[word] = out
        return out

    def _build_bases(self, declared):
        """Check confluence and the top degree; basis words per degree.

        Form rules preserve length, so overlaps up to one past the top
        degree cover every word the calculus can hold.
        """
        top = self.top_degree
        failures = check_local_confluence(self._letters, top + 1).failures
        if failures:
            word = self._form_word_of(failures[0]["word"])
            raise ValueError(
                f"form rules are not confluent: {self.word_str(word)} "
                f"reduces to different normal forms"
            )
        bases = {}
        for letters in self._letters.normal_words(top + 1):
            word = self._form_word_of(letters)
            if len(word) > top:
                raise ValueError(
                    f"form word {self.word_str(word)} of degree {len(word)} "
                    f"does not reduce to zero above the top degree"
                )
            bases.setdefault(len(word), []).append(word)
        bases = {k: tuple(words) for k, words in bases.items()}
        for k, wanted in (declared or {}).items():
            wanted = tuple(self._coerce_form_word(w) for w in wanted)
            if sorted(wanted) != sorted(bases.get(k, ())):
                have = ", ".join(self.word_str(w) for w in bases.get(k, ()))
                raise ValueError(
                    f"declared degree-{k} basis disagrees with the rules "
                    f"(irreducible words: {have})"
                )
            bases[k] = wanted
        return bases

    def _coerce_d_value(self, name, value):
        value = value or {}
        if any(len(self._coerce_form_word(word)) != 2 for word in value):
            raise ValueError(f"d {name} must be a degree-2 form")
        value = self.form(2, value)
        if value.terms and self.top_degree < 2:
            raise ValueError(f"d {name} exceeds the top degree")
        return value

    # -- elements ---------------------------------------------------------

    def basis(self, degree):
        """Stored basis words of the given degree: ((),) at degree 0, empty
        above the top."""
        if degree < 0:
            raise ValueError("degree must be at least 0")
        return self._bases.get(degree, ())

    def zero(self, degree):
        return FormElement(self, degree, {})

    def basis_form(self, word):
        word = self._coerce_form_word(word)
        coords = {}
        one = self.presentation.one
        for w, s in self._reduce_word(word).items():
            coords[w] = s * one
        return FormElement(self, len(word), coords)

    def form(self, degree, coords):
        """Build a form from {word: coefficient}; words are reduced first."""
        out = {}
        for word, coeff in coords.items():
            word = self._coerce_form_word(word)
            if len(word) != degree:
                raise ValueError(
                    f"word {self.word_str(word)} has degree {len(word)}, "
                    f"expected {degree}"
                )
            if not isinstance(coeff, AlgElement):
                coeff = self.presentation.scalar(coeff)
            if coeff:
                add_scaled(out, self._reduce_word(word), coeff)
        return FormElement(self, degree, out)

    def __repr__(self):
        names = ", ".join(self.form_names)
        return f"<CalculusSpec [{names}] top degree {self.top_degree}>"


class FormElement(SparseVector, space=("spec", "degree")):
    """Degree-homogeneous form: left coefficients on basis form words."""

    __slots__ = ("spec", "degree")

    def __init__(self, spec, degree, terms):
        self.spec = spec
        self.degree = degree
        self.terms = terms

    def _like(self, terms):
        return FormElement(self.spec, self.degree, terms)

    def __mul__(self, other):
        if isinstance(other, FormElement):
            return mul(self.spec, self, other)
        if isinstance(other, AlgElement):
            return right_mul(self.spec, self, other)
        try:
            coeff = self.spec.context.coerce(other)
        except TypeError:
            return NotImplemented
        return self._scaled(coeff)

    def __rmul__(self, other):
        if isinstance(other, AlgElement):
            return self._like(add_scaled({}, self.terms, other))
        return self.__mul__(other)

    def __str__(self):
        if not self.terms:
            return "0"
        spec = self.spec
        chunks = []
        for word in sorted(self.terms, key=spec._rank_key):
            text = _form_term_str(spec, word, self.terms[word])
            if not chunks:
                chunks.append(text)
            elif text.startswith("-"):
                chunks.append(f" - {text[1:]}")
            else:
                chunks.append(f" + {text}")
        return "".join(chunks)

    def __repr__(self):
        return f"<FormElement deg {self.degree}: {self}>"


def _form_term_str(spec, word, coeff):
    body = spec.word_str(word)
    one = spec.presentation.one
    if coeff == one:
        return body
    if coeff == -one:
        return f"-{body}"
    text = str(coeff)
    if len(coeff.terms) > 1:
        return f"({text})*{body}"
    return f"{text}*{body}"


# -- module operations --------------------------------------------------------


def _push(matrix, word, a):
    """Spread a over raw words: c on w goes to w + (k,) as
    matrix.entry(k, letter, c), the (k, letter) map applied to c.

    Right coefficients take sigma-bar and the word as written; the left push
    takes sigma^T and the word reversed, and comes out spelled backwards.
    """
    raw = {(): a} if a else {}
    for letter in word:
        nxt = {}
        for w, c in raw.items():
            for k in range(matrix.n):
                cc = matrix.entry(k, letter, c)
                if cc:
                    nxt[w + (k,)] = cc
        raw = nxt
    return raw


def _reduced(spec, raw, tail):
    """{basis word: terms} of sum_w reduce(w + tail)*c over raw {w: c}."""
    out = {}
    for w, c in raw.items():
        # rule coefficients are scalars, so they slide past the coefficients
        for b, r in spec._reduce_word(w + tail).items():
            add_scaled(out.setdefault(b, {}), c.terms, r)
    return {b: terms for b, terms in out.items() if terms}


# The table's two kinds: each builds the entry of a monomial u (as the
# element unit) from scratch.


def _right_entry(spec, word, unit, tail):
    return _reduced(spec, _push(spec.tmd.sigma_bar, word, unit), tail)


def _left_entry(spec, word, unit, tail):
    raw = _push(spec._sigma_t, word[::-1], unit)
    return _reduced(spec, {w[::-1]: c for w, c in raw.items()}, tail)


_ENTRIES = {"right": _right_entry, "left": _left_entry}


def _twisted(spec, kind, word, a, tail, out, keep=None):
    """out[b] += s * entry(u)[b] over the terms {u: s} of a, for the basis
    words b in keep (every b when keep is None); returns out.

    The entries come from the spec's twist table, built on first use; out
    maps basis words to term dicts, which may end up empty.
    """
    table = spec._twists
    for u, s in a.items():
        key = (kind, word, u, tail)
        entry = table.get(key)
        if entry is None:
            unit = AlgElement(spec.presentation, {u: spec.context.one})
            entry = table[key] = _ENTRIES[kind](spec, word, unit, tail)
        for b, terms in entry.items():
            if keep is None or b in keep:
                add_scaled(out.setdefault(b, {}), terms, s)
    return out


def _elements(spec, out):
    pres = spec.presentation
    return {b: AlgElement(pres, terms) for b, terms in out.items() if terms}


def right_mul(spec, x, a):
    """The right action of the algebra: mul by a on the empty form word."""
    if not isinstance(a, AlgElement):
        a = spec.presentation.scalar(a)
    return mul(spec, x, FormElement(spec, 0, {(): a} if a else {}))


def _right_terms(spec, omega):
    """right_coords as term dicts {basis word: {normal word: scalar}},
    which may be empty."""
    out = {}
    for word, a in omega.terms.items():
        _twisted(spec, "right", word, a.terms, (), out)
    return out


def right_coords(spec, omega):
    """Right coefficients of a form, summed: omega = sum_w w*out[w], w basis
    words; each left coefficient crosses its word through sigma-bar, read
    from the twist table."""
    return _elements(spec, _right_terms(spec, omega))


def mul(spec, x, y):
    """Product of forms; the right factor's coefficients cross x through
    sigma, read from the twist table, and x's coefficient multiplies each
    basis word's sum once."""
    if x.spec is not spec or y.spec is not spec:
        raise ValueError("forms belong to a different calculus")
    degree = x.degree + y.degree
    coords = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            pushed = _twisted(spec, "left", u, cv.terms, v, {})
            add_scaled(coords, _elements(spec, pushed), cu)
    return FormElement(spec, degree, coords)


def d(spec, x):
    """Exterior differential; raises DegreeOverflow at the top degree."""
    pres = spec.presentation
    if isinstance(x, AlgElement):
        row = spec.tmd.partial(x)
        return FormElement(spec, 1, {(i,): c for i, c in enumerate(row) if c})
    if x.spec is not spec:
        raise ValueError("form belongs to a different calculus")
    if not x.terms:
        return FormElement(spec, x.degree + 1, {})
    if x.degree >= spec.top_degree:
        raise DegreeOverflow(
            f"d on degree {x.degree} leaves the calculus (top degree "
            f"{spec.top_degree})"
        )
    coords = {}
    for word, a in x.terms.items():
        unit = FormElement(spec, len(word), {word: pres.one})
        add_scaled(coords, mul(spec, d(spec, a), unit).terms)
        add_scaled(coords, _d_word(spec, word).terms, a)
    return FormElement(spec, x.degree + 1, coords)


def _d_word(spec, word):
    hit = spec._dword_memo.get(word)
    if hit is None:
        if not word:  # d 1 = 0
            hit = spec.zero(1)
        elif len(word) == 1:
            hit = spec.d_on_forms[word[0]]
        else:
            pres = spec.presentation
            head, rest = word[:1], word[1:]
            unit_rest = FormElement(spec, len(rest), {rest: pres.one})
            unit_head = FormElement(spec, 1, {head: pres.one})
            hit = mul(spec, spec.d_on_forms[head[0]], unit_rest) - mul(
                spec, unit_head, _d_word(spec, rest)
            )
        spec._dword_memo[word] = hit
    return hit


def check_d_squared(spec, length_bound):
    """Apply d twice to every short basis word and to each basis form.

    Only failing inputs become checks, named "d^2 at <input>"; counts
    carry the number of inputs.
    """
    pres = spec.presentation
    report = CheckReport(inputs=0)

    def fail(label, witness):
        report.add(f"d^2 at {label}", False, witness, input=label)

    for word in pres.normal_words(length_bound):
        dd = d(spec, d(spec, pres._monomial(word)))
        report.counts["inputs"] += 1
        if dd:
            fail(pres.word_str(word), dd)
    for i, name in enumerate(spec.form_names):
        report.counts["inputs"] += 1
        value = spec.d_on_forms[i]
        try:
            dd = d(spec, value)
        except DegreeOverflow:
            fail(f"d {name}", value)
            continue
        if dd:
            fail(f"d {name}", dd)
    return report


class DensityWitness:
    """Families (a_t, b_t) per index with sum_t a_t*partial_k(b_t) = delta_ik."""

    def __init__(self, tmd, pairs):
        self.tmd = tmd
        self.pairs = pairs

    def holds(self):
        pres = self.tmd.presentation
        for i in range(self.tmd.n):
            totals = [pres.zero] * self.tmd.n
            for a, b in self.pairs[i]:
                row = self.tmd.partial(b)
                for k in range(self.tmd.n):
                    totals[k] = totals[k] + a * row[k]
            for k in range(self.tmd.n):
                want = pres.one if k == i else pres.zero
                if totals[k] != want:
                    return False
        return True

    def __repr__(self):
        sizes = ", ".join(str(len(p)) for p in self.pairs)
        return f"<DensityWitness family sizes [{sizes}]>"


def check_density(spec, length_bound):
    """Solve for families witnessing density over words up to the bound.

    Returns a verified DensityWitness, or None when no witness exists
    within the bound.
    """
    tmd = spec.tmd
    pres = spec.presentation
    n = tmd.n
    words = pres.normal_words(length_bound)
    rows = {(k, ()): {} for k in range(n)}
    for v in words:
        if not v:
            continue
        partial_v = tmd.partial(pres._monomial(v))
        for u in words:
            au = pres._monomial(u)
            for k in range(n):
                if not partial_v[k]:
                    continue
                prod = au * partial_v[k]
                for w, s in prod.terms.items():
                    rows.setdefault((k, w), {})[(u, v)] = s
    system = LinearSystem()
    for (k, w), coeffs in sorted(rows.items()):
        rhs = {k: pres.context.one} if w == () else None
        system.add(coeffs, rhs)
    pairs = []
    for i in range(n):
        sol = system.solve(i)
        if sol is None:
            return None
        family = [
            (pres.monomial(u, coeff=c), pres.monomial(v)) for (u, v), c in sorted(sol.items())
        ]
        pairs.append(tuple(family))
    witness = DensityWitness(tmd, tuple(pairs))
    if not witness.holds():
        raise RuntimeError("density solver produced an invalid witness")
    return witness
