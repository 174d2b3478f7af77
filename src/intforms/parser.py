"""Shared literal grammar and the sectioned-file reader.

One tokenizer and one recursive-descent parser serve scalar literals,
algebra elements, tensors, form expressions and ladder rules:

    sum       := term (('+' | '-') term)*
    term      := product ['@' product]
    product   := factor (('*' | '/') factor)*
    factor    := '-' factor | atom ['^' ['-'] INT]
    atom      := INT | parameter | generator | form_word
               | 'dual' '(' form_word ')' | '(' sum ')'
    form_word := FORM ('.' FORM)*

Parentheses group scalars only, generators take nonnegative powers up to
2^16, and algebra coefficients precede the form word.  Every entry point
parses one whole sum and then checks that each term has a kind it accepts:
scalar, algebra, form, dual or tensor.

Presentation and fixture files are ini-like: [section] headers, # comments,
directive lines.  This module splits them into positioned raw directives;
assembly into domain objects happens in presets.py and descent.py.
"""
from __future__ import annotations


class ParseError(ValueError):
    def __init__(self, message, line=1, col=1, expected=None):
        self.line = line
        self.col = col
        self.expected = expected
        tail = f" (expected {expected})" if expected else ""
        super().__init__(f"line {line}, col {col}: {message}{tail}")


class _Token:
    __slots__ = ("kind", "value", "col")

    def __init__(self, kind, value, col):
        self.kind = kind
        self.value = value
        self.col = col


_PUNCT = ("@", "^", "*", "+", "-", "/", "(", ")", ".")
_MAX_POWER = 1 << 16  # of a generator, checked before its word is built


def tokenize(text, line=1, literals=()):
    """Tokens with 1-based columns.  `literals` are exact strings (form
    names like "w+") matched with priority, longest first."""
    literals = sorted(literals, key=len, reverse=True)
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        matched = None
        for lit in literals:
            if text.startswith(lit, i):
                nxt = i + len(lit)
                # a literal must not be a proper prefix of a longer name
                if lit[-1].isalnum() and nxt < n and (text[nxt].isalnum() or text[nxt] == "_"):
                    continue
                matched = lit
                break
        if matched is not None:
            tokens.append(_Token("FORM", matched, col))
            i += len(matched)
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", int(text[i:j]), col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], col))
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(_Token(punct, punct, col))
                i += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", None, n + 1))
    return tokens


class _Monomial:
    """One term: scalar coefficient, algebra word, form word, the right leg's
    algebra word for a tensor term (None otherwise), and a mark for a
    dual(...) atom.  `col` is where the term starts."""

    __slots__ = ("coeff", "word", "form", "right", "dual", "col")

    def __init__(self, coeff, word=(), form=(), right=None, dual=False):
        self.coeff = coeff
        self.word = word
        self.form = form
        self.right = right
        self.dual = dual
        self.col = None

    def negated(self):
        out = _Monomial(-self.coeff, self.word, self.form, self.right, self.dual)
        out.col = self.col
        return out

    @property
    def kind(self):
        if self.right is not None:
            return "tensor"
        if self.dual:
            return "dual"
        if self.form:
            return "form"
        return "algebra" if self.word else "scalar"


class _ExprParser:
    def __init__(self, tokens, context, presentation=None, line=1):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.presentation = presentation
        self.line = line

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"got {tok.value!r}", self.line, tok.col, expected=kind)
        return tok

    def fail(self, message, tok, expected=None):
        raise ParseError(message, self.line, tok.col, expected=expected)

    # sum := term (('+'|'-') term)*
    def parse_sum(self):
        terms = [self.parse_term()]
        while self.peek().kind in ("+", "-"):
            negate = self.next().kind == "-"
            term = self.parse_term()
            terms.append(term.negated() if negate else term)
        return terms

    # term := product ['@' product]
    def parse_term(self):
        col = self.peek().col
        value = self.parse_product()
        if self.peek().kind == "@":
            self.next()
            right = self.parse_product()
            value = _Monomial(value.coeff * right.coeff, value.word, right=right.word)
        value.col = col
        return value

    # product := factor (('*'|'/') factor)*
    def parse_product(self):
        value = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            tok = self.peek()
            rhs = self.parse_factor()
            if op.kind == "/":
                if rhs.word or rhs.form:
                    self.fail("can only divide by a scalar", tok)
                try:
                    coeff = value.coeff / rhs.coeff
                except ZeroDivisionError:
                    self.fail("division by zero", op)
                value = _Monomial(coeff, value.word, value.form, dual=value.dual)
            else:
                if value.form and rhs.form:
                    self.fail("form words cannot be multiplied here", tok)
                if value.form and rhs.word:
                    self.fail("algebra coefficients must precede the form word", tok)
                value = _Monomial(
                    value.coeff * rhs.coeff,
                    value.word + rhs.word,
                    value.form + rhs.form,
                    dual=value.dual or rhs.dual,
                )
        return value

    # factor := '-' factor | atom ['^' ['-'] INT]
    def parse_factor(self):
        if self.peek().kind == "-":
            self.next()
            return self.parse_factor().negated()
        atom = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            tok = self.expect("INT")
            exp = sign * tok.value
            if atom.form:
                self.fail("form words take no exponents", tok)
            if atom.word:
                if len(set(atom.word)) != 1 or atom.coeff != 1:
                    self.fail("only a bare generator can be raised to a power", tok)
                if exp < 0:
                    self.fail("generators take nonnegative exponents", tok)
                if exp > _MAX_POWER:
                    self.fail("a generator power over 2^16", caret)
                return _Monomial(atom.coeff, atom.word * exp if exp else ())
            try:
                return _Monomial(atom.coeff ** exp)
            except ZeroDivisionError:
                self.fail("division by zero", caret)
        return atom

    # atom := INT | parameter | generator | form_word
    #       | 'dual' '(' form_word ')' | '(' sum ')'
    def parse_atom(self):
        tok = self.next()
        if tok.kind == "INT":
            return _Monomial(self.context.from_int(tok.value))
        if tok.kind == "FORM":
            return _Monomial(self.context.one, (), self.parse_form_tail(tok.value))
        if tok.kind == "NAME":
            if tok.value == "dual" and self.peek().kind == "(":
                self.next()
                first = self.next()
                if first.kind != "FORM":
                    self.fail("dual(...) needs a form word", first, expected="form name")
                form = self.parse_form_tail(first.value)
                self.expect(")")
                return _Monomial(self.context.one, (), form, dual=True)
            if tok.value in self.context.parameters:
                return _Monomial(self.context.parameter(tok.value))
            if self.presentation is not None:
                try:
                    idx = self.presentation.index(tok.value)
                except KeyError:
                    self.fail(f"unknown name {tok.value!r}", tok)
                return _Monomial(self.context.one, (idx,))
            self.fail(f"unknown parameter {tok.value!r}", tok)
        if tok.kind == "(":
            terms = self.parse_sum()
            self.expect(")")
            scalar = self.context.zero
            for t in terms:
                if t.kind != "scalar":
                    self.fail("parentheses may only group scalars", tok)
                scalar = scalar + t.coeff
            return _Monomial(scalar)
        self.fail(f"got {tok.value!r}", tok, expected="a scalar, name, or '('")

    # form_word := FORM ('.' FORM)*
    def parse_form_tail(self, first):
        word = [first]
        while self.peek().kind == ".":
            self.next()
            tok = self.next()
            if tok.kind != "FORM":
                self.fail("got a non-form name inside a form word", tok, expected="form name")
            word.append(tok.value)
        return tuple(word)


def _terms(what, kinds, context, text, line, presentation=None, form_names=()):
    """The terms of `text` read as one whole sum, each checked to be of one
    of `kinds`; `what` names the input in error messages."""
    parser = _ExprParser(tokenize(text, line, literals=form_names), context, presentation, line)
    terms = parser.parse_sum()
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.fail(f"trailing input {tok.value!r}", tok)
    for t in terms:
        if t.kind not in kinds:
            raise ParseError(
                f"{t.kind} term in {what}", line, t.col, expected=" or ".join(kinds) + " terms"
            )
    return terms


def parse_scalar(context, text, line=1):
    total = context.zero
    for t in _terms("a scalar literal", ("scalar",), context, text, line):
        total = total + t.coeff
    return total


def parse_element(presentation, text, line=1):
    ctx = presentation.context
    kinds = ("scalar", "algebra")
    coeffs = {}
    for t in _terms("an algebra element", kinds, ctx, text, line, presentation):
        coeffs[t.word] = coeffs.get(t.word, ctx.zero) + t.coeff
    return presentation.element(coeffs)


def parse_tensor(presentation, text, line=1):
    """Sum of `product @ product` terms."""
    from .ncalg import TensorElement

    ctx = presentation.context
    out = TensorElement(presentation, {})
    for t in _terms("a tensor", ("tensor",), ctx, text, line, presentation):
        left, right = presentation.monomial(t.word), presentation.monomial(t.right)
        out = out + TensorElement.of(left, right, t.coeff)
    return out


def parse_form_terms(presentation, form_names, text, line=1):
    """Parse into [(coefficient AlgElement, form word tuple)]; empty form
    words (pure algebra terms) are allowed and returned with word ()."""
    kinds = ("scalar", "algebra", "form")
    terms = _terms(
        "a form expression", kinds, presentation.context, text, line, presentation, form_names
    )
    return [(presentation.element({t.word: t.coeff}), t.form) for t in terms]


def parse_ladder_rhs(context, form_names, text, line=1):
    """`scalar * dual(formword)` or `dual(formword)`; returns (scalar, word)."""
    terms = _terms("a ladder rule", ("dual",), context, text, line, form_names=form_names)
    if len(terms) > 1:
        raise ParseError("a ladder rule has one dual(...) term", line, terms[1].col)
    return terms[0].coeff, terms[0].form


# -- presentation files -------------------------------------------------------

_SECTIONS = (
    "scalars",
    "algebra",
    "grading",
    "hopf",
    "derivation",
    "calculus",
    "forms",
    "ladder",
)


def parse_presentation_file(text, sections=_SECTIONS):
    """Split a sectioned file into {header: [(lineno, directive text)]}.

    Comments (# to end of line) and blank lines are dropped.  A directive
    keeps its indentation, so an offset in its text is one in its line.
    Every name in `sections` (the presentation-file sections by default) is
    listed, empty or not, and any other header raises ParseError.  Directive
    semantics are checked by the caller.
    """
    out = {name: [] for name in sections}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        header = line.strip()
        if not header:
            continue
        if header.startswith("["):
            if not header.endswith("]"):
                raise ParseError("unterminated section header", lineno, 1)
            current = header[1:-1].strip()
            if current not in sections:
                raise ParseError(
                    f"unknown section [{current}]", lineno, 1, expected="|".join(sections)
                )
            continue
        if current is None:
            raise ParseError("directive before any [section]", lineno, 1)
        out[current].append((lineno, line))
    return out
