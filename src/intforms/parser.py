"""Shared literal grammar and the presentation-file reader.

One tokenizer serves scalar literals, algebra elements, tensor terms, form
expressions, and ladder rules.  Scalars: integers, declared parameters, ^ with
(possibly negative) integer exponents, * / + - and parentheses.  Elements add
generator names (nonnegative powers, concatenation in written order).  Form
expressions add dot-joined form words; tensor terms join two elements with @.

Presentation files are ini-like: [section] headers, # comments, directive
lines.  This module splits them into positioned raw directives; assembly into
domain objects happens in presets.py.
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


_PUNCT = ("->", "@", "^", "*", "+", "-", "/", "(", ")", ".", ",", "=", "[", "]", ":")


def tokenize(text, line=1, col_offset=0, literals=()):
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
        col = col_offset + i + 1
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
    tokens.append(_Token("EOF", None, col_offset + n + 1))
    return tokens


class _Monomial:
    """Intermediate product value: scalar coefficient, algebra word, form word."""

    __slots__ = ("coeff", "word", "form")

    def __init__(self, coeff, word=(), form=()):
        self.coeff = coeff
        self.word = word
        self.form = form


class _ExprParser:
    def __init__(self, tokens, context, presentation=None, form_names=(), line=1):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.presentation = presentation
        self.form_names = set(form_names)
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

    # expr := term (('+'|'-') term)*
    def parse_sum(self):
        terms = [self.parse_term()]
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            term = self.parse_term()
            if op == "-":
                term = _Monomial(-term.coeff, term.word, term.form)
            terms.append(term)
        return terms

    # term := factor (('*'|'/') factor)*
    def parse_term(self):
        value = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            tok = self.peek()
            rhs = self.parse_factor()
            if op == "/":
                if rhs.word or rhs.form:
                    self.fail("can only divide by a scalar", tok)
                value = _Monomial(value.coeff / rhs.coeff, value.word, value.form)
            else:
                if value.form and rhs.form:
                    self.fail("form words cannot be multiplied here", tok)
                if value.form and rhs.word:
                    self.fail("algebra coefficients must precede the form word", tok)
                value = _Monomial(
                    value.coeff * rhs.coeff, value.word + rhs.word, value.form + rhs.form
                )
        return value

    # factor := '-' factor | atom ['^' ['-'] INT]
    def parse_factor(self):
        if self.peek().kind == "-":
            self.next()
            inner = self.parse_factor()
            return _Monomial(-inner.coeff, inner.word, inner.form)
        atom = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
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
                return _Monomial(atom.coeff, atom.word * exp if exp else ())
            return _Monomial(atom.coeff ** exp, (), ())
        return atom

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "INT":
            return _Monomial(self.context.from_int(tok.value))
        if tok.kind == "FORM":
            return _Monomial(self.context.one, (), self.parse_form_tail(tok.value))
        if tok.kind == "NAME":
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
                if t.word or t.form:
                    self.fail("parentheses may only group scalars", tok)
                scalar = scalar + t.coeff
            return _Monomial(scalar)
        self.fail(f"got {tok.value!r}", tok, expected="a scalar, name, or '('")

    def parse_form_tail(self, first):
        word = [first]
        while self.peek().kind == ".":
            self.next()
            tok = self.next()
            if tok.kind != "FORM":
                self.fail("got a non-form name inside a form word", tok, expected="form name")
            word.append(tok.value)
        return tuple(word)


def _finish(parser):
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.fail(f"trailing input {tok.value!r}", tok)


def parse_scalar(context, text, line=1, col_offset=0):
    parser = _ExprParser(tokenize(text, line, col_offset), context, line=line)
    terms = parser.parse_sum()
    _finish(parser)
    total = context.zero
    for t in terms:
        if t.word or t.form:
            raise ParseError("scalar literal contains a non-scalar name", line, 1)
        total = total + t.coeff
    return total


def parse_element(presentation, text, line=1, col_offset=0):
    parser = _ExprParser(
        tokenize(text, line, col_offset), presentation.context, presentation, line=line
    )
    terms = parser.parse_sum()
    _finish(parser)
    coeffs = {}
    for t in terms:
        if t.form:
            raise ParseError("algebra element contains a form word", line, 1)
        coeffs[t.word] = coeffs.get(t.word, presentation.context.zero) + t.coeff
    return presentation.element(coeffs)


def parse_tensor(presentation, text, line=1, col_offset=0):
    """Sum of `element @ element` terms."""
    from .ncalg import TensorElement

    chunks = []
    depth = 0
    start = 0
    sign = 1
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0 and _splittable(text, i):
            chunks.append((sign, text[start:i], start))
            sign, start = 1, i + 1
        elif ch == "-" and depth == 0 and _splittable(text, i):
            chunks.append((sign, text[start:i], start))
            sign, start = -1, i + 1
    chunks.append((sign, text[start:], start))
    out = TensorElement(presentation, {})
    for sgn, chunk, offset in chunks:
        if "@" not in chunk:
            raise ParseError("tensor term lacks '@'", line, col_offset + offset + 1)
        left_text, right_text = chunk.split("@", 1)
        left = parse_element(presentation, left_text, line, col_offset + offset)
        right = parse_element(
            presentation, right_text, line, col_offset + offset + len(left_text) + 1
        )
        out = out + TensorElement.of(left, right, sgn)
    return out


def _splittable(text, i):
    # a +/- at depth 0 splits terms unless it is a unary sign or an exponent sign
    j = i - 1
    while j >= 0 and text[j] in " \t":
        j -= 1
    if j < 0:
        return False
    return text[j] not in "^*/+-(@"


def parse_form_terms(presentation, form_names, text, line=1, col_offset=0):
    """Parse into [(coefficient AlgElement, form word tuple)]; empty form
    words (pure algebra terms) are allowed and returned with word ()."""
    parser = _ExprParser(
        tokenize(text, line, col_offset, literals=form_names),
        presentation.context,
        presentation,
        form_names,
        line=line,
    )
    terms = parser.parse_sum()
    _finish(parser)
    out = []
    for t in terms:
        coeff = presentation.element({t.word: t.coeff})
        out.append((coeff, t.form))
    return out


def parse_ladder_rhs(context, form_names, text, line=1, col_offset=0):
    """`scalar * dual(formword)` or `dual(formword)`; returns (scalar, word)."""
    tokens = tokenize(text, line, col_offset, literals=form_names)
    parser = _ExprParser(tokens, context, line=line)
    coeff = context.one
    # optional scalar prefix up to 'dual('
    cut = None
    for k, tok in enumerate(tokens):
        if tok.kind == "NAME" and tok.value == "dual":
            cut = k
            break
    if cut is None:
        raise ParseError("ladder rule lacks dual(...)", line, col_offset + 1)
    if cut > 0:
        if tokens[cut - 1].kind != "*":
            raise ParseError("scalar prefix must be joined with '*'", line, tokens[cut - 1].col)
        prefix = _ExprParser(
            tokens[: cut - 1] + [_Token("EOF", None, tokens[cut - 1].col)], context, line=line
        )
        terms = prefix.parse_sum()
        _finish(prefix)
        coeff = context.zero
        for t in terms:
            if t.word or t.form:
                raise ParseError("ladder coefficient must be a scalar", line, tokens[0].col)
            coeff = coeff + t.coeff
    parser.pos = cut + 1
    parser.expect("(")
    tok = parser.next()
    if tok.kind != "FORM":
        raise ParseError("dual(...) needs a form word", line, tok.col, expected="form name")
    word = parser.parse_form_tail(tok.value)
    parser.expect(")")
    _finish(parser)
    return coeff, word


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


def parse_presentation_file(text):
    """Split a presentation file into {section: [(lineno, directive text)]}.

    Comments (# to end of line) and blank lines are dropped.  Unknown section
    headers raise ParseError; directive semantics are checked by the builder.
    """
    sections = {name: [] for name in _SECTIONS}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, 1)
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(
                    f"unknown section [{name}]", lineno, 1, expected="|".join(_SECTIONS)
                )
            current = name
            continue
        if current is None:
            raise ParseError("directive before any [section]", lineno, 1)
        sections[current].append((lineno, stripped))
    return sections
