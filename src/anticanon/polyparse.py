"""Parser for polynomial and scalar expressions.

Grammar (whitespace-insensitive)::

    expr    :=  ['+'|'-'] term (('+'|'-') term)*
    term    :=  factor (('*'|'/') factor | factor)*     # adjacency multiplies
    factor  :=  primary ('^' integer)?
    primary :=  integer | 'i' | identifier | '(' expr ')'

``i`` is the imaginary unit.  Division is only allowed by expressions that
reduce to a nonzero constant, which makes ``3/4`` and ``(1+i)/2`` legal while
keeping the result a polynomial.  Exponents are non-negative integers.
The printer in :mod:`anticanon.exact` emits text this parser maps back to the
identical canonical form.

:func:`parse_scalar` reads plain Gaussian rationals (``a``, ``b*i``, ``bi``,
``i``, ``a±b*i``) directly and hands any other text to the grammar, so both
accept the same language with the same values and errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .exact import ExactScalar, Poly


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


_OPS = set("+-*/^(),=;")
# ASCII only: str.isdigit also accepts superscripts such as "²", which int()
# then rejects.
_DIGIT_CHARS = frozenset("0123456789")


def tokenize(text: str) -> list[Token]:
    """Split an expression into tokens, keeping character offsets."""
    out: list[Token] = []
    k, n = 0, len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _DIGIT_CHARS:
            j = k
            while j < n and text[j] in _DIGIT_CHARS:
                j += 1
            out.append(Token("int", text[k:j], k))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("ident", text[k:j], k))
            k = j
            continue
        if ch in _OPS:
            out.append(Token("op", ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", col=k)
    out.append(Token("end", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[Token], allowed_vars: set[str] | None):
        self.tokens = tokens
        self.k = 0
        self.allowed = allowed_vars

    def peek(self) -> Token:
        return self.tokens[self.k]

    def next(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", col=tok.pos)
        return tok

    # -- grammar ------------------------------------------------------------
    def expr(self) -> Poly:
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self.next()
            negate = tok.text == "-"
        total = self.term()
        if negate:
            total = -total
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.next()
                rhs = self.term()
                total = total - rhs if tok.text == "-" else total + rhs
            else:
                return total

    def term(self) -> Poly:
        total = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.next()
                rhs = self.factor()
                if tok.text == "*":
                    total = total * rhs
                else:
                    if not rhs.is_constant() or rhs.is_zero():
                        raise ParseError("can only divide by a nonzero constant",
                                         col=tok.pos)
                    total = total * Poly.const(rhs.constant_value().inverse())
            elif tok.kind in ("int", "ident") or (tok.kind == "op" and tok.text == "("):
                total = total * self.factor()
            else:
                return total

    def factor(self) -> Poly:
        base = self.primary()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            e = self.next()
            neg = False
            if e.kind == "op" and e.text == "-":
                neg, e = True, self.next()
            if e.kind != "int":
                raise ParseError("expected an integer exponent", col=e.pos)
            if neg:
                raise ParseError("negative exponents are not allowed", col=e.pos)
            return base ** int(e.text)
        return base

    def primary(self) -> Poly:
        tok = self.next()
        if tok.kind == "int":
            return Poly.const(int(tok.text))
        if tok.kind == "ident":
            if tok.text == "i":
                return Poly.const(ExactScalar.i())
            if self.allowed is not None and tok.text not in self.allowed:
                raise ParseError(f"unknown variable {tok.text!r}", col=tok.pos)
            return Poly.var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", col=tok.pos)


def parse_poly(text: str, variables: "set[str] | list[str] | tuple[str, ...] | None" = None) -> Poly:
    """Parse an expression into canonical :class:`Poly` form.

    When ``variables`` is given, identifiers outside that set are rejected;
    otherwise any identifier (except ``i``) names a variable.
    """
    allowed = set(variables) if variables is not None else None
    parser = _Parser(tokenize(text), allowed)
    result = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", col=tail.pos)
    return result


# A plain Gaussian rational.  Denominators are nonzero and digits are ASCII,
# so every match means what the grammar would read: the sign between the
# parts is required, because "2 3i" multiplies.
_RATIONAL = r"[0-9]+(?:\s*/\s*0*[1-9][0-9]*)?"
_IMAGINARY = rf"(?:{_RATIONAL}\s*\*?\s*)?i"
_GAUSSIAN = re.compile(rf"\s*(?:(?P<re>[+-]?\s*{_RATIONAL})"
                       rf"(?:\s*(?P<im>[+-]\s*{_IMAGINARY}))?"
                       rf"|(?P<im_only>[+-]?\s*{_IMAGINARY}))\s*")
_DIGITS = re.compile(r"[0-9]+")


def _signed_rational(part: "str | None") -> Fraction:
    """Value of a matched ``[±] [p[/q]]`` part: a missing part is 0 and a
    missing magnitude (``i``) is 1."""
    if part is None:
        return Fraction(0)
    digits = _DIGITS.findall(part)          # [], [p] or [p, q]
    num = int(digits[0]) if digits else 1
    den = int(digits[1]) if len(digits) > 1 else 1
    return Fraction(-num if "-" in part else num, den)


def parse_scalar(text: str) -> ExactScalar:
    """Parse a constant expression such as ``-3/4 + 2*i``."""
    match = _GAUSSIAN.fullmatch(text)
    if match is not None:
        return ExactScalar(_signed_rational(match["re"]),
                           _signed_rational(match["im"] or match["im_only"]))
    return parse_poly(text, variables=set()).constant_value()
