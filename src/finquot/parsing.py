"""Recursive-descent parser for matrix entries.

Grammar (whitespace insignificant, byte offsets in errors):

    entry  := expr ('/' expr)?          one top-level division at most
    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := uint | var | '(' expr ')'
"""

from __future__ import annotations

import re

from .errors import EntryParseError
from .multipoly import MultiPoly
from .ratfunc import RatFunc

# Deepest parenthesis nesting accepted; each level costs four Python frames.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()/]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise EntryParseError("unexpected character", len(text) - len(stripped))
        offset = m.start(m.lastindex)
        kind = ("int", "name", "op")[m.lastindex - 1]
        tokens.append((kind, m.group(m.lastindex), offset))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, char: int, variables):
        self.text = text
        self.char = char
        self.variables = {name: i for i, name in enumerate(variables)}
        self.nvars = len(self.variables)
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        kind, value, offset = self._next()
        if kind != "op" or value != op:
            raise EntryParseError(f"expected {op!r}", offset)

    def parse_entry(self) -> RatFunc:
        num = self.parse_expr()
        kind, value, offset = self._peek()
        if kind == "op" and value == "/":
            self._next()
            den = self.parse_expr()
            kind, _, trailing = self._peek()
            if kind is not None:
                raise EntryParseError("trailing input", trailing)
            if den.is_zero():
                raise EntryParseError("zero denominator", offset)
            return RatFunc(num, den)
        if kind is not None:
            raise EntryParseError("trailing input", offset)
        return RatFunc.of_poly(num)

    def parse_expr(self) -> MultiPoly:
        kind, value, _ = self._peek()
        negate = False
        if kind == "op" and value in "+-":
            self._next()
            negate = value == "-"
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "+-":
                self._next()
                term = self.parse_term()
                acc = acc - term if value == "-" else acc + term
            else:
                return acc

    def parse_term(self) -> MultiPoly:
        acc = self.parse_factor()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value == "*":
                self._next()
                acc = acc * self.parse_factor()
            else:
                return acc

    def parse_factor(self) -> MultiPoly:
        base = self.parse_base()
        kind, value, _ = self._peek()
        if kind == "op" and value == "^":
            self._next()
            kind, value, offset = self._next()
            if kind != "int":
                raise EntryParseError("expected integer exponent", offset)
            return base ** int(value)
        return base

    def parse_base(self) -> MultiPoly:
        kind, value, offset = self._next()
        if kind == "int":
            return MultiPoly.const(self.char, self.nvars, int(value))
        if kind == "name":
            index = self.variables.get(value)
            if index is None:
                raise EntryParseError(f"unknown variable {value!r}", offset)
            return MultiPoly.variable(self.char, self.nvars, index)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise EntryParseError(f"parentheses nested deeper than {MAX_NESTING}", offset)
            self.depth += 1
            inner = self.parse_expr()
            self._expect_op(")")
            self.depth -= 1
            return inner
        raise EntryParseError("expected a value", offset)


def parse_entry(text: str, char: int, variables) -> RatFunc:
    """Parse one matrix entry over the given characteristic and variables."""
    return _Parser(text, char, variables).parse_entry()
