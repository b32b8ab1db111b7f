"""Problem files and expression syntax.

A problem file is line oriented:

    # comment
    declare: exp increasing positive
    option: max-rounds 40
    assume: 0 < x
    assume: x < y
    prove: (1 + x^2) / (2 + exp(y)) < (2 + y^2) / (1 + exp(x))

Expressions use ``+ - * / ^`` with ``^`` binding tightest and taking an
integer exponent, parentheses, declared unary applications, and exact
rational literals written ``p/q``.  Decimal literals are rejected to keep the
arithmetic exact.  Relations are ``< <= = >= >``; the strict and non-strict
greater-than forms are normalized at parse time by swapping sides.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .monofun import MonoDecl
from .terms import (App, Div, Neg, One, Pow, Prod, RawTerm, Scale, Sum, Value,
                    Var)

RELATIONS = ("<=", ">=", "!=", "<", ">", "=")

#: How deep parentheses, application arguments, unary minus signs and
#: chained divisions may nest; deeper input is a ParseError rather than a
#: RecursionError here or in the recursive passes over the term that follow.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ProblemFile:
    def __init__(self):
        self.declarations: Dict[str, MonoDecl] = {}
        self.hypotheses: List[tuple] = []
        self.goal: Optional[tuple] = None
        self.options: Dict[str, int] = {}


# ---------------------------------------------------------------------------
# Tokenizer.
# ---------------------------------------------------------------------------


class _Token(Value):
    # kind: NUM IDENT OP REL LPAREN RPAREN END
    __slots__ = ("kind", "text", "line", "column")


def _tokenize(text: str, line: int, start_col: int = 1) -> List[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = start_col + i
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # the digits int() reads; isdigit() takes "²"
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                raise ParseError(
                    "decimal literals are not supported; write an exact "
                    "rational like 7/2", line, col)
            try:
                int(text[i:j])
            except ValueError:  # beyond the interpreter's digit limit
                raise ParseError(f"integer literal of {j - i} digits is too "
                                 "long", line, col) from None
            tokens.append(_Token("NUM", text[i:j], line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            i = j
            continue
        two = text[i:i + 2]
        if two in ("<=", ">=", "!="):
            tokens.append(_Token("REL", two, line, col))
            i += 2
            continue
        if ch in "<>=":
            tokens.append(_Token("REL", ch, line, col))
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(_Token("OP", ch, line, col))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, line, col))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, line, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("END", "", line, start_col + n))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent expression parser.
# ---------------------------------------------------------------------------


class _ExprParser:
    def __init__(self, tokens: List[_Token], declared: Dict[str, MonoDecl]):
        self.tokens = tokens
        self.pos = 0
        self.declared = declared
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind.lower()
            raise ParseError(f"expected {want}, found {tok.text or 'end of line'}",
                             tok.line, tok.column)
        return self.take()

    def descend(self, token: _Token) -> None:
        """Go one level deeper at ``token``, or fail past the bound."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} "
                             "levels deep", token.line, token.column)
        self.depth += 1

    def nested(self, opener: _Token, parse) -> RawTerm:
        """``parse()`` one nesting level below the one ``opener`` is on."""
        self.descend(opener)
        node = parse()
        self.depth -= 1
        return node

    # A run of ``+ -`` is one flat Sum and a run of ``*`` one flat Prod, so
    # a long chain does not nest; normalization is the same either way.  A
    # run of ``/`` does nest, to the left, so each division pushes the whole
    # term one level down: a term leaves ``depth`` raised by its divisions
    # and a sum is as deep as its deepest term.

    def parse_expression(self) -> RawTerm:
        start = self.depth
        parts = [self.parse_term()]
        deepest = self.depth
        while self.peek().kind == "OP" and self.peek().text in "+-":
            self.depth = start
            op = self.take().text
            right = self.parse_term()
            deepest = max(deepest, self.depth)
            parts.append(right if op == "+" else Neg(right))
        self.depth = deepest
        return parts[0] if len(parts) == 1 else Sum(parts)

    def parse_term(self) -> RawTerm:
        parts = [self.parse_unary()]
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.take()
            if op.text == "*":
                parts.append(self.parse_unary())
            else:
                self.descend(op)
                parts = [Div(_product(parts), self.parse_unary())]
        return _product(parts)

    def parse_unary(self) -> RawTerm:
        if self.peek().kind == "OP" and self.peek().text == "-":
            return -self.nested(self.take(), self.parse_unary)
        return self.parse_power()

    def parse_power(self) -> RawTerm:
        base = self.parse_atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            caret = self.take()
            sign = 1
            if self.peek().kind == "OP" and self.peek().text == "-":
                self.take()
                sign = -1
            tok = self.peek()
            if tok.kind != "NUM":
                raise ParseError("exponent must be an integer literal",
                                 tok.line, tok.column)
            self.take()
            exponent = sign * int(tok.text)
            if exponent == 0:
                raise ParseError("exponent 0 is not allowed; simplify it away",
                                 caret.line, caret.column)
            return Pow(base, exponent)
        return base

    def parse_atom(self) -> RawTerm:
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            value = int(tok.text)
            return One() if value == 1 else Scale(value, One())
        if tok.kind == "IDENT":
            self.take()
            if self.peek().kind == "LPAREN":
                if tok.text not in self.declared:
                    raise ParseError(f"undeclared function symbol {tok.text!r}",
                                     tok.line, tok.column)
                arg = self.nested(self.take(), self.parse_expression)
                self.expect("RPAREN")
                return App(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "LPAREN":
            node = self.nested(self.take(), self.parse_expression)
            self.expect("RPAREN")
            return node
        raise ParseError(f"expected an expression, found "
                         f"{tok.text or 'end of line'}", tok.line, tok.column)


def _product(parts: List[RawTerm]) -> RawTerm:
    return parts[0] if len(parts) == 1 else Prod(parts)


def parse_expression(text: str,
                     declared: Optional[Dict[str, MonoDecl]] = None,
                     line: int = 1, start_col: int = 1) -> RawTerm:
    parser = _ExprParser(_tokenize(text, line, start_col), declared or {})
    node = parser.parse_expression()
    tok = parser.peek()
    if tok.kind != "END":
        raise ParseError(f"unexpected trailing input {tok.text!r}",
                         tok.line, tok.column)
    return node


def _parse_comparison(text: str, declared: Dict[str, MonoDecl],
                      line: int, start_col: int) -> tuple:
    parser = _ExprParser(_tokenize(text, line, start_col), declared)
    lhs = parser.parse_expression()
    tok = parser.peek()
    if tok.kind != "REL":
        raise ParseError("expected a relation (< <= = >= >)",
                         tok.line, tok.column)
    parser.take()
    rel = tok.text
    if rel == "!=":
        raise ParseError("disequalities are not supported (no case splits)",
                         tok.line, tok.column)
    parser.depth = 0  # each side nests on its own
    rhs = parser.parse_expression()
    end = parser.peek()
    if end.kind != "END":
        detail = ("chained comparisons are not supported"
                  if end.kind == "REL" else
                  f"unexpected trailing input {end.text!r}")
        raise ParseError(detail, end.line, end.column)
    if rel == ">":
        return (rhs, "<", lhs)
    if rel == ">=":
        return (rhs, "<=", lhs)
    return (lhs, rel, rhs)


_OPTION_KEYS = {"max-rounds", "root-denom-bound"}


def parse_problem(text: str) -> ProblemFile:
    problem = ProblemFile()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0]
        if not stripped.strip():
            continue
        if ":" not in stripped:
            raise ParseError("expected a section like assume:, prove:, "
                             "refute:, declare:, or option:",
                             lineno, len(raw_line) - len(raw_line.lstrip()) + 1)
        head, _, rest = stripped.partition(":")
        section = head.strip()
        body_col = stripped.index(":") + 2
        body = rest
        if section == "declare":
            _parse_declaration(problem, body, lineno, body_col)
        elif section == "option":
            _parse_option(problem, body, lineno, body_col)
        elif section in ("assume", "refute"):
            problem.hypotheses.append(
                _parse_comparison(body, problem.declarations, lineno, body_col))
        elif section == "prove":
            if problem.goal is not None:
                raise ParseError("a problem may state at most one goal",
                                 lineno, 1)
            problem.goal = _parse_comparison(body, problem.declarations,
                                             lineno, body_col)
        else:
            raise ParseError(f"unknown section {section!r}", lineno, 1)
    return problem


def _parse_declaration(problem: ProblemFile, body: str, line: int,
                       col: int) -> None:
    words = body.split()
    if len(words) < 2 or len(words) > 3:
        raise ParseError("declare lines read: declare: NAME "
                         "increasing|decreasing [positive|nonnegative]",
                         line, col)
    name, direction = words[0], words[1]
    if direction not in ("increasing", "decreasing"):
        raise ParseError("monotone direction must be 'increasing' or "
                         "'decreasing'", line, col)
    range_sign = None
    if len(words) == 3:
        if words[2] not in ("positive", "nonnegative"):
            raise ParseError("range sign must be 'positive' or 'nonnegative'",
                             line, col)
        range_sign = "pos" if words[2] == "positive" else "nonneg"
    if name in problem.declarations:
        raise ParseError(f"function {name!r} declared twice", line, col)
    problem.declarations[name] = MonoDecl(name, direction == "increasing",
                                          range_sign)


def _parse_option(problem: ProblemFile, body: str, line: int, col: int) -> None:
    words = body.split()
    if len(words) != 2 or words[0] not in _OPTION_KEYS:
        raise ParseError("option lines read: option: max-rounds N or "
                         "option: root-denom-bound N", line, col)
    try:
        value = int(words[1])
        if value <= 0:
            raise ValueError
    except ValueError:
        raise ParseError(f"option {words[0]} needs a positive integer",
                         line, col) from None
    problem.options[words[0]] = value
