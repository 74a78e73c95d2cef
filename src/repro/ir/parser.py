"""Tokenizer and recursive-descent parser for the mini language.

The concrete grammar (``//`` comments and blank lines are ignored)::

    block     ::= statement*
    statement ::= IDENT '=' expr ';'?
    expr      ::= term  (('+' | '-' | '|') term)*
    term      ::= factor (('*' | '/' | '%' | '&') factor)*
    factor    ::= IDENT | INT | '(' expr ')'

``*``, ``/``, ``%`` and ``&`` bind tighter than ``+``, ``-`` and ``|``;
operators of equal precedence associate left.  The parser produces the
:class:`~repro.ir.ast.BasicBlock` AST; ``parse_block(block.source())`` is
the identity (round-trip property, tested).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.ast import Assign, BasicBlock, BinOp, Const, Expr, Var
from repro.ir.ops import Opcode

__all__ = ["ParseError", "Token", "tokenize", "parse_block", "parse_expr"]

_TERM_OPS = {"*": Opcode.MUL, "/": Opcode.DIV, "%": Opcode.MOD, "&": Opcode.AND}
_EXPR_OPS = {"+": Opcode.ADD, "-": Opcode.SUB, "|": Opcode.OR}
_PUNCT = set("=();") | set(_TERM_OPS) | set(_EXPR_OPS)


class ParseError(ValueError):
    """Raised on any lexical or syntactic error, with line/column info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens; raises :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("//", 1)[0]
        col = 0
        n = len(line)
        while col < n:
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            start = col
            if ch.isalpha() or ch == "_":
                while col < n and (line[col].isalnum() or line[col] == "_"):
                    col += 1
                tokens.append(Token("ident", line[start:col], line_no, start + 1))
            elif ch.isdigit():
                while col < n and line[col].isdigit():
                    col += 1
                if col < n and (line[col].isalpha() or line[col] == "_"):
                    raise ParseError(
                        f"malformed number {line[start:col + 1]!r}", line_no, start + 1
                    )
                tokens.append(Token("int", line[start:col], line_no, start + 1))
            elif ch in _PUNCT:
                col += 1
                tokens.append(Token("punct", ch, line_no, start + 1))
            else:
                raise ParseError(f"unexpected character {ch!r}", line_no, start + 1)
    last_line = source.count("\n") + 1
    tokens.append(Token("eof", "", last_line, 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._current
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _error(self, message: str) -> ParseError:
        tok = self._current
        return ParseError(message, tok.line, tok.column)

    def _accept_punct(self, text: str) -> bool:
        tok = self._current
        if tok.kind == "punct" and tok.text == text:
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> None:
        if not self._accept_punct(text):
            raise self._error(f"expected {text!r}, found {self._current.text!r}")

    # -- grammar productions ----------------------------------------------

    def block(self) -> BasicBlock:
        statements: list[Assign] = []
        while self._current.kind != "eof":
            statements.append(self.statement())
        return BasicBlock(tuple(statements))

    def statement(self) -> Assign:
        tok = self._current
        if tok.kind != "ident":
            raise self._error(f"expected variable name, found {tok.text!r}")
        self._advance()
        self._expect_punct("=")
        expr = self.expr()
        self._accept_punct(";")  # terminator optional
        return Assign(tok.text, expr)

    def expr(self) -> Expr:
        node = self.term()
        while self._current.kind == "punct" and self._current.text in _EXPR_OPS:
            op = _EXPR_OPS[self._advance().text]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self._current.kind == "punct" and self._current.text in _TERM_OPS:
            op = _TERM_OPS[self._advance().text]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        tok = self._current
        if tok.kind == "ident":
            self._advance()
            return Var(tok.text)
        if tok.kind == "int":
            self._advance()
            return Const(int(tok.text))
        if self._accept_punct("("):
            node = self.expr()
            self._expect_punct(")")
            return node
        raise self._error(f"expected operand, found {tok.text!r}")


def parse_block(source: str) -> BasicBlock:
    """Parse a whole basic block (a sequence of assignment statements)."""
    parser = _Parser(tokenize(source))
    return parser.block()


def parse_expr(source: str) -> Expr:
    """Parse a single expression (no assignment); must consume all input."""
    parser = _Parser(tokenize(source))
    node = parser.expr()
    if parser._current.kind != "eof":
        raise parser._error(f"trailing input {parser._current.text!r}")
    return node
