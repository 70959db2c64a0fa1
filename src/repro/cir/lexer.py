"""Tokenizer for the C subset used by the Polybench sources.

The lexer understands the pieces of C that matter to SOCRATES:
identifiers, integer/float/string/char literals, all the operators that
appear in expression-level C, preprocessor lines (``#include``,
``#define``, ``#pragma``) which are kept as single directive tokens,
and both comment styles (stripped).
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import Iterator, List, Optional

KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "restrict", "return",
        "short", "signed", "sizeof", "static", "struct", "switch",
        "typedef", "union", "unsigned", "void", "volatile", "while",
    }
)

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


class TokenKind(enum.Enum):
    """Lexical category of a :class:`Token`."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    CHAR = "char"
    OP = "op"
    DIRECTIVE = "directive"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    line: int
    col: int

    def is_op(self, *texts: str) -> bool:
        """Return True when this token is an operator with one of ``texts``."""
        return self.kind is TokenKind.OP and self.text in texts

    def is_keyword(self, *texts: str) -> bool:
        """Return True when this token is a keyword with one of ``texts``."""
        return self.kind is TokenKind.KEYWORD and self.text in texts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"


class LexError(ValueError):
    """Raised when the lexer meets a character it cannot tokenize."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class Lexer:
    """Convert C source text into a token stream.

    Preprocessor lines are not expanded; each one becomes a single
    :attr:`TokenKind.DIRECTIVE` token whose text is the whole logical
    line (with ``\\``-continuations joined).  This is exactly what the
    parser needs: ``#pragma`` lines become AST nodes, ``#include`` and
    ``#define`` are preserved verbatim.
    """

    def __init__(self, source: str) -> None:
        self._src = source
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokens(self) -> List[Token]:
        """Tokenize the whole input and return the token list (EOF last)."""
        return list(self._iter_tokens())

    def _iter_tokens(self) -> Iterator[Token]:
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._src):
                yield Token(TokenKind.EOF, "", self._line, self._col)
                return
            token = self._next_token()
            yield token

    # -- scanning helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._src):
            return self._src[index]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._src):
                return
            if self._src[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _at_line_start(self) -> bool:
        index = self._pos - 1
        while index >= 0:
            char = self._src[index]
            if char == "\n":
                return True
            if char not in " \t":
                return False
            index -= 1
        return True

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._src):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(self._src) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._src):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", self._line, self._col)
            else:
                return

    # -- token producers ---------------------------------------------------

    def _next_token(self) -> Token:
        line, col = self._line, self._col
        char = self._peek()

        if char == "#" and self._at_line_start():
            return self._lex_directive(line, col)
        if char.isalpha() or char == "_":
            return self._lex_ident(line, col)
        if char.isdigit() or (char == "." and self._peek(1).isdigit()):
            return self._lex_number(line, col)
        if char == '"':
            return self._lex_string(line, col)
        if char == "'":
            return self._lex_char(line, col)
        for op in _OPERATORS:
            if self._src.startswith(op, self._pos):
                self._advance(len(op))
                return Token(TokenKind.OP, op, line, col)
        raise LexError(f"unexpected character {char!r}", line, col)

    def _lex_directive(self, line: int, col: int) -> Token:
        parts: List[str] = []
        while self._pos < len(self._src):
            char = self._peek()
            if char == "\\" and self._peek(1) == "\n":
                self._advance(2)
                parts.append(" ")
                continue
            if char == "\n":
                break
            parts.append(char)
            self._advance()
        text = "".join(parts).strip()
        return Token(TokenKind.DIRECTIVE, text, line, col)

    def _lex_ident(self, line: int, col: int) -> Token:
        start = self._pos
        while self._pos < len(self._src) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        # interned: every parse of a name shares one string
        text = sys.intern(self._src[start : self._pos])
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, col)

    def _lex_number(self, line: int, col: int) -> Token:
        start = self._pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == ".":
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() in "eE" and (
                self._peek(1).isdigit()
                or (self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        # integer / float suffixes
        while self._peek() and self._peek() in "uUlLfF":
            if self._peek() in "fF":
                is_float = True
            self._advance()
        text = self._src[start : self._pos]
        return Token(TokenKind.FLOAT if is_float else TokenKind.INT, text, line, col)

    def _lex_string(self, line: int, col: int) -> Token:
        start = self._pos
        self._advance()  # opening quote
        while self._pos < len(self._src) and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            self._advance()
        if self._pos >= len(self._src):
            raise LexError("unterminated string literal", line, col)
        self._advance()  # closing quote
        return Token(TokenKind.STRING, self._src[start : self._pos], line, col)

    def _lex_char(self, line: int, col: int) -> Token:
        start = self._pos
        self._advance()  # opening quote
        while self._pos < len(self._src) and self._peek() != "'":
            if self._peek() == "\\":
                self._advance()
            self._advance()
        if self._pos >= len(self._src):
            raise LexError("unterminated character literal", line, col)
        self._advance()  # closing quote
        return Token(TokenKind.CHAR, self._src[start : self._pos], line, col)


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` in one call."""
    return Lexer(source).tokens()
