"""Lexer for MiniC.

MiniC is the C subset the benchmark suite is written in: ``int``/``float``
scalars, pointers, global arrays, structs, ``malloc``, and the usual
statement forms.  The lexer produces a flat token list consumed by the
recursive-descent parser.
"""

from __future__ import annotations

from typing import List, Union

from .errors import LexError, SourceLocation

KEYWORDS = {
    "int",
    "float",
    "void",
    "struct",
    "if",
    "else",
    "while",
    "do",
    "for",
    "return",
    "break",
    "continue",
    "malloc",
    "sizeof",
}

# Multi-character operators first so maximal munch works by ordered scan.
OPERATORS = [
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "~",
    "&",
    "|",
    "^",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
]


class Token:
    """A lexical token: kind, text/value, and source location.

    Kinds: ``"kw"`` (keyword), ``"ident"``, ``"int"``, ``"float"``,
    ``"punct"`` and ``"eof"``.
    """

    __slots__ = ("kind", "value", "loc")

    def __init__(self, kind: str, value: Union[str, int, float], loc: SourceLocation):
        self.kind = kind
        self.value = value
        self.loc = loc

    def is_kw(self, word: str) -> bool:
        return self.kind == "kw" and self.value == word

    def is_punct(self, text: str) -> bool:
        return self.kind == "punct" and self.value == text

    def __str__(self) -> str:
        return f"{self.kind}({self.value!r})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind!r}, {self.value!r}, {self.loc})"


class Lexer:
    """Single-pass scanner producing a list of tokens."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def _loc(self) -> SourceLocation:
        return SourceLocation(self.line, self.col)

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._loc()
                self._advance(2)
                while self.pos < len(self.source) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.source):
                    raise LexError("unterminated block comment", start)
                self._advance(2)
            else:
                return

    def _lex_number(self) -> Token:
        loc = self._loc()
        start = self.pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            text = self.source[start : self.pos]
            if len(text) == 2:
                raise LexError("malformed hex literal", loc)
            return Token("int", int(text, 16), loc)
        is_float = False
        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
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
        text = self.source[start : self.pos]
        if is_float:
            return Token("float", float(text), loc)
        return Token("int", int(text), loc)

    def _lex_word(self) -> Token:
        loc = self._loc()
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        if text in KEYWORDS:
            return Token("kw", text, loc)
        return Token("ident", text, loc)

    def tokens(self) -> List[Token]:
        """Scan the entire source and return tokens ending with EOF."""
        result: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                result.append(Token("eof", "", self._loc()))
                return result
            ch = self._peek()
            if ch.isdigit():
                result.append(self._lex_number())
            elif ch.isalpha() or ch == "_":
                result.append(self._lex_word())
            else:
                loc = self._loc()
                for opr in OPERATORS:
                    if self.source.startswith(opr, self.pos):
                        self._advance(len(opr))
                        result.append(Token("punct", opr, loc))
                        break
                else:
                    raise LexError(f"unexpected character {ch!r}", loc)


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source).tokens()
