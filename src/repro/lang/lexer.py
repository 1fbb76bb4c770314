"""Table-driven lexer for the mini concurrent language.

One compiled regular expression, matched at each position, names the
token class of every lexeme.  The character classes are ASCII: ``NAME`` is
``[A-Za-z_][A-Za-z0-9_]*`` and ``INT`` is ``[0-9]+``, so a Unicode digit
or letter (``²``, ``١``, ``é``) is an unexpected character, not part of a
number or name.  ``//`` and ``/* */`` comments and the whitespace
characters space, tab, CR and LF separate tokens (see ``docs/LANGUAGE.md``).
"""

from __future__ import annotations

import re
from typing import List

KEYWORDS = {
    "int", "lock", "unlock", "thread", "main", "if", "else", "while",
    "assert", "assume", "atomic", "start", "join", "skip", "nondet",
    "fence", "true", "false",
}

#: Lexeme classes, tried in order at each position (group name = token
#: kind; ``skip`` covers whitespace and comments).  Two-character
#: operators come first, so maximal munch holds.
_TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<int_lit>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>&&|\|\||[=!<>]=|[-+*&|^!~<>=(){};,])",
    re.DOTALL,
)


class LexError(ValueError):
    """Raised on unrecognized input."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Token:
    """A lexeme with its kind and 1-based source position.

    A plain ``__slots__`` class: a frozen dataclass costs three times as
    much to build, and the parser creates one per lexeme.  Equality,
    hashing and ``repr`` are value-based, as the dataclass's were.
    """

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind  # 'int_lit', 'ident', 'kw', 'op', 'eof'
        self.text = text
        self.line = line
        self.col = col

    def _key(self):
        return (self.kind, self.text, self.line, self.col)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Token({self.kind},{self.text!r}@{self.line}:{self.col})"


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with an ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    pos = 0
    for m in _TOKEN_RE.finditer(source):
        start = m.start()
        if start != pos:  # finditer skipped text no lexeme class matches
            break
        pos = m.end()
        kind = m.lastgroup
        text = m.group()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rfind("\n") + 1
            continue
        if kind == "open_comment":
            raise LexError("unterminated block comment", line, start - line_start + 1)
        if kind == "ident" and text in KEYWORDS:
            kind = "kw"
        append(Token(kind, text, line, start - line_start + 1))
    if pos != len(source):
        raise LexError(
            f"unexpected character {source[pos]!r}", line, pos - line_start + 1
        )
    append(Token("eof", "", line, pos - line_start + 1))
    return tokens
