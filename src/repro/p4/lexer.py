"""Tokenizer for the P4-16 subset.

The reference scan (:meth:`Lexer.scan`) is a single compiled master-pattern
scan: one alternation covers whitespace, comments, numbers (including P4's
width-annotated literals like ``8w255`` and ``4w0xF``), words and
punctuation, so the hot path is one ``finditer`` step per token instead of
a per-character loop.  Line/column positions are tracked from the newline
counts of skipped whitespace and comments.

:meth:`Lexer.tokenize` memoises that scan per source line.  No token spans
a line break, so a line's tokens -- kind, text, value, width and column --
are a function of the line's text; the lexer looks each line up in one
bounded process-wide memo (:func:`line_tokens`, counted as ``lexer_hits`` /
``lexer_misses``) and stamps copies of the tokens with their line number.
The memo holds each line's tokens once, as shared :class:`Token` tuples
stamped line 0, so :func:`repro.p4.parser.parse_program` can assemble a
token list from them without copying a token; equal tokens of different
lines are one tuple (lines repeat a few names and symbols at the same
columns, so most tokens are).  The snapshots of one
compilation share most of their lines, so a reparse lexes only the lines
a pass rewrote.  It falls back to the full scan in two cases, so tokens
and every error message stay byte-identical to it:

* the source contains ``/*``: a block comment may span lines;
* a line fails to lex: the full scan raises the error at its position.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.metrics import MISSING, LruCache


class LexerError(Exception):
    """Raised on malformed input (unexpected character, bad literal...)."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class TokenKind(Enum):
    """Lexical token categories."""

    IDENTIFIER = "identifier"
    NUMBER = "number"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    END = "end"


KEYWORDS = frozenset(
    {
        "header", "struct", "control", "parser", "state", "transition", "select",
        "action", "table", "key", "actions", "default_action", "apply",
        "if", "else", "return", "exit", "true", "false", "default",
        "bit", "bool", "void", "in", "out", "inout", "const", "package",
    }
)

# Multi-character symbols must be listed before their prefixes.
SYMBOLS = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++",
    "(", ")", "{", "}", "[", "]", "<", ">", ";", ":", ",", ".", "=",
    "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "?", "@",
)

# The master pattern.  Alternative order matters: comments before the "/"
# symbol, width-annotated numbers before plain decimals, multi-character
# symbols before their single-character prefixes, and the catch-all
# ``error`` character last, so consecutive matches tile the source.
# Number bodies deliberately over-match ([0-9a-zA-Z]*) so malformed
# literals like ``0xZZ`` are caught here with a proper error instead of
# lexing as a number followed by an identifier.
_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>//[^\n]*|/\*(?s:.)*?\*/)
    | (?P<number>
          (?P<nwidth>\d+)w(?P<nbody>[0-9a-zA-Z]*)
        | 0[xXbB][0-9a-zA-Z]*
        | \d+
      )
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<symbol><<|>>|<=|>=|==|!=|&&|\|\||\+\+|[(){}\[\]<>;:,.=+\-*/%&|^!~?@])
    | (?P<error>(?s:.))
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    """A single token with its source position.

    A named tuple rather than a frozen dataclass: the lexer builds one per
    token of every reparsed snapshot, and a tuple is constructed without
    the per-field ``object.__setattr__`` a frozen dataclass pays.
    """

    kind: TokenKind
    text: str
    value: Optional[int] = None  # numeric value for NUMBER tokens
    width: Optional[int] = None  # explicit width for NUMBER tokens like 8w255
    line: int = 0
    column: int = 0

    def is_symbol(self, text: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.text == text


_IDENTIFIER = TokenKind.IDENTIFIER
_NUMBER = TokenKind.NUMBER
_KEYWORD = TokenKind.KEYWORD
_SYMBOL = TokenKind.SYMBOL


#: line text -> the tokens on it, stamped line 0 (see :func:`line_tokens`).
_LINE_TOKENS = LruCache("lexer", 4096)

#: Every distinct token of the memoised lines -> its one shared tuple.
_TOKENS: Dict["Token", "Token"] = {}
#: Distinct tokens kept before :data:`_TOKENS` starts over.
_TOKENS_LIMIT = 1 << 16

#: Builds a token without the named tuple's argument handling, which would
#: cost the memoised path a third of its time.
_new_tuple = tuple.__new__


def clear_lexer_cache() -> None:
    """Drop the line memo and its shared tokens (the counters keep growing)."""

    _LINE_TOKENS.clear()
    _TOKENS.clear()


class Lexer:
    """Scan P4 source text into a token list."""

    def __init__(self, source: str) -> None:
        self.source = source

    def tokenize(self) -> List[Token]:
        """The tokens of the source, assembled from the line memo."""

        source = self.source
        if "/*" in source:
            return self.scan()
        tokens: List[Token] = []
        append = tokens.append
        lines = source.split("\n")
        for line, text in enumerate(lines, 1):
            try:
                entry = line_tokens(text)
            except LexerError:
                return self.scan()
            for kind, token_text, value, width, _, column in entry:
                append(_new_tuple(Token, (kind, token_text, value, width, line, column)))
        append(Token(TokenKind.END, "", None, None, len(lines), len(lines[-1]) + 1))
        return tokens

    def scan(self) -> List[Token]:
        """The full scan of the whole source: the reference the memo must match."""

        source = self.source
        tokens: List[Token] = []
        append = tokens.append
        keywords = KEYWORDS
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of the current line

        for m in _TOKEN_RE.finditer(source):
            kind = m.lastgroup
            text = m.group()
            start = pos
            pos = m.end()
            if kind == "ws" or kind == "comment":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = start + text.rindex("\n") + 1
                continue
            column = start - line_start + 1
            if kind == "word":
                append(
                    Token(
                        _KEYWORD if text in keywords else _IDENTIFIER,
                        text,
                        None,
                        None,
                        line,
                        column,
                    )
                )
            elif kind == "symbol":
                if text == "/" and source.startswith("*", pos):
                    # The comment alternative only matches *terminated*
                    # block comments; a stray "/*" falls through to here.
                    raise LexerError("unterminated block comment", line, column)
                append(Token(_SYMBOL, text, None, None, line, column))
            elif kind == "number":
                append(self._make_number(m, text, line, column))
            else:
                raise LexerError(f"unexpected character {text!r}", line, column)

        append(Token(TokenKind.END, "", None, None, line, pos - line_start + 1))
        return tokens

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _make_number(m: re.Match, text: str, line: int, column: int) -> Token:
        width_text = m.group("nwidth")
        if width_text is not None:
            # Width-annotated literal: <width>w<value>.
            body = m.group("nbody")
            if not body:
                raise LexerError("missing value after width annotation", line, column)
            try:
                value = int(body, 0) if body[:1] == "0" and len(body) > 1 else int(body)
            except ValueError as exc:
                raise LexerError(f"bad numeric literal {text!r}", line, column) from exc
            return Token(_NUMBER, text, value, int(width_text), line, column)
        if text[:1] == "0" and len(text) > 1 and text[1] in "xXbB":
            # Hexadecimal / binary literal.
            try:
                value = int(text, 0)
            except ValueError as exc:
                raise LexerError(f"bad numeric literal {text!r}", line, column) from exc
            return Token(_NUMBER, text, value, None, line, column)
        return Token(_NUMBER, text, int(text), None, line, column)


def line_tokens(text: str) -> Tuple[Token, ...]:
    """The tokens of one line (no line break, no ``/*``) from the line memo.

    The full scan's tokens without the END token, each stamped line 0 and
    with its text interned; a token equal to one of an earlier line is
    that line's tuple.  The tuple and its tokens are shared by every
    caller: never modify them.  Raises the full scan's :class:`LexerError`
    (at line 1) when the line fails to lex, and caches nothing then.
    """

    entry = _LINE_TOKENS.get(text)
    if entry is MISSING:
        scanned = Lexer(text).scan()[:-1]
        if len(_TOKENS) >= _TOKENS_LIMIT:
            _TOKENS.clear()
        shared = _TOKENS.setdefault
        tokens = []
        for kind, token_text, value, width, _, column in scanned:
            token = _new_tuple(Token, (kind, sys.intern(token_text), value, width, 0, column))
            tokens.append(shared(token, token))
        entry = tuple(tokens)
        _LINE_TOKENS.put(text, entry)
    return entry  # type: ignore[return-value]


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` into a list of tokens."""

    return Lexer(source).tokenize()
