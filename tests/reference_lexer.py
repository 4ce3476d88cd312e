"""The character-at-a-time lexer `epiworld.syntax` used before it lexed
with one regular expression, kept as the reference the differential
tests in `test_syntax.py` compare the regular expression against.

It walks the text once, tracking line and column as it goes.  A comment
does not move the column, so the end of an input that ends in a comment
without a newline is reported at the comment's first column.
"""

from __future__ import annotations

from dataclasses import dataclass

from epiworld.syntax import LexError


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = {",": ",", ".": ".", "(": "(", ")": ")", "{": "{", "}": "}",
          "~": "~", ";": ";", "/": "/", "=": "=", "-": "-"}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def push(kind: str, text: str, ln: int, cl: int) -> None:
        tokens.append(Token(kind, text, ln, cl))

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and source[i] != "\n":
                i += 1
            continue
        ln, cl = line, col
        if c == ":":
            if source[i:i + 2] == ":-":
                push(":-", ":-", ln, cl)
                i += 2
                col += 2
                continue
            raise LexError("expected ':-'", ln, cl)
        if c in _PUNCT:
            push(_PUNCT[c], c, ln, cl)
            i += 1
            col += 1
            continue
        if c in "&#":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i + 1:j]
            if c == "&" and word in ("k", "m"):
                push("&" + word, source[i:j], ln, cl)
            elif c == "#" and word in ("show", "const"):
                push("#" + word, source[i:j], ln, cl)
            else:
                raise LexError(f"unknown token {source[i:j]!r}", ln, cl)
            col += j - i
            i = j
            continue
        if c.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            push("num", source[i:j], ln, cl)
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word == "not":
                push("not", word, ln, cl)
            elif word[0].isupper():
                push("var", word, ln, cl)
            else:
                push("ident", word, ln, cl)
            col += j - i
            i = j
            continue
        raise LexError(f"unrecognized character {c!r}", ln, cl)
    tokens.append(Token("eof", "", line, col))
    return tokens
