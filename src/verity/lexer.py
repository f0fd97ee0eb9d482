"""SQL tokenizer.

Identifiers are case-folded to lower case; string literals keep their case.
Both single- and double-quoted strings are literals (doubled quote escapes);
quoted identifiers are not supported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SqlSyntaxError

_DIGITS = set("0123456789")  # ASCII only: int() and Decimal() accept other digits
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | _DIGITS

# Multi-char operators first so <= is not lexed as < followed by =.
_OPERATORS = ("<>", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "(", ")", ",", ".", ";")

IDENT = "ident"
NUMBER = "number"
STRING = "string"
OP = "op"
EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: str
    value: str
    pos: int

    def __repr__(self):
        return f"Token({self.type}, {self.value!r}, @{self.pos})"


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        c = sql[i]
        if c.isspace():
            i += 1
            continue
        if c in _IDENT_START:
            j = i + 1
            while j < n and sql[j] in _IDENT_CONT:
                j += 1
            tokens.append(Token(IDENT, sql[i:j].lower(), i))
            i = j
            continue
        if c in _DIGITS:
            j = i + 1
            while j < n and sql[j] in _DIGITS:
                j += 1
            if j < n and sql[j] == "." and j + 1 < n and sql[j + 1] in _DIGITS:
                j += 1
                while j < n and sql[j] in _DIGITS:
                    j += 1
            tokens.append(Token(NUMBER, sql[i:j], i))
            i = j
            continue
        if c in ("'", '"'):
            quote = c
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise SqlSyntaxError("unterminated string literal", i)
                if sql[j] == quote:
                    if j + 1 < n and sql[j + 1] == quote:  # doubled-quote escape
                        buf.append(quote)
                        j += 2
                        continue
                    break
                buf.append(sql[j])
                j += 1
            tokens.append(Token(STRING, "".join(buf), i))
            i = j + 1
            continue
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(OP, op, i))
                i += len(op)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(Token(EOF, "", n))
    return tokens
