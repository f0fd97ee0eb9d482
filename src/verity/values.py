"""Typed cell values: INTEGER, DECIMAL, TEXT, DATE, and NULL.

A Value is immutable and hashable, so primary-key tuples can key dicts
directly. Decimal cells keep a decimal.Decimal internally; the canonical
string rendering (used for fingerprinting and CSV output) is produced by
``decimal_str``.

A value's canonical text lives here and nowhere else. ``render_value`` is
the reference rule; ``render_texts`` is the same rule applied to a whole
row in one pass, which is what fingerprinting hashes.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from decimal import Context, Decimal, Inexact, InvalidOperation, Overflow, ROUND_HALF_EVEN
from enum import Enum

from .errors import BadType, EvalError, ValueTypeError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}$")

# Fractional precision for DECIMAL arithmetic results.
_DEC_QUANTUM = Decimal("1E-10")

# raises where ``decimal_str``'s normalize (default context) changes a number
_RENDERABLE = Context(prec=28, Emin=-999999, Emax=999999, traps=[Inexact, Overflow])


class ValueType(Enum):
    INTEGER = "integer"
    DECIMAL = "decimal"
    TEXT = "text"
    DATE = "date"
    NULL = "null"

    @classmethod
    def from_ddl(cls, name: str) -> "ValueType":
        try:
            t = cls(name.lower())
        except ValueError:
            raise BadType(f"unknown column type: {name}") from None
        if t is cls.NULL:
            raise BadType("NULL is not a column type")
        return t


@dataclass(frozen=True)
class Value:
    kind: ValueType
    raw: object = None  # int | Decimal | str | None

    def __post_init__(self):
        if self.kind is ValueType.INTEGER:
            if not isinstance(self.raw, int) or not (INT64_MIN <= self.raw <= INT64_MAX):
                raise ValueTypeError(f"not a 64-bit integer: {self.raw!r}")
        elif self.kind is ValueType.DECIMAL:
            if not isinstance(self.raw, Decimal) or not self.raw.is_finite():
                raise ValueTypeError(f"not a finite decimal: {self.raw!r}")
        elif self.kind is ValueType.TEXT:
            if not isinstance(self.raw, str):
                raise ValueTypeError(f"not text: {self.raw!r}")
            if "\x1f" in self.raw:
                # 0x1F is the fingerprint field separator; allowing it would
                # make serialized tuples ambiguous.
                raise ValueTypeError("text value contains reserved byte 0x1F")
        elif self.kind is ValueType.DATE:
            if not isinstance(self.raw, str) or not _DATE_RE.match(self.raw):
                raise ValueTypeError(f"not an ISO date: {self.raw!r}")
            try:
                datetime.date.fromisoformat(self.raw)
            except ValueError:
                raise ValueTypeError(f"not a calendar date: {self.raw!r}") from None
        elif self.kind is ValueType.NULL:
            if self.raw is not None:
                raise ValueTypeError("NULL value carries no payload")

    # constructors

    @staticmethod
    def integer(i: int) -> "Value":
        return Value(ValueType.INTEGER, i)

    @staticmethod
    def decimal(d) -> "Value":
        if not isinstance(d, Decimal):
            try:
                d = Decimal(str(d))
            except InvalidOperation:
                raise ValueTypeError(f"not a decimal: {d!r}") from None
        return Value(ValueType.DECIMAL, d)

    @staticmethod
    def text(s: str) -> "Value":
        return Value(ValueType.TEXT, s)

    @staticmethod
    def date(s: str) -> "Value":
        return Value(ValueType.DATE, s)

    @property
    def is_null(self) -> bool:
        return self.kind is ValueType.NULL

    def __eq__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        return self.kind is other.kind and self.raw == other.raw

    def __hash__(self):
        return hash((self.kind, self.raw))

    def sort_key(self):
        """Key usable to order rows of one column (NULLs first)."""
        if self.is_null:
            return (0, 0)
        return (1, self.raw)

    def __repr__(self):
        if self.is_null:
            return "NULL"
        if self.kind is ValueType.DECIMAL:
            return f"Value({self.kind.name}, {decimal_str(self.raw)})"
        return f"Value({self.kind.name}, {self.raw!r})"


NULL = Value(ValueType.NULL, None)


def decimal_str(d: Decimal) -> str:
    """Canonical decimal rendering: no sign on zero, no leading/trailing
    zeros, no exponent, no bare trailing dot."""
    if not d:
        return "0"
    n = d.normalize()
    s = str(n)
    # str() is already the positional form unless it chose an exponent
    return format(n, "f") if "E" in s else s


def render_value(v: Value) -> str:
    """Human/CSV rendering (NULL renders as empty string at the CSV layer)."""
    if v.is_null:
        return "NULL"
    if v.kind is ValueType.DECIMAL:
        return decimal_str(v.raw)
    return str(v.raw)


_DECIMAL = ValueType.DECIMAL
_NULL_KIND = ValueType.NULL


def render_texts(values) -> list[str]:
    """``render_value`` of each non-NULL value of ``values``, in order.

    The same text as the reference rule, in one pass that dispatches on
    ``kind`` inline instead of through ``is_null`` and a ``render_value``
    call per value: fingerprinting runs this for every checked tuple."""
    return [decimal_str(v.raw) if k is _DECIMAL else str(v.raw)
            for v in values if (k := v.kind) is not _NULL_KIND]


def parse_typed(text: str, target: ValueType) -> Value:
    """Parse a raw field (CSV cell, tamper-CLI argument or SQL number) as
    ``target``; a decimal only if ``decimal_str`` renders it exactly."""
    if target is ValueType.INTEGER:
        try:
            return Value.integer(int(text, 10))
        except ValueError:
            raise ValueTypeError(f"not an integer: {text!r}") from None
    if target is ValueType.DECIMAL:
        try:
            d = Decimal(text)
            d.normalize(_RENDERABLE)
        except InvalidOperation:
            raise ValueTypeError(f"not a decimal: {text!r}") from None
        except Inexact:  # its canonical text would be another number
            raise ValueTypeError(f"decimal out of range: {text!r} (28 significant "
                                 "digits, exponents within 999999)") from None
        return Value.decimal(d)
    if target is ValueType.DATE:
        return Value.date(text)
    return Value.text(text)


def coerce(v: Value, target: ValueType) -> Value:
    """Coerce a computed value into a column's declared type.

    Integers promote to DECIMAL; text is accepted as DATE when it is a
    valid ISO date. Everything else must match exactly.
    """
    if v.is_null or v.kind is target:
        return v
    if target is ValueType.DECIMAL and v.kind is ValueType.INTEGER:
        return Value.decimal(Decimal(v.raw))
    if target is ValueType.DATE and v.kind is ValueType.TEXT:
        return Value.date(v.raw)
    if target is ValueType.TEXT and v.kind is ValueType.DATE:
        return Value.text(v.raw)
    raise ValueTypeError(f"cannot store {v.kind.value} value in {target.value} column")


DECIMAL_OVERFLOW = "decimal overflow: more than 28 digits with 10 after the point"


def quantize_decimal(d: Decimal) -> Decimal:
    """Round to 10 fractional digits, half-even; past 28 digits, EvalError."""
    try:
        return d.quantize(_DEC_QUANTUM, ROUND_HALF_EVEN)  # by keyword, twice as slow
    except InvalidOperation:
        raise EvalError(DECIMAL_OVERFLOW) from None
