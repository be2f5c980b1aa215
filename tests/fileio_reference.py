"""Literals through one Fraction per coefficient and one cell per entry: the
tests' reference for ``fileio`` and for the text of ``Cyclotomic`` values.

These are the library's former parse and emit paths, kept verbatim apart
from their names: a "p/q" literal became a ``Fraction``, a matrix of
literals was lifted from those Fractions to integers over their common
denominator, and output was formatted from the Fraction terms of each
``Cyclotomic`` cell (``Cyclotomic.terms``).  The library parses literals
to (exponent, numerator, denominator) triples and emits them from
``CycMatrix.lowest_terms``; on every input both must give byte-identical
literals and text, equal matrices (numerators, denominator and dtype), and
the same ``ParseError`` message.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from delsarte.cyclotomic import (
    CycMatrix,
    _basis_map,
    _check_conductor,
    _int_array,
    _shape,
    bounded_matmul,
    euler_phi,
)
from delsarte.errors import ParseError

_RATIONAL_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def reference_rational_to_str(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def reference_rational_from_str(text) -> Fraction:
    try:
        literal = str(text)
        match = _RATIONAL_LITERAL.fullmatch(literal)
        if match is None:
            raise ValueError(f"{literal[:40]!r} is not p or p/q in ASCII digits")
        num, den = match.groups()
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(None, f"bad rational literal: {exc}") from exc


def reference_cyc_to_literal(value):
    if value.is_rational():
        return reference_rational_to_str(value.as_rational())
    return [[e, reference_rational_to_str(c)] for e, c in value.terms()]


def reference_literal_rows(rows) -> list:
    """Rows of cells (``CycMatrix.entries``) as literals."""
    return [[reference_cyc_to_literal(v) for v in row] for row in rows]


def reference_text(value) -> str:
    """The former ``Cyclotomic.__str__``, from the Fraction terms."""
    if value.is_zero():
        return "0"
    parts = []
    for e, c in value.terms():
        if e == 0:
            parts.append(str(c))
            continue
        z = f"z{value.conductor}" if e == 1 else f"z{value.conductor}^{e}"
        if c == 1:
            parts.append(z)
        elif c == -1:
            parts.append(f"-{z}")
        else:
            parts.append(f"{c}*{z}")
    return parts[0] + "".join(
        f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:]
    )


def reference_from_terms(n: int, grid) -> CycMatrix:
    """The former ``CycMatrix.from_terms``: every coefficient a Fraction."""
    _check_conductor(n)
    cells = [[list(cell) for cell in row] for row in grid]
    rows, cols = _shape(cells)
    flat = [[(e % n, Fraction(c)) for e, c in cell] for row in cells for cell in row]
    den = math.lcm(*(c.denominator for cell in flat for _, c in cell))
    exponents = sorted({e for cell in flat for e, _ in cell})
    column = {e: t for t, e in enumerate(exponents)}
    lifted = [[0] * len(exponents) for _ in flat]
    for out, cell in zip(lifted, flat):
        for e, c in cell:
            out[column[e]] += c.numerator * (den // c.denominator)
    table, _ = _basis_map(n, exponents)
    num = bounded_matmul(_int_array(lifted).reshape(len(flat), len(exponents)), table)
    return CycMatrix._from_array(n, num.reshape(rows, cols, euler_phi(n)), den)


def reference_literal_terms(lit) -> list:
    if isinstance(lit, (int, str)):
        return [(0, reference_rational_from_str(lit))]
    if isinstance(lit, list) and all(
        isinstance(t, list) and len(t) == 2 and type(t[0]) is int for t in lit
    ):
        return [(e, reference_rational_from_str(c)) for e, c in lit]
    raise ParseError(None, f"bad cyclotomic literal {lit!r}")


def reference_literal_matrix(rows, conductor: int) -> CycMatrix:
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and len({len(row) for row in rows}) <= 1):
        raise ParseError(None, "a matrix must be a list of rows of one length")
    return reference_from_terms(
        conductor, [[reference_literal_terms(v) for v in row] for row in rows])
