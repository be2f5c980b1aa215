"""JSON file formats with exact round-tripping.

All numeric payloads are exact: rationals are strings "p/q" (with "/q"
omitted when the denominator is 1) and cyclotomic values are term lists
[[exponent, "p/q"], ...] over a declared ambient conductor.  Serialization
is canonical (sorted keys, one matrix row per line), so
``serialize(parse(f))`` is byte-identical for canonical files.

Literals are parsed and emitted on the integer form: a "p/q" goes from
the grammar's match straight to an (exponent, numerator, denominator)
triple, a matrix of them is one ``CycMatrix.from_ratios``, and output is
formatted from ``CycMatrix.lowest_terms``; no ``Fraction`` and no
``Cyclotomic`` cell is built on the way (a design's weights, which the API
answers as Fractions, excepted).

Formats:

- scheme:     {"size": v, "classes": d+1, "relation": [[...]]}
- eigen:      {"conductor": n, "Q": [[literal, ...], ...]}
- group:      {"order": n, "mult": [[...]]}
- characters: {"conductor": n, "rows": [[literal, ...], ...], "degrees": [...]}
- design:     {"subset": [indices]} or {"weights": ["p/q", ...]}
- cyclotomic: {"conductor": n, "terms": [[exponent, "p/q"], ...]}

A declared conductor n needs phi(n) <= FILE_PHI_LIMIT; it is checked before
any value or table is built for it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .cyclotomic import CycMatrix, Cyclotomic, euler_phi, ratio_text
from .designs import DesignReport, WeightedSubset
from .errors import ParseError
from .groups import CharacterTable, GroupTable, make_character_table, make_group_table
from .lp import LPResult
from .scheme import EigenData, SchemeData, verify_scheme

#: Largest field degree phi(n) accepted for a conductor declared in a file.
#: Far above the catalog's 12 and the scale ladder's 24, and small enough
#: that the reduction table behind any accepted conductor stays under 10 MB.
FILE_PHI_LIMIT = 256


def _declared_conductor(value) -> int:
    """A conductor read from a file, rejected before anything is built on it.

    phi(n) >= sqrt(n / 2), so n > 2 FILE_PHI_LIMIT^2 is refused without
    computing phi(n) at all.
    """
    if type(value) is not int:  # not a bool or a float either
        raise ParseError(None, f"conductor {value!r} is not an integer")
    n = value
    if n < 1 or n > 2 * FILE_PHI_LIMIT**2 or euler_phi(n) > FILE_PHI_LIMIT:
        raise ParseError(
            None,
            f"conductor {n} rejected: files accept n >= 1 with phi(n) <= {FILE_PHI_LIMIT}",
        )
    return n


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def rational_to_str(q) -> str:
    """ "p/q" for an int or a Fraction, "p" when the denominator is 1."""
    return ratio_text(q.numerator, q.denominator)


#: The one rational literal the formats accept, in ASCII digits only.
_RATIONAL_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio_from_str(text) -> tuple[int, int]:
    """The numerator and denominator of "p" or "p/q"
    (``-?[0-9]+(/[0-9]+)?``) with q != 0, as written (not reduced);
    anything else, and integers beyond Python's limit on decimal digits, is
    a ParseError."""
    try:
        literal = str(text)
        match = _RATIONAL_LITERAL.fullmatch(literal)
        if match is None:
            raise ValueError(f"{literal[:40]!r} is not p or p/q in ASCII digits")
        num, den = match.groups()
        p, q = int(num), int(den or 1)
        if not q:
            raise ZeroDivisionError(f"Fraction({p}, 0)")  # Fraction's own message
        return p, q
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(None, f"bad rational literal: {exc}") from exc


def rational_from_str(text) -> Fraction:
    """The rational "p" or "p/q" (see ``_ratio_from_str``) as a Fraction."""
    return Fraction(*_ratio_from_str(text))


def _terms_literal(terms):
    """A "p/q" string for a rational entry, else a term list, from its
    lowest-terms (exponent, numerator, denominator) triples."""
    if not terms:
        return "0"
    if len(terms) == 1 and terms[0][0] == 0:
        return ratio_text(terms[0][1], terms[0][2])
    return [[e, ratio_text(p, q)] for e, p, q in terms]


def cyc_to_literal(value: Cyclotomic):
    """Rational values become "p/q" strings; others term lists."""
    return _terms_literal(value.lowest_terms())


def literal_rows(m: CycMatrix) -> list:
    """The rows of a matrix as literals, read off its integer form."""
    return [[_terms_literal(terms) for terms in row] for row in m.lowest_terms()]


def _literal_ratios(lit) -> list:
    """The (exponent, numerator, denominator) triples of a "p/q" or
    term-list literal."""
    if isinstance(lit, (int, str)):
        return [(0, *_ratio_from_str(lit))]
    if isinstance(lit, list) and all(
        isinstance(t, list) and len(t) == 2 and type(t[0]) is int for t in lit
    ):
        return [(e, *_ratio_from_str(c)) for e, c in lit]
    raise ParseError(None, f"bad cyclotomic literal {lit!r}")


def cyc_from_literal(lit, conductor: int) -> Cyclotomic:
    return CycMatrix.from_ratios(conductor, [[_literal_ratios(lit)]])[0, 0]


def _literal_matrix(rows, conductor: int) -> CycMatrix:
    """A matrix of literals, built in one call."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            and len({len(row) for row in rows}) <= 1):
        raise ParseError(None, "a matrix must be a list of rows of one length")
    return CycMatrix.from_ratios(conductor, [[_literal_ratios(v) for v in row] for row in rows])


def cyclotomic_to_json(value: Cyclotomic) -> dict:
    return {
        "conductor": value.conductor,
        "terms": [[e, ratio_text(p, q)] for e, p, q in value.lowest_terms()],
    }


def cyclotomic_from_json(obj) -> Cyclotomic:
    _expect_keys(obj, {"conductor", "terms"}, "cyclotomic")
    return cyc_from_literal(obj["terms"], _declared_conductor(obj["conductor"]))


# ---------------------------------------------------------------------------
# canonical emitter / parser
# ---------------------------------------------------------------------------

def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))

def canonical_dumps(obj) -> str:
    """Canonical form: sorted keys, one top-level key per line, matrix rows
    (lists of lists) one row per line."""
    if not isinstance(obj, dict):
        return _compact(obj) + "\n"
    lines = ["{"]
    items = sorted(obj.items())
    for pos, (key, value) in enumerate(items):
        comma = "," if pos < len(items) - 1 else ""
        if isinstance(value, list) and value and all(
            isinstance(r, list) for r in value
        ):
            lines.append(f"{json.dumps(key)}: [")
            for rpos, row in enumerate(value):
                rcomma = "," if rpos < len(value) - 1 else ""
                lines.append(f"  {_compact(row)}{rcomma}")
            lines.append(f"]{comma}")
        else:
            lines.append(f"{json.dumps(key)}: {_compact(value)}{comma}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    except (ValueError, RecursionError) as exc:
        # an integer beyond Python's limit on decimal digits, or nesting
        # deeper than the decoder's recursion limit
        raise ParseError(None, str(exc)) from exc


def _expect_keys(obj, keys, what):
    if not isinstance(obj, dict) or set(obj) != set(keys):
        raise ParseError(
            None, f"{what} object must have exactly the keys {sorted(keys)}"
        )


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

def parse_scheme_file(text: str) -> SchemeData:
    obj = parse_json(text)
    _expect_keys(obj, {"size", "classes", "relation"}, "scheme")
    scheme = verify_scheme(obj["relation"])
    if scheme.size != obj["size"] or scheme.classes != obj["classes"]:
        raise ParseError(None, "declared size/classes disagree with the grid")
    return scheme


def dump_scheme(scheme: SchemeData) -> str:
    return canonical_dumps(
        {
            "size": scheme.size,
            "classes": scheme.classes,
            "relation": scheme.relation.tolist(),
        }
    )


def parse_eigen_file(text: str) -> tuple[int, CycMatrix]:
    obj = parse_json(text)
    _expect_keys(obj, {"conductor", "Q"}, "eigen")
    n = _declared_conductor(obj["conductor"])
    return n, _literal_matrix(obj["Q"], n)


def dump_eigen(eigen: EigenData) -> str:
    return canonical_dumps(
        {
            "conductor": eigen.conductor,
            "Q": literal_rows(eigen.Q),
        }
    )


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def parse_group_file(text: str) -> GroupTable:
    obj = parse_json(text)
    _expect_keys(obj, {"order", "mult"}, "group")
    group = make_group_table(obj["mult"])
    if group.order != obj["order"]:
        raise ParseError(None, "declared order disagrees with the table")
    return group


def dump_group(group: GroupTable) -> str:
    return canonical_dumps({"order": group.order, "mult": group.mult.tolist()})


def parse_character_file(text: str) -> CharacterTable:
    obj = parse_json(text)
    _expect_keys(obj, {"conductor", "rows", "degrees"}, "character table")
    n = _declared_conductor(obj["conductor"])
    table = make_character_table(_literal_matrix(obj["rows"], n))
    declared = obj["degrees"]
    if type(declared) is not list or [(type(f), f) for f in declared] != [
            (int, f) for f in table.degrees]:
        raise ParseError(None, "declared degrees disagree with the table")
    return table


def dump_characters(table: CharacterTable) -> str:
    return canonical_dumps(
        {
            "conductor": table.conductor,
            "rows": literal_rows(table.matrix),
            "degrees": list(table.degrees),
        }
    )


# ---------------------------------------------------------------------------
# designs and result payloads
# ---------------------------------------------------------------------------

def parse_design_file(text: str, size: int) -> WeightedSubset:
    obj = parse_json(text)
    if not isinstance(obj, dict) or not obj or not set(obj) <= {"subset", "weights"}:
        raise ParseError(None, 'design object needs "subset" or "weights"')
    if "subset" in obj and "weights" in obj:
        raise ParseError(None, 'give either "subset" or "weights", not both')
    if "subset" in obj:
        indices = obj["subset"]
        if type(indices) is not list or any(type(i) is not int for i in indices):
            raise ParseError(None, '"subset" must be a list of vertex indices')
        if any(i < 0 or i >= size for i in indices):
            raise ParseError(None, f"subset indices must lie in 0..{size - 1}")
        return WeightedSubset.from_indices(size, indices)
    if type(obj["weights"]) is not list:
        raise ParseError(None, '"weights" must be a list of rationals')
    weights = [rational_from_str(w) for w in obj["weights"]]
    if len(weights) != size:
        raise ParseError(None, f"expected {size} weights")
    return WeightedSubset.from_weights(weights)


def dump_design(w: WeightedSubset) -> str:
    if w.is_characteristic():
        return canonical_dumps({"subset": list(w.support)})
    return canonical_dumps({"weights": [rational_to_str(v) for v in w.weights]})


def design_report_to_json(report: DesignReport, conductor: int) -> dict:
    return {
        "conductor": conductor,
        "a": [rational_to_str(v) for v in report.a],
        "b": [cyc_to_literal(v) for v in report.b],
        "T": list(report.T),
        "orbit_closed": report.orbit_closed,
    }


def fusion_report_to_json(passes, orbits, iota, row_classes, q_f) -> dict:
    out = {
        "passes": bool(passes),
        "orbits": [list(o) for o in orbits],
        "iota": list(iota),
        "row_classes": [list(c) for c in row_classes],
    }
    if q_f is None:
        out["Q_F"] = None
    else:
        out["conductor"] = q_f.conductor
        out["Q_F"] = literal_rows(q_f)
    return out


def lp_result_to_json(result: LPResult) -> dict:
    out = {"status": result.status}
    if result.status == "optimal":
        out["value"] = rational_to_str(result.value)
        out["solution"] = [rational_to_str(v) for v in result.solution]
    return out
