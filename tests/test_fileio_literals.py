"""Literals on the integer form against the former Fraction path
(tests/fileio_reference.py), and the Krein tensor's cells built on demand.

A "p/q" literal is parsed to an (exponent, numerator, denominator) triple
and a matrix of them built by one ``CycMatrix.from_ratios``; output is
formatted from ``CycMatrix.lowest_terms``.  The reference lifted one
Fraction per coefficient and formatted one cell per entry.  Both must give
the same matrices (numerators, denominator and dtype), byte-identical
literals and text, and the same ParseError message on every bad literal.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from fileio_reference import (
    reference_cyc_to_literal,
    reference_literal_matrix,
    reference_literal_rows,
    reference_rational_from_str,
    reference_text,
)
from galois_reference import reference_krein_parameters
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import fileio
from delsarte.catalog import CATALOG, data_dir, load_entry
from delsarte.cli import main
from delsarte.cyclotomic import CycMatrix, Cyclotomic
from delsarte.errors import ParseError
from delsarte.groups import builtin_group, conj_class_scheme, eigendata_from_characters
from delsarte.scheme import krein_parameters

CONDUCTORS = (1, 4, 5, 12, 28, 60)
#: numerators and denominators on both sides of 2^63, so that object arrays run
NUMERATORS = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80),
                       st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**62]))
DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 2**70), st.sampled_from([2**63, 2**64]))


@st.composite
def rational_literals(draw):
    """"p", "p/q" (not reduced), a zero-padded "p/q", or a JSON integer."""
    p, q = draw(NUMERATORS), draw(DENOMINATORS)
    style = draw(st.sampled_from(["p/q", "p", "padded", "int"]))
    if style == "p":
        return str(p)
    if style == "padded":
        return f"{'-' * (p < 0)}00{abs(p)}/{q}"
    if style == "int":
        return p
    return f"{p}/{q}"


@st.composite
def literals(draw, n):
    """A rational literal, or a term list with repeated exponents and
    exponents that are negative or at least n."""
    if draw(st.booleans()):
        return draw(rational_literals())
    exponents = st.one_of(st.integers(0, 2), st.integers(-2 * n - 3, 3 * n + 3))
    return [[draw(exponents), draw(rational_literals())]
            for _ in range(draw(st.integers(0, 4)))]


@st.composite
def literal_matrices(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    return n, [[draw(literals(n)) for _ in range(cols)] for _ in range(rows)]


def assert_same_form(got, want):
    assert got.conductor == want.conductor
    assert got._den == want._den
    assert got._num.dtype == want._num.dtype
    assert np.array_equal(got._num, want._num)


@settings(max_examples=300, deadline=None)
@given(literal_matrices())
def test_literal_matrices_match_the_fraction_path(case):
    n, rows = case
    m = fileio._literal_matrix(rows, n)
    assert_same_form(m, reference_literal_matrix(rows, n))
    # emitted literals and text, byte for byte, and they parse back to m
    lits = fileio.literal_rows(m)
    want = reference_literal_rows(m.entries)
    assert json.dumps(lits) == json.dumps(want)
    assert m.texts() == [[reference_text(v) for v in row] for row in m.entries]
    assert_same_form(fileio._literal_matrix(lits, n), m)
    for v in (v for row in m.entries for v in row):
        assert str(v) == reference_text(v)
        lit = fileio.literal_rows(CycMatrix([[v]]))[0][0]
        assert json.dumps(lit) == json.dumps(reference_cyc_to_literal(v))
        obj = fileio.cyclotomic_to_json(v)
        assert obj["terms"] == [[e, str(c)] for e, c in v.terms()]
        assert fileio.cyclotomic_from_json(obj) == v


def test_catalog_files_match_the_fraction_path():
    base = data_dir()
    for entry in CATALOG.values():
        eigen = json.loads((base / entry.eigen_file).read_text())
        q = fileio._literal_matrix(eigen["Q"], eigen["conductor"])
        assert_same_form(q, reference_literal_matrix(eigen["Q"], eigen["conductor"]))
        assert fileio.literal_rows(q) == reference_literal_rows(q.entries) == eigen["Q"]
        if entry.chars_file:
            chars = json.loads((base / entry.chars_file).read_text())
            t = fileio._literal_matrix(chars["rows"], chars["conductor"])
            assert_same_form(t, reference_literal_matrix(chars["rows"], chars["conductor"]))
            assert fileio.literal_rows(t) == chars["rows"]


BAD_LITERALS = ["1/0", "-3/0", "0/0", "1.5", 1.5, "1e3", "+1", "١", "1/２", True,
                False, None, [[1]], [1, "2"], {"1": 2}, "9" * 5001, "1/" + "9" * 5001, "",
                " 1", "1 "]


def _message(parse, *args):
    with pytest.raises(ParseError) as err:
        parse(*args)
    return str(err.value)


@pytest.mark.parametrize("lit", BAD_LITERALS, ids=lambda v: repr(v)[:12])
def test_bad_literals_raise_the_former_message(lit):
    for rows in ([[lit]], [[[[0, lit]]]], [["1", [[1, "2"], [3, lit]]]]):
        got = _message(fileio._literal_matrix, rows, 12)
        assert got == _message(reference_literal_matrix, rows, 12)
    if isinstance(lit, str):
        assert (_message(fileio.rational_from_str, lit)
                == _message(reference_rational_from_str, lit))


@pytest.mark.parametrize("text", ["7", "-7", "6/4", "-007/21", "-0/5", "9" * 4300])
def test_rationals_of_the_grammar_match_the_fraction_path(text):
    want = reference_rational_from_str(text)
    got = fileio.rational_from_str(text)
    assert type(got) is Fraction and got == want
    assert fileio.rational_to_str(got) == str(want)


# ---------------------------------------------------------------------------
# no Fraction and no cell on the way through a file
# ---------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """Counts of Fraction constructions and Cyclotomic cells from here on."""
    counts = {"fraction": 0, "cell": 0}
    new, cell = Fraction.__new__, Cyclotomic.__dict__["_cell"].__func__

    def counted_new(cls, *args, **kwargs):
        counts["fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_cell(cls, *args):
        counts["cell"] += 1
        return cell(cls, *args)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Cyclotomic, "_cell", classmethod(counted_cell))
    return counts


def test_files_are_read_and_written_without_fractions_or_cells(counted):
    base = data_dir()
    for name, entry in CATALOG.items():
        loaded = load_entry(name)
        counted.update(fraction=0, cell=0)
        text = fileio.dump_eigen(loaded.eigen)
        _, q = fileio.parse_eigen_file(text)
        lines = q.texts()
        if entry.chars_file:
            fileio.dump_characters(loaded.table)
            fileio._literal_matrix(
                json.loads((base / entry.chars_file).read_text())["rows"], loaded.table.conductor)
        assert counted == {"fraction": 0, "cell": 0}, name
        assert text == (base / entry.eigen_file).read_text()
        assert lines == [[str(v) for v in row] for row in q.entries]
    counted.update(fraction=0, cell=0)
    Fraction(1, 3), Cyclotomic.zeta(4)
    assert counted == {"fraction": 1, "cell": 1}  # the counts see both


def test_scheme_eigen_builds_no_cells(counted, capsys):
    # the command reads only the Krein conductor, so no cell of the Krein
    # tensor, and prints P and Q from their integer form
    base = data_dir()
    for entry in CATALOG.values():
        argv = ["scheme", "eigen", "--scheme", str(base / entry.scheme_file),
                "--eigen", str(base / entry.eigen_file)]
        for flag in ([], ["--json"]):
            assert main(argv + flag) == 0
            assert counted["cell"] == 0, (entry.name, flag)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the Krein tensor's cells, built on the first read of q
# ---------------------------------------------------------------------------

def _ladder():
    for family, n in [("cyclic", 5), ("cyclic", 6), ("cyclic", 7), ("cyclic", 8),
                      ("dicyclic", 3), ("dicyclic", 5), ("dicyclic", 7)]:
        group, classes, table = builtin_group(family, n)
        scheme, _ = conj_class_scheme(group)
        yield f"{family}{n}", eigendata_from_characters(group, classes, table, scheme)


def _eigendata():
    yield from ((name, load_entry(name).eigen) for name in CATALOG)
    yield from _ladder()


@pytest.mark.parametrize("name, eigen", list(_eigendata()), ids=lambda v: v if isinstance(v, str) else "")
def test_krein_cells_are_built_on_first_read(name, eigen, counted):
    kd = krein_parameters(eigen)
    assert counted["cell"] == 0
    want = reference_krein_parameters(eigen)
    counted["cell"] = 0
    q = kd.q
    dp1 = eigen.scheme.classes
    assert counted["cell"] == dp1**3
    assert kd.q is q  # kept, not rebuilt
    assert q == want.q and kd == want
    # indexing, and iteration plane by plane
    assert all(q[i][j][k] == want.q[i][j][k]
               for i in range(dp1) for j in range(dp1) for k in range(dp1))
    planes = [plane for plane in kd.q]
    assert len(planes) == dp1 and all(len(plane) == dp1 for plane in planes)
    assert [[list(row) for row in plane] for plane in planes] == [
        [list(row) for row in plane] for plane in want.q]
