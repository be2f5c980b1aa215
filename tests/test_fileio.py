import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import fileio
from delsarte.catalog import (
    CATALOG,
    build_x8,
    build_z12,
    data_dir,
    generate_data,
    list_entries,
    load_entry,
)
from delsarte.cyclotomic import CycMatrix, Cyclotomic
from delsarte.errors import DelsarteError, NotAScheme, ParseError, ValidationError


def test_rational_strings():
    assert fileio.rational_to_str(Fraction(-7, 3)) == "-7/3"
    assert fileio.rational_to_str(Fraction(4)) == "4"
    assert fileio.rational_from_str("-7/3") == Fraction(-7, 3)
    with pytest.raises(ParseError):
        fileio.rational_from_str("seven")


@pytest.mark.parametrize("text", [
    "1/0", "-3/0",  # zero denominator
    "9" * 5001, "1/" + "9" * 5001,  # beyond Python's limit on decimal digits
    "1e1000000", "1E2", "1.5",  # exponents and decimals
    "1_000", "+1", " 1", "1 ", "1\n", "1 / 2", "--1", "1/-2", "/2", "1/", "",
    "\u0661", "\uff11", "1/\u0662",  # digits outside ASCII
])
def test_rational_literals_outside_the_grammar_are_parse_errors(text):
    with pytest.raises(ParseError):
        fileio.rational_from_str(text)


def test_rational_literals_of_the_grammar():
    assert fileio.rational_from_str("0") == 0
    assert fileio.rational_from_str("-0/5") == 0
    assert fileio.rational_from_str("6/4") == Fraction(3, 2)
    assert fileio.rational_from_str("-007/21") == Fraction(-1, 3)
    assert fileio.rational_from_str("9" * 4300) == int("9" * 4300)


def test_an_exponent_literal_is_refused_at_once():
    # Fraction would build a 3.3-million-bit numerator from this one
    weights = json.dumps({"weights": ["1e1000000"] + ["0"] * 7})
    with pytest.raises(ParseError):
        fileio.parse_design_file(weights, 8)


@pytest.mark.parametrize("text", [
    '{"size": ' + "9" * 5001 + ', "classes": 1, "relation": [[0]]}',
    '{"conductor": 4, "Q": [[' + "9" * 5001 + ']]}',
    "[" * 100_000,
])
def test_every_json_rejection_is_a_parse_error(text):
    # an integer beyond the digit limit is a plain ValueError in json.loads,
    # and deep nesting a RecursionError
    with pytest.raises(ParseError):
        fileio.parse_json(text)
    with pytest.raises(ParseError):
        fileio.parse_scheme_file(text)


def test_cyclotomic_literals():
    sqrt2 = Cyclotomic.from_terms(8, {1: 1, 7: 1}.items())
    lit = fileio.literal_rows(CycMatrix([[sqrt2]]))[0][0]
    assert lit == [[1, "1"], [3, "-1"]]
    assert fileio.cyc_from_literal(lit, 8) == sqrt2
    half = Cyclotomic.from_rational(Fraction(1, 2), 8)
    assert fileio.literal_rows(CycMatrix([[half]]))[0][0] == "1/2"


def test_cyclotomic_json_object():
    x = Cyclotomic.from_terms(12, {5: Fraction(2, 3), 0: -1}.items())
    obj = fileio.cyclotomic_to_json(x)
    assert obj["conductor"] == 12
    assert fileio.cyclotomic_from_json(obj) == x


def test_scheme_round_trip():
    scheme, _ = build_x8()
    text = fileio.dump_scheme(scheme)
    again = fileio.parse_scheme_file(text)
    assert again == scheme
    assert fileio.dump_scheme(again) == text


def test_eigen_round_trip():
    _, eigen = build_x8()
    text = fileio.dump_eigen(eigen)
    n, q = fileio.parse_eigen_file(text)
    assert n == 4
    assert q == eigen.Q
    from delsarte.scheme import attach_eigendata

    again = attach_eigendata(eigen.scheme, q)
    assert fileio.dump_eigen(again) == text


def test_group_and_chars_round_trip():
    b = build_z12()
    gtext = fileio.dump_group(b.group)
    ctext = fileio.dump_characters(b.table)
    g = fileio.parse_group_file(gtext)
    t = fileio.parse_character_file(ctext)
    assert fileio.dump_group(g) == gtext
    assert fileio.dump_characters(t) == ctext


def test_design_files():
    w = fileio.parse_design_file('{"subset": [0, 1, 4, 5]}', 8)
    assert w.support == (0, 1, 4, 5)
    assert fileio.dump_design(w) == fileio.canonical_dumps({"subset": [0, 1, 4, 5]})
    w2 = fileio.parse_design_file(
        '{"weights": ["1/2", "0", "3", "0", "0", "0", "0", "1"]}', 8
    )
    assert w2.weights[0] == Fraction(1, 2)
    text = fileio.dump_design(w2)
    assert fileio.parse_design_file(text, 8).weights == w2.weights


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        fileio.parse_scheme_file('{"size": 2, "classes"')
    assert err.value.line is not None
    with pytest.raises(ParseError):
        fileio.parse_scheme_file('{"wrong": 1}')
    with pytest.raises(ParseError):
        fileio.parse_design_file('{"subset": [99]}', 8)
    with pytest.raises(ParseError):
        fileio.parse_eigen_file('{"conductor": 4, "Q": [["x"]]}')


def test_catalog_files_match_builders(tmp_path):
    generate_data(tmp_path)
    for entry in list_entries():
        for filename in (entry.scheme_file, entry.eigen_file,
                         entry.group_file, entry.chars_file):
            if filename is None:
                continue
            assert (tmp_path / filename).read_text() == (
                data_dir() / filename
            ).read_text(), f"{filename} is stale; regenerate the catalog"


def test_every_catalog_entry_loads_and_verifies():
    for name in CATALOG:
        loaded = load_entry(name)
        assert loaded.scheme.size >= 8
        assert loaded.eigen.Q.rows == loaded.scheme.classes
        if loaded.entry.group_file:
            assert loaded.group is not None
            assert loaded.table is not None


def test_catalog_byte_identical_round_trip():
    for entry in list_entries():
        path = data_dir() / entry.scheme_file
        text = path.read_text()
        assert fileio.dump_scheme(fileio.parse_scheme_file(text)) == text


# ---------------------------------------------------------------------------
# malformed files: exact integer grids, and only domain errors escape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", [
    [[0, 1.5], [1, 0]],
    [[0, 1.0], [1, 0]],
    [[0, True], [True, 0]],
    [[0, 1], [1]],
    [[0, "1"], [1, 0]],
    [[0, 2**64], [1, 0]],
    "x",
    3,
    None,
])
def test_grids_must_be_integers(grid):
    with pytest.raises(NotAScheme):
        fileio.parse_scheme_file(json.dumps({"size": 2, "classes": 2, "relation": grid}))
    with pytest.raises(ValidationError):
        fileio.parse_group_file(json.dumps({"order": 2, "mult": grid}))


def test_a_fractional_trivial_group_is_rejected():
    with pytest.raises(ValidationError):
        fileio.parse_group_file('{"order": 1, "mult": [[0.5]]}')


@pytest.mark.parametrize("design", [
    {"subset": 3},
    {"subset": "12"},
    {"subset": [0, 1.5]},
    {"subset": [0, True]},
    {"subset": [[0]]},
    {"weights": 3},
    {"weights": "11111111"},
    {"weights": {"0": 1}},
])
def test_design_files_need_lists_of_integers_or_rationals(design):
    with pytest.raises(ParseError):
        fileio.parse_design_file(json.dumps(design), 8)


@pytest.mark.parametrize("text", [
    '{"conductor": 4, "Q": [["1", "1"], ["1"]]}',
    '{"conductor": 4, "Q": 3}',
    '{"conductor": 4, "Q": [3]}',
    '{"conductor": 4, "Q": "11"}',
    '{"conductor": 4, "Q": [[[[1.5, "1"]]]]}',
    '{"conductor": 4, "Q": [[[[Infinity, "1"]]]]}',
    '{"conductor": 4.0, "Q": [["1"]]}',
    '{"conductor": Infinity, "Q": [["1"]]}',
])
def test_malformed_eigen_files_are_parse_errors(text):
    with pytest.raises(ParseError):
        fileio.parse_eigen_file(text)


@pytest.mark.parametrize("text", [
    '{"conductor": 1, "rows": [], "degrees": []}',
    '{"conductor": 1, "rows": [["1"]], "degrees": 5}',
    '{"conductor": 1, "rows": [["1"]], "degrees": [1.0]}',
    '{"conductor": 1, "rows": [["1/2"]], "degrees": [1]}',
])
def test_malformed_character_files_are_domain_errors(text):
    with pytest.raises(DelsarteError):
        fileio.parse_character_file(text)


JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=6) | st.sampled_from(["1/2", "-3", "0", "1/0"]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=16,
)
SMALL_GRIDS = st.lists(st.lists(st.integers(-1, 4) | JSON_LEAVES, max_size=4), max_size=4)
FIELD_VALUES = JSON_VALUES | SMALL_GRIDS | st.integers(-2, 12)

PARSERS = {
    "scheme": (fileio.parse_scheme_file, ("size", "classes", "relation")),
    "eigen": (fileio.parse_eigen_file, ("conductor", "Q")),
    "group": (fileio.parse_group_file, ("order", "mult")),
    "characters": (fileio.parse_character_file, ("conductor", "rows", "degrees")),
    "design": (lambda text: fileio.parse_design_file(text, 4), ("subset",)),
    "weights": (lambda text: fileio.parse_design_file(text, 4), ("weights",)),
    "cyclotomic": (lambda text: fileio.cyclotomic_from_json(json.loads(text)),
                   ("conductor", "terms")),
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(PARSERS)),
    value=JSON_VALUES,
    fields=st.lists(FIELD_VALUES, min_size=3, max_size=3),
    keyed=st.booleans(),
)
def test_parsers_raise_only_domain_errors(kind, value, fields, keyed):
    # arbitrary JSON, or an object with the format's keys over arbitrary
    # values: every file is parsed or rejected with a DelsarteError
    parse, keys = PARSERS[kind]
    obj = dict(zip(keys, fields)) if keyed else value
    try:
        parse(json.dumps(obj))
    except DelsarteError:
        pass
