from fractions import Fraction

import pytest

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
from delsarte.cyclotomic import Cyclotomic
from delsarte.errors import ParseError


def test_rational_strings():
    assert fileio.rational_to_str(Fraction(-7, 3)) == "-7/3"
    assert fileio.rational_to_str(Fraction(4)) == "4"
    assert fileio.rational_from_str("-7/3") == Fraction(-7, 3)
    with pytest.raises(ParseError):
        fileio.rational_from_str("seven")


def test_cyclotomic_literals():
    sqrt2 = Cyclotomic.from_terms(8, {1: 1, 7: 1}.items())
    lit = fileio.cyc_to_literal(sqrt2)
    assert lit == [[1, "1"], [3, "-1"]]
    assert fileio.cyc_from_literal(lit, 8) == sqrt2
    assert fileio.cyc_to_literal(Cyclotomic.from_rational(Fraction(1, 2), 8)) == "1/2"


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
