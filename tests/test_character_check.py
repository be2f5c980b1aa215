"""A character table is checked by the one product attach_eigendata makes.

On the table's own class scheme, ``eigendata_from_characters`` makes no
orthogonality product of its own: attach's PQ = |X| I is the row relation
X D X^* = |G| I, and the column relation follows from it on a square table.
Where anything raises, the full ``verify_character_table`` runs first.  These
tests pin every outcome, error class, invariant and message to the former
functions, kept in ``tests/group_reference.py``, on seeded corruptions of
four tables, and count the products of the success path.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from delsarte import cyclotomic, groups
from delsarte.catalog import alternating_group_4
from delsarte.cyclotomic import CycMatrix, Cyclotomic
from delsarte.errors import BadEigenbasis, DelsarteError
from delsarte.groups import (
    CharacterTable,
    conj_class_scheme,
    cyclic_group,
    dicyclic_group,
    eigendata_from_characters,
    make_character_table,
    verify_character_table,
)
from delsarte.scheme import attach_eigendata, verify_scheme
from group_reference import (
    reference_eigendata_from_characters,
    reference_verify_character_table,
)

TABLES = {
    "dic3": lambda: dicyclic_group(3),
    "dic5": lambda: dicyclic_group(5),
    "z12": lambda: cyclic_group(12),
    "a4": alternating_group_4,
}


def outcome(call):
    """("raised", class, invariant, message, args), or ("ok", Q, P,
    multiplicities) of returned eigendata (None for a check)."""
    try:
        eigen = call()
    except DelsarteError as err:
        return ("raised", type(err), getattr(err, "invariant", None), str(err), err.args)
    if eigen is None:
        return ("ok", None)
    return ("ok", eigen.Q, eigen.P, eigen.multiplicities)


def _rows(table):
    return [list(row) for row in table.rows]


def _table(rows, n, degrees=None):
    """The corrupted rows as a table: through make_character_table, or with
    the given degrees where its first column no longer holds positive
    integers."""
    m = CycMatrix(rows, n)
    return make_character_table(m) if degrees is None else CharacterTable(m, degrees)


def corruptions(table, rng):
    """(kind, table) pairs: swapped entries, a row scaled by a root of unity
    (kept with the table's degrees), a wrong trivial row, and a row scaled
    by an integer, which breaks row orthogonality and the multiplicity sum
    together."""
    n, dp1 = table.conductor, table.count
    zeta = Cyclotomic.zeta(n)
    for _ in range(6):
        # two entries of a row, or of a column, off the degrees and the
        # trivial row
        rows = _rows(table)
        j, k = rng.sample(range(1, dp1), 2)
        a, b = rng.sample(range(1, dp1), 2)
        if rng.random() < 0.5:
            rows[j][a], rows[j][b] = rows[j][b], rows[j][a]
        else:
            rows[j][a], rows[k][a] = rows[k][a], rows[j][a]
        yield "swap", _table(rows, n)

        rows = _rows(table)
        j = rng.randrange(1, dp1)
        factor = rng.choice([-1, zeta ** rng.randrange(1, max(n, 2))])
        rows[j] = [v * factor for v in rows[j]]
        yield "root", _table(rows, n, table.degrees)

        rows = _rows(table)
        rows[0][rng.randrange(1, dp1)] = rng.choice([-1, 2, zeta, Fraction(1, 2)])
        yield "trivial", _table(rows, n)

        rows = _rows(table)
        j = rng.randrange(1, dp1)
        c = rng.choice([2, 3])
        rows[j] = [v * c for v in rows[j]]
        yield "joint", _table(rows, n)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_corrupted_tables_raise_as_the_reference(name):
    group, classes, table = TABLES[name]()
    scheme, _ = conj_class_scheme(group)
    rng = random.Random(f"characters:{name}")
    invariants = set()
    for kind, bad in corruptions(table, rng):
        for sch in (None, scheme):
            want = outcome(lambda: reference_eigendata_from_characters(group, classes, bad, sch))
            got = outcome(lambda: eigendata_from_characters(group, classes, bad, sch))
            assert got == want, (kind, sch is None)
            if got[0] == "raised":
                invariants.add(got[2])
        want = outcome(lambda: reference_verify_character_table(bad, group, classes))
        got = outcome(lambda: verify_character_table(bad, group, classes))
        assert got == want
    # the row relation is reported through the fallback, since attach's own
    # PQ check fires first on the fast path
    assert {"character_row_orthogonality", "trivial_character"} <= invariants


def test_joint_corruption_reports_row_orthogonality():
    # a row scaled by 2 breaks the multiplicity sum, which attach checks
    # before PQ, and row orthogonality, which the former check found first
    group, classes, table = dicyclic_group(3)
    rows = _rows(table)
    rows[4] = [v * 2 for v in rows[4]]
    bad = _table(rows, table.conductor)
    scheme, _ = conj_class_scheme(group)
    q = bad.matrix.adjoint().scale_lines(cols=bad.degrees)
    with pytest.raises(BadEigenbasis) as attach_error:
        attach_eigendata(scheme, q)
    assert attach_error.value.invariant == "multiplicity"
    with pytest.raises(BadEigenbasis) as err:
        eigendata_from_characters(group, classes, bad, scheme)
    assert err.value.invariant == "character_row_orthogonality"
    assert str(err.value) == "eigendata rejected: character_row_orthogonality (rows 4, 4)"
    assert outcome(lambda: eigendata_from_characters(group, classes, bad, scheme)) == outcome(
        lambda: reference_eigendata_from_characters(group, classes, bad, scheme))


def _recording(monkeypatch):
    """Record, in order, the full table checks and the attachments that
    eigendata_from_characters makes."""
    calls = []

    def verify(*args):
        calls.append("verify")
        return verify_character_table(*args)

    def attach(*args):
        calls.append("attach")
        return attach_eigendata(*args)

    monkeypatch.setattr(groups, "verify_character_table", verify)
    monkeypatch.setattr(groups, "attach_eigendata", attach)
    return calls


def _relabelled(scheme, perm):
    """The same scheme with class i renamed perm[i]."""
    return verify_scheme(np.asarray(perm)[scheme.relation])


def test_permuted_valencies_run_the_full_check_first(monkeypatch):
    group, classes, table = dicyclic_group(3)
    scheme, _ = conj_class_scheme(group)
    # classes of sizes (1, 2, 2, 1, 3, 3): moving C_3 to position 1 permutes
    # the valencies, so the scheme is not the table's own class scheme
    other = _relabelled(scheme, [0, 3, 2, 1, 4, 5])
    assert other.valencies != classes.sizes and sorted(other.valencies) == sorted(classes.sizes)
    calls = _recording(monkeypatch)
    got = outcome(lambda: eigendata_from_characters(group, classes, table, other))
    assert calls == ["verify", "attach"]
    assert got == outcome(lambda: reference_eigendata_from_characters(group, classes, table, other))
    # a bad table on that scheme reports the row relation before attach runs
    rows = _rows(table)
    rows[2][1], rows[2][4] = rows[2][4], rows[2][1]
    bad = _table(rows, table.conductor)
    calls.clear()
    got = outcome(lambda: eigendata_from_characters(group, classes, bad, other))
    assert calls == ["verify"] and got[2] == "character_row_orthogonality"
    assert got == outcome(lambda: reference_eigendata_from_characters(group, classes, bad, other))


def test_a_fake_size_runs_the_full_check_first(monkeypatch):
    group, classes, table = cyclic_group(5)
    scheme, _ = conj_class_scheme(group)
    calls = _recording(monkeypatch)
    fake = dataclasses.replace(scheme, size=scheme.size + 1)
    with pytest.raises(BadEigenbasis):
        eigendata_from_characters(group, classes, table, fake)
    assert calls == ["verify", "attach"]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_a_valid_table_makes_only_attachs_products(name, monkeypatch):
    group, classes, table = TABLES[name]()
    scheme, _ = conj_class_scheme(group)
    count = [0]
    convolve = cyclotomic._convolve

    def counted(*args):
        count[0] += 1
        return convolve(*args)

    monkeypatch.setattr(cyclotomic, "_convolve", counted)
    for sch in (scheme, None):
        count[0] = 0
        eigen = eigendata_from_characters(group, classes, table, sch)
        made = count[0]
        count[0] = 0
        q = table.matrix.adjoint().scale_lines(cols=table.degrees)
        want = attach_eigendata(scheme, q)
        assert made == count[0] > 0
        assert (eigen.Q, eigen.P, eigen.multiplicities) == (want.Q, want.P, want.multiplicities)
    calls = _recording(monkeypatch)
    eigendata_from_characters(group, classes, table, scheme)
    assert calls == ["attach"]


def test_the_column_relation_follows_from_the_rows():
    # on every valid table the dropped column product holds, as the
    # reference checks it
    for make in TABLES.values():
        group, classes, table = make()
        reference_verify_character_table(table, group, classes)
        verify_character_table(table, group, classes)
