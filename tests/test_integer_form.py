"""Rational data enters the integer form once.

Inner distributions of weighted subsets run on the integer lift of the
weights and must equal the former Fraction loop (tests/design_reference.py)
on every catalog scheme, at any scale of weights.  Matrices built from
rational entries make no scalar cells, and the positive-integer checks read
the rational part of one row or column with the messages they always had.
"""

from fractions import Fraction

import numpy as np
import pytest
from design_reference import reference_inner_distribution, reference_weights
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delsarte.catalog import CATALOG, build_x8, load_entry
from delsarte.cyclotomic import CycMatrix, Cyclotomic
from delsarte.designs import (
    WeightedSubset,
    design_report,
    dual_distribution,
    inner_distribution,
    is_T_design,
    is_T_design_via_merges,
    rational_orbit_data,
)
from delsarte.errors import BadEigenbasis, DelsarteError, ValidationError, ZeroVector
from delsarte.groups import cyclic_group, make_character_table
from delsarte.scheme import attach_eigendata

TINY = Fraction(1, 2**62 - 57)


def expected_report(eigen, weights):
    """a from the reference loop; b = aQ, T(C) its zero set among j >= 1."""
    a = reference_inner_distribution(eigen.scheme, weights)
    b = dual_distribution(eigen, a).row(0)
    return a, b, tuple(j for j in range(1, len(b)) if b[j].is_zero())


def check_against_reference(eigen, weights):
    scheme = eigen.scheme
    w = WeightedSubset.from_weights(weights)
    a, b, T = expected_report(eigen, weights)
    assert inner_distribution(scheme, w) == a
    report = design_report(scheme, eigen, w)
    assert (report.a, report.b, report.T) == (a, b, T)
    for j in range(1, scheme.classes):
        assert is_T_design(scheme, eigen, w, [j]) == (j in T)
    assert is_T_design(scheme, eigen, w, T)


@pytest.mark.parametrize("name", sorted(CATALOG))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_weighted_subsets_match_the_fraction_loop(name, data):
    eigen = load_entry(name).eigen
    weights = data.draw(st.lists(
        st.fractions(min_value=0, max_value=7, max_denominator=6),
        min_size=eigen.scheme.size, max_size=eigen.scheme.size,
    ))
    assume(any(weights))
    check_against_reference(eigen, weights)


@pytest.mark.parametrize("name", ["x8", "dic3", "coxeter"])
def test_huge_weights_match_the_fraction_loop(name):
    # weights of 2^62 give pair sums near 2^124 * |C|^2 (Python ints), and
    # 1 next to 1/(2^62 - 57) lifts to numerators near 2^62 over a
    # denominator near 2^62
    eigen = load_entry(name).eigen
    size = eigen.scheme.size
    mixed = [Fraction(0)] * size
    for z, wz in zip(range(0, size, 2), (1, 1, TINY, 1, 3, TINY)):
        mixed[z] = Fraction(wz)
    for weights in ([Fraction(2**62)] * size, mixed, [TINY] * size,
                    [Fraction(2**62 + z) for z in range(size)]):
        check_against_reference(eigen, weights)


@pytest.mark.parametrize("count", [2, 7, 9])
def test_weights_must_cover_the_vertex_set(count):
    scheme, eigen = build_x8()
    w = WeightedSubset.from_weights([1] * count)
    calls = [
        lambda: inner_distribution(scheme, w),
        lambda: design_report(scheme, eigen, w),
        lambda: is_T_design(scheme, eigen, w, [1]),
        lambda: is_T_design_via_merges(rational_orbit_data(eigen), w, [1]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=f"{count} weights for 8 vertices"):
            call()


def outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except DelsarteError as exc:
        return type(exc), str(exc)


def reference_outcomes(eigen, subset, T):
    """design_report's (a, b, T), is_T_design and is_T_design_via_merges on
    an index list or weighted subset, from the reference loops: the former
    index-list conversion, the Fraction inner distribution, b = aQ."""
    scheme, od = eigen.scheme, rational_orbit_data(eigen)
    if isinstance(subset, WeightedSubset):
        weights = subset.weights
        if len(weights) != scheme.size:
            error = (ValidationError, f"{len(weights)} weights for {scheme.size} vertices")
            return error, error, error
    else:
        try:
            weights = reference_weights(scheme.size, subset)
        except DelsarteError as exc:
            error = type(exc), str(exc)
            return error, error, error
    a, b, zeros = expected_report(eigen, weights)
    return ((a, b, zeros), set(T) <= set(zeros),
            set(od.unmerge(od.merge(T))) <= set(zeros))


def library_outcomes(eigen, subset, T):
    scheme, od = eigen.scheme, rational_orbit_data(eigen)

    def report():
        r = design_report(scheme, eigen, subset)
        return r.a, r.b, r.T

    return (outcome(report), outcome(lambda: is_T_design(scheme, eigen, subset, T)),
            outcome(lambda: is_T_design_via_merges(od, subset, T)))


INDEX_LISTS = [
    [0, 8], [99], [-1], [0, -8], [3, 2**70], [],
    [0, 0, 1, 1, 1], [5, 2, 5, 2],
    np.array([0, 3, 5]), [np.int64(2), np.int32(4), np.uint8(6)], np.arange(8),
    range(8), range(0, 8, 2), range(3, 0, -1), (7,), {1, 4},
]


@pytest.mark.parametrize("name", ["x8", "dic3", "coxeter"])
def test_index_lists_read_as_the_former_weights(name):
    # every entry point gives the results, or the error type and message,
    # of the former conversion of an index list into Fraction weights
    eigen = load_entry(name).eigen
    size = eigen.scheme.size
    od = rational_orbit_data(eigen)
    Ts = [[1], [j for orbit in od.orbits for j in orbit if j][:2]]
    for subset in INDEX_LISTS + [[size - 1], [size], list(range(size))]:
        for T in Ts:
            assert library_outcomes(eigen, subset, T) == reference_outcomes(eigen, subset, T)


@pytest.mark.parametrize("name", ["x8", "dic3", "coxeter"])
def test_weighted_subsets_read_as_their_weights(name):
    eigen = load_entry(name).eigen
    size = eigen.scheme.size
    mixed = [Fraction(0)] * size
    for z, wz in zip(range(0, size, 2), (1, 1, TINY, 1, 3, TINY)):
        mixed[z] = Fraction(wz)
    cases = [[Fraction(2**62)] * size, mixed, [TINY] * size,
             [Fraction(2**62 + z) for z in range(size)], [1] * (size - 1), [1] * (size + 1)]
    for weights in cases:
        w = WeightedSubset.from_weights(weights)
        for T in ([1], list(range(1, eigen.scheme.classes))):
            assert library_outcomes(eigen, w, T) == reference_outcomes(eigen, w, T)


def test_an_empty_T_is_answered_before_the_subset_is_read():
    # is_T_design returns True for T = () before it reads the subset, and
    # is_T_design_via_merges reads the subset first: both as before
    scheme, eigen = build_x8()
    od = rational_orbit_data(eigen)
    for bad in ([99], [], WeightedSubset.from_weights([1] * 3)):
        assert is_T_design(scheme, eigen, bad, []) is True
        with pytest.raises((ValidationError, ZeroVector)):
            is_T_design_via_merges(od, bad, [])
    assert is_T_design_via_merges(od, [0], []) is True


def test_a_subset_is_lifted_once():
    scheme, eigen = build_x8()
    w = WeightedSubset.from_weights([Fraction(1, 3), 0, 2, 0, 0, Fraction(5, 2), 0, 0])
    support, u = w._lift
    assert support.tolist() == [0, 2, 5] and u.tolist() == [2, 12, 15]
    design_report(scheme, eigen, w)
    is_T_design(scheme, eigen, w, [1])
    is_T_design_via_merges(rational_orbit_data(eigen), w, [1])
    assert w._lift[0] is support and w._lift[1] is u
    # the cache is not part of the value
    twin = WeightedSubset.from_weights(w.weights)
    assert twin == w and hash(twin) == hash(w) and repr(twin) == repr(w)
    assert w.support == (0, 2, 5)
    assert WeightedSubset.from_indices(8, [5, 0, 5]) == WeightedSubset.from_weights(
        reference_weights(8, [5, 0, 5]))


# ---------------------------------------------------------------------------
# matrices from rational entries
# ---------------------------------------------------------------------------

def test_rational_matrices_make_no_cells(monkeypatch):
    made = []
    cell = Cyclotomic._cell
    monkeypatch.setattr(Cyclotomic, "_cell", classmethod(
        lambda cls, *args: made.append(args) or cell(*args)))
    grids = [
        np.arange(12, dtype=np.int64).reshape(3, 4),
        np.eye(3, dtype=bool),
        [[1, Fraction(1, 3)], [np.int64(-2), 2**70]],
        [[Fraction(5, 6)] * 4] * 2,
    ]
    for grid in grids:
        CycMatrix(grid)
        CycMatrix(grid, 12)
    half = CycMatrix.identity(3).scale_lines(rows=[Fraction(1, 2), 3, 0])
    eye = CycMatrix.identity(4)
    assert made == []
    # the values are right: read them only now, which makes the cells
    monkeypatch.undo()
    assert eye == CycMatrix([[int(i == j) for j in range(4)] for i in range(4)])
    assert half.entries == ((Fraction(1, 2), 0, 0), (0, 3, 0), (0, 0, 0))
    assert CycMatrix(grids[2], 12).entries == tuple(
        tuple(Cyclotomic.from_rational(v, 12) for v in row) for row in grids[2])


# ---------------------------------------------------------------------------
# positive-integer checks: the rejections and their messages
# ---------------------------------------------------------------------------

def corrupted_q(entries):
    """x8's Q (conductor 4, first row 1 1 2 2 2) with Q[0][j] replaced."""
    scheme, eigen = build_x8()
    rows = [list(row) for row in eigen.Q.entries]
    for j, value in entries.items():
        rows[0][j] = value
    return scheme, CycMatrix(rows, eigen.conductor)


@pytest.mark.parametrize("entries, shown", [
    ({1: Cyclotomic.zeta(4)}, "Q[0][1] = z4"),
    ({1: Cyclotomic.zeta(4) + 1}, "Q[0][1] = 1 + z4"),
    ({1: Fraction(3, 2)}, "Q[0][1] = 3/2"),
    ({1: 0}, "Q[0][1] = 0"),
    ({1: -1}, "Q[0][1] = -1"),
    ({2: Fraction(1, 2), 3: Cyclotomic.zeta(4)}, "Q[0][2] = 1/2"),
    ({2: Cyclotomic.zeta(4), 3: -2}, "Q[0][2] = z4"),
    ({1: 4}, "multiplicities do not sum to |X|"),
])
def test_multiplicity_rejections(entries, shown):
    scheme, q = corrupted_q(entries)
    with pytest.raises(BadEigenbasis) as err:
        attach_eigendata(scheme, q)
    assert err.value.invariant == "multiplicity"
    assert str(err.value) == f"eigendata rejected: multiplicity ({shown})"


@pytest.mark.parametrize("degree, shown", [
    (Fraction(1, 2), "1/2"),
    (0, "0"),
    (-1, "-1"),
    (Cyclotomic.zeta(4), "z4"),
    (Cyclotomic.zeta(4) * 2, "2*z4"),
])
def test_character_degree_rejections(degree, shown):
    _, _, table = cyclic_group(4)
    rows = [list(row) for row in table.rows]
    rows[2][0] = degree
    with pytest.raises(ValidationError) as err:
        make_character_table(CycMatrix(rows, table.conductor))
    assert str(err.value) == f"degree of character 2 is {shown}, not a positive integer"


def test_character_table_is_its_matrix():
    _, _, table = cyclic_group(5)
    assert table.rows is table.matrix.entries
    assert (table.conductor, table.count, table.degrees) == (5, 5, (1,) * 5)
    assert table.rows[2][3] == Cyclotomic.zeta(5, 6)
