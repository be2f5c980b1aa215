"""Galois images one unit at a time against the per-unit loops
(tests/galois_reference.py).

``CycMatrix`` builds the images of a matrix under a list of units one at a
time, each one product with the cached table of sigma_k;
``column_positions`` matches columns on their numerators over a common
denominator, and ``line_labels`` labels equal lines.  These tests pin that
to per-unit ``galois`` calls and to ``==`` on one-line submatrices: on
random matrices (conductors 1, 2 and 4 among them, and numerators beyond
int64), as drawn and scaled by 2^13, and across conductors and denominators; on the permutations,
orbits, row classes, Hermitian checks and Krein conductors of every catalog
entry, of the ladder groups Z_12 ... Z_30 and Dic_3 ... Dic_13, and of
direct products of schemes whose Krein tensors hold irrational entries; on
the witnesses of seeded corruptions; on Krein making no Galois image for a
rational tensor; and on the traced memory of Krein and the Galois fusion.
"""

import dataclasses
import functools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte.catalog import CATALOG, load_entry
from delsarte.cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec, euler_phi, units_mod
from delsarte.errors import BadEigenbasis, DelsarteError
from delsarte.fusion import _group_rows, galois_fusion, orbit_merge, sigma_permutations
from delsarte.groups import builtin_group, conj_class_scheme, eigendata_from_characters
from delsarte.scheme import attach_eigendata, krein_parameters, verify_scheme
from galois_reference import (
    reference_group_rows,
    reference_hermitian,
    reference_krein_parameters,
    reference_orbit_merge,
    reference_outside,
    reference_sigma_permutations,
)

CONDUCTORS = (1, 2, 4, 5, 8, 12, 20)
BIG = 2**63 + 1  # scales a numerator past int64
#: factors applied to a whole drawn matrix: as drawn, and with every numerator
#: 2^13 times larger, nearer the int64 bound of the Galois products
SCALES = (1, 8192)


@st.composite
def elements(draw, n):
    terms = draw(st.lists(
        st.tuples(st.integers(0, 2 * n - 1),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4)),
        max_size=euler_phi(n) + 1,
    ))
    return Cyclotomic.from_terms(n, terms)


@st.composite
def matrices(draw, n):
    """Small matrices with repeated lines, and now and then one entry beyond int64."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pool = [draw(elements(n)) for _ in range(3)]
    grid = [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        grid[i][j] = grid[i][j] * BIG + 1
    return CycMatrix(grid, n)


def unit_lists(n):
    """Units as callers pass them: any residues, negatives and repeats included."""
    units = units_mod(n)
    return st.lists(st.sampled_from(units).flatmap(
        lambda k: st.sampled_from([k, k - n, k + 2 * n])), min_size=1, max_size=6)


def equal_lines(a, b, axis):
    """For each line of b, the indices of the equal lines of a, by ``==`` on
    one-line submatrices (which embeds both into a common conductor)."""
    pick = "cols" if axis else "rows"
    count = a.cols if axis else a.rows
    return [[t for t in range(count) if a.select(**{pick: [t]}) == b.select(**{pick: [u]})]
            for u in range(b.cols if axis else b.rows)]


def last_or_missing(matches):
    return [found[-1] if found else -1 for found in matches]


@settings(max_examples=40, deadline=None)
@given(st.data())
@pytest.mark.parametrize("scale", SCALES)
def test_stacked_images_match_one_galois_call_per_unit(scale, data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    m = data.draw(matrices(n)) * scale
    units = data.draw(unit_lists(n))
    positions = {0: m.transpose().column_positions(m.transpose(), units),
                 1: m.column_positions(m, units)}
    moved = m.galois_moved(units)
    assert [len(p) for p in positions.values()] == [len(units)] * 2
    for u, k in enumerate(units):
        image = m.galois(k)
        assert moved[u].tolist() == (~(image - m).zero_mask()).tolist()
        assert positions[1][u] == m.column_positions(image)[0]
        assert positions[0][u] == m.transpose().column_positions(image.transpose())[0]
        # a line of the image is placed at the last equal line of m, or at -1
        for axis in (0, 1):
            assert positions[axis][u] == last_or_missing(equal_lines(m, image, axis))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_positions_compare_values_across_conductors_and_denominators(data):
    n, k = data.draw(st.sampled_from(CONDUCTORS)), data.draw(st.sampled_from(CONDUCTORS))
    m = data.draw(matrices(n))
    rows = [list(r) for r in m.entries]
    # other shares some of m's columns, rescaled and reordered, at conductor k
    cols = data.draw(st.lists(st.integers(0, m.cols - 1), min_size=1, max_size=4))
    scale = data.draw(st.sampled_from([1, Fraction(1, 3), 7, Fraction(-2, 5)]))
    other = CycMatrix([[rows[i][j] * scale for j in cols] for i in range(m.rows)], k)
    (got,) = m.column_positions(other)
    assert got == last_or_missing(equal_lines(m, other, 1))
    if scale == 1:
        assert -1 not in got


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_distinct_columns_and_subfield_check_match_the_loops(data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    m = data.draw(matrices(n))
    distinct, inverse = m.distinct_columns()
    assert distinct.select(cols=inverse) == m
    assert inverse.tolist() == m.line_labels(1)
    assert distinct.line_labels(1) == list(range(distinct.cols))
    for axis in (0, 1):
        # first-occurrence labels: equal lines share the label of the first copy
        labels = m.line_labels(axis)
        firsts = [found[0] for found in equal_lines(m, m, axis)]
        assert labels == [sorted(set(firsts)).index(f) for f in firsts]
    spec = SubfieldSpec(n, data.draw(unit_lists(n)))
    assert m.galois_moved(spec.generators).any(axis=0).tolist() == \
        reference_outside(m, spec).tolist()


def test_galois_blocks_follow_the_overflow_rule():
    # the columns are the images of x and of y under every unit mod 12; those
    # of x hold numerators beyond int64, those of y fit, and sigma_k maps the
    # image under u to the image under k u
    z = Cyclotomic.zeta
    x = CycMatrix([[z(12) * (2**61)], [z(12, 5) + 1], [z(12, 7) * BIG]])
    y = CycMatrix([[z(12) * (2**61)], [z(12, 5) + 1], [1]])
    units = units_mod(12)
    ys = CycMatrix([[y.galois(k)[i, 0] for k in units] for i in range(3)])
    m = CycMatrix([[v.galois(k)[i, 0] for v in (x, y) for k in units] for i in range(3)])
    positions = m.column_positions(m, units)
    assert positions == [m.column_positions(m.galois(k))[0] for k in units]
    assert positions == [[t + units.index(k * u % 12) for t in (0, 4) for u in units]
                         for k in units]
    # a column that fits int64 matches whatever the dtype of its matrix
    assert ys.column_positions(m) == [[-1] * 4 + [0, 1, 2, 3]]
    assert m.column_positions(ys) == [[4, 5, 6, 7]]


def test_positions_give_minus_one_and_the_last_copy():
    m = CycMatrix([[1, 2, 1], [0, Fraction(1, 2), 0]])
    other = CycMatrix([[1, 3, 2], [0, 0, Fraction(1, 2)]])
    assert m.column_positions(other) == [[2, -1, 1]]
    assert m.column_positions(m) == [[2, 1, 2]]
    # rows of another length match nothing
    assert m.column_positions(CycMatrix([[1]])) == [[-1]]


# ---------------------------------------------------------------------------
# catalog and ladder against the per-unit loops
# ---------------------------------------------------------------------------

LADDER = tuple(("cyclic", n) for n in (12, 16, 20, 30)) + tuple(
    ("dicyclic", n) for n in (3, 5, 7, 9, 11, 13))
CASES = tuple(("catalog", name) for name in sorted(CATALOG)) + LADDER
#: direct products of schemes, the factors named as in ``case``; their Krein
#: tensors hold irrational entries, as among the catalog only coxeter's does
PRODUCTS = {
    "coxeter-z3": (("catalog", "coxeter"), ("cyclic", 3)),  # 84 points, 15 classes, n = 24
    "x8-coxeter": (("catalog", "x8"), ("catalog", "coxeter")),  # 224 points, 25 classes, n = 8
}
PRODUCT_CASES = tuple(("product", name) for name in PRODUCTS)


def direct_product(first, second):
    """The direct product of two schemes: relation (i1, i2) is i1 (d2 + 1) + i2
    on pairs of points, with Q = Q1 (x) Q2, attached with full verification."""
    (s1, e1), (s2, e2) = case(*first), case(*second)
    relation = s1.relation[:, None, :, None] * s2.classes + s2.relation[None, :, None, :]
    size = s1.size * s2.size
    scheme = verify_scheme(relation.reshape(size, size))
    Q = CycMatrix([[a * b for a in r1 for b in r2] for r1 in e1.Q.entries for r2 in e2.Q.entries])
    return scheme, attach_eigendata(scheme, Q)


@functools.cache
def case(family, n):
    if family == "catalog":
        loaded = load_entry(n)
        return loaded.scheme, loaded.eigen
    if family == "product":
        return direct_product(*PRODUCTS[n])
    group, classes, table = builtin_group(family, n)
    scheme, classes = conj_class_scheme(group)
    return scheme, eigendata_from_characters(group, classes, table, scheme)


def subfields(n, rng):
    """Q, the real subfield, the splitting field, one fixed by a random unit,
    and Q again from inside Q(zeta_2n)."""
    return (SubfieldSpec.rationals(n), SubfieldSpec.real(n), SubfieldSpec.splitting_field(n),
            SubfieldSpec(n, [rng.choice(units_mod(n))]), SubfieldSpec.rationals(2 * n))


def outcome(f, *args):
    try:
        return f(*args)
    except DelsarteError as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("family, n", CASES + PRODUCT_CASES)
def test_orbits_rows_dual_maps_and_krein_match_the_loops(family, n):
    scheme, eigen = case(family, n)
    rng = random.Random(f"{family}{n}")
    for spec in subfields(eigen.conductor, rng):
        data = orbit_merge(eigen, spec)
        perms, orbits, iota, qbar = reference_orbit_merge(eigen, spec)
        assert sigma_permutations(eigen, spec) == perms
        assert (data.orbits, data.iota) == (orbits, iota)
        assert data.Qbar == qbar
        assert _group_rows(data.Qbar) == reference_group_rows(qbar)
    # the last step, named dual map before, is E_j^* = E_j
    assert reference_hermitian(scheme, eigen.Q) is None
    assert attach_eigendata(scheme, eigen.Q).P == eigen.P
    kd, want = krein_parameters(eigen), reference_krein_parameters(eigen)
    assert kd.krein_conductor == want.krein_conductor
    if family in ("catalog", "product"):
        assert kd.q == want.q
    if family == "product":  # irrational columns reach the sweep
        assert kd.tensor.rational_part()[2].any()


@pytest.mark.parametrize("family, n", [("catalog", "z12"), ("catalog", "a4"), ("catalog", "x8"),
                                       ("catalog", "dic7"), ("dicyclic", 13)])
def test_rational_krein_tensors_make_no_galois_image(family, n):
    # a rational entry is real and fixed by every sigma_k, so a tensor with
    # no irrational entry is decided with no Galois image
    _, eigen = case(family, n)
    want = reference_krein_parameters(eigen)
    with mock.patch.object(CycMatrix, "galois_moved", side_effect=AssertionError):
        kd = krein_parameters(eigen)
    assert (kd.krein_conductor, kd.tensor) == (want.krein_conductor, want.tensor)


# ---------------------------------------------------------------------------
# the same witness on seeded corruptions
# ---------------------------------------------------------------------------

def _corrupt_entry(m, rng):
    """m with one entry moved by a root of unity or a rational."""
    rows = [list(r) for r in m.entries]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    n = m.conductor
    rows[i][j] = rows[i][j] + rng.choice([Cyclotomic.zeta(n, rng.randrange(n)), Fraction(1, 2)])
    return CycMatrix(rows, n)


@pytest.mark.parametrize("family, n", CASES)
def test_corrupted_q_gives_the_same_permutation_witness(family, n):
    _, eigen = case(family, n)
    rng = random.Random(f"perm {family}{n}")
    for _ in range(6):
        bad = dataclasses.replace(eigen, Q=_corrupt_entry(eigen.Q, rng))
        for spec in subfields(eigen.conductor, rng)[:2]:
            assert outcome(sigma_permutations, bad, spec) == \
                outcome(reference_sigma_permutations, bad, spec)
        assert _group_rows(bad.Q) == reference_group_rows(bad.Q)


@pytest.mark.parametrize("family, n", CASES)
def test_corrupted_transpose_map_gives_the_same_dual_map_witness(family, n):
    # the former dual-map witness is now the Hermitian check's: the first
    # failing column j, then its first failing row i
    scheme, eigen = case(family, n)
    rng = random.Random(f"dual {family}{n}")
    for _ in range(4):
        tail = list(range(1, scheme.classes))
        rng.shuffle(tail)
        bad = dataclasses.replace(scheme, transpose_map=(0, *tail))
        got, want = outcome(attach_eigendata, bad, eigen.Q), outcome(reference_hermitian, bad, eigen.Q)
        if want is None:
            assert got.P == eigen.P
        else:
            assert got == want and want[0] == BadEigenbasis.__name__


@pytest.mark.parametrize("family, n", [c for c in CASES if c[0] == "catalog"]
                         + [("cyclic", 12), ("dicyclic", 5), ("dicyclic", 7)]
                         + list(PRODUCT_CASES))
def test_corrupted_p_gives_the_same_krein_witness(family, n):
    _, eigen = case(family, n)
    rng = random.Random(f"krein {family}{n}")
    n = eigen.conductor
    for _ in range(4):
        i = rng.randrange(eigen.P.rows)
        factor = rng.choice([-1, Fraction(1, 2), Cyclotomic.zeta(n, rng.randrange(n))])
        scale = [1] * eigen.P.rows
        scale[i] = factor
        P = CycMatrix([[scale[r] * v for v in row] for r, row in enumerate(eigen.P.entries)],
                      n)
        bad = dataclasses.replace(eigen, P=P)
        got, want = outcome(krein_parameters, bad), outcome(reference_krein_parameters, bad)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert (got.krein_conductor, got.q) == (want.krein_conductor, want.q)


def test_permutation_checks_keep_their_order():
    # a corrupted column is reported for the first unit k, then the first j
    _, eigen = case("catalog", "dic5")
    rows = [list(r) for r in eigen.Q.entries]
    n = eigen.conductor
    for j in (2, 4):
        rows[1][j] = rows[1][j] + Cyclotomic.zeta(n)
    bad = dataclasses.replace(eigen, Q=CycMatrix(rows, n))
    spec = SubfieldSpec.rationals(n)
    assert outcome(sigma_permutations, bad, spec) == \
        outcome(reference_sigma_permutations, bad, spec)
    assert "E_2" in outcome(sigma_permutations, bad, spec)[1]


# ---------------------------------------------------------------------------
# memory: traced peaks no higher than the per-unit loops left them
# ---------------------------------------------------------------------------

#: traced peaks in bytes (numpy 2, CPython 3.11): Krein, dominated by the
#: product P W, at the per-unit loops' peak rounded up to the next 10 kB; the
#: Galois fusion below the peak of the former signatures of
#: sigma_permutations (595 406 and 798 281 bytes), which it no longer keeps
PEAK_BUDGETS = {
    (("cyclic", 30), "krein"): 12_020_000,
    (("dicyclic", 13), "krein"): 5_610_000,
    (("cyclic", 30), "galois"): 400_000,
    (("dicyclic", 13), "galois"): 540_000,
}


@pytest.mark.parametrize("group, stage", sorted(PEAK_BUDGETS))
def test_traced_peaks_stay_within_the_loops_budget(group, stage):
    scheme, eigen = case(*group)
    run = {
        "krein": lambda: krein_parameters(eigen),
        "galois": lambda: galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor)),
    }[stage]
    run()  # warm the caches of tables and stacks
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BUDGETS[group, stage]
