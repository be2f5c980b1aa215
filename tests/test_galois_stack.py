"""Stacked Galois images against the per-unit loops (tests/galois_reference.py).

``CycMatrix`` builds the images of a matrix under a list of units from one
blocked product with the stacked tables of sigma_k, and compares rows and
columns by their numerators over the matrix's own denominator, which every
image shares.  These tests pin that to per-unit ``galois`` calls: on random
matrices (conductors 1, 2 and 4 among them, and numerators beyond int64),
in blocks of one image and in whole stacks; on the permutations, orbits, row
classes, dual maps and Krein conductors of every catalog entry and of the
ladder groups Z_12 ... Z_30 and Dic_3 ... Dic_13; on the witnesses of seeded
corruptions; and on the traced memory of Krein and the Galois fusion.
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

from delsarte import cyclotomic
from delsarte.catalog import CATALOG, load_entry
from delsarte.cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec, euler_phi, units_mod
from delsarte.errors import BadEigenbasis, DelsarteError
from delsarte.fusion import _group_rows, galois_fusion, orbit_merge, sigma_permutations
from delsarte.groups import builtin_group, conj_class_scheme, eigendata_from_characters
from delsarte.scheme import attach_eigendata, krein_parameters
from galois_reference import (
    reference_dual_map,
    reference_group_rows,
    reference_krein_parameters,
    reference_orbit_merge,
    reference_outside,
    reference_sigma_permutations,
)

CONDUCTORS = (1, 2, 4, 5, 8, 12, 20)
BLOCKS = (1, cyclotomic.GALOIS_BLOCK_NUMERATORS)
BIG = 2**63 + 1  # scales a numerator past int64


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


@settings(max_examples=40, deadline=None)
@given(st.data())
@pytest.mark.parametrize("block", BLOCKS)
def test_stacked_images_match_one_galois_call_per_unit(block, data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    m = data.draw(matrices(n))
    units = data.draw(unit_lists(n))
    with mock.patch.object(cyclotomic, "GALOIS_BLOCK_NUMERATORS", block):
        keys = {axis: list(m.galois_line_keys(units, axis)) for axis in (0, 1)}
        moved = m.galois_moved(units)
    own = {axis: m.line_keys(axis) for axis in (0, 1)}
    for u, k in enumerate(units):
        image = m.galois(k)
        assert moved[u].tolist() == (~(image - m).zero_mask()).tolist()
        for axis, pick in ((0, "rows"), (1, "cols")):
            assert keys[axis][u] == image.line_keys(axis)
            # a key of the image equals a key of m exactly when the lines are equal
            for a in range(len(own[axis])):
                for b in range(len(own[axis])):
                    equal = image.select(**{pick: [a]}) == m.select(**{pick: [b]})
                    assert (keys[axis][u][a] == own[axis][b]) == equal


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_distinct_columns_and_subfield_check_match_the_loops(data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    m = data.draw(matrices(n))
    distinct, inverse = m.distinct_columns()
    assert distinct.select(cols=inverse) == m
    assert len(set(distinct.line_keys(1))) == distinct.cols
    assert [int(t) for t in np.unique(inverse, return_index=True)[1]] == sorted(
        {m.line_keys(1).index(key) for key in m.line_keys(1)})
    spec = SubfieldSpec(n, data.draw(unit_lists(n)))
    assert m.galois_moved(spec.generators).any(axis=0).tolist() == \
        reference_outside(m, spec).tolist()


def test_galois_blocks_follow_the_overflow_rule():
    z = Cyclotomic.zeta
    m = CycMatrix([[z(12) * (2**61), z(12, 5)], [1, z(12, 7) * BIG]])
    with mock.patch.object(cyclotomic, "GALOIS_BLOCK_NUMERATORS", 1):
        keys = list(m.galois_line_keys(units_mod(12), 1))
    assert keys == [m.galois(k).line_keys(1) for k in units_mod(12)]
    # a line beyond int64 is keyed by its Python ints, one that fits by its bytes
    assert isinstance(keys[0][1], tuple) and isinstance(keys[0][0], bytes)


# ---------------------------------------------------------------------------
# catalog and ladder against the per-unit loops
# ---------------------------------------------------------------------------

LADDER = tuple(("cyclic", n) for n in (12, 16, 20, 30)) + tuple(
    ("dicyclic", n) for n in (3, 5, 7, 9, 11, 13))
CASES = tuple(("catalog", name) for name in sorted(CATALOG)) + LADDER


@functools.cache
def case(family, n):
    if family == "catalog":
        loaded = load_entry(n)
        return loaded.scheme, loaded.eigen
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


@pytest.mark.parametrize("family, n", CASES)
def test_orbits_rows_dual_maps_and_krein_match_the_loops(family, n):
    scheme, eigen = case(family, n)
    rng = random.Random(f"{family}{n}")
    for spec in subfields(eigen.conductor, rng):
        assert sigma_permutations(eigen, spec) == reference_sigma_permutations(eigen, spec)
        data = orbit_merge(eigen, spec)
        perms, orbits, iota, qbar = reference_orbit_merge(eigen, spec)
        assert (data.perms, data.orbits, data.iota) == (perms, orbits, iota)
        assert data.Qbar == qbar
        assert _group_rows(data.Qbar) == reference_group_rows(qbar)
    assert eigen.dual_map == reference_dual_map(scheme, eigen.Q)
    assert attach_eigendata(scheme, eigen.Q).dual_map == eigen.dual_map
    kd, want = krein_parameters(eigen), reference_krein_parameters(eigen)
    assert kd.krein_conductor == want.krein_conductor
    if family == "catalog":
        assert kd.q == want.q


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
    scheme, eigen = case(family, n)
    rng = random.Random(f"dual {family}{n}")
    for _ in range(4):
        tail = list(range(1, scheme.classes))
        rng.shuffle(tail)
        bad = dataclasses.replace(scheme, transpose_map=(0, *tail))
        got, want = outcome(attach_eigendata, bad, eigen.Q), outcome(reference_dual_map, bad, eigen.Q)
        if isinstance(want, tuple) and isinstance(want[0], str):
            assert got == want and want[0] == BadEigenbasis.__name__
        else:
            assert got.dual_map == want


@pytest.mark.parametrize("family, n", [c for c in CASES if c[0] == "catalog"]
                         + [("cyclic", 12), ("dicyclic", 5), ("dicyclic", 7)])
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

#: traced peaks in bytes of the per-unit loops (numpy 2, CPython 3.11), rounded
#: up to the next 10 kB: Krein is dominated by the product P W, and the Galois
#: fusion by the signatures of sigma_permutations
PEAK_BUDGETS = {
    (("cyclic", 30), "krein"): 12_020_000,
    (("dicyclic", 13), "krein"): 5_610_000,
    (("cyclic", 30), "galois"): 600_000,
    (("dicyclic", 13), "galois"): 810_000,
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
