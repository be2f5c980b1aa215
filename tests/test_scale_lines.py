"""Rational scalings of rows and columns against the former dense products.

``CycMatrix.scale_lines(rows, cols)`` is diag(rows) M diag(cols) as one
broadcast multiply of the numerator array, and ``CycMatrix.diagonal`` lifts
its vector once; both must give the integer form (numerators, their dtype
and the denominator) of the dense products in tests/eigen_reference.py, for
vectors with zeros, negatives and 2^62-sized numerators and denominators
(where the Python-int path runs), at conductors 1, 4, 28 and 60.  P, Q and
the fused Q_F of the catalog and of the built-in groups must be the
reference scalings, and seeded corruptions of Q must be rejected by
``attach_eigendata`` with the invariant and message of the former one,
including those that reach the E0 column and the multiplicities, which are
read off one rational part of Q.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from eigen_reference import reference_attach_eigendata, reference_diagonal, reference_scaled
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte.catalog import CATALOG, load_entry
from delsarte.cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec
from delsarte.errors import BadEigenbasis, NotClosed
from delsarte.fusion import galois_fusion
from delsarte.groups import builtin_group, eigendata_from_characters
from delsarte.scheme import attach_eigendata

CONDUCTORS = (1, 4, 28, 60)

#: rationals with zeros, small negatives and 2^62-sized numerators and
#: denominators
RATIONALS = st.one_of(
    st.just(0),
    st.integers(-7, 7),
    st.integers(-(2**62), 2**62),
    st.builds(Fraction, st.integers(-(2**62), 2**62), st.integers(1, 2**62)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)


def same_form(got: CycMatrix, want: CycMatrix) -> None:
    assert got == want
    assert (got.conductor, got._den, got._num.dtype) == (want.conductor, want._den, want._num.dtype)
    assert got._num.tolist() == want._num.tolist()


@st.composite
def matrices(draw):
    """A matrix at a drawn conductor with term lists of drawn rationals."""
    n = draw(st.sampled_from(CONDUCTORS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    terms = st.lists(st.tuples(st.integers(0, n - 1), RATIONALS), max_size=3)
    grid = [[draw(terms) for _ in range(cols)] for _ in range(rows)]
    return CycMatrix.from_terms(n, grid)


@st.composite
def scalings(draw):
    m = draw(matrices())
    rows = draw(st.none() | st.lists(RATIONALS, min_size=m.rows, max_size=m.rows))
    cols = draw(st.none() | st.lists(RATIONALS, min_size=m.cols, max_size=m.cols))
    return m, rows, cols


@settings(max_examples=300, deadline=None)
@given(scalings())
def test_scale_lines_matches_the_dense_products(case):
    m, rows, cols = case
    same_form(m.scale_lines(rows=rows, cols=cols), reference_scaled(m, rows, cols))


@settings(max_examples=200, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=6))
def test_diagonal_matches_the_object_array(values):
    diagonal = CycMatrix.identity(len(values)).scale_lines(rows=values)
    same_form(diagonal, reference_diagonal(values))


@pytest.mark.parametrize("n", CONDUCTORS)
def test_large_scalings_take_the_python_int_path(n):
    # max|num| max|r| max|c| = 2^40 2^30 2^3 is past 2^62, so the multiply
    # runs on Python ints, and the result does not fit int64
    z = Cyclotomic.zeta(n)
    m = CycMatrix([[z * 2**40 + 1, 0], [-z, Fraction(1, 3)]], n)
    rows, cols = [2**30, Fraction(-1, 2**62 - 57)], [8, 0]
    got = m.scale_lines(rows=rows, cols=cols)
    assert got._num.dtype == object
    same_form(got, reference_scaled(m, rows, cols))
    # a small scaling of the same matrix stays in int64
    same_form(m.scale_lines(cols=[3, -1]), reference_scaled(m, None, [3, -1]))


@pytest.mark.parametrize("value", [2**62 - 1, 2**62, -(2**62), 2**63 - 1])
def test_one_form_at_the_int64_edge(value):
    # int64 holds numerators below 2^62 only, whichever way the matrix is built
    want = np.int64 if abs(value) < 2**62 else object
    built = (
        CycMatrix([[value]]),
        CycMatrix(np.array([[value]], dtype=object)),
        CycMatrix(np.array([[value]], dtype=np.int64)),
        CycMatrix.identity(1).scale_lines(rows=[value]),
    )
    for m in built:
        assert m._num.dtype == want
        same_form(m, built[0])


def test_scale_lines_checks_the_vector_lengths():
    m = CycMatrix([[1, 2, 3]])
    with pytest.raises(ValueError, match="shape mismatch"):
        m.scale_lines(rows=[1, 2])
    with pytest.raises(ValueError, match="shape mismatch"):
        m.scale_lines(cols=[1, 2])
    assert m.scale_lines() == m


def test_zero_scalings_reduce_to_the_zero_form():
    m = CycMatrix([[Fraction(1, 3), Cyclotomic.zeta(4)]])
    got = m.scale_lines(rows=[0], cols=[Fraction(1, 2**64), 5])
    assert (got._den, got._num.tolist()) == (1, [[[0, 0], [0, 0]]])


# ---------------------------------------------------------------------------
# the library's P, Q and Q_F are the reference scalings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_p_and_fused_q_are_the_reference_scalings(name):
    eigen = load_entry(name).eigen
    inverse_mult = [Fraction(1, m) for m in eigen.multiplicities]
    same_form(eigen.P, reference_scaled(eigen.Q.adjoint(), inverse_mult,
                                        eigen.scheme.valencies))
    try:
        fs = galois_fusion(eigen.scheme, eigen, SubfieldSpec.rationals(eigen.conductor))
    except NotClosed:
        return
    fused_mult = [sum(eigen.multiplicities[j] for j in cell) for cell in fs.eigen_classes]
    merge = np.eye(len(fs.partition), dtype=np.int64)[list(fs.class_map)]
    p_f = (eigen.P * CycMatrix(merge)).select(rows=[cell[0] for cell in fs.eigen_classes])
    want = reference_scaled(p_f.adjoint(), [Fraction(1, v) for v in fs.fused.valencies],
                            fused_mult)
    same_form(fs.eigen.Q, want)


@pytest.mark.parametrize("family, n", [("cyclic", 8), ("dicyclic", 5), ("dicyclic", 7)])
def test_group_q_is_the_reference_scaling(family, n):
    group, classes, table = builtin_group(family, n)
    eigen = eigendata_from_characters(group, classes, table)
    same_form(eigen.Q, reference_scaled(table.matrix.adjoint(), None, table.degrees))


# ---------------------------------------------------------------------------
# seeded corruptions: the invariant and message of the former check
# ---------------------------------------------------------------------------

def _failure(attach, scheme, q):
    try:
        attach(scheme, q)
    except BadEigenbasis as exc:
        return exc.invariant, str(exc)
    return None


def _with_rows(q: CycMatrix, changed: dict) -> CycMatrix:
    rows = [list(row) for row in q.entries]
    for (i, j), value in changed.items():
        rows[i][j] = value
    return CycMatrix(rows, q.conductor)


def _corruptions(eigen, rng):
    """(invariant the corruption must reach, scheme, corrupted Q)."""
    scheme, q, n = eigen.scheme, eigen.Q, eigen.conductor
    dp1 = scheme.classes
    i, j = (int(v) for v in rng.integers(1, dp1, size=2))
    unit = Cyclotomic.zeta(n, int(rng.integers(n)))
    yield "E0", scheme, _with_rows(q, {(i, 0): q[i, 0] + unit})
    yield "multiplicity", scheme, _with_rows(q, {(0, j): q[0, j] + Fraction(1, 2)})
    yield "multiplicity", scheme, _with_rows(q, {(0, j): q[0, j] + 1})
    yield "orthogonality", scheme, _with_rows(q, {(i, j): q[i, j] + unit})
    # rows of two relations of one valency swapped: PQ = |X| I still holds
    pairs = [(a, b) for a in range(1, dp1) for b in range(a + 1, dp1)
             if scheme.valencies[a] == scheme.valencies[b]]
    if pairs:
        a, b = pairs[int(rng.integers(len(pairs)))]
        order = list(range(dp1))
        order[a], order[b] = b, a
        swapped = q.select(rows=order)
        if swapped != q:
            yield "eigenvector", scheme, swapped
    # a transpose map that pairs a non-symmetric relation with itself
    moved = [a for a in range(1, dp1) if scheme.transpose_map[a] != a]
    if moved:
        a = moved[int(rng.integers(len(moved)))]
        tmap = list(scheme.transpose_map)
        tmap[a] = a
        yield "hermitian", dataclasses.replace(scheme, transpose_map=tuple(tmap)), q


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_corrupted_q_is_rejected_like_the_former_check(name):
    eigen = load_entry(name).eigen
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(4):
        for invariant, scheme, q in _corruptions(eigen, rng):
            got = _failure(attach_eigendata, scheme, q)
            assert got == _failure(reference_attach_eigendata, scheme, q)
            # a swap of two rows may be a symmetry of the scheme, and pass
            assert got[0] == invariant if got else invariant == "eigenvector"


def test_corruptions_reach_every_invariant():
    rng = np.random.default_rng(3)
    reached = {got[0] for name in sorted(CATALOG)
               for _, scheme, q in _corruptions(load_entry(name).eigen, rng)
               if (got := _failure(attach_eigendata, scheme, q))}
    assert reached == {"E0", "multiplicity", "orthogonality", "eigenvector", "hermitian"}


def _rational_part_corruptions(eigen, rng):
    """(invariant, corrupted Q) for the checks read off Q's rational part:
    irrational and fractional entries in column 0 and row 0, both at once,
    and a denominator elsewhere that leaves column 0 all ones."""
    q, n = eigen.Q, eigen.conductor
    dp1 = eigen.scheme.classes
    i, j = (int(v) for v in rng.integers(1, dp1, size=2))
    zeta = Cyclotomic.zeta(n)
    # an irrational E0 entry in the last row, after any irrational entry of Q
    yield "E0", _with_rows(q, {(dp1 - 1, 0): q[dp1 - 1, 0] + zeta})
    yield "E0", _with_rows(q, {(i, 0): q[i, 0] + Fraction(1, 3)})
    yield "E0", _with_rows(q, {(i, 0): q[i, 0] - 1, (0, j): q[0, j] + zeta})
    yield "multiplicity", _with_rows(q, {(0, j): q[0, j] + zeta})
    yield "multiplicity", _with_rows(q, {(0, j): -q[0, j]})
    yield "orthogonality", _with_rows(q, {(i, j): q[i, j] + Fraction(1, 2)})


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_rational_part_corruptions_are_rejected_like_the_former_check(name):
    eigen = load_entry(name).eigen
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    for _ in range(3):
        for invariant, q in _rational_part_corruptions(eigen, rng):
            got = _failure(attach_eigendata, eigen.scheme, q)
            assert got == _failure(reference_attach_eigendata, eigen.scheme, q)
            assert got[0] == invariant, (invariant, got)
