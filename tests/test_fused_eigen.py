"""Fused eigendata read off the verified parent, against a full
``attach_eigendata`` on the fused scheme.

``fusion.fuse_by_relation_partition`` builds the fused ``EigenData`` from
P O and Q O_E and accepts it by two exact checks (C1: Qbar constant on each
relation cell; C2: the second orthogonality relation between P_F and Q_F).
On hypothesis partitions of the catalog schemes and of the class schemes of
Z_5 ... Z_8 and Dic_3 ... Dic_7, and on the Galois fusion of every subfield
of their splitting fields, the fused eigendata must equal what
``attach_eigendata`` attaches to the fused scheme, field for field, and the
whole ``FusionScheme`` (or the error) must equal the former function's in
tests/fusion_reference.py.  A parent whose P and Q do not belong together
must be rejected by C1 or C2.
"""

import dataclasses

import numpy as np
import pytest
from fusion_reference import reference_fuse_by_relation_partition, reference_galois_fusion
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fused_tensor import CASES, case, partitions

from delsarte.cyclotomic import CycMatrix, SubfieldSpec, units_mod
from delsarte.errors import InternalAssertion, NotAFusion, NotClosed
from delsarte.fusion import fuse_by_relation_partition, galois_fusion
from delsarte.scheme import attach_eigendata

EIGEN_FIELDS = ("P", "Q", "multiplicities", "conductor")


def subfields(n):
    """Q, the real subfield, the splitting field and every single-unit
    fixing group of Q(zeta_n)."""
    return [SubfieldSpec.rationals(n), SubfieldSpec.real(n), SubfieldSpec.splitting_field(n)] + [
        SubfieldSpec(n, [k]) for k in units_mod(n)]


def assert_attached(fs):
    """fs.eigen is what attach_eigendata attaches to the fused scheme."""
    attached = attach_eigendata(fs.fused, fs.eigen.Q)
    assert fs.eigen.scheme is fs.fused
    for name in EIGEN_FIELDS:
        assert getattr(fs.eigen, name) == getattr(attached, name), name


def assert_same_fusion(got, want):
    """Two FusionSchemes equal in every field, the fused scheme's and the
    eigendata's fields included."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "fused":
            for sub in dataclasses.fields(b):
                x, y = getattr(a, sub.name), getattr(b, sub.name)
                assert np.array_equal(x, y) if isinstance(y, np.ndarray) else x == y, sub.name
        elif field.name == "eigen":
            for name in EIGEN_FIELDS:
                assert getattr(a, name) == getattr(b, name), name
        elif field.name in ("parent_eigen", "orbit_data"):
            assert (a is None) == (b is None), field.name
        else:
            assert a == b, field.name


def outcome(fuse, *args):
    try:
        return fuse(*args)
    except (NotAFusion, NotClosed, InternalAssertion) as exc:
        return type(exc).__name__, str(exc)


def assert_same_outcome(fuse, reference, *args):
    """Compare with the reference; the fusion where one exists, else None."""
    got, want = outcome(fuse, *args), outcome(reference, *args)
    if isinstance(want, tuple):
        assert got == want
        return None
    assert not isinstance(got, tuple), got
    assert_same_fusion(got, want)
    assert_attached(got)
    return got


@settings(max_examples=60, deadline=None)
@given(st.data())
@pytest.mark.parametrize("family, n", CASES)
def test_fused_eigendata_matches_the_reference(family, n, data):
    scheme, eigen = case(family, n)
    partition = data.draw(partitions(scheme.classes))
    assert_same_outcome(fuse_by_relation_partition, reference_fuse_by_relation_partition,
                        scheme, eigen, partition)


@pytest.mark.parametrize("family, n", CASES)
def test_galois_fusions_match_the_reference(family, n):
    scheme, eigen = case(family, n)
    found = 0
    for subfield in subfields(eigen.conductor):
        fs = assert_same_outcome(galois_fusion, reference_galois_fusion, scheme, eigen, subfield)
        if fs is not None:
            found += 1
            # the same partition without the orbit data, untagged
            plain = fuse_by_relation_partition(scheme, eigen, fs.partition)
            assert plain.subfield is None and plain.orbit_data is None
            assert_same_fusion(plain, dataclasses.replace(fs, subfield=None, orbit_data=None))
    # the splitting field fixes every idempotent: its fusion is the scheme itself
    assert found


@pytest.mark.parametrize("family, n", CASES)
def test_trivial_and_discrete_fusions_match_the_reference(family, n):
    scheme, eigen = case(family, n)
    dp1 = scheme.classes
    for partition in ([(k,) for k in range(dp1)], [(0,), tuple(range(1, dp1))]):
        assert assert_same_outcome(fuse_by_relation_partition,
                                   reference_fuse_by_relation_partition,
                                   scheme, eigen, partition) is not None


# ---------------------------------------------------------------------------
# seeded corruptions of the parent: C1 or C2 rejects them
# ---------------------------------------------------------------------------

def _changed(m: CycMatrix, cells, delta) -> CycMatrix:
    """m with delta added at each (i, j) of cells."""
    rows = [list(row) for row in m.entries]
    for i, j in cells:
        rows[i][j] = rows[i][j] + delta
    return CycMatrix(rows, m.conductor)


def _fusions(family, n):
    """Partitions of the scheme that are fusions: the trivial one, and the
    Galois fusion over Q where there is one."""
    scheme, eigen = case(family, n)
    found = [[(0,), tuple(range(1, scheme.classes))]]
    try:
        found.append(galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor)).partition)
    except NotClosed:
        pass
    return found


def _corruptions(eigen, cells, rng):
    """(check that must fire, corrupted parent) for a fusion with these
    relation cells: the PO criterion still passes on each."""
    dp1 = eigen.scheme.classes
    j = int(rng.integers(1, dp1))
    I = int(rng.integers(1, len(cells)))
    # a wrong Q column on one non-head row of a cell: Qbar splits the cell
    for cell in cells:
        if len(cell) > 1:
            i = cell[1 + int(rng.integers(len(cell) - 1))]
            yield "C1", dataclasses.replace(eigen, Q=_changed(eigen.Q, [(i, j)], 1))
    # a wrong Q column on every row of a cell: Qbar stays constant on it
    yield "C2", dataclasses.replace(eigen, Q=_changed(eigen.Q, [(i, j) for i in cells[I]], 1))
    # a wrong P row on a cell: row 0 of PO (E_0 is its own class) moves far
    # from every other row, so the row classes stay the same
    yield "C2", dataclasses.replace(eigen, P=_changed(eigen.P, [(0, i) for i in cells[I]], 1000))


@pytest.mark.parametrize("family, n", CASES)
def test_a_parent_with_wrong_p_or_q_is_rejected(family, n):
    scheme, eigen = case(family, n)
    rng = np.random.default_rng(sum(map(ord, f"{family}{n}")))
    reached = set()
    for partition in _fusions(family, n):
        cells = fuse_by_relation_partition(scheme, eigen, partition).partition
        for check, bad in _corruptions(eigen, cells, rng):
            with pytest.raises(InternalAssertion, match=rf"^fused eigendata rejected: {check}: "):
                fuse_by_relation_partition(scheme, bad, partition)
            reached.add(check)
    assert "C2" in reached


def test_c1_is_reached_and_named():
    scheme, eigen = case("catalog", "x8")
    fs = galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor))
    cell = next(cell for cell in fs.partition if len(cell) > 1)
    bad = dataclasses.replace(eigen, Q=_changed(eigen.Q, [(cell[1], 1)], 1))
    with pytest.raises(InternalAssertion,
                       match=rf"^fused eigendata rejected: C1: row {cell[1]} of Qbar differs "
                             rf"from row {cell[0]} in relation cell {fs.class_map[cell[0]]}$"):
        fuse_by_relation_partition(scheme, bad, fs.partition)


def test_a_wrong_p_row_is_rejected_in_a_galois_fusion():
    # orbit_merge reads Q only, so the wrong P row reaches C2 through the
    # orbit data's Qbar
    scheme, eigen = case("dicyclic", 5)
    fs = galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor))
    I = len(fs.partition) - 1
    bad = dataclasses.replace(eigen, P=_changed(eigen.P, [(0, i) for i in fs.partition[I]], 1000))
    with pytest.raises(InternalAssertion,
                       match=rf"^fused eigendata rejected: C2: m_0 conj\(P_F\[0\]\[{I}\]\) "
                             rf"!= v_{I} Q_F\[{I}\]\[0\]$"):
        galois_fusion(scheme, bad, SubfieldSpec.rationals(eigen.conductor))
