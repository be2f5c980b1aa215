from fractions import Fraction

import numpy as np
import pytest

from delsarte.catalog import build_coxeter, build_x8, build_y8
from delsarte.cyclotomic import CycMatrix, SubfieldSpec
from delsarte.errors import NotAFusion, NotClosed, NotPermutation
from delsarte.fusion import (
    bannai_muzychuk_idempotent,
    common_fusion,
    fuse_by_relation_partition,
    galois_fusion,
    orbit_merge,
    partition_join,
    sigma_permutations,
)

X8_FUSED_RELATION = [
    [0, 1, 2, 2, 3, 3, 3, 3],
    [1, 0, 2, 2, 3, 3, 3, 3],
    [2, 2, 0, 1, 3, 3, 3, 3],
    [2, 2, 1, 0, 3, 3, 3, 3],
    [3, 3, 3, 3, 0, 1, 2, 2],
    [3, 3, 3, 3, 1, 0, 2, 2],
    [3, 3, 3, 3, 2, 2, 0, 1],
    [3, 3, 3, 3, 2, 2, 1, 0],
]


def rationals_for(eigen):
    return SubfieldSpec.rationals(eigen.conductor)


# ---------------------------------------------------------------------------
# sigma permutations
# ---------------------------------------------------------------------------

def test_x8_galois_permutations():
    _, eigen = build_x8()
    perms = sigma_permutations(eigen, rationals_for(eigen))
    assert perms == ((0, 1, 2, 3, 4), (0, 1, 3, 2, 4))


def test_coxeter_galois_permutations():
    _, eigen = build_coxeter()
    perms = sigma_permutations(eigen, rationals_for(eigen))
    # conjugation fixes the real field; only sqrt2 -> -sqrt2 acts, swapping
    # the two eigenspaces with irrational eigenvalues
    assert perms == ((0, 1, 2, 3, 4), (0, 1, 4, 3, 2))


def test_splitting_field_gives_identity_only():
    for builder in (build_x8, build_coxeter):
        _, eigen = builder()
        perms = sigma_permutations(eigen, SubfieldSpec.splitting_field(eigen.conductor))
        assert perms == (tuple(range(5)),)


def test_larger_ambient_conductor_restricts_correctly():
    # the same Q declared inside Q(zeta_8): units of Z/8 restrict to the
    # splitting field Q(i), and automorphisms agreeing there are identified
    scheme, eigen = build_x8()
    from delsarte.scheme import attach_eigendata

    q8 = CycMatrix([list(r) for r in eigen.Q.entries], 8)
    eigen8 = attach_eigendata(scheme, q8)
    perms = sigma_permutations(eigen8, SubfieldSpec.rationals(8))
    assert perms == ((0, 1, 2, 3, 4), (0, 1, 3, 2, 4))


def test_inconsistent_eigendata_fails_permutation():
    # bypass verification to feed a Q that is not Galois-consistent: the
    # conjugate of a column must land outside the column set
    scheme, eigen = build_x8()
    from delsarte.cyclotomic import Cyclotomic
    from delsarte.scheme import EigenData

    rows = [list(r) for r in eigen.Q.entries]
    rows[2][2] = rows[2][2] + Cyclotomic.zeta(4)  # corrupt one entry
    bad = EigenData(
        scheme=scheme,
        Q=CycMatrix(rows, 4),
        P=eigen.P,
        multiplicities=eigen.multiplicities,
        conductor=4,
    )
    with pytest.raises(NotPermutation):
        sigma_permutations(bad, SubfieldSpec.rationals(4))


# ---------------------------------------------------------------------------
# orbit merging
# ---------------------------------------------------------------------------

def test_x8_orbits_and_qbar():
    _, eigen = build_x8()
    data = orbit_merge(eigen, rationals_for(eigen))
    assert data.orbits == ((0,), (1,), (2, 3), (4,))
    assert data.iota == (0, 1, 2, 2, 3)
    expected = CycMatrix(
        [
            [1, 1, 4, 2],
            [1, 1, -4, 2],
            [1, 1, 0, -2],
            [1, 1, 0, -2],
            [1, -1, 0, 0],
        ]
    )
    assert data.Qbar == expected
    assert np.array_equal(
        data.O,
        np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        ),
    )


def test_z12_rational_orbits():
    from delsarte.catalog import build_z12

    b = build_z12()
    data = orbit_merge(b.eigen, SubfieldSpec.rationals(12))
    assert data.orbits == ((0,), (1, 5, 7, 11), (2, 10), (3, 9), (4, 8), (6,))


def test_coxeter_orbits_and_qbar():
    _, eigen = build_coxeter()
    data = orbit_merge(eigen, rationals_for(eigen))
    assert data.orbits == ((0,), (1,), (2, 4), (3,))
    assert data.iota == (0, 1, 2, 3, 2)
    f = Fraction
    expected = CycMatrix(
        [
            [1, 8, 12, 7],
            [1, f(16, 3), -4, f(-7, 3)],
            [1, f(4, 3), 0, f(-7, 3)],
            [1, f(-4, 3), -2, f(7, 3)],
            [1, f(-8, 3), 4, f(-7, 3)],
        ]
    )
    assert data.Qbar == expected


def test_merged_idempotents_are_rational_matrices():
    _, eigen = build_x8()
    data = orbit_merge(eigen, rationals_for(eigen))
    f2 = data.merged_idempotent(2)
    assert all(v.is_rational() for row in f2.entries for v in row)
    assert f2 * f2 == f2
    e2, e3 = eigen.idempotent(2), eigen.idempotent(3)
    assert f2 == e2 + e3


# ---------------------------------------------------------------------------
# Bannai-Muzychuk criterion
# ---------------------------------------------------------------------------

def test_x8_criterion_passes():
    _, eigen = build_x8()
    verdict = bannai_muzychuk_idempotent(orbit_merge(eigen, rationals_for(eigen)))
    assert verdict.passes
    assert verdict.row_classes == ((0,), (1,), (2, 3), (4,))


def test_coxeter_criterion_fails():
    _, eigen = build_coxeter()
    verdict = bannai_muzychuk_idempotent(orbit_merge(eigen, rationals_for(eigen)))
    assert not verdict.passes
    assert verdict.distinct_rows == 5


def test_trivial_merge_passes():
    _, eigen = build_x8()
    verdict = bannai_muzychuk_idempotent(
        orbit_merge(eigen, SubfieldSpec.splitting_field(eigen.conductor))
    )
    assert verdict.passes
    assert verdict.distinct_rows == 5


# ---------------------------------------------------------------------------
# relation-side fusion
# ---------------------------------------------------------------------------

def test_x8_fused_relation_matrix():
    scheme, eigen = build_x8()
    fs = fuse_by_relation_partition(scheme, eigen, [(0,), (1,), (2, 3), (4,)])
    assert np.array_equal(fs.fused.relation, np.array(X8_FUSED_RELATION))
    assert fs.fused.valencies == (1, 1, 2, 4)


def test_partition_must_isolate_identity():
    scheme, eigen = build_x8()
    with pytest.raises(ValueError):
        fuse_by_relation_partition(scheme, eigen, [(0, 1), (2, 3), (4,)])


def test_failing_partition_reports_row_count():
    scheme, eigen = build_coxeter()
    with pytest.raises(NotAFusion):
        fuse_by_relation_partition(scheme, eigen, [(0,), (1, 2), (3, 4)])


# ---------------------------------------------------------------------------
# Galois fusion
# ---------------------------------------------------------------------------

def test_x8_galois_fusion_canonical_qf():
    scheme, eigen = build_x8()
    fs = galois_fusion(scheme, eigen, rationals_for(eigen))
    assert fs.partition == ((0,), (1,), (2, 3), (4,))
    expected_qf = CycMatrix(
        [
            [1, 1, 4, 2],
            [1, 1, -4, 2],
            [1, 1, 0, -2],
            [1, -1, 0, 0],
        ]
    )
    assert fs.Q_F == expected_qf
    assert fs.eigen.multiplicities == (1, 1, 4, 2)
    # PO = S P_F
    po = CycMatrix(
        [
            [
                sum_cell(eigen, j, cell)
                for cell in fs.partition
            ]
            for j in range(scheme.classes)
        ]
    )
    s_pf_rows = []
    for j in range(scheme.classes):
        l = fs.eigen_iota(j)
        s_pf_rows.append([fs.P_F[l, c] for c in range(4)])
    assert po == CycMatrix(s_pf_rows)


def sum_cell(eigen, j, cell):
    acc = eigen.P[j, cell[0]]
    for i in cell[1:]:
        acc = acc + eigen.P[j, i]
    return acc


def test_coxeter_has_no_galois_fusion():
    scheme, eigen = build_coxeter()
    with pytest.raises(NotClosed) as err:
        galois_fusion(scheme, eigen, rationals_for(eigen))
    assert err.value.distinct_rows == 5


def test_y8_galois_fusion_equals_x8_fusion():
    xs, xe = build_x8()
    ys, ye = build_y8()
    fx = galois_fusion(xs, xe, rationals_for(xe))
    fy = galois_fusion(ys, ye, rationals_for(ye))
    assert np.array_equal(fx.fused.relation, fy.fused.relation)
    assert fy.partition == ((0,), (1,), (2,), (3, 4))
    assert fy.orbit_data.iota == (0, 1, 1, 2, 3)


def test_trivial_galois_fusion_is_identity_fusion():
    scheme, eigen = build_x8()
    fs = galois_fusion(scheme, eigen, SubfieldSpec.splitting_field(eigen.conductor))
    assert np.array_equal(fs.fused.relation, scheme.relation)


# ---------------------------------------------------------------------------
# common fusion / partition join
# ---------------------------------------------------------------------------

def test_join_with_itself():
    scheme, eigen = build_x8()
    p = ((0,), (1,), (2, 3), (4,))
    fs1 = fuse_by_relation_partition(scheme, eigen, p)
    fs2 = common_fusion(scheme, eigen, p, p)
    assert np.array_equal(fs1.fused.relation, fs2.fused.relation)


def test_join_with_complete_partition_gives_complete_graph():
    scheme, eigen = build_x8()
    p = ((0,), (1,), (2, 3), (4,))
    whole = ((0,), (1, 2, 3, 4))
    fs = common_fusion(scheme, eigen, p, whole)
    assert fs.fused.classes == 2
    assert fs.fused.valencies == (1, 7)


def test_partition_join_algebra():
    p1 = ((0,), (1, 2), (3,), (4, 5))
    p2 = ((0,), (1,), (2, 3), (4,), (5,))
    assert partition_join(p1, p2, 6) == ((0,), (1, 2, 3), (4, 5))


def test_z12_gcd_join_symmetrization_is_gcd():
    from delsarte.catalog import build_z12

    b = build_z12()
    gcd_cells = ((0,), (1, 5, 7, 11), (2, 10), (3, 9), (4, 8), (6,))
    sym_cells = ((0,), (1, 11), (2, 10), (3, 9), (4, 8), (5, 7), (6,))
    fs_gcd = fuse_by_relation_partition(b.scheme, b.eigen, gcd_cells)
    fs_join = common_fusion(b.scheme, b.eigen, gcd_cells, sym_cells)
    assert fs_join.partition == gcd_cells
    assert np.array_equal(fs_join.fused.relation, fs_gcd.fused.relation)


def test_property_m_closed_under_field_intersection():
    # fusions over K1 and K2 imply a fusion over the field fixed by the
    # subgroup generated by both fixing groups
    from delsarte.catalog import build_z12

    b = build_z12()
    k1 = SubfieldSpec(12, [5])
    k2 = SubfieldSpec(12, [7])
    f1 = galois_fusion(b.scheme, b.eigen, k1)
    f2 = galois_fusion(b.scheme, b.eigen, k2)
    both = SubfieldSpec(12, [5, 7])
    assert both.group == (1, 5, 7, 11)
    f12 = galois_fusion(b.scheme, b.eigen, both)
    # the intersection field here is Q, so this is the gcd scheme
    assert f12.partition == ((0,), (1, 5, 7, 11), (2, 10), (3, 9), (4, 8), (6,))
    for fine in (f1, f2):
        for cell in fine.partition:
            assert any(set(cell) <= set(coarse) for coarse in f12.partition)


def test_dic3_real_fusion_is_symmetrization():
    from delsarte.catalog import build_dicyclic

    b = build_dicyclic(3)
    fs = galois_fusion(b.scheme, b.eigen, SubfieldSpec.real(b.eigen.conductor))
    # only the transpose pair C_4, C_5 merges
    assert fs.partition == ((0,), (1,), (2,), (3,), (4, 5))
    sym = np.minimum(b.scheme.relation, b.scheme.relation.T)
    lookup = np.array([0, 1, 2, 3, 4, 4])
    assert np.array_equal(fs.fused.relation, lookup[b.scheme.relation])
    assert np.array_equal(lookup[b.scheme.relation], lookup[sym])
    assert fs.fused.is_symmetric()


# ---------------------------------------------------------------------------
# nested-subfield lemma properties
# ---------------------------------------------------------------------------

def test_fusion_of_fusion_is_fusion_of_original():
    scheme, eigen = build_x8()
    once = fuse_by_relation_partition(scheme, eigen, ((0,), (1,), (2, 3), (4,)))
    twice = fuse_by_relation_partition(
        once.fused, once.eigen, ((0,), (1, 2, 3))
    )
    direct = fuse_by_relation_partition(scheme, eigen, ((0,), (1, 2, 3, 4)))
    assert np.array_equal(twice.fused.relation, direct.fused.relation)
    assert twice.Q_F == direct.Q_F


def test_nested_subfield_orbits_on_dic5():
    from delsarte.catalog import build_dicyclic

    b = build_dicyclic(5)
    q_data = orbit_merge(b.eigen, SubfieldSpec.rationals(20))
    real_data = orbit_merge(b.eigen, SubfieldSpec.real(20))
    # real-subfield orbits refine the rational ones
    for orbit in q_data.orbits:
        cover = [c for c in real_data.orbits if set(c) <= set(orbit)]
        assert sorted(i for c in cover for i in c) == list(orbit)
    # and the real merge only collapses the conjugate linear characters
    assert real_data.orbits == ((0,), (1,), (2, 3), (4,), (5,), (6,), (7,))


def test_nested_subfields_refine_merges():
    # K = Q inside E = Q(i): every Q-merged idempotent is a sum of E-merged
    _, eigen = build_x8()
    k_data = orbit_merge(eigen, SubfieldSpec.rationals(4))
    e_data = orbit_merge(eigen, SubfieldSpec.splitting_field(4))
    for orbit in k_data.orbits:
        cover = [cell for cell in e_data.orbits if set(cell) <= set(orbit)]
        assert sorted(i for cell in cover for i in cell) == list(orbit)


def test_intersection_of_rational_sets():
    # fixing groups generate the intersection field spec: on x8 the fixed
    # field of <3> is Q, of <1> is Q(i); intersection spec has group <1,3>
    _, eigen = build_x8()
    inter = SubfieldSpec(4, [3, 1])
    data = orbit_merge(eigen, inter)
    assert data.orbits == orbit_merge(eigen, SubfieldSpec.rationals(4)).orbits


def test_trivial_merge_iff_fixing_group_acts_trivially():
    _, eigen = build_coxeter()
    # <7> fixes sqrt2 = zeta8 + zeta8^7? sigma_7: zeta -> zeta^7 sends
    # sqrt2 = zeta + zeta^7 to zeta^7 + zeta^49=zeta: fixed.  All Q entries
    # fixed, so all orbits singletons.
    data = orbit_merge(eigen, SubfieldSpec(8, [7]))
    assert all(len(o) == 1 for o in data.orbits)
    data5 = orbit_merge(eigen, SubfieldSpec(8, [5]))
    assert any(len(o) > 1 for o in data5.orbits)
