import random
from fractions import Fraction

import numpy as np
import pytest
from group_reference import character_product_multiplicities, group_intersection_number
from scheme_reference import cycle_scheme

from delsarte.catalog import CATALOG, build_a4, build_dicyclic, build_z12, load_entry
from delsarte.cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec
from delsarte import fusion
from delsarte import groups as groups_module
from delsarte.errors import BadEigenbasis, InternalAssertion, UnsupportedFamily, ValidationError
from delsarte.fusion import galois_fusion
from delsarte.groups import (
    builtin_group,
    builtin_representations,
    conj_class_scheme,
    conjugacy_classes,
    cyclic_group,
    dicyclic_group,
    eigendata_from_characters,
    make_character_table,
    make_group_table,
    rational_class_fusion,
    rational_classes,
    representation_eigenvectors,
    verify_representation,
)
from delsarte.scheme import krein_parameters

zeta = Cyclotomic.zeta


# ---------------------------------------------------------------------------
# group tables and conjugacy classes
# ---------------------------------------------------------------------------

def test_z12_is_translation_scheme():
    b = build_z12()
    assert b.classes.sizes == (1,) * 12
    assert b.scheme.valencies == (1,) * 12


def test_dic3_class_sizes():
    b = build_dicyclic(3)
    assert b.classes.sizes == (1, 2, 2, 1, 3, 3)


def test_a4_class_sizes_and_valencies():
    b = build_a4()
    assert b.classes.sizes == (1, 3, 4, 4)
    assert b.scheme.valencies == (1, 3, 4, 4)


def reference_conjugacy_classes(group):
    """The discovery loop conjugacy_classes used before its conjugation table."""
    mult, inv = group.mult, group.inverse
    class_of = [-1] * group.order
    classes = []
    for g in range(group.order):
        if class_of[g] >= 0:
            continue
        orbit = sorted({int(mult[mult[inv[x], g], x]) for x in range(group.order)})
        for h in orbit:
            class_of[h] = len(classes)
        classes.append(tuple(orbit))
    return tuple(classes), tuple(class_of), tuple(class_of[inv[c[0]]] for c in classes)


def _relabelled(group, seed):
    """An isomorphic table with the non-identity elements shuffled."""
    rng = random.Random(seed)
    perm = [0] + rng.sample(range(1, group.order), group.order - 1)
    P = np.array(perm)
    mult = np.empty_like(group.mult)
    mult[np.ix_(P, P)] = P[group.mult]
    return make_group_table(mult)


@pytest.mark.parametrize("family, n", [
    *(("catalog", name) for name in sorted(CATALOG) if CATALOG[name].group_file),
    *(("cyclic", n) for n in range(2, 31)),
    *(("dicyclic", n) for n in range(3, 14, 2)),
])
def test_conjugacy_classes_match_the_discovery_loop(family, n):
    group = load_entry(n).group if family == "catalog" else builtin_group(family, n)[0]
    for g in (group, _relabelled(group, n if family != "catalog" else 7)):
        classes = conjugacy_classes(g)
        found, class_of, inverse_classes = reference_conjugacy_classes(g)
        assert (classes.classes, classes.class_of) == (found, class_of)
        # the class of the inverses is the transpose relation of the class scheme
        assert conj_class_scheme(g)[0].transpose_map == inverse_classes


def test_dicyclic_presentation_relations():
    g, _, _ = dicyclic_group(3)
    x, y = 1, 6
    assert g.op(y, x) == 7          # y * x = y x
    assert g.op(y, y) == 3          # y^2 = x^3
    # y^{-1} x y = x^{-1}
    y_inv = g.inverse[y]
    assert g.op(g.op(y_inv, x), y) == g.inverse[x]


def test_dicyclic_even_n_rejected():
    with pytest.raises(UnsupportedFamily):
        dicyclic_group(4)
    with pytest.raises(UnsupportedFamily):
        builtin_group("dicyclic", 6)


def test_bad_group_table_rejected():
    with pytest.raises(ValidationError):
        make_group_table([[0, 1], [1, 1]])  # not a group
    with pytest.raises(ValidationError):
        make_group_table([[1, 0], [0, 1]])  # identity not at 0


def test_group_intersection_formula_matches_tensor():
    for b in (build_dicyclic(3), build_a4()):
        p = b.scheme.intersection
        dp1 = b.scheme.classes
        for i in range(dp1):
            for j in range(dp1):
                for k in range(dp1):
                    assert p[i, j, k] == group_intersection_number(
                        b.group, b.classes, i, j, k
                    )


def test_normal_subgroup_imprimitivity():
    # class unions closed under multiplication give disjoint unions of cliques
    b = build_dicyclic(3)
    group, classes, scheme = b.group, b.classes, b.scheme
    from itertools import combinations

    dp1 = len(classes.classes)
    for r in range(1, dp1):
        for extra in combinations(range(1, dp1), r):
            cells = (0,) + extra
            members = sorted(g for c in cells for g in classes.classes[c])
            mset = set(members)
            closed = all(
                group.op(a, bb) in mset for a in members for bb in members
            )
            if not closed:
                continue
            # union relation restricted to N-cosets: complete graphs
            union = np.isin(scheme.relation, cells)
            comp = union[np.ix_(members, members)]
            assert comp.all()
            assert union.sum() == len(members) * group.order


# ---------------------------------------------------------------------------
# character tables and eigenstructure
# ---------------------------------------------------------------------------

def test_a4_eigenmatrices_match_reference():
    b = build_a4()
    w = zeta(3)
    expected_p = CycMatrix(
        [
            [1, 3, 4, 4],
            [1, 3, 4 * w, 4 * w * w],
            [1, 3, 4 * w * w, 4 * w],
            [1, -1, 0, 0],
        ]
    )
    assert b.eigen.P == expected_p
    # Q from Q[i][j] = f_j conj(chi_j(g_i)); the conjugation swaps the two
    # cube-root characters relative to P's rows
    expected_q = CycMatrix(
        [
            [1, 1, 1, 9],
            [1, 1, 1, -3],
            [1, w * w, w, 0],
            [1, w, w * w, 0],
        ]
    )
    assert b.eigen.Q == expected_q
    assert b.eigen.multiplicities == (1, 1, 1, 9)


def test_z12_q_convention():
    b = build_z12()
    for i in range(12):
        for j in range(12):
            assert b.eigen.Q[i, j] == zeta(12, i * j).conjugate()


def test_dic3_multiplicities():
    b = build_dicyclic(3)
    assert b.eigen.multiplicities == (1, 1, 1, 1, 4, 4)
    # kappa(1) = 1 and kappa(2) = -1 at n = 3
    assert b.table.rows[4][1] == 1
    assert b.table.rows[4][2] == -1


def test_dic5_character_values():
    _, _, table = dicyclic_group(5)
    # psi_1 on C_1 is kappa(1) = zeta_20^2 + zeta_20^(-2)
    assert table.rows[4][1] == zeta(20, 2) + zeta(20, 18)


def test_multiplicities_are_squared_degrees():
    for b in (build_z12(), build_a4(), build_dicyclic(3), build_dicyclic(5)):
        assert b.eigen.multiplicities == tuple(f * f for f in b.table.degrees)


def test_inconsistent_character_table_rejected():
    group, classes, table = cyclic_group(6)
    rows = [list(r) for r in table.rows]
    rows[1][1], rows[1][2] = rows[1][2], rows[1][1]  # breaks orthogonality
    bad = make_character_table(CycMatrix(rows, 6))
    scheme, _ = conj_class_scheme(group)
    with pytest.raises(BadEigenbasis):
        eigendata_from_characters(group, classes, bad, scheme)


def test_krein_against_tensor_decomposition():
    # q[i][j][k] * f_k = f_i f_j r[i][j][k]
    for b in (build_dicyclic(3), build_a4()):
        kd = krein_parameters(b.eigen)
        f = b.table.degrees
        dp1 = len(f)
        for i in range(dp1):
            for j in range(dp1):
                r = character_product_multiplicities(
                    b.table, b.classes, b.group.order, i, j
                )
                for k in range(dp1):
                    assert kd.q[i][j][k] * f[k] == Fraction(f[i] * f[j] * r[k])


# ---------------------------------------------------------------------------
# rational fusion
# ---------------------------------------------------------------------------

def test_a4_rational_fusion_matches_reference():
    b = build_a4()
    partition, fused = rational_class_fusion(b.group, b.classes, b.scheme, b.eigen)
    assert partition == ((0,), (1,), (2, 3))
    expected_pbar = CycMatrix([[1, 3, 8], [1, 3, -4], [1, -1, 0]])
    expected_qbar = CycMatrix([[1, 2, 9], [1, 2, -3], [1, -1, 0]])
    assert fused.P_F == expected_pbar
    assert fused.Q_F == expected_qbar
    # complete multipartite 3K4-complement: valencies 1, 3, 8
    assert fused.fused.valencies == (1, 3, 8)


def test_z12_rational_classes_are_gcd_classes():
    b = build_z12()
    partition = rational_classes(b.group, b.classes)
    assert partition == ((0,), (1, 5, 7, 11), (2, 10), (3, 9), (4, 8), (6,))
    _, fused = rational_class_fusion(b.group, b.classes, b.scheme, b.eigen)
    # gcd scheme relation: class of (x, y) determined by gcd(x - y, 12)
    gcd_cells = {}
    import math

    for i in range(12):
        gcd_cells.setdefault(math.gcd(i, 12) if i else 0, set()).add(i)
    assert fused.fused.classes == 6


def test_dic3_rational_fusion_merges_y_classes():
    b = build_dicyclic(3)
    partition, fused = rational_class_fusion(b.group, b.classes, b.scheme, b.eigen)
    assert (4, 5) in partition
    assert fused.fused.classes == 5


def test_rational_fusion_equals_galois_fusion():
    for b in (build_z12(), build_a4(), build_dicyclic(3), build_dicyclic(5)):
        partition, fused = rational_class_fusion(
            b.group, b.classes, b.scheme, b.eigen
        )
        gal = galois_fusion(
            b.scheme, b.eigen, SubfieldSpec.rationals(b.eigen.conductor)
        )
        assert partition == gal.partition
        assert np.array_equal(fused.fused.relation, gal.fused.relation)


@pytest.mark.parametrize("name", [e for e in sorted(CATALOG) if CATALOG[e].group_file])
def test_rational_fusion_is_built_once(name, monkeypatch):
    # one fused scheme per call: the Galois fusion over Q, not a second
    # fusion along the rational classes beside it
    loaded = load_entry(name)
    calls = []
    original = fusion.fuse_by_relation_partition

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(fusion, "fuse_by_relation_partition", counted)
    partition, fused = rational_class_fusion(
        loaded.group, loaded.classes, loaded.scheme, loaded.eigen
    )
    assert len(calls) == 1
    assert fused.partition == partition
    assert fused.subfield == SubfieldSpec.rationals(loaded.eigen.conductor)


def test_rational_fusion_asserts_the_galois_partition(monkeypatch):
    b = build_z12()
    monkeypatch.setattr(groups_module, "rational_classes",
                        lambda group, classes: ((0,), tuple(range(1, 12))))
    with pytest.raises(InternalAssertion):
        rational_class_fusion(b.group, b.classes, b.scheme, b.eigen)


def test_z5_real_fusion_is_pentagon():
    group, classes, table = cyclic_group(5)
    scheme, _ = conj_class_scheme(group)
    eigen = eigendata_from_characters(group, classes, table, scheme)
    fs = galois_fusion(scheme, eigen, SubfieldSpec.real(5))
    pentagon = cycle_scheme(5)
    assert np.array_equal(fs.fused.relation, pentagon.relation)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def test_cyclic_representation_columns():
    group, classes, table = cyclic_group(12)
    scheme, _ = conj_class_scheme(group)
    reps = builtin_representations("cyclic", 12)
    for j, rho in enumerate(reps):
        u = representation_eigenvectors(group, rho, scheme, classes)
        assert u.cols == 1
        for g in range(12):
            assert u[g, 0] == zeta(12, j * g)


@pytest.mark.parametrize("family, params", [
    ("cyclic", (0,)), ("cyclic", (3, 4)), ("dicyclic", (4,)), ("dicyclic", (3, 5)),
    ("dihedral", (3,)),
])
def test_builtin_representations_reject_bad_parameters(family, params):
    with pytest.raises(UnsupportedFamily):
        builtin_representations(family, *params)


def test_dicyclic_representations_verify():
    for n in (3, 5):
        group, classes, table = dicyclic_group(n)
        scheme, _ = conj_class_scheme(group)
        reps = builtin_representations("dicyclic", n)
        assert sum(r.degree**2 for r in reps) == group.order
        for j, rho in enumerate(reps):
            traces = verify_representation(group, rho)
            assert traces.col(0) == tuple(table.rows[j][classes.class_of[g]]
                                          for g in range(group.order))
            u = representation_eigenvectors(group, rho, scheme, classes)
            assert u.cols == rho.degree**2


def test_representation_eigen_identity_literal():
    # explicit A_i U = theta_i U for dic3's 2-dimensional representation
    group, classes, table = dicyclic_group(3)
    scheme, _ = conj_class_scheme(group)
    rho = builtin_representations("dicyclic", 3)[4]
    u = representation_eigenvectors(group, rho, scheme, classes)
    a_i = [CycMatrix(scheme.adjacency(i).tolist()) for i in range(scheme.classes)]
    for i in range(scheme.classes):
        chi = table.rows[4][i]
        theta = chi * classes.sizes[i] / rho.degree
        assert a_i[i] * u == u.scale(theta)


def test_trivial_representation_eigenvalues():
    group, classes, table = dicyclic_group(3)
    scheme, _ = conj_class_scheme(group)
    rho = builtin_representations("dicyclic", 3)[0]
    u = representation_eigenvectors(group, rho, scheme, classes)
    assert all(u[g, 0] == 1 for g in range(group.order))


def test_abelian_builtin():
    group, classes, table = builtin_group("abelian", 4, 2)
    assert group.order == 8
    scheme, _ = conj_class_scheme(group)
    eigen = eigendata_from_characters(group, classes, table, scheme)
    assert eigen.multiplicities == (1,) * 8
