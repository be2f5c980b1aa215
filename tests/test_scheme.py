import dataclasses
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from eigen_reference import reference_attach_eigendata
from scheme_reference import count_intersection, cycle_scheme

from delsarte.catalog import (
    CATALOG,
    build_coxeter,
    build_dicyclic,
    build_x8,
    build_y8,
    _x8_eigenmatrix,
    load_entry,
)
from delsarte.cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec
from delsarte.designs import rational_orbit_data
from delsarte.errors import BadEigenbasis, NotAScheme, NotClosed, ValidationError
from delsarte.fusion import galois_fusion
from delsarte.scheme import (
    attach_eigendata,
    krein_parameters,
    verify_scheme,
)


# ---------------------------------------------------------------------------
# verify_scheme
# ---------------------------------------------------------------------------

def test_x8_is_a_scheme():
    scheme, _ = build_x8()
    assert scheme.d == 4
    assert scheme.valencies == (1, 1, 1, 1, 4)
    assert scheme.transpose_map == (0, 1, 3, 2, 4)
    assert not scheme.is_symmetric()


def test_cycle_scheme_c4():
    scheme = cycle_scheme(4)
    assert scheme.d == 2
    assert scheme.valencies == (1, 2, 1)
    assert scheme.is_symmetric()


def test_perturbed_x8_rejected():
    bad = [row[:] for row in __import__("delsarte.catalog", fromlist=["X8_RELATION"]).X8_RELATION]
    bad[1][2] = 2
    with pytest.raises(NotAScheme) as err:
        verify_scheme(bad)
    assert err.value.axiom in ("ii", "iii")


def test_missing_class_rejected():
    with pytest.raises(NotAScheme) as err:
        verify_scheme([[0, 2], [2, 0]])
    assert err.value.axiom == "classes"


def test_broken_identity_rejected():
    with pytest.raises(NotAScheme) as err:
        verify_scheme([[1, 0], [0, 1]])
    assert err.value.axiom == "i"


def _pair_classes(n):
    """The n x n grid with every ordered pair x != y in a class of its own:
    axioms (i) and (ii) hold, and there are n^2 - n + 1 classes."""
    grid = np.zeros((n, n), dtype=np.int64)
    grid[~np.eye(n, dtype=bool)] = np.arange(1, n * n - n + 1)
    return grid


@pytest.mark.parametrize("n", [4, 40])
def test_more_classes_than_points_refused_before_any_product(n):
    # d + 1 <= |X| for every scheme; at 40 x 40 the intersection tensor of
    # 1561 classes alone would take 28 GiB
    grid = _pair_classes(n)
    tracemalloc.start()
    try:
        with pytest.raises(NotAScheme) as err:
            verify_scheme(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    # class n is the first one missing from row 0 (which holds 0..n-1)
    assert err.value.axiom == "iii"
    assert err.value.witness == (n, 0)
    assert f"class {n} does not occur in row 0" in str(err.value)


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------

def test_p_of_identity_class():
    for scheme in (build_x8()[0], cycle_scheme(6)):
        p = scheme.intersection
        for i in range(scheme.classes):
            for j in range(scheme.classes):
                expected = scheme.valencies[i] if j == scheme.transpose_map[i] else 0
                assert p[i, j, 0] == expected


def test_c6_common_neighbours():
    p = cycle_scheme(6).intersection
    assert p[1, 1, 2] == 1


def test_intersection_brute_force_oracle():
    rng = random.Random(17)
    scheme, _ = build_coxeter()
    p = scheme.intersection
    for _ in range(60):
        a = rng.randrange(scheme.size)
        b = rng.randrange(scheme.size)
        i = rng.randrange(scheme.classes)
        j = rng.randrange(scheme.classes)
        k = scheme.relation[a, b]
        assert count_intersection(scheme, a=a, b=b, i=i, j=j) == p[i, j, k]


# ---------------------------------------------------------------------------
# attach_eigendata
# ---------------------------------------------------------------------------

def test_x8_eigendata():
    scheme, eigen = build_x8()
    assert eigen.multiplicities == (1, 1, 2, 2, 2)
    assert eigen.P * eigen.Q == CycMatrix.identity(5).scale(8)


def test_eigenmatrices_match_gaussian_inverse_on_catalog():
    # P = |X| Q^(-1) and Q_F = |X| P_F^(-1) are read off the second
    # orthogonality relation; pin both to Gaussian elimination
    no_fusion = []
    for name in CATALOG:
        loaded = load_entry(name)
        scheme, eigen = loaded.scheme, loaded.eigen
        assert eigen.Q.inverse().scale(scheme.size) == eigen.P
        try:
            fs = galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor))
        except NotClosed:
            no_fusion.append(name)
            continue
        assert fs.eigen.Q == fs.eigen.P.inverse().scale(scheme.size)
    assert no_fusion == ["coxeter"]


def test_singular_q_rejected_as_orthogonality():
    # columns 2 and 3 of Dic_3's Q both have multiplicity 1, so overwriting
    # one with the other passes the E_0 and multiplicity checks but makes Q
    # singular
    bundle = build_dicyclic(3)
    rows = [list(r) for r in bundle.eigen.Q.entries]
    assert rows[0][2] == rows[0][3] == 1
    for row in rows:
        row[3] = row[2]
    with pytest.raises(BadEigenbasis) as err:
        attach_eigendata(bundle.scheme, CycMatrix(rows))
    assert err.value.invariant == "orthogonality"


def test_coxeter_eigendata():
    scheme, eigen = build_coxeter()
    assert eigen.multiplicities == (1, 8, 6, 7, 6)
    assert scheme.valencies == (1, 3, 6, 12, 6)
    assert eigen.conductor == 8


def test_y8_eigendata():
    _, eigen = build_y8()
    assert eigen.multiplicities == (1, 1, 1, 1, 4)


def test_swapped_q_entries_rejected():
    scheme, _ = build_x8()
    rows = [list(r) for r in _x8_eigenmatrix().entries]
    rows[2][2], rows[3][2] = rows[3][2], rows[2][2]
    with pytest.raises(BadEigenbasis):
        attach_eigendata(scheme, CycMatrix(rows))


def test_random_q_corruptions_all_rejected():
    # every single-entry corruption of a valid Q must trip some invariant
    rng = random.Random(71)
    scheme, eigen = build_x8()
    zeta4 = Cyclotomic.zeta(4)
    for _ in range(25):
        rows = [list(r) for r in eigen.Q.entries]
        i = rng.randrange(5)
        j = rng.randrange(5)
        bump = rng.choice(
            [Fraction(1), Fraction(-1), Fraction(1, 2), zeta4, -zeta4]
        )
        rows[i][j] = rows[i][j] + bump
        with pytest.raises(BadEigenbasis):
            attach_eigendata(scheme, CycMatrix(rows))


def test_random_relation_corruptions_all_rejected():
    rng = random.Random(73)
    scheme, _ = build_x8()
    for _ in range(25):
        grid = scheme.relation.copy()
        x, y = rng.randrange(8), rng.randrange(8)
        new = rng.randrange(5)
        if grid[x, y] == new:
            new = (new + 1) % 5
        grid[x, y] = new
        with pytest.raises(NotAScheme):
            verify_scheme(grid)


def test_idempotents_are_hermitian_on_every_catalog_entry():
    # primitive idempotents are orthogonal projections, hence Hermitian
    for name in sorted(CATALOG):
        eigen = load_entry(name).eigen
        for j in range(eigen.scheme.classes):
            assert eigen.idempotent(j).adjoint() == eigen.idempotent(j), (name, j)


@pytest.mark.parametrize("name", ["a4", "dic3", "dic5", "dic7", "x8", "y8", "z12"])
def test_a_symmetric_transpose_map_on_a_non_symmetric_scheme_is_rejected(name):
    # a column search for E_j^* among the E_j accepted these records: with
    # the identity map it finds the conjugate columns, a permutation of Q's
    loaded = load_entry(name)
    scheme = loaded.scheme
    assert not scheme.is_symmetric()
    claimed = dataclasses.replace(scheme, transpose_map=tuple(range(scheme.classes)))
    with pytest.raises(BadEigenbasis) as got:
        attach_eigendata(claimed, loaded.eigen.Q)
    with pytest.raises(BadEigenbasis) as want:
        reference_attach_eigendata(claimed, loaded.eigen.Q)
    assert got.value.invariant == "hermitian"
    assert str(got.value) == str(want.value)


def test_idempotents_literal_matrix_identities():
    # literal |X| x |X| checks on the small scheme: E_j E_k = delta E_j,
    # sum E_j = I, E_0 = J/|X|, and A_i reconstruction
    scheme, eigen = build_x8()
    size = scheme.size
    es = [eigen.idempotent(j) for j in range(scheme.classes)]
    eye = CycMatrix.identity(size)
    jmat = CycMatrix([[Fraction(1, size)] * size for _ in range(size)])
    assert es[0] == jmat
    total = es[0]
    for e in es[1:]:
        total = total + e
    assert total == eye
    for j, ej in enumerate(es):
        for k, ek in enumerate(es):
            prod = ej * ek
            assert prod == (ej if j == k else ej.scale(0))
        assert ej.adjoint() == ej
    for i in range(scheme.classes):
        acc = es[0].scale(eigen.P[0, i])
        for j in range(1, scheme.classes):
            acc = acc + es[j].scale(eigen.P[j, i])
        expected = CycMatrix(scheme.adjacency(i).tolist())
        assert acc == expected


@pytest.mark.parametrize("i", [-1, 5, 1.5, True])
def test_adjacency_refuses_an_index_outside_0_to_d(i):
    # -1, 5 and 1.5 gave the zero matrix, and True gave A_1
    scheme, _ = build_x8()
    assert scheme.d == 4
    with pytest.raises(ValidationError, match="a relation index"):
        scheme.adjacency(i)


def test_adjacency_takes_numpy_integers():
    scheme, _ = build_x8()
    assert np.array_equal(scheme.adjacency(np.int64(4)), scheme.adjacency(4))


def test_second_orthogonality_relation():
    for builder in (build_x8, build_coxeter):
        scheme, eigen = builder()
        for j in range(scheme.classes):
            for i in range(scheme.classes):
                assert eigen.P[j, i] * eigen.multiplicities[j] == eigen.Q[
                    i, j
                ].conjugate() * scheme.valencies[i]


# ---------------------------------------------------------------------------
# Krein parameters
# ---------------------------------------------------------------------------

def test_krein_normalization_rows():
    _, eigen = build_x8()
    kd = krein_parameters(eigen)
    dp1 = eigen.scheme.classes
    for j in range(dp1):
        for k in range(dp1):
            assert kd.q[0][j][k] == (1 if j == k else 0)


def test_krein_row_sum_identity():
    # Q[h][i] Q[h][j] = sum_k q[i][j][k] Q[h][k]
    for builder in (build_x8, build_coxeter):
        _, eigen = builder()
        kd = krein_parameters(eigen)
        dp1 = eigen.scheme.classes
        for h in range(dp1):
            for i in range(dp1):
                for j in range(dp1):
                    acc = Cyclotomic.from_rational(0, 1)
                    for k in range(dp1):
                        acc = acc + kd.q[i][j][k] * eigen.Q[h, k]
                    assert acc == eigen.Q[h, i] * eigen.Q[h, j]


def test_krein_coxeter_conductor():
    _, eigen = build_coxeter()
    kd = krein_parameters(eigen)
    assert kd.krein_conductor > 1


def test_krein_literal_schur_expansion():
    # E_i o E_j = (1/|X|) sum_k q[i][j][k] E_k, checked as matrices on x8
    _, eigen = build_x8()
    kd = krein_parameters(eigen)
    size = eigen.scheme.size
    es = [eigen.idempotent(j) for j in range(eigen.scheme.classes)]
    for i in (0, 2, 4):
        for j in (1, 3):
            lhs = es[i].schur(es[j]).scale(size)
            acc = es[0].scale(kd.q[i][j][0])
            for k in range(1, eigen.scheme.classes):
                acc = acc + es[k].scale(kd.q[i][j][k])
            assert lhs == acc


def test_dense_idempotents_match_the_entrywise_construction():
    # the one-gather idempotents equal the matrices built entry by entry:
    # E_j[x][y] = Q[i][j] / |X| for (x, y) in R_i, and likewise F_l from Qbar
    for name in ("x8", "z12", "dic3", "a4"):
        entry = load_entry(name)
        scheme, eigen = entry.scheme, entry.eigen
        rel, size = scheme.relation, scheme.size

        def spread(M, j):
            return CycMatrix([[M[int(rel[x, y]), j] / size for y in range(size)]
                              for x in range(size)])

        for j in range(scheme.classes):
            assert eigen.idempotent(j) == spread(eigen.Q, j)
        data = rational_orbit_data(eigen)
        for l in range(len(data.orbits)):
            assert data.merged_idempotent(l) == spread(data.Qbar, l)
