"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its runtime.  Every comparison is exact (tolerance zero);
each criterion also enforces its runtime budget.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from delsarte.catalog import (
    CATALOG,
    build_a4,
    build_coxeter,
    build_dicyclic,
    build_x8,
    build_y8,
    build_z12,
    coxeter_second_fano,
    load_entry,
)
from delsarte.cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec, units_mod
from delsarte.designs import (
    design_report,
    dicyclic_subgroup_table,
    dual_distribution,
    enumerate_T_designs,
    inner_distribution,
    rational_orbit_data,
)
from delsarte.errors import NotClosed
from delsarte.fusion import (
    bannai_muzychuk_idempotent,
    galois_fusion,
    orbit_merge,
)
from delsarte.groups import (
    builtin_representations,
    conj_class_scheme,
    cyclic_group,
    dicyclic_group,
    rational_class_fusion,
    representation_eigenvectors,
)
from delsarte.lp import delsarte_design_lp
from delsarte.scheme import krein_parameters

zeta = Cyclotomic.zeta


def check(number, budget, description, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} FAIL ({elapsed:6.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS ({elapsed:6.2f}s): {description}")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


# ---------------------------------------------------------------------------

def test_criterion_01_z12_subfield_idempotents():
    def body():
        b = build_z12()
        spec = SubfieldSpec(12, [7])  # fixes Q(sqrt(-3))
        data = orbit_merge(b.eigen, spec)
        merged = tuple(o for o in data.orbits if len(o) > 1)
        assert merged == ((1, 7), (3, 9), (5, 11))
        singles = tuple(o[0] for o in data.orbits if len(o) == 1)
        assert singles == (0, 2, 4, 6, 8, 10)

    check(1, 1.0, "Z12 idempotent constraints over Q(sqrt(-3)): "
          "c1=c7, c3=c9, c5=c11", body)


def test_criterion_02_x8_fusion():
    def body():
        scheme, eigen = build_x8()
        data = orbit_merge(eigen, SubfieldSpec.rationals(4))
        reference_qbar = CycMatrix(
            [[1, 1, 4, 2], [1, 1, -4, 2], [1, 1, 0, -2], [1, 1, 0, -2],
             [1, -1, 0, 0]]
        )
        assert data.Qbar == reference_qbar
        verdict = bannai_muzychuk_idempotent(data)
        assert verdict.passes
        assert verdict.row_classes == ((0,), (1,), (2, 3), (4,))
        fs = galois_fusion(scheme, eigen, SubfieldSpec.rationals(4))
        reference_fused = [
            [0, 1, 2, 2, 3, 3, 3, 3],
            [1, 0, 2, 2, 3, 3, 3, 3],
            [2, 2, 0, 1, 3, 3, 3, 3],
            [2, 2, 1, 0, 3, 3, 3, 3],
            [3, 3, 3, 3, 0, 1, 2, 2],
            [3, 3, 3, 3, 1, 0, 2, 2],
            [3, 3, 3, 3, 2, 2, 0, 1],
            [3, 3, 3, 3, 2, 2, 1, 0],
        ]
        assert np.array_equal(fs.fused.relation, np.array(reference_fused))

    check(2, 1.0, "8-vertex scheme: reference Qbar, row classes "
          "{0},{1},{2,3},{4}, reference fused relation matrix", body)


def test_criterion_03_coxeter():
    def body():
        scheme, eigen = build_coxeter()
        try:
            galois_fusion(scheme, eigen, SubfieldSpec.rationals(8))
            raise AssertionError("Coxeter scheme must not fuse over Q")
        except NotClosed as err:
            assert err.distinct_rows == 5
        fano = coxeter_second_fano()
        a = inner_distribution(scheme, fano)
        assert a == (1, 0, 0, 6, 0)
        b = dual_distribution(eigen, a).row(0)
        assert b == (7, 0, 0, 21, 0)
        data = orbit_merge(eigen, SubfieldSpec.rationals(8))
        merged_b = [
            sum((a[i] * data.Qbar[i, l] for i in range(5)),
                Cyclotomic.from_rational(0, 1))
            for l in range(4)
        ]
        assert merged_b == [7, 0, 0, 21]

    check(3, 1.0, "Coxeter: NotClosed(5); Fano a=[1,0,0,6,0], "
          "aQ=[7,0,0,21,0], aQbar=[7,0,0,21]", body)


def test_criterion_04_a4_matrices():
    def body():
        b = build_a4()
        w = zeta(3)
        reference_p = CycMatrix(
            [[1, 3, 4, 4], [1, 3, 4 * w, 4 * w**2],
             [1, 3, 4 * w**2, 4 * w], [1, -1, 0, 0]]
        )
        assert b.eigen.P == reference_p
        # A common tabulation of Q lists the conjugate cube-root
        # characters in the opposite column order from P; that pair fails
        # PQ = 12 I, and the verified Q equals it with the two columns
        # swapped back.
        reference_q = CycMatrix(
            [[1, 1, 1, 9], [1, 1, 1, -3], [1, w, w**2, 0], [1, w**2, w, 0]]
        )
        swapped = CycMatrix(
            [[reference_q[i, c] for c in (0, 2, 1, 3)] for i in range(4)]
        )
        assert b.eigen.Q == swapped
        size = b.scheme.size
        product = reference_p * reference_q
        assert product != CycMatrix.identity(4).scale(size)  # the documented typo
        assert b.eigen.P * b.eigen.Q == CycMatrix.identity(4).scale(size)
        partition, fused = rational_class_fusion(
            b.group, b.classes, b.scheme, b.eigen
        )
        assert fused.P_F == CycMatrix([[1, 3, 8], [1, 3, -4], [1, -1, 0]])
        assert fused.Q_F == CycMatrix([[1, 2, 9], [1, 2, -3], [1, -1, 0]])

    check(4, 1.0, "A4: P/Q from characters against the reference "
          "matrices; fused Pbar, Qbar exact", body)


def test_criterion_05_design_correspondence():
    def body():
        xs, xe = build_x8()
        fs = galois_fusion(xs, xe, SubfieldSpec.rationals(4))
        direct = enumerate_T_designs(xs, xe, {1, 2, 3}, 1, 8)
        fused = enumerate_T_designs(fs.fused, fs.eigen, {1, 2}, 1, 8)
        assert direct == fused  # identical subset collections over all 2^8
        c = (0, 1, 4, 5)
        assert design_report(xs, xe, c).T == (1, 2, 3)
        ys, ye = build_y8()
        assert design_report(ys, ye, c).T == (3, 4)

    check(5, 5.0, "all 2^8 subsets: {1,2,3}-designs of X = {1,2}-designs "
          "of the fusion; C reports T={1,2,3} in X, T={3,4} in Y", body)


def _balanced_mod(k, m):
    r = k % m
    return r if r <= m // 2 else r - m


def test_criterion_06_dicyclic_case_study():
    def body():
        for n in (3, 5, 7):
            two_n = 2 * n
            rows = dicyclic_subgroup_table(n)
            by_key = {(r.kind, r.k): r for r in rows}
            for k in (d for d in range(1, two_n + 1) if two_n % d == 0):
                row = by_key[("cyclic", k)]
                ell = two_n // k
                expected_a = [Fraction(0)] * (n + 3)
                expected_a[0] = Fraction(1)
                for i in range(k, n, k):
                    expected_a[i] = Fraction(2)
                expected_a[n] = Fraction(1 if k % 2 else 0)
                assert list(row.a) == expected_a
                expected_b = [Fraction(0)] * (n + 3)
                expected_b[0] = expected_b[1] = Fraction(ell)
                if ell % 2:
                    expected_b[2] = expected_b[3] = Fraction(ell)
                for j in range(ell, n, ell):
                    expected_b[3 + j] = Fraction(4 * ell)
                assert list(row.b) == expected_b
            for k in (d for d in range(1, n + 1) if n % d == 0):
                row = by_key[("dicyclic", k)]
                assert row.order == 4 * n // k
                assert row.b[0] == Fraction(4 * n, k)  # leading entry 4n/k
                ell = two_n // k
                for j in range(1, n):
                    expected = Fraction(4 * ell) if j % ell == 0 else Fraction(0)
                    assert row.b[3 + j] == expected

            bundle = build_dicyclic(n)
            orbits = rational_orbit_data(bundle.eigen).orbits
            # the corollary's orbit shapes: {2,3} and psi_l ~ psi_|kl MOD 2n|
            units = [k for k in range(-n + 1, n) if math.gcd(k, two_n) == 1]
            expected_orbits = {(0,), (1,), (2, 3)}
            seen = set()
            for ell in range(1, n):
                if ell in seen:
                    continue
                orbit = sorted({abs(_balanced_mod(k * ell, two_n)) for k in units})
                seen.update(orbit)
                expected_orbits.add(tuple(3 + ll for ll in orbit))
            assert set(orbits) == expected_orbits

            rng = random.Random(1000 + n)
            size = bundle.scheme.size
            for _ in range(1000):
                m = rng.randint(1, size - 1)
                subset = rng.sample(range(size), m)
                report = design_report(
                    bundle.scheme, bundle.eigen, subset, verify_signs=False
                )
                t = set(report.T)
                assert (2 in t) == (3 in t)
                for orbit in orbits:
                    assert set(orbit) <= t or not (set(orbit) & t)

    check(6, 30.0, "dicyclic n=3,5,7: subgroup tables match the closed "
          "forms; orbit-closure corollary on 1000 random subsets each", body)


def test_criterion_07_structural_invariants():
    def body():
        for name in sorted(CATALOG):
            loaded = load_entry(name)
            scheme, eigen = loaded.scheme, loaded.eigen
            dp1 = scheme.classes
            size = scheme.size
            eye = CycMatrix.identity(dp1)
            assert eigen.P * eigen.Q == eye.scale(size)
            assert eigen.Q * eigen.P == eye.scale(size)
            # second orthogonality m_j P[j][i] = v_i conj(Q[i][j])
            for j in range(dp1):
                for i in range(dp1):
                    assert eigen.P[j, i] * eigen.multiplicities[j] == (
                        eigen.Q[i, j].conjugate() * scheme.valencies[i]
                    )
            # idempotency and orthogonality through the intersection tensor:
            # E_j E_k has A_m coefficient sum p[i][i'][m] Q[i][j] Q[i'][k] / |X|^2
            p = scheme.intersection
            for j in range(dp1):
                qj = [eigen.Q[i, j] for i in range(dp1)]
                for k in range(dp1):
                    qk = [eigen.Q[i, k] for i in range(dp1)]
                    for m in range(dp1):
                        acc = Cyclotomic.from_rational(0, 1)
                        for i in range(dp1):
                            if qj[i].is_zero():
                                continue
                            inner = Cyclotomic.from_rational(0, 1)
                            row = p[i, :, m]
                            for i2 in range(dp1):
                                c = int(row[i2])
                                if c:
                                    inner = inner + qk[i2] * c
                            acc = acc + qj[i] * inner
                        expected = qj[m] * size if j == k else None
                        if j == k:
                            assert acc == expected
                        else:
                            assert acc.is_zero()
            # sum of idempotents is the identity: sum_j Q[i][j] = |X| delta_i0
            for i in range(dp1):
                total = Cyclotomic.from_rational(0, 1)
                for j in range(dp1):
                    total = total + eigen.Q[i, j]
                assert total == (size if i == 0 else 0)
            kd = krein_parameters(eigen)  # raises on any non-real/negative q
            assert kd.krein_conductor >= 1
            if loaded.table is not None:
                assert eigen.multiplicities == tuple(
                    f * f for f in loaded.table.degrees
                )

    check(7, 10.0, "catalog-wide: PQ=|X|I, second orthogonality, "
          "E_j E_k = delta E_j, sum E_j = I, Krein >= 0, m_j = f_j^2", body)


def test_criterion_08_diagonalisation():
    def body():
        cases = [
            ("cyclic", (12,), cyclic_group(12)),
            ("dicyclic", (3,), dicyclic_group(3)),
            ("dicyclic", (5,), dicyclic_group(5)),
        ]
        for family, params, (group, classes, table) in cases:
            scheme, _ = conj_class_scheme(group)
            reps = builtin_representations(family, *params)
            assert sum(r.degree**2 for r in reps) == group.order
            blocks = []
            for j, rho in enumerate(reps):
                u = representation_eigenvectors(group, rho, scheme, classes)
                blocks.append(u)
                if group.order <= 12:  # literal matrix identity as well
                    for i in range(scheme.classes):
                        a_i = CycMatrix(scheme.adjacency(i).tolist())
                        chi = table.rows[j][i]
                        theta = chi * classes.sizes[i] / rho.degree
                        assert a_i * u == u.scale(theta)
            assert sum(b.cols for b in blocks) == group.order

    check(8, 5.0, "Z12, Dic3, Dic5: A_i U = (|C_i| chi(g_i)/f) U exactly "
          "for every class; sum f_j^2 = |G|", body)


def test_criterion_09_rational_fusion_theorem():
    def body():
        for bundle in (build_z12(), build_a4(), build_dicyclic(3),
                       build_dicyclic(5)):
            partition, fused = rational_class_fusion(
                bundle.group, bundle.classes, bundle.scheme, bundle.eigen
            )
            gal = galois_fusion(
                bundle.scheme, bundle.eigen,
                SubfieldSpec.rationals(bundle.eigen.conductor),
            )
            assert partition == gal.partition
            assert np.array_equal(fused.fused.relation, gal.fused.relation)
            assert fused.Q_F == gal.Q_F

    check(9, 5.0, "Z12, A4, Dic3, Dic5: rational-class fusion equals the "
          "Galois fusion over Q, scheme for scheme", body)


def test_criterion_10_lp_reduction():
    def body():
        scheme, eigen = build_x8()
        fs = galois_fusion(scheme, eigen, SubfieldSpec.rationals(4))
        fused_lp = delsarte_design_lp(fs, {1, 2})
        assert fused_lp.status == "optimal"
        assert fused_lp.value <= 4
        sizes = [len(c) for c in enumerate_T_designs(scheme, eigen, {1, 2, 3}, 1, 8)]
        assert fused_lp.value <= min(sizes)
        unfused_lp = delsarte_design_lp(rational_orbit_data(eigen), {1, 2})
        assert unfused_lp.value == fused_lp.value

    check(10, 1.0, "8-vertex fused LP bound <= 4, consistent with the "
          "enumerated minimum; equals the unfused rational-idempotent LP", body)
