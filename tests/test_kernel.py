"""The integer matrix kernel against the Fraction reference.

Every identity in the library, scalar or matrix, runs on CycMatrix's
integer form (numerators on the power basis over one common denominator).
These tests pin that form to the Fraction arithmetic of
tests/fraction_reference.py, computed here with plain loops: products,
Galois images and conjugates on random matrices, the catalog's P Q, Galois
images of Q, Krein tensors and dual distributions, the overflow rule (int64
only under a proven bound), and the thread safety of interval signs.
"""

import dataclasses
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import cyclotomic, designs, fileio
from delsarte.catalog import CATALOG, build_dicyclic, build_x8, data_dir, load_entry
from delsarte.groups import cyclic_group
from delsarte.cyclotomic import (
    INT64_BOUND,
    CycMatrix,
    Cyclotomic,
    bounded_matmul,
    euler_phi,
    exact_sign,
    units_mod,
)
from delsarte.designs import (
    WeightedSubset,
    dual_distribution,
    enumerate_T_designs,
    inner_distribution,
    is_T_design_via_merges,
    rational_orbit_data,
)
from delsarte.errors import KreinViolation, ParseError
from delsarte.scheme import krein_parameters
from fraction_reference import Ref, ref_matrix, ref_rows, ref_sum

CONDUCTORS = (1, 4, 5, 8, 12, 20, 28)


def reference_product(a, b):
    """a b with Fraction reference loops."""
    A, B = ref_rows(a), ref_rows(b)
    return [[ref_sum(A[i][k] * B[k][j] for k in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)]


def entrywise(m, f):
    """f applied to the reference value of every entry."""
    return [[f(v) for v in row] for row in ref_rows(m)]


def same(m, rows):
    """Entry-by-entry equality with reference values, independent of the
    kernel's comparisons."""
    return (m.rows, m.cols) == (len(rows), len(rows[0]) if rows else 0) and all(
        Ref.of(m[i, j]) == rows[i][j] for i in range(m.rows) for j in range(m.cols)
    )


@st.composite
def elements(draw, n):
    phi = euler_phi(n)
    terms = draw(st.lists(
        st.tuples(st.integers(0, 2 * n - 1),
                  st.fractions(min_value=-7, max_value=7, max_denominator=6)),
        max_size=phi + 2,
    ))
    return Cyclotomic.from_terms(n, terms)


@st.composite
def matrices(draw, n, rows, cols):
    return CycMatrix([[draw(elements(n)) for _ in range(cols)] for _ in range(rows)], n)


FAST = settings(max_examples=30, deadline=None)


@FAST
@given(st.data())
def test_products_match_scalar_arithmetic(data):
    n1, n2 = data.draw(st.sampled_from(CONDUCTORS)), data.draw(st.sampled_from(CONDUCTORS))
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(matrices(n1, r, k))
    b = data.draw(matrices(n2, k, c))
    assert same(a * b, reference_product(a, b))
    b2 = data.draw(matrices(n2, r, k))
    A, B2 = ref_rows(a), ref_rows(b2)
    assert same(a.schur(b2), [[A[i][j] * B2[i][j] for j in range(k)] for i in range(r)])
    assert same(a + b2, [[A[i][j] + B2[i][j] for j in range(k)] for i in range(r)])
    assert same(a - b2, [[A[i][j] - B2[i][j] for j in range(k)] for i in range(r)])
    x = data.draw(elements(n2))
    q = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=5))
    assert same(a.scale(x), entrywise(a, lambda v: v * Ref.of(x)))
    assert same(a.scale(q), entrywise(a, lambda v: v * q))
    assert (a * b == ref_matrix(reference_product(a, b))) is True


@FAST
@given(st.data())
def test_galois_images_match_scalar_arithmetic(data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    m = data.draw(matrices(n, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))))
    units = units_mod(n) if n > 1 else (1,)
    k, l = data.draw(st.sampled_from(units)), data.draw(st.sampled_from(units))
    assert same(m.galois(k), entrywise(m, lambda v: v.galois(k)))
    assert m.galois(k).galois(l) == m.galois(k * l)
    assert same(m.conjugate(), entrywise(m, lambda v: v.conjugate()))
    assert m.conjugate() == m.galois(-1)
    assert same(m.adjoint(), [list(col) for col in zip(*entrywise(m, lambda v: v.conjugate()))])


@FAST
@given(st.data())
def test_rational_left_products_match_scalar_arithmetic(data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m = data.draw(matrices(n, r, c))
    v = [data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=7)) for _ in range(r)]
    rows = ref_rows(m)
    want = [ref_sum(rows[i][j] * v[i] for i in range(r)) for j in range(c)]
    assert same(m.left_rational([v]), [want])
    cols = data.draw(st.lists(st.integers(0, c - 1), max_size=c))
    assert same(m.left_rational([v], cols), [[want[j] for j in cols]])


def test_keys_and_masks_are_exact():
    z = Cyclotomic.zeta
    m = CycMatrix([[Fraction(1, 2), 0], [z(8) / 3, Fraction(1, 2)]])
    other = CycMatrix([[Fraction(2, 4), 0], [0, 1]], 8)
    # equal rows of matrices with different common denominators: row 0 of
    # other is row 0 of m, its row 1 and both its columns are not in m
    assert m.transpose().column_positions(other.transpose()) == [[0, -1]]
    assert m.column_positions(other) == [[-1, -1]]
    # and of different conductors: (2/4, 0) over Q is row 0 of m over Q(zeta_8)
    assert m.transpose().column_positions(CycMatrix([[Fraction(2, 4)], [0]])) == [[0]]
    # labels compare the lines of one matrix
    assert m.line_labels() == [0, 1]
    assert CycMatrix([[1, 2], [1, 2]]).line_labels() == [0, 0]
    assert m.zero_mask().tolist() == [[False, True], [False, False]]
    with pytest.raises(ValueError):
        m.signs()  # zeta_8 / 3 is not real
    real = CycMatrix([[Fraction(-1, 3), z(8) - z(8, 3), 0, z(8, 3) - z(8)]])
    assert real.signs().tolist() == [[-1, 1, 0, -1]]


# ---------------------------------------------------------------------------
# catalog-wide differential checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_identities_against_scalar_loops(name):
    eigen = load_entry(name).eigen
    P, Q = eigen.P, eigen.Q
    dp1, size = eigen.scheme.classes, eigen.scheme.size
    assert same(P * Q, reference_product(P, Q))
    n = eigen.conductor
    for k in (units_mod(n) if n > 1 else (1,)):
        assert same(Q.galois(k), entrywise(Q, lambda v: v.galois(k)))

    # q[i][j][k] = (1/|X|) sum_m P[k][m] Q[m][i] Q[m][j], term by term
    kd = krein_parameters(eigen)
    Pr, Qr = ref_rows(P), ref_rows(Q)
    for i in range(dp1):
        for j in range(dp1):
            w = [Qr[m][i] * Qr[m][j] for m in range(dp1)]
            for k in range(dp1):
                acc = ref_sum(Pr[k][m] * w[m] for m in range(dp1))
                assert Ref.of(kd.q[i][j][k]) == acc * Fraction(1, size)


@pytest.mark.parametrize("corrupt, indices, reason", [
    (lambda P: P.scale(-1), (0, 0, 0), "= -1 is negative"),
    (lambda P: P.scale(Cyclotomic.zeta(4)), (0, 0, 0), "= z4 is not real"),
    (lambda P: CycMatrix.identity(5).scale_lines(rows=[1, 1, 1, -1, 1]) * P, (0, 3, 3),
     "= -1 is negative"),
    (lambda P: P.scale(Fraction(1, 2)), (0, 0, 0), "!= 1"),
])
def test_krein_rejections_name_the_first_bad_entry(corrupt, indices, reason):
    # the same entry, in (i, j, k) order, that a scalar loop would stop at
    eigen = build_x8()[1]
    with pytest.raises(KreinViolation) as info:
        krein_parameters(dataclasses.replace(eigen, P=corrupt(eigen.P)))
    assert info.value.indices == indices
    assert str(info.value).endswith(reason)


def test_dual_distribution_on_seeded_subsets():
    rng = random.Random(20240)
    names = sorted(CATALOG)
    for _ in range(50):
        loaded = load_entry(rng.choice(names))
        scheme, eigen = loaded.scheme, loaded.eigen
        subset = rng.sample(range(scheme.size), rng.randint(1, scheme.size))
        a = inner_distribution(scheme, subset)
        b = dual_distribution(eigen, a).row(0)
        Qr = ref_rows(eigen.Q)
        for j in range(scheme.classes):
            acc = ref_sum(Qr[i][j] * a[i] for i in range(scheme.classes))
            assert Ref.of(b[j]) == acc


# ---------------------------------------------------------------------------
# overflow: int64 only under a proven bound
# ---------------------------------------------------------------------------

def test_product_beyond_the_bound_takes_the_object_path():
    z = Cyclotomic.zeta
    big = 2**61
    a = CycMatrix([[big + big * z(8), big * z(8, 3)], [3, z(8, 2)]])
    b = CycMatrix([[4 + 4 * z(8)], [-4 * z(8, 5)]])
    # every input fits int64, but the bound max|a| max|b| inner phi ... is far
    # beyond 2^62, and the results themselves exceed int64
    assert a._num.dtype == np.int64 and b._num.dtype == np.int64
    product = a * b
    assert product._num.dtype == object
    assert same(product, reference_product(a, b))
    assert product.galois(3) == ref_matrix(entrywise(product, lambda v: v.galois(3)))
    assert (product - product).zero_mask().all()


def build_dic3():
    bundle = build_dicyclic(3)
    return bundle.scheme, bundle.eigen


@pytest.mark.parametrize("shift", [55, 60])
@pytest.mark.parametrize("build", [build_x8, build_dic3])
def test_enumeration_survives_a_huge_column(build, shift):
    # scaling one column of Q by 2^shift leaves every zero set unchanged;
    # with a plain int64 product the 2^60 case wraps and admits non-designs
    # (x8, column 1: 71 subsets instead of 69)
    scheme, eigen = build()
    for j in range(1, scheme.classes):
        factors = [2**shift if l == j else 1 for l in range(scheme.classes)]
        factor = CycMatrix.identity(scheme.classes).scale_lines(rows=factors)
        scaled = dataclasses.replace(eigen, Q=eigen.Q * factor)
        want = enumerate_T_designs(scheme, eigen, {j}, 1, scheme.size)
        assert enumerate_T_designs(scheme, scaled, {j}, 1, scheme.size) == want


@pytest.mark.parametrize("shift", [55, 60])
@pytest.mark.parametrize("build", [build_x8, build_dic3])
def test_enumeration_survives_a_huge_column_in_tiny_chunks(build, shift, monkeypatch):
    # the same with a few pairs per chunk, so the Python-int products of the
    # 2^60 case run across chunk boundaries
    scheme, eigen = build()
    for j in range(1, scheme.classes):
        factors = [2**shift if l == j else 1 for l in range(scheme.classes)]
        factor = CycMatrix.identity(scheme.classes).scale_lines(rows=factors)
        scaled = dataclasses.replace(eigen, Q=eigen.Q * factor)
        want = enumerate_T_designs(scheme, eigen, {j}, 1, scheme.size)
        with monkeypatch.context() as patch:
            patch.setattr(designs, "ENUM_CHUNK_PAIRS", 5)
            assert enumerate_T_designs(scheme, scaled, {j}, 1, scheme.size) == want


def reference_via_merges(orbit_data, weights, T):
    """F_l x = 0 for l in iota(T), with Fraction class sums and reference loops."""
    scheme = orbit_data.eigen.scheme
    merged = sorted({orbit_data.iota[j] for j in T})
    qbar = ref_rows(orbit_data.Qbar)
    for y in range(scheme.size):
        coeffs = [Fraction(0)] * scheme.classes
        for z, wz in enumerate(weights):
            coeffs[scheme.relation[y, z]] += wz
        for l in merged:
            if not ref_sum(qbar[i][l] * c for i, c in enumerate(coeffs)).is_zero():
                return False
    return True


@pytest.mark.parametrize("build", [build_x8, build_dic3])
def test_merged_design_test_survives_huge_weights(build):
    # class sums of weights exceed int64: four weights of 2^62 in one class
    # of x8 sum to 2^64, which wraps to 0; weights 1 and 1/(2^62 - 57) lift
    # to numerators near 2^62 over a denominator near 2^62
    scheme, eigen = build()
    orbit_data = rational_orbit_data(eigen)
    y, cls = next((y, c) for y in range(scheme.size) for c in range(scheme.classes)
                  if (scheme.relation[y] == c).sum() >= 3)
    same_class = np.flatnonzero(scheme.relation[y] == cls)
    tiny = Fraction(1, 2**62 - 57)
    mixed = [Fraction(0)] * scheme.size
    for z, wz in zip(same_class, (1, 1, tiny, 1)):
        mixed[z] = Fraction(wz)
    cases = [[Fraction(2**62)] * scheme.size, mixed, [tiny] * scheme.size]
    for weights in cases:
        w = WeightedSubset.from_weights(weights)
        for T in [{j} for j in range(1, scheme.classes)] + [range(1, scheme.classes)]:
            want = reference_via_merges(orbit_data, weights, T)
            assert is_T_design_via_merges(orbit_data, w, T) == want
    # the whole vertex set with equal weights is a design for every T
    assert is_T_design_via_merges(orbit_data, WeightedSubset.from_weights(cases[0]),
                                  range(1, scheme.classes))


def test_zero_matrices_over_huge_denominators():
    # a zero numerator over a denominator beyond int64 reduces to 0 / 1
    a = CycMatrix([[Fraction(1, 2**64)]])
    assert a - a == CycMatrix([[0]])
    assert (a - a).zero_mask().all()
    m = CycMatrix([[Fraction(1, 2**64), 0], [0, 0]])
    zero = CycMatrix([[0], [0]])
    assert zero.column_positions(m.transpose()) == zero.column_positions(m) == [[-1, 0]]
    assert m.transpose().column_positions(zero) == [[1]]


def test_character_table_keeps_its_matrix():
    _, _, table = cyclic_group(5)
    assert table.matrix.entries == table.rows
    assert table.matrix[1, 1] is table.rows[1][1]  # the cells are shared, not rebuilt


def test_left_zero_mask_dtype_follows_the_bound(monkeypatch):
    q = build_x8()[1].Q
    dtypes = []

    def recorded(x, y, bx=None, by=None):
        out = bounded_matmul(x, y, bx, by)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(cyclotomic, "bounded_matmul", recorded)
    for top, dtype in [(64, np.int64), (INT64_BOUND, object)]:
        ints = np.array([[top] * q.rows, [0] * q.rows, [top] + [0] * (q.rows - 1)], dtype=object)
        dtypes.clear()
        mask = q.left_zero_mask(ints, [1, 2])
        assert dtypes == [dtype]
        assert mask.tolist() == q.left_lifted(ints, 1, [1, 2]).zero_mask().tolist()
        assert mask[1].all() and not mask[2].any()


def test_zero_factors_meet_huge_numerators():
    # a zero factor bounds nothing: with each max taken as at least 1, the
    # other factor's numerators past 2^63 pick Python ints, not an int64 cast
    big = CycMatrix.from_ratios(5, [[[(1, 2**70, 1)]]])
    zero = CycMatrix.from_ratios(5, [[[]]])
    for product in (zero * big, big * zero, zero.schur(big), big.schur(zero),
                    CycMatrix([[0]]) * big, big * CycMatrix([[0]])):
        assert product == zero and product.zero_mask().all()
    assert Cyclotomic.zeta(5) * 0 * big[0, 0] == 0
    # a rational zero scales numerators past 2^63 without an int64 cast
    for scaled in (big.scale(0), big * 0, 0 * big):
        assert scaled == zero and scaled._num.dtype == np.int64
    assert big[0, 0] * 0 == 0 and 0 * big[0, 0] == 0
    assert big[0, 0] * (Cyclotomic.zeta(5) * 0) == 0
    assert big.left_zero_mask(np.zeros((2, 1), dtype=np.int64)).all()
    huge = np.array([[2**70, -(2**80)]], dtype=object)
    for got in (bounded_matmul(np.zeros((3, 1), dtype=np.int64), huge),
                bounded_matmul(huge.T, np.zeros((1, 2), dtype=bool))):
        assert not got.any() and got.dtype == np.int64


@st.composite
def near_powers(draw):
    """An integer within 2 of 0, 1, 2^31, 2^62 or 2^63, either sign."""
    base = draw(st.sampled_from([0, 1, 2**31, 2**62, 2**63]))
    return draw(st.sampled_from([1, -1])) * (base + draw(st.integers(-2, 2)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bounded_matmul_matches_object_products(data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    x = [[data.draw(near_powers()) for _ in range(k)] for _ in range(r)]
    y = [[data.draw(near_powers()) for _ in range(c)] for _ in range(k)]
    # whole zero rows of x and zero columns of y
    for i in data.draw(st.sets(st.integers(0, 3))):
        if i < r:
            x[i] = [0] * k
        if i < c:
            for row in y:
                row[i] = 0
    xs = cyclotomic._int_array(x).reshape(r, k)
    ys = cyclotomic._int_array(y).reshape(k, c)
    got = bounded_matmul(xs, ys)
    want = xs.astype(object) @ ys.astype(object)
    assert got.shape == (r, c) and got.tolist() == want.tolist()
    # int64 exactly when every entry of the product fits below 2^62
    fits = all(abs(v) < INT64_BOUND for v in want.ravel().tolist())
    assert (got.dtype == np.int64) == fits


# ---------------------------------------------------------------------------
# conductors read from files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("conductor", [10_007, 10_008, 0, -4, 2**64, "many"])
def test_file_conductor_cap_rejects_before_allocating(conductor):
    # 10 008 has phi = 3312, within PHI_LIMIT: its power table alone would be
    # 10 008 rows of 3312 integers, 265 MB in int64
    text = '{"conductor": %s, "Q": [[[[1, "1"]]]]}' % (
        f'"{conductor}"' if isinstance(conductor, str) else conductor)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError):
            fileio.parse_eigen_file(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_file_conductor_cap_admits_the_ladder():
    assert fileio.FILE_PHI_LIMIT >= 10 * euler_phi(52)
    n, q = fileio.parse_eigen_file('{"conductor": 52, "Q": [[[[1, "1"]]]]}')
    assert n == 52 and q[0, 0] == Cyclotomic.zeta(52)


# ---------------------------------------------------------------------------
# interval signs under threads
# ---------------------------------------------------------------------------

def test_exact_sign_is_thread_safe(monkeypatch):
    values = [v for name in ("dic7", "coxeter")
              for plane in krein_parameters(load_entry(name).eigen).q
              for row in plane for v in row]
    assert any(not v.is_rational() for v in values)
    # x - y sqrt 2 with x^2 - 2 y^2 = +-1 is about 1 / (2x): too close to
    # zero for the float64 filter, so these go to intervals
    x, y = 1, 1
    while x < 2**60:
        if x > 2**30:
            values.append(Cyclotomic.from_terms(8, [(0, x), (1, -y), (3, y)]))
        x, y = x + 2 * y, x + y
    want = [exact_sign(v) for v in values]
    interval_threads = []
    interval_sign = cyclotomic._interval_sign
    monkeypatch.setattr(cyclotomic, "_interval_sign", lambda n, num: (
        interval_threads.append(threading.get_ident()) or interval_sign(n, num)))
    results, errors, seen, workers_ids = {}, [], [], {}
    started, done = threading.Event(), threading.Event()

    def holder():
        # another user of mpmath sets its own precision and keeps it
        mpmath.iv.prec = 97
        started.set()
        done.wait(timeout=120)
        seen.append(mpmath.iv.prec)

    def worker(t):
        try:
            workers_ids[t] = threading.get_ident()
            results[t] = [[exact_sign(v) for v in values] for _ in range(3)]
        except Exception as exc:  # noqa: BLE001 (reported below)
            errors.append(exc)

    old_prec, old_switch = mpmath.iv.prec, sys.getswitchinterval()
    hold = threading.Thread(target=holder)
    workers = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    sys.setswitchinterval(1e-6)
    try:
        hold.start()
        assert started.wait(timeout=10)
        for th in workers:
            th.start()
        for th in workers:
            th.join(timeout=120)
        done.set()
        hold.join(timeout=10)
        assert not any(th.is_alive() for th in workers + [hold])
    finally:
        done.set()
        sys.setswitchinterval(old_switch)
        mpmath.iv.prec = old_prec
    assert not errors, errors
    assert sorted(results) == [0, 1, 2, 3]
    assert all(run == want for runs in results.values() for run in runs)
    assert seen == [97]  # every change was undone, in order
    # every worker evaluated intervals under the lock
    assert set(workers_ids.values()) <= set(interval_threads)


def test_mpmath_is_imported_with_the_first_irrational_sign():
    # a command that decides no irrational sign never imports mpmath; one
    # that does imports it on the way
    src = Path(cyclotomic.__file__).resolve().parent.parent
    probe = (
        "import sys, contextlib, io\n"
        "from delsarte.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'mpmath' in sys.modules)\n"
    )

    def run(*argv):
        done = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        return done.stdout.split()

    base = data_dir()
    assert run("scheme", "verify", "--scheme", str(base / "coxeter.scheme.json")) == ["0", "False"]
    assert run("scheme", "eigen", "--scheme", str(base / "coxeter.scheme.json"),
               "--eigen", str(base / "coxeter.eigen.json")) == ["0", "True"]
