"""The fixed-point cosine tables behind exact signs.

``cyclotomic._cos_bounds(n, p)`` holds integers lo_e and widths w_e <= 2
with lo_e <= 2^p cos(2 pi e / n) <= lo_e + w_e; ``_interval_sign`` decides
every irrational sign by integer sums against them.  Here the tables are
checked against ``mpmath.iv`` at twice their precision; every sign, of a
value and of each entry of ``CycMatrix.signs``, against the interval
evaluator of tests/sign_reference.py (random real values and matrices at
many conductors, int64 numerators past 2^53 and object-dtype ones, near-zero
units up to 2^60, the neighbours of 2 cos(2 pi / 7), and the Krein tensors
and design reports of the catalog); and a warm sign against a counting
lock: it takes the mpmath lock zero times and leaves ``mpmath.iv.prec``
alone.
"""

import threading
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from design_reference import reference_inner_distribution
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sign_reference import reference_sign

from delsarte import cyclotomic
from delsarte.catalog import CATALOG, load_entry
from delsarte.cyclotomic import (
    CycMatrix,
    Cyclotomic,
    _cos_bounds,
    _interval_sign,
    euler_phi,
    exact_sign,
)
from delsarte.designs import WeightedSubset, design_report
from delsarte.scheme import krein_parameters

CONDUCTORS = (1, 4, 5, 7, 8, 12, 28, 60, 105)


def numerators(n: int, terms) -> list[int]:
    """Power-basis numerators of sum c zeta_n^e over (e, c) integer pairs."""
    x = Cyclotomic.from_terms(n, terms)
    assert x._den == 1
    return list(x._num)


# ---------------------------------------------------------------------------
# the tables
# ---------------------------------------------------------------------------

def enclosure(n: int, e: int, prec: int) -> tuple[Fraction, Fraction]:
    """The exact ends of the mpmath.iv enclosure of cos(2 pi e / n) at prec bits."""
    with cyclotomic._IV_LOCK:
        old = mpmath.iv.prec
        mpmath.iv.prec = prec
        try:
            ends = mpmath.iv.cos(2 * mpmath.iv.pi * e / n)._mpi_
        finally:
            mpmath.iv.prec = old
    return tuple((-1) ** s * Fraction(m) * Fraction(2) ** x for s, m, x, _ in ends)


@pytest.mark.parametrize("p", [53, 64, 128, 256])
@pytest.mark.parametrize("n", CONDUCTORS)
def test_table_encloses_the_cosines(n, p):
    lo, width = _cos_bounds(n, p)
    assert len(lo) == len(width) == euler_phi(n)
    for e, (low, w) in enumerate(zip(lo, width)):
        a, b = enclosure(n, e, 2 * p)
        assert 0 <= w <= 2 and abs(low) <= 2**p
        assert low <= 2**p * a <= 2**p * b <= low + w, (n, p, e)


# ---------------------------------------------------------------------------
# every sign equals the interval reference
# ---------------------------------------------------------------------------

@st.composite
def real_values(draw):
    """A conductor and the numerators of a nonzero real value
    c_0 + sum_e c_e (zeta^e + zeta^-e) with coefficients up to 2^bits."""
    n = draw(st.sampled_from(CONDUCTORS))
    bits = draw(st.sampled_from([4, 30, 53, 62, 100, 200]))
    coeff = st.integers(-(2**bits), 2**bits)
    terms = [(0, draw(coeff))]
    for e in draw(st.lists(st.integers(1, max(1, n // 2)), max_size=4, unique=True)):
        c = draw(coeff)
        terms += [(e, c), (-e, c)]
    num = numerators(n, terms)
    assume(any(num))
    return n, num


@settings(max_examples=300, deadline=None)
@given(real_values())
def test_signs_of_random_real_values_equal_the_reference(value):
    n, num = value
    assert _interval_sign(n, num) == reference_sign(n, num)


def units(step, x: int, y: int, top: int = 2**60):
    """Pairs (x, y) from step(x, y), from the given one while x <= top."""
    while x <= top:
        yield x, y
        x, y = step(x, y)


#: x - y r for r = sqrt 2 (n = 8), sqrt 3 (n = 12) and the golden ratio
#: (n = 5), from x / y close to r: as terms, and the sign of the norm
#: (x - y r)(x - y r') with r' < 0 < x - y r'
FAMILIES = {
    "sqrt2": (8, lambda x, y: (x + 2 * y, x + y), (1, 1),
              lambda x, y: [(0, x), (1, -y), (7, -y)], lambda x, y: x * x - 2 * y * y),
    "sqrt3": (12, lambda x, y: (2 * x + 3 * y, x + 2 * y), (2, 1),
              lambda x, y: [(0, x), (1, -y), (11, -y)], lambda x, y: x * x - 3 * y * y),
    "golden": (5, lambda x, y: (x + y, x), (2, 1),
               lambda x, y: [(0, x - y), (1, -y), (4, -y)], lambda x, y: x * x - x * y - y * y),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_near_zero_units_equal_the_reference(family):
    n, step, start, terms, norm = FAMILIES[family]
    seen = 0
    for x, y in units(step, *start):
        for scale in (1, -1, 2**70):
            num = numerators(n, [(e, scale * c) for e, c in terms(x, y)])
            want = (1 if norm(x, y) > 0 else -1) * (1 if scale > 0 else -1)
            assert _interval_sign(n, num) == reference_sign(n, num) == want, (x, y, scale)
        seen += 1
    assert seen > 25


def check_signs(m: CycMatrix) -> int:
    """Each entry of m.signs() against the sign of its rational numerator,
    or the reference sign of its numerators where it is irrational; returns
    the number of irrational entries."""
    num, n = m._num.tolist(), m.conductor
    want = [[reference_sign(n, line) if any(line[1:]) else (line[0] > 0) - (line[0] < 0)
             for line in row] for row in num]
    assert m.signs().tolist() == want
    return sum(any(line[1:]) for row in num for line in row)


@st.composite
def real_matrices(draw):
    """Rows of real values c_0 + sum_e c_e (zeta^e + zeta^-e) at a drawn
    conductor, with coefficients up to 2^bits for a drawn bits <= 62."""
    n = draw(st.sampled_from(CONDUCTORS))
    bits = draw(st.sampled_from([4, 30, 53, 56, 60, 62]))
    coeff = st.integers(-(2**bits), 2**bits)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            exps = draw(st.lists(st.integers(1, max(1, n // 2)), max_size=4, unique=True))
            terms = [(0, draw(coeff))]
            for e in exps:
                c = draw(coeff)
                terms += [(e, c), (-e, c)]
            row.append(terms)
        grid.append(row)
    return CycMatrix.from_terms(n, grid)


@settings(max_examples=300, deadline=None)
@given(real_matrices())
def test_signs_of_random_real_matrices_equal_the_reference(m):
    check_signs(m)


ROOT2 = Cyclotomic.from_terms(8, [(1, 1), (7, 1)])


def test_int64_numerators_past_two_to_the_53_equal_the_reference():
    m = CycMatrix([[ROOT2 * (2**61 + 1) - (2**61 - 1)], [-ROOT2 * 3 + 2**60 + 7]])
    assert m._num.dtype == np.int64 and max(abs(v) for v in m._num.ravel().tolist()) > 2**53
    check_signs(m)


def test_object_numerators_equal_the_reference():
    m = CycMatrix([[ROOT2 * 2**70 - 1, -ROOT2 * 3 + 1, Fraction(-1, 3)]])
    assert m._num.dtype == object
    check_signs(m)


def test_matrix_signs_of_near_zero_units_equal_the_reference():
    # x - y sqrt 2 = (x^2 - 2 y^2) / (x + y sqrt 2) is about 1 / (2x); sqrt 2
    # is zeta_8 - zeta_8^3, so its numerators are (x, -y, 0, y)
    _, step, start, _, norm = FAMILIES["sqrt2"]
    for x, y in units(step, *start):
        m = CycMatrix.from_terms(8, [[[(0, x), (1, -y), (3, y)]]])
        assert m.signs()[0, 0] == (1 if norm(x, y) > 0 else -1)
        check_signs(m)


@pytest.mark.parametrize("digits", [7, 17])
def test_neighbours_of_two_cos_two_pi_over_seven(digits):
    # 2 cos(2 pi / 7) = 1.2469796037...; its neighbours at 17 digits are
    # within 10^-17 of it
    c = Cyclotomic.from_terms(7, [(1, 1), (6, 1)])
    low = Fraction(124697960371746706 // 10 ** (17 - digits), 10**digits)
    m = CycMatrix([[c - low, c - low - Fraction(1, 10**digits)]])
    assert m.signs().tolist() == [[1, -1]]
    check_signs(m)


def test_realness_is_checked_on_irrational_entries_only():
    with pytest.raises(ValueError, match="non-real"):
        CycMatrix([[1, Cyclotomic.zeta(8)]]).signs()
    # rational entries, and conductors 1 and 2, need no Galois image
    with mock.patch.object(CycMatrix, "galois_moved", side_effect=AssertionError):
        assert CycMatrix([[Fraction(-1, 2), 0, 3]], 8).signs().tolist() == [[-1, 0, 1]]
        assert CycMatrix([[-1, 2]], 2).signs().tolist() == [[-1, 1]]
        assert exact_sign(Cyclotomic.from_rational(-5, 60)) == -1


def krein_matrix(eigen) -> CycMatrix:
    """The Krein tensor q[i][j][k] as a (d+1)^2 x (d+1) matrix."""
    return CycMatrix([row for plane in krein_parameters(eigen).q for row in plane])


def test_catalog_krein_tensors_and_design_reports():
    rng = np.random.default_rng(12)
    irrational = 0
    for name in sorted(CATALOG):
        eigen = load_entry(name).eigen
        size = eigen.scheme.size
        irrational += check_signs(krein_matrix(eigen))
        rows = []
        for _ in range(12):
            subset = rng.choice(size, rng.integers(1, size + 1), replace=False)
            weights = [0] * size
            for x in subset.tolist():
                weights[x] = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            rows.append(reference_inner_distribution(eigen.scheme, weights))
            report = design_report(eigen.scheme, eigen, WeightedSubset.from_weights(weights))
            irrational += check_signs(report.dual)
        irrational += check_signs(eigen.Q.left_rational(rows))
    assert irrational > 0
    # z12 weights x, y, y on the vertices 0, 5, 7 with x^2 - 3 y^2 = 1 make
    # the b_j of the characters g -> zeta_12^(+-g) proportional to
    # (x - y sqrt 3)^2: positive, and near zero
    eigen = load_entry("z12").eigen
    _, step, start, _, _ = FAMILIES["sqrt3"]
    for x, y in units(step, *start, top=2**26):
        weights = [0] * 12
        weights[0], weights[5], weights[7] = x, y, y
        report = design_report(eigen.scheme, eigen, WeightedSubset.from_weights(weights))
        assert (report.dual.signs() >= 0).all()
        assert check_signs(report.dual) >= 2


# ---------------------------------------------------------------------------
# a warm sign takes no lock and sets no precision
# ---------------------------------------------------------------------------

class CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self.lock, self.taken = threading.Lock(), 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def sign_inputs():
    """Near-zero units of every family, as (n, numerators), and the Krein
    tensor of dic7 as one matrix."""
    values = []
    for n, step, start, terms, _ in FAMILIES.values():
        values += [(n, numerators(n, terms(x, y))) for x, y in units(step, *start)]
    krein = krein_parameters(load_entry("dic7").eigen).q
    return values, CycMatrix([row for plane in krein for row in plane])


def test_a_warm_sign_takes_no_lock_and_sets_no_precision(monkeypatch):
    values, krein = sign_inputs()
    want = [_interval_sign(n, num) for n, num in values], krein.signs().tolist()
    lock = CountingLock()
    monkeypatch.setattr(cyclotomic, "_IV_LOCK", lock)
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = 77
        got = [_interval_sign(n, num) for n, num in values], krein.signs().tolist()
        assert mpmath.iv.prec == 77
    finally:
        mpmath.iv.prec = old
    assert got == want
    assert lock.taken == 0


def test_the_counting_lock_sees_a_table_being_built(monkeypatch):
    # the companion of the test above: a cold table is built under the lock,
    # once per precision, and the precision is put back
    values, _ = sign_inputs()
    n, num = values[-1]
    lock = CountingLock()
    monkeypatch.setattr(cyclotomic, "_IV_LOCK", lock)
    old = mpmath.iv.prec
    _cos_bounds.cache_clear()
    try:
        mpmath.iv.prec = 77
        got = _interval_sign(n, num)
        assert mpmath.iv.prec == 77
    finally:
        mpmath.iv.prec = old
    assert lock.taken == _cos_bounds.cache_info().currsize >= 2
    assert got == reference_sign(n, num)
