"""The float64 sign filter of ``CycMatrix.signs`` against interval signs.

``signs`` decides an irrational entry whose own numerators are below 2^62 in
float64 when the estimate clears its proven error bound, whatever the dtype
of the whole matrix, and sends every other entry to ``_interval_sign``.  Here every sign it returns is compared with the
interval sign of the same numerators: random real values at many
conductors with numerators up to 2^62 (where float64 rounds them),
object-dtype numerators, values so close to zero that the filter must pass
them on, and the Krein tensors and design reports of every catalog entry.
Each test counts which path ran.
"""

import contextlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from design_reference import reference_inner_distribution
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import cyclotomic
from delsarte.catalog import CATALOG, load_entry
from delsarte.cyclotomic import CycMatrix, Cyclotomic, _interval_sign, exact_sign
from delsarte.designs import WeightedSubset, design_report
from delsarte.scheme import krein_parameters

CONDUCTORS = (1, 4, 5, 7, 8, 12, 28, 60, 105)


@contextlib.contextmanager
def interval_calls():
    """The numerators of every ``_interval_sign`` call made inside."""
    calls = []

    def counted(n, num):
        calls.append((n, tuple(num)))
        return _interval_sign(n, num)

    with mock.patch.object(cyclotomic, "_interval_sign", counted):
        yield calls


def check_signs(m: CycMatrix) -> tuple[int, int]:
    """m.signs() against the sign of every rational numerator and the
    interval sign of every irrational entry; returns how many irrational
    entries the filter decided and how many went to intervals."""
    with interval_calls() as calls:
        got = m.signs()
    num, n = m._num, m.conductor
    irrational = [(i, j) for i in range(m.rows) for j in range(m.cols)
                  if any(num[i, j, 1:])]
    want = [[(c > 0) - (c < 0) for c in row] for row in num[..., 0].tolist()]
    for i, j in irrational:
        want[i][j] = _interval_sign(n, num[i, j].tolist())
    assert got.tolist() == want
    # no float64 estimate on an entry with a numerator of 2^62 or more
    called = {numerators for _, numerators in calls}
    assert all(tuple(num[i, j].tolist()) in called for i, j in irrational
               if max(abs(c) for c in num[i, j].tolist()) >= 2**62)
    assert len(calls) <= len(irrational)
    return len(irrational) - len(calls), len(calls)


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
def test_filter_agrees_with_intervals_on_random_real_values(m):
    check_signs(m)


def test_large_numerators_are_rounded_and_still_decided():
    # numerators above 2^53 are not exact in float64; the bound covers it
    root2 = Cyclotomic.from_terms(8, [(1, 1), (7, 1)])
    m = CycMatrix([[root2 * (2**61 + 1) - (2**61 - 1)], [-root2 * 3 + 2**60 + 7]])
    assert m._num.dtype == np.int64 and max(abs(v) for v in m._num.ravel().tolist()) > 2**53
    assert check_signs(m) == (2, 0)


def test_object_numerators_take_the_interval_path():
    root2 = Cyclotomic.from_terms(8, [(1, 1), (7, 1)])
    # only the entry whose own numerators do not fit takes intervals; its
    # small neighbour takes the float64 filter
    m = CycMatrix([[root2 * 2**70 - 1, -root2 * 3 + 1, Fraction(-1, 3)]])
    assert m._num.dtype == object
    assert check_signs(m) == (1, 1)


def pell(d: int, x: int, y: int, top: int):
    """Solutions of x^2 - d y^2 = +-1 from (x, y) up to x <= top, by
    multiplication with the fundamental unit."""
    fx, fy = x, y
    while x <= top:
        yield x, y
        x, y = x * fx + d * y * fy, x * fy + y * fx


def test_near_zero_values_reach_the_interval_path():
    # x - y sqrt 2 = (x^2 - 2 y^2) / (x + y sqrt 2) is about 1 / (2x); sqrt 2
    # is zeta_8 - zeta_8^3, so its numerators are (x, -y, 0, y)
    decided = undecided = 0
    for x, y in pell(2, 1, 1, 2**60):
        m = CycMatrix.from_terms(8, [[[(0, x), (1, -y), (3, y)]]])
        assert m.signs()[0, 0] == (1 if x * x - 2 * y * y > 0 else -1)
        filtered, intervals = check_signs(m)
        if x > 2**30:  # 1 / (2x) is far below the float64 error bound
            assert intervals == 1, (x, y)
        decided += filtered
        undecided += intervals
    assert decided and undecided


@pytest.mark.parametrize("digits, path", [(7, "filter"), (17, "interval")])
def test_neighbours_of_two_cos_two_pi_over_seven(digits, path):
    # 2 cos(2 pi / 7) = 1.2469796037...; its 7-digit neighbours are 4e-8
    # away, which float64 settles; its 17-digit neighbours are closer than
    # the error bound of numerators near 10^17
    c = Cyclotomic.from_terms(7, [(1, 1), (6, 1)])
    low = Fraction(124697960371746706 // 10 ** (17 - digits), 10**digits)
    m = CycMatrix([[c - low, c - low - Fraction(1, 10**digits)]])
    assert m.signs().tolist() == [[1, -1]]
    filtered, intervals = check_signs(m)
    assert (filtered, intervals) == ((2, 0) if path == "filter" else (0, 2))


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
    decided = undecided = 0
    rng = np.random.default_rng(12)
    for name in sorted(CATALOG):
        eigen = load_entry(name).eigen
        size = eigen.scheme.size
        filtered, intervals = check_signs(krein_matrix(eigen))
        decided, undecided = decided + filtered, undecided + intervals
        rows = []
        for _ in range(12):
            subset = rng.choice(size, rng.integers(1, size + 1), replace=False)
            weights = [0] * size
            for x in subset.tolist():
                weights[x] = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            rows.append(reference_inner_distribution(eigen.scheme, weights))
            with interval_calls() as calls:
                report = design_report(eigen.scheme, eigen, WeightedSubset.from_weights(weights))
            undecided += len(calls)
            assert all(exact_sign(v) >= 0 for v in report.b)
        filtered, intervals = check_signs(eigen.Q.left_rational(rows))
        decided, undecided = decided + filtered, undecided + intervals
    assert decided > 0
    # z12 weights x, y, y on the vertices 0, 5, 7 with x^2 - 3 y^2 = 1 make
    # the b_j of the characters g -> zeta_12^(+-g) proportional to
    # (x - y sqrt 3)^2: positive, and far below the float64 error bound of
    # their numerators
    eigen = load_entry("z12").eigen
    for x, y in pell(3, 2, 1, 2**26):
        weights = [0] * 12
        weights[0], weights[5], weights[7] = x, y, y
        with interval_calls() as calls:
            report = design_report(eigen.scheme, eigen, WeightedSubset.from_weights(weights))
        assert all(exact_sign(v) >= 0 for v in report.b)
        if x > 2**12:
            assert len(calls) == 2, (x, y)
        undecided += len(calls)
    assert undecided > 0
