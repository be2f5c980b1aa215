"""The fixed-point cosine tables behind exact signs.

``cyclotomic._cos_bounds(n, p)`` holds integers lo_e and widths w_e <= 2
with lo_e <= 2^p cos(2 pi e / n) <= lo_e + w_e; ``_interval_sign`` decides a
sign by integer sums against them, and the float64 filter reads the p = 53
row.  Here the tables are checked against ``mpmath.iv`` at twice their
precision, every sign against the interval evaluator of
tests/sign_reference.py (random real values at many conductors, and
near-zero units up to 2^60), and a warm sign against a counting lock: it
takes the mpmath lock zero times and leaves ``mpmath.iv.prec`` alone.
"""

import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sign_reference import reference_sign

from delsarte import cyclotomic
from delsarte.catalog import load_entry
from delsarte.cyclotomic import (
    CycMatrix,
    Cyclotomic,
    _cos_bounds,
    _cos_floats,
    _interval_sign,
    euler_phi,
)
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


@pytest.mark.parametrize("n", CONDUCTORS)
def test_float_table_is_the_53_bit_row(n):
    t = _cos_floats(n).tolist()
    assert [Fraction(v) for v in t] == [Fraction(low, 2**53) for low in _cos_bounds(n, 53)[0]]
    for e, v in enumerate(t):
        a, b = enclosure(n, e, 128)
        assert max(abs(Fraction(v) - a), abs(Fraction(v) - b)) <= Fraction(1, 2**52)


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
