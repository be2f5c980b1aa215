"""Kept numerator bounds in the matrix kernel.

A ``CycMatrix`` keeps the largest absolute value of its numerators
(``_bound``), the basis tables of a conductor share one bound
(``_table_bound``), and ``bounded_matmul``, ``_convolve``, ``_sum``,
``_scaled`` and ``scale_lines`` take the bounds their callers hold instead
of scanning their operands again.  These tests pin the kept bound to a scan
of the numerators after every kernel routine, and every dtype the kernel
picks to the one it picks when each bound is scanned afresh, on matrices
with numerators near 0, 1, 2^31 and 2^62 at conductors 1, 4, 5, 12 and 28.
They also pin subtraction: one ``_sum`` with the sign folded in, and
``NotImplemented`` for an operand that is not a matrix.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import cyclotomic
from delsarte.cyclotomic import CycMatrix, Cyclotomic, _int_array, _maxabs, euler_phi, units_mod

CONDUCTORS = (1, 4, 5, 12, 28)


@st.composite
def near_powers(draw):
    """An integer within 2 of 0, 1, 2^31 or 2^62, either sign."""
    base = draw(st.sampled_from([0, 1, 2**31, 2**62]))
    return draw(st.sampled_from([1, -1])) * (base + draw(st.integers(-2, 2)))


def matrix(draw, n, rows, cols):
    phi = euler_phi(n)
    values = [draw(near_powers()) for _ in range(rows * cols * phi)]
    num = _int_array(values).reshape(rows, cols, phi)
    return CycMatrix._from_array(n, num, draw(st.sampled_from([1, 2, 3, 12])))


def kernel_results(a, b, r, ints, k, c, lines):
    """Every kernel routine on a and b (s x s over Q(zeta_n)), the rational
    s x s matrix r, the integer rows ints (2 x s), the unit k, the rational
    c and the rational vectors lines; products of results reuse their kept
    bounds."""
    n = a.conductor
    prod = a * b
    diff = a - b
    out = [
        prod, a.schur(b), a + b, diff, b - a, a + r, r - a, a.scale(c), a.scale(-1),
        a.scale_lines(*lines), a.scale_lines(cols=lines[1]), a.galois(k), a.conjugate(),
        a.adjoint(), a.transpose(), a.reshape(1, a.rows * a.cols), r * a, a * r,
        a.left_lifted(ints, 3), a.embed(2 * n), a.select(rows=[0]),
        prod * diff.transpose(), diff.scale(c) - prod, prod.schur(diff.adjoint()),
    ]
    out.append(a.column_positions(b, units_mod(n)))
    out.append(a.galois_moved(units_mod(n)))
    return out


def same(x, y):
    if isinstance(x, CycMatrix):
        return x == y and x._num.dtype == y._num.dtype
    return np.array_equal(np.asarray(x), np.asarray(y))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_kept_bounds_and_dtypes_follow_a_rescan(data):
    draw = data.draw
    n = draw(st.sampled_from(CONDUCTORS))
    s = draw(st.integers(1, 3))
    a, b = matrix(draw, n, s, s), matrix(draw, n, s, s)
    r = matrix(draw, 1, s, s)
    ints = _int_array([draw(near_powers()) for _ in range(2 * s)]).reshape(2, s)
    k = draw(st.sampled_from(units_mod(n)))
    c = Fraction(draw(near_powers()), draw(st.sampled_from([1, 5, 2**40])))
    lines = tuple([Fraction(draw(near_powers()), draw(st.sampled_from([1, 7])))
                   for _ in range(s)] for _ in range(2))

    picked = []
    dtype = cyclotomic._dtype

    def recorded(bound):
        picked.append(dtype(bound))
        return picked[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclotomic, "_dtype", recorded)
        got = kernel_results(a, b, r, ints, k, c, lines)
        kept = picked[:]
        picked.clear()
        # the reference scans every operand afresh, matrices and tables alike
        mp.setattr(cyclotomic, "_known", lambda bound, x: _maxabs(x))
        mp.setattr(CycMatrix, "_bound", property(lambda self: _maxabs(self._num)))
        want = kernel_results(a, b, r, ints, k, c, lines)
    assert kept == picked
    assert all(same(x, y) for x, y in zip(got, want))
    for m in [a, b, r] + [x for x in got if isinstance(x, CycMatrix)]:
        assert m._max is None or m._max == _maxabs(m._num)
        assert m._bound == _maxabs(m._num) and m._max == m._bound


def test_table_bound_covers_every_table():
    for n in CONDUCTORS + (56, 60, 105):
        bound = cyclotomic._table_bound(n)
        tables = [t for k in units_mod(n) if (t := cyclotomic._galois_matrix(n, k)) is not None]
        tables += [cyclotomic._reduction(n)[0],
                  cyclotomic._basis_map(n, range(-n, 2 * n))]
        tables += [cyclotomic._embedding(d, n) for d in cyclotomic.divisors(n)[:-1]]
        assert all(_maxabs(t) <= bound for t in tables)
        assert bound == max(_maxabs(t) for t in tables)


def test_subtraction_is_one_sum():
    a = CycMatrix([[1, Fraction(1, 2)], [Cyclotomic.zeta(5), 2**70]])
    b = CycMatrix([[Fraction(1, 3), -(2**70)], [0, Cyclotomic.zeta(5, 2)]])
    assert a - b == a + b.scale(-1)
    assert b - a == (a - b).scale(-1)
    assert (a - a).zero_mask().all()
    calls = []
    scale = CycMatrix.scale

    def counted(self, c):
        calls.append(c)
        return scale(self, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CycMatrix, "scale", counted)
        a - b
    assert calls == []


@pytest.mark.parametrize("other", [1, Fraction(1, 2), 1.5, "x", None])
def test_matrix_with_a_non_matrix_raises_type_error(other):
    a = CycMatrix([[1, 2], [3, 4]])
    for op in (lambda: a - other, lambda: other - a, lambda: a + other, lambda: other + a):
        with pytest.raises(TypeError):
            op()
