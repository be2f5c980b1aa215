"""Scalar Cyclotomic values, cells of the integer kernel, against the
Fraction reference (tests/fraction_reference.py).

Every scalar operation runs the matrices' array kernel on the value's
numerator vector; these property tests pin each one to the reference and
check the ring and Galois laws, the embedding laws across conductors, the
norm inverse, the conductor checks and byte-identical file round trips.
"""

import json
import math
import operator
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import fileio
from delsarte.cyclotomic import PHI_LIMIT, CycMatrix, Cyclotomic, euler_phi, units_mod
from delsarte.errors import ConductorMismatch
from fraction_reference import Ref

#: phi(35) = 24, the largest degree drawn
CONDUCTORS = (1, 4, 5, 8, 12, 20, 28, 35)
EMBEDDINGS = ((1, 4), (4, 8), (4, 12), (5, 20), (4, 28), (5, 35), (12, 24), (20, 60))

FAST = settings(max_examples=40, deadline=None)

rationals = st.fractions(min_value=-7, max_value=7, max_denominator=6)


@st.composite
def pairs(draw, n):
    """A library value with its reference, from the same random terms."""
    terms = draw(st.lists(st.tuples(st.integers(-n, 2 * n), rationals),
                          max_size=euler_phi(n) + 2))
    return Cyclotomic.from_terms(n, terms), Ref.from_terms(n, terms)


def unit(data, n):
    return data.draw(st.sampled_from(units_mod(n) if n > 1 else (1,)))


@FAST
@given(st.data())
def test_ring_operations_match_the_reference(data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    (x, rx), (y, ry), (z, rz) = (data.draw(pairs(n)) for _ in range(3))
    q = data.draw(rationals)
    assert Ref.of(x) == rx
    assert Ref.of(x + y) == rx + ry and Ref.of(x - y) == rx - ry
    assert Ref.of(x * y) == rx * ry and Ref.of(-x) == rx * -1
    assert Ref.of(x * q) == rx * q and Ref.of(q * x) == rx * q
    assert Ref.of(q + x) == rx + q and Ref.of(q - x) == Ref.of(q) - rx
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and (x - x).is_zero()
    assert (x == y) == (rx == ry)


@FAST
@given(st.data())
def test_norm_inverse(data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    x, rx = data.draw(pairs(n))
    if x.is_zero():
        return
    inv = x.inverse()
    assert rx * Ref.of(inv) == 1
    assert x * inv == 1 and inv.inverse() == x
    assert inv.conductor == n


@FAST
@given(st.data())
def test_galois_laws(data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    (x, rx), (y, ry) = data.draw(pairs(n)), data.draw(pairs(n))
    k, l = unit(data, n), unit(data, n)
    assert Ref.of(x.galois(k)) == rx.galois(k)
    assert Ref.of(x.conjugate()) == rx.conjugate()
    assert (x * y).galois(k) == x.galois(k) * y.galois(k)
    assert (x + y).galois(k) == x.galois(k) + y.galois(k)
    assert x.galois(k).galois(l) == x.galois(k * l)


@FAST
@given(st.data())
def test_embedding_laws(data):
    n, m = data.draw(st.sampled_from(EMBEDDINGS))
    x, rx = data.draw(pairs(n))
    e = x.embed(m)
    assert e.conductor == m and e == x and Ref.of(e) == rx.embed(m)
    n2 = data.draw(st.sampled_from(CONDUCTORS))
    y, ry = data.draw(pairs(n2))
    lcm = math.lcm(n, n2)
    for value, want in ((x + y, x.embed(lcm) + y.embed(lcm)),
                        (x * y, x.embed(lcm) * y.embed(lcm)),
                        (x - y, x.embed(lcm) - y.embed(lcm))):
        assert value.conductor == lcm and value == want
    assert Ref.of(x + y) == rx + ry and Ref.of(x * y) == rx * ry


@FAST
@given(st.data())
def test_json_round_trip_is_byte_identical(data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    x, _ = data.draw(pairs(n))
    text = json.dumps(fileio.cyclotomic_to_json(x))
    again = fileio.cyclotomic_from_json(json.loads(text))
    assert again == x and again.conductor == n
    assert json.dumps(fileio.cyclotomic_to_json(again)) == text


@FAST
@given(st.data())
def test_eigen_file_round_trip_is_byte_identical(data):
    n = data.draw(st.sampled_from(CONDUCTORS))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    cells = [[data.draw(pairs(n)) for _ in range(cols)] for _ in range(rows)]
    q = CycMatrix([[x for x, _ in row] for row in cells], n)
    text = fileio.dump_eigen(SimpleNamespace(conductor=n, Q=q))
    n_again, q_again = fileio.parse_eigen_file(text)
    assert n_again == n and q_again == q
    assert all(Ref.of(q_again[i, j]) == cells[i][j][1]
               for i in range(rows) for j in range(cols))
    assert fileio.dump_eigen(SimpleNamespace(conductor=n, Q=q_again)) == text


def test_norm_inverse_at_degree_24():
    # a dense element of each phi = 24 field: the cofactor multiplies 23
    # conjugates, far past int64, before the norm divides it out
    for n in (35, 39, 52):
        terms = [(e, (-1) ** e * (e + 1)) for e in range(euler_phi(n))]
        x, rx = Cyclotomic.from_terms(n, terms), Ref.from_terms(n, terms)
        inv = x.inverse()
        assert rx * Ref.of(inv) == 1 and x * inv == 1


def test_from_rational_checks_its_conductor():
    with pytest.raises(ValueError):
        Cyclotomic.from_rational(1, 0)
    assert euler_phi(2**17) > PHI_LIMIT
    with pytest.raises(ConductorMismatch):
        Cyclotomic.from_rational(1, 2**17)


def test_equality_compares_denominators_too():
    half, third = Fraction(1, 2), Fraction(1, 3)
    for n in (1, 4, 12):
        x = Cyclotomic.from_terms(n, [(1, half)])
        assert x != Cyclotomic.from_terms(n, [(1, third)])
        assert x == Cyclotomic.from_terms(2 * n, [(2, half)])
        assert x != Cyclotomic.from_terms(2 * n, [(2, third)])
    assert Cyclotomic.from_rational(half, 4) != third
    assert Cyclotomic.from_rational(half, 4) == half


@pytest.mark.parametrize("other", [None, object()])
def test_operands_that_are_not_numbers_are_refused_in_either_order(other):
    # each operator returns NotImplemented, so Python raises the TypeError
    # that names the operands as written, also for a zero divisor
    ops = ((operator.add, "+"), (operator.sub, "-"), (operator.mul, "*"),
           (operator.truediv, "/"))
    for x in (Cyclotomic.from_rational(0, 4), Cyclotomic.zeta(4)):
        for left, right in ((other, x), (x, other)):
            for op, sign in ops:
                with pytest.raises(TypeError) as got:
                    op(left, right)
                names = f"'{type(left).__name__}' and '{type(right).__name__}'"
                assert str(got.value) == f"unsupported operand type(s) for {sign}: {names}"
