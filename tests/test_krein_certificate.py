"""Krein tensors by a float64 guess and one exact certificate.

``krein_parameters`` forms the Schur products W at the unordered pairs
i <= j, guesses K = P W / |X| in complex128 on the grid 1 / L with
L = |X| lcm(m_j) (``CycMatrix.rational_guess``), and accepts the guess only
where Q K^ = W holds exactly; everything else falls back to the exact
product on the same W and the Galois sweep of its irrational columns.

These tests pin the result to the former path on every ordered pair
(``galois_reference.reference_krein_parameters``) on the catalog, the
ladder Z_5 ... Z_30 and Dic_3 ... Dic_13 and two direct products; seed wrong
guesses, which must fail the rounding or the certificate and still give
the same tensor; check the group-scheme oracle
q[i][j][k] f_k = f_i f_j r[i][j][k] with the tensor multiplicities r; and
count the products and Galois images each path makes.
"""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from galois_reference import reference_krein_parameters
from group_reference import character_product_multiplicities
from test_galois_stack import PRODUCT_CASES, case

from delsarte import cyclotomic
from delsarte.catalog import CATALOG
from delsarte.cyclotomic import CycMatrix, units_mod
from delsarte.groups import builtin_group
from delsarte.scheme import krein_parameters

CASES = (tuple(("catalog", name) for name in sorted(CATALOG))
         + tuple(("cyclic", n) for n in range(5, 31))
         + tuple(("dicyclic", n) for n in range(3, 14, 2)))
#: the cases whose Krein tensors are rational, all but coxeter and the products
RATIONAL = tuple(c for c in CASES if c != ("catalog", "coxeter"))


def same_as_reference(eigen):
    """krein_parameters against the former path: tensor, cells and conductor."""
    kd, want = krein_parameters(eigen), reference_krein_parameters(eigen)
    assert kd.tensor == want.tensor
    assert kd.q == want.q
    assert kd.krein_conductor == want.krein_conductor
    return kd


def counted_convolutions():
    """A patch of ``cyclotomic._convolve`` and the list its calls append to."""
    calls = []
    original = cyclotomic._convolve

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    return mock.patch.object(cyclotomic, "_convolve", counted), calls


@pytest.mark.parametrize("family, n", CASES + PRODUCT_CASES)
def test_certified_tensors_equal_the_former_path(family, n):
    _, eigen = case(family, n)
    kd = same_as_reference(eigen)
    # a certified tensor is held over Q; only an irrational one keeps n
    assert kd.tensor.conductor == (1 if (family, n) in RATIONAL else eigen.conductor)


@pytest.mark.parametrize("family, n", RATIONAL)
def test_rational_tensors_make_one_convolution_and_no_galois_image(family, n):
    # the half Schur products W are the only cyclotomic-by-cyclotomic
    # product; the certificate Q K^ is an integer-by-cyclotomic one
    _, eigen = case(family, n)
    patch, calls = counted_convolutions()
    with patch, mock.patch.object(CycMatrix, "galois_moved", side_effect=AssertionError), \
            mock.patch.object(CycMatrix, "galois", side_effect=AssertionError):
        kd = krein_parameters(eigen)
    assert len(calls) == 1
    assert (kd.tensor.conductor, kd.krein_conductor) == (1, 1)


@pytest.mark.parametrize("family, n", [("catalog", "coxeter")] + list(PRODUCT_CASES))
def test_irrational_tensors_map_each_unit_once(family, n):
    # the fallback's sweep decides realness, so the signs of its real
    # entries take no second image under conjugation
    _, eigen = case(family, n)
    calls = []
    original = CycMatrix.galois_moved

    def logged(self, units):
        calls.append(list(units))
        return original(self, units)

    with mock.patch.object(CycMatrix, "galois_moved", logged):
        kd = krein_parameters(eigen)
    assert calls == [list(units_mod(eigen.conductor))]
    assert kd.krein_conductor == reference_krein_parameters(eigen).krein_conductor


# ---------------------------------------------------------------------------
# seeded wrong guesses
# ---------------------------------------------------------------------------

def guessing(change):
    """A patch of ``CycMatrix.rational_guess`` that passes the guess it
    would return, and its grid, through ``change``."""
    original = CycMatrix.rational_guess

    def guess(self, other, grid):
        return change(original, self, other, grid)

    return mock.patch.object(CycMatrix, "rational_guess", guess)


def falls_back_to_the_former_tensor(eigen, patch):
    """Under the patch, the result is the former path's, and the guess was
    refused: K came from the exact product, a second convolution."""
    want = reference_krein_parameters(eigen)
    count, calls = counted_convolutions()
    with patch, count:
        kd = krein_parameters(eigen)
    assert len(calls) == 2
    assert kd.tensor.conductor == eigen.conductor
    assert (kd.tensor, kd.q, kd.krein_conductor) == (want.tensor, want.q, want.krein_conductor)


@pytest.mark.parametrize("family, n", RATIONAL[::3])
def test_a_guess_one_grid_step_off_fails_the_certificate(family, n):
    _, eigen = case(family, n)
    rng = random.Random(f"step {family}{n}")

    def off_by_one_step(original, self, other, grid):
        g = original(self, other, grid)
        step = np.zeros((g.rows, g.cols), dtype=object)
        step[rng.randrange(g.rows), rng.randrange(g.cols)] = Fraction(rng.choice([-1, 1]), grid)
        return g + CycMatrix(step)

    falls_back_to_the_former_tensor(eigen, guessing(off_by_one_step))


@pytest.mark.parametrize("family, n", RATIONAL[::3])
def test_a_guess_on_a_wrong_grid_is_refused(family, n):
    # the numerators of the grid L + 1 read over L: a tensor with an entry
    # that is not an integer fails the rounding, an integer one the
    # certificate, since each numerator is (L + 1) q and q^0_00 = 1
    _, eigen = case(family, n)

    def wrong_grid(original, self, other, grid):
        g = original(self, other, grid + 1)
        return None if g is None else g.scale(Fraction(grid + 1, grid))

    falls_back_to_the_former_tensor(eigen, guessing(wrong_grid))


@pytest.mark.parametrize("family, n", RATIONAL[::3])
def test_a_non_real_guess_is_refused(family, n):
    # every power of zeta turned by the same angle turns each evaluated
    # entry of P and of W by it, so the guess is K turned twice: not real
    _, eigen = case(family, n)
    original = cyclotomic._zeta_powers
    turned = mock.patch.object(cyclotomic, "_zeta_powers",
                               lambda m: original(m) * np.exp(0.25j))
    falls_back_to_the_former_tensor(eigen, turned)


def test_guesses_round_to_the_grid_or_are_refused():
    # numerators beyond int64 take no float guess
    big = CycMatrix([[2**70 + 1]], 4)
    assert big.rational_guess(CycMatrix([[1]], 4), 1) is None
    assert CycMatrix([[Fraction(1, 2)]], 4).rational_guess(CycMatrix([[3]], 4), 2) == \
        CycMatrix([[Fraction(3, 2)]])
    # off the grid: 1/3 on the grid 1/2
    assert CycMatrix([[Fraction(1, 3)]], 4).rational_guess(CycMatrix([[1]], 4), 2) is None


# ---------------------------------------------------------------------------
# the group-scheme oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, n", [("dicyclic", 5), ("dicyclic", 7), ("cyclic", 12)])
def test_krein_parameters_are_the_tensor_multiplicities(family, n):
    # q[i][j][k] f_k = f_i f_j r[i][j][k], r from chi_i chi_j = sum_k r_k chi_k
    group, classes, table = builtin_group(family, n)
    _, eigen = case(family, n)
    q = krein_parameters(eigen).q
    f = table.degrees
    for i in range(len(f)):
        for j in range(len(f)):
            r = character_product_multiplicities(table, classes, group.order, i, j)
            assert [q[i][j][k] * f[k] for k in range(len(f))] == \
                [Fraction(f[i] * f[j] * r[k]) for k in range(len(f))]
