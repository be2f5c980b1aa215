import math
import random
from fractions import Fraction

import pytest

from delsarte.cyclotomic import (
    CycMatrix,
    Cyclotomic,
    SubfieldSpec,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    exact_sign,
    fixed_field_conductor,
    subfield_membership,
    units_mod,
)
from delsarte.errors import ConductorMismatch, NotAUnit, SingularMatrix

zeta = Cyclotomic.zeta


def random_element(rng, n, span=6):
    phi = euler_phi(n)
    coeffs = [
        Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(phi)
    ]
    return Cyclotomic(n, coeffs)


# ---------------------------------------------------------------------------
# polynomial / number theory groundwork
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomial_product():
    # x^n - 1 factors as the product of Phi_d over divisors d of n.
    for n in (1, 2, 6, 12, 20, 28):
        prod = [1]
        for d in divisors(n):
            phi_d = cyclotomic_polynomial(d)
            new = [0] * (len(prod) + len(phi_d) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            prod = new
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_euler_phi_matches_unit_count():
    for n in range(2, 40):
        assert euler_phi(n) == len(units_mod(n))


# ---------------------------------------------------------------------------
# canonicalization examples
# ---------------------------------------------------------------------------

def test_canonicalize_i_squared():
    assert Cyclotomic.from_terms(4, {2: 1}.items()) == -1


def test_canonicalize_cube_roots_sum():
    assert Cyclotomic.from_terms(3, {1: 1, 2: 1}.items()) == -1


def test_sqrt_two_in_conductor_eight():
    z = Cyclotomic.from_terms(8, {1: 1, 7: 1}.items())
    assert z * z == 2


def test_canonicalize_reduces_exponents_mod_n():
    assert Cyclotomic.from_terms(4, {6: 1}.items()) == -1
    half = Fraction(1, 2)
    assert Cyclotomic.from_terms(5, [(7, half), (2, half)]) == zeta(5, 2)


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

def test_multiply_i_by_i():
    assert zeta(4) * zeta(4) == -1


def test_invert_one_plus_zeta3():
    x = 1 + zeta(3)
    inv = x.inverse()
    assert inv * x == 1
    assert inv == -zeta(3)


def test_conjugate_of_i_inside_conductor_12():
    assert zeta(12, 3).conjugate() == -zeta(12, 3)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0, 5).inverse()


def test_mixed_conductor_arithmetic():
    # zeta_4 * zeta_3 = zeta_12^7
    assert zeta(4) * zeta(3) == zeta(12, 7)
    assert zeta(6) + zeta(3) == zeta(3) + zeta(6)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for n in (4, 5, 8, 12):
        for _ in range(25):
            x = random_element(rng, n)
            y = random_element(rng, n)
            z = random_element(rng, n)
            assert (x + y) - y == x
            assert x * (y + z) == x * y + x * z
            assert (x * y) * z == x * (y * z)
            if not x.is_zero():
                assert x.inverse().inverse() == x
                assert x * x.inverse() == 1


def test_embedding_round_trip_is_identity():
    rng = random.Random(11)
    for n, m in ((3, 12), (4, 20), (6, 12), (8, 24)):
        for _ in range(10):
            x = random_element(rng, n)
            assert x.embed(m) == x


def test_embed_requires_divisibility():
    with pytest.raises(ConductorMismatch):
        zeta(8).embed(12)


def test_degree_guard():
    with pytest.raises(ConductorMismatch):
        Cyclotomic.zeta(2**17)


# ---------------------------------------------------------------------------
# Galois action
# ---------------------------------------------------------------------------

def test_galois_conjugation_on_i():
    assert zeta(4).galois(3) == -zeta(4)


def test_galois_identity():
    x = Cyclotomic.from_terms(12, {1: 1, 5: Fraction(2, 3)}.items())
    assert x.galois(1) == x


def test_galois_requires_unit():
    with pytest.raises(NotAUnit):
        zeta(12).galois(3)


def test_galois_composition_law():
    rng = random.Random(3)
    for n in (5, 8, 12):
        units = units_mod(n)
        for _ in range(20):
            x = random_element(rng, n)
            k1, k2 = rng.choice(units), rng.choice(units)
            assert x.galois(k1).galois(k2) == x.galois((k1 * k2) % n)


def test_conjugate_is_galois_minus_one():
    rng = random.Random(5)
    for n in (5, 8, 12):
        for _ in range(10):
            x = random_element(rng, n)
            assert x.conjugate() == x.galois(n - 1)


def test_galois_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        x = random_element(rng, 12)
        y = random_element(rng, 12)
        assert (x + y).galois(5) == x.galois(5) + y.galois(5)
        assert (x * y).galois(5) == x.galois(5) * y.galois(5)


def test_kappa_values_under_galois():
    # kappa(r) = zeta^(2r) + zeta^(-2r) in Q(zeta_4n); zeta -> zeta^k sends
    # kappa(1) to kappa(k).  For n = 3 every kappa is rational, hence fixed.
    kappa1 = Cyclotomic.from_terms(12, {2: 1, -2: 1}.items())
    assert kappa1 == 1
    assert kappa1.galois(5) == kappa1
    # n = 5: kappa lives in Q(zeta_20) and theta_3 moves kappa(1) to kappa(3)
    k1 = Cyclotomic.from_terms(20, {2: 1, -2: 1}.items())
    k3 = Cyclotomic.from_terms(20, {6: 1, -6: 1}.items())
    assert k1.galois(3) == k3
    assert k1 != k3


# ---------------------------------------------------------------------------
# subfield membership
# ---------------------------------------------------------------------------

def test_rational_membership():
    x = zeta(3) + zeta(3, 2)
    assert subfield_membership(x, SubfieldSpec.rationals(3))


def test_sqrt_minus_3_is_in_fixed_field_of_1_7():
    x = 2 * zeta(3) + 1  # squares to -3
    assert x * x == -3
    spec = SubfieldSpec(12, [7])
    assert subfield_membership(x, spec)
    assert subfield_membership(x.embed(12).galois(7), spec)


def test_i_not_fixed_by_sigma_11():
    spec = SubfieldSpec(12, [11])
    assert not subfield_membership(zeta(12, 3), spec)


def test_trivial_fixing_group_membership_always_true():
    rng = random.Random(2)
    spec = SubfieldSpec.splitting_field(12)
    for _ in range(10):
        assert subfield_membership(random_element(rng, 12), spec)


def test_full_group_membership_iff_rational():
    rng = random.Random(4)
    spec = SubfieldSpec.rationals(12)
    for _ in range(20):
        x = random_element(rng, 12)
        assert subfield_membership(x, spec) == x.is_rational()


def test_membership_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        subfield_membership(zeta(8), SubfieldSpec.rationals(12))


def test_subfield_spec_closure_and_validation():
    spec = SubfieldSpec(12, [7])
    assert spec.group == (1, 7)
    with pytest.raises(NotAUnit):
        SubfieldSpec(12, [4])
    full = SubfieldSpec.rationals(12)
    assert full.group == (1, 5, 7, 11)


def test_fixed_field_conductor():
    # {1, 7} <= (Z/12)^x fixes Q(sqrt(-3)) = Q(zeta_3), conductor 3.
    assert fixed_field_conductor(12, {1, 7}) == 3
    assert fixed_field_conductor(12, set(units_mod(12))) == 1
    assert fixed_field_conductor(12, {1}) == 12


# ---------------------------------------------------------------------------
# exact sign
# ---------------------------------------------------------------------------

def test_exact_sign_rational_and_zero():
    assert exact_sign(Cyclotomic.from_rational(Fraction(-3, 7), 12)) == -1
    assert exact_sign(Cyclotomic.from_rational(0, 8)) == 0


def test_exact_sign_sqrt_two():
    sqrt2 = Cyclotomic.from_terms(8, {1: 1, 7: 1}.items())
    assert exact_sign(sqrt2) == 1
    assert exact_sign(-sqrt2) == -1
    assert exact_sign(sqrt2 - 2) == -1
    assert exact_sign(sqrt2 - 1) == 1


def test_exact_sign_close_to_zero():
    # 2 cos(2 pi / 7) = 1.2469...; subtract a nearby rational.
    c = Cyclotomic.from_terms(7, {1: 1, 6: 1}.items())
    near = Fraction(12469796, 10**7)
    assert exact_sign(c - near) == 1
    assert exact_sign(c - Fraction(12469797, 10**7)) == -1


def test_exact_sign_rejects_non_real():
    with pytest.raises(ValueError):
        exact_sign(zeta(4))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_identity_inverse():
    eye = CycMatrix.identity(5)
    assert eye.inverse() == eye


def test_singular_matrix_rejected():
    ones = CycMatrix([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrix):
        ones.inverse()


def test_inverse_round_trip_randomized():
    rng = random.Random(9)
    for n in (1, 3, 4):
        for _ in range(5):
            m = CycMatrix(
                [[random_element(rng, n, span=3) for _ in range(4)] for _ in range(4)]
            )
            try:
                inv = m.inverse()
            except SingularMatrix:
                continue
            assert m * inv == CycMatrix.identity(4)
            assert inv * m == CycMatrix.identity(4)


def test_adjoint_and_schur():
    i = zeta(4)
    m = CycMatrix([[1, i], [0, 2]])
    adj = m.adjoint()
    assert adj[0, 1] == 0
    assert adj[1, 0] == -i
    s = m.schur(m)
    assert s[0, 1] == -1
    herm = CycMatrix([[2, i], [-i, 3]])
    assert herm == herm.adjoint()


def test_matrix_shared_conductor():
    m = CycMatrix([[zeta(3), zeta(4)]])
    assert m.conductor == 12
    assert all(v.conductor == 12 for v in m.row(0))


def test_rationals_have_a_small_generating_set():
    # greedy generators: each one at least doubles the closure of those before
    for n in range(1, 121):
        spec = SubfieldSpec.rationals(n)
        assert spec.group == units_mod(n)
        assert len(spec.generators) <= math.log2(euler_phi(n)) + 1
        assert spec == SubfieldSpec(n, units_mod(n))
        assert hash(spec) == hash(SubfieldSpec(n, units_mod(n)))
        assert repr(spec) == repr(SubfieldSpec(n, units_mod(n)))
