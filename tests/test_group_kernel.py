"""The group side against its former loops (tests/group_reference.py).

A representation is its |G| x f^2 block U (row g = vec rho(g)), checked by
one stacked product; the reference holds one image per element and checks
|G|^2 products in lexicographic order.  Both must give the same U on every
built-in family, and the same first failure on corrupted blocks.  The
broadcast multiplication tables and the character tables built in one
call must equal the former loops.
"""

import random

import numpy as np
import pytest
from group_reference import (
    ImageRepresentation,
    reference_abelian_table,
    reference_dicyclic_characters,
    reference_dicyclic_table,
    reference_eigenvectors,
    reference_representations,
    reference_verify_representation,
)

from delsarte.cyclotomic import CycMatrix, Cyclotomic
from delsarte.errors import NotEigen, ValidationError
from delsarte.groups import (
    Representation,
    abelian_group,
    builtin_group,
    builtin_representations,
    conj_class_scheme,
    cyclic_group,
    dicyclic_group,
    make_group_table,
    representation_eigenvectors,
    verify_representation,
)

CASES = [("cyclic", (12,)), ("abelian", (4, 2))] + [("dicyclic", (n,)) for n in range(3, 10, 2)]


def _images(rho: Representation) -> ImageRepresentation:
    f = rho.degree
    return ImageRepresentation(
        f, tuple(rho.U.select(rows=[g]).reshape(f, f) for g in range(rho.U.rows))
    )


def _failure(check, *args):
    try:
        check(*args)
    except (ValidationError, NotEigen) as err:
        return type(err).__name__, str(err)
    return None


@pytest.mark.parametrize("family, params", CASES, ids=lambda c: str(c))
def test_blocks_equal_the_reference(family, params):
    group, classes, _ = builtin_group(family, *params)
    scheme, _ = conj_class_scheme(group)
    ours = builtin_representations(family, *params)
    theirs = reference_representations(family, *params)
    assert [r.degree for r in ours] == [r.degree for r in theirs]
    for rho, ref in zip(ours, theirs):
        u = representation_eigenvectors(group, rho, scheme, classes)
        expected = reference_eigenvectors(group, ref, scheme, classes)
        assert u == expected
        assert u.conductor == expected.conductor
        assert u is rho.U


def _corrupt(u: CycMatrix, rng) -> CycMatrix:
    g, c = int(rng.integers(u.rows)), int(rng.integers(u.cols))
    delta = [[Cyclotomic.zeta(u.conductor, int(rng.integers(u.conductor))) if (i, j) == (g, c)
              else 0 for j in range(u.cols)] for i in range(u.rows)]
    return u + CycMatrix(delta, u.conductor)


@pytest.mark.parametrize("family, params", [("cyclic", (12,)), ("abelian", (4, 2)),
                                            ("dicyclic", (3,)), ("dicyclic", (5,))])
def test_corrupted_blocks_fail_at_the_reference_pair(family, params):
    group = builtin_group(family, *params)[0]
    rng = np.random.default_rng(7)
    messages = []
    for rho in builtin_representations(family, *params):
        for _ in range(3):
            bad = Representation(rho.degree, _corrupt(rho.U, rng))
            got = _failure(verify_representation, group, bad)
            assert got is not None
            assert got == _failure(reference_verify_representation, group, _images(bad))
            messages.append(got[1])
    assert any(m.startswith("rho(") for m in messages)


def test_traces_and_class_sums_fail_like_the_reference():
    group, classes, table = dicyclic_group(3)
    scheme, _ = conj_class_scheme(group)
    reps = builtin_representations("dicyclic", 3)
    # a wrong character row: the first element whose trace differs
    for j, rho in enumerate(reps):
        wrong = [table.rows[(j + 1) % len(reps)][classes.class_of[g]] for g in range(group.order)]
        got = _failure(verify_representation, group, rho, wrong)
        assert got is not None and got[1].startswith("trace at element")
        assert got == _failure(reference_verify_representation, group, _images(rho), wrong)
    # a reducible representation, rho_1 + rho_2 on the diagonal: a
    # homomorphism whose class sums are not scalar
    a, b = reps[1].U, reps[2].U
    zero = CycMatrix([[0]] * group.order)
    u = CycMatrix(list(zip(a.col(0), zero.col(0), zero.col(0), b.col(0))))
    reducible = Representation(2, u)
    got = _failure(representation_eigenvectors, group, reducible, scheme, classes)
    assert got is not None and got[0] == "NotEigen"
    assert got == _failure(reference_eigenvectors, group, _images(reducible), scheme, classes)


def test_shape_is_checked():
    group = builtin_group("cyclic", 4)[0]
    rho = builtin_representations("cyclic", 4)[1]
    with pytest.raises(ValidationError):
        verify_representation(group, Representation(1, rho.U.select(rows=[0, 1, 2])))
    with pytest.raises(ValidationError):
        verify_representation(group, Representation(2, rho.U))


@pytest.mark.parametrize("n", range(3, 14, 2))
def test_dicyclic_tables_equal_the_former_loops(n):
    group, _, table = dicyclic_group(n)
    assert np.array_equal(group.mult, reference_dicyclic_table(n))
    characters = reference_dicyclic_characters(n)
    assert table.matrix == characters
    assert table.matrix.conductor == characters.conductor


@pytest.mark.parametrize("orders", [(4, 2), (3, 3, 2), (5,), (2, 2, 2)])
def test_abelian_tables_equal_the_pairwise_loop(orders):
    group, _, table = abelian_group(*orders)
    mult, characters = reference_abelian_table(*orders)
    assert np.array_equal(group.mult, mult)
    assert table.matrix == characters
    assert table.matrix.conductor == characters.conductor


@pytest.mark.parametrize("n", [1, 5, 12])
def test_cyclic_table_is_the_former_one(n):
    group, _, table = cyclic_group(n)
    idx = np.arange(n)
    assert np.array_equal(group.mult, (idx[:, None] + idx[None, :]) % n)
    zeta = Cyclotomic.zeta
    former = CycMatrix([[zeta(n, i * j) for i in range(n)] for j in range(n)], n)
    assert table.matrix == former and table.matrix.conductor == former.conductor


def test_sampled_associativity_reports_the_former_triple():
    # Z_130 with one intercalate swapped: still a Latin square with identity
    # and inverses, but not associative; above the full-check cap, triples
    # are sampled, and the first failing one is the one the former loop found
    n = 130
    idx = np.arange(n)
    mult = (idx[:, None] + idx[None, :]) % n
    a, d, b, c = 1, 1 + n // 2, 2, 2 + n // 2
    mult[a, b], mult[a, c] = mult[a, c], mult[a, b]
    mult[d, b], mult[d, c] = mult[d, c], mult[d, b]

    rng = random.Random(0)
    expected = None
    for _ in range(20000):
        x, y, z = (rng.randrange(n) for _ in range(3))
        if mult[mult[x, y], z] != mult[x, mult[y, z]]:
            expected = f"associativity fails at {(x, y, z)}"
            break
    assert expected is not None
    with pytest.raises(ValidationError) as err:
        make_group_table(mult)
    assert str(err.value) == expected
