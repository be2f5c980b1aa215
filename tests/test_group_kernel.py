"""The group side against its former loops (tests/group_reference.py).

A representation is its |G| x f^2 block U (row g = vec rho(g)), checked by
one stacked product; the reference holds one image per element and checks
|G|^2 products in lexicographic order.  Both must give the same U on every
built-in family, and the same first failure on corrupted blocks.  The
broadcast multiplication tables and the character tables built in one
call must equal the former loops, and associativity checked on a generating
set (Light's test) must give the verdict of the full check on all triples.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from group_reference import (
    ImageRepresentation,
    reference_abelian_table,
    reference_dicyclic_characters,
    reference_dicyclic_table,
    reference_eigenvectors,
    reference_is_associative,
    reference_representations,
    reference_verify_representation,
)

from delsarte import groups
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


@pytest.mark.parametrize("family, params", [("cyclic", (n,)) for n in (1, 2, 5)] + CASES,
                         ids=lambda c: str(c))
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


@pytest.mark.parametrize("budget", [1, 5000])
def test_corrupted_blocks_fail_at_the_reference_pair_across_blocks(budget, monkeypatch):
    # blocks of one row a each (budget 1), and of a few rows a (on dic5 at
    # 5000 numerators: 12 rows for f = 1, 3 for f = 2): the first failing
    # (a, b) is still the reference's
    monkeypatch.setattr(groups, "REPRESENTATION_BLOCK_NUMERATORS", budget)
    for family, params in [("cyclic", (12,)), ("dicyclic", (5,))]:
        group = builtin_group(family, *params)[0]
        rng = np.random.default_rng(11)
        for rho in builtin_representations(family, *params):
            for _ in range(3):
                bad = Representation(rho.degree, _corrupt(rho.U, rng))
                got = _failure(verify_representation, group, bad)
                assert got is not None
                assert got == _failure(reference_verify_representation, group, _images(bad))


def test_representation_check_memory_is_bounded_on_dic31():
    # a two-dimensional representation of Dic_31 (|G| = 124, phi = 60): the
    # whole (|G| f)^2 product held a 70.5 MB traced peak, blocks of rows a
    # about 2.5 MB
    group = builtin_group("dicyclic", 31)[0]
    rho = next(r for r in builtin_representations("dicyclic", 31) if r.degree == 2)
    tracemalloc.start()
    try:
        verify_representation(group, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


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


def _intercalate(n, a, b):
    """Z_n (n even) with one intercalate swapped at rows a, a + n/2 and
    columns b, b + n/2: still a Latin square with identity 0 and inverses,
    but not associative."""
    idx = np.arange(n)
    mult = (idx[:, None] + idx[None, :]) % n
    d, c = a + n // 2, b + n // 2
    mult[a, b], mult[a, c] = mult[a, c], mult[a, b]
    mult[d, b], mult[d, c] = mult[d, c], mult[d, b]
    return mult


def _rejected_triple(mult):
    """The triple make_group_table reports, checked to fail."""
    with pytest.raises(ValidationError, match="associativity fails at") as err:
        make_group_table(mult)
    x, g, y = map(int, str(err.value).split("at (")[1].rstrip(")").split(", "))
    assert mult[mult[x, g], y] != mult[x, mult[g, y]]
    return x, g, y


def test_z130_intercalate_is_rejected_with_a_failing_triple():
    # above order 128, where a full n^3 check grows costly, the triple comes
    # from Light's test on a generating set
    _rejected_triple(_intercalate(130, 1, 2))


def test_failures_that_seeded_sampling_misses_are_rejected():
    # none of the 20 000 triples random.Random(0) draws meets the few
    # failures of this table, so a seed-0 sample of triples would accept it
    n = 404
    mult = _intercalate(n, 1, 2)
    rng = random.Random(0)
    a, b, c = np.array([rng.randrange(n) for _ in range(60000)]).reshape(-1, 3).T
    assert not (mult[mult[a, b], c] != mult[a, mult[b, c]]).any()
    _rejected_triple(mult)


@st.composite
def tables_with_identity(draw):
    """Tables of order 2..7 with identity 0: random entries elsewhere, or a
    group table relabelled by a permutation fixing 0, now and then with one
    cell changed."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        mult = np.array([[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)])
    else:
        group = cyclic_group(n)[0] if n != 4 or draw(st.booleans()) else \
            builtin_group("abelian", 2, 2)[0]
        perm = np.array([0] + draw(st.permutations(range(1, n))))
        mult = np.empty((n, n), dtype=np.int64)
        mult[np.ix_(perm, perm)] = perm[group.mult]
        if draw(st.booleans()):
            mult[draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))] = \
                draw(st.integers(0, n - 1))
    mult[0], mult[:, 0] = np.arange(n), np.arange(n)
    return mult


@settings(max_examples=500, deadline=None)
@given(tables_with_identity())
def test_associativity_on_a_generating_set_matches_the_full_check(mult):
    triple = groups._associativity_failure(mult)
    assert (triple is None) == reference_is_associative(mult)
    if triple is not None:
        x, g, y = triple
        assert mult[mult[x, g], y] != mult[x, mult[g, y]]


@pytest.mark.parametrize("family, params", CASES + [("dicyclic", (45,))], ids=lambda c: str(c))
def test_builtin_groups_check_few_elements(family, params, monkeypatch):
    # one argwhere per checked element; each at least doubles the closure of
    # the ones before
    group = builtin_group(family, *params)[0]
    checked = []
    argwhere = np.argwhere
    monkeypatch.setattr(groups.np, "argwhere", lambda a: checked.append(a) or argwhere(a))
    assert make_group_table(group.mult.copy()).order == group.order
    assert 1 <= len(checked) <= group.order.bit_length()
