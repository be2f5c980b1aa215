"""The group side against its former loops (tests/group_reference.py).

A representation is its |G| x f^2 block U (row g = vec rho(g)), checked by
one f x (|G| f) product per element of a generating set; the reference
holds one image per element and checks |G|^2 products in lexicographic
order.  Both must give the same U on every built-in family and the same
verdict on corrupted blocks, where the pair named must really fail.  The
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
from delsarte.catalog import alternating_group_4
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
    messages = []
    for seed in (7, 11):
        rng = np.random.default_rng(seed)
        for rho in builtin_representations(family, *params):
            for _ in range(3):
                bad = Representation(rho.degree, _corrupt(rho.U, rng))
                got = _failure(verify_representation, group, bad)
                assert got is not None
                assert got == _failure(reference_verify_representation, group, _images(bad))
                messages.append(got[1])
    assert any(m.startswith("rho(") for m in messages)


SMALL_REPRESENTATIONS = [
    (family, params, j)
    for family, params in [("cyclic", (12,)), ("abelian", (4, 2)),
                           ("dicyclic", (3,)), ("dicyclic", (5,))]
    for j in range(len(builtin_representations(family, *params)))
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_REPRESENTATIONS), st.data())
def test_row_corruptions_are_rejected_at_a_failing_generator_pair(case, data):
    # one, two or three rows of U, each with one entry moved by a root of
    # unity: rejected exactly when the reference rejects, at a pair (a, b)
    # that really fails, with a a generator
    family, params, j = case
    group = builtin_group(family, *params)[0]
    rho = builtin_representations(family, *params)[j]
    u, n = rho.U, rho.U.conductor
    rows = data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=3,
                              unique=True))
    delta = [[0] * u.cols for _ in range(u.rows)]
    for g in rows:
        c = data.draw(st.integers(0, u.cols - 1))
        delta[g][c] = Cyclotomic.zeta(n, data.draw(st.integers(0, n - 1)))
    bad = Representation(rho.degree, u + CycMatrix(delta, n))
    images = _images(bad)
    got = _failure(verify_representation, group, bad)
    expected = _failure(reference_verify_representation, group, images)
    assert (got is None) == (expected is None)
    if got is None or not got[1].startswith("rho("):
        assert got == expected
        return
    a, b = map(int, got[1].split(" != ")[0].replace("rho(", "").replace(")", "").split())
    assert images.images[a] * images.images[b] != images.images[group.op(a, b)]
    assert a in groups._generating_set(group.mult)


@pytest.mark.parametrize("length", [3, 5])
def test_a_character_row_of_another_length_is_refused(length):
    group = cyclic_group(4)[0]
    rho = builtin_representations("cyclic", 4)[1]
    with pytest.raises(ValidationError, match=f"{length} values for 4 group elements"):
        verify_representation(group, rho, [1] * length)


def test_representation_check_memory_is_bounded_on_dic31():
    # a two-dimensional representation of Dic_31 (|G| = 124, phi = 60): the
    # whole (|G| f)^2 product held a 70.5 MB traced peak, blocks of rows a
    # about 2.6 MB, one f x (|G| f) product per generator under 1 MB
    group = builtin_group("dicyclic", 31)[0]
    rho = next(r for r in builtin_representations("dicyclic", 31) if r.degree == 2)
    tracemalloc.start()
    try:
        verify_representation(group, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


def test_representation_check_makes_one_product_per_generator(monkeypatch):
    # on Dic_31 the generating set is [1, 62]: two homomorphism products,
    # each f x f by f x (|G| f), beside the one product that forms the traces
    # (the products a product makes of its own are not counted)
    group = builtin_group("dicyclic", 31)[0]
    gens = groups._generating_set(group.mult)
    assert gens == [1, 62]
    shapes, inside = [], []
    mul = CycMatrix.__mul__

    def counted(x, y):
        if not inside:
            shapes.append((x.rows, x.cols, y.cols))
        inside.append(True)
        try:
            return mul(x, y)
        finally:
            inside.pop()

    monkeypatch.setattr(CycMatrix, "__mul__", counted)
    for rho in builtin_representations("dicyclic", 31):
        shapes.clear()
        verify_representation(group, rho)
        f = rho.degree
        assert shapes == [(f, f, group.order * f)] * len(gens) + [(group.order, f, 1)]


def _builtin_groups_up_to(order):
    yield from (cyclic_group(n)[0] for n in range(1, order + 1))
    yield from (dicyclic_group(n)[0] for n in range(3, order // 4 + 1, 2))

    def factors(top, least):
        for m in range(least, top + 1):
            yield (m,)
            yield from ((m,) + rest for rest in factors(top // m, m))

    yield from (abelian_group(*orders)[0] for orders in factors(order, 2) if len(orders) > 1)
    yield alternating_group_4()[0]


def test_generating_sets_of_the_builtin_groups_are_small_and_generate():
    for group in _builtin_groups_up_to(60):
        gens = groups._generating_set(group.mult)
        assert len(gens) <= group.order.bit_length()
        assert gens == sorted(gens) and gens[:1] == ([1] if group.order > 1 else [])
        # words in the generators, multiplied on the right, reach every element
        reached, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                if (y := group.op(x, g)) not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert len(reached) == group.order


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
