"""Conjugacy class schemes read off their verified group.

``groups.conj_class_scheme`` builds the intersection tensor by counting
p[i][j][k] = #{z in C_i : z^(-1) g_k in C_j} at one representative g_k of
each class, the transpose map from the class of g_k^(-1) and the
valencies from the class sizes, with no ``verify_scheme`` call.  Here each
of these must equal what ``verify_scheme`` finds on the same relation
grid: on every builtin up to Z_30 and Dic_13, on the catalog's A_4, on
relabelled tables, and on the Frobenius group of order 21, which is not
abelian and has classes that are not closed under inverses.
"""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import groups, scheme
from delsarte.catalog import alternating_group_4
from delsarte.groups import builtin_group, conj_class_scheme, make_group_table
from delsarte.scheme import verify_scheme

BUILTINS = (tuple(("cyclic", (n,)) for n in range(1, 31))
            + tuple(("dicyclic", (n,)) for n in range(3, 14, 2))
            + (("abelian", (2, 2)), ("abelian", (2, 4)), ("abelian", (3, 3)),
               ("abelian", (2, 2, 2))))


def frobenius_21():
    """x -> a x + b on Z_7, a in {1, 2, 4}: index 3 b + t for a = 2^t, the
    product f g the map x -> f(g(x)), so the identity is index 0."""
    elements = [(pow(2, t, 7), b) for b in range(7) for t in range(3)]
    index = {m: k for k, m in enumerate(elements)}
    mult = [[index[(a * c % 7, (a * d + b) % 7)] for c, d in elements] for a, b in elements]
    return make_group_table(mult)


def assert_read_off_equals_verified(group):
    got, _ = conj_class_scheme(group)
    want = verify_scheme(got.relation)
    assert (got.size, got.classes) == (want.size, want.classes)
    assert np.array_equal(got.relation, want.relation)
    assert got.transpose_map == want.transpose_map
    assert got.valencies == want.valencies
    assert got.intersection.dtype == want.intersection.dtype
    assert np.array_equal(got.intersection, want.intersection)
    return got


@pytest.mark.parametrize("family, params", BUILTINS)
def test_builtin_class_schemes_equal_the_verified_grid(family, params):
    group, _, _ = builtin_group(family, *params)
    assert_read_off_equals_verified(group)


def test_a4_class_scheme_equals_the_verified_grid():
    assert_read_off_equals_verified(alternating_group_4()[0])


def test_frobenius_21_class_scheme_equals_the_verified_grid():
    group = frobenius_21()
    assert group.order == 21
    got = assert_read_off_equals_verified(group)
    # classes {1}, two of three translations and two of seven maps, each
    # of the last four the inverse of another
    assert sorted(got.valencies) == [1, 3, 3, 7, 7]
    assert not got.is_symmetric()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_relabelled_tables_equal_the_verified_grid(data):
    # the labels permuted as perfbench's relabel permutes them, any
    # permutation that keeps the identity at 0
    family, params = data.draw(st.sampled_from(
        [("cyclic", (12,)), ("dicyclic", (5,)), ("abelian", (2, 4))]))
    base = builtin_group(family, *params)[0]
    perm = [0] + data.draw(st.permutations(range(1, base.order)))
    P = np.array(perm, dtype=np.int64)
    mult = np.empty_like(base.mult)
    mult[np.ix_(P, P)] = P[base.mult]
    assert_read_off_equals_verified(make_group_table(mult))
    frob = frobenius_21()
    P = np.array([0] + data.draw(st.permutations(range(1, 21))), dtype=np.int64)
    mult = np.empty_like(frob.mult)
    mult[np.ix_(P, P)] = P[frob.mult]
    assert_read_off_equals_verified(make_group_table(mult))


@pytest.mark.parametrize("family, params", BUILTINS)
def test_class_schemes_build_with_no_verify_scheme(family, params):
    group, _, _ = builtin_group(family, *params)
    refuse = mock.Mock(side_effect=AssertionError("verify_scheme called"))
    with mock.patch.object(scheme, "verify_scheme", refuse), \
            mock.patch.object(groups, "verify_scheme", refuse, create=True):
        got, classes = conj_class_scheme(group)
    assert got.valencies == classes.sizes
    assert refuse.call_count == 0


def test_groups_does_not_name_verify_scheme():
    tree = ast.parse((Path(groups.__file__)).read_text())
    names = [node for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "verify_scheme")
             or (isinstance(node, ast.Attribute) and node.attr == "verify_scheme")
             or (isinstance(node, ast.alias) and node.name == "verify_scheme")]
    assert names == []


def test_intersection_numbers_are_symmetric_and_sum_to_the_valencies():
    # sum_j p[i][j][k] = v_i, and p[i][j][k] = p[j][i][k], on every builtin
    for family, params in BUILTINS:
        got, _ = conj_class_scheme(builtin_group(family, *params)[0])
        p = got.intersection
        assert np.array_equal(p, p.transpose(1, 0, 2))
        assert all(p[i].sum(axis=0).tolist() == [v] * got.classes
                   for i, v in enumerate(got.valencies))
        assert sum(got.valencies) == got.size
