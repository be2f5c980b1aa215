"""Fused schemes from the parent's intersection tensor, against
``verify_scheme`` on the fused grid.

``fusion._fused_scheme`` derives the fused scheme from the parent's tensor;
on any partition with cell 0 = {0} of the catalog schemes and of the class
schemes of Z_5 ... Z_8 and Dic_3 ... Dic_7 it must pass exactly when
``verify_scheme`` passes on the fused grid, fail with that check's axiom
and indices, and otherwise return the same scheme in every field.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte.catalog import CATALOG, load_entry
from delsarte.cyclotomic import SubfieldSpec
from delsarte.errors import InternalAssertion, NotAScheme, NotClosed
from delsarte.fusion import (
    _cell_labels,
    _fused_scheme,
    _validate_partition,
    galois_fusion,
)
from delsarte.groups import builtin_group, conj_class_scheme, eigendata_from_characters
from delsarte.scheme import verify_scheme

CASES = tuple(("catalog", name) for name in sorted(CATALOG)) + tuple(
    ("cyclic", n) for n in (5, 6, 7, 8)) + tuple(("dicyclic", n) for n in (3, 5, 7))


@functools.cache
def case(family, n):
    if family == "catalog":
        loaded = load_entry(n)
        return loaded.scheme, loaded.eigen
    group, classes, table = builtin_group(family, n)
    scheme, classes = conj_class_scheme(group)
    return scheme, eigendata_from_characters(group, classes, table, scheme)


def fused_outcome(scheme, partition):
    """(_fused_scheme's result or error text, verify_scheme's on the fused grid)."""
    cells = _validate_partition(partition, scheme.classes)
    class_map = _cell_labels(cells, scheme.classes)
    try:
        derived = _fused_scheme(scheme, cells, class_map)
    except InternalAssertion as err:
        derived = str(err)
    try:
        checked = verify_scheme(np.array(class_map)[scheme.relation])
    except NotAScheme as err:
        checked = f"fused relation failed verification: {err}"
    return derived, checked


def assert_same_outcome(scheme, partition) -> bool:
    """Compare the two outcomes; True when the fused grid is a scheme."""
    derived, checked = fused_outcome(scheme, partition)
    if isinstance(checked, str):
        assert derived == checked
        return False
    assert not isinstance(derived, str), derived
    for field in dataclasses.fields(checked):
        got, want = getattr(derived, field.name), getattr(checked, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), field.name
        else:
            assert got == want, field.name
    return True


@st.composite
def partitions(draw, classes):
    """Partitions of 0..classes-1 with cell 0 = {0}: a label per class 1..d."""
    labels = draw(st.lists(st.integers(1, classes - 1), min_size=classes - 1,
                           max_size=classes - 1))
    cells: dict = {}
    for k, label in enumerate(labels, start=1):
        cells.setdefault(label, []).append(k)
    return [(0,)] + list(cells.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
@pytest.mark.parametrize("family, n", CASES)
def test_fused_axioms_match_verify_scheme(family, n, data):
    scheme, _ = case(family, n)
    assert_same_outcome(scheme, data.draw(partitions(scheme.classes)))


@pytest.mark.parametrize("family, n", CASES)
def test_fusions_that_exist_match_verify_scheme(family, n):
    # the discrete partition, the trivial fusion {0} | rest, and the
    # rational Galois fusion where there is one, each of which passes
    scheme, eigen = case(family, n)
    found = [[(k,) for k in range(scheme.classes)], [(0,), tuple(range(1, scheme.classes))]]
    try:
        found.append(galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor)).partition)
    except NotClosed:
        assert (family, n) == ("catalog", "coxeter")
    for partition in found:
        assert assert_same_outcome(scheme, partition)


def test_a_non_commuting_tensor_fails_axiom_iv():
    # a verified parent is commutative, so (iv) fails only on a tensor that
    # is not a scheme's; the witness is the class of the first failing cell
    scheme, _ = case("catalog", "x8")
    p = scheme.intersection.copy()
    p[1, 2, 3] += 1
    bad = dataclasses.replace(scheme, intersection=p)
    cells = tuple((k,) for k in range(scheme.classes))
    with pytest.raises(InternalAssertion,
                       match=r"^fused relation failed verification: axiom \(iv\): "
                             r"p\[1\]\[2\]\^3 != p\[2\]\[1\]\^3$"):
        _fused_scheme(bad, cells, _cell_labels(cells, scheme.classes))
