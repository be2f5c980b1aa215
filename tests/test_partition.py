"""The partition layer: Galois orbits and rational classes as joins, the label
maps iota / class_map / eigen_iota, and iota(T), unmerge and T' = closure(T)."""

import math
import random
from functools import lru_cache
from itertools import chain, combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte.catalog import CATALOG, load_entry
from delsarte.cyclotomic import CycMatrix, SubfieldSpec, units_mod
from delsarte.designs import (
    design_report,
    enumerate_T_designs,
    is_T_design,
    rational_fusion,
    rational_orbit_data,
)
from delsarte.errors import NotClosed, ValidationError
from delsarte.fusion import galois_fusion, orbit_merge, partition_join, sigma_permutations
from delsarte.groups import (
    builtin_group,
    conj_class_scheme,
    rational_classes,
)
from galois_reference import reference_sigma_permutations

NAMES = sorted(CATALOG)


@lru_cache(maxsize=None)
def entry(name):
    return load_entry(name)


def subfields(n):
    """Q, the real subfield, the splitting field and every single-unit
    fixing group of Q(zeta_n)."""
    out = [SubfieldSpec.rationals(n), SubfieldSpec.real(n),
           SubfieldSpec.splitting_field(n)]
    return out + [SubfieldSpec(n, [k]) for k in units_mod(n)]


def search_components(neighbours, size):
    """Connected components of {0..size-1}, by breadth-first search."""
    seen, out = set(), []
    for j in range(size):
        if j in seen:
            continue
        comp, frontier = {j}, [j]
        while frontier:
            for b in neighbours(frontier.pop()):
                if b not in comp:
                    comp.add(b)
                    frontier.append(b)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return tuple(out)


def bfs_orbits(perms, dp1):
    """Orbits of the permutation group generated by perms."""
    return search_components(lambda a: [perm[a] for perm in perms], dp1)


@pytest.mark.parametrize("name", NAMES)
def test_orbits_and_iota_match_a_search(name):
    eigen = entry(name).eigen
    dp1 = eigen.scheme.classes
    for subfield in subfields(eigen.conductor):
        data = orbit_merge(eigen, subfield)
        expected = bfs_orbits(sigma_permutations(eigen, subfield), dp1)
        assert data.orbits == expected, subfield
        assert data.iota == tuple(
            next(l for l, o in enumerate(expected) if j in o) for j in range(dp1)
        )


@pytest.mark.parametrize("name", NAMES)
def test_orbits_from_the_generators_match_the_join_of_all_permutations(name):
    # orbit_merge joins the cells {j, g(j)} of the generators' permutations
    # only; the former join took every permutation of the closure
    eigen = entry(name).eigen
    dp1 = eigen.scheme.classes
    for subfield in subfields(eigen.conductor):
        perms = sigma_permutations(eigen, subfield)
        pairs = [(j, perm[j]) for perm in perms for j in range(dp1)]
        data = orbit_merge(eigen, subfield)
        assert data.orbits == partition_join(pairs, (), dp1), subfield


@pytest.mark.parametrize("name", NAMES)
def test_permutations_from_the_generators_match_the_loops(name):
    # sigma_permutations forms only the generators' images and closes their
    # permutations; the per-unit loops form the image under every unit
    eigen = entry(name).eigen
    positions = CycMatrix.column_positions
    for subfield in subfields(eigen.conductor):
        asked = []

        def spy(self, other, units=(1,)):
            asked.append(tuple(units))
            return positions(self, other, units)

        with mock.patch.object(CycMatrix, "column_positions", spy):
            perms = sigma_permutations(eigen, subfield)
        assert perms == reference_sigma_permutations(eigen, subfield), subfield
        assert asked == [subfield.generators]


def reference_rational_classes(group, classes):
    """Classes joined whenever some element of one is a unit power of an
    element of the other, closed by search."""
    linked = [set() for _ in classes.classes]
    for i, cls in enumerate(classes.classes):
        for g in cls:
            powers = [0, g]  # g^0, g^1, ..., g^o, the identity 0 again
            while powers[-1] != 0:
                powers.append(group.op(powers[-1], g))
            o = len(powers) - 1
            for m in range(1, o + 1):
                if math.gcd(m, o) == 1:
                    j = classes.class_of[powers[m]]
                    linked[i].add(j)
                    linked[j].add(i)
    return search_components(lambda i: linked[i], len(linked))


@pytest.mark.parametrize("family, params", [
    ("cyclic", (12,)), ("dicyclic", (3,)), ("dicyclic", (5,)),
    ("dicyclic", (7,)), ("abelian", (4, 2)), ("a4", ()),
])
def test_rational_classes_match_a_reference(family, params):
    if family == "a4":
        group, classes = entry("a4").group, entry("a4").classes
    else:
        group, _, _ = builtin_group(family, *params)
        _, classes = conj_class_scheme(group)
    assert rational_classes(group, classes) == reference_rational_classes(group, classes)


def test_class_map_and_eigen_iota_are_the_label_maps():
    for name in ("x8", "y8", "z12", "dic5"):
        fs = galois_fusion(entry(name).scheme, entry(name).eigen,
                           SubfieldSpec.rationals(entry(name).eigen.conductor))
        for c, cell in enumerate(fs.partition):
            assert all(fs.class_map[i] == c for i in cell)
        for l, cell in enumerate(fs.eigen_classes):
            assert all(fs.eigen_iota(j) == l for j in cell)
        # a bare tuple lookup would wrap -1 to the last label, read True as
        # label 1 and raise a bare TypeError for 1.5
        for j in (-1, fs.parent.classes, True, 1.5):
            with pytest.raises(ValidationError):
                fs.eigen_iota(j)


@st.composite
def orbit_case(draw):
    name = draw(st.sampled_from(NAMES))
    eigen = entry(name).eigen
    subfield = draw(st.sampled_from(subfields(eigen.conductor)))
    data = orbit_merge(eigen, subfield)
    dp1, e1 = len(data.iota), len(data.orbits)
    T = draw(st.lists(st.integers(1, dp1 - 1), max_size=2 * dp1))
    L = draw(st.lists(st.integers(1, e1 - 1), max_size=2 * e1))
    return data, T, L


@settings(max_examples=150, deadline=None)
@given(orbit_case())
def test_merge_unmerge_closure_laws(case):
    data, T, L = case
    closure = data.closure(T)
    assert set(T) <= set(closure)
    assert closure == data.closure(closure) == data.unmerge(data.merge(T))
    assert closure == tuple(sorted(closure))
    assert data.merge(data.unmerge(L)) == tuple(sorted(set(L)))
    # T' is the union of the orbits that meet T
    assert set(closure) == set(chain.from_iterable(
        o for o in data.orbits if set(o) & set(T)))


def test_merge_and_unmerge_reject_indices_out_of_range():
    data = rational_orbit_data(entry("z12").eigen)
    d, e = len(data.iota) - 1, len(data.orbits) - 1
    for bad in ([-1], [0], [d + 1], [1, d + 5]):
        with pytest.raises(ValidationError):
            data.merge(bad)
    for bad in ([-1], [0], [e + 1]):
        with pytest.raises(ValidationError):
            data.unmerge(bad)


@pytest.mark.parametrize("name", NAMES)
def test_a_T_design_is_a_closure_T_design(name):
    # the paper's property: for every T, C is a T-design iff it is a
    # T'-design, T' the union of the rational Galois orbits meeting T
    scheme, eigen = entry(name).scheme, entry(name).eigen
    data = rational_orbit_data(eigen)
    rng = random.Random(sum(map(ord, name)))
    subsets = [rng.sample(range(scheme.size), rng.randint(1, scheme.size))
               for _ in range(3)]
    # and small designs that annihilate the last orbit, so T(C) is not empty
    subsets += enumerate_T_designs(scheme, eigen, data.orbits[-1], 1, 4)[:2]
    all_T = list(chain.from_iterable(
        combinations(range(1, scheme.classes), r) for r in range(scheme.classes)))
    for subset in subsets:
        report = design_report(scheme, eigen, subset)
        assert data.closure(report.T) == report.T
        for T in all_T:
            assert is_T_design(scheme, eigen, subset, T) == is_T_design(
                scheme, eigen, subset, data.closure(T))


def test_rational_fusion_is_cached_and_drives_the_fused_enumeration():
    eigen = entry("z12").eigen
    fs = rational_fusion(eigen)
    assert rational_fusion(eigen) is fs
    assert fs.partition == galois_fusion(
        eigen.scheme, eigen, SubfieldSpec.rationals(eigen.conductor)).partition
    for T in [(1,), (2, 3), (1, 4, 5)]:
        assert enumerate_T_designs(eigen.scheme, eigen, T, 1, 4, "fused") == \
            enumerate_T_designs(eigen.scheme, eigen, T, 1, 4, "direct")
    with pytest.raises(NotClosed):
        rational_fusion(entry("coxeter").eigen)
