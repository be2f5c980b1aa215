import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import cyclotomic, designs
from delsarte.catalog import (
    CATALOG,
    build_coxeter,
    build_dicyclic,
    build_x8,
    build_y8,
    coxeter_second_fano,
    load_entry,
)
from delsarte.cyclotomic import SubfieldSpec
from delsarte.designs import (
    DesignTransfer,
    WeightedSubset,
    build_design_transfer,
    design_report,
    dicyclic_subgroup_table,
    dicyclic_subgroups,
    dual_distribution,
    enumerate_T_designs,
    inner_distribution,
    is_T_design,
    is_T_design_via_merges,
    rational_orbit_data,
    transfer_design,
)
from delsarte.errors import IncompatibleT, TooLarge, ValidationError, ZeroVector
from delsarte.fusion import galois_fusion, orbit_merge
from delsarte.scheme import validate_indices

# the running example subset: vertices {1, 2, 5, 6} when numbered from 1
C_X8 = (0, 1, 4, 5)


def fused_over_q(builder):
    scheme, eigen = builder()
    return galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor))


# ---------------------------------------------------------------------------
# inner / dual distributions
# ---------------------------------------------------------------------------

def test_x8_inner_distribution():
    scheme, _ = build_x8()
    assert inner_distribution(scheme, C_X8) == (1, 1, 0, 0, 2)


def test_singleton_inner_distribution():
    scheme, _ = build_x8()
    assert inner_distribution(scheme, (3,)) == (1, 0, 0, 0, 0)


def test_coxeter_fano_distributions():
    scheme, eigen = build_coxeter()
    fano = coxeter_second_fano()
    a = inner_distribution(scheme, fano)
    assert a == (1, 0, 0, 6, 0)
    b = dual_distribution(eigen, a).row(0)
    assert b == (7, 0, 0, 21, 0)
    data = orbit_merge(eigen, SubfieldSpec.rationals(eigen.conductor))
    merged = [
        sum((a[i] * data.Qbar[i, l] for i in range(5)), start=data.Qbar[0, 0] * 0)
        for l in range(4)
    ]
    assert merged == [7, 0, 0, 21]


def test_whole_vertex_set_dual():
    scheme, eigen = build_x8()
    a = inner_distribution(scheme, range(8))
    b = dual_distribution(eigen, a).row(0)
    assert b[0] == 8
    assert all(v.is_zero() for v in b[1:])


def test_weighted_subset_distribution():
    scheme, eigen = build_x8()
    w = WeightedSubset.from_weights([2, 2, 0, 0, 2, 2, 0, 0])
    a = inner_distribution(scheme, w)
    assert a == inner_distribution(scheme, C_X8)  # scaling cancels
    half = WeightedSubset.from_weights(
        [Fraction(1, 2), Fraction(1, 2), 0, 0, Fraction(1, 2), Fraction(1, 2), 0, 0]
    )
    assert inner_distribution(scheme, half) == a


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        WeightedSubset.from_weights([0, 0, 0])


@pytest.mark.parametrize("index", [-1, -8, 8, 99])
def test_subset_indices_are_range_checked(index):
    # a negative index must not wrap around to the last vertices
    with pytest.raises(ValidationError):
        WeightedSubset.from_indices(8, [0, index])
    scheme, eigen = build_x8()
    with pytest.raises(ValidationError):
        design_report(scheme, eigen, [index])


NOT_INTEGERS = {
    "is_T_design": lambda s, e: is_T_design(s, e, [0, 1], [1.5]),
    "enumerate_T_designs": lambda s, e: enumerate_T_designs(s, e, [1.5], 1, 2),
    "validate_indices": lambda s, e: validate_indices(["1"], s.d),
    "validate_indices bool": lambda s, e: validate_indices([True], s.d),
    "inner_distribution": lambda s, e: inner_distribution(s, [1.0, 2]),
    "from_indices": lambda s, e: WeightedSubset.from_indices(8, [2.5]),
    "from_indices bool": lambda s, e: WeightedSubset.from_indices(8, [np.True_]),
    "merge": lambda s, e: rational_orbit_data(e).merge([1.5]),
}


@pytest.mark.parametrize("call", sorted(NOT_INTEGERS))
def test_indices_must_be_integers(call):
    # a float, a string or a bool is refused, not rounded or compared away
    scheme, eigen = build_x8()
    with pytest.raises(ValidationError, match="must be an integer"):
        NOT_INTEGERS[call](scheme, eigen)


def test_numpy_integer_indices_pass():
    scheme, eigen = build_x8()
    assert validate_indices([np.int64(2), 1, np.int32(2)], scheme.d) == (1, 2)
    assert inner_distribution(scheme, np.array(C_X8)) == inner_distribution(scheme, C_X8)


# ---------------------------------------------------------------------------
# reports / annihilated sets
# ---------------------------------------------------------------------------

def test_x8_report():
    scheme, eigen = build_x8()
    report = design_report(scheme, eigen, C_X8)
    assert report.T == (1, 2, 3)
    assert report.b[4] == 4
    assert report.orbit_closed


def test_y8_report():
    scheme, eigen = build_y8()
    report = design_report(scheme, eigen, C_X8)
    assert report.T == (3, 4)


def test_whole_set_report():
    scheme, eigen = build_x8()
    report = design_report(scheme, eigen, range(8))
    assert report.T == (1, 2, 3, 4)


def test_is_T_design():
    scheme, eigen = build_x8()
    assert is_T_design(scheme, eigen, C_X8, {1, 2})
    assert not is_T_design(scheme, eigen, C_X8, {4})
    assert is_T_design(scheme, eigen, C_X8, set())
    with pytest.raises(ValueError):
        is_T_design(scheme, eigen, C_X8, {0})


def test_is_T_design_via_merges_checks_closure():
    scheme, eigen = build_x8()
    data = orbit_merge(eigen, SubfieldSpec.rationals(eigen.conductor))
    # {2} closes to {2, 3}; C annihilates both
    assert is_T_design_via_merges(data, C_X8, {2})
    assert not is_T_design_via_merges(data, (0, 2), {2})


def test_report_orbit_closure_random_subsets():
    rng = random.Random(23)
    scheme, eigen = build_x8()
    orbits = rational_orbit_data(eigen).orbits
    for _ in range(50):
        size = rng.randint(1, 7)
        subset = tuple(sorted(rng.sample(range(8), size)))
        report = design_report(scheme, eigen, subset)
        t = set(report.T)
        for orbit in orbits:
            assert set(orbit) <= t or not (set(orbit) & t)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_x8_enumeration_matches_fused():
    scheme, eigen = build_x8()
    direct = enumerate_T_designs(scheme, eigen, {1, 2, 3}, 1, 8, "direct")
    fused = enumerate_T_designs(scheme, eigen, {1, 2, 3}, 1, 8, "fused")
    assert direct == fused
    assert C_X8 in direct
    checked = enumerate_T_designs(scheme, eigen, {1, 2, 3}, 1, 8, "cross_check")
    assert checked == direct


def test_empty_T_enumerates_everything():
    scheme, eigen = build_x8()
    out = enumerate_T_designs(scheme, eigen, set(), 1, 2)
    assert len(out) == 8 + 28


def test_coxeter_designs_close_up():
    scheme, eigen = build_coxeter()
    fano = tuple(coxeter_second_fano())
    assert is_T_design(scheme, eigen, fano, {1, 2})
    assert is_T_design(scheme, eigen, fano, {1, 2, 4})
    # every small {1,2}-design is automatically a {1,2,4}-design
    designs = enumerate_T_designs(scheme, eigen, {1, 2}, 1, 5)
    for c in designs:
        assert is_T_design(scheme, eigen, c, {1, 2, 4})
    # and {1,4} closes up the same way
    assert enumerate_T_designs(scheme, eigen, {1, 4}, 1, 5) == designs


def test_enumeration_caps():
    scheme, eigen = build_coxeter()
    with pytest.raises(TooLarge):
        enumerate_T_designs(scheme, eigen, {1}, 1, 28)


def test_enumeration_lexicographic_order():
    scheme, eigen = build_x8()
    out = enumerate_T_designs(scheme, eigen, set(), 1, 3)
    assert list(out) == sorted(out)


def reference_enumeration(scheme, eigen, T, min_size, max_size):
    """The enumeration as one loop over subsets: pair counts of each subset
    on its own, tested one subset at a time against a block of Python ints
    read off Q's numerators, with no kernel call."""
    T = sorted(set(T))
    num = eigen.Q._num[:, T]
    check = num.reshape(len(num), -1).astype(object) if T else None
    found = []
    for r in range(max(min_size, 1), min(max_size, scheme.size) + 1):
        for combo in combinations(range(scheme.size), r):
            idx = np.fromiter(combo, dtype=np.int64)
            counts = np.bincount(
                scheme.relation[np.ix_(idx, idx)].ravel(), minlength=scheme.classes
            )
            if check is None or not (counts.astype(object) @ check).any():
                found.append(combo)
    return tuple(sorted(found))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_enumeration_matches_the_subset_loop_on_the_catalog(name):
    # every singleton T and the full T: all sizes up to 12 vertices, sizes
    # <= 3 above that
    entry = load_entry(name)
    scheme, eigen = entry.scheme, entry.eigen
    cap = scheme.size if scheme.size <= 12 else 3
    full = tuple(range(1, scheme.classes))
    for T in [(j,) for j in full] + [full]:
        want = reference_enumeration(scheme, eigen, T, 1, cap)
        got = enumerate_T_designs(scheme, eigen, T, 1, cap)
        assert got == want, T
        assert all(type(v) is int for c in got for v in c)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["x8", "y8", "a4", "dic3"]),
    mask=st.integers(min_value=0, max_value=(1 << 5) - 1),
    lo=st.integers(min_value=-2, max_value=14),
    hi=st.integers(min_value=-2, max_value=14),
)
def test_enumeration_windows_match_the_subset_loop(name, mask, lo, hi):
    # min > max, min <= 0 and max > |X| included
    entry = load_entry(name)
    T = [j for j in range(1, entry.scheme.classes) if mask >> (j - 1) & 1]
    want = reference_enumeration(entry.scheme, entry.eigen, T, lo, hi)
    assert enumerate_T_designs(entry.scheme, entry.eigen, T, lo, hi) == want


@pytest.mark.parametrize("pairs", [1, 7, 30])
@pytest.mark.parametrize("name", ["x8", "dic3"])
def test_enumeration_across_chunk_boundaries(name, pairs, monkeypatch):
    # a few pairs per chunk: every size but the largest spans several chunks
    monkeypatch.setattr(designs, "ENUM_CHUNK_PAIRS", pairs)
    entry = load_entry(name)
    scheme, eigen = entry.scheme, entry.eigen
    for T in [(), (1,), tuple(range(1, scheme.classes))]:
        want = reference_enumeration(scheme, eigen, T, 1, scheme.size)
        assert enumerate_T_designs(scheme, eigen, T, 1, scheme.size) == want
        fused = enumerate_T_designs(scheme, eigen, T, 1, scheme.size, "fused")
        assert fused == want


def test_enumeration_memory_stays_flat():
    # 122 437 candidates of sizes 1..5 on 28 vertices; the 98 280 of size 5
    # gathered at once would hold about 20 MB of pairs, a chunk about 2 MB
    scheme, eigen = build_coxeter()
    assert sum(math.comb(28, r) for r in range(1, 6)) == 122_437
    tracemalloc.start()
    try:
        found = enumerate_T_designs(scheme, eigen, {1}, 1, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(found) == 14
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------

def test_transfer_x8_to_y8_identity_vertices():
    fx = fused_over_q(build_x8)
    fy = fused_over_q(build_y8)
    transfer = build_design_transfer(fx, fy)
    assert transfer.class_map == (0, 1, 2, 3)
    assert transfer.eigen_map == (0, 2, 3, 1)
    image, t_prime = transfer_design(transfer, C_X8, {1, 2, 3})
    assert image == C_X8
    assert t_prime == (3, 4)


def test_transfer_to_relabeled_copy():
    rng = random.Random(31)
    scheme, eigen = build_x8()
    fx = galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor))
    perm = list(range(8))
    rng.shuffle(perm)
    inv = [0] * 8
    for a, pa in enumerate(perm):
        inv[pa] = a
    relabeled = np.empty_like(scheme.relation)
    for x in range(8):
        for y in range(8):
            relabeled[perm[x], perm[y]] = scheme.relation[x, y]
    from delsarte.scheme import attach_eigendata, verify_scheme

    yscheme = verify_scheme(relabeled)
    yeigen = attach_eigendata(yscheme, eigen.Q)
    fy = galois_fusion(yscheme, yeigen, SubfieldSpec.rationals(yeigen.conductor))
    transfer = build_design_transfer(fx, fy, vertex_map=perm)
    image, t_prime = transfer_design(transfer, C_X8, {1, 2, 3})
    assert image == tuple(sorted(perm[c] for c in C_X8))
    assert is_T_design(yscheme, yeigen, image, t_prime)


def test_transfer_rejects_bad_vertex_map():
    fx = fused_over_q(build_x8)
    fy = fused_over_q(build_y8)
    swap = [1, 0] + list(range(2, 8))
    with pytest.raises(IncompatibleT):
        build_design_transfer(fx, fy, vertex_map=[0, 2, 1, 3, 4, 5, 6, 7])
    # swapping inside a fused class is harmless
    transfer = build_design_transfer(fx, fy, vertex_map=swap)
    assert transfer.class_map == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# dicyclic subgroups
# ---------------------------------------------------------------------------

def closed_form_cyclic(n, k):
    """Tabulated distributions for H = <x^k> <= Dic_n, |H| = l = 2n/k."""
    two_n = 2 * n
    ell = two_n // k
    a = [Fraction(0)] * (n + 3)
    a[0] = Fraction(1)
    for i in range(k, n, k):
        a[i] = Fraction(2)
    a[n] = Fraction(1 if k % 2 == 1 else 0)
    b = [Fraction(0)] * (n + 3)
    b[0] = b[1] = Fraction(ell)
    if ell % 2 == 1:
        b[2] = b[3] = Fraction(ell)
    for j in range(1, n):
        if j % ell == 0:
            b[4 + j - 1] = Fraction(4 * ell)
    return tuple(a), tuple(b)


def closed_form_dicyclic(n, k):
    """Tabulated distributions for H = <x^k, y>, k | n odd, |H| = 4n/k."""
    aial, _ = closed_form_cyclic(n, k)
    a = list(aial)
    a[n + 1] = a[n + 2] = Fraction(n, k)
    ell = 2 * n // k
    b = [Fraction(0)] * (n + 3)
    b[0] = Fraction(4 * n, k)
    for j in range(1, n):
        if j % ell == 0:
            b[4 + j - 1] = Fraction(4 * ell)
    return tuple(a), tuple(b)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_dicyclic_subgroup_table_closed_forms(n):
    rows = dicyclic_subgroup_table(n)
    by_key = {(r.kind, r.k): r for r in rows}
    two_n = 2 * n
    for k in [d for d in range(1, two_n + 1) if two_n % d == 0]:
        row = by_key[("cyclic", k)]
        a, b = closed_form_cyclic(n, k)
        assert row.a == a
        assert tuple(row.b) == b
        assert row.order == two_n // k
    for k in [d for d in range(1, n + 1) if n % d == 0]:
        row = by_key[("dicyclic", k)]
        a, b = closed_form_dicyclic(n, k)
        assert row.a == a
        assert tuple(row.b) == b
        assert row.order == 4 * n // k


def test_dic3_sample_rows():
    rows = dicyclic_subgroup_table(3)
    by_key = {(r.kind, r.k): r for r in rows}
    h_x2 = by_key[("cyclic", 2)]
    assert h_x2.a == (1, 0, 2, 0, 0, 0)
    assert tuple(h_x2.b) == (3, 3, 3, 3, 0, 0)
    whole = by_key[("dicyclic", 1)]
    assert tuple(whole.b) == (12, 0, 0, 0, 0, 0)
    assert whole.T == (1, 2, 3, 4, 5)


def test_dic5_x5_row():
    rows = dicyclic_subgroup_table(5)
    by_key = {(r.kind, r.k): r for r in rows}
    row = by_key[("cyclic", 5)]
    # b on the linear characters: 2, 2, 0, 0; psi_2, psi_4 get 8
    assert tuple(row.b[:4]) == (2, 2, 0, 0)
    assert tuple(row.b[4:]) == (0, 8, 0, 8)


def test_subgroups_against_brute_force_membership():
    b = build_dicyclic(5)
    for kind, k, elements in dicyclic_subgroups(5):
        members = set(elements)
        assert 0 in members
        for g in members:
            assert b.group.inverse[g] in members
            for h in members:
                assert b.group.op(g, h) in members


def test_macwilliams_nonnegativity_exact_signs(monkeypatch):
    # real, nonnegative dual distributions with the full exact-sign check,
    # including irrational entries (kappa values of Dic_5), which the
    # float64 filter decides
    bundle = build_dicyclic(5)
    rng = random.Random(53)
    saw_irrational = False
    for _ in range(20):
        size = rng.randint(1, bundle.scheme.size - 1)
        subset = rng.sample(range(bundle.scheme.size), size)
        report = design_report(bundle.scheme, bundle.eigen, subset)
        saw_irrational |= any(not v.is_rational() for v in report.b)
    assert saw_irrational
    weights = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(20)]
    weights[0] = Fraction(1)  # ensure nonzero
    w = WeightedSubset.from_weights(weights)
    report = design_report(bundle.scheme, bundle.eigen, w)
    assert report.b[0] == sum(report.a)
    # z12 weights x, y, y on the vertices 0, 5, 7 with x^2 - 3 y^2 = 1: two
    # b_j are proportional to (x - y sqrt 3)^2, positive but far too close
    # to zero for the filter, so the interval sign path decides them
    calls = []
    interval_sign = cyclotomic._interval_sign
    monkeypatch.setattr(cyclotomic, "_interval_sign",
                        lambda n, num: calls.append(n) or interval_sign(n, num))
    eigen = load_entry("z12").eigen
    x, y = 18817, 10864
    assert x * x - 3 * y * y == 1
    weights = [0] * 12
    weights[0], weights[5], weights[7] = x, y, y
    w = WeightedSubset.from_weights(weights)
    report = design_report(eigen.scheme, eigen, w)
    assert calls == [12, 12]
    assert report.T == () and report.b[0] == sum(report.a)
    assert dual_distribution(eigen, inner_distribution(eigen.scheme, w)) == report.dual


@pytest.mark.parametrize("n", [3, 5])
def test_dicyclic_orbit_corollary_random_subsets(n):
    bundle = build_dicyclic(n)
    scheme, eigen = bundle.scheme, bundle.eigen
    orbits = rational_orbit_data(eigen).orbits
    # chi_2 <-> chi_3 sit in one orbit; psi_l <-> psi_(|kl MOD 2n|) likewise
    assert (2, 3) in orbits
    rng = random.Random(37 + n)
    for _ in range(60):
        size = rng.randint(1, scheme.size - 1)
        subset = tuple(sorted(rng.sample(range(scheme.size), size)))
        report = design_report(scheme, eigen, subset, verify_signs=False)
        t = set(report.T)
        assert (2 in t) == (3 in t)
        for orbit in orbits:
            assert set(orbit) <= t or not (set(orbit) & t)
