"""Q certified by one generic element of the intersection algebra.

``attach_eigendata`` accepts Q when the row sums are |X| e_0, Q is
Hermitian (Q[i'][j] = conj(Q[i][j])), B Q = Q diag(mu) for the integer
matrix B = sum_i c_i B_i, and the mu_j are pairwise distinct; anything else
runs the identities one by one (``scheme._full_identities``).

These tests pin the result to the former attach
(``eigen_reference.reference_attach_eigendata``) on the catalog, Z_1 ...
Z_30, Dic_3 ... Dic_15 and two direct products; draw corruptions of Q with
``hypothesis``, among them multiplicities swapped by rescaling two
columns, which only the row sums reject, and row swaps that only the
eigenvector identity rejects; force the fallback with zero weights; show that the accepted path
runs, with one entrywise product and no product of two
irrational matrices, on every case up to Z_60, Dic_31 and Dic_45; and
bound the traced memory of both paths.
"""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from eigen_reference import reference_attach_eigendata
from hypothesis import given, settings
from hypothesis import strategies as st
from test_galois_stack import PRODUCT_CASES, case

from delsarte import cyclotomic, scheme
from delsarte.catalog import CATALOG
from delsarte.cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec
from delsarte.errors import BadEigenbasis, ValidationError
from delsarte.fusion import orbit_merge
from delsarte.scheme import attach_eigendata

CASES = (tuple(("catalog", name) for name in sorted(CATALOG))
         + tuple(("cyclic", n) for n in range(1, 31))
         + tuple(("dicyclic", n) for n in range(3, 16, 2)))
LARGE = (("cyclic", 60), ("dicyclic", 31), ("dicyclic", 45))
#: small cases the drawn corruptions run on
DRAWN = (tuple(("catalog", name) for name in sorted(CATALOG))
         + (("cyclic", 7), ("cyclic", 12), ("dicyclic", 5)))


def outcome(attach, scheme_data, Q):
    """The attached fields, or the invariant and message of the rejection."""
    try:
        eigen = attach(scheme_data, Q)
    except BadEigenbasis as exc:
        return exc.invariant, str(exc)
    assert eigen.scheme is scheme_data
    return eigen.Q, eigen.P, eigen.multiplicities, eigen.conductor


def same_as_reference(scheme_data, Q):
    got = outcome(attach_eigendata, scheme_data, Q)
    assert got == outcome(reference_attach_eigendata, scheme_data, Q)
    return got


def zero_weights():
    """A patch that makes B = 0, so every mu_j is 0 and the certificate fails."""
    return mock.patch.object(scheme, "_generic_weights",
                             lambda count: np.zeros(count, dtype=np.int64))


def no_fallback():
    return mock.patch.object(scheme, "_full_identities", side_effect=AssertionError)


@pytest.mark.parametrize("family, n", CASES + PRODUCT_CASES)
def test_attach_equals_the_former_attach(family, n):
    scheme_data, eigen = case(family, n)
    got = same_as_reference(scheme_data, eigen.Q)
    assert not isinstance(got[0], str)


@pytest.mark.parametrize("family, n", CASES + PRODUCT_CASES + LARGE)
def test_the_accepted_path_runs_with_no_fallback(family, n):
    scheme_data, eigen = case(family, n)
    with no_fallback():
        again = attach_eigendata(scheme_data, eigen.Q)
    assert (again.P, again.multiplicities) == (eigen.P, eigen.multiplicities)


@pytest.mark.parametrize("family, n", CASES + PRODUCT_CASES)
def test_the_accepted_path_makes_one_entrywise_product(family, n):
    # the Schur product Q diag(mu) of (a) is the one convolution; every
    # product in attach has a rational factor
    scheme_data, eigen = case(family, n)
    shapes = []
    convolve, multiply = cyclotomic._convolve, CycMatrix.__mul__

    def counted(n, a, b, *args, **kwargs):
        shapes.append(a.shape[:2])
        return convolve(n, a, b, *args, **kwargs)

    def rational_factor(self, other):
        assert not isinstance(other, CycMatrix) or 1 in (self.conductor, other.conductor)
        return multiply(self, other)

    with mock.patch.object(cyclotomic, "_convolve", counted), \
            mock.patch.object(CycMatrix, "__mul__", rational_factor), no_fallback():
        attach_eigendata(scheme_data, eigen.Q)
    dp1 = scheme_data.classes
    assert shapes == [(dp1, dp1)]


@pytest.mark.parametrize("family, n", DRAWN + (("cyclic", 1), ("dicyclic", 7)) + PRODUCT_CASES)
def test_zero_weights_fall_back_to_the_same_verdict(family, n):
    scheme_data, eigen = case(family, n)
    calls = []
    full = scheme._full_identities

    def spy(*args):
        calls.append(1)
        return full(*args)

    with zero_weights(), mock.patch.object(scheme, "_full_identities", spy):
        same_as_reference(scheme_data, eigen.Q)
        for Q in _seeded_corruptions(eigen):
            same_as_reference(scheme_data, Q)
    # one class leaves one mu, which is distinct on its own
    assert bool(calls) == (scheme_data.classes > 1)


def _with(Q: CycMatrix, changed: dict) -> CycMatrix:
    rows = [list(row) for row in Q.entries]
    for (i, j), value in changed.items():
        rows[i][j] = value
    return CycMatrix(rows, Q.conductor)


def _swapped_columns(Q: CycMatrix, j: int, k: int) -> CycMatrix:
    order = list(range(Q.cols))
    order[j], order[k] = k, j
    return Q.select(cols=order)


def _conjugated_column(Q: CycMatrix, j: int) -> CycMatrix:
    return _with(Q, {(i, j): Q[i, j].conjugate() for i in range(Q.rows)})


def _swapped_multiplicities(Q: CycMatrix, mult, j: int, k: int) -> CycMatrix:
    """Columns j and k scaled by m_k / m_j and m_j / m_k: row 0 swaps two
    multiplicities with the same sum, each column still spans its
    eigenline and Q stays Hermitian, so only the row sums (r), or PQ, tell."""
    scale = [1] * Q.cols
    scale[j], scale[k] = Fraction(mult[k], mult[j]), Fraction(mult[j], mult[k])
    return Q.scale_lines(cols=scale)


def _seeded_corruptions(eigen):
    """One of each drawn kind at fixed indices."""
    Q, dp1 = eigen.Q, eigen.scheme.classes
    if dp1 < 3:
        return
    unit = Cyclotomic.zeta(eigen.conductor, 1)
    yield _with(Q, {(1, 1): Q[1, 1] + unit})
    yield _swapped_columns(Q, 1, 2)
    yield _with(Q, {(0, 1): Q[0, dp1 - 1], (0, dp1 - 1): Q[0, 1]})
    yield _swapped_multiplicities(Q, eigen.multiplicities, 1, dp1 - 1)
    yield _conjugated_column(Q, dp1 - 1)


@pytest.mark.parametrize("family, n", [("catalog", "coxeter"), ("dicyclic", 5)])
def test_rescaled_multiplicities_fail_the_row_sums(family, n):
    # every other check of the certificate holds on this Q
    scheme_data, eigen = case(family, n)
    m = eigen.multiplicities
    j, k = next((j, k) for j in range(1, len(m)) for k in range(j + 1, len(m)) if m[j] != m[k])
    assert same_as_reference(scheme_data, _swapped_multiplicities(eigen.Q, m, j, k)) == (
        "orthogonality", "eigendata rejected: orthogonality (PQ != |X| I)")


@st.composite
def corruptions(draw):
    family, n = draw(st.sampled_from(DRAWN))
    scheme_data, eigen = case(family, n)
    Q, dp1, cond = eigen.Q, scheme_data.classes, eigen.conductor
    line = st.integers(0, dp1 - 1)
    kind = draw(st.sampled_from(["moved", "swapped", "multiplicities", "conjugated", "rows"]))
    if kind == "moved":
        i, j = draw(line), draw(line)
        c = draw(st.sampled_from([-1, 1, 2, Fraction(1, 2), Fraction(-1, 3)]))
        delta = c * Cyclotomic.zeta(cond, draw(st.integers(0, cond - 1)))
        return scheme_data, _with(Q, {(i, j): Q[i, j] + delta})
    if kind == "swapped":
        return scheme_data, _swapped_columns(Q, draw(line), draw(line))
    if kind == "multiplicities":
        return scheme_data, _swapped_multiplicities(Q, eigen.multiplicities, draw(line),
                                                    draw(line))
    if kind == "conjugated":
        return scheme_data, _conjugated_column(Q, draw(line))
    # rows of two relations of one valency swapped keep PQ = |X| I, so the
    # eigenvector identity decides
    v = scheme_data.valencies
    pairs = [(a, b) for a in range(1, dp1) for b in range(a + 1, dp1) if v[a] == v[b]]
    a, b = draw(st.sampled_from(pairs or [(0, 0)]))
    order = list(range(dp1))
    order[a], order[b] = b, a
    return scheme_data, Q.select(rows=order)


@settings(max_examples=150, deadline=None)
@given(corruptions())
def test_drawn_corruptions_give_the_former_verdict(drawn):
    same_as_reference(*drawn)


@settings(max_examples=40, deadline=None)
@given(corruptions())
def test_drawn_corruptions_give_the_former_verdict_with_zero_weights(drawn):
    with zero_weights():
        same_as_reference(*drawn)


def test_the_weights_are_fixed_and_read_only():
    c = scheme._generic_weights(40)
    assert c.dtype == np.int64 and not c.flags.writeable
    assert (c >= -scheme.WEIGHT_BOUND).all() and (c < scheme.WEIGHT_BOUND).all()
    assert len(set(c.tolist())) == 40
    assert np.array_equal(scheme._generic_weights(12), c[:12])


#: traced peaks of attach_eigendata, the second call after a warm one, at
#: least twice the measured peak (Z_60 3 836 784 B accepted and 4 264 184 B
#: through the fallback, Dic_31 4 593 364 B and 5 123 520 B); the former
#: attach, with its (d+1)^3 arrays, peaked at 194.6 MB and 133.3 MB
ATTACH_BUDGETS = {
    (("cyclic", 60), "accepted"): 7_700_000,
    (("cyclic", 60), "fallback"): 8_600_000,
    (("dicyclic", 31), "accepted"): 9_200_000,
    (("dicyclic", 31), "fallback"): 10_300_000,
}


@pytest.mark.parametrize("group, path", sorted(ATTACH_BUDGETS))
def test_attach_memory_stays_within_its_budget(group, path):
    scheme_data, eigen = case(*group)
    with (zero_weights() if path == "fallback" else no_fallback()):
        attach_eigendata(scheme_data, eigen.Q)  # warm the tables
        tracemalloc.start()
        try:
            attach_eigendata(scheme_data, eigen.Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= ATTACH_BUDGETS[group, path], peak


# ---------------------------------------------------------------------------
# idempotents validate their index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j", [-1, 5, 1.5, True, "1", None])
def test_idempotent_refuses_an_index_outside_0_to_d(j):
    # -1 read E_4, 1.5 and True read E_1, and 5 raised a bare IndexError
    _, eigen = case("catalog", "x8")
    assert eigen.d == 4
    with pytest.raises(ValidationError, match="an idempotent index"):
        eigen.idempotent(j)


@pytest.mark.parametrize("l", [-1, 4, 1.5, True])
def test_merged_idempotent_refuses_an_index_outside_0_to_e(l):
    _, eigen = case("catalog", "x8")
    data = orbit_merge(eigen, SubfieldSpec.rationals(eigen.conductor))
    assert len(data.orbits) == 4
    with pytest.raises(ValidationError, match="an orbit index"):
        data.merged_idempotent(l)


def test_idempotents_take_numpy_integers():
    _, eigen = case("catalog", "x8")
    assert eigen.idempotent(np.int64(4)) == eigen.idempotent(4)
    data = orbit_merge(eigen, SubfieldSpec.rationals(eigen.conductor))
    assert data.merged_idempotent(np.int64(3)) == data.merged_idempotent(3)
