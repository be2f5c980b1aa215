"""The integer simplex against the Fraction reference (tests/lp_reference.py).

The library's solver pivots on a fraction-free integer tableau; the
reference is the same two-phase Bland simplex on Fraction tableaus.  Equal
pivots mean equal optimal vertices, so these tests require the same
(status, value, solution) on random LPs (degenerate, redundant, infeasible
and unbounded ones included) and on the Delsarte LPs of every catalog
entry, with int64 and with Python-int tableaus, and check every dual
certificate in Fractions.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import cyclotomic, lp
from delsarte.catalog import CATALOG, load_entry
from delsarte.designs import rational_fusion, rational_orbit_data
from delsarte.errors import InternalAssertion, NotClosed
from delsarte.lp import LPProblem, LPResult, make_problem, simplex_solve
from lp_reference import posed_delsarte_problem, reference_solve

RELATIONS = ("<=", ">=", "=")

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


def assert_dual_certificate(problem: LPProblem, result) -> None:
    """y proves the optimum in Fractions: its signs, dual feasibility and
    b . y = value (weak duality then makes both optimal)."""
    if result.status != "optimal":
        assert result.dual is None
        return
    y, sign = result.dual, 1 if problem.maximize else -1
    assert len(y) == len(problem.constraints)
    for (_, rel, _), v in zip(problem.constraints, y):
        assert rel == "=" or sign * v * (1 if rel == "<=" else -1) >= 0
    for j, c in enumerate(problem.objective):
        assert sign * (sum(coeffs[j] * v for (coeffs, _, _), v in zip(problem.constraints, y)) - c) >= 0
    assert sum(b * v for (_, _, b), v in zip(problem.constraints, y)) == result.value


def assert_matches_reference(problem: LPProblem, want=None):
    result = simplex_solve(problem)
    want = reference_solve(problem) if want is None else want
    assert (result.status, result.value, result.solution) == want
    assert_dual_certificate(problem, result)
    return result


# ---------------------------------------------------------------------------
# random LPs
# ---------------------------------------------------------------------------

@st.composite
def lps(draw):
    """Up to 6 variables and 7 rows with denominators up to 7, either sign of
    right-hand side and every relation; some rows repeat an earlier row, or
    its negative, as an equality (a redundant row) and some are all zero
    (degeneracy)."""
    n = draw(st.integers(1, 6))
    objective = draw(st.lists(rationals, min_size=n, max_size=n))
    rhs_values = st.one_of(st.just(Fraction(0)), rationals)
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("row", "row", "row", "repeat", "negate", "zero")))
        if kind in ("repeat", "negate") and rows:
            coeffs, _, rhs = rows[draw(st.integers(0, len(rows) - 1))]
            if kind == "negate":
                coeffs, rhs = [-c for c in coeffs], -rhs
            rows.append((coeffs, "=", rhs))
        elif kind == "zero":
            rows.append(([0] * n, draw(st.sampled_from(RELATIONS)), draw(rhs_values)))
        else:
            rows.append((draw(st.lists(rationals, min_size=n, max_size=n)),
                         draw(st.sampled_from(RELATIONS)), draw(rhs_values)))
    if draw(st.booleans()):  # a box row keeps many of them bounded
        rows.append(([1] * n, "<=", draw(st.integers(0, 9))))
    return make_problem(objective, rows, maximize=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(lps())
def test_random_lps_match_the_reference(problem):
    assert_matches_reference(problem)


def test_one_fixed_lp_of_each_status():
    # whatever the random draws reach
    box = ([1, 1], "<=", 4)
    cases = {
        "optimal": make_problem([1, 2], [box, ([1, -1], ">=", Fraction(-1, 3))], True),
        "infeasible": make_problem([1, 0], [box, ([1, 1], ">=", 5)], True),
        "unbounded": make_problem([1, -1], [([1, -1], ">=", -2)], True),
    }
    for status, problem in cases.items():
        assert assert_matches_reference(problem).status == status


def test_clean_up_pivots_take_the_first_nonzero_column():
    # a x = 0 and -a x = 0 leave both artificials basic at zero after
    # phase 1; which column replaces the first one decides the vertex that
    # phase 2 reaches among the tied optima
    a = [1, -1, -2, 2, -2]
    problem = make_problem(
        [1, -1, 1, 0, 1],
        [(a, "=", 0), ([1, 2, 1, 1, 1], "<=", 1), ([-v for v in a], "=", 0)],
        maximize=True,
    )
    result = assert_matches_reference(problem)
    assert result.solution == (Fraction(2, 3), 0, Fraction(1, 3), 0, 0)


def test_no_rows_or_only_redundant_rows():
    # with no rows, or rows 0 = 0 that phase 1 leaves with nothing to pivot
    # on, phase 2 starts from an empty basis; a dropped row's dual is 0
    for rows, dual in (([], ()), ([([0, 0], "=", 0), ([0, 0], "=", 0)], (0, 0))):
        assert assert_matches_reference(make_problem([1, 1], rows, True)).status == "unbounded"
        for objective in ([1, 1], [0, 0]):
            result = assert_matches_reference(make_problem(objective, rows))
            assert (result.status, result.value, result.dual) == ("optimal", 0, dual)
        assert simplex_solve(make_problem([-1, 0], rows, True)).dual == dual


def test_huge_coefficients_with_mixed_denominators():
    big = 2 ** 70
    problem = make_problem(
        [Fraction(big + 1, 3), Fraction(-big, 7), 1],
        [([Fraction(big, 5), Fraction(3, big + 11), 1], "<=", big + 3),
         ([Fraction(big - 1, 2), Fraction(big, 9), Fraction(-1, 6)], ">=", Fraction(-big, 13)),
         ([1, 1, 1], "=", Fraction(big, 7)),
         ([Fraction(1, big), 0, Fraction(big, 3)], "<=", 5)],
        maximize=True,
    )
    assert assert_matches_reference(problem).status == "optimal"


def test_inexact_bareiss_division_raises():
    # after one pivot the tableau is divided by that pivot; a corrupted entry
    # leaves a remainder at the next pivot, which the step must refuse
    rows = np.array([[2, 1, 1, 0, 4], [1, 3, 0, 1, 6], [1, 1, 0, 0, 0]])
    tableau = lp._Tableau(rows, [2, 3])
    tableau.pivot(0, 0)
    assert tableau.det == 2
    tableau.rows[1, 1] += 1
    with pytest.raises(InternalAssertion):
        tableau.pivot(1, 1)


def _scaled(k):
    return lambda values: tuple(k * v for v in values)


@pytest.mark.parametrize("field, skew, error", [
    ("solution", _scaled(2), ArithmeticError),  # infeasible
    ("solution", _scaled(Fraction(1, 2)), InternalAssertion),  # feasible, not the value
    ("dual", _scaled(2), InternalAssertion),  # b . y is not the value
    ("dual", lambda y: (Fraction(7, 10), 0), InternalAssertion),  # b . y kept, A^T y < c
    ("value", lambda v: 3 * v, InternalAssertion),
])
def test_guards_check_the_returned_result(monkeypatch, field, skew, error):
    # a slip in the conversion from the integer tableau to the returned
    # Fractions must meet the re-substitution or the dual certificate
    problem = make_problem([1, 1], [([1, 2], "<=", 4), ([3, 1], "<=", 6)], maximize=True)
    result = simplex_solve(problem)
    assert (result.solution, result.dual) == ((Fraction(8, 5), Fraction(6, 5)),
                                              (Fraction(2, 5), Fraction(1, 5)))

    def skewed(**fields):
        if fields.get(field) is not None:
            fields[field] = skew(fields[field])
        return LPResult(**fields)

    monkeypatch.setattr(lp, "LPResult", skewed)
    with pytest.raises(error):
        simplex_solve(problem)


# ---------------------------------------------------------------------------
# the Delsarte LPs of the catalog
# ---------------------------------------------------------------------------

def catalog_lps():
    """(source, LP function, index set) for every design LP (all T) on each
    entry's rational orbit data, its rational fusion and the fusion's own
    eigendata, every code LP (all nonempty S) on the fusion and its
    eigendata, and the code LPs on the orbit data whose S is a union of
    fused classes (all nonempty S where there is no fusion)."""
    out = []
    for name in sorted(CATALOG):
        eigen = load_entry(name).eigen
        orbits = rational_orbit_data(eigen)
        try:
            fused = rational_fusion(eigen)
        except NotClosed:
            fused = None
        for source in (orbits, fused, fused.eigen) if fused else (orbits,):
            classes, spaces = lp._rational_matrix(source)[0].shape
            out += [(source, lp.delsarte_design_lp, T)
                    for k in range(spaces) for T in itertools.combinations(range(1, spaces), k)]
        if fused:
            cells = len(fused.partition)
            for k in range(1, cells):
                for S in itertools.combinations(range(1, cells), k):
                    out.append((fused, lp.delsarte_code_lp, S))
                    out.append((fused.eigen, lp.delsarte_code_lp, S))
                    out.append((orbits, lp.delsarte_code_lp,
                                sorted(i for c in S for i in fused.partition[c])))
        else:
            classes = lp._rational_matrix(orbits)[0].shape[0]
            out += [(orbits, lp.delsarte_code_lp, S)
                    for k in range(1, classes)
                    for S in itertools.combinations(range(1, classes), k)]
    return out


@pytest.fixture(scope="module")
def catalog_reference():
    """Each catalog LP with its problem posed in Fractions and the reference
    optimum of that problem."""
    out = []
    for source, fn, index in catalog_lps():
        problem = posed_delsarte_problem(source, fn, index)
        out.append(((source, fn, index), problem, reference_solve(problem)))
    return out


def test_catalog_lps_match_the_reference(catalog_reference):
    # the Delsarte LPs solve their integer block directly: the result equals
    # simplex_solve's on the posed Fraction problem in every field
    assert len(catalog_reference) > 400
    kinds = {(type(source).__name__, fn.__name__) for (source, fn, _), _, _ in catalog_reference}
    assert len(kinds) == 6
    for (source, fn, index), problem, want in catalog_reference:
        result = fn(source, index)
        assert (result.status, result.value, result.solution) == want
        assert result == simplex_solve(problem)
        assert_dual_certificate(problem, result)


def test_catalog_lps_on_python_ints(catalog_reference, monkeypatch):
    # with the int64 bound at 2^8 every tableau beyond the first pivots is
    # held in Python ints, and the answers must not change
    dtypes = []

    def recording(bound):
        dtypes.append(cyclotomic._dtype(bound))
        return dtypes[-1]

    monkeypatch.setattr(cyclotomic, "INT64_BOUND", 1 << 8)
    monkeypatch.setattr(lp, "_dtype", recording)
    for (source, fn, index), problem, want in catalog_reference:
        result = fn(source, index)
        assert (result.status, result.value, result.solution) == want
        assert_dual_certificate(problem, result)
    assert object in dtypes
