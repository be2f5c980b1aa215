import random
from fractions import Fraction
from itertools import combinations

import pytest

from delsarte.catalog import build_a4, build_x8, build_z12
from delsarte.cyclotomic import SubfieldSpec
from delsarte.designs import enumerate_T_designs, rational_orbit_data
from delsarte.errors import DelsarteError, IrrationalData, ValidationError
from delsarte.fusion import galois_fusion
from delsarte.groups import rational_class_fusion
from delsarte.lp import (
    delsarte_code_lp,
    delsarte_design_lp,
    make_problem,
    simplex_solve,
)
from lp_reference import reference_solve


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------

def test_single_variable_max():
    p = make_problem([1], [([1], "<=", 3)], maximize=True)
    r = simplex_solve(p)
    assert r.status == "optimal"
    assert r.value == 3


def test_infeasible():
    p = make_problem([1], [([1], "<=", -1)], maximize=True)
    assert simplex_solve(p).status == "infeasible"


def test_unbounded():
    p = make_problem([1], [([1], ">=", 1)], maximize=True)
    assert simplex_solve(p).status == "unbounded"


def test_equality_and_fractions():
    p = make_problem(
        [1, 2],
        [([1, 1], "=", 1), ([1, -1], "<=", Fraction(1, 3))],
        maximize=True,
    )
    r = simplex_solve(p)
    assert r.status == "optimal"
    assert r.value == 2
    assert r.solution == (0, 1)


def test_minimization():
    p = make_problem(
        [2, 3],
        [([1, 1], ">=", 4), ([1, 0], ">=", 1)],
        maximize=False,
    )
    r = simplex_solve(p)
    assert r.status == "optimal"
    assert r.value == 8
    assert r.solution == (4, 0)


def _vertex_enumeration_optimum(objective, constraints, maximize):
    """Oracle: scan all basic points (intersections of n tight constraints)."""
    n = len(objective)
    rows = [(list(c), rel, rhs) for c, rel, rhs in constraints]
    for i in range(n):  # x_i >= 0 as constraints
        unit = [Fraction(0)] * n
        unit[i] = Fraction(1)
        rows.append((unit, ">=", Fraction(0)))
    best = None
    for chosen in combinations(range(len(rows)), n):
        a = [list(rows[r][0]) for r in chosen]
        b = [rows[r][2] for r in chosen]
        x = _solve_square(a, b)
        if x is None or any(v < 0 for v in x):
            continue
        feasible = True
        for coeffs, rel, rhs in rows:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if rel == "<=" and lhs > rhs or rel == ">=" and lhs < rhs or rel == "=" and lhs != rhs:
                feasible = False
                break
        if not feasible:
            continue
        val = sum(c * v for c, v in zip(objective, x))
        if best is None or (val > best if maximize else val < best):
            best = val
    return best


def _solve_square(a, b):
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][-1] for r in range(n)]


def test_random_lps_against_vertex_enumeration():
    rng = random.Random(41)
    for trial in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        objective = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        constraints = []
        for _ in range(m):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rel = rng.choice(["<=", ">="])
            rhs = Fraction(rng.randint(0, 6))
            constraints.append((coeffs, rel, rhs))
        # keep the region bounded so the oracle sees every optimum
        constraints.append(([Fraction(1)] * n, "<=", Fraction(10)))
        maximize = rng.random() < 0.5
        p = make_problem(objective, constraints, maximize=maximize)
        r = simplex_solve(p)
        oracle = _vertex_enumeration_optimum(
            p.objective, p.constraints, maximize
        )
        if r.status == "optimal":
            assert oracle == r.value
        elif r.status == "infeasible":
            assert oracle is None


# ---------------------------------------------------------------------------
# Delsarte bounds
# ---------------------------------------------------------------------------

def fused_x8():
    scheme, eigen = build_x8()
    return scheme, eigen, galois_fusion(
        scheme, eigen, SubfieldSpec.rationals(eigen.conductor)
    )


def test_design_lp_on_fused_x8():
    scheme, eigen, fs = fused_x8()
    r = delsarte_design_lp(fs, {1, 2})
    assert r.status == "optimal"
    assert r.value <= 4
    smallest = min(
        len(c) for c in enumerate_T_designs(scheme, eigen, {1, 2, 3}, 1, 8)
    )
    assert r.value <= smallest


def test_design_lp_empty_T():
    _, _, fs = fused_x8()
    r = delsarte_design_lp(fs, set())
    assert r.value == 1


def test_design_lp_fused_equals_rational_idempotent_lp():
    scheme, eigen, fs = fused_x8()
    merged_T = {1, 2}
    fused_value = delsarte_design_lp(fs, merged_T).value
    orbit = rational_orbit_data(eigen)
    unfused_value = delsarte_design_lp(orbit, merged_T).value
    assert fused_value == unfused_value


def test_design_lp_rejects_irrational_q():
    _, eigen = build_x8()
    with pytest.raises(IrrationalData) as info:
        delsarte_design_lp(eigen, {1})
    # the message names the first irrational entry in row-major order
    q = eigen.Q
    i, j = next((i, j) for i in range(q.rows) for j in range(q.cols)
                if not q[i, j].is_rational())
    assert str(info.value).startswith(f"Q[{i}][{j}] = {q[i, j]} is irrational")


def test_design_lp_rational_scheme_directly():
    b = build_a4()
    _, fused = rational_class_fusion(b.group, b.classes, b.scheme, b.eigen)
    r = delsarte_design_lp(fused.eigen, {1})
    assert r.status == "optimal"
    assert r.value >= 1


def test_code_lp_complete_graph():
    scheme, eigen, _ = fused_x8()
    from delsarte.fusion import fuse_by_relation_partition

    complete = fuse_by_relation_partition(scheme, eigen, [(0,), (1, 2, 3, 4)])
    r = delsarte_code_lp(complete, set())
    assert r.value == 8


def test_code_lp_all_relations_forbidden():
    _, _, fs = fused_x8()
    r = delsarte_code_lp(fs, {1, 2, 3})
    assert r.value == 1


def test_code_lp_against_exhaustive_cliques():
    scheme, eigen, fs = fused_x8()
    # codes avoiding fused relation 3: subsets whose pairs stay in {1, 2}
    bound = delsarte_code_lp(fs, {3}).value
    best = 1
    rel = fs.fused.relation
    from itertools import combinations

    for r in range(2, 9):
        for combo in combinations(range(8), r):
            if all(rel[a, b] != 3 for a in combo for b in combo if a != b):
                best = max(best, r)
    assert bound >= best
    assert best == 4  # one Z4 x Z2 coset block
    assert bound == 4


def test_z12_design_lp_via_fusion():
    b = build_z12()
    fs = galois_fusion(b.scheme, b.eigen, SubfieldSpec.rationals(12))
    r = delsarte_design_lp(fs, {1})
    assert r.status == "optimal"
    assert r.value >= 1
    # the whole group is always feasible: value can never exceed |X|
    assert r.value <= 12


def test_lp_index_sets_are_checked_as_validation_errors():
    # T and S go through the package's one index check, so a bad index is a
    # domain error (a ValidationError), not a bare ValueError
    z12 = build_z12()
    source = rational_orbit_data(z12.eigen)
    e, d = len(source.orbits) - 1, z12.scheme.d
    for T in ([7], [0], [-1], [e + 1]):
        with pytest.raises(ValidationError) as info:
            delsarte_design_lp(source, T)
        assert isinstance(info.value, DelsarteError)
    for S in ([0], [d + 1], [-2]):
        with pytest.raises(ValidationError):
            delsarte_code_lp(source, S)
    assert delsarte_design_lp(source, [1, 1]).status == "optimal"


@pytest.mark.parametrize("objective", [[0, 0], [1, 0]])
def test_zero_costs_against_a_huge_coefficient(objective):
    # a zero cost row (phase 2 of [0, 0]) or a zero dual (against [1, 0])
    # meets a coefficient of 2^70: each dtype must fit both factors
    problem = make_problem(objective, [([2**70, 1], ">=", 1)])
    result = simplex_solve(problem)
    assert (result.status, result.value, result.solution) == reference_solve(problem)


@pytest.mark.parametrize("constraints, message", [
    ([([1, 1, 1], "<=", 1)], "constraint arity differs from objective"),
    ([([1, 1], "<", 1)], "unknown relation '<'"),
])
def test_malformed_problems_are_validation_errors(constraints, message):
    # a domain error (DelsarteError), and still the ValueError it was
    with pytest.raises(ValidationError, match=message) as info:
        make_problem([1, 1], constraints)
    assert isinstance(info.value, DelsarteError) and isinstance(info.value, ValueError)
