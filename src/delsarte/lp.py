"""Exact linear programming over the rationals, and Delsarte-style bounds.

The solver is a two-phase simplex with Bland's anti-cycling rule on a
fraction-free integer tableau (Bareiss, Math. Comp. 22, 1968; Edmonds,
J. Res. NBS 71B, 1967).  The constraint matrix, the right-hand side and the
costs are lifted to integers by positive scalings, which change no pivot
decision.  The tableau then holds D times the rational tableau, where D is
the last pivot, and each pivot T' = (p T - T[:, c] T[r]) / D divides
exactly; the objective row is one more row under the same pivots.  So the
pivots, the final basis and the optimum are those of Bland's rule on
Fraction tableaus.  Before a result is returned, its solution x is
re-substituted into the constraints, and its dual vector y, read from the
final objective row, is checked: its sign on each relation, dual
feasibility and c . x = b . y = value.  Both checks are exact, on the
integer lifts of the returned Fractions and of the posed problem.

On top of the solver sit the two standard Delsarte models: the design LP
(minimise the distribution sum subject to the annihilation constraints, a
lower bound on T-design size) and the code LP (maximise it subject to
forbidden relations, an upper bound on code size).  Both require rational
eigenvalue data: a scheme whose Q is rational, a fusion scheme, or the
merged matrix Qbar of a Galois orbit datum.  That matrix's integer
numerators go to the solver as they are, over its denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import _dtype, _fit, _int_array, _maxabs, bounded_matmul, rational_lift
from .errors import InternalAssertion, IrrationalData, ValidationError
from .fusion import FusionScheme, GaloisOrbitData
from .scheme import EigenData, validate_indices

Relation = str  # "<=", "=", ">="

_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


@dataclass(frozen=True)
class LPProblem:
    """min/max objective . x subject to row constraints, with x >= 0."""

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Relation, Fraction], ...]
    maximize: bool = False

    def __post_init__(self):
        n = len(self.objective)
        for coeffs, rel, _ in self.constraints:
            if len(coeffs) != n:
                raise ValidationError("constraint arity differs from objective")
            if rel not in ("<=", "=", ">="):
                raise ValidationError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class LPResult:
    """Status, and for an optimum its value, a solution x and a dual vector y.

    y has one entry per constraint, with value = b . y.  For a maximisation
    y is >= 0 on "<=" rows, <= 0 on ">=" rows and A^T y >= objective; for a
    minimisation the signs and the inequality are reversed.
    """

    status: str  # "optimal", "infeasible", "unbounded"
    value: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None


def make_problem(objective, constraints, maximize=False) -> LPProblem:
    return LPProblem(
        objective=tuple(Fraction(c) for c in objective),
        constraints=tuple(
            (tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))
            for coeffs, rel, rhs in constraints
        ),
        maximize=maximize,
    )


class _Tableau:
    """Fraction-free simplex tableau.

    ``rows`` is an integer array: the m constraint rows, then the objective
    row.  For the current basis B of the integer constraint matrix [A | b]
    it equals ``det`` times the rational tableau, B^-1 [A | b] above and
    (c - c_B B^-1 A | -c_B B^-1 b) for the costs c below.  ``det`` is the
    last pivot, 1 at the identity start basis, and kept positive.
    """

    def __init__(self, rows: np.ndarray, basis: list[int]):
        self.rows, self.basis, self.det = rows, basis, 1

    def pivot(self, r: int, c: int) -> None:
        """Bring column c into the basis at row r: one Bareiss step, whose
        division by the previous pivot must be exact."""
        p = int(self.rows[r, c])
        bound = _maxabs(self.rows)
        t = self.rows.astype(_dtype(2 * bound * bound), copy=False)
        num = p * t - np.outer(t[:, c], t[r])
        if (num % self.det).any():
            raise InternalAssertion(f"inexact Bareiss division at pivot ({r}, {c})")
        out = num // self.det
        out[r] = t[r]
        if p < 0:
            out, p = -out, -p
        self.rows, self.det = _fit(out), p
        self.basis[r] = c

    def set_costs(self, costs: np.ndarray) -> None:
        """Objective row for integer costs over the columns (rhs entry 0)."""
        body = self.rows[:-1]
        cb = costs[self.basis]
        # at least 1, so that det fits the dtype even when every cost is 0
        dtype = _dtype(max(_maxabs(costs), 1) * self.det)
        row = costs.astype(dtype) * self.det - bounded_matmul(cb[None, :], body)[0]
        self.rows = _fit(np.vstack([body, row]))

    def run(self, limit: int) -> str:
        """Bland's rule on the columns below limit: "optimal" or "unbounded"."""
        while True:
            improving = np.flatnonzero(self.rows[-1, :limit] > 0)
            if not improving.size:
                return "optimal"
            c = int(improving[0])
            r = self._leaving(c)
            if r is None:
                return "unbounded"
            self.pivot(r, c)

    def _leaving(self, c: int) -> int | None:
        """Least ratio rhs / a over rows with a > 0, ties to the least basic index."""
        col = self.rows[:-1, c]
        leaving, best_a, best_b = None, 1, 0
        for r in np.flatnonzero(col > 0).tolist():
            a, b = int(col[r]), int(self.rows[r, -1])
            if leaving is None or b * best_a < best_b * a or (
                b * best_a == best_b * a and self.basis[r] < self.basis[leaving]
            ):
                leaving, best_a, best_b = r, a, b
        return leaving


def simplex_solve(problem: LPProblem) -> LPResult:
    """Exact optimum of the problem; statuses instead of exceptions.

    Two-phase simplex: artificial variables are minimised first, then the
    objective, over an integer tableau (see the module docstring).  The
    returned solution is re-substituted into all constraints and the
    returned dual vector is checked, each in exact arithmetic, as guards.
    """
    n, m = len(problem.objective), len(problem.constraints)
    coeffs, mu = rational_lift([row for row, _, _ in problem.constraints])
    rhs, mu_b = rational_lift([[b for _, _, b in problem.constraints]])
    costs, mu_c = rational_lift([problem.objective])
    return _solve((coeffs.reshape(m, n), mu), [rel for _, rel, _ in problem.constraints],
                  (rhs.reshape(m), mu_b), (costs.reshape(n), mu_c), problem.maximize)


def _solve(A, relations, b, c, maximize: bool) -> LPResult:
    """``simplex_solve`` on the lifted problem (coeffs / mu) x (rel) rhs / mu_b,
    objective costs / mu_c: A = (coeffs, mu), b = (rhs, mu_b) and
    c = (costs, mu_c) are integer arrays (m x n, m, n) over positive ints."""
    (coeffs, mu), (rhs, mu_b), (costs, mu_c) = A, b, c
    m, n = coeffs.shape
    # int64 only below the kernel's bound, so sign changes cannot wrap
    dtype = _dtype(max(_maxabs(coeffs), _maxabs(rhs), _maxabs(costs)))
    coeffs, rhs, costs = (a.astype(dtype, copy=False) for a in (coeffs, rhs, costs))
    flips = np.where(rhs < 0, -1, 1)
    flipped = [_FLIPPED[rel] if f < 0 else rel for f, rel in zip(flips.tolist(), relations)]

    slack = [k for k, rel in enumerate(flipped) if rel != "="]
    art = [k for k, rel in enumerate(flipped) if rel != "<="]
    real = n + len(slack)
    width = real + len(art)
    rows = np.zeros((m + 1, width + 1), dtype=dtype)
    rows[:m, :n] = coeffs * flips[:, None]
    rows[:m, -1] = rhs * flips
    start = [0] * m
    for i, k in enumerate(slack):
        rows[k, n + i] = 1 if flipped[k] == "<=" else -1
        start[k] = n + i
    for i, k in enumerate(art):
        rows[k, real + i] = 1
        start[k] = real + i
    tab = _Tableau(rows, list(start))

    if art:
        tab.set_costs(np.array([0] * real + [-1] * len(art) + [0]))
        if tab.run(width) != "optimal":
            raise InternalAssertion("phase 1 is always bounded")
        if tab.rows[-1, -1] != 0:
            return LPResult(status="infeasible")
        # drive the zero artificials out; a row with none to swap in is redundant
        for r in range(m):
            if tab.basis[r] >= real:
                nonzero = np.flatnonzero(tab.rows[r, :real])
                if nonzero.size:
                    tab.pivot(r, int(nonzero[0]))

    sign = 1 if maximize else -1
    tab.set_costs(np.concatenate([sign * costs, np.zeros(width + 1 - n, dtype=costs.dtype)]))
    # artificial columns stay in the tableau for the dual but never enter
    if tab.run(real) == "unbounded":
        return LPResult(status="unbounded")

    # x and y are the optimum in lifted units: the solution is mu x / (det mu_b)
    # and the dual sign mu y / (det mu_c).  Column start[k] is +e_k in the
    # sign-flipped row k, so its reduced cost is -det times that row's dual.
    x = [0] * n
    for r, b in enumerate(tab.basis):
        if b < n:
            x[b] = int(tab.rows[r, -1])
    y = (-flips * tab.rows[-1, start]).tolist()
    result = LPResult(
        status="optimal",
        value=Fraction(mu * sum(c * v for c, v in zip(costs.tolist(), x)), mu_c * tab.det * mu_b),
        solution=tuple(Fraction(mu * v, tab.det * mu_b) for v in x),
        dual=tuple(Fraction(sign * mu * v, tab.det * mu_c) for v in y),
    )
    _check_solution((coeffs, mu), relations, (rhs, mu_b), (costs, mu_c), result)
    _check_dual((coeffs, mu), relations, (rhs, mu_b), (costs, mu_c), sign, result)
    return result


def _holds(lhs: int, rel: Relation, rhs: int) -> bool:
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def _lift_column(values) -> tuple[np.ndarray, int]:
    """Integer numerators (as a column) of a rational vector, and their
    least common denominator."""
    ints, den = rational_lift([values])
    return ints.reshape(-1, 1), den


def _dot(u: np.ndarray, v: np.ndarray) -> int:
    """u . v for integer arrays of n entries each, in Python ints."""
    return sum(a * b for a, b in zip(u.ravel().tolist(), v.ravel().tolist()))


def _check_solution(A, relations, b, c, result):
    """Primal re-substitution of the returned solution, exactly.

    A = (coeffs, mu), b = (rhs, mu_b) and c = (costs, mu_c) are the lifted
    constraint matrix coeffs / mu, right-hand side rhs / mu_b and objective
    costs / mu_c.  With the solution lifted to s / d, the checks are s >= 0,
    mu_b (coeffs s) (rel) mu d rhs, and costs . s / (mu_c d) = value.
    """
    (coeffs, mu), (rhs, mu_b), (costs, mu_c) = A, b, c
    s, d = _lift_column(result.solution)
    if (s < 0).any():
        raise ArithmeticError("simplex produced a negative variable")
    lhs = bounded_matmul(coeffs, s)[:, 0].tolist()
    for k, (left, rel, v) in enumerate(zip(lhs, relations, rhs.tolist())):
        if not _holds(mu_b * left, rel, mu * d * v):
            raise ArithmeticError(f"optimal solution violates constraint {k}")
    if Fraction(_dot(costs, s), mu_c * d) != result.value:
        raise InternalAssertion("returned value differs from the objective at the solution")


def _check_dual(A, relations, b, c, sign, result):
    """Dual certificate of the returned result, exactly.

    A, b and c are lifted as in _check_solution; sign is +1 for a
    maximisation and -1 for a minimisation.  With sign times the dual
    lifted to t / d, the checks are t >= 0 on "<=" rows and <= 0 on ">="
    rows, (coeffs / mu)^T t / d >= sign costs / mu_c, and b . y = value.  With
    _check_solution, weak duality makes the solution and the dual optimal.
    """
    (coeffs, mu), (rhs, mu_b), (costs, mu_c) = A, b, c
    t, d = _lift_column(result.dual)
    t = sign * t
    for k, (v, rel) in enumerate(zip(t[:, 0].tolist(), relations)):
        if rel != "=" and not _holds(v, _FLIPPED[rel], 0):
            raise InternalAssertion(f"dual value of constraint {k} has the wrong sign for {rel!r}")
    reduced = bounded_matmul(t.T, coeffs)[0].tolist()
    for j, (left, v) in enumerate(zip(reduced, costs.tolist())):
        if mu_c * left < sign * mu * d * v:
            raise InternalAssertion(f"dual infeasible at variable {j}")
    if Fraction(sign * _dot(rhs, t), mu_b * d) != result.value:
        raise InternalAssertion("dual objective differs from the primal value")


# ---------------------------------------------------------------------------
# Delsarte bounds
# ---------------------------------------------------------------------------

def _rational_matrix(source) -> tuple[np.ndarray, int]:
    """Integer numerators (classes x eigenspaces) of the rational eigenvalue
    matrix of source, over their common denominator."""
    if isinstance(source, EigenData):
        matrix, what = source.Q, "Q"
    elif isinstance(source, FusionScheme):
        matrix, what = source.Q_F, "fused Q"
    elif isinstance(source, GaloisOrbitData):
        matrix, what = source.Qbar, "merged Qbar"
    else:
        raise TypeError(f"cannot pose an LP over {type(source).__name__}")
    ints, den, irrational = matrix.rational_part()
    if irrational.any():
        i, j = map(int, np.argwhere(irrational)[0])
        raise IrrationalData(
            f"{what}[{i}][{j}] = {matrix[i, j]} is irrational; fuse over a "
            "rational subfield first (see galois_fusion / orbit_merge)"
        )
    return ints, den


def _distribution_lp(rows, den, relations, rhs, maximize) -> LPResult:
    """Optimise sum_i a_i subject to (rows / den) a (rel) rhs and a >= 0, for
    an integer array rows and integers rhs, on the lifted problem as posed."""
    m, n = rows.shape
    return _solve((rows, den), relations, (_int_array(rhs).reshape(m), 1),
                  (np.ones(n, dtype=np.int64), 1), maximize)


def _units(indices, classes: int, den: int) -> np.ndarray:
    """Rows den e_i for i in indices: the constraints a_i = ... over den."""
    return _int_array([[den if t == i else 0 for t in range(classes)] for i in indices])


def delsarte_design_lp(source, T) -> LPResult:
    """Lower bound on the size of a T-design.

    minimise sum_i a_i  subject to  a_0 = 1, a >= 0, (aM)_j = 0 for j in T,
    (aM)_j >= 0 for all j, where M is the (rational) eigenvalue matrix of
    the source.  For subsets, sum_i a_i = |C|, so the optimum bounds |C|
    from below.
    """
    ints, den = _rational_matrix(source)
    classes, spaces = ints.shape
    T = validate_indices(T, spaces - 1)
    rows = np.vstack([_units([0], classes, den), ints.T])
    relations = ["="] + ["=" if j in T else ">=" for j in range(spaces)]
    rhs = [1] + [0] * spaces
    return _distribution_lp(rows, den, relations, rhs, maximize=False)


def delsarte_code_lp(source, S) -> LPResult:
    """Upper bound on codes avoiding the relations in S.

    maximise sum_i a_i  subject to  a_0 = 1, a_i = 0 for i in S, a >= 0,
    (aM)_j >= 0 for all j.  For a subset meeting no relation of S, the
    distribution sum equals |C|, so the optimum bounds |C| from above.
    """
    ints, den = _rational_matrix(source)
    classes, spaces = ints.shape
    S = validate_indices(S, classes - 1, "S")
    rows = np.vstack([_units((0, *S), classes, den), ints.T])
    relations = ["="] * (1 + len(S)) + [">="] * spaces
    rhs = [1] + [0] * (len(S) + spaces)
    return _distribution_lp(rows, den, relations, rhs, maximize=True)
