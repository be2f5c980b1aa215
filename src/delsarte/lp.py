"""Exact linear programming over the rationals, and Delsarte-style bounds.

The solver is a plain two-phase simplex on Fraction tableaus with Bland's
anti-cycling rule; optima are exact and re-substituted before being
returned.  On top of it sit the two standard Delsarte models: the design LP
(minimise the distribution sum subject to the annihilation constraints, a
lower bound on T-design size) and the code LP (maximise it subject to
forbidden relations, an upper bound on code size).  Both require rational
eigenvalue data: a scheme whose Q is rational, a fusion scheme, or the
merged matrix Qbar of a Galois orbit datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalAssertion, IrrationalData
from .fusion import FusionScheme, GaloisOrbitData
from .scheme import EigenData, validate_indices

Relation = str  # "<=", "=", ">="

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
                raise ValueError("constraint arity differs from objective")
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal", "infeasible", "unbounded"
    value: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None


def make_problem(objective, constraints, maximize=False) -> LPProblem:
    return LPProblem(
        objective=tuple(Fraction(c) for c in objective),
        constraints=tuple(
            (tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))
            for coeffs, rel, rhs in constraints
        ),
        maximize=maximize,
    )


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col]:
            f = line[col]
            tableau[r] = [a - f * b for a, b in zip(line, tableau[row])]
    basis[row] = col


def _phase(tableau, basis, costs):
    """Maximise costs . x on the current tableau with Bland's rule."""
    m = len(tableau)
    width = len(tableau[0]) - 1
    while True:
        cb = [costs[basis[r]] for r in range(m)]
        entering = None
        for j in range(width):
            reduced = costs[j] - sum(cb[r] * tableau[r][j] for r in range(m))
            if reduced > 0:
                entering = j
                break
        if entering is None:
            return "optimal"
        leaving, best = None, None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leaving]
                ):
                    leaving, best = r, ratio
        if leaving is None:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)


def simplex_solve(problem: LPProblem) -> LPResult:
    """Exact optimum of the problem; statuses instead of exceptions.

    Two-phase simplex: artificial variables are minimised first, then the
    objective.  Every arithmetic step is a Fraction operation and the
    reported solution is re-substituted into all constraints as a guard.
    """
    n = len(problem.objective)
    rows = []
    for coeffs, rel, rhs in problem.constraints:
        coeffs = list(coeffs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append((coeffs, rel, rhs))

    slack_count = sum(1 for _, rel, _ in rows if rel != "=")
    art_count = sum(1 for _, rel, _ in rows if rel != "<=")
    width = n + slack_count + art_count
    tableau, basis = [], []
    slack_at, art_at = n, n + slack_count
    for coeffs, rel, rhs in rows:
        line = [_ZERO] * (width + 1)
        line[:n] = coeffs
        line[-1] = rhs
        if rel == "<=":
            line[slack_at] = _ONE
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            line[slack_at] = -_ONE
            slack_at += 1
            line[art_at] = _ONE
            basis.append(art_at)
            art_at += 1
        else:
            line[art_at] = _ONE
            basis.append(art_at)
            art_at += 1
        tableau.append(line)

    if art_count:
        phase1 = [_ZERO] * width
        for j in range(n + slack_count, width):
            phase1[j] = -_ONE
        status = _phase(tableau, basis, phase1)
        if status != "optimal":
            raise InternalAssertion("phase 1 is always bounded")
        infeas = -sum(
            tableau[r][-1] for r in range(len(tableau)) if basis[r] >= n + slack_count
        )
        if infeas != 0:
            return LPResult(status="infeasible")
        for r in range(len(tableau)):
            if basis[r] >= n + slack_count:
                pivot_col = next(
                    (j for j in range(n + slack_count) if tableau[r][j] != 0), None
                )
                if pivot_col is not None:
                    _pivot(tableau, basis, r, pivot_col)
        keep = [r for r in range(len(tableau)) if basis[r] < n + slack_count]
        tableau = [tableau[r][: n + slack_count] + [tableau[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]
        width = n + slack_count

    sign = _ONE if problem.maximize else -_ONE
    costs = [sign * c for c in problem.objective] + [_ZERO] * (width - n)
    status = _phase(tableau, basis, costs)
    if status == "unbounded":
        return LPResult(status="unbounded")

    solution = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            solution[b] = tableau[r][-1]
    value = sum(c * x for c, x in zip(problem.objective, solution))
    _check_solution(problem, solution)
    return LPResult(status="optimal", value=value, solution=tuple(solution))


def _check_solution(problem, solution):
    if any(x < 0 for x in solution):
        raise ArithmeticError("simplex produced a negative variable")
    for coeffs, rel, rhs in problem.constraints:
        lhs = sum(c * x for c, x in zip(coeffs, solution))
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            raise ArithmeticError("optimal solution violates a constraint")


# ---------------------------------------------------------------------------
# Delsarte bounds
# ---------------------------------------------------------------------------

def _rational_matrix(source) -> list[list[Fraction]]:
    """Rows-by-classes, columns-by-eigenspaces rational matrix of source."""
    if isinstance(source, EigenData):
        matrix, what = source.Q, "Q"
    elif isinstance(source, FusionScheme):
        matrix, what = source.Q_F, "fused Q"
    elif isinstance(source, GaloisOrbitData):
        matrix, what = source.Qbar, "merged Qbar"
    else:
        raise TypeError(f"cannot pose an LP over {type(source).__name__}")
    out = []
    for i in range(matrix.rows):
        row = []
        for j in range(matrix.cols):
            v = matrix[i, j]
            if not v.is_rational():
                raise IrrationalData(
                    f"{what}[{i}][{j}] = {v} is irrational; fuse over a "
                    "rational subfield first (see galois_fusion / orbit_merge)"
                )
            row.append(v.as_rational())
        out.append(row)
    return out


def delsarte_design_lp(source, T) -> LPResult:
    """Lower bound on the size of a T-design.

    minimise sum_i a_i  subject to  a_0 = 1, a >= 0, (aM)_j = 0 for j in T,
    (aM)_j >= 0 for all j, where M is the (rational) eigenvalue matrix of
    the source.  For subsets, sum_i a_i = |C|, so the optimum bounds |C|
    from below.
    """
    m = _rational_matrix(source)
    classes, spaces = len(m), len(m[0])
    T = validate_indices(T, spaces - 1)
    constraints = [(tuple(_ONE if i == 0 else _ZERO for i in range(classes)), "=", _ONE)]
    for j in range(spaces):
        col = tuple(m[i][j] for i in range(classes))
        constraints.append((col, "=" if j in T else ">=", _ZERO))
    problem = LPProblem(
        objective=tuple(_ONE for _ in range(classes)),
        constraints=tuple(constraints),
        maximize=False,
    )
    return simplex_solve(problem)


def delsarte_code_lp(source, S) -> LPResult:
    """Upper bound on codes avoiding the relations in S.

    maximise sum_i a_i  subject to  a_0 = 1, a_i = 0 for i in S, a >= 0,
    (aM)_j >= 0 for all j.  For a subset meeting no relation of S, the
    distribution sum equals |C|, so the optimum bounds |C| from above.
    """
    m = _rational_matrix(source)
    classes, spaces = len(m), len(m[0])
    S = validate_indices(S, classes - 1, "S")
    constraints = [(tuple(_ONE if i == 0 else _ZERO for i in range(classes)), "=", _ONE)]
    for i in S:
        constraints.append(
            (tuple(_ONE if t == i else _ZERO for t in range(classes)), "=", _ZERO)
        )
    for j in range(spaces):
        col = tuple(m[i][j] for i in range(classes))
        constraints.append((col, ">=", _ZERO))
    problem = LPProblem(
        objective=tuple(_ONE for _ in range(classes)),
        constraints=tuple(constraints),
        maximize=True,
    )
    return simplex_solve(problem)
