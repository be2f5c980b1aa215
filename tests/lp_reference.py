"""Two-phase simplex on Fraction tableaus: the tests' reference solver.

This is the library's former solver, kept verbatim in its arithmetic and
pivot rule: Bland's rule (the first improving column enters; the least
ratio leaves, ties to the least basic index), phase 1 on artificial
variables, clean-up pivots that drive zero artificials out of the basis,
and phase 2 on the rows that remain.  The library's integer tableau must
make the same pivots, so both return the same optimal vertex even on
degenerate LPs.  It reads an ``LPProblem`` through its public fields only.

``posed_delsarte_problem`` states a Delsarte LP as the ``LPProblem`` of
Fractions that the library solves on its integer block, read off the
public entries of the eigenvalue matrix.
"""

from __future__ import annotations

from fractions import Fraction

from delsarte.fusion import FusionScheme, GaloisOrbitData
from delsarte.lp import LPProblem, delsarte_design_lp
from delsarte.scheme import EigenData

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    width = len(costs)  # the library read len(tableau[0]), which fails with no rows left
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


def reference_solve(problem):
    """(status, value, solution) of the problem: value and solution are
    None unless the status is "optimal"."""
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
        if _phase(tableau, basis, phase1) != "optimal":
            raise AssertionError("phase 1 is always bounded")
        infeas = -sum(
            tableau[r][-1] for r in range(len(tableau)) if basis[r] >= n + slack_count
        )
        if infeas != 0:
            return "infeasible", None, None
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
    if _phase(tableau, basis, costs) == "unbounded":
        return "unbounded", None, None

    solution = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            solution[b] = tableau[r][-1]
    value = sum(c * x for c, x in zip(problem.objective, solution))
    return "optimal", value, tuple(solution)


def posed_delsarte_problem(source, fn, index) -> LPProblem:
    """The design LP (fn is ``delsarte_design_lp``, index T) or the code LP
    (index S) on the rational eigenvalue matrix M of source: optimise
    sum_i a_i subject to a_0 = 1, a_i = 0 for i in S, (aM)_j = 0 for j in T,
    (aM)_j >= 0 otherwise, and a >= 0, in that row order."""
    matrix = {EigenData: lambda s: s.Q, FusionScheme: lambda s: s.Q_F,
              GaloisOrbitData: lambda s: s.Qbar}[type(source)](source)
    M = [[v.as_rational() for v in row] for row in matrix.entries]
    classes, spaces = len(M), len(M[0])
    index = sorted(set(index))

    def unit(i):
        return tuple(Fraction(int(t == i)) for t in range(classes))

    columns = [tuple(M[i][j] for i in range(classes)) for j in range(spaces)]
    if fn is delsarte_design_lp:
        rows = [(unit(0), "=", Fraction(1))] + [
            (col, "=" if j in index else ">=", Fraction(0)) for j, col in enumerate(columns)]
    else:
        rows = [(unit(0), "=", Fraction(1))] + [(unit(i), "=", Fraction(0)) for i in index] + [
            (col, ">=", Fraction(0)) for col in columns]
    return LPProblem(objective=(Fraction(1),) * classes, constraints=tuple(rows),
                     maximize=fn is not delsarte_design_lp)
