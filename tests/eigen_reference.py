"""The eigen-side scalings as dense diagonal products: the tests' reference
for ``CycMatrix.scale_lines`` and ``CycMatrix.diagonal``.

These are the library's former forms: a diagonal matrix was an object
array with one ``Fraction`` per cell, and a scaling of rows and columns was
two dense products with such matrices.  ``reference_attach_eigendata`` is
the former ``scheme.attach_eigendata``, which read P off Q that way and
compared the identities with constant matrices built entry by entry; its
last step checks E_j^* = E_j one entry Q[i'][j] = conj(Q[i][j]) at a time.
The library must reject every corrupted Q with the same invariant and
message.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from delsarte.cyclotomic import CycMatrix
from delsarte.errors import BadEigenbasis
from delsarte.scheme import EigenData, SchemeData, _integer_entries


def reference_diagonal(values) -> CycMatrix:
    """The square matrix with the given rational diagonal."""
    return CycMatrix(np.diag(np.array(list(values), dtype=object)))


def reference_scaled(m: CycMatrix, rows=None, cols=None) -> CycMatrix:
    """diag(rows) m diag(cols) as dense products; None leaves that side alone."""
    if rows is not None:
        m = reference_diagonal(rows) * m
    if cols is not None:
        m = m * reference_diagonal(cols)
    return m


def reference_attach_eigendata(scheme: SchemeData, Q) -> EigenData:
    if not isinstance(Q, CycMatrix):
        Q = CycMatrix(Q)
    dp1 = scheme.classes
    size = scheme.size
    if Q.rows != dp1 or Q.cols != dp1:
        raise BadEigenbasis("shape", f"Q must be {dp1}x{dp1}")
    if Q.select(cols=[0]) != CycMatrix([[1]] * dp1):
        raise BadEigenbasis("E0", "column 0 of Q must be all ones")

    first_row = Q.select(rows=[0])
    mult, bad = _integer_entries(first_row, 1)
    if bad is not None:
        raise BadEigenbasis("multiplicity", f"Q[0][{bad}] = {first_row[0, bad]}")
    if sum(mult) != size:
        raise BadEigenbasis("multiplicity", "multiplicities do not sum to |X|")

    P = (
        reference_diagonal([Fraction(1, m) for m in mult])
        * Q.adjoint()
        * reference_diagonal(scheme.valencies)
    )
    if P * Q != CycMatrix.identity(dp1).scale(size):
        raise BadEigenbasis("orthogonality", "PQ != |X| I")

    p = scheme.intersection.transpose(0, 2, 1).reshape(dp1 * dp1, dp1)
    idx = np.arange(dp1)
    lhs = Q.left_rational(p)
    rhs = P.transpose().select(rows=np.repeat(idx, dp1)).schur(
        Q.select(rows=np.tile(idx, dp1))
    )
    bad = ~(lhs - rhs).zero_mask().reshape(dp1, dp1, dp1).all(axis=1)  # (i, j)
    if bad.any():
        j, i = map(int, np.argwhere(bad.T)[0])
        raise BadEigenbasis(
            "eigenvector",
            f"intersection matrix B_{i} does not act as "
            f"P[{j}][{i}] on column {j}",
        )

    tmap = scheme.transpose_map
    for j in range(dp1):
        for i in range(dp1):
            if Q[tmap[i], j] != Q[i, j].conjugate():
                raise BadEigenbasis("hermitian", f"E_{j} is not Hermitian: "
                                    f"Q[{tmap[i]}][{j}] != conj(Q[{i}][{j}])")

    return EigenData(
        scheme=scheme,
        Q=Q,
        P=P,
        multiplicities=tuple(mult),
        conductor=Q.conductor,
    )
