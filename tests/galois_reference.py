"""The Galois action one automorphism at a time: the tests' reference for
the images in ``fusion`` and ``scheme``.

These are the library's former loops, kept verbatim apart from their
names and their column key: one ``galois`` call per unit k, and rows and
columns compared by ``column_key``, the terms of each entry, read through
the public ``Cyclotomic.terms`` and so independent of the kernel's integer
form.  The library builds the images of the generators of a fixing group,
and Krein those of its irrational columns alone, one product per unit, and
matches columns on numerators (``CycMatrix.column_positions``); on
every input both must give the same permutations, orbits, row classes,
Hermitian check and Krein data, and raise the same error with the same
witness.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from delsarte.cyclotomic import CycMatrix, fixed_field_conductor, units_mod
from delsarte.errors import (
    BadEigenbasis,
    ConductorMismatch,
    InternalAssertion,
    KreinViolation,
    NotPermutation,
)
from delsarte.fusion import _cell_labels, _label_cells, _partition_matrix, partition_join
from delsarte.scheme import KreinData


def column_key(matrix: CycMatrix, j: int) -> tuple:
    """Column j as the (exponent, coefficient) terms of its entries: the
    columns of matrices of one conductor are equal iff their keys are."""
    return tuple(tuple(v.terms()) for v in matrix.col(j))


def reference_sigma_permutations(eigen, subfield):
    """Permutations of {0..d} induced by Gal(F/K), one image of Q per unit."""
    n = eigen.conductor
    if subfield.conductor % n:
        raise ConductorMismatch(
            f"subfield lives in Q(zeta_{subfield.conductor}) which does not "
            f"contain the splitting conductor {n}"
        )
    dp1 = eigen.scheme.classes
    col_keys = {column_key(eigen.Q, j): j for j in range(dp1)}
    by_perm: dict[tuple[int, ...], tuple] = {}
    for k in subfield.group:
        image = eigen.Q.galois(k % n if n > 1 else 1)
        signature = tuple(column_key(image, j) for j in range(dp1))
        cols = []
        for j in range(dp1):
            target = col_keys.get(signature[j])
            if target is None:
                raise NotPermutation(
                    f"zeta -> zeta^{k} does not map E_{j} into the idempotent "
                    "basis; Q is inconsistent with its declared conductor"
                )
            cols.append(target)
        perm = tuple(cols)
        if len(set(perm)) != dp1:
            raise NotPermutation(f"automorphism {k} does not act bijectively")
        if by_perm.setdefault(perm, signature) != signature:
            raise InternalAssertion(
                "two distinct restrictions induced the same permutation"
            )
    perms = tuple(sorted(by_perm))
    members = set(perms)
    for a in perms:
        for b in perms:
            if tuple(a[b[j]] for j in range(dp1)) not in members:
                raise InternalAssertion("induced permutations are not closed")
    return perms


def reference_outside(qbar: CycMatrix, subfield) -> np.ndarray:
    """Where an entry of Qbar is moved by some generator of the fixing group."""
    merged = qbar.embed(subfield.conductor)
    outside = np.zeros((qbar.rows, qbar.cols), dtype=bool)
    for g in subfield.generators:
        outside |= ~(merged.galois(g) - merged).zero_mask()
    return outside


def reference_orbit_merge(eigen, subfield):
    """(perms, orbits, iota, Qbar), or the error of the subfield check."""
    perms = reference_sigma_permutations(eigen, subfield)
    dp1 = eigen.scheme.classes
    pairs = [(j, perm[j]) for perm in perms for j in range(dp1)]
    orbits = partition_join(pairs, (), dp1)
    if orbits[0] != (0,):
        raise InternalAssertion("E_0 is rational and must sit in its own orbit")
    iota = _cell_labels(orbits, dp1)
    qbar = eigen.Q * CycMatrix(_partition_matrix(iota, len(orbits)))
    outside = reference_outside(qbar, subfield)
    if outside.any():
        l = int(np.argwhere(outside)[0][1])
        raise InternalAssertion(
            f"merged idempotent F_{l} has an entry outside the subfield"
        )
    return perms, orbits, iota, qbar


def reference_group_rows(matrix: CycMatrix) -> tuple[tuple[int, ...], ...]:
    """Cells of equal rows, each row keyed by its terms."""
    rows = matrix.transpose()
    return _label_cells(column_key(rows, i) for i in range(matrix.rows))


def reference_hermitian(scheme, Q: CycMatrix) -> None:
    """E_j^* = E_j, i.e. Q[i'][j] = conj(Q[i][j]), one column key at a
    time and, in a failing column, one entry at a time."""
    tmap = scheme.transpose_map
    transposed, conj = Q.select(rows=tmap), Q.conjugate()
    for j in range(scheme.classes):
        if column_key(transposed, j) != column_key(conj, j):
            i = next(i for i in range(scheme.classes) if Q[tmap[i], j] != Q[i, j].conjugate())
            raise BadEigenbasis("hermitian", f"E_{j} is not Hermitian: "
                                f"Q[{tmap[i]}][{j}] != conj(Q[{i}][{j}])")


def reference_krein_parameters(eigen) -> KreinData:
    """The Krein tensor, realness on the whole tensor and one image per unit."""
    Q, P = eigen.Q, eigen.P
    dp1 = eigen.scheme.classes
    idx = np.arange(dp1)
    w = Q.select(cols=np.repeat(idx, dp1)).schur(Q.select(cols=np.tile(idx, dp1)))
    K = (P * w).scale(Fraction(1, eigen.scheme.size))  # K[k][(i, j)] = q[i][j][k]

    def by_ijk(mask):
        return mask.reshape(dp1, dp1, dp1).transpose(1, 2, 0)

    nonreal = ~(K - K.conjugate()).zero_mask()
    real = K if not nonreal.any() else K.schur(CycMatrix((~nonreal).astype(np.int64)))
    bad = by_ijk(nonreal | (real.signs() < 0))
    if bad.any():
        i, j, k = map(int, np.argwhere(bad)[0])
        q_ijk = K[k, i * dp1 + j]
        reason = "is not real" if by_ijk(nonreal)[i, j, k] else "is negative"
        raise KreinViolation(i, j, k, f"= {q_ijk} {reason}")

    off = ~(K.select(cols=idx) - CycMatrix.identity(dp1)).zero_mask().T
    if off.any():
        j, k = map(int, np.argwhere(off)[0])
        raise KreinViolation(0, j, k, f"!= {1 if j == k else 0}")

    n = eigen.conductor
    fixing = [k for k in units_mod(n) if K.galois(k) == K]
    kd = KreinData(tensor=K.transpose(), krein_conductor=fixed_field_conductor(n, fixing))
    kd.q  # the cells, built here as they were before q was built on first read
    return kd
