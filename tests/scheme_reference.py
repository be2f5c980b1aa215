"""The scheme axioms checked one (i, j, k) triple at a time: the tests'
reference for ``verify_scheme``.

This is the library's former check, kept verbatim: for each pair i <= j it
forms A_i A_j, reads p_ij^k at the first cell of class k in row-major order
and compares every cell of class k with it (axiom iii), then compares
A_j A_i with A_i A_j (axiom iv).  The library's batched check must report
the same axiom and witness on every grid, and the same intersection tensor
on every scheme.

Two small oracles the tests use beside it: ``count_intersection`` counts
one p_ij^k at one pair of points, and ``cycle_scheme`` builds the distance
scheme of an n-cycle.
"""

from __future__ import annotations

import numpy as np

from delsarte.errors import InternalAssertion, NotAScheme
from delsarte.scheme import SchemeData, verify_scheme


def reference_verify_scheme(relation) -> SchemeData:
    """Check the scheme axioms on a relation grid by direct counting.

    Raises :class:`NotAScheme` naming the first violated axiom together with
    a witness; on success returns the populated :class:`SchemeData`.
    """
    rel = np.asarray(relation, dtype=np.int64)
    if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
        raise NotAScheme("shape", rel.shape, "relation grid must be square")
    size = rel.shape[0]
    present = np.unique(rel)
    d = int(rel.max())
    if rel.min() < 0 or len(present) != d + 1:
        missing = sorted(set(range(d + 1)) - set(present.tolist()))
        raise NotAScheme("classes", missing, f"class indices missing: {missing}")

    # (i) class 0 is the identity relation
    diag = np.diagonal(rel)
    if (diag != 0).any():
        x = int(np.argmax(diag != 0))
        raise NotAScheme("i", (x, x), f"relation[{x}][{x}] != 0")
    off_zero = np.argwhere((rel == 0) & ~np.eye(size, dtype=bool))
    if len(off_zero):
        x, y = map(int, off_zero[0])
        raise NotAScheme("i", (x, y), f"relation[{x}][{y}] = 0 off the diagonal")

    # (ii) the transpose of every class is a class
    transpose_map = []
    rel_t = rel.T
    for i in range(d + 1):
        vals = np.unique(rel_t[rel == i])
        if len(vals) != 1:
            cells = np.argwhere(rel == i)
            x, y = map(int, cells[0])
            raise NotAScheme(
                "ii", (i, (x, y)), f"transpose of class {i} is not a single class"
            )
        transpose_map.append(int(vals[0]))
    transpose_map = tuple(transpose_map)

    # (iii) constant intersection numbers, and (iv) their symmetry
    adj = [(rel == i).astype(np.int64) for i in range(d + 1)]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    masks = [rel == k for k in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = adj[i] @ adj[j]
            for k in range(d + 1):
                vals = prod[masks[k]]
                first = int(vals[0])
                if (vals != first).any():
                    cells = np.argwhere(masks[k])
                    bad = cells[int(np.argmax(vals != first))]
                    raise NotAScheme(
                        "iii",
                        ((i, j, k), tuple(map(int, cells[0])), tuple(map(int, bad))),
                        f"|R_{i}(a) n R_{j}'(b)| is not constant on class {k}",
                    )
                p[i, j, k] = first
            if j > i:
                prod_ji = adj[j] @ adj[i]
                if not np.array_equal(prod_ji, prod):
                    cell = np.argwhere(prod_ji != prod)[0]
                    x, y = map(int, cell)
                    k = int(rel[x, y])
                    raise NotAScheme(
                        "iv",
                        (i, j, k),
                        f"p[{i}][{j}]^{k} != p[{j}][{i}]^{k}",
                    )
                for k in range(d + 1):
                    p[j, i, k] = p[i, j, k]

    valencies = tuple(int(p[i, transpose_map[i], 0]) for i in range(d + 1))
    if sum(valencies) != size:
        raise InternalAssertion("valencies of a verified scheme do not sum to |X|")
    return SchemeData(
        size=size,
        classes=d + 1,
        relation=rel,
        transpose_map=transpose_map,
        valencies=valencies,
        intersection=p,
    )


def count_intersection(scheme: SchemeData, i: int, j: int, a: int, b: int) -> int:
    """Brute-force count of |{c : (a,c) in R_i, (c,b) in R_j}| for one pair."""
    rel = scheme.relation
    return int(np.count_nonzero((rel[a, :] == i) & (rel[:, b] == j)))


def cycle_scheme(n: int) -> SchemeData:
    """The distance scheme of the n-cycle: (x, y) in R_i iff y = x +- i."""
    rel = [[min((x - y) % n, (y - x) % n) for y in range(n)] for x in range(n)]
    return verify_scheme(rel)
