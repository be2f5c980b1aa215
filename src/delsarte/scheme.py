"""Association schemes: axiom verification, intersection numbers, and
attachment of exact eigenstructure.

A scheme is presented as an |X| x |X| grid of class indices partitioning
X x X.  ``verify_scheme`` checks the four defining axioms, with the products
A_i A_j as one float64 stack per i (exact: 0/1 products have integer partial
sums of at most |X| < 2^53), and records the intersection tensor.
Eigenstructure is always supplied (a second eigenmatrix Q) and verified,
never solved for: ``attach_eigendata`` derives P from the second
orthogonality relation, confirms PQ = |X| I (so P = |X| Q^(-1)) and every
other structural identity exactly, so results stay in exact arithmetic end
to end.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cyclotomic import CycMatrix, Cyclotomic, fixed_field_conductor, units_mod
from .errors import (
    BadEigenbasis,
    InternalAssertion,
    KreinViolation,
    NotAScheme,
    ValidationError,
)


@dataclass(frozen=True)
class SchemeData:
    """A verified association scheme on |X| points with d+1 classes."""

    size: int
    classes: int
    relation: np.ndarray
    transpose_map: tuple[int, ...]
    valencies: tuple[int, ...]
    intersection: np.ndarray  # p[i][j][k], nonnegative integers

    def __post_init__(self):
        self.relation.setflags(write=False)
        self.intersection.setflags(write=False)

    @property
    def d(self) -> int:
        return self.classes - 1

    def is_symmetric(self) -> bool:
        return all(i == ip for i, ip in enumerate(self.transpose_map))

    def adjacency(self, i: int) -> np.ndarray:
        return (self.relation == i).astype(np.int64)

    def __eq__(self, other):
        if not isinstance(other, SchemeData):
            return NotImplemented
        return self.size == other.size and np.array_equal(
            self.relation, other.relation
        )

    def __hash__(self):
        return hash((self.size, self.relation.tobytes()))


#: a float64 holds every integer below this exactly
FLOAT64_EXACT = 1 << 53


def _integer_grid(grid) -> np.ndarray | None:
    """The grid as an int64 array, exactly: an integer array, or rows of one
    length of integers (not bools, not floats); None for anything else."""
    try:
        # ragged rows raise; floats, strings and ints beyond int64 are not kind "i"
        values = np.asarray(grid)
        if not isinstance(grid, np.ndarray) and any(
                v is True or v is False for row in grid for v in row):
            return None
    except (TypeError, ValueError):
        return None
    return values.astype(np.int64) if values.dtype.kind == "i" else None


def verify_scheme(relation) -> SchemeData:
    """Check the scheme axioms on a relation grid.

    Raises :class:`NotAScheme` naming the first violated axiom together with
    a witness; on success returns the populated :class:`SchemeData`.
    """
    rel = _integer_grid(relation)
    if rel is None:
        raise NotAScheme("shape", None, "relation grid must be rows of integers of one length")
    if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
        raise NotAScheme("shape", rel.shape, "relation grid must be square")
    size = rel.shape[0]
    present, first = np.unique(rel, return_index=True)
    d = int(rel.max())
    if rel.min() < 0 or len(present) != d + 1:
        # at most |X|^2 classes are present: the list stops there, however large d is
        missing = np.setdiff1d(np.arange(min(d, rel.size) + 1), present).tolist()
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

    # every scheme has d + 1 <= |X|: valencies are >= 1 and sum to |X|.  More
    # classes than points leave some class out of row 0, so its valency is not
    # constant; refused here, before the per-class work below is sized by d
    if d + 1 > size:
        in_row = np.zeros(d + 1, dtype=bool)
        in_row[rel[0]] = True
        k = int(np.argmin(in_row))
        raise NotAScheme(
            "iii", (k, 0),
            f"{d + 1} classes on {size} points: class {k} does not occur in row 0",
        )

    # (ii) the transpose of every class is a class: the transpose map is read
    # at the first cell of each class, and must hold at every cell; the
    # witness is the least failing class and its first cell in row-major order
    tmap = rel.T.ravel()[first]
    bad = tmap[rel] != rel.T
    if bad.any():
        i = int(rel[bad].min())
        x, y = divmod(int(first[i]), size)
        raise NotAScheme("ii", (i, (x, y)), f"transpose of class {i} is not a single class")
    transpose_map = tuple(tmap.tolist())

    # (iii) constant intersection numbers, and (iv) their symmetry: for each
    # i, the products A_i A_j (j >= i) as one stack, p_ij^k read at the first
    # cell of class k in row-major order and gathered back over the grid.
    # Every partial sum of a product of 0/1 matrices is an integer of at most
    # |X| < 2^53, which float64 holds exactly, so the stacks run in float64
    if size >= FLOAT64_EXACT:
        raise NotAScheme("shape", rel.shape, f"{size} points: products would not be exact")
    adj = (rel == np.arange(d + 1)[:, None, None]).astype(np.float64)
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        prod = adj[i] @ adj[i:]
        row = prod.reshape(len(prod), -1)[:, first].astype(np.int64)
        varying = prod != row[:, rel]
        noncommuting = adj[i:] @ adj[i] != prod
        failing = (varying | noncommuting).any(axis=(1, 2))
        if failing.any():
            t = int(np.argmax(failing))
            j = i + t
            if varying[t].any():
                k = int(rel[varying[t]].min())
                bad = np.argwhere(varying[t] & (rel == k))[0]
                raise NotAScheme(
                    "iii",
                    ((i, j, k), divmod(int(first[k]), size), tuple(map(int, bad))),
                    f"|R_{i}(a) n R_{j}'(b)| is not constant on class {k}",
                )
            x, y = map(int, np.argwhere(noncommuting[t])[0])
            k = int(rel[x, y])
            raise NotAScheme("iv", (i, j, k), f"p[{i}][{j}]^{k} != p[{j}][{i}]^{k}")
        p[i, i:] = row
        p[i:, i] = row

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


# ---------------------------------------------------------------------------
# Eigenstructure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EigenData:
    """Verified eigenstructure (P, Q, idempotents) attached to a scheme."""

    scheme: SchemeData
    Q: CycMatrix
    P: CycMatrix
    multiplicities: tuple[int, ...]
    conductor: int

    @property
    def d(self) -> int:
        return self.scheme.d

    def idempotent(self, j: int) -> CycMatrix:
        """The primitive idempotent E_j as a dense |X| x |X| matrix: entry
        Q[i][j]/|X| wherever (x, y) is in R_i, one gather of Q's rows."""
        size = self.scheme.size
        gathered = self.Q.select(rows=self.scheme.relation.ravel(), cols=[j])
        return gathered.reshape(size, size).scale(Fraction(1, size))


def check_eigen_scheme(scheme: SchemeData, eigen: EigenData) -> None:
    """ValidationError unless ``eigen`` was attached to ``scheme``: the same
    object, or an equal scheme (the same relation grid)."""
    if scheme is not eigen.scheme and scheme != eigen.scheme:
        raise ValidationError("the eigendata belong to another scheme")


def as_index(value, what: str) -> int:
    """value as an int by ``operator.index`` (numpy integers pass);
    ValidationError for a bool, as in ``_integer_grid``, or a non-integer."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, not {value!r}")


def validate_indices(indices, top: int, name: str = "T") -> tuple[int, ...]:
    """The sorted distinct indices; ValidationError unless each is an
    integer (``as_index``) in 1..top."""
    out = tuple(sorted({as_index(j, f"an index of {name}") for j in indices}))
    if any(j < 1 or j > top for j in out):
        raise ValidationError(f"{name} must be a subset of 1..{top}: {out}")
    return out


def _integer_line(ints: np.ndarray, den: int, irrational: np.ndarray,
                  least: int) -> tuple[list[int], int | None]:
    """The entries of a line as integers, from the integer numerators of
    their rational parts over den and the mask of the irrational ones, and
    the index of the first entry that is not an integer >= least (None
    when every entry is one)."""
    bad = np.flatnonzero((ints % den != 0) | (ints < least * den) | irrational)
    return (ints // den).tolist(), int(bad[0]) if len(bad) else None


def _integer_entries(m: CycMatrix, least: int) -> tuple[list[int], int | None]:
    """The entries of a one-row or one-column matrix as integers, read off
    its rational part (``_integer_line``)."""
    ints, den, irrational = m.rational_part()
    return _integer_line(ints.ravel(), den, irrational.ravel(), least)


def attach_eigendata(scheme: SchemeData, Q) -> EigenData:
    """Attach and exhaustively verify a second eigenmatrix Q.

    Q must be (d+1) x (d+1) with first column all ones (so E_0 = J/|X|).
    P is read off the second orthogonality relation
    m_j P[j][i] = v_i conj(Q[i][j]) from the positive integer multiplicities
    m_j = Q[0][j] and the scheme's valencies v_i: one rational scaling of the
    rows and columns of Q^* (``CycMatrix.scale_lines``), with no diagonal
    matrix and no product.  Column 0 and the multiplicities are read off
    one rational part of Q, and PQ is compared with |X| I built from an
    integer array.  Every invariant is then
    checked exactly: PQ = |X| I (over a field a square P with this property
    is |X| Q^(-1), so a singular Q fails here), the common-eigenvector
    identity that makes each E_j idempotent and mutually orthogonal, and
    E_j^* = E_j (each E_j is an orthogonal projection), which is
    Q[i'][j] = conj(Q[i][j]) and ties Q to the transpose map.  The dual
    idempotent conj(E_j) is E_jhat with jhat = pi_{-1}(j), the permutation
    of complex conjugation (``fusion.sigma_permutations``, real subfield).
    """
    if not isinstance(Q, CycMatrix):
        Q = CycMatrix(Q)
    dp1 = scheme.classes
    size = scheme.size
    if Q.rows != dp1 or Q.cols != dp1:
        raise BadEigenbasis("shape", f"Q must be {dp1}x{dp1}")
    # column 0 and row 0 off one rational part: an entry is 1 exactly when
    # it is rational with numerator den
    ints, den, irrational = Q.rational_part()
    if (ints[:, 0] != den).any() or irrational[:, 0].any():
        raise BadEigenbasis("E0", "column 0 of Q must be all ones")

    mult, bad = _integer_line(ints[0], den, irrational[0], 1)
    if bad is not None:
        raise BadEigenbasis("multiplicity", f"Q[0][{bad}] = {Q.select(rows=[0])[0, bad]}")
    if sum(mult) != size:
        raise BadEigenbasis("multiplicity", "multiplicities do not sum to |X|")

    # Second orthogonality: m_j P[j][i] = v_i conj(Q[i][j]).  With Q[i][0] = 1
    # and m_0 = v_0 = 1 this gives P[0][i] = v_i and P[j][0] = 1 outright.
    conj = Q.conjugate()
    P = conj.transpose().scale_lines(rows=[Fraction(1, m) for m in mult], cols=scheme.valencies)
    if P * Q != CycMatrix(size * np.eye(dp1, dtype=np.int64)):
        raise BadEigenbasis("orthogonality", "PQ != |X| I")

    # Common-eigenvector identity: B_i Qcol_j = P[j][i] Qcol_j where
    # (B_i)[m][l] = p[i][l][m].  Together with PQ = |X| I this forces
    # E_j E_k = delta_{jk} E_j, sum E_j = I, and A_i = sum_j P[j][i] E_j.
    # Rows of both sides are indexed by (i, m), columns by j.
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

    # E_j^* = E_j: Q[i'][j] = conj(Q[i][j]); the witness is the first
    # failing column j, then its first failing row i
    bad = ~(Q.select(rows=scheme.transpose_map) - conj).zero_mask()
    if bad.any():
        j, i = map(int, np.argwhere(bad.T)[0])
        raise BadEigenbasis("hermitian", f"E_{j} is not Hermitian: "
                            f"Q[{scheme.transpose_map[i]}][{j}] != conj(Q[{i}][{j}])")

    return EigenData(
        scheme=scheme,
        Q=Q,
        P=P,
        multiplicities=tuple(mult),
        conductor=Q.conductor,
    )


# ---------------------------------------------------------------------------
# Krein parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KreinData:
    """The verified Krein tensor and the conductor of its field.

    ``tensor`` holds q[i][j][k] at row (d+1) i + j and column k, on the
    integer form; ``q``, the nested tuples of cells, is built on its first
    read and kept.
    """

    tensor: CycMatrix
    krein_conductor: int

    @cached_property
    def q(self) -> tuple[tuple[tuple[Cyclotomic, ...], ...], ...]:
        rows, dp1 = self.tensor.entries, self.tensor.cols
        return tuple(rows[i:i + dp1] for i in range(0, len(rows), dp1))


def krein_parameters(eigen: EigenData) -> KreinData:
    """Expand E_i o E_j in the idempotent basis to recover q[i][j][k].

    Entrywise, E_i o E_j has A_m-coefficient Q[m][i] Q[m][j] / |X|^2, so
    q[i][j][k] = (1/|X|) sum_m P[k][m] Q[m][i] Q[m][j].  The whole tensor
    comes from two contractions on the integer form: the Schur products
    W[m][(i, j)] = Q[m][i] Q[m][j], then P W / |X|.  Realness, signs and the
    Galois-fixing group are decided on its distinct columns, by images under
    every unit of those that hold an irrational entry (a rational one is real
    and fixed by every sigma_k); nonnegativity by the integer sign of rational
    entries, and by a float64 estimate under a proven error bound, or
    interval evaluation where that does not settle it, for the irrational ones.
    """
    Q, P = eigen.Q, eigen.P
    dp1 = eigen.scheme.classes
    idx = np.arange(dp1)
    w = Q.select(cols=np.repeat(idx, dp1)).schur(Q.select(cols=np.tile(idx, dp1)))
    K = (P * w).scale(Fraction(1, eigen.scheme.size))  # K[k][(i, j)] = q[i][j][k]

    def by_ijk(mask):
        return mask.reshape(dp1, dp1, dp1).transpose(1, 2, 0)

    # K[:, t] = distinct[:, inverse[t]]; moved[u] marks where sigma_k, k the
    # u-th unit, moves an entry of distinct (only an irrational one can move)
    n = eigen.conductor
    units = units_mod(n)
    distinct, inverse = K.distinct_columns()
    irrational = np.flatnonzero(distinct.rational_part()[2].any(axis=0))
    moved = np.zeros((len(units), dp1, distinct.cols), dtype=bool)
    if len(irrational):
        moved[..., irrational] = distinct.select(cols=irrational).galois_moved(units)
    nonreal = moved[units.index(-1 % n)]
    real = distinct if not nonreal.any() else distinct.schur(
        CycMatrix((~nonreal).astype(np.int64)))
    nonreal = nonreal[:, inverse]
    bad = by_ijk(nonreal | (real.signs()[:, inverse] < 0))
    if bad.any():
        i, j, k = map(int, np.argwhere(bad)[0])
        q_ijk = K[k, i * dp1 + j]
        reason = "is not real" if by_ijk(nonreal)[i, j, k] else "is negative"
        raise KreinViolation(i, j, k, f"= {q_ijk} {reason}")

    # q[0][j][k] = delta_jk, read off K[k][(0, j)]
    off = ~(K.select(cols=idx) - CycMatrix.identity(dp1)).zero_mask().T
    if off.any():
        j, k = map(int, np.argwhere(off)[0])
        raise KreinViolation(0, j, k, f"!= {1 if j == k else 0}")

    fixing = [k for k, m in zip(units, moved) if not m.any()]
    return KreinData(
        tensor=K.transpose(),  # rows (i, j), columns k
        krein_conductor=fixed_field_conductor(n, fixing),
    )
