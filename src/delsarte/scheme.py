"""Association schemes: axiom verification, intersection numbers, and
attachment of exact eigenstructure.

A scheme is presented as an |X| x |X| grid of class indices partitioning
X x X.  ``verify_scheme`` checks the four defining axioms, with the products
A_i A_j as one float64 stack per i (exact: 0/1 products have integer partial
sums of at most |X| < 2^53), and records the intersection tensor.
Eigenstructure is always supplied (a second eigenmatrix Q) and verified,
never solved for: ``attach_eigendata`` derives P from the second
orthogonality relation and proves PQ = |X| I (so P = |X| Q^(-1)) and every
other structural identity exactly, so results stay in exact arithmetic end
to end.  A valid Q is accepted by four checks on one generic element
B = sum_i c_i B_i of the intersection algebra, with no product of two
cyclotomic matrices but one entrywise scaling; anything else runs the
identities one by one, so the verdict and its witness never depend on c.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import (
    CycMatrix,
    Cyclotomic,
    bounded_matmul,
    fixed_field_conductor,
    units_mod,
)
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
        Q[i][j]/|X| wherever (x, y) is in R_i, one gather of Q's rows.
        ValidationError unless j is an integer in 0..d (``index_upto``)."""
        j = index_upto(j, self.d, "an idempotent index")
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


def index_upto(value, top: int, what: str) -> int:
    """value as an int (``as_index``); ValidationError unless it is in 0..top."""
    j = as_index(value, what)
    if not 0 <= j <= top:
        raise ValidationError(f"{what} must be in 0..{top}: {j}")
    return j


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


#: the weights c_i of the generic element lie in [-WEIGHT_BOUND, WEIGHT_BOUND)
WEIGHT_BOUND = 1 << 20


@lru_cache(maxsize=64)
def _generic_weights(count: int) -> np.ndarray:
    """Read-only int64 weights c_0 .. c_{count-1} in [-2^20, 2^20): the top
    21 bits of a 64-bit linear congruential sequence from a fixed seed
    (Knuth's MMIX multiplier and increment), so every run picks the same
    element and no global random state is touched."""
    x, out = 1, []
    for _ in range(count):
        x = (6364136223846793005 * x + 1442695040888963407) % (1 << 64)
        out.append((x >> 43) - WEIGHT_BOUND)
    c = np.array(out, dtype=np.int64)
    c.setflags(write=False)
    return c


def _generic_certificate(scheme: SchemeData, Q: CycMatrix, conj: CycMatrix,
                         inverse: list[Fraction]) -> bool:
    """True when Q passes the four checks of one generic element (see
    ``attach_eigendata``): (r) Q 1 = |X| e_0, (h) Q[i'][j] = conj(Q[i][j]),
    (a) B Q = Q diag(mu) with mu_j = (BQ)[0][j] / m_j, and (b) the mu_j
    pairwise distinct.  ``inverse`` holds the 1 / m_j."""
    dp1, size = scheme.classes, scheme.size
    column = np.zeros((dp1, 1), dtype=np.int64)
    column[0] = size
    if Q * CycMatrix(np.ones((dp1, 1), dtype=np.int64)) != CycMatrix(column):
        return False
    if Q.select(rows=scheme.transpose_map) != conj:
        return False
    # B[m][l] = sum_i c_i p[i][l][m], exact (|B| <= 2^20 |X|, in int64 below 2^62)
    p = scheme.intersection.reshape(dp1, dp1 * dp1)
    B = bounded_matmul(_generic_weights(dp1)[None], p, WEIGHT_BOUND, size).reshape(dp1, dp1).T
    BQ = Q.left_lifted(B, 1)
    mu = BQ.select(rows=[0]).scale_lines(cols=inverse)
    if len(set(mu.transpose().line_labels())) != dp1:
        return False
    return Q.schur(mu.select(rows=np.zeros(dp1, dtype=np.intp))) == BQ


def _full_identities(scheme: SchemeData, Q: CycMatrix, P: CycMatrix, conj: CycMatrix) -> None:
    """Check PQ = |X| I, then the common-eigenvector identity, then
    E_j^* = E_j, and raise BadEigenbasis at the first that fails."""
    dp1, size = scheme.classes, scheme.size
    if P * Q != CycMatrix(size * np.eye(dp1, dtype=np.int64)):
        raise BadEigenbasis("orthogonality", "PQ != |X| I")

    # Common-eigenvector identity: B_i Qcol_j = P[j][i] Qcol_j where
    # (B_i)[m][l] = p[i][l][m].  Together with PQ = |X| I this forces
    # E_j E_k = delta_{jk} E_j, sum E_j = I, and A_i = sum_j P[j][i] E_j.
    # One i at a time, B_i Q against Q with column j scaled by P[j][i], so
    # at most (d+1)^2 entries are held; bad[i][j] marks a failure
    Pt = P.transpose()
    bad = np.zeros((dp1, dp1), dtype=bool)
    for i in range(dp1):
        lhs = Q.left_rational(scheme.intersection[i].T)
        rhs = Q.schur(Pt.select(rows=np.full(dp1, i)))
        bad[i] = ~(lhs - rhs).zero_mask().all(axis=0)
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


def attach_eigendata(scheme: SchemeData, Q) -> EigenData:
    """Attach and exhaustively verify a second eigenmatrix Q.

    Q must be (d+1) x (d+1) with first column all ones (so E_0 = J/|X|).
    P is read off the second orthogonality relation
    m_j P[j][i] = v_i conj(Q[i][j]) from the positive integer multiplicities
    m_j = Q[0][j] and the scheme's valencies v_i: one rational scaling of the
    rows and columns of Q^* (``CycMatrix.scale_lines``), with no diagonal
    matrix and no product.  Column 0 and the multiplicities are read off
    one rational part of Q.  Every invariant is then proved exactly: PQ =
    |X| I (over a field a square P with this property is |X| Q^(-1), so a
    singular Q fails), the common-eigenvector identity
    B_i Q_j = P[j][i] Q_j, with (B_i)[m][l] = p[i][l][m] and Q_j column j
    of Q, that makes each E_j idempotent and the E_j mutually orthogonal,
    and E_j^* = E_j (each E_j is an orthogonal projection), which is
    Q[i'][j] = conj(Q[i][j]) and ties Q to the transpose map.

    Q is accepted by one generic element B = sum_i c_i B_i, one integer
    matrix for fixed integer weights c_i (``_generic_weights``), when four
    checks hold (``_generic_certificate``):

    (r) Q 1 = |X| e_0, the row sums;
    (a) B Q = Q diag(mu), with mu_j = (BQ)[0][j] / m_j: one integer product
        and one entrywise scaling of Q;
    (b) the mu_j are pairwise distinct (the line labels of mu);
    (h) Q[i'][j] = conj(Q[i][j]).

    On a verified commutative scheme these imply every identity above.  By
    (a) and (b) the columns of Q, nonzero since Q[0][j] = m_j, are
    eigenvectors of B with pairwise distinct eigenvalues, so they are
    linearly independent and each spans a simple eigenline of B.  Each B_i
    commutes with B (the B_i are the regular representation of the
    commutative Bose-Mesner algebra), so it maps each eigenline into
    itself: B_i Q_j = lambda_ij Q_j.  Row 0 of B_i is v_i e_{i'}, so
    lambda_ij m_j = v_i Q[i'][j], which by (h) is v_i conj(Q[i][j]) =
    m_j P[j][i]: the eigenvector identity.  It gives A_i E_j = P[j][i] E_j,
    so E_j E_k = ((PQ)[j][k] / |X|) E_j = ((PQ)[k][j] / |X|) E_k.  The E_j
    are linearly independent (as the columns of Q are), so PQ is zero off
    the diagonal, and (r), which is sum_j E_j = I, gives
    E_j = E_j sum_k E_k = E_j^2 = ((PQ)[j][j] / |X|) E_j, so
    (PQ)[j][j] = |X|.  So the accepted path forms no P Q and no product of
    two cyclotomic matrices but the scaling in (a).

    If any of (r), (a), (b) or (h) fails, the identities run one by one
    (``_full_identities``): PQ = |X| I, the eigenvector identity for one
    B_i at a time, then E_j^* = E_j; the first that fails raises
    :class:`BadEigenbasis` with its first (j, i) witness.  So the verdict
    and the witness never depend on c, which affects only speed.  The dual
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
    inverse = [Fraction(1, m) for m in mult]
    conj = Q.conjugate()
    P = conj.transpose().scale_lines(rows=inverse, cols=scheme.valencies)
    if not _generic_certificate(scheme, Q, conj, inverse):
        _full_identities(scheme, Q, P, conj)

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


@lru_cache(maxsize=64)
def _unordered_pairs(dp1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unordered pairs i <= j of 0..dp1-1 as two index arrays, row by
    row, and for each ordered pair (i, j), in row-major order, the index of
    its unordered pair."""
    first, second = np.triu_indices(dp1)
    pair = np.zeros((dp1, dp1), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(len(first))
    for a in (first, second, pair):
        a.setflags(write=False)
    return first, second, pair.ravel()


def krein_parameters(eigen: EigenData) -> KreinData:
    """Expand E_i o E_j in the idempotent basis to recover q[i][j][k].

    Entrywise, E_i o E_j has A_m-coefficient Q[m][i] Q[m][j] / |X|^2, so
    q[i][j][k] = (1/|X|) sum_m P[k][m] Q[m][i] Q[m][j], that is K = P W / |X|
    with the Schur products W[m][(i, j)] = Q[m][i] Q[m][j].  Since
    q[i][j][k] = q[j][i][k], W is formed at the unordered pairs i <= j only,
    and K gathered back to every (i, j).

    The tensor is first guessed: P W / |X| in complex128, rounded to the
    grid 1 / L with L = |X| lcm(m_j) (``CycMatrix.rational_guess``).  A
    rational guess K^ is accepted only if Q K^ = W exactly, one integer by
    cyclotomic product; ``attach_eigendata`` proved PQ = |X| I (from its
    generic-element certificate, or by the product where that fails), so Q
    is invertible and K^ is then P W / |X|, whatever produced it.  An accepted
    tensor is held over Q (conductor 1): it is real, fixed by every sigma_k
    (so the Krein conductor is 1), and its signs are integer signs.
    Everywhere else (a guess off the grid or not real, numerators beyond
    int64, a failed certificate) K is P W / |X| on the integer form.
    Realness and the Galois-fixing group are then decided by images under
    every unit of its columns that hold an irrational entry (a rational one
    is real and fixed by every sigma_k); nonnegativity by the integer sign
    of rational entries, and by a float64 estimate under a proven error
    bound, or interval evaluation where that does not settle it, for the
    irrational ones.  A rejection names the first bad (i, j, k).
    """
    Q, P = eigen.Q, eigen.P
    dp1, size, n = eigen.scheme.classes, eigen.scheme.size, eigen.conductor
    idx = np.arange(dp1)
    first, second, pair = _unordered_pairs(dp1)
    w = Q.select(cols=first).schur(Q.select(cols=second))
    scaled = P.scale(Fraction(1, size))
    half = scaled.rational_guess(w, size * math.lcm(*eigen.multiplicities))

    # moved[u] marks where sigma_k, k the u-th unit, moves an entry (only an
    # irrational one can move, so none of a certified tensor)
    units = units_mod(n)
    moved = np.zeros((len(units), dp1, len(first)), dtype=bool)
    if half is None or Q * half != w:
        half = scaled * w
        irrational = np.flatnonzero(half.rational_part()[2].any(axis=0))
        if len(irrational):
            moved[..., irrational] = half.select(cols=irrational).galois_moved(units)
    K, moved = half.select(cols=pair), moved[..., pair]  # K[k][(i, j)] = q[i][j][k]

    def by_ijk(mask):
        return mask.reshape(dp1, dp1, dp1).transpose(1, 2, 0)

    # the sweep decided realness, so the signs need no second conjugation
    nonreal = moved[units.index(-1 % n)]
    real = K if not nonreal.any() else K.schur(CycMatrix((~nonreal).astype(np.int64)))
    bad = by_ijk(nonreal | (real._real_signs() < 0))
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
