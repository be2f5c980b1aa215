"""Conjugacy class association schemes of finite groups.

A group arrives as a multiplication table (verified); its conjugacy classes
induce the scheme with (g, h) in relation i iff g^(-1) h lies in the i-th
class.  Eigenstructure comes from a character table via
Q[i][j] = f_j conj(chi_j(g_i)), verified like any other attached
eigenmatrix.  Built-in families: cyclic, products of cyclics, and dicyclic
groups of order 4n for odd n, with their character tables and irreducible
representations.

Identities over all pairs of elements are checked for the elements of a
generating set only (``_generating_set``): associativity by Light's test,
and a representation's rho(a) rho(b) = rho(ab), one product per generator.

Class ordering is by first-occurring element; for the dicyclic builtins the
element order x^0..x^(2n-1), yx^0..yx^(2n-1) then yields classes
C_0 = {1}, C_k = {x^k, x^(2n-k)} for k < n, C_n = {x^n},
C_{n+1} = {y x^even}, C_{n+2} = {y x^odd}, pinning every regression matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec, bounded_matmul, units_mod
from .errors import (
    BadEigenbasis,
    DelsarteError,
    InternalAssertion,
    NotEigen,
    UnsupportedFamily,
    ValidationError,
)
from .fusion import (
    FusionScheme,
    _cell_labels,
    _label_cells,
    galois_fusion,
    partition_join,
)
from .scheme import (
    EigenData,
    SchemeData,
    _integer_entries,
    _integer_grid,
    attach_eigendata,
    check_eigen_scheme,
)

@dataclass(frozen=True)
class GroupTable:
    """A finite group as a verified multiplication table; identity is 0."""

    order: int
    mult: np.ndarray
    inverse: tuple[int, ...]

    def __post_init__(self):
        self.mult.setflags(write=False)

    def op(self, a: int, b: int) -> int:
        return int(self.mult[a, b])


def make_group_table(mult) -> GroupTable:
    """Validate a multiplication table: identity at 0, inverses, associativity."""
    table = _integer_grid(mult)
    if table is None:
        raise ValidationError("multiplication table must be rows of integers of one length")
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValidationError("multiplication table must be square")
    order = table.shape[0]
    if table.min() < 0 or table.max() >= order:
        raise ValidationError("table entries must be element indices")
    idx = np.arange(order)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        raise ValidationError("index 0 must be a two-sided identity")
    zeros = table == 0
    inverse = zeros.argmax(axis=1)
    lacking = np.flatnonzero((zeros.sum(axis=1) != 1) | (table[inverse, idx] != 0))
    if len(lacking):
        raise ValidationError(f"element {lacking[0]} lacks a two-sided inverse")
    if (triple := _associativity_failure(table)) is not None:
        raise ValidationError(f"associativity fails at {triple}")
    return GroupTable(order=order, mult=table, inverse=tuple(inverse.tolist()))


def _generating_set(table: np.ndarray) -> list[int]:
    """A generating set of the table: each element is the least one outside
    the closure of 0 and the ones before under all pairwise products (no
    associativity assumed).  In a group each at least doubles that closure,
    a subgroup, so there are at most log2 |G| + 1; 1 comes first."""
    inside = np.zeros(table.shape[0], dtype=bool)
    inside[0] = True
    out = []
    while not inside.all():
        out.append(g := int(np.argmin(inside)))
        inside[g] = True
        count = 0
        while (size := np.count_nonzero(inside)) != count:
            count = size
            inside[table[inside][:, inside]] = True
    return out


def _associativity_failure(table: np.ndarray) -> tuple[int, int, int] | None:
    """The first (x, g, y) with (xg)y != x(gy), or None, by Light's test.

    The g with (xg)y = x(gy) for all x, y include the identity and are
    closed under products ((x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) =
    x((ab)y)), so they are every element once they include a set that
    generates the table under its product.  The g checked, in order, are
    ``_generating_set``'s, each by one |G| x |G| comparison.
    """
    for g in _generating_set(table):
        bad = np.argwhere(table[table[:, g]] != table[:, table[g]])
        if len(bad):
            x, y = map(int, bad[0])
            return x, g, y
    return None


@dataclass(frozen=True)
class ConjClassData:
    """Conjugacy classes of a group, C_0 the singleton identity class."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def representative(self, i: int) -> int:
        return self.classes[i][0]


def conjugacy_classes(group: GroupTable) -> ConjClassData:
    """Classes keyed by their least element, so ordered by first occurrence.

    conj[x, g] = x^(-1) g x is one gather of the multiplication table; the
    class of g is column g, and its least entry labels it.
    """
    mult = group.mult
    x = np.arange(group.order)
    conj = mult[mult[np.asarray(group.inverse, dtype=np.intp)], x[:, None]]
    classes = _label_cells(conj.min(axis=0).tolist())
    return ConjClassData(classes=classes, class_of=_cell_labels(classes, group.order))


def conj_class_scheme(group: GroupTable) -> tuple[SchemeData, ConjClassData]:
    """The scheme with (g, h) in R_i iff g^(-1) h lies in class C_i.

    The scheme is read off the verified group, not re-verified from its
    grid: left translation (g, h) -> (xg, xh) and conjugation
    (g, h) -> (x^(-1) g x, x^(-1) h x) preserve every relation, so
    p[i][j][k] = #{z in C_i : z^(-1) g_k in C_j} at one representative g_k
    of each class, all counted by one offset ``bincount``; it is symmetric
    in i and j because class sums are central.  R_k's transpose is the
    class of g_k^(-1), and its valency |C_k|.
    """
    classes = conjugacy_classes(group)
    dp1 = len(classes.classes)
    inv = np.array(group.inverse, dtype=np.intp)
    lookup = np.array(classes.class_of, dtype=np.int64)
    rel = lookup[group.mult[inv, :]]
    reps = np.array([cell[0] for cell in classes.classes], dtype=np.intp)
    # cell (z, k): i = class of z, j = class of z^(-1) g_k, counted at (i, j, k)
    offsets = (lookup[:, None] * dp1 + rel[:, reps]) * dp1 + np.arange(dp1)
    p = np.bincount(offsets.ravel(), minlength=dp1**3).reshape(dp1, dp1, dp1)
    scheme = SchemeData(
        size=group.order,
        classes=dp1,
        relation=rel,
        transpose_map=tuple(lookup[inv[reps]].tolist()),
        valencies=classes.sizes,
        intersection=p.astype(np.int64, copy=False),
    )
    return scheme, classes


# ---------------------------------------------------------------------------
# Character tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterTable:
    """Irreducible character values as one exact matrix: rows are the
    characters, columns the classes."""

    matrix: CycMatrix
    degrees: tuple[int, ...]

    @property
    def conductor(self) -> int:
        return self.matrix.conductor

    @property
    def rows(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        return self.matrix.entries

    @property
    def count(self) -> int:
        return self.matrix.rows


def make_character_table(grid: CycMatrix) -> CharacterTable:
    """A character table whose rows are the characters, as one matrix; the
    degrees, its first column, must be positive integers."""
    if not grid.cols:
        raise ValidationError("a character table needs at least one class")
    first_col = grid.select(cols=[0])
    degrees, bad = _integer_entries(first_col, 1)
    if bad is not None:
        raise ValidationError(
            f"degree of character {bad} is {first_col[bad, 0]}, not a positive integer"
        )
    return CharacterTable(matrix=grid, degrees=tuple(degrees))


def _check_table_form(table: CharacterTable, classes: ConjClassData) -> None:
    """The cheap checks of a character table: one row and one column per
    class, and the trivial character as the first row."""
    dp1 = len(classes.classes)
    if (table.matrix.rows, table.matrix.cols) != (dp1, dp1):
        raise BadEigenbasis("character_table_shape")
    if table.matrix.select(rows=[0]) != CycMatrix(np.ones((1, dp1), dtype=np.int64)):
        raise BadEigenbasis("trivial_character", "first row must be all ones")


def verify_character_table(
    table: CharacterTable, group: GroupTable, classes: ConjClassData
) -> None:
    """Check shape, the trivial first row and the orthogonality of the rows.

    With X the table and D = diag(|C_i|), row orthogonality is
    X D X^* = |G| I, one kernel product (X D is a scaling of the columns of
    X).  Column orthogonality, X^T conj(X) = |G| D^(-1), is implied and not
    checked: X D X^* / |G| = I makes D X^* / |G| the inverse of the square
    matrix X, so D X^* X = |G| I too, whose conjugate is the column relation
    (Isaacs, *Character Theory of Finite Groups*, 1976, ch. 2).
    """
    _check_table_form(table, classes)
    x = table.matrix
    eye = CycMatrix(group.order * np.eye(x.rows, dtype=np.int64))
    rows = x.scale_lines(cols=classes.sizes) * x.adjoint() - eye
    bad = np.argwhere(np.triu(~rows.zero_mask()))
    if len(bad):
        j, k = map(int, bad[0])
        raise BadEigenbasis("character_row_orthogonality", f"rows {j}, {k}")


def eigendata_from_characters(
    group: GroupTable,
    classes: ConjClassData,
    table: CharacterTable,
    scheme: SchemeData,
) -> EigenData:
    """Eigenstructure of ``scheme``, which the caller has built as the
    group's conjugacy class scheme (``conj_class_scheme``), from its
    character table.

    Q[i][j] = f_j conj(chi_j(g_i)); the attached data is verified in full
    and the multiplicities must come out as the squared degrees.

    On the table's own class scheme (|X| = |G| and v_i = |C_i|), the table
    needs no orthogonality product of its own.  With m_j = f_j^2 read off
    Q's first row, attach's P = diag(1/m) Q^* diag(v) gives
    (PQ)[j][k] = (f_k / f_j) (X D X^*)[j][k], so the PQ = |X| I that attach
    proves is the row orthogonality X D X^* = |G| I of
    ``verify_character_table``.  Attach proves it from its generic-element
    certificate on the class scheme, with no product P Q, or by the product
    where the certificate fails.  So after the cheap checks of shape and
    trivial row, a valid table makes only attach's products; where anything
    raises, the full check runs first, so a bad table reports today's
    error, invariant and witness.  On any other scheme the full check runs
    first, as before.
    """
    _check_table_form(table, classes)
    own = scheme.size == group.order and scheme.valencies == classes.sizes
    if not own:
        verify_character_table(table, group, classes)
        return _attach_characters(table, scheme)
    try:
        return _attach_characters(table, scheme)
    except DelsarteError:
        verify_character_table(table, group, classes)
        raise


def _attach_characters(table, scheme) -> EigenData:
    """Q = X^* diag(f) attached to the scheme, and the multiplicities
    checked as the squared degrees."""
    q = table.matrix.adjoint().scale_lines(cols=table.degrees)
    eigen = attach_eigendata(scheme, q)
    expected = tuple(f * f for f in table.degrees)
    if eigen.multiplicities != expected:
        raise BadEigenbasis(
            "multiplicity_squares",
            f"{eigen.multiplicities} != squared degrees {expected}",
        )
    return eigen


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def cyclic_group(n: int):
    """Z_n with characters chi_j(g_i) = zeta_n^(ij)."""
    if n < 1:
        raise UnsupportedFamily("cyclic(n) requires n >= 1")
    return abelian_group(n)


def abelian_group(*orders: int):
    """Direct product of cyclic groups with product characters."""
    if not orders or any(m < 1 for m in orders):
        raise UnsupportedFamily("abelian(...) requires positive orders")
    # coords[:, g] is element g's tuple, in np.ndindex order
    shape = np.array(orders)[:, None]
    coords = np.indices(orders).reshape(len(orders), -1)
    sums = (coords[:, :, None] + coords[:, None, :]) % shape[..., None]
    group = make_group_table(np.ravel_multi_index(tuple(sums), orders))
    classes = conjugacy_classes(group)
    L = math.lcm(*orders)
    exponents = bounded_matmul(((L // shape) * coords).T, coords) % L
    rows = [[[(e, 1)] for e in row] for row in exponents.tolist()]
    return group, classes, make_character_table(CycMatrix.from_terms(L, rows))


def dicyclic_group(n: int):
    """Dic_n of order 4n for odd n >= 3, with the standard character table.

    Elements are indexed x^0..x^(2n-1), y x^0..y x^(2n-1); multiplication
    follows x^k x^l = x^(k+l), x^k (y x^l) = y x^(l-k),
    (y x^k) x^l = y x^(k+l), (y x^k)(y x^l) = x^(n+l-k).
    """
    if n < 3 or n % 2 == 0:
        raise UnsupportedFamily(
            "dicyclic(n) is supported for odd n >= 3 only; for even n the "
            "scheme coincides with the dihedral one"
        )
    two_n = 2 * n
    y, k = np.divmod(np.arange(4 * n), two_n)
    ya, ka, yb, kb = y[:, None], k[:, None], y[None, :], k[None, :]
    # the four cases in one: x^(kb + (-1)^yb ka + n ya yb), y-part ya xor yb
    mult = two_n * (ya ^ yb) + (kb + (1 - 2 * yb) * ka + n * ya * yb) % two_n
    group = make_group_table(mult)
    classes = conjugacy_classes(group)
    expected = [(0,)]
    expected += [tuple(sorted((k, two_n - k))) for k in range(1, n)]
    expected += [(n,)]
    expected += [tuple(two_n + 2 * k for k in range(n))]
    expected += [tuple(two_n + 2 * k + 1 for k in range(n))]
    if classes.classes != tuple(expected):
        raise InternalAssertion("unexpected dicyclic class order")

    # term lists over Q(zeta_4n): i = zeta^n, kappa(r) = zeta^(2r) + zeta^(-2r)
    one, minus, i_unit, minus_i = [(0, 1)], [(0, -1)], [(n, 1)], [(n, -1)]
    signs = [one if k % 2 == 0 else minus for k in range(n + 1)]
    rows = [
        [one] * (n + 3),
        [one] * (n + 1) + [minus, minus],
        signs + [i_unit, minus_i],
        signs + [minus_i, i_unit],
    ]
    for r in range(1, n):
        kappa = [[(2 * r * k, 1), (-2 * r * k, 1)] for k in range(1, n + 1)]
        rows.append([[(0, 2)]] + kappa + [[], []])
    return group, classes, make_character_table(CycMatrix.from_terms(4 * n, rows))


_FAMILIES = {
    "cyclic": cyclic_group,
    "abelian": abelian_group,
    "dicyclic": dicyclic_group,
}


def builtin_group(family: str, *params: int):
    """Dispatch to a built-in family: cyclic(n), abelian(n1, ...), dicyclic(n)."""
    if family not in _FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}")
    if family != "abelian" and len(params) != 1:
        raise UnsupportedFamily(f"{family}(n) takes one parameter, not {len(params)}")
    return _FAMILIES[family](*params)


# ---------------------------------------------------------------------------
# Rational class fusion
# ---------------------------------------------------------------------------

def rational_classes(group: GroupTable, classes: ConjClassData):
    """Partition of class indices closing each class under g -> g^m,
    gcd(m, order(g)) = 1: the join of the cells {class(g^m)}, one per class
    (m = 1 puts g's own class in its cell); g^0..g^(o-1) are one walk."""
    cells = []
    for g in map(classes.representative, range(len(classes.classes))):
        powers = [0]
        while (x := int(group.mult[powers[-1], g])) != 0:
            powers.append(x)
        cells.append([classes.class_of[powers[m]] for m in units_mod(len(powers))])
    return partition_join(cells, (), len(cells))


def rational_class_fusion(
    group: GroupTable,
    classes: ConjClassData,
    scheme: SchemeData,
    eigen: EigenData,
) -> tuple[tuple[tuple[int, ...], ...], FusionScheme]:
    """Fuse along rational conjugacy classes: the Galois fusion over Q,
    built once, whose relation partition must be the rational classes
    (asserted; equal partitions give the same fused relation)."""
    check_eigen_scheme(scheme, eigen)
    partition = rational_classes(group, classes)
    galois = galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor))
    if galois.partition != partition:
        raise InternalAssertion(
            "rational classes disagree with the Galois fusion over Q: "
            f"{partition} vs {galois.partition}"
        )
    return partition, galois


# ---------------------------------------------------------------------------
# Representations and the diagonalisation of the Bose-Mesner algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Representation:
    """A matrix representation of degree f as one |G| x f^2 block U whose
    row g is vec(rho(g)), the entries of rho(g) in row-major order.  U is
    also the eigenvector block that ``representation_eigenvectors`` returns."""

    degree: int
    U: CycMatrix


def verify_representation(group: GroupTable, rho: Representation) -> CycMatrix:
    """Check rho(0) = I and rho(a) rho(b) = rho(ab) for all a, b; returns the
    traces as a |G| x 1 column, for a caller to compare with a character.

    The homomorphism is checked for a in ``_generating_set`` and every b.
    That suffices: the a for which it holds for all b include 0 and are
    closed under left multiplication by each generator g, since
    rho(ga) rho(b) = rho(g) rho(ab) = rho(gab), so they are the whole group.
    Each a is one product rho(a) R, with R = U rearranged as f x (|G| f)
    (column (b, c) is column c of rho(b)), against the same rearrangement of
    the rows mult[a, b] of U.  A failure names the first failing generator
    a and its least b; 1 comes first, so that is the lexicographically
    first failing pair whenever some rho(1) rho(b) fails.
    """
    f, order, u = rho.degree, group.order, rho.U
    if (u.rows, u.cols) != (order, f * f):
        raise ValidationError("U needs one row of f^2 entries per group element")
    if u.select(rows=[0]) != CycMatrix.identity(f).reshape(1, f * f):
        raise ValidationError("identity must map to the identity matrix")
    g, s = np.arange(order), np.arange(f)
    # row (b, r) of a |G| x f^2 block as (|G| f) x f is row r of its b-th
    # matrix; taken in (r, b) order they make the f x (|G| f) rearrangement
    order_rb = (f * g[None, :] + s[:, None]).ravel()

    def rearranged(m):
        return m.reshape(order * f, f).select(rows=order_rb).reshape(f, order * f)

    right = rearranged(u)
    for a in _generating_set(group.mult):
        expected = rearranged(u.select(rows=group.mult[a]))
        bad = ~(u.select(rows=[a]).reshape(f, f) * right - expected).zero_mask()
        if bad.any():
            b = int(np.argmax(bad.reshape(f, order, f).any(axis=(0, 2))))
            raise ValidationError(f"rho({a}) rho({b}) != rho({a}*{b})")
    return u.select(cols=s * (f + 1)) * CycMatrix(np.ones((f, 1), dtype=np.int64))


def representation_eigenvectors(
    group: GroupTable,
    rho: Representation,
    scheme: SchemeData,
    classes: ConjClassData,
) -> CycMatrix:
    """The |G| x f^2 eigenvector block U with row g = vec(rho(g)).

    Verifies A_i U = theta_i U exactly for every class i, with
    theta_i = |C_i| chi(g_i) / f.  Since row g of A_i U is
    vec(rho(g) sum_{a in C_i} rho(a)), the identity for all g amounts to
    the class sum being theta_i I (Schur's lemma made explicit); all class
    sums are one product of U with the 0/1 class-indicator matrix.
    """
    traces = verify_representation(group, rho)
    f, u = rho.degree, rho.U
    indicator = np.zeros((len(classes.classes), group.order), dtype=np.int64)
    indicator[classes.class_of, np.arange(group.order)] = 1
    chi = traces.select(rows=[cell[0] for cell in classes.classes])
    theta = chi.scale_lines(rows=[Fraction(len(cell), f) for cell in classes.classes])
    expected = theta * CycMatrix.identity(f).reshape(1, f * f)
    wrong = ~(u.left_rational(indicator) - expected).zero_mask()
    if wrong.any():
        i = int(np.argmax(wrong.any(axis=1)))
        raise NotEigen(i, f"class sum is not {theta[i, 0]} I")
    return u


def builtin_representations(family: str, *params: int) -> list[Representation]:
    """One irreducible representation per character row of a built-in family.

    An abelian group's (a cyclic group's too) are its characters,
    rho_j(g) = chi_j(g).  Of dicyclic(n), the linear ones send x^k and
    y x^k to (-1)^(sx k + sy y) zeta_4n^(e y) (y = 0, 1) for
    (sx, sy, e) = (0, 0, 0), (0, 1, 0), (1, 0, n), (1, 1, n); the r-th
    two-dimensional one sends x to diag(zeta_2n^r, zeta_2n^(-r)) and y to
    [[0, 1], [(-1)^r, 0]].
    """
    if family in ("cyclic", "abelian"):
        _, classes, table = builtin_group(family, *params)
        chars = table.matrix.select(cols=classes.class_of)
        return [Representation(1, chars.select(rows=[j]).transpose()) for j in range(table.count)]
    if family != "dicyclic":
        raise UnsupportedFamily(f"unknown family {family!r}")
    if len(params) != 1 or params[0] < 3 or params[0] % 2 == 0:
        raise UnsupportedFamily("dicyclic representations need one odd n >= 3")
    (n,) = params
    m = 4 * n
    two_n = 2 * n
    elements = [divmod(g, two_n) for g in range(m)]
    out = []
    for sx, sy, e in ((0, 0, 0), (0, 1, 0), (1, 0, n), (1, 1, n)):
        cells = [[[(e * yg, (-1) ** (sx * kg + sy * yg))]] for yg, kg in elements]
        out.append(Representation(1, CycMatrix.from_terms(m if e else 1, cells)))
    for r in range(1, n):
        cells = [
            [[], [(-r * kg, 1)], [(r * kg, (-1) ** r)], []] if yg
            else [[(r * kg, 1)], [], [], [(-r * kg, 1)]]
            for yg, kg in elements
        ]
        out.append(Representation(2, CycMatrix.from_terms(two_n, cells)))
    return out
