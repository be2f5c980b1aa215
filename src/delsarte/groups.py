"""Conjugacy class association schemes of finite groups.

A group arrives as a multiplication table (verified); its conjugacy classes
induce the scheme with (g, h) in relation i iff g^(-1) h lies in the i-th
class.  Eigenstructure comes from a character table via
Q[i][j] = f_j conj(chi_j(g_i)), verified like any other attached
eigenmatrix.  Built-in families: cyclic, products of cyclics, and dicyclic
groups of order 4n for odd n, with their character tables and irreducible
representations.

Class ordering is by first-occurring element; for the dicyclic builtins the
element order x^0..x^(2n-1), yx^0..yx^(2n-1) then yields classes
C_0 = {1}, C_k = {x^k, x^(2n-k)} for k < n, C_n = {x^n},
C_{n+1} = {y x^even}, C_{n+2} = {y x^odd}, pinning every regression matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec, units_mod
from .errors import (
    BadEigenbasis,
    InternalAssertion,
    NotEigen,
    UnsupportedFamily,
    ValidationError,
)
from .fusion import (
    FusionScheme,
    _cell_labels,
    _label_cells,
    fuse_by_relation_partition,
    galois_fusion,
    partition_join,
)
from .scheme import EigenData, SchemeData, attach_eigendata, verify_scheme

zeta = Cyclotomic.zeta

#: beyond this order, associativity is checked on random triples only
FULL_ASSOCIATIVITY_CAP = 128


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

    def power(self, g: int, m: int) -> int:
        if m < 0:
            return self.power(self.inverse[g], -m)
        out = 0
        for _ in range(m):
            out = int(self.mult[out, g])
        return out

    def element_order(self, g: int) -> int:
        out, n = int(self.mult[0, g]), 1
        while out != 0:
            out = int(self.mult[out, g])
            n += 1
        return n


def make_group_table(mult, rng_seed: int = 0) -> GroupTable:
    """Validate a multiplication table: identity at 0, inverses, associativity."""
    table = np.asarray(mult, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValidationError("multiplication table must be square")
    order = table.shape[0]
    if table.min() < 0 or table.max() >= order:
        raise ValidationError("table entries must be element indices")
    idx = np.arange(order)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        raise ValidationError("index 0 must be a two-sided identity")
    inverse = []
    for a in range(order):
        inv = np.flatnonzero(table[a] == 0)
        if len(inv) != 1 or table[inv[0], a] != 0:
            raise ValidationError(f"element {a} lacks a two-sided inverse")
        inverse.append(int(inv[0]))
    if order <= FULL_ASSOCIATIVITY_CAP:
        left = table[table]          # left[a,b,c] = (ab)c
        right = table[:, table]      # right[a,b,c] = a(bc)
        if not np.array_equal(left, right):
            raise ValidationError("multiplication is not associative")
    else:
        rng = random.Random(rng_seed)
        for _ in range(20000):
            a, b, c = (rng.randrange(order) for _ in range(3))
            if table[table[a, b], c] != table[a, table[b, c]]:
                raise ValidationError(f"associativity fails at {(a, b, c)}")
    return GroupTable(order=order, mult=table, inverse=tuple(inverse))


@dataclass(frozen=True)
class ConjClassData:
    """Conjugacy classes of a group, C_0 the singleton identity class."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    class_inverse_map: tuple[int, ...]

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
    class_of = _cell_labels(classes, group.order)
    return ConjClassData(
        classes=classes,
        class_of=class_of,
        class_inverse_map=tuple(class_of[group.inverse[c[0]]] for c in classes),
    )


def conj_class_scheme(group: GroupTable) -> tuple[SchemeData, ConjClassData]:
    """The scheme with (g, h) in R_i iff g^(-1) h lies in class C_i.

    The relation grid is verified against all four axioms, which in
    particular confirms the scheme is commutative.
    """
    classes = conjugacy_classes(group)
    inv = np.array(group.inverse, dtype=np.int64)
    lookup = np.array(classes.class_of, dtype=np.int64)
    rel = lookup[group.mult[inv, :]]
    return verify_scheme(rel), classes


def group_intersection_number(
    group: GroupTable, classes: ConjClassData, i: int, j: int, k: int
) -> int:
    """p[i][j][k] from the class formula |C_i n z C_j^(-1)|, z in C_k."""
    z = classes.representative(k)
    cj_inv = {group.inverse[h] for h in classes.classes[j]}
    z_cj_inv = {group.op(z, h) for h in cj_inv}
    return len(set(classes.classes[i]) & z_cj_inv)


# ---------------------------------------------------------------------------
# Character tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterTable:
    """Irreducible character values by (character row, class column)."""

    conductor: int
    rows: tuple[tuple[Cyclotomic, ...], ...]
    degrees: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.rows)

    def value(self, j: int, i: int) -> Cyclotomic:
        return self.rows[j][i]

    @cached_property
    def matrix(self) -> CycMatrix:
        """The table as one exact matrix (rows are characters)."""
        return CycMatrix(self.rows, self.conductor)


def make_character_table(grid: CycMatrix) -> CharacterTable:
    """A character table whose rows are the characters, as one matrix."""
    degrees = []
    for j in range(grid.rows):
        f = grid[j, 0]
        if not (f.is_rational() and f.as_rational().denominator == 1
                and f.as_rational() > 0):
            raise ValidationError(f"degree of character {j} is {f}, not a positive integer")
        degrees.append(int(f.as_rational()))
    table = CharacterTable(
        conductor=grid.conductor,
        rows=grid.entries,
        degrees=tuple(degrees),
    )
    table.__dict__["matrix"] = grid  # the cached matrix is the one just built
    return table


def verify_character_table(
    table: CharacterTable, group: GroupTable, classes: ConjClassData
) -> None:
    """Check shape, the trivial first row and both orthogonality relations.

    With X the table and D = diag(|C_i|), row orthogonality is
    X D X^* = |G| I and column orthogonality is X^T conj(X) = |G| D^(-1),
    each one kernel product.
    """
    dp1 = len(classes.classes)
    if table.count != dp1 or any(len(r) != dp1 for r in table.rows):
        raise BadEigenbasis("character_table_shape")
    x = table.matrix
    if x.select(rows=[0]) != CycMatrix([[1] * dp1]):
        raise BadEigenbasis("trivial_character", "first row must be all ones")
    order = group.order
    sizes = classes.sizes
    rows = x * CycMatrix.diagonal(sizes) * x.adjoint() - CycMatrix.identity(dp1).scale(order)
    bad = np.argwhere(np.triu(~rows.zero_mask()))
    if len(bad):
        j, k = map(int, bad[0])
        raise BadEigenbasis("character_row_orthogonality", f"rows {j}, {k}")
    cols = x.transpose() * x.conjugate() - CycMatrix.diagonal(
        [Fraction(order, size) for size in sizes]
    )
    bad = np.argwhere(np.triu(~cols.zero_mask()))
    if len(bad):
        a, b = map(int, bad[0])
        raise BadEigenbasis("character_column_orthogonality", f"classes {a}, {b}")


def eigendata_from_characters(
    group: GroupTable,
    classes: ConjClassData,
    table: CharacterTable,
    scheme: SchemeData | None = None,
) -> EigenData:
    """Eigenstructure of the conjugacy class scheme from its character table.

    Q[i][j] = f_j conj(chi_j(g_i)); the attached data is verified in full
    and the multiplicities must come out as the squared degrees.
    """
    verify_character_table(table, group, classes)
    if scheme is None:
        scheme, found = conj_class_scheme(group)
        if found.classes != classes.classes:
            raise BadEigenbasis("class_order", "classes disagree with the group")
    q = table.matrix.adjoint() * CycMatrix.diagonal(table.degrees)
    eigen = attach_eigendata(scheme, q)
    expected = tuple(f * f for f in table.degrees)
    if eigen.multiplicities != expected:
        raise BadEigenbasis(
            "multiplicity_squares",
            f"{eigen.multiplicities} != squared degrees {expected}",
        )
    return eigen


def character_product_multiplicities(
    table: CharacterTable, classes: ConjClassData, order: int, i: int, j: int
) -> tuple[int, ...]:
    """Multiplicities r with chi_i chi_j = sum_k r[k] chi_k (pointwise).

    r = (chi_i o chi_j) D X^* / |G|, one kernel product.
    """
    x = table.matrix
    prod = x.select(rows=[i]).schur(x.select(rows=[j])) * CycMatrix.diagonal(classes.sizes)
    out = []
    for k, val in enumerate((prod * x.adjoint()).scale(Fraction(1, order)).row(0)):
        if not (val.is_rational() and val.as_rational().denominator == 1
                and val.as_rational() >= 0):
            raise InternalAssertion(
                f"tensor multiplicity r[{i}][{j}]^{k} = {val} is not a "
                "nonnegative integer"
            )
        out.append(int(val.as_rational()))
    return tuple(out)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def cyclic_group(n: int):
    """Z_n with characters chi_j(g_i) = zeta_n^(ij)."""
    if n < 1:
        raise UnsupportedFamily("cyclic(n) requires n >= 1")
    idx = np.arange(n)
    mult = (idx[:, None] + idx[None, :]) % n
    group = make_group_table(mult)
    classes = conjugacy_classes(group)
    rows = [[zeta(n, i * j) for i in range(n)] for j in range(n)]
    return group, classes, make_character_table(CycMatrix(rows, n))


def abelian_group(*orders: int):
    """Direct product of cyclic groups with product characters."""
    if not orders or any(m < 1 for m in orders):
        raise UnsupportedFamily("abelian(...) requires positive orders")
    shape = tuple(orders)
    size = math.prod(shape)
    tuples = [tuple(t) for t in np.ndindex(*shape)]
    index = {t: k for k, t in enumerate(tuples)}
    mult = np.zeros((size, size), dtype=np.int64)
    for a, ta in enumerate(tuples):
        for b, tb in enumerate(tuples):
            mult[a, b] = index[tuple((x + y) % m for x, y, m in zip(ta, tb, shape))]
    group = make_group_table(mult)
    classes = conjugacy_classes(group)
    L = math.lcm(*shape)
    rows = []
    for tj in tuples:
        rows.append(
            [
                zeta(L, sum((L // m) * cj * ci for cj, ci, m in zip(tj, ti, shape)))
                for ti in tuples
            ]
        )
    return group, classes, make_character_table(CycMatrix(rows, L))


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
    size = 4 * n
    mult = np.zeros((size, size), dtype=np.int64)
    for a in range(size):
        ya, ka = divmod(a, two_n)
        for b in range(size):
            yb, kb = divmod(b, two_n)
            if not ya and not yb:
                mult[a, b] = (ka + kb) % two_n
            elif not ya:
                mult[a, b] = two_n + (kb - ka) % two_n
            elif not yb:
                mult[a, b] = two_n + (ka + kb) % two_n
            else:
                mult[a, b] = (n + kb - ka) % two_n
    group = make_group_table(mult)
    classes = conjugacy_classes(group)
    expected = [(0,)]
    expected += [tuple(sorted((k, two_n - k))) for k in range(1, n)]
    expected += [(n,)]
    expected += [tuple(two_n + 2 * k for k in range(n))]
    expected += [tuple(two_n + 2 * k + 1 for k in range(n))]
    if classes.classes != tuple(expected):
        raise InternalAssertion("unexpected dicyclic class order")

    m = 4 * n  # conductor; i = zeta^n, kappa(r) = zeta^(2r) + zeta^(-2r)
    one = Cyclotomic.from_rational(1, 1)
    i_unit = zeta(m, n)

    def kappa(r):
        return zeta(m, 2 * r) + zeta(m, -2 * r)

    dp1 = n + 3
    rows = []
    rows.append([one] * dp1)
    rows.append([one] * (n + 1) + [-one, -one])
    signs = [one if k % 2 == 0 else -one for k in range(n + 1)]
    rows.append(signs + [i_unit, -i_unit])
    rows.append(signs + [-i_unit, i_unit])
    for r in range(1, n):
        rows.append(
            [2 * one]
            + [kappa(r * k) for k in range(1, n + 1)]
            + [0 * one, 0 * one]
        )
    return group, classes, make_character_table(CycMatrix(rows, m))


_FAMILIES = {
    "cyclic": cyclic_group,
    "abelian": abelian_group,
    "dicyclic": dicyclic_group,
}


def builtin_group(family: str, *params: int):
    """Dispatch to a built-in family: cyclic(n), abelian(n1, ...), dicyclic(n)."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise UnsupportedFamily(f"unknown family {family!r}") from None
    return builder(*params)


# ---------------------------------------------------------------------------
# Rational class fusion
# ---------------------------------------------------------------------------

def rational_classes(group: GroupTable, classes: ConjClassData):
    """Partition of class indices closing each class under g -> g^m,
    gcd(m, order(g)) = 1: the join of the cells {class(g^m)}, one per class
    (m = 1 puts g's own class in its cell)."""
    cells = [
        [classes.class_of[group.power(g, m)] for m in units_mod(group.element_order(g))]
        for g in map(classes.representative, range(len(classes.classes)))
    ]
    return partition_join(cells, (), len(cells))


def rational_class_fusion(
    group: GroupTable,
    classes: ConjClassData,
    scheme: SchemeData,
    eigen: EigenData,
) -> tuple[tuple[tuple[int, ...], ...], FusionScheme]:
    """Fuse along rational conjugacy classes; must equal the Galois fusion
    over Q (asserted)."""
    partition = rational_classes(group, classes)
    fused = fuse_by_relation_partition(scheme, eigen, partition)
    galois = galois_fusion(
        scheme, eigen, SubfieldSpec.rationals(eigen.conductor)
    )
    if galois.partition != fused.partition or not np.array_equal(
        galois.fused.relation, fused.fused.relation
    ):
        raise InternalAssertion(
            "rational-class fusion disagrees with the Galois fusion over Q"
        )
    return partition, fused


# ---------------------------------------------------------------------------
# Representations and the diagonalisation of the Bose-Mesner algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Representation:
    """A matrix representation given by its image at every element."""

    degree: int
    images: tuple[CycMatrix, ...]


def verify_representation(
    group: GroupTable, rho: Representation, character_row=None
) -> None:
    f = rho.degree
    if len(rho.images) != group.order:
        raise ValidationError("one image per group element required")
    if rho.images[0] != CycMatrix.identity(f):
        raise ValidationError("identity must map to the identity matrix")
    for a in range(group.order):
        for b in range(group.order):
            if rho.images[a] * rho.images[b] != rho.images[group.op(a, b)]:
                raise ValidationError(f"rho({a}) rho({b}) != rho({a}*{b})")
    if character_row is not None:
        for g in range(group.order):
            tr = _trace(rho.images[g])
            expected = character_row[g]
            if tr != expected:
                raise ValidationError(f"trace at element {g} is {tr}, not {expected}")


def _trace(m: CycMatrix) -> Cyclotomic:
    acc = m[0, 0]
    for t in range(1, m.rows):
        acc = acc + m[t, t]
    return acc


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
    the class sum being theta_i I (Schur's lemma made explicit).
    """
    verify_representation(group, rho)
    f = rho.degree
    for i, cell in enumerate(classes.classes):
        total = rho.images[cell[0]]
        for a in cell[1:]:
            total = total + rho.images[a]
        chi = _trace(rho.images[cell[0]])
        theta = chi * len(cell) / f
        if total != CycMatrix.identity(f).scale(theta):
            raise NotEigen(i, f"class sum is not {theta} I")
    rows = [
        [rho.images[g][a, b] for a in range(f) for b in range(f)]
        for g in range(group.order)
    ]
    return CycMatrix(rows)


def cyclic_representations(n: int) -> list[Representation]:
    return [
        Representation(1, tuple(CycMatrix([[zeta(n, j * k)]]) for k in range(n)))
        for j in range(n)
    ]


def dicyclic_representations(n: int) -> list[Representation]:
    """One irreducible representation per character row of dicyclic(n)."""
    if n < 3 or n % 2 == 0:
        raise UnsupportedFamily("dicyclic representations need odd n >= 3")
    m = 4 * n
    two_n = 2 * n
    i_unit = zeta(m, n)
    out = []
    for x_val, y_val in (
        (1, Cyclotomic.from_rational(1, 1)),
        (1, Cyclotomic.from_rational(-1, 1)),
        (-1, i_unit),
        (-1, -i_unit),
    ):
        images = []
        for g in range(m):
            yg, kg = divmod(g, two_n)
            val = Cyclotomic.from_rational(x_val**kg, 1)
            if yg:
                val = val * y_val
            images.append(CycMatrix([[val]]))
        out.append(Representation(1, tuple(images)))
    zero = Cyclotomic.from_rational(0, 1)
    for r in range(1, n):
        rho_x = [[zeta(two_n, r), zero], [zero, zeta(two_n, -r)]]
        rho_y = [[zero, Cyclotomic.from_rational(1, 1)],
                 [Cyclotomic.from_rational((-1) ** r, 1), zero]]
        images = []
        for g in range(m):
            yg, kg = divmod(g, two_n)
            xk = CycMatrix(
                [[zeta(two_n, r * kg), zero], [zero, zeta(two_n, -r * kg)]]
            )
            images.append(CycMatrix(rho_y) * xk if yg else xk)
        out.append(Representation(2, tuple(images)))
    return out


def builtin_representations(family: str, *params: int) -> list[Representation]:
    if family == "cyclic":
        return cyclic_representations(*params)
    if family == "dicyclic":
        return dicyclic_representations(*params)
    if family == "abelian":
        group, classes, table = abelian_group(*params)
        return [
            Representation(
                1,
                tuple(
                    CycMatrix([[table.rows[j][classes.class_of[g]]]])
                    for g in range(group.order)
                ),
            )
            for j in range(table.count)
        ]
    raise UnsupportedFamily(f"unknown family {family!r}")
