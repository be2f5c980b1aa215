"""The former group-side loops of ``delsarte.groups``: the tests' reference.

Kept verbatim in their arithmetic:

* multiplication tables and character tables built one pair of elements,
  or one scalar, at a time;
* representations as tuples of per-element images: one small
  ``CycMatrix`` per group element, the homomorphism checked with |G|^2
  separate products in lexicographic order of (a, b), traces and class
  sums added up one entry or image at a time, and U assembled entry by
  entry.

* associativity checked on all |G|^3 triples at once, the library's
  former check up to order 128;
* a character table checked by both orthogonality products before its
  eigendata are attached, the library's former
  ``verify_character_table`` and ``eigendata_from_characters``.

The library's broadcast multiplication tables and one-call character
tables must equal these, its one-product checks must give the same
block U and the same first failing (a, b), and its associativity test on a
generating set must give the same verdict as the full check.

Two oracles the library does not carry: ``group_intersection_number``
counts p_ij^k by the class formula, and
``character_product_multiplicities`` decomposes a product of two
characters, the tensor decomposition the Krein parameters must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from delsarte.cyclotomic import CycMatrix, Cyclotomic
from delsarte.errors import (
    BadEigenbasis,
    InternalAssertion,
    NotEigen,
    UnsupportedFamily,
    ValidationError,
)
from delsarte.groups import (
    CharacterTable,
    ConjClassData,
    GroupTable,
    abelian_group,
    conj_class_scheme,
)
from delsarte.scheme import EigenData, SchemeData, _integer_entries, attach_eigendata

zeta = Cyclotomic.zeta


def reference_is_associative(mult) -> bool:
    """(ab)c = a(bc) for every triple, as one |G|^3 comparison."""
    table = np.asarray(mult)
    return bool(np.array_equal(table[table], table[:, table]))


def reference_dicyclic_table(n: int) -> np.ndarray:
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
    return mult

def reference_dicyclic_characters(n: int) -> CycMatrix:
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
    return CycMatrix(rows, m)


def reference_abelian_table(*orders: int) -> tuple[np.ndarray, CycMatrix]:
    """The multiplication table and the character table as one matrix."""
    shape = tuple(orders)
    size = math.prod(shape)
    tuples = [tuple(t) for t in np.ndindex(*shape)]
    index = {t: k for k, t in enumerate(tuples)}
    mult = np.zeros((size, size), dtype=np.int64)
    for a, ta in enumerate(tuples):
        for b, tb in enumerate(tuples):
            mult[a, b] = index[tuple((x + y) % m for x, y, m in zip(ta, tb, shape))]
    L = math.lcm(*shape)
    rows = []
    for tj in tuples:
        rows.append(
            [
                zeta(L, sum((L // m) * cj * ci for cj, ci, m in zip(tj, ti, shape)))
                for ti in tuples
            ]
        )
    return mult, CycMatrix(rows, L)


@dataclass(frozen=True)
class ImageRepresentation:
    """A matrix representation given by its image at every element."""

    degree: int
    images: tuple[CycMatrix, ...]


def reference_verify_representation(
    group: GroupTable, rho: ImageRepresentation, character_row=None
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


def reference_eigenvectors(
    group: GroupTable,
    rho: ImageRepresentation,
    scheme: SchemeData,
    classes: ConjClassData,
) -> CycMatrix:
    """The |G| x f^2 eigenvector block U with row g = vec(rho(g)).

    Verifies A_i U = theta_i U exactly for every class i, with
    theta_i = |C_i| chi(g_i) / f.  Since row g of A_i U is
    vec(rho(g) sum_{a in C_i} rho(a)), the identity for all g amounts to
    the class sum being theta_i I (Schur's lemma made explicit).
    """
    reference_verify_representation(group, rho)
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


def reference_cyclic(n: int) -> list[ImageRepresentation]:
    return [
        ImageRepresentation(1, tuple(CycMatrix([[zeta(n, j * k)]]) for k in range(n)))
        for j in range(n)
    ]


def reference_dicyclic(n: int) -> list[ImageRepresentation]:
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
        out.append(ImageRepresentation(1, tuple(images)))
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
        out.append(ImageRepresentation(2, tuple(images)))
    return out


def reference_representations(family: str, *params: int) -> list[ImageRepresentation]:
    if family == "cyclic":
        return reference_cyclic(*params)
    if family == "dicyclic":
        return reference_dicyclic(*params)
    if family == "abelian":
        group, classes, table = abelian_group(*params)
        return [
            ImageRepresentation(
                1,
                tuple(
                    CycMatrix([[table.rows[j][classes.class_of[g]]]])
                    for g in range(group.order)
                ),
            )
            for j in range(table.count)
        ]
    raise UnsupportedFamily(f"unknown family {family!r}")


def reference_verify_character_table(
    table: CharacterTable, group: GroupTable, classes: ConjClassData
) -> None:
    """Check shape, the trivial first row and both orthogonality relations.

    With X the table and D = diag(|C_i|), row orthogonality is
    X D X^* = |G| I and column orthogonality is X^T conj(X) = |G| D^(-1),
    each one kernel product (X D is a scaling of the columns of X).
    """
    dp1 = len(classes.classes)
    if (table.matrix.rows, table.matrix.cols) != (dp1, dp1):
        raise BadEigenbasis("character_table_shape")
    x = table.matrix
    if x.select(rows=[0]) != CycMatrix(np.ones((1, dp1), dtype=np.int64)):
        raise BadEigenbasis("trivial_character", "first row must be all ones")
    order = group.order
    sizes = classes.sizes
    rows = x.scale_lines(cols=sizes) * x.adjoint() - CycMatrix(order * np.eye(dp1, dtype=np.int64))
    bad = np.argwhere(np.triu(~rows.zero_mask()))
    if len(bad):
        j, k = map(int, bad[0])
        raise BadEigenbasis("character_row_orthogonality", f"rows {j}, {k}")
    cols = x.transpose() * x.conjugate() - CycMatrix.identity(dp1).scale_lines(
        rows=[Fraction(order, size) for size in sizes]
    )
    bad = np.argwhere(np.triu(~cols.zero_mask()))
    if len(bad):
        a, b = map(int, bad[0])
        raise BadEigenbasis("character_column_orthogonality", f"classes {a}, {b}")


def reference_eigendata_from_characters(
    group: GroupTable,
    classes: ConjClassData,
    table: CharacterTable,
    scheme: SchemeData | None = None,
) -> EigenData:
    """Eigenstructure of the conjugacy class scheme from its character table.

    Q[i][j] = f_j conj(chi_j(g_i)); the attached data is verified in full
    and the multiplicities must come out as the squared degrees.
    """
    reference_verify_character_table(table, group, classes)
    if scheme is None:
        scheme, found = conj_class_scheme(group)
        if found.classes != classes.classes:
            raise BadEigenbasis("class_order", "classes disagree with the group")
    q = table.matrix.adjoint().scale_lines(cols=table.degrees)
    eigen = attach_eigendata(scheme, q)
    expected = tuple(f * f for f in table.degrees)
    if eigen.multiplicities != expected:
        raise BadEigenbasis(
            "multiplicity_squares",
            f"{eigen.multiplicities} != squared degrees {expected}",
        )
    return eigen


def group_intersection_number(
    group: GroupTable, classes: ConjClassData, i: int, j: int, k: int
) -> int:
    """p[i][j][k] from the class formula |C_i n z C_j^(-1)|, z in C_k."""
    z = classes.representative(k)
    cj_inv = {group.inverse[h] for h in classes.classes[j]}
    z_cj_inv = {group.op(z, h) for h in cj_inv}
    return len(set(classes.classes[i]) & z_cj_inv)


def character_product_multiplicities(
    table: CharacterTable, classes: ConjClassData, order: int, i: int, j: int
) -> tuple[int, ...]:
    """Multiplicities r with chi_i chi_j = sum_k r[k] chi_k (pointwise).

    r = (chi_i o chi_j) D X^* / |G|: a scaling of the columns, then one
    kernel product.
    """
    x = table.matrix
    prod = x.select(rows=[i]).schur(x.select(rows=[j])).scale_lines(cols=classes.sizes)
    r = (prod * x.adjoint()).scale(Fraction(1, order))
    out, bad = _integer_entries(r, 0)
    if bad is not None:
        raise InternalAssertion(
            f"tensor multiplicity r[{i}][{j}]^{bad} = {r[0, bad]} is not a "
            "nonnegative integer"
        )
    return tuple(out)
