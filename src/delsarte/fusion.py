"""Galois action on primitive idempotents and the fusions it induces.

For a subfield K of the splitting field (given by its fixing subgroup of
(Z/nZ)^x), each field automorphism permutes the primitive idempotents; the
orbits merge idempotents into the minimal K-rational ones F_l, described by
the column-merged eigenmatrix Qbar = Q O.  The merged row-count criterion
(Bannai-Muzychuk) decides in both forms whether a partition of classes or of
idempotents spans a fusion scheme; when it holds for the Galois orbits the
scheme has a Galois fusion over K.  A fusion is built from the verified
parent, not verified again from scratch: the fused scheme from the parent's
intersection tensor, and the fused eigendata from P O and Q O_E, accepted
by two exact checks that, with the parent's identities, imply every
identity of the fused scheme's eigenstructure (``_fused_eigen``).

Fused classes and fused eigenspaces are each numbered canonically by their
smallest original index, which pins every matrix in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .cyclotomic import CycMatrix, SubfieldSpec, bounded_matmul
from .errors import (
    ConductorMismatch,
    InternalAssertion,
    NotAFusion,
    NotClosed,
    NotPermutation,
)
from .scheme import EigenData, SchemeData, check_eigen_scheme, index_upto, validate_indices


@dataclass(frozen=True)
class GaloisOrbitData:
    """Orbits of the Galois action of Gal(F/K) on the primitive idempotents."""

    eigen: EigenData
    subfield: SubfieldSpec
    orbits: tuple[tuple[int, ...], ...]
    iota: tuple[int, ...]
    Qbar: CycMatrix

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    @property
    def O(self) -> np.ndarray:
        """The (d+1) x (e+1) 01 partition matrix with Qbar = Q O."""
        return _partition_matrix(self.iota, len(self.orbits))

    def merged_idempotent(self, l: int) -> CycMatrix:
        """F_l = sum of E_j over the l-th orbit, as a dense matrix: entry
        Qbar[i][l]/|X| wherever (x, y) is in R_i, one gather of Qbar's rows.
        ValidationError unless l is an integer in 0..e (``index_upto``)."""
        l = index_upto(l, len(self.orbits) - 1, "an orbit index")
        size = self.eigen.scheme.size
        gathered = self.Qbar.select(rows=self.eigen.scheme.relation.ravel(), cols=[l])
        return gathered.reshape(size, size).scale(Fraction(1, size))

    def merge(self, T) -> tuple[int, ...]:
        """iota(T) for T in 1..d: the sorted indices of the orbits that meet T."""
        T = validate_indices(T, len(self.iota) - 1)
        return tuple(sorted({self.iota[j] for j in T}))

    def unmerge(self, L) -> tuple[int, ...]:
        """The sorted union of the orbits indexed by L, a subset of 1..e."""
        L = validate_indices(L, len(self.orbits) - 1, "L")
        return tuple(sorted(j for l in L for j in self.orbits[l]))

    def closure(self, T) -> tuple[int, ...]:
        """T' = unmerge(merge(T)), the union of the Galois orbits that meet T.

        A rational vector x with E_j x = 0 for j in T has E_j x = 0 on all of
        T', since sigma(E_j) x = sigma(E_j x): a T-design is a T'-design.
        """
        return self.unmerge(self.merge(T))


@dataclass(frozen=True)
class BMVerdict:
    """Outcome of the merged-eigenmatrix row-count criterion."""

    passes: bool
    distinct_rows: int
    row_classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class FusionScheme:
    """A verified fusion scheme together with its exact eigenstructure."""

    parent: SchemeData
    parent_eigen: EigenData
    partition: tuple[tuple[int, ...], ...]
    class_map: tuple[int, ...]
    fused: SchemeData
    eigen: EigenData
    eigen_classes: tuple[tuple[int, ...], ...]
    subfield: SubfieldSpec | None = None
    orbit_data: GaloisOrbitData | None = None

    @property
    def P_F(self) -> CycMatrix:
        return self.eigen.P

    @property
    def Q_F(self) -> CycMatrix:
        return self.eigen.Q

    def eigen_iota(self, j: int) -> int:
        """Fused eigenspace index containing original eigenspace j."""
        if not 0 <= j < self.parent.classes:
            raise IndexError(j)
        return _cell_labels(self.eigen_classes, self.parent.classes)[j]


def _partition_matrix(labels, cells: int) -> np.ndarray:
    """The 01 matrix with a one at (t, labels[t]): right-multiplying by it
    sums the columns of each cell."""
    out = np.zeros((len(labels), cells), dtype=np.int64)
    out[np.arange(len(labels)), labels] = 1
    out.setflags(write=False)
    return out


def _cell_labels(cells, size: int) -> tuple[int, ...]:
    """The label map of a partition of {0..size-1}: element t gets the
    index of the cell that holds it."""
    labels = [0] * size
    for l, cell in enumerate(cells):
        for t in cell:
            labels[t] = l
    return tuple(labels)


def _canonical_cells(cells) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(c)) for c in cells), key=lambda c: c[0]))


def _label_cells(labels) -> tuple[tuple[int, ...], ...]:
    """The canonical partition of {0, 1, ...} by equal labels."""
    cells: dict = {}
    for t, label in enumerate(labels):
        cells.setdefault(label, []).append(t)
    return tuple(map(tuple, cells.values()))


def _group_rows(matrix: CycMatrix) -> tuple[tuple[int, ...], ...]:
    return _label_cells(matrix.line_labels())


def _generator_permutations(
    eigen: EigenData, subfield: SubfieldSpec
) -> list[tuple[int, ...]]:
    """The permutations of {0..d} induced by the generators of the fixing
    group, in the order of ``subfield.generators``: one image of Q per
    generator (see ``sigma_permutations``); the branch that names a failing
    unit sweeps the whole group, one image at a time."""
    n = eigen.conductor
    if subfield.conductor % n:
        raise ConductorMismatch(
            f"subfield lives in Q(zeta_{subfield.conductor}) which does not "
            f"contain the splitting conductor {n}"
        )
    dp1 = eigen.scheme.classes
    gens = [tuple(perm) for perm in eigen.Q.column_positions(eigen.Q, subfield.generators)]
    if any(len(set(perm)) != dp1 or -1 in perm for perm in gens):
        for k, perm in zip(subfield.group, eigen.Q.column_positions(eigen.Q, subfield.group)):
            if -1 in perm:
                raise NotPermutation(
                    f"zeta -> zeta^{k} does not map E_{perm.index(-1)} into the idempotent "
                    "basis; Q is inconsistent with its declared conductor"
                )
            if len(set(perm)) != dp1:
                raise NotPermutation(f"automorphism {k} does not act bijectively")
        raise InternalAssertion("a generator fails to permute the idempotents, but no unit does")
    return gens


def _composition_closure(gens, dp1: int) -> tuple[tuple[int, ...], ...]:
    """The sorted permutations of {0..dp1-1} generated by gens under
    composition, the identity included."""
    found = {tuple(range(dp1))}
    frontier = list(found)
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = tuple(a[g[j]] for j in range(dp1))
            if b not in found:
                found.add(b)
                frontier.append(b)
    return tuple(sorted(found))


def sigma_permutations(
    eigen: EigenData, subfield: SubfieldSpec
) -> tuple[tuple[int, ...], ...]:
    """Permutations of {0..d} induced by Gal(F/K) on the idempotents.

    Computed on the columns of Q: applying zeta -> zeta^k entrywise to E_j
    permutes the basis exactly when the image column of Q appears among the
    columns, since the entries of E_j are the entries of column j of Q
    spread over the relation classes.  Automorphisms with the same action on
    every entry of Q restrict identically to the splitting field and give
    the same permutation.

    Only the images of Q under the generators of the fixing group are
    formed (one image per generator, ``_generator_permutations``).  Since
    sigma_ab = sigma_a sigma_b, every unit of the group permutes the columns
    exactly when the generators do, and the permutations are the closure of
    the generators' ones under composition.  When a generator fails, the
    columns are matched against the images under the whole group, so the
    error names the first failing unit k and idempotent E_j in the group's
    order.
    """
    return _composition_closure(_generator_permutations(eigen, subfield),
                                eigen.scheme.classes)


def orbit_merge(eigen: EigenData, subfield: SubfieldSpec) -> GaloisOrbitData:
    """Orbits, iota, merged idempotents and Qbar = QO for Gal(F/K).

    Qbar needs no check that it lies in K: ``_generator_permutations`` has
    checked sigma_g(Q[:, j]) = Q[:, pi_g(j)] exactly for each generator g,
    and each orbit is closed under pi_g, so sigma_g fixes QO's columns.
    """
    gens = _generator_permutations(eigen, subfield)
    dp1 = eigen.scheme.classes
    # the orbits of the group are the join of the cells {j, g(j)} over its
    # generators g: every permutation is a word in them
    orbits = partition_join(((j, g[j]) for g in gens for j in range(dp1)), (), dp1)
    if orbits[0] != (0,):
        raise InternalAssertion("E_0 is rational and must sit in its own orbit")
    iota = _cell_labels(orbits, dp1)
    qbar = eigen.Q * CycMatrix(_partition_matrix(iota, len(orbits)))
    return GaloisOrbitData(
        eigen=eigen,
        subfield=subfield,
        orbits=orbits,
        iota=iota,
        Qbar=qbar,
    )


def bannai_muzychuk_idempotent(orbit_data: GaloisOrbitData) -> BMVerdict:
    """Row-count criterion on Qbar: a fusion exists iff the distinct-row
    count equals the orbit count."""
    row_classes = _group_rows(orbit_data.Qbar)
    return BMVerdict(
        passes=len(row_classes) == orbit_data.orbit_count,
        distinct_rows=len(row_classes),
        row_classes=row_classes,
    )


def _validate_partition(cells, dp1: int) -> tuple[tuple[int, ...], ...]:
    cells = _canonical_cells(cells)
    if sorted(chain.from_iterable(cells)) != list(range(dp1)):
        raise ValueError(f"not a partition of 0..{dp1 - 1}: {cells}")
    if cells[0] != (0,):
        raise ValueError("class 0 (the identity relation) must be a singleton cell")
    return cells


def _fused_failure(axiom: str, detail: str) -> InternalAssertion:
    return InternalAssertion(f"fused relation failed verification: axiom ({axiom}): {detail}")


def _fused_scheme(scheme: SchemeData, cells, class_map) -> SchemeData:
    """The scheme on the relation grid fused along the cells (cell 0 = {0}),
    derived from the parent's intersection tensor.

    For (x, y) in R_k, |{z : (x, z) in R_I, (z, y) in R_J}| is the sum of
    p_ij^k over i in I and j in J: the fused grid's products A_I A_J are the
    sums Oᵀ p O, with O the 0/1 partition matrix.  So the fused grid satisfies
    each axiom exactly when the matching condition holds on the parent
    tensor: (i) because cell 0 = {0}; (ii) when the parent's transpose map
    sends each cell into one cell; (iii) when each sum is the same for every
    k in a cell; (iv) when the sums are symmetric in (I, J).  A failure is
    reported as ``verify_scheme`` on the fused grid would report it, as an
    :class:`InternalAssertion`; on success every field equals what that
    check returns.
    """
    labels = np.array(class_map, dtype=np.int64)
    heads = [cell[0] for cell in cells]
    tmap = labels[list(scheme.transpose_map)]
    split = tmap != tmap[heads][labels]
    if split.any():
        raise _fused_failure("ii", f"transpose of class {int(labels[split].min())} is "
                                   "not a single class")

    # p[k, I, J]: the parent classes k first, so one broadcast product per side
    o = _partition_matrix(class_map, len(cells))
    p = bounded_matmul(bounded_matmul(o.T, scheme.intersection.transpose(2, 0, 1), 1), o, by=1)
    varying = p != p[heads][labels]
    swapped = p != p.transpose(0, 2, 1)
    failing = np.triu((varying | swapped).any(axis=0))
    if failing.any():
        i, j = map(int, np.argwhere(failing)[0])
        if varying[:, i, j].any():
            k = int(labels[varying[:, i, j]].min())
            raise _fused_failure("iii", f"|R_{i}(a) n R_{j}'(b)| is not constant on class {k}")
        # the fused class of the first failing cell in row-major order
        cell = np.argmax(swapped[:, i, j][scheme.relation])
        k = int(labels[scheme.relation.flat[cell]])
        raise _fused_failure("iv", f"p[{i}][{j}]^{k} != p[{j}][{i}]^{k}")
    return SchemeData(
        size=scheme.size,
        classes=len(cells),
        relation=labels[scheme.relation],
        transpose_map=tuple(tmap[heads].tolist()),
        valencies=tuple(sum(scheme.valencies[k] for k in cell) for cell in cells),
        intersection=np.ascontiguousarray(p[heads].transpose(1, 2, 0)),
    )


def _eigen_failure(check: str, detail: str) -> InternalAssertion:
    return InternalAssertion(f"fused eigendata rejected: {check}: {detail}")


def _fused_eigen(
    eigen: EigenData, fused: SchemeData, cells, eigen_classes, po: CycMatrix, qbar: CycMatrix
) -> EigenData:
    """The fused eigenstructure, read off the verified parent.

    With J_L the row classes of PO (``eigen_classes``) and O_E their 0/1
    partition matrix, P_F is the distinct rows of PO, Q_F the rows of
    Qbar = Q O_E at the heads of the relation cells, and m_L the sum of the
    parent's multiplicities over J_L.  Two exact checks accept it:

    (C1) Qbar is constant on each relation cell;
    (C2) m_L conj(P_F[L][I]) = v_I Q_F[I][L], the second orthogonality
         relation, comparing P_F (from P) with Q_F (from Q).

    Together with the parent's verified identities they give every identity
    ``attach_eigendata`` proves, by its certificate or one by one.  The
    parent has A_i = sum_j P[j][i] E_j and E_j = (1/|X|) sum_i Q[i][j] A_i
    for its primitive idempotents E_j.  PO is constant on each J_L, so
    A_I = sum_{i in I} A_i = sum_L P_F[L][I] F_L
    with F_L = sum_{j in J_L} E_j, and F_L = (1/|X|) sum_i Qbar[i][L] A_i,
    which by (C1) is (1/|X|) sum_I Q_F[I][L] A_I.  So the e+1 nonzero,
    mutually orthogonal idempotents F_L, which sum to I, and the e+1
    linearly independent A_I span one algebra, each basis written in the
    other by P_F and Q_F / |X|: hence P_F Q_F = |X| I, A_I F_L = P_F[L][I]
    F_L (the eigenvector identity, in the A_I basis through the fused
    intersection numbers), and the F_L are the primitive idempotents of the
    fused scheme.  J_0 = {0}, since a row j of PO equal to the valencies
    means J E_j = |X| E_j; so Q_F[I][0] = 1.  Row 0 of Q is the parent's
    multiplicities, so Q_F[0][L] = m_L.  The parent's Q[i'][j] =
    conj(Q[i][j]), summed over J_L, and (C1), since I' holds i' for each i
    in I, give Q_F[I'][L] = conj(Q_F[I][L]): each F_L is Hermitian.  (C2)
    follows from the above; it fails when the parent's P and Q do not
    belong together.  A failure raises :class:`InternalAssertion` naming
    the check.
    """
    labels = qbar.line_labels()
    for I, cell in enumerate(cells):
        split = [i for i in cell if labels[i] != labels[cell[0]]]
        if split:
            raise _eigen_failure("C1", f"row {split[0]} of Qbar differs from row "
                                       f"{cell[0]} in relation cell {I}")
    p_f = po.select(rows=[cell[0] for cell in eigen_classes])
    q_f = qbar.select(rows=[cell[0] for cell in cells])
    mult = [sum(eigen.multiplicities[j] for j in cell) for cell in eigen_classes]
    from_p = p_f.adjoint().scale_lines(rows=[Fraction(1, v) for v in fused.valencies],
                                       cols=mult)
    if from_p != q_f:
        I, L = map(int, np.argwhere(~(from_p - q_f).zero_mask())[0])
        raise _eigen_failure("C2", f"m_{L} conj(P_F[{L}][{I}]) != v_{I} Q_F[{I}][{L}]")
    return EigenData(
        scheme=fused,
        Q=q_f,
        P=p_f,
        multiplicities=tuple(mult),
        conductor=q_f.conductor,
    )


def fuse_by_relation_partition(
    scheme: SchemeData, eigen: EigenData, partition, *,
    orbit_data: GaloisOrbitData | None = None,
) -> FusionScheme:
    """Fuse relations along a partition, checked by the PO row criterion.

    PO must have exactly one distinct row per fused eigenspace (e+1 in
    total).  On success the fused scheme is derived from the parent's
    intersection tensor (``_fused_scheme``): its intersection numbers are the
    sums of the parent's over the cells, which must not depend on the class
    within a cell and must be symmetric, and the transpose map must respect
    the cells; these conditions hold exactly when the fused grid passes
    ``verify_scheme``, so the grid is not re-verified.  The fused eigendata
    is read off the verified parent in the same way (``_fused_eigen``):
    P_F is the distinct rows of PO, Q_F the rows of Qbar = Q O_E at the
    relation-cell heads (O_E the 0/1 matrix of the row classes of PO), the
    multiplicities come from the parent's, and two exact checks, Qbar
    constant on each relation cell and the second orthogonality relation
    between P_F and Q_F, imply every identity that a full eigendata
    verification would check.

    ``orbit_data``, where given (``galois_fusion`` and the CLI pass the
    parent's), must have the row classes of PO as its orbits; its Qbar is
    then used as Q O_E, and the result carries it and its subfield.
    """
    check_eigen_scheme(scheme, eigen)
    cells = _validate_partition(partition, scheme.classes)
    e1 = len(cells)
    class_map = _cell_labels(cells, scheme.classes)
    po = eigen.P * CycMatrix(_partition_matrix(class_map, e1))
    eigen_classes = _group_rows(po)
    if len(eigen_classes) != e1:
        raise NotAFusion(len(eigen_classes), e1)

    # the criterion passed, so this cannot fail
    fused_scheme = _fused_scheme(scheme, cells, class_map)

    if orbit_data is None:
        o_e = _partition_matrix(_cell_labels(eigen_classes, scheme.classes), e1)
        qbar = eigen.Q * CycMatrix(o_e)
    elif eigen_classes != orbit_data.orbits:
        raise InternalAssertion(
            "PO row classes disagree with the Galois orbits: "
            f"{eigen_classes} vs {orbit_data.orbits}"
        )
    else:
        qbar = orbit_data.Qbar
    return FusionScheme(
        parent=scheme,
        parent_eigen=eigen,
        partition=cells,
        class_map=class_map,
        fused=fused_scheme,
        eigen=_fused_eigen(eigen, fused_scheme, cells, eigen_classes, po, qbar),
        eigen_classes=eigen_classes,
        subfield=None if orbit_data is None else orbit_data.subfield,
        orbit_data=orbit_data,
    )


def galois_fusion(
    scheme: SchemeData, eigen: EigenData, subfield: SubfieldSpec
) -> FusionScheme:
    """The Galois fusion of the scheme with respect to K, if it exists.

    Runs the idempotent-side criterion on Qbar; when it passes, the row
    classes of Qbar give the relation partition, and the relation-side
    fusion is built with the orbit data: the row classes of PO must be the
    Galois orbits, the fused Q_F is read off the orbit data's Qbar, and the
    second orthogonality relation checks it against P_F from PO.  The
    result is tagged with K.  Raises :class:`NotClosed` when the K-rational
    idempotents are not Schur-closed.
    """
    check_eigen_scheme(scheme, eigen)
    orbit_data = orbit_merge(eigen, subfield)
    verdict = bannai_muzychuk_idempotent(orbit_data)
    if not verdict.passes:
        raise NotClosed(verdict.distinct_rows, orbit_data.orbit_count)
    return fuse_by_relation_partition(scheme, eigen, verdict.row_classes,
                                      orbit_data=orbit_data)


def partition_join(p1, p2, dp1: int) -> tuple[tuple[int, ...], ...]:
    """Finest partition of {0..d} coarser than both arguments.

    The arguments may be any collections of cells, not only partitions:
    every cell of either ends up inside one part.  This is the package's
    one union-find; Galois orbits and rational classes are joins of it.
    """
    parent = list(range(dp1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for cell in chain(p1, p2):
        cell = tuple(cell)
        for i in cell[1:]:
            parent[find(i)] = find(cell[0])
    return _label_cells(find(i) for i in range(dp1))


def common_fusion(
    scheme: SchemeData, eigen: EigenData, partition1, partition2
) -> FusionScheme:
    """Maximal common fusion of two fusions, via the partition join.

    Both partitions must individually satisfy the relation-side criterion;
    the join realizes the intersection of the two Bose-Mesner algebras and
    is verified outright (a failure would be reported as NotAFusion).
    """
    check_eigen_scheme(scheme, eigen)
    fuse_by_relation_partition(scheme, eigen, partition1)
    fuse_by_relation_partition(scheme, eigen, partition2)
    joined = partition_join(partition1, partition2, scheme.classes)
    return fuse_by_relation_partition(scheme, eigen, joined)
