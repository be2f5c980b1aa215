"""Fusions with the fused eigendata verified from scratch: the tests'
reference for ``fusion.fuse_by_relation_partition`` and ``galois_fusion``.

These are the library's former functions, kept verbatim apart from their
names: Q_F was read off P_F by the second orthogonality relation and
attached with a full ``attach_eigendata`` (E0 column, multiplicities,
PQ = |X| I, the eigenvector identity and the dual-map search), and the
Galois fusion cross-checked the result against the orbit data afterwards.
The library reads the fused eigendata off the verified parent instead; on
every partition both must give the same ``FusionScheme`` or raise the same
error.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from delsarte.cyclotomic import CycMatrix
from delsarte.errors import InternalAssertion, NotAFusion, NotClosed
from delsarte.fusion import (
    FusionScheme,
    _cell_labels,
    _fused_scheme,
    _group_rows,
    _partition_matrix,
    _validate_partition,
    bannai_muzychuk_idempotent,
    orbit_merge,
)
from delsarte.scheme import attach_eigendata


def reference_fuse_by_relation_partition(scheme, eigen, partition) -> FusionScheme:
    cells = _validate_partition(partition, scheme.classes)
    e1 = len(cells)
    class_map = _cell_labels(cells, scheme.classes)
    po = eigen.P * CycMatrix(_partition_matrix(class_map, e1))
    eigen_classes = _group_rows(po)
    if len(eigen_classes) != e1:
        raise NotAFusion(len(eigen_classes), e1)

    # the criterion passed, so this cannot fail
    fused_scheme = _fused_scheme(scheme, cells, class_map)

    p_f = po.select(rows=[cell[0] for cell in eigen_classes])
    fused_mult = [sum(eigen.multiplicities[j] for j in cell) for cell in eigen_classes]
    q_f = p_f.adjoint().scale_lines(
        rows=[Fraction(1, v) for v in fused_scheme.valencies], cols=fused_mult
    )
    try:
        fused_eigen = attach_eigendata(fused_scheme, q_f)
    except Exception as exc:
        raise InternalAssertion(f"fused eigendata rejected: {exc}") from exc
    return FusionScheme(
        parent=scheme,
        parent_eigen=eigen,
        partition=cells,
        class_map=class_map,
        fused=fused_scheme,
        eigen=fused_eigen,
        eigen_classes=eigen_classes,
    )


def reference_galois_fusion(scheme, eigen, subfield) -> FusionScheme:
    orbit_data = orbit_merge(eigen, subfield)
    verdict = bannai_muzychuk_idempotent(orbit_data)
    if not verdict.passes:
        raise NotClosed(verdict.distinct_rows, orbit_data.orbit_count)
    fs = reference_fuse_by_relation_partition(scheme, eigen, verdict.row_classes)
    if fs.eigen_classes != orbit_data.orbits:
        raise InternalAssertion(
            "PO row classes disagree with the Galois orbits: "
            f"{fs.eigen_classes} vs {orbit_data.orbits}"
        )
    if fs.eigen.Q != orbit_data.Qbar.select(rows=[cell[0] for cell in fs.partition]):
        raise InternalAssertion(
            "fused eigenmatrix disagrees with the distinct rows of Qbar"
        )
    return replace(fs, subfield=subfield, orbit_data=orbit_data)
