"""Exact computation with commutative association schemes.

The package covers: cyclotomic field arithmetic, association scheme
verification and eigenstructure, Galois actions on primitive idempotents and
the fusion schemes they induce, conjugacy class schemes of finite groups,
Delsarte designs with their inner/dual distributions, and exact rational
linear programming bounds.

Everything is exact: rationals are ``fractions.Fraction``, eigenvalues live
in cyclotomic fields on a reduced power basis, and every derived structure
(idempotents, fusions, distributions, LP optima) is verified against its
defining identities with zero tolerance.
"""

from .cyclotomic import (
    CycMatrix,
    Cyclotomic,
    SubfieldSpec,
    exact_sign,
    subfield_membership,
)
from .designs import (
    DesignReport,
    DesignTransfer,
    WeightedSubset,
    build_design_transfer,
    design_report,
    dicyclic_subgroup_table,
    dual_distribution,
    enumerate_T_designs,
    inner_distribution,
    is_T_design,
    is_T_design_via_merges,
    transfer_design,
)
from .errors import DelsarteError
from .fusion import (
    BMVerdict,
    FusionScheme,
    GaloisOrbitData,
    bannai_muzychuk_idempotent,
    common_fusion,
    fuse_by_relation_partition,
    galois_fusion,
    orbit_merge,
    sigma_permutations,
)
from .groups import (
    CharacterTable,
    ConjClassData,
    GroupTable,
    Representation,
    builtin_group,
    builtin_representations,
    conj_class_scheme,
    eigendata_from_characters,
    rational_class_fusion,
    representation_eigenvectors,
)
from .lp import (
    LPProblem,
    LPResult,
    delsarte_code_lp,
    delsarte_design_lp,
    make_problem,
    simplex_solve,
)
from .scheme import (
    EigenData,
    KreinData,
    SchemeData,
    attach_eigendata,
    krein_parameters,
    verify_scheme,
)

__all__ = [
    "BMVerdict",
    "CharacterTable",
    "ConjClassData",
    "CycMatrix",
    "Cyclotomic",
    "DelsarteError",
    "DesignReport",
    "DesignTransfer",
    "EigenData",
    "FusionScheme",
    "GaloisOrbitData",
    "GroupTable",
    "KreinData",
    "LPProblem",
    "LPResult",
    "Representation",
    "SchemeData",
    "SubfieldSpec",
    "WeightedSubset",
    "attach_eigendata",
    "bannai_muzychuk_idempotent",
    "build_design_transfer",
    "builtin_group",
    "builtin_representations",
    "common_fusion",
    "conj_class_scheme",
    "delsarte_code_lp",
    "delsarte_design_lp",
    "design_report",
    "dicyclic_subgroup_table",
    "dual_distribution",
    "eigendata_from_characters",
    "enumerate_T_designs",
    "exact_sign",
    "fuse_by_relation_partition",
    "galois_fusion",
    "inner_distribution",
    "is_T_design",
    "is_T_design_via_merges",
    "krein_parameters",
    "make_problem",
    "orbit_merge",
    "rational_class_fusion",
    "representation_eigenvectors",
    "sigma_permutations",
    "simplex_solve",
    "subfield_membership",
    "transfer_design",
    "verify_scheme",
]

__version__ = "0.1.0"
