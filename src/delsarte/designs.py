"""Delsarte designs: inner and dual distributions, annihilated eigenspaces,
exhaustive enumeration, design transfer between schemes with equal fusions,
and the dicyclic subgroup case study.

A (weighted) subset C has inner distribution a with
a_i = x^T A_i x / x^T x and dual distribution b = aQ; the annihilated set
T(C) collects the j >= 1 with b_j = 0, equivalently E_j x = 0.  T(C) is
always a union of orbits of the rational Galois action, which is verified on
every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, islice

import numpy as np

from .cyclotomic import CycMatrix, Cyclotomic, SubfieldSpec, _dtype, rational_lift
from .errors import (
    IncompatibleT,
    InternalAssertion,
    OrbitClosureViolation,
    TooLarge,
    ValidationError,
    ZeroVector,
)
from .fusion import FusionScheme, GaloisOrbitData, galois_fusion, orbit_merge
from .groups import conj_class_scheme, dicyclic_group, eigendata_from_characters
from .scheme import EigenData, SchemeData, as_index, check_eigen_scheme, validate_indices

#: exhaustive enumeration guardrails
ENUM_SUBSET_CAP = 2_000_000
#: vertex pairs gathered per enumeration chunk (m subsets of size r hold
#: m * r^2 pairs, about 2 MB of int64), so memory stays flat in the count
ENUM_CHUNK_PAIRS = 1 << 18


def _marks(size: int, indices) -> list[int]:
    """1 at every listed vertex and 0 elsewhere (a repeated index counts
    once); every index must be an integer (``as_index``) in 0..size-1."""
    marks = [0] * size
    for i in indices:
        if type(i) is not int:  # a bool, a numpy integer or no integer at all
            i = as_index(i, "a vertex index")
        if not 0 <= i < size:
            raise ValidationError(f"vertex index {i} outside 0..{size - 1}")
        marks[i] = 1
    return marks


@dataclass(frozen=True)
class WeightedSubset:
    """Nonnegative rational weights on the vertex set; not identically zero."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValidationError("weights must be nonnegative")
        if not any(self.weights):
            raise ZeroVector("weighted subset is identically zero")

    @classmethod
    def from_indices(cls, size: int, indices) -> "WeightedSubset":
        return cls.from_weights(_marks(size, indices))

    @classmethod
    def from_weights(cls, weights) -> "WeightedSubset":
        return cls(tuple(Fraction(w) for w in weights))

    @cached_property
    def _lift(self) -> tuple[np.ndarray, np.ndarray]:
        """The support C and the integer lift u of the weights on C: the
        numerators over their common denominator, divided by their gcd (no
        design quantity depends on the scale).  u takes one dtype, from the
        bound max u^2 |C|^2 on every pair sum of ``_pair_sums``."""
        support = np.array([x for x, v in enumerate(self.weights) if v], dtype=np.intp)
        lifted, _ = rational_lift([[self.weights[x] for x in support.tolist()]])
        u = lifted[0] // np.gcd.reduce(lifted[0])
        return support, u.astype(_dtype(int(u.max()) ** 2 * len(support) ** 2), copy=False)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._lift[0].tolist())

    def is_characteristic(self) -> bool:
        return all(w in (0, 1) for w in self.weights)


def _lifted(scheme: SchemeData, w) -> tuple[np.ndarray, np.ndarray]:
    """The support and integer weights of a WeightedSubset (computed once
    per subset) or of an index list (unit weights)."""
    if isinstance(w, WeightedSubset):
        if len(w.weights) != scheme.size:
            raise ValidationError(f"{len(w.weights)} weights for {scheme.size} vertices")
        return w._lift
    support = np.flatnonzero(_marks(scheme.size, w))
    if not len(support):
        raise ZeroVector("weighted subset is identically zero")
    return support, np.ones(len(support), dtype=np.int64)


class _DualRow:
    """b = aQ held on the integer form, as the 1 x (d+1) matrix ``dual``;
    ``b``, its entries as cells, is built on the first read and kept by the
    matrix.  Text and literals are read off ``dual`` (``texts``,
    ``lowest_terms``), with no cell."""

    @property
    def b(self) -> tuple[Cyclotomic, ...]:
        return self.dual.row(0)


@dataclass(frozen=True)
class DesignReport(_DualRow):
    """Inner/dual distributions, the annihilated set, and orbit closure."""

    a: tuple[Fraction, ...]
    dual: CycMatrix
    T: tuple[int, ...]
    orbit_closed: bool


def _pair_counts(scheme: SchemeData, idx: np.ndarray) -> np.ndarray:
    """Pair counts of a batch of 01 subsets: row k of the (m, d+1) result
    counts the ordered pairs of the vertices idx[k] in each relation."""
    m, r = idx.shape
    rel = scheme.relation[idx[:, :, None], idx[:, None, :]].reshape(m, r * r)
    # offset row k into its own block of d+1 bins, so one bincount does all
    rel += scheme.classes * np.arange(m, dtype=rel.dtype)[:, None]
    counts = np.bincount(rel.ravel(), minlength=m * scheme.classes)
    return counts.reshape(m, scheme.classes)


def _pair_sums(scheme: SchemeData, w) -> tuple[np.ndarray, int]:
    """v_i = u^T A_i u and den = u^T u for the integer lift u of the weights,
    as pair sums over the support only (exact, in u's dtype): the inner
    distribution is v / den."""
    support, u = _lifted(scheme, w)
    rel = scheme.relation[support[:, None], support]
    return u @ ((rel[:, None, :] == np.arange(scheme.classes)[:, None]) @ u), int(u @ u)


def _distribution(v: np.ndarray, den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, den) for x in v.tolist())


def inner_distribution(scheme: SchemeData, w) -> tuple[Fraction, ...]:
    """a_i = x^T A_i x / x^T x, exactly: with u the integer lift of the
    weights on the support C, a_i = u^T A_i u / u^T u."""
    return _distribution(*_pair_sums(scheme, w))


def dual_distribution(eigen: EigenData, a) -> CycMatrix:
    """The MacWilliams transform b = aQ, as a 1 x (d+1) matrix.

    One integer product: a is lifted to integers over a common denominator
    and multiplied into the integer form held by Q, under the kernel's
    int64-or-Python-int bound.  The answer stays on the integer form: its
    entries become ``Cyclotomic`` cells only when read (``row(0)``).
    """
    dp1 = eigen.scheme.classes
    if len(a) != dp1:
        raise ValidationError(f"inner distribution must have length {dp1}")
    return eigen.Q.left_rational([a])


@lru_cache(maxsize=32)
def rational_orbit_data(eigen: EigenData) -> GaloisOrbitData:
    """Orbits of the full Galois group on the idempotents (cached)."""
    return orbit_merge(eigen, SubfieldSpec.rationals(eigen.conductor))


@lru_cache(maxsize=32)
def rational_fusion(eigen: EigenData) -> FusionScheme:
    """The Galois fusion over Q (cached); raises NotClosed when there is none."""
    return galois_fusion(eigen.scheme, eigen, SubfieldSpec.rationals(eigen.conductor))


def design_report(
    scheme: SchemeData, eigen: EigenData, w, verify_signs: bool = True
) -> DesignReport:
    """Full report for a weighted subset: a, b = aQ, T(C), orbit closure.

    Every b entry must be real and nonnegative (exact sign check unless
    ``verify_signs`` is disabled); T(C) must be a union of rational Galois
    orbits, else :class:`OrbitClosureViolation` (impossible for verified
    eigendata).
    """
    check_eigen_scheme(scheme, eigen)
    v, den = _pair_sums(scheme, w)
    # b = aQ = vQ / den as a 1 x (d+1) matrix: signs and zeros are read off
    # its integer form
    dual = eigen.Q.left_lifted(v[None, :], den)
    if verify_signs:
        try:
            signs = dual.signs()[0]
        except ValueError as exc:
            raise InternalAssertion(f"b = {dual.row(0)} is not real") from exc
        if (signs < 0).any():
            j = int(np.argmax(signs < 0))
            raise InternalAssertion(f"b[{j}] = {dual[0, j]} is negative")
    zero = dual.zero_mask()[0]
    if zero[0]:
        raise InternalAssertion("b[0] vanished for a nonzero subset")
    annihilated = tuple(int(j) for j in np.flatnonzero(zero[1:]) + 1)
    closed = rational_orbit_data(eigen).closure(annihilated) == annihilated
    if not closed:
        raise OrbitClosureViolation(
            f"T = {annihilated} is not a union of Galois orbits"
        )
    return DesignReport(a=_distribution(v, den), dual=dual, T=annihilated, orbit_closed=closed)


def is_T_design(scheme: SchemeData, eigen: EigenData, w, T) -> bool:
    """True iff b_j = 0 for every j in T (equivalently E_j x = 0)."""
    check_eigen_scheme(scheme, eigen)
    T = validate_indices(T, scheme.d)
    if not T:
        return True
    # b_j = (vQ)_j / den vanishes iff v Q[:, j] does
    v, _ = _pair_sums(scheme, w)
    return bool(eigen.Q.left_zero_mask(v[None, :], T).all())


def is_T_design_via_merges(orbit_data: GaloisOrbitData, w, T) -> bool:
    """Check F_l x = 0 for l in iota(T), using only subfield-rational data.

    Since the eigenspaces are orthogonal, F_l x = 0 forces E_j x = 0 for
    every j in the l-th orbit, so this decides whether C is a design for the
    whole Galois closure of T.  F_l is an orthogonal projection, so F_l x = 0
    iff u^T F_l u = (1/|X|) sum_i v_i Qbar[i][l] vanishes, for the integer
    lift u of x and its pair sums v: one zero test on the merged dual row.
    """
    merged = orbit_data.merge(T)
    v, _ = _pair_sums(orbit_data.eigen.scheme, w)
    if not merged:
        return True
    return bool(orbit_data.Qbar.left_zero_mask(v[None, :], merged).all())


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def enumerate_T_designs(
    scheme: SchemeData,
    eigen: EigenData,
    T,
    min_size: int,
    max_size: int,
    method: str = "direct",
) -> tuple[tuple[int, ...], ...]:
    """All 01 subsets C with T(C) containing T and min <= |C| <= max,
    lexicographically ordered; both sizes must be integers (``as_index``).

    ``method = "fused"`` enumerates on the Galois fusion over Q (cached by
    :func:`rational_fusion`) with the merged index set iota(T) (identical by
    the design-correspondence theorem); ``"cross_check"`` runs both and
    asserts they agree.
    """
    check_eigen_scheme(scheme, eigen)
    T = validate_indices(T, scheme.d)
    min_size, max_size = as_index(min_size, "min_size"), as_index(max_size, "max_size")
    total = sum(
        math.comb(scheme.size, r)
        for r in range(max(min_size, 1), min(max_size, scheme.size) + 1)
    )
    if total > ENUM_SUBSET_CAP:
        raise TooLarge(f"{total} candidate subsets exceed the enumeration cap")

    if method == "cross_check":
        direct = enumerate_T_designs(scheme, eigen, T, min_size, max_size, "direct")
        fused = enumerate_T_designs(scheme, eigen, T, min_size, max_size, "fused")
        if direct != fused:
            raise InternalAssertion("direct and fused enumerations disagree")
        return direct
    if method == "fused":
        fs = rational_fusion(eigen)
        return enumerate_T_designs(
            fs.fused, fs.eigen, fs.orbit_data.merge(T), min_size, max_size, "direct"
        )
    if method != "direct":
        raise ValidationError(f"unknown method {method!r}")

    # b_j = 0 iff counts . Q[:, j] = 0, one exact zero test per chunk
    found = []
    for r in range(max(min_size, 1), min(max_size, scheme.size) + 1):
        combos = combinations(range(scheme.size), r)
        chunk = max(1, ENUM_CHUNK_PAIRS // (r * r))
        while True:
            flat = chain.from_iterable(islice(combos, chunk))
            idx = np.fromiter(flat, dtype=np.int64).reshape(-1, r)
            if not len(idx):
                break
            if T:
                idx = idx[eigen.Q.left_zero_mask(_pair_counts(scheme, idx), T).all(axis=1)]
            found.extend(map(tuple, idx.tolist()))
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Design transfer between schemes with equal rational fusions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignTransfer:
    """A design-collection bijection induced by an isomorphism of fusions."""

    source: FusionScheme
    target: FusionScheme
    vertex_map: tuple[int, ...]
    class_map: tuple[int, ...]
    eigen_map: tuple[int, ...]


def build_design_transfer(
    source: FusionScheme, target: FusionScheme, vertex_map=None
) -> DesignTransfer:
    """Match two fused schemes through a vertex bijection.

    The vertex map (identity by default) must carry the fused relation
    partition of the source onto that of the target; fused eigenspaces are
    then matched by exact comparison of the eigenmatrix columns under the
    induced class bijection.
    """
    fx, fy = source.fused, target.fused
    if fx.size != fy.size:
        raise ValidationError("fused schemes live on different vertex counts")
    vm = tuple(vertex_map) if vertex_map is not None else tuple(range(fx.size))
    if sorted(vm) != list(range(fx.size)):
        raise ValidationError("vertex map is not a bijection")
    if fx.classes != fy.classes:
        raise IncompatibleT("fused schemes have different class counts")

    perm = np.fromiter(vm, dtype=np.int64)
    image = fy.relation[np.ix_(perm, perm)]
    class_map = [-1] * fx.classes
    for c in range(fx.classes):
        vals = np.unique(image[fx.relation == c])
        if len(vals) != 1:
            raise IncompatibleT(
                f"vertex map does not carry fused class {c} onto a single class"
            )
        class_map[c] = int(vals[0])
    if sorted(class_map) != list(range(fx.classes)):
        raise IncompatibleT("induced class map is not a bijection")

    # column l of the source, its rows carried along the class map, is
    # matched exactly; the columns of a verified Q_F are distinct
    # (PQ = |X| I), so a match is unique and the matching a bijection
    moved = source.Q_F.select(rows=np.argsort(class_map))
    (derived,) = target.Q_F.column_positions(moved)
    if -1 in derived:
        raise IncompatibleT(f"fused eigenspace {derived.index(-1)} has no match")
    return DesignTransfer(
        source=source,
        target=target,
        vertex_map=vm,
        class_map=tuple(class_map),
        eigen_map=tuple(derived),
    )


def transfer_design(transfer: DesignTransfer, subset, T) -> tuple:
    """Carry a T-design of the source scheme to a T'-design of the target.

    The subset is what ``is_T_design`` takes: an index list, whose image is
    the sorted tuple of the mapped indices, or a ``WeightedSubset``, whose
    weights move along the vertex map.  T is given in original source
    indices; its merged image moves through the eigenspace match and pulls
    back to T' in original target indices.  The transferred subset is
    re-verified as a T'-design; returns it and T'.
    """
    src, tgt = transfer.source, transfer.target
    if src.orbit_data is None or tgt.orbit_data is None:
        raise ValidationError("design transfer needs Galois fusions (orbit data)")
    T = validate_indices(T, src.parent.d)
    if not is_T_design(src.parent, src.parent_eigen, subset, T):
        shown = subset.support if isinstance(subset, WeightedSubset) else tuple(subset)
        raise ValidationError(f"{shown} is not a {T}-design of the source")
    t_prime = tgt.orbit_data.unmerge(
        transfer.eigen_map[l] for l in src.orbit_data.merge(T)
    )
    if isinstance(subset, WeightedSubset):
        # the weight at x moves to vertex_map[x]
        pulled = np.argsort(transfer.vertex_map).tolist()
        image = WeightedSubset(tuple(subset.weights[x] for x in pulled))
    else:
        image = tuple(sorted(transfer.vertex_map[c] for c in subset))
    if not is_T_design(tgt.parent, tgt.parent_eigen, image, t_prime):
        raise InternalAssertion("transferred subset failed design verification")
    return image, t_prime


# ---------------------------------------------------------------------------
# Dicyclic subgroup case study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupDistribution(_DualRow):
    """One row of the dicyclic subgroup table."""

    kind: str  # "cyclic" or "dicyclic"
    k: int
    order: int
    elements: tuple[int, ...]
    a: tuple[Fraction, ...]
    dual: CycMatrix
    T: tuple[int, ...]


def dicyclic_subgroups(n: int) -> list[tuple[str, int, tuple[int, ...]]]:
    """Subgroup representatives of Dic_n (n odd): cyclic <x^k> for k | 2n
    and dicyclic <x^k, y> for k | n."""
    two_n = 2 * n
    out = []
    for k in sorted(d for d in range(1, two_n + 1) if two_n % d == 0):
        out.append(("cyclic", k, tuple(range(0, two_n, k))))
    for k in sorted(d for d in range(1, n + 1) if n % d == 0):
        cyclic_part = tuple(range(0, two_n, k))
        y_part = tuple(two_n + j for j in range(0, two_n, k))
        out.append(("dicyclic", k, cyclic_part + y_part))
    return out


def dicyclic_subgroup_table(n: int) -> list[SubgroupDistribution]:
    """Inner and dual distributions of every subgroup of Dic_n (n odd).

    Rows are computed from the scheme itself (not from closed forms), so
    they serve as ground truth for the tabulated patterns: cyclic <x^k> of
    order l = 2n/k has b-entries l, l, l, l on the linear characters when l
    is odd (l, l, 0, 0 when l is even) and 4l at the psi indices divisible
    by l; dicyclic subgroups of order 4n/k lead with 4n/k.
    """
    group, classes, table = dicyclic_group(n)
    scheme, _ = conj_class_scheme(group)
    eigen = eigendata_from_characters(group, classes, table, scheme)
    rows = []
    for kind, k, elements in dicyclic_subgroups(n):
        report = design_report(scheme, eigen, elements)
        rows.append(
            SubgroupDistribution(
                kind=kind,
                k=k,
                order=len(elements),
                elements=elements,
                a=report.a,
                dual=report.dual,
                T=report.T,
            )
        )
    return rows
