"""Built-in example schemes.

``CATALOG`` is one table of entries, each a name, a note and a builder, with
file names derived from the name.  A builder returns a verified scheme with
its exact second eigenmatrix or, for a group entry, a ``GroupSchemeBundle``
that adds the group and its character table.  ``generate_data`` writes
the JSON catalog shipped under ``delsarte/data`` from the builders;
``load_entry`` reads those files back and re-verifies everything.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from .cyclotomic import CycMatrix, Cyclotomic
from .errors import InternalAssertion, ValidationError
from .groups import (
    CharacterTable,
    ConjClassData,
    GroupTable,
    conj_class_scheme,
    conjugacy_classes,
    cyclic_group,
    dicyclic_group,
    eigendata_from_characters,
    make_character_table,
    make_group_table,
)
from .scheme import EigenData, SchemeData, attach_eigendata, verify_scheme

zeta = Cyclotomic.zeta

X8_RELATION = [
    [0, 1, 2, 3, 4, 4, 4, 4],
    [1, 0, 3, 2, 4, 4, 4, 4],
    [3, 2, 0, 1, 4, 4, 4, 4],
    [2, 3, 1, 0, 4, 4, 4, 4],
    [4, 4, 4, 4, 0, 1, 2, 3],
    [4, 4, 4, 4, 1, 0, 3, 2],
    [4, 4, 4, 4, 3, 2, 0, 1],
    [4, 4, 4, 4, 2, 3, 1, 0],
]

Y8_RELATION = [
    [0, 1, 2, 2, 3, 3, 4, 4],
    [1, 0, 2, 2, 3, 3, 4, 4],
    [2, 2, 0, 1, 4, 4, 3, 3],
    [2, 2, 1, 0, 4, 4, 3, 3],
    [4, 4, 3, 3, 0, 1, 2, 2],
    [4, 4, 3, 3, 1, 0, 2, 2],
    [3, 3, 4, 4, 2, 2, 0, 1],
    [3, 3, 4, 4, 2, 2, 1, 0],
]


def _x8_eigenmatrix() -> CycMatrix:
    i = zeta(4)
    return CycMatrix(
        [
            [1, 1, 2, 2, 2],
            [1, 1, -2, -2, 2],
            [1, 1, -2 * i, 2 * i, -2],
            [1, 1, 2 * i, -2 * i, -2],
            [1, -1, 0, 0, 0],
        ]
    )


def _y8_eigenmatrix() -> CycMatrix:
    i = zeta(4)
    return CycMatrix(
        [
            [1, 1, 1, 1, 4],
            [1, 1, 1, 1, -4],
            [1, -1, -1, 1, 0],
            [1, -i, i, -1, 0],
            [1, i, -i, -1, 0],
        ]
    )


def fano_lines(shift: tuple[int, int, int] = (1, 2, 4)) -> list[frozenset[int]]:
    """Lines of a Fano plane on {0..6} from a perfect difference set."""
    return [frozenset((i + s) % 7 for s in shift) for i in range(7)]


def coxeter_vertices() -> list[tuple[int, ...]]:
    """The 28 triples from {0..6} avoiding the standard Fano lines, sorted."""
    lines = set(fano_lines())
    return [
        t for t in combinations(range(7), 3) if frozenset(t) not in lines
    ]


def coxeter_second_fano() -> list[int]:
    """Vertex indices of a Fano plane disjoint from the deleted one.

    The complementary difference set {3, 5, 6} yields seven lines, none of
    which is a line of the standard plane, so all appear among the 28
    Coxeter vertices.
    """
    verts = {t: k for k, t in enumerate(coxeter_vertices())}
    return sorted(verts[tuple(sorted(line))] for line in fano_lines((3, 5, 6)))


def _coxeter_relation() -> np.ndarray:
    verts = coxeter_vertices()
    n = len(verts)
    adjacent = [
        [bool(not (set(a) & set(b))) for b in verts] for a in verts
    ]
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for v in range(n):
                    if adjacent[u][v] and dist[s, v] < 0:
                        dist[s, v] = depth
                        nxt.append(v)
            frontier = nxt
    if dist.min() < 0 or dist.max() != 4:
        raise InternalAssertion("Coxeter graph is not connected with diameter 4")
    return dist


def _coxeter_eigenmatrix() -> CycMatrix:
    sqrt2 = zeta(8) - zeta(8, 3)
    f = Fraction
    return CycMatrix(
        [
            [1, 8, 6, 7, 6],
            [1, f(16, 3), -2 + 2 * sqrt2, f(-7, 3), -2 - 2 * sqrt2],
            [1, f(4, 3), -2 * sqrt2, f(-7, 3), 2 * sqrt2],
            [1, f(-4, 3), -1, f(7, 3), -1],
            [1, f(-8, 3), 2 + sqrt2, f(-7, 3), 2 - sqrt2],
        ]
    )


def build_x8() -> tuple[SchemeData, EigenData]:
    scheme = verify_scheme(X8_RELATION)
    return scheme, attach_eigendata(scheme, _x8_eigenmatrix())


def build_y8() -> tuple[SchemeData, EigenData]:
    scheme = verify_scheme(Y8_RELATION)
    return scheme, attach_eigendata(scheme, _y8_eigenmatrix())


def build_coxeter() -> tuple[SchemeData, EigenData]:
    scheme = verify_scheme(_coxeter_relation())
    return scheme, attach_eigendata(scheme, _coxeter_eigenmatrix())


# ---------------------------------------------------------------------------
# Group scheme entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupSchemeBundle:
    group: GroupTable
    classes: ConjClassData
    table: CharacterTable
    scheme: SchemeData
    eigen: EigenData


def _bundle(group, classes, table) -> GroupSchemeBundle:
    scheme, found = conj_class_scheme(group)
    if found.classes != classes.classes:
        raise InternalAssertion("conjugacy classes disagree with the scheme's")
    eigen = eigendata_from_characters(group, classes, table, scheme)
    return GroupSchemeBundle(group, classes, table, scheme, eigen)


def alternating_group_4() -> tuple[GroupTable, ConjClassData, CharacterTable]:
    """A4 as permutations of four points, classes ordered: identity, the
    double transpositions, then the two classes of 3-cycles."""
    from itertools import permutations

    def parity(p):
        inv = sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4))
        return inv % 2

    def rank(p):
        fixed = sum(p[t] == t for t in range(4))
        return (0 if fixed == 4 else 1 if fixed == 0 else 2, p)

    elements = sorted((p for p in permutations(range(4)) if parity(p) == 0), key=rank)
    index = {p: k for k, p in enumerate(elements)}
    mult = [
        [index[tuple(a[b[t]] for t in range(4))] for b in elements] for a in elements
    ]
    group = make_group_table(mult)
    classes = conjugacy_classes(group)
    if classes.sizes != (1, 3, 4, 4):
        raise InternalAssertion("unexpected A4 class sizes")
    w = zeta(3)
    rows = [
        [1, 1, 1, 1],
        [1, 1, w, w * w],
        [1, 1, w * w, w],
        [3, -1, 0, 0],
    ]
    return group, classes, make_character_table(CycMatrix(rows, 3))


def build_z12() -> GroupSchemeBundle:
    return _bundle(*cyclic_group(12))


def build_a4() -> GroupSchemeBundle:
    return _bundle(*alternating_group_4())


def build_dicyclic(n: int) -> GroupSchemeBundle:
    return _bundle(*dicyclic_group(n))


# ---------------------------------------------------------------------------
# Persisted catalog
# ---------------------------------------------------------------------------

def _file(kind: str, group_only: bool = False) -> property:
    """An entry's file of this kind, named after the entry (None for a plain
    entry when only group entries have one)."""
    return property(lambda e: f"{e.name}.{kind}.json" if e.group or not group_only else None)


@dataclass(frozen=True)
class CatalogEntry:
    """One named example and its builder, which returns the verified scheme
    and eigendata, or a ``GroupSchemeBundle`` for a group entry; file names
    are relative to the catalog directory."""

    name: str
    note: str
    builder: Callable[[], tuple[SchemeData, EigenData] | GroupSchemeBundle]
    group: bool = False

    scheme_file = _file("scheme")
    eigen_file = _file("eigen")
    group_file = _file("group", group_only=True)
    chars_file = _file("chars", group_only=True)


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in (
    CatalogEntry("x8", "8-vertex Cayley scheme on Z4 x Z2 with Gaussian-integer eigenvalues",
                 build_x8),
    CatalogEntry("y8", "second 8-vertex scheme, non-isomorphic to x8 but with the same "
                 "rational fusion", build_y8),
    CatalogEntry("coxeter", "metric scheme of the Coxeter graph; no proper Galois fusion",
                 build_coxeter),
    CatalogEntry("z12", "conjugacy class scheme of the cyclic group Z12", build_z12,
                 group=True),
    CatalogEntry("a4", "conjugacy class scheme of the alternating group A4", build_a4,
                 group=True),
    *(CatalogEntry(f"dic{n}", f"conjugacy class scheme of the dicyclic group of order {4 * n}",
                   partial(build_dicyclic, n), group=True) for n in (3, 5, 7)),
)}


def data_dir() -> Path:
    return Path(__file__).parent / "data"


@dataclass(frozen=True)
class LoadedEntry:
    entry: CatalogEntry
    scheme: SchemeData
    eigen: EigenData
    group: GroupTable | None = None
    classes: ConjClassData | None = None
    table: CharacterTable | None = None


def list_entries() -> list[CatalogEntry]:
    return [CATALOG[name] for name in sorted(CATALOG)]


def load_entry(name: str) -> LoadedEntry:
    """Read an entry from disk and re-verify every part of it.

    A plain entry's stored Q is attached to its stored scheme.  A group
    entry's stored scheme must equal the one derived from the stored group,
    its eigendata come from the stored character table
    (``eigendata_from_characters``, which attaches them), and the stored Q
    must equal theirs.
    """
    from . import fileio

    try:
        entry = CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"known: {', '.join(sorted(CATALOG))}") from None
    base = data_dir()
    scheme = fileio.parse_scheme_file((base / entry.scheme_file).read_text())
    _, q = fileio.parse_eigen_file((base / entry.eigen_file).read_text())
    if not entry.group:
        return LoadedEntry(entry=entry, scheme=scheme, eigen=attach_eigendata(scheme, q))
    group = fileio.parse_group_file((base / entry.group_file).read_text())
    derived, classes = conj_class_scheme(group)
    if derived != scheme:
        raise ValidationError(f"{name}: stored scheme disagrees with the group")
    table = fileio.parse_character_file((base / entry.chars_file).read_text())
    eigen = eigendata_from_characters(group, classes, table, scheme)
    if eigen.Q != q:
        raise ValidationError(f"{name}: stored Q disagrees with the characters")
    return LoadedEntry(
        entry=entry, scheme=scheme, eigen=eigen,
        group=group, classes=classes, table=table,
    )


def generate_data(dest: Path | None = None) -> list[Path]:
    """Write the canonical catalog files; returns the paths written."""
    from . import fileio

    dest = dest or data_dir()
    dest.mkdir(parents=True, exist_ok=True)
    written = []

    def put(filename, text):
        path = dest / filename
        path.write_text(text)
        written.append(path)

    for entry in CATALOG.values():
        built = entry.builder()
        scheme, eigen = (built.scheme, built.eigen) if entry.group else built
        put(entry.scheme_file, fileio.dump_scheme(scheme))
        put(entry.eigen_file, fileio.dump_eigen(eigen))
        if entry.group:
            put(entry.group_file, fileio.dump_group(built.group))
            put(entry.chars_file, fileio.dump_characters(built.table))
    return written
