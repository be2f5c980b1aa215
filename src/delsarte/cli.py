"""Command-line surface.

Every subcommand is a thin shell over the library: files are parsed, the
relevant operations run, and results print as exact-value text tables or
machine-readable JSON (--json).  No floating point ever appears in output.

Exit codes: 0 success, 1 domain error (invalid scheme, no fusion, an index
out of range, a malformed index list, ...), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import catalog, fileio
from .cyclotomic import SubfieldSpec
from .designs import design_report, dicyclic_subgroup_table, enumerate_T_designs
from .errors import DelsarteError, ParseError
from .fusion import (
    bannai_muzychuk_idempotent,
    fuse_by_relation_partition,
    galois_fusion,
    orbit_merge,
)
from .groups import builtin_group, conj_class_scheme, eigendata_from_characters, rational_class_fusion
from .lp import delsarte_code_lp, delsarte_design_lp
from .scheme import attach_eigendata, validate_indices


def _emit(args, payload, text_lines):
    """Print the dict that ``payload()`` returns as JSON under --json, else
    the lines that ``text_lines()`` returns: each is built only to be printed."""
    if args.json:
        print(json.dumps(payload(), sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _table(rows) -> list[str]:
    rows = [[str(v) for v in row] for row in rows]
    if not rows:
        return []
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return ["  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows]


def _matrix_lines(name, m) -> list[str]:
    return [f"{name} ="] + ["  " + line for line in _table(m.texts())]


def _load_scheme_eigen(args):
    scheme = fileio.parse_scheme_file(Path(args.scheme).read_text())
    _, q = fileio.parse_eigen_file(Path(args.eigen).read_text())
    return scheme, attach_eigendata(scheme, q)


def _parse_indices(text) -> list[int]:
    if not text:
        return []
    try:
        return [int(t) for t in str(text).split(",") if t != ""]
    except ValueError:
        raise ParseError(None, f"bad index list {text!r}; expected e.g. 1,2,5") from None


def _subfield(spec_text: str, conductor: int) -> SubfieldSpec:
    if spec_text == "Q":
        return SubfieldSpec.rationals(conductor)
    if spec_text == "real":
        return SubfieldSpec.real(conductor)
    if spec_text == "F":
        return SubfieldSpec.splitting_field(conductor)
    return SubfieldSpec(conductor, _parse_indices(spec_text))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_scheme_verify(args):
    scheme = fileio.parse_scheme_file(Path(args.scheme).read_text())
    _emit(args, lambda: {
        "size": scheme.size,
        "classes": scheme.classes,
        "valencies": list(scheme.valencies),
        "transpose_map": list(scheme.transpose_map),
        "symmetric": scheme.is_symmetric(),
    }, lambda: [
        f"valid scheme on {scheme.size} vertices with {scheme.classes} classes",
        f"valencies:     {list(scheme.valencies)}",
        f"transpose map: {list(scheme.transpose_map)}",
        f"symmetric:     {scheme.is_symmetric()}",
    ])
    return 0


def cmd_scheme_eigen(args):
    scheme, eigen = _load_scheme_eigen(args)
    from .scheme import krein_parameters

    kd = krein_parameters(eigen)
    _emit(args, lambda: {
        "conductor": eigen.conductor,
        "multiplicities": list(eigen.multiplicities),
        "valencies": list(scheme.valencies),
        "krein_conductor": kd.krein_conductor,
        "P": fileio.literal_rows(eigen.P),
        "Q": fileio.literal_rows(eigen.Q),
    }, lambda: [
        f"eigendata verified; splitting conductor {eigen.conductor}, "
        f"Krein conductor {kd.krein_conductor}",
        f"multiplicities: {list(eigen.multiplicities)}",
        *_matrix_lines("P", eigen.P),
        *_matrix_lines("Q", eigen.Q),
    ])
    return 0


def cmd_fusion(args):
    scheme, eigen = _load_scheme_eigen(args)
    subfield = _subfield(args.field, eigen.conductor)
    data = orbit_merge(eigen, subfield)
    verdict = bannai_muzychuk_idempotent(data)
    q_f = None
    if verdict.passes:
        fs = fuse_by_relation_partition(scheme, eigen, verdict.row_classes, orbit_data=data)
        q_f = fs.Q_F

    def payload():
        return fileio.fusion_report_to_json(
            verdict.passes, data.orbits, data.iota, verdict.row_classes, q_f
        )

    def text():
        lines = [
            f"orbits: {[list(o) for o in data.orbits]}",
            f"iota:   {list(data.iota)}",
        ]
        lines += _matrix_lines("Qbar", data.Qbar)
        if verdict.passes:
            lines.append(f"fusion exists; fused classes {[list(c) for c in verdict.row_classes]}")
            lines += _matrix_lines("Q_F", q_f)
        else:
            lines.append(
                f"no fusion over this subfield: {verdict.distinct_rows} distinct "
                f"rows for {data.orbit_count} orbits"
            )
        return lines

    _emit(args, payload, text)
    return 0 if verdict.passes else 1


def cmd_design_report(args):
    scheme, eigen = _load_scheme_eigen(args)
    if args.design:
        subset = fileio.parse_design_file(Path(args.design).read_text(), scheme.size)
    else:
        subset = _parse_indices(args.subset)
    report = design_report(scheme, eigen, subset)
    _emit(args, lambda: fileio.design_report_to_json(report, eigen.conductor), lambda: [
        f"a = {[fileio.rational_to_str(v) for v in report.a]}",
        f"b = {report.dual.texts()[0]}",
        f"T(C) = {list(report.T)}",
    ])
    return 0


def cmd_design_enum(args):
    scheme, eigen = _load_scheme_eigen(args)
    t_set = _parse_indices(args.T)
    found = enumerate_T_designs(
        scheme, eigen, t_set, args.min, args.max, method=args.method
    )
    _emit(args, lambda: {"T": sorted(set(t_set)), "count": len(found),
                         "designs": [list(c) for c in found]}, lambda: [
        f"{len(found)} designs with T >= {sorted(set(t_set))}, sizes {args.min}..{args.max}",
        *(" ".join(str(v) for v in c) for c in found),
    ])
    return 0


def cmd_group_build(args):
    params = _parse_indices(args.params)
    group, classes, table = builtin_group(args.family, *params)
    scheme, _ = conj_class_scheme(group)
    eigen = eigendata_from_characters(group, classes, table, scheme)
    if args.write:
        prefix = Path(args.write)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        files = {
            f"{prefix}.group.json": fileio.dump_group(group),
            f"{prefix}.chars.json": fileio.dump_characters(table),
            f"{prefix}.scheme.json": fileio.dump_scheme(scheme),
            f"{prefix}.eigen.json": fileio.dump_eigen(eigen),
        }
        for path, text in files.items():
            Path(path).write_text(text)
        _emit(args, lambda: {"written": sorted(files)}, lambda: [f"wrote {p}" for p in sorted(files)])
        return 0
    _emit(args, lambda: {
        "order": group.order,
        "class_sizes": list(classes.sizes),
        "conductor": table.conductor,
        "degrees": list(table.degrees),
    }, lambda: [
        f"{args.family}({', '.join(map(str, params))}): order {group.order}",
        f"class sizes: {list(classes.sizes)}",
        f"character degrees: {list(table.degrees)}",
    ])
    return 0


def cmd_group_rational_fusion(args):
    group = fileio.parse_group_file(Path(args.group).read_text())
    table = fileio.parse_character_file(Path(args.chars).read_text())
    scheme, classes = conj_class_scheme(group)
    eigen = eigendata_from_characters(group, classes, table, scheme)
    partition, fused = rational_class_fusion(group, classes, scheme, eigen)
    _emit(args, lambda: {
        "rational_classes": [list(c) for c in partition],
        "fused_classes": fused.fused.classes,
        "P_F": fileio.literal_rows(fused.P_F),
        "Q_F": fileio.literal_rows(fused.Q_F),
    }, lambda: [
        f"rational classes: {[list(c) for c in partition]}",
        *_matrix_lines("P_F", fused.P_F),
        *_matrix_lines("Q_F", fused.Q_F),
    ])
    return 0


def cmd_dicyclic_table(args):
    rows = dicyclic_subgroup_table(args.n)
    header = ["subgroup", "order", "a", "b", "T"]
    _emit(args, lambda: {
        "n": args.n,
        "rows": [
            {
                "kind": r.kind,
                "k": r.k,
                "order": r.order,
                "a": [fileio.rational_to_str(v) for v in r.a],
                "b": fileio.literal_rows(r.dual)[0],
                "T": list(r.T),
            }
            for r in rows
        ],
    }, lambda: _table([header] + [
        [
            f"{r.kind}(k={r.k})",
            r.order,
            "[" + " ".join(fileio.rational_to_str(v) for v in r.a) + "]",
            "[" + " ".join(r.dual.texts()[0]) + "]",
            "{" + " ".join(map(str, r.T)) + "}",
        ]
        for r in rows
    ]))
    return 0


def _lp_source(args, text: str, name: str):
    """Eigendata, the Galois fusion over Q when --fuse asks for it, and the
    index set, checked against the unfused scheme before anything maps it."""
    scheme, eigen = _load_scheme_eigen(args)
    indices = validate_indices(_parse_indices(text), scheme.d, name)
    fused = None
    if args.fuse == "rational":
        fused = galois_fusion(scheme, eigen, SubfieldSpec.rationals(eigen.conductor))
    return eigen, fused, indices


def cmd_lp_design(args):
    eigen, fused, t_set = _lp_source(args, args.T, "T")
    if fused is not None:
        merged = fused.orbit_data.merge(t_set)
        result = delsarte_design_lp(fused, merged)
        note = f"(fused over Q; merged T = {list(merged)})"
    else:
        result = delsarte_design_lp(eigen, t_set)
        note = ""
    payload = fileio.lp_result_to_json(result)
    _emit(args, lambda: payload, lambda: [f"design LP bound {note}".rstrip() + f": {payload}"])
    return 0 if result.status == "optimal" else 1


def cmd_lp_code(args):
    eigen, fused, s_set = _lp_source(args, args.S, "S")
    if fused is not None:
        mapped = sorted({fused.class_map[i] for i in s_set})
        result = delsarte_code_lp(fused, mapped)
        note = f"(fused over Q; merged S = {mapped})"
    else:
        result = delsarte_code_lp(eigen, s_set)
        note = ""
    payload = fileio.lp_result_to_json(result)
    _emit(args, lambda: payload, lambda: [f"code LP bound {note}".rstrip() + f": {payload}"])
    return 0 if result.status == "optimal" else 1


def cmd_catalog_list(args):
    base = catalog.data_dir()
    entries = catalog.list_entries()
    _emit(args, lambda: {
        "entries": [
            {
                "name": e.name,
                "scheme": str(base / e.scheme_file),
                "eigen": str(base / e.eigen_file),
                "group": str(base / e.group_file) if e.group_file else None,
                "chars": str(base / e.chars_file) if e.chars_file else None,
                "note": e.note,
            }
            for e in entries
        ]
    }, lambda: _table(
        [["name", "scheme file", "note"]]
        + [[e.name, str(base / e.scheme_file), e.note] for e in entries]
    ))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.  Parsing
    leaves it unchanged (usage errors too): the namespace it returns carries
    all per-call state."""
    parser = argparse.ArgumentParser(
        prog="delsarte",
        description="exact association scheme computations: eigenstructure, "
        "Galois fusions, Delsarte designs, LP bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, parent, **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    scheme = sub.add_parser("scheme", help="verify schemes, attach eigendata")
    scheme_sub = scheme.add_subparsers(dest="subcommand", required=True)
    p = add("verify", cmd_scheme_verify, scheme_sub, help="check the four axioms")
    p.add_argument("--scheme", required=True)
    p = add("eigen", cmd_scheme_eigen, scheme_sub, help="attach and verify Q")
    p.add_argument("--scheme", required=True)
    p.add_argument("--eigen", required=True)

    p = add("fusion", cmd_fusion, sub, help="Galois fusion over a subfield")
    p.add_argument("--scheme", required=True)
    p.add_argument("--eigen", required=True)
    p.add_argument("--field", default="Q",
                   help="Q, real, F, or fixing-group generators like 1,7")

    design = sub.add_parser("design", help="Delsarte design analysis")
    design_sub = design.add_subparsers(dest="subcommand", required=True)
    p = add("report", cmd_design_report, design_sub,
            help="inner/dual distribution and T(C)")
    p.add_argument("--scheme", required=True)
    p.add_argument("--eigen", required=True)
    p.add_argument("--subset", help="comma-separated 0-based vertex indices")
    p.add_argument("--design", help="design JSON file (subset or weights)")
    p = add("enum", cmd_design_enum, design_sub, help="exhaustive enumeration")
    p.add_argument("--scheme", required=True)
    p.add_argument("--eigen", required=True)
    p.add_argument("--T", default="", help="required annihilated indices")
    p.add_argument("--min", type=int, default=1)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--method", default="direct",
                   choices=["direct", "fused", "cross_check"])

    group = sub.add_parser("group", help="group schemes")
    group_sub = group.add_subparsers(dest="subcommand", required=True)
    p = add("build", cmd_group_build, group_sub, help="build a built-in family")
    p.add_argument("--family", required=True, choices=["cyclic", "abelian", "dicyclic"])
    p.add_argument("--params", required=True, help="e.g. 12 or 4,2")
    p.add_argument("--write", help="write <prefix>.{group,chars,scheme,eigen}.json")
    p = add("rational-fusion", cmd_group_rational_fusion, group_sub,
            help="fuse along rational conjugacy classes")
    p.add_argument("--group", required=True)
    p.add_argument("--chars", required=True)

    dicyclic = sub.add_parser("dicyclic", help="dicyclic case study")
    dicyclic_sub = dicyclic.add_subparsers(dest="subcommand", required=True)
    p = add("table", cmd_dicyclic_table, dicyclic_sub,
            help="subgroup distribution table")
    p.add_argument("--n", type=int, required=True)

    lp = sub.add_parser("lp", help="exact Delsarte LP bounds")
    lp_sub = lp.add_subparsers(dest="subcommand", required=True)
    p = add("design-bound", cmd_lp_design, lp_sub, help="lower bound on T-designs")
    p.add_argument("--scheme", required=True)
    p.add_argument("--eigen", required=True)
    p.add_argument("--T", default="")
    p.add_argument("--fuse", choices=["rational"],
                   help="pose the LP on the Galois fusion over Q")
    p = add("code-bound", cmd_lp_code, lp_sub, help="upper bound on codes")
    p.add_argument("--scheme", required=True)
    p.add_argument("--eigen", required=True)
    p.add_argument("--S", default="", help="forbidden relation indices")
    p.add_argument("--fuse", choices=["rational"])

    cat = sub.add_parser("catalog", help="built-in example schemes")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)
    add("list", cmd_catalog_list, cat_sub, help="list entries and paths")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DelsarteError, OSError, UnicodeDecodeError) as exc:
        # a domain error, or a file that cannot be read, written or decoded
        if getattr(args, "json", False):
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
