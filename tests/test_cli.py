import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delsarte.catalog import data_dir, list_entries, load_entry
from delsarte.cli import main


def entry_paths(name):
    base = data_dir()
    return str(base / f"{name}.scheme.json"), str(base / f"{name}.eigen.json")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_scheme_verify(capsys):
    scheme, _ = entry_paths("x8")
    code, payload = run_json(capsys, ["scheme", "verify", "--scheme", scheme])
    assert code == 0
    assert payload["valencies"] == [1, 1, 1, 1, 4]


def test_scheme_verify_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"size": 2, "classes": 2, "relation": [[0, 1], [0, 0]]}')
    code, _, err = run(capsys, ["scheme", "verify", "--scheme", str(bad)])
    assert code == 1
    assert "axiom" in err


def test_scheme_eigen(capsys):
    scheme, eigen = entry_paths("x8")
    code, payload = run_json(
        capsys, ["scheme", "eigen", "--scheme", scheme, "--eigen", eigen]
    )
    assert code == 0
    assert payload["multiplicities"] == [1, 1, 2, 2, 2]


def test_fusion_x8_passes(capsys):
    scheme, eigen = entry_paths("x8")
    code, payload = run_json(
        capsys, ["fusion", "--scheme", scheme, "--eigen", eigen, "--field", "Q"]
    )
    assert code == 0
    assert payload["passes"] is True
    assert payload["orbits"] == [[0], [1], [2, 3], [4]]
    assert payload["Q_F"] == [
        ["1", "1", "4", "2"],
        ["1", "1", "-4", "2"],
        ["1", "1", "0", "-2"],
        ["1", "-1", "0", "0"],
    ]


def test_fusion_builds_the_galois_fusion_from_its_orbit_data(capsys, monkeypatch):
    # one route to a Galois fusion: the command passes its orbit data, as
    # galois_fusion does, so Qbar is reused and the row classes of PO are
    # checked against the orbits
    import delsarte.cli as cli
    seen, fuse = [], cli.fuse_by_relation_partition

    def spy(*args, **kwargs):
        seen.append(kwargs.get("orbit_data"))
        return fuse(*args, **kwargs)

    monkeypatch.setattr(cli, "fuse_by_relation_partition", spy)
    scheme, eigen = entry_paths("x8")
    code, _ = run_json(capsys, ["fusion", "--scheme", scheme, "--eigen", eigen, "--field", "Q"])
    assert code == 0 and len(seen) == 1
    assert seen[0] is not None and seen[0].orbits == ((0,), (1,), (2, 3), (4,))


def test_fusion_coxeter_fails_with_exit_1(capsys):
    scheme, eigen = entry_paths("coxeter")
    code, payload = run_json(
        capsys, ["fusion", "--scheme", scheme, "--eigen", eigen, "--field", "Q"]
    )
    assert code == 1
    assert payload["passes"] is False
    assert payload["Q_F"] is None
    assert len(payload["row_classes"]) == 5


def test_design_report(capsys):
    scheme, eigen = entry_paths("x8")
    code, payload = run_json(
        capsys,
        ["design", "report", "--scheme", scheme, "--eigen", eigen,
         "--subset", "0,1,4,5"],
    )
    assert code == 0
    assert payload["a"] == ["1", "1", "0", "0", "2"]
    assert payload["T"] == [1, 2, 3]


def test_design_report_from_file(tmp_path, capsys):
    scheme, eigen = entry_paths("x8")
    design = tmp_path / "c.json"
    design.write_text('{"subset": [0, 1, 4, 5]}')
    code, payload = run_json(
        capsys,
        ["design", "report", "--scheme", scheme, "--eigen", eigen,
         "--design", str(design)],
    )
    assert code == 0
    assert payload["T"] == [1, 2, 3]


def test_design_file_with_a_negative_weight_is_a_domain_error(tmp_path, capsys):
    scheme, eigen = entry_paths("x8")
    design = tmp_path / "w.json"
    design.write_text('{"weights": ["-1", "1", "1", "1", "0", "0", "0", "0"]}')
    code, payload = run_json(
        capsys,
        ["design", "report", "--scheme", scheme, "--eigen", eigen,
         "--design", str(design)],
    )
    assert code == 1
    assert payload["error"] == "ValidationError"


def test_design_enum(capsys):
    scheme, eigen = entry_paths("x8")
    code, payload = run_json(
        capsys,
        ["design", "enum", "--scheme", scheme, "--eigen", eigen,
         "--T", "1,2,3", "--min", "1", "--max", "8", "--method", "cross_check"],
    )
    assert code == 0
    assert [0, 1, 4, 5] in payload["designs"]


def test_group_build_and_write(tmp_path, capsys):
    prefix = tmp_path / "c6"
    code, payload = run_json(
        capsys,
        ["group", "build", "--family", "cyclic", "--params", "6",
         "--write", str(prefix)],
    )
    assert code == 0
    assert len(payload["written"]) == 4
    code2, payload2 = run_json(
        capsys,
        ["group", "rational-fusion", "--group", f"{prefix}.group.json",
         "--chars", f"{prefix}.chars.json"],
    )
    assert code2 == 0
    assert payload2["rational_classes"] == [[0], [1, 5], [2, 4], [3]]


def test_dicyclic_table(capsys):
    code, payload = run_json(capsys, ["dicyclic", "table", "--n", "3"])
    assert code == 0
    rows = {(r["kind"], r["k"]): r for r in payload["rows"]}
    assert rows[("cyclic", 2)]["b"] == ["3", "3", "3", "3", "0", "0"]
    assert rows[("dicyclic", 1)]["b"][0] == "12"


def test_dicyclic_table_rejects_even_n(capsys):
    code, _, err = run(capsys, ["dicyclic", "table", "--n", "4"])
    assert code == 1
    assert "odd" in err


def test_lp_design_bound_with_fusion(capsys):
    scheme, eigen = entry_paths("x8")
    code, payload = run_json(
        capsys,
        ["lp", "design-bound", "--scheme", scheme, "--eigen", eigen,
         "--T", "1,2,3", "--fuse", "rational"],
    )
    assert code == 0
    assert payload["status"] == "optimal"
    assert payload["value"] == "4"  # tight: the minimum design has size 4


def test_lp_design_bound_requires_rational_data(capsys):
    scheme, eigen = entry_paths("coxeter")
    code, payload = run_json(
        capsys,
        ["lp", "design-bound", "--scheme", scheme, "--eigen", eigen, "--T", "1"],
    )
    assert code == 1
    assert payload["error"] == "IrrationalData"


def test_lp_code_bound(capsys):
    scheme, eigen = entry_paths("z12")
    code, payload = run_json(
        capsys,
        ["lp", "code-bound", "--scheme", scheme, "--eigen", eigen,
         "--S", "1,2", "--fuse", "rational"],
    )
    assert code == 0
    assert payload["status"] == "optimal"


def test_catalog_list(capsys):
    code, payload = run_json(capsys, ["catalog", "list"])
    assert code == 0
    names = [e["name"] for e in payload["entries"]]
    assert names == ["a4", "coxeter", "dic3", "dic5", "dic7", "x8", "y8", "z12"]


def test_catalog_list_json_names_the_packaged_files(capsys):
    # the paths are those of the packaged data directory, in one canonical line
    base = data_dir()
    want = {"entries": [
        {"name": e.name, "scheme": str(base / e.scheme_file), "eigen": str(base / e.eigen_file),
         "group": str(base / e.group_file) if e.group_file else None,
         "chars": str(base / e.chars_file) if e.chars_file else None, "note": e.note}
        for e in list_entries()]}
    code, out, _ = run(capsys, ["catalog", "list", "--json"])
    assert code == 0
    assert out == json.dumps(want, sort_keys=True) + "\n"


def test_catalog_list_has_no_catalog_option(capsys):
    # the former --catalog only prefixed the printed paths and read nothing
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "list", "--catalog", "x"])
    assert exc.value.code == 2
    assert "--catalog" in capsys.readouterr().err


def test_text_output_has_no_floats(capsys):
    scheme, eigen = entry_paths("coxeter")
    code, out, _ = run(
        capsys, ["scheme", "eigen", "--scheme", scheme, "--eigen", eigen]
    )
    assert code == 0
    assert "." not in out  # exact strings only: integers, p/q, z8 powers


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scheme", "verify"])  # missing --scheme
    assert exc.value.code == 2


# (argv prefix, option, the indices it accepts given |X| and d) per command
FUZZED = [
    (["design", "report"], "--subset", lambda n, d: range(n)),
    (["design", "enum", "--max", "12"], "--T", lambda n, d: range(1, d + 1)),
    (["lp", "design-bound"], "--T", lambda n, d: range(1, d + 1)),
    (["lp", "design-bound", "--fuse", "rational"], "--T", lambda n, d: range(1, d + 1)),
    (["lp", "code-bound"], "--S", lambda n, d: range(1, d + 1)),
    (["lp", "code-bound", "--fuse", "rational"], "--S", lambda n, d: range(1, d + 1)),
]


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["x8", "z12"]),
    command=st.sampled_from(FUZZED),
    values=st.lists(st.integers(min_value=-15, max_value=30), max_size=5),
)
def test_index_options_fail_cleanly(name, command, values):
    # negatives, indices >= |X| or > d, duplicates and the empty list: every
    # run ends in a JSON line, and any index out of range is a domain error
    prefix, option, valid = command
    scheme = load_entry(name).scheme
    paths = entry_paths(name)
    argv = prefix + ["--scheme", paths[0], "--eigen", paths[1], "--json",
                     f"{option}={','.join(map(str, values))}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1)
    payload = json.loads(out.getvalue().splitlines()[-1])
    if any(v not in valid(scheme.size, scheme.d) for v in values):
        assert code == 1
        assert payload["error"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["design", "report", "--subset", "a,b"],
    ["lp", "design-bound", "--T", "x"],
    ["lp", "code-bound", "--S", "1;2"],
])
def test_malformed_index_list_is_a_parse_error(capsys, argv):
    scheme, eigen = entry_paths("x8")
    code, payload = run_json(
        capsys, argv[:2] + ["--scheme", scheme, "--eigen", eigen] + argv[2:]
    )
    assert code == 1
    assert payload["error"] == "ParseError"
    assert "bad index list" in payload["message"]


@pytest.mark.parametrize("word", ["rationals", "rational", "q", "R", "splitting", "full"])
def test_field_takes_no_aliases(capsys, word):
    # --field takes Q, real, F or a generator list; any other word is read
    # as a generator list
    scheme, eigen = entry_paths("x8")
    code, payload = run_json(
        capsys, ["fusion", "--scheme", scheme, "--eigen", eigen, "--field", word]
    )
    assert code == 1
    assert payload["error"] == "ParseError"
    assert "bad index list" in payload["message"]


def run_clean(argv):
    """main(argv) exits 0 or 1; on 1 it reports one error line, on stderr or
    as the JSON payload under --json.  Returns the exit code and that line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 0:
        return code, None
    if "--json" in argv:
        assert err.getvalue() == ""
        return code, json.loads(out.getvalue().splitlines()[-1])["error"]
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code, lines[0]


# (argv with a FILE placeholder) per command that reads files
FILE_COMMANDS = [
    ["scheme", "verify", "--scheme", "FILE"],
    ["scheme", "eigen", "--scheme", "SCHEME", "--eigen", "FILE"],
    ["design", "report", "--scheme", "SCHEME", "--eigen", "EIGEN", "--design", "FILE"],
    ["group", "rational-fusion", "--group", "FILE", "--chars", "FILE"],
]


# an integer json.loads refuses with a plain ValueError, not a JSONDecodeError
OVERSIZED = b'{"size": ' + b"9" * 5001 + b', "classes": 1, "relation": [[0]]}'


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(FILE_COMMANDS),
    content=st.one_of(st.binary(max_size=24),
                      st.sampled_from([b"\xff{}", b"{}", b"[]", OVERSIZED]),
                      st.sampled_from(["dir", "missing"])),
    as_json=st.booleans(),
)
def test_unreadable_files_fail_cleanly(command, content, as_json):
    # undecodable bytes, directories and missing paths are exit 1 with one
    # error line (the JSON error payload under --json), never a traceback
    scheme, eigen = entry_paths("x8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("absent.json" if content == "missing" else "file.json")
        if isinstance(content, bytes):
            path.write_bytes(content)
        target = tmp if content == "dir" else str(path)
        argv = [{"FILE": target, "SCHEME": scheme, "EIGEN": eigen}.get(a, a) for a in command]
        code, error = run_clean(argv + ["--json"] * as_json)
    assert code == 1
    if content == "dir" and as_json:
        assert error == "IsADirectoryError"
    if content == "missing" and as_json:
        assert error == "FileNotFoundError"


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["cyclic", "abelian", "dicyclic"]),
    params=st.lists(st.integers(min_value=-2, max_value=5), max_size=3),
    as_json=st.booleans(),
)
def test_group_build_parameters_fail_cleanly(family, params, as_json):
    # any count and sign of parameters: a group, or UnsupportedFamily
    assume(math.prod(abs(p) or 1 for p in params) <= 25)
    argv = ["group", "build", "--family", family, f"--params={','.join(map(str, params))}"]
    code, error = run_clean(argv + ["--json"] * as_json)
    if family != "abelian" and len(params) != 1:
        assert code == 1
        assert error == "UnsupportedFamily" if as_json else "one parameter" in error


def _pair_class_grid(n):
    # every ordered pair x != y in a class of its own: n^2 - n + 1 classes
    return [[0 if x == y else 1 + x * (n - 1) + y - (y > x) for y in range(n)]
            for x in range(n)]


@pytest.mark.parametrize("kind, content", [
    ("scheme", OVERSIZED.decode()),
    ("scheme", json.dumps({"size": 40, "classes": 1561, "relation": _pair_class_grid(40)})),
    ("design", json.dumps({"weights": ["1e1000000"] + ["1"] * 7})),
    ("design", json.dumps({"weights": ["1/" + "9" * 5001] + ["1"] * 7})),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_oversized_inputs_are_domain_errors(tmp_path, kind, content, as_json):
    # 5001-digit integers, exponent literals and more classes than points:
    # exit 1 with one error line, or the JSON error payload
    scheme, eigen = entry_paths("x8")
    path = tmp_path / "file.json"
    path.write_text(content)
    if kind == "scheme":
        argv = ["scheme", "verify", "--scheme", str(path)]
    else:
        argv = ["design", "report", "--scheme", scheme, "--eigen", eigen, "--design", str(path)]
    code, error = run_clean(argv + ["--json"] * as_json)
    assert code == 1
    if as_json:
        assert error in ("ParseError", "NotAScheme")


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "delsarte.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("as_json", [False, True])
def test_one_process_answers_like_fresh_ones(as_json):
    # a success, a usage error, a domain error and the success again in one
    # process: each prints what it prints in an interpreter of its own
    scheme, eigen = entry_paths("x8")
    success = ["fusion", "--scheme", scheme, "--eigen", eigen, "--field", "Q"]
    usage = ["fusion", "--scheme", scheme]  # no --eigen
    domain = ["design", "report", "--scheme", scheme, "--eigen", eigen, "--subset", "a,b"]
    session = [success, usage, domain, success]
    flag = ["--json"] * as_json
    got = [_in_process(argv + flag) for argv in session]
    fresh = {tuple(argv): _fresh(argv + flag) for argv in (success, usage, domain)}
    assert [g[0] for g in got] == [0, 2, 1, 0]
    assert got == [fresh[tuple(argv)] for argv in session]


def test_the_parser_is_built_once(monkeypatch):
    scheme, eigen = entry_paths("x8")
    _in_process(["catalog", "list", "--json"])  # the first call may build it
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    codes = [_in_process(argv)[0] for argv in 5 * [
        ["scheme", "verify", "--scheme", scheme, "--json"],
        ["scheme", "verify"],
        ["dicyclic", "table", "--n", "4"],
        ["catalog", "list"],
    ]]
    assert codes == 5 * [0, 2, 1, 0]
    assert built == []


# the text tables, built only when they are printed: scheme eigen, fusion
# (pass and fail) and group rational-fusion
A4_EIGEN = """\
eigendata verified; splitting conductor 3, Krein conductor 1
multiplicities: [1, 1, 1, 9]
P =
  1   3          4          4
  1   3       4*z3  -4 - 4*z3
  1   3  -4 - 4*z3       4*z3
  1  -1          0          0
Q =
  1        1        1   9
  1        1        1  -3
  1  -1 - z3       z3   0
  1       z3  -1 - z3   0
"""

A4_FUSION = """\
orbits: [[0], [1, 2], [3]]
iota:   [0, 1, 1, 2]
Qbar =
  1   2   9
  1   2  -3
  1  -1   0
  1  -1   0
fusion exists; fused classes [[0], [1], [2, 3]]
Q_F =
  1   2   9
  1   2  -3
  1  -1   0
"""

COXETER_NO_FUSION = """\
orbits: [[0], [1], [2, 4], [3]]
iota:   [0, 1, 2, 3, 2]
Qbar =
  1     8  12     7
  1  16/3  -4  -7/3
  1   4/3   0  -7/3
  1  -4/3  -2   7/3
  1  -8/3   4  -7/3
no fusion over this subfield: 5 distinct rows for 4 orbits
"""

A4_RATIONAL_FUSION = """\
rational classes: [[0], [1], [2, 3]]
P_F =
  1   3   8
  1   3  -4
  1  -1   0
Q_F =
  1   2   9
  1   2  -3
  1  -1   0
"""


def test_text_tables_are_pinned(capsys):
    a4, a4_eigen = entry_paths("a4")
    coxeter, coxeter_eigen = entry_paths("coxeter")
    base = data_dir()
    cases = [
        (["scheme", "eigen", "--scheme", a4, "--eigen", a4_eigen], 0, A4_EIGEN),
        (["fusion", "--scheme", a4, "--eigen", a4_eigen, "--field", "Q"], 0, A4_FUSION),
        (["fusion", "--scheme", coxeter, "--eigen", coxeter_eigen], 1, COXETER_NO_FUSION),
        (["group", "rational-fusion", "--group", str(base / "a4.group.json"),
          "--chars", str(base / "a4.chars.json")], 0, A4_RATIONAL_FUSION),
    ]
    for argv, want_code, want in cases:
        assert run(capsys, argv) == (want_code, want, "")


def test_text_mode_builds_no_json_payload(capsys, monkeypatch):
    # the --json payload, with its literal rows of P, Q, P_F and Q_F, is
    # built only under --json; text mode prints the same tables without it
    from delsarte import fileio

    def refuse(*args, **kwargs):
        raise AssertionError("a JSON payload was built in text mode")

    a4, a4_eigen = entry_paths("a4")
    base = data_dir()
    commands = [
        ["scheme", "eigen", "--scheme", a4, "--eigen", a4_eigen],
        ["fusion", "--scheme", a4, "--eigen", a4_eigen, "--field", "Q"],
        ["group", "rational-fusion", "--group", str(base / "a4.group.json"),
         "--chars", str(base / "a4.chars.json")],
        ["design", "report", "--scheme", a4, "--eigen", a4_eigen, "--subset", "0,1,2"],
    ]
    for name in ("literal_rows", "fusion_report_to_json", "design_report_to_json"):
        monkeypatch.setattr(fileio, name, refuse)
    assert [run(capsys, argv)[0] for argv in commands] == [0, 0, 0, 0]
