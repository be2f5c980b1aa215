import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delsarte.catalog import data_dir, load_entry
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


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(FILE_COMMANDS),
    content=st.one_of(st.binary(max_size=24), st.sampled_from([b"\xff{}", b"{}", b"[]"]),
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
