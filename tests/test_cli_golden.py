"""Every CLI command's text and --json output on every catalog entry, pinned
by sha256 in tests/cli_golden.json.

Each command runs in process; its exit code, standard output and standard
error are hashed with the checkout's path and the temporary directory of
``group build --write`` masked, so the digests do not depend on where the
repository lives (``catalog list`` pads its table to the paths it prints,
so it runs with the data directory named ``<root>/src/delsarte/data``).
The files that ``--write`` leaves are hashed too.  To record the digests of
the code as it stands (only when its output is meant to change):

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from delsarte import catalog
from delsarte.catalog import CATALOG, data_dir
from delsarte.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def _commands(tmp: Path) -> dict[str, list[str]]:
    """Label -> argv, without --json: every command on every catalog entry."""
    base = data_dir()
    out = {"catalog list": ["catalog", "list"]}
    for n in (3, 5, 7):
        out[f"dicyclic table {n}"] = ["dicyclic", "table", "--n", str(n)]
    for family, params in (("cyclic", "6"), ("abelian", "2,4"), ("dicyclic", "5")):
        out[f"group build {family} {params}"] = [
            "group", "build", "--family", family, "--params", params]
        out[f"group build {family} {params} --write"] = [
            "group", "build", "--family", family, "--params", params,
            "--write", str(tmp / f"{family}{params}")]
    for name, entry in CATALOG.items():
        files = ["--scheme", str(base / entry.scheme_file), "--eigen", str(base / entry.eigen_file)]
        out[f"{name} scheme verify"] = ["scheme", "verify", "--scheme", str(base / entry.scheme_file)]
        out[f"{name} scheme eigen"] = ["scheme", "eigen", *files]
        for field in ("Q", "real", "F"):
            out[f"{name} fusion {field}"] = ["fusion", *files, "--field", field]
        out[f"{name} design report"] = ["design", "report", *files, "--subset", "0,1,2,3"]
        out[f"{name} design enum"] = ["design", "enum", *files, "--T", "1", "--max", "3",
                                      "--method", "cross_check"]
        for fuse in ([], ["--fuse", "rational"]):
            out[f"{name} lp design-bound {fuse}"] = ["lp", "design-bound", *files, "--T", "1", *fuse]
            out[f"{name} lp code-bound {fuse}"] = ["lp", "code-bound", *files, "--S", "1", *fuse]
        if entry.group_file:
            out[f"{name} group rational-fusion"] = [
                "group", "rational-fusion", "--group", str(base / entry.group_file),
                "--chars", str(base / entry.chars_file)]
    return out


def _digest(argv: list[str], tmp: Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    masked = Path("<root>/src/delsarte/data")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(catalog, "data_dir", lambda: masked):
        code = main(argv)
    written = "".join(f"{path.name}\n{path.read_text()}" for path in sorted(tmp.iterdir()))
    for path in tmp.iterdir():
        path.unlink()
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}\n{written}"
    root = str(Path(__file__).resolve().parent.parent)
    text = text.replace(str(tmp), "<tmp>").replace(root, "<root>")
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    """Label (with " --json" for the JSON run) -> sha256 of the masked output."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        found = {}
        for label, argv in _commands(tmp).items():
            found[label] = _digest(argv, tmp)
            found[f"{label} --json"] = _digest(argv + ["--json"], tmp)
    return found


def test_cli_output_matches_the_recorded_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
