"""The catalog as one table, and what load_entry verifies."""

import json
import shutil

import pytest

from delsarte import catalog, fileio, groups
from delsarte.catalog import CATALOG, data_dir, list_entries, load_entry
from delsarte.errors import BadEigenbasis, DelsarteError, ValidationError
from delsarte.scheme import attach_eigendata

GROUP_ENTRIES = [e.name for e in list_entries() if e.group]


def _stored(name):
    entry, base = CATALOG[name], data_dir()
    scheme = fileio.parse_scheme_file((base / entry.scheme_file).read_text())
    _, q = fileio.parse_eigen_file((base / entry.eigen_file).read_text())
    return scheme, q


def test_file_names_come_from_the_entry_name():
    files = set()
    for e in list_entries():
        kinds = ("scheme", "eigen", "group", "chars") if e.group else ("scheme", "eigen")
        names = [e.scheme_file, e.eigen_file, e.group_file, e.chars_file]
        assert [n for n in names if n] == [f"{e.name}.{kind}.json" for kind in kinds]
        assert (e.group_file is None) == (e.chars_file is None) == (not e.group)
        files.update(n for n in names if n)
    assert files == {path.name for path in data_dir().glob("*.json")}
    assert GROUP_ENTRIES == ["a4", "dic3", "dic5", "dic7", "z12"]


@pytest.mark.parametrize("name", GROUP_ENTRIES)
def test_group_entry_eigen_equals_the_attached_stored_q(name):
    # load_entry takes the character table's eigendata; they are the stored
    # Q attached to the stored scheme
    attached = attach_eigendata(*_stored(name))
    eigen = load_entry(name).eigen
    assert eigen.P == attached.P
    assert eigen.Q == attached.Q
    assert eigen.multiplicities == attached.multiplicities
    assert eigen.conductor == attached.conductor


@pytest.mark.parametrize("name", GROUP_ENTRIES)
def test_group_entry_is_attached_once(name, monkeypatch):
    calls = []

    def counted(scheme, q):
        calls.append(scheme.size)
        return attach_eigendata(scheme, q)

    monkeypatch.setattr(catalog, "attach_eigendata", counted)
    monkeypatch.setattr(groups, "attach_eigendata", counted)
    load_entry(name)
    assert len(calls) == 1


def _corrupt_entry(q):
    q[1][1] = "7"


def _swap_columns(q):
    # a permuted basis satisfies every identity attach checks
    for row in q:
        row[1], row[2] = row[2], row[1]


def _with_corrupted_q(name, corrupt, tmp_path, monkeypatch):
    """Point the catalog at a copy whose stored Q of ``name`` is corrupted."""
    shutil.copytree(data_dir(), tmp_path, dirs_exist_ok=True)
    monkeypatch.setattr(catalog, "data_dir", lambda: tmp_path)
    path = tmp_path / CATALOG[name].eigen_file
    obj = json.loads(path.read_text())
    corrupt(obj["Q"])
    path.write_text(fileio.canonical_dumps(obj))


@pytest.mark.parametrize("corrupt", [_corrupt_entry, _swap_columns])
@pytest.mark.parametrize("name", ["a4", "dic3", "z12"])
def test_corrupted_stored_q_of_a_group_entry_is_refused(name, corrupt, tmp_path, monkeypatch):
    _with_corrupted_q(name, corrupt, tmp_path, monkeypatch)
    with pytest.raises(ValueError, match="stored Q disagrees with the characters") as err:
        load_entry(name)
    assert type(err.value) is ValidationError and isinstance(err.value, DelsarteError)


@pytest.mark.parametrize("name", ["a4", "dic3", "z12"])
def test_relabelled_stored_scheme_of_a_group_entry_is_refused(name, tmp_path, monkeypatch):
    # classes 1 and 2 swapped: still a scheme, but not the group's
    shutil.copytree(data_dir(), tmp_path, dirs_exist_ok=True)
    monkeypatch.setattr(catalog, "data_dir", lambda: tmp_path)
    path = tmp_path / CATALOG[name].scheme_file
    obj = json.loads(path.read_text())
    obj["relation"] = [[{1: 2, 2: 1}.get(c, c) for c in row] for row in obj["relation"]]
    path.write_text(fileio.canonical_dumps(obj))
    with pytest.raises(ValueError, match="stored scheme disagrees with the group") as err:
        load_entry(name)
    assert type(err.value) is ValidationError and isinstance(err.value, DelsarteError)


def test_corrupted_stored_q_of_a_plain_entry_fails_attach(tmp_path, monkeypatch):
    _with_corrupted_q("x8", _corrupt_entry, tmp_path, monkeypatch)
    with pytest.raises(BadEigenbasis):
        load_entry("x8")
