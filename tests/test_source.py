"""Source-level checks on the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "delsarte"


def test_no_bare_asserts_in_library():
    # `python -O` strips assert statements; invariants must raise
    # InternalAssertion instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _zero_seeded_accumulators(tree):
    """Names bound to Cyclotomic.from_rational(0, ...) and later grown by
    `name = name + ...` or `name += ...`, with their line numbers."""
    seeded = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "Cyclotomic.from_rational"
                and node.value.args
                and isinstance(node.value.args[0], ast.Constant)
                and node.value.args[0].value == 0):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    seeded.append((target.id, node.lineno))
    grown = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            grown.add(node.target.id)
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.left, ast.Name)
                and any(isinstance(t, ast.Name) and t.id == node.value.left.id
                        for t in node.targets)):
            grown.add(node.value.left.id)
    return [line for name, line in seeded if name in grown]


def test_no_scalar_accumulation_loops_in_library():
    # matrix-shaped identities run on the integer kernel in cyclotomic.py,
    # not on sums of Cyclotomic values built up from zero
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _zero_seeded_accumulators(tree)]
    assert not found, found


def test_accumulator_guard_catches_the_old_loop():
    old = (
        "def f(xs):\n"
        "    acc = Cyclotomic.from_rational(0, 1)\n"
        "    for x in xs:\n"
        "        acc = acc + x\n"
        "    return acc\n"
    )
    assert _zero_seeded_accumulators(ast.parse(old)) == [2]


def test_only_cyclotomic_reads_coefficients():
    # the integer lift of cyclotomic coefficients lives in one place: no
    # other module reads Cyclotomic.coeffs or the CycMatrix integer form
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cyclotomic.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("coeffs", "_num", "_den")]
    assert not found, found


def _iota_subscripts(tree):
    """Line numbers of every `<expr>.iota[...]` in the tree."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "iota"]


def test_only_fusion_reads_iota_by_index():
    # iota(T), its inverse and T' are GaloisOrbitData.merge, .unmerge and
    # .closure; no other module rebuilds them from the label map
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fusion.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _iota_subscripts(tree)]
    assert not found, found


def test_iota_guard_catches_the_old_line():
    old = "merged = sorted({orbit_data.iota[j] for j in T})\n"
    assert _iota_subscripts(ast.parse(old)) == [1]


def _power_table_readers(tree):
    """Names of the functions that mention _power_table, other than the
    function that builds it."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name != "_power_table"
            and any(isinstance(n, ast.Name) and n.id == "_power_table"
                    for n in ast.walk(node))}


def test_one_reduction_path():
    # every reduction on the power basis (products, Galois images,
    # embeddings, term lists, hence every scalar) goes through one basis map
    tree = ast.parse((SRC / "cyclotomic.py").read_text())
    assert _power_table_readers(tree) == {"_basis_map"}


def test_reduction_guard_catches_the_old_reader():
    old = (
        "def _reduce(n, vec):\n"
        "    pows = _power_table(n)\n"
        "    return [pows[j] for j in vec]\n"
        "class Cyclotomic:\n"
        "    def galois(self, k):\n"
        "        return _power_table(self.conductor)[k]\n"
        "def _basis_map(n, exponents):\n"
        "    return [_power_table(n)[e] for e in exponents]\n"
    )
    assert _power_table_readers(ast.parse(old)) == {"_reduce", "galois", "_basis_map"}
