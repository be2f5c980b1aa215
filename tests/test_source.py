"""Source-level checks on the library itself."""

import ast
import collections
from pathlib import Path

import delsarte

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


def _is_zero_seed(value):
    return (isinstance(value, ast.Call)
            and ast.unparse(value.func) == "Cyclotomic.from_rational"
            and value.args
            and isinstance(value.args[0], ast.Constant)
            and value.args[0].value == 0)


def _is_fraction_seed(value):
    """Fraction(0), alone or as the list [Fraction(0)] * k."""
    if (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult)
            and isinstance(value.left, ast.List) and len(value.left.elts) == 1):
        value = value.left.elts[0]
    return (isinstance(value, ast.Call) and ast.unparse(value.func) == "Fraction"
            and [ast.unparse(arg) for arg in value.args] == ["0"])


def _grown(node, items=False):
    """Names grown by `name = name + ...` or `name += ...` anywhere in node;
    with ``items``, also the lists grown by `name[...] += ...`."""
    grown = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.AugAssign):
            target = sub.target
            if items and isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Name):
                grown.add(target.id)
        if (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.BinOp)
                and isinstance(sub.value.left, ast.Name)
                and any(isinstance(t, ast.Name) and t.id == sub.value.left.id
                        for t in sub.targets)):
            grown.add(sub.value.left.id)
    return grown


def _scalar_accumulators(tree):
    """Line numbers of names seeded with Cyclotomic.from_rational(0, ...) and
    grown anywhere, or seeded with an entry or image read by subscript
    (`acc = m[0, 0]`, `total = rho.images[cell[0]]`) or with Fraction(0)
    (`[Fraction(0)] * k`) and grown in a loop."""
    grown = _grown(tree)
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    grown_in_loops = set().union(*(_grown(node) for node in loops))
    items_grown_in_loops = set().union(*(_grown(node, items=True) for node in loops))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if _is_zero_seed(node.value):
                names = grown
            elif isinstance(node.value, ast.Subscript):
                names = grown_in_loops
            elif _is_fraction_seed(node.value):
                names = items_grown_in_loops
            else:
                continue
            found += [node.lineno for t in node.targets
                      if isinstance(t, ast.Name) and t.id in names]
    return found


def test_no_scalar_accumulation_loops_in_library():
    # matrix-shaped identities run on the integer kernel in cyclotomic.py,
    # not on sums of Cyclotomic values built up from zero or from a first
    # entry or image
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _scalar_accumulators(tree)]
    assert not found, found


def test_accumulator_guard_catches_the_old_loop():
    old = (
        "def f(xs):\n"
        "    acc = Cyclotomic.from_rational(0, 1)\n"
        "    for x in xs:\n"
        "        acc = acc + x\n"
        "    return acc\n"
    )
    assert _scalar_accumulators(ast.parse(old)) == [2]


def test_accumulator_guard_catches_the_former_trace_and_class_sums():
    # groups._trace and the class-sum loop of representation_eigenvectors,
    # as they were before the representation became one block
    old = (
        "def _trace(m: CycMatrix) -> Cyclotomic:\n"
        "    acc = m[0, 0]\n"
        "    for t in range(1, m.rows):\n"
        "        acc = acc + m[t, t]\n"
        "    return acc\n"
        "def representation_eigenvectors(group, rho, scheme, classes):\n"
        "    verify_representation(group, rho)\n"
        "    f = rho.degree\n"
        "    for i, cell in enumerate(classes.classes):\n"
        "        total = rho.images[cell[0]]\n"
        "        for a in cell[1:]:\n"
        "            total = total + rho.images[a]\n"
        "        chi = _trace(rho.images[cell[0]])\n"
        "        theta = chi * len(cell) / f\n"
        "        if total != CycMatrix.identity(f).scale(theta):\n"
        "            raise NotEigen(i, f\"class sum is not {theta} I\")\n"
    )
    assert sorted(_scalar_accumulators(ast.parse(old))) == [2, 10]
    # a first read that is not grown in a loop is not an accumulator
    assert _scalar_accumulators(ast.parse("x = m[0, 0]\nx = x + 1\n")) == []


def test_accumulator_guard_catches_the_former_weighted_loop():
    # designs.inner_distribution on weighted subsets, as it was before the
    # contraction on the integer lift
    old = (
        "def inner_distribution(scheme, w):\n"
        "    w = _as_subset(scheme, w)\n"
        "    support = w.support\n"
        "    num = [Fraction(0)] * scheme.classes\n"
        "    for x in support:\n"
        "        wx = w.weights[x]\n"
        "        for y in support:\n"
        "            num[scheme.relation[x, y]] += wx * w.weights[y]\n"
        "    denom = sum(w.weights[x] ** 2 for x in support)\n"
        "    return tuple(v / denom for v in num)\n"
        "def total(xs):\n"
        "    acc = Fraction(0)\n"
        "    for x in xs:\n"
        "        acc = acc + x\n"
        "    return acc\n"
    )
    assert _scalar_accumulators(ast.parse(old)) == [4, 12]
    # a Fraction list that is only assigned into is not an accumulator
    fill = "w = [Fraction(0)] * size\nfor i in indices:\n    w[i] = Fraction(1)\n"
    assert _scalar_accumulators(ast.parse(fill)) == []


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


def _per_unit_galois(tree):
    """Line numbers of `.galois(...)` calls made once per pass of a loop or
    comprehension: the call's arguments read the loop variable."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            targets, bodies = [node.target], node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            targets, bodies = [g.target for g in node.generators], [node]
        else:
            continue
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        found |= {call.lineno for body in bodies for call in ast.walk(body)
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                  and call.func.attr == "galois"
                  and any(isinstance(n, ast.Name) and n.id in names
                          for arg in call.args for n in ast.walk(arg))}
    return sorted(found)


def test_galois_images_come_from_one_stack():
    # outside cyclotomic.py the images of a matrix under a list of units come
    # from CycMatrix.column_positions and .galois_moved, which make them one
    # at a time from the cached tables, not from one galois call per unit
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cyclotomic.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _per_unit_galois(tree)]
    assert not found, found


def test_galois_guard_catches_the_former_loops():
    # fusion.sigma_permutations, orbit_merge's subfield check and the fixing
    # group of krein_parameters, as they were before the stacked images
    old = (
        "def sigma_permutations(eigen, subfield):\n"
        "    n = eigen.conductor\n"
        "    for k in subfield.group:\n"
        "        image = eigen.Q.galois(k % n if n > 1 else 1)\n"
        "        signature = tuple(image.col_key(j) for j in range(dp1))\n"
        "def orbit_merge(eigen, subfield):\n"
        "    for g in subfield.generators:\n"
        "        outside |= ~(merged.galois(g) - merged).zero_mask()\n"
        "def krein_parameters(eigen):\n"
        "    fixing = [k for k in units_mod(n) if K.galois(k) == K]\n"
    )
    assert _per_unit_galois(ast.parse(old)) == [4, 8, 10]
    # one image, or a loop whose galois call does not follow the loop
    once = "want = Q.conjugate()\nfor j in range(d):\n    x = Q.galois(-1)\n"
    assert _per_unit_galois(ast.parse(once)) == []


#: the line keys of the kernel and their former public forms
LINE_KEYS = {"_keys", "line_keys", "galois_line_keys", "col_key"}


def _line_key_uses(tree):
    """(line, name) of every name, attribute, import or definition of a line key."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            name = node.name
        else:
            continue
        if name in LINE_KEYS:
            found.append((node.lineno, name))
    return sorted(found)


def test_only_cyclotomic_handles_line_keys():
    # when two lines may be compared by their numerators is decided in one
    # place: other modules match columns with CycMatrix.column_positions and
    # label equal lines with .line_labels
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cyclotomic.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in _line_key_uses(tree)]
    assert not found, found


def test_line_key_guard_catches_the_former_callers():
    # the dual map of attach_eigendata, fusion._group_rows and the matching
    # of build_design_transfer, as they were before column_positions
    old = (
        "from .cyclotomic import _keys\n"
        "col_keys = {key: j for j, key in enumerate(Q.line_keys(1))}\n"
        "(want,) = Q.select(rows=scheme.transpose_map).galois_line_keys([-1], 1)\n"
        "def _group_rows(matrix):\n"
        "    return _label_cells(matrix.line_keys(0))\n"
        "keys = {qy.col_key(l): l for l in range(qy.cols)}\n"
    )
    assert [line for line, _ in _line_key_uses(ast.parse(old))] == [1, 2, 3, 5, 6]
    assert _line_key_uses(ast.parse("(dual,) = Q.column_positions(Q, [-1])\n")) == []


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


def _fraction_tableau(tree):
    """Line numbers of a `_pivot` function and of every row update of a list
    tableau, `rows[r] = [... for ...]`."""
    return sorted(
        [node.lineno for node in ast.walk(tree)
         if isinstance(node, ast.FunctionDef) and node.name == "_pivot"]
        + [node.lineno for node in ast.walk(tree)
           if isinstance(node, ast.Assign) and isinstance(node.value, ast.ListComp)
           and any(isinstance(t, ast.Subscript) for t in node.targets)])


def _global_calls(tree, function, callee):
    """Whether `function` calls `callee` by its bare module-level name, with
    no local binding of that name to shadow it."""
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    names = [node for node in ast.walk(body) if isinstance(node, ast.Name) and node.id == callee]
    bound = any(isinstance(node.ctx, ast.Store) for node in names) or any(
        arg.arg == callee for arg in ast.walk(body.args) if isinstance(arg, ast.arg))
    called = any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == callee for node in ast.walk(body))
    return called and not bound


def test_lp_has_no_fraction_tableau():
    # the simplex pivots on the integer tableau; the Fraction tableau is the
    # reference in tests/lp_reference.py.  simplex_solve and both Delsarte
    # LPs (through _distribution_lp) solve through the module-level _solve,
    # so a wrapper installed on it sees every solve
    tree = ast.parse((SRC / "lp.py").read_text())
    assert _fraction_tableau(tree) == []
    for function in ("simplex_solve", "_distribution_lp"):
        assert _global_calls(tree, function, "_solve"), function
    for function in ("delsarte_design_lp", "delsarte_code_lp"):
        assert _global_calls(tree, function, "_distribution_lp"), function


def test_lp_guard_catches_the_old_tableau():
    old = (
        "def _pivot(tableau, basis, row, col):\n"
        "    piv = tableau[row][col]\n"
        "    tableau[row] = [v / piv for v in tableau[row]]\n"
        "def delsarte_code_lp(source, S, simplex_solve=simplex_solve):\n"
        "    return simplex_solve(problem)\n"
        "def delsarte_design_lp(source, T):\n"
        "    return lp.simplex_solve(problem)\n"
    )
    tree = ast.parse(old)
    assert _fraction_tableau(tree) == [1, 3]
    assert not _global_calls(tree, "delsarte_code_lp", "simplex_solve")
    assert not _global_calls(tree, "delsarte_design_lp", "simplex_solve")


def _scoped(tree, match):
    """(qualified name of the enclosing function or class, line) of every
    node for which match(node) holds; "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if match(child):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return found


def _named_calls(tree, callee):
    """(scope, line) of every call of `callee(...)` by its bare name (see
    ``_scoped``)."""
    return _scoped(tree, lambda node: isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id == callee)


def _fraction_calls(tree):
    """(scope, line) of every `Fraction(...)` call (see ``_named_calls``)."""
    return _named_calls(tree, "Fraction")


#: where lp.py may build Fractions: posed problems, the returned result and
#: its exact checks against the posed problem
LP_FRACTIONS = {"make_problem", "_solve", "_check_solution", "_check_dual"}


def test_delsarte_lps_build_no_fractions():
    # the Delsarte LPs pass the integer rows of the eigenvalue matrix and
    # their denominator to the solver as they are
    tree = ast.parse((SRC / "lp.py").read_text())
    found = [f"lp.py:{line} in {scope}" for scope, line in _fraction_calls(tree)
             if scope not in LP_FRACTIONS]
    assert not found, found


def test_lp_fraction_guard_catches_the_former_problem():
    old = (
        "def _distribution_problem(rows, den, relations, rhs, maximize):\n"
        "    return LPProblem(\n"
        "        objective=(_ONE,) * rows.shape[1],\n"
        "        constraints=tuple((tuple(Fraction(v, den) for v in row), rel, Fraction(b))\n"
        "                          for row, rel, b in zip(rows.tolist(), relations, rhs)),\n"
        "        maximize=maximize,\n"
        "    )\n"
    )
    found = _fraction_calls(ast.parse(old))
    assert found == [("_distribution_problem", 4)] * 2
    assert not LP_FRACTIONS & {scope for scope, _ in found}


#: where designs.py may build Fractions: the returned inner distribution,
#: and weights given by the caller
DESIGN_FRACTIONS = {"_distribution", "WeightedSubset.from_weights"}


def test_designs_build_fractions_only_at_the_boundary():
    # a subset stays in its integer lift from input to verdict
    tree = ast.parse((SRC / "designs.py").read_text())
    found = [f"designs.py:{line} in {scope}" for scope, line in _fraction_calls(tree)
             if scope not in DESIGN_FRACTIONS]
    assert not found, found


def test_fraction_guard_catches_the_former_index_list():
    # WeightedSubset.from_indices as it was before the lift was cached
    old = (
        "class WeightedSubset:\n"
        "    @classmethod\n"
        "    def from_indices(cls, size: int, indices):\n"
        "        w = [Fraction(0)] * size\n"
        "        for i in indices:\n"
        "            if not 0 <= i < size:\n"
        "                raise ValidationError(f'vertex index {i} outside')\n"
        "            w[i] = Fraction(1)\n"
        "        return cls(tuple(w))\n"
        "    @classmethod\n"
        "    def from_weights(cls, weights):\n"
        "        return cls(tuple(Fraction(w) for w in weights))\n"
    )
    found = _fraction_calls(ast.parse(old))
    assert found == [("WeightedSubset.from_indices", 4), ("WeightedSubset.from_indices", 8),
                     ("WeightedSubset.from_weights", 12)]
    assert [scope for scope, _ in found if scope not in DESIGN_FRACTIONS] == [
        "WeightedSubset.from_indices"] * 2


def _diagonal_products(tree):
    """Line numbers of every `CycMatrix.diagonal(...)` call that is a factor
    of a product."""
    return sorted({side.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.MatMult))
                   for side in (node.left, node.right)
                   if isinstance(side, ast.Call)
                   and ast.unparse(side.func) == "CycMatrix.diagonal"})


def test_no_products_with_diagonal_matrices():
    # a rational scaling of rows or columns is one broadcast multiply,
    # CycMatrix.scale_lines, not a dense product with a diagonal matrix
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _diagonal_products(tree)]
    assert not found, found


def test_diagonal_guard_catches_the_former_scalings():
    # P in scheme.attach_eigendata and Q_F in fusion.fuse_by_relation_partition,
    # as they were before scale_lines
    old = (
        "P = (\n"
        "    CycMatrix.diagonal([Fraction(1, m) for m in mult])\n"
        "    * Q.adjoint()\n"
        "    * CycMatrix.diagonal(scheme.valencies)\n"
        ")\n"
        "q_f = (\n"
        "    CycMatrix.diagonal([Fraction(1, v) for v in fused_scheme.valencies])\n"
        "    * p_f.adjoint()\n"
        "    * CycMatrix.diagonal(fused_mult)\n"
        ")\n"
    )
    assert _diagonal_products(ast.parse(old)) == [2, 4, 7, 9]
    # a diagonal matrix that is compared or subtracted is no scaling
    kept = "cols = x.transpose() * x.conjugate() - CycMatrix.diagonal(sizes)\n"
    assert _diagonal_products(ast.parse(kept)) == []


#: where fileio.py may build Fractions, and the only functions that may call
#: each: a design's weights, which the API answers as Fractions
FILEIO_FRACTIONS = {"rational_from_str": {"parse_design_file"}}
#: reads of cells or of Fraction coefficients: CycMatrix.entries and .row,
#: Cyclotomic.terms, .coeffs and .as_rational, CharacterTable.rows (the
#: table's cells), and from_terms, which takes rational coefficients
CELL_READS = {"entries", "row", "terms", "coeffs", "as_rational", "rows", "from_terms"}


def _fileio_cell_paths(tree):
    """Line numbers where fileio would parse or emit a literal through a
    Fraction or a cell: a Fraction built outside FILEIO_FRACTIONS, a function
    there called from elsewhere, and every attribute of CELL_READS."""
    found = [line for scope, line in _fraction_calls(tree) if scope not in FILEIO_FRACTIONS]
    for func, callers in FILEIO_FRACTIONS.items():
        found += [line for scope, line in _named_calls(tree, func) if scope not in callers]
    found += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in CELL_READS]
    return sorted(found)


def test_fileio_literals_build_no_fractions_and_no_cells():
    # literals are parsed to (exponent, numerator, denominator) triples and
    # emitted from CycMatrix.lowest_terms, on the integer form throughout
    tree = ast.parse((SRC / "fileio.py").read_text())
    assert _fileio_cell_paths(tree) == []


def test_fileio_guard_catches_the_former_literal_paths():
    # rational_to_str, cyc_to_literal, literal_rows, _literal_terms,
    # _literal_matrix and the dumps of Q and of character tables, as they
    # were before the literals moved onto the integer form
    old = (
        "def rational_to_str(q) -> str:\n"
        "    q = Fraction(q)\n"
        "    return str(q.numerator) if q.denominator == 1 else f'{q.numerator}/{q.denominator}'\n"
        "def rational_from_str(text) -> Fraction:\n"
        "    return Fraction(int(num), int(den or 1))\n"
        "def cyc_to_literal(value: Cyclotomic):\n"
        "    if value.is_rational():\n"
        "        return rational_to_str(value.as_rational())\n"
        "    return [[e, rational_to_str(c)] for e, c in value.terms()]\n"
        "def _literal_terms(lit) -> list:\n"
        "    if isinstance(lit, (int, str)):\n"
        "        return [(0, rational_from_str(lit))]\n"
        "def _literal_matrix(rows, conductor: int) -> CycMatrix:\n"
        "    return CycMatrix.from_terms(conductor, [[_literal_terms(v) for v in row] for row in rows])\n"
        "def dump_eigen(eigen):\n"
        "    return canonical_dumps({'Q': literal_rows(eigen.Q.entries)})\n"
        "def dump_characters(table):\n"
        "    return canonical_dumps({'rows': literal_rows(table.rows)})\n"
        "def parse_design_file(text, size):\n"
        "    weights = [rational_from_str(w) for w in obj['weights']]\n"
    )
    assert _fileio_cell_paths(ast.parse(old)) == [2, 8, 9, 12, 14, 16, 18]


def _matmuls(tree):
    """(scope, line) of every `@` and `@=` (see ``_scoped``)."""
    return _scoped(tree, lambda node: isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.MatMult))


#: where a module other than cyclotomic.py may write a product with `@`: the
#: integer pair sums of a subset, in the dtype WeightedSubset._lift picks
#: from their bound, and the 0/1 stacks of verify_scheme in float64, exact
#: below 2^53.  Every other exact product is a kernel call.
MATMUL_SITES = {"designs.py": {"_pair_sums"}, "scheme.py": {"verify_scheme"}}


def test_products_go_through_the_kernel():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cyclotomic.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = MATMUL_SITES.get(path.name, set())
        found += [f"{path.name}:{line} in {scope}" for scope, line in _matmuls(tree)
                  if scope not in allowed]
    assert not found, found


def test_matmul_guard_catches_the_former_products():
    # is_T_design against the annihilator block, and the exponent product of
    # groups.abelian_group, as they were before they became kernel calls
    old = (
        "def is_T_design(scheme, eigen, w, T):\n"
        "    T = validate_indices(T, scheme.d)\n"
        "    if not T:\n"
        "        return True\n"
        "    v, _ = _pair_sums(scheme, w)\n"
        "    check = eigen.Q.annihilator(T, _maxabs(v))\n"
        "    return not (v.astype(check.dtype, copy=False) @ check).any()\n"
        "def abelian_group(*orders):\n"
        "    exponents = ((L // shape) * coords).T @ coords % L\n"
    )
    found = _matmuls(ast.parse(old))
    assert found == [("is_T_design", 7), ("abelian_group", 9)]
    assert not MATMUL_SITES["designs.py"] & {scope for scope, _ in found}
    assert _matmuls(ast.parse("def f(x, y):\n    x @= y\n")) == [("f", 2)]


def _numerator_scans(tree):
    """(scope, line) of every `_maxabs(<x>._num)` (see ``_scoped``)."""
    return _scoped(tree, lambda node: isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id == "_maxabs"
                   and len(node.args) == 1 and isinstance(node.args[0], ast.Attribute)
                   and node.args[0].attr == "_num")


def test_matrices_scan_their_numerators_once():
    # a CycMatrix finds the bound of its numerators once and keeps it; every
    # kernel routine takes it from the accessor
    tree = ast.parse((SRC / "cyclotomic.py").read_text())
    assert [scope for scope, _ in _numerator_scans(tree)] == ["CycMatrix._bound"]


def test_numerator_scan_guard_catches_the_former_scale_lines():
    old = (
        "class CycMatrix:\n"
        "    def scale_lines(self, rows=None, cols=None):\n"
        "        r, dr = _line_factor(rows, self.rows, (-1, 1, 1))\n"
        "        dtype = _dtype(max(_maxabs(self._num), 1) * max(_maxabs(r), 1)"
        " * max(_maxabs(c), 1))\n"
    )
    assert _numerator_scans(ast.parse(old)) == [("CycMatrix.scale_lines", 4)]


def _mpmath_uses(tree):
    """(scope, line) of every import of mpmath and every use of the name
    (see ``_scoped``)."""
    return _scoped(tree, lambda node: (isinstance(node, ast.Name) and node.id == "mpmath")
                   or (isinstance(node, ast.Import)
                       and any(a.name.split(".")[0] == "mpmath" for a in node.names))
                   or (isinstance(node, ast.ImportFrom)
                       and (node.module or "").split(".")[0] == "mpmath"))


def test_only_the_table_builder_names_mpmath():
    # signs are integer sums against cached fixed-point tables; mpmath, and
    # the lock on its global precision, belong to the builder of a table
    found, builder = [], set()
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _mpmath_uses(ast.parse(path.read_text())):
            if (path.name, scope) == ("cyclotomic.py", "_cos_bounds"):
                builder.add(line)
            else:
                found.append(f"{path.name}:{line} in {scope or 'module'}")
    assert not found, found
    assert builder


def test_mpmath_guard_catches_the_former_interval_loop():
    old = (
        "def _interval_sign(n: int, num) -> int:\n"
        "    import mpmath\n"
        "    prec = 64\n"
        "    while prec <= 1 << 20:\n"
        "        with _IV_LOCK:\n"
        "            old = mpmath.iv.prec\n"
        "            mpmath.iv.prec = prec\n"
        "            try:\n"
        "                cos = _cos_table(n, prec)\n"
        "                total = mpmath.iv.mpf(0)\n"
        "                for e, c in enumerate(num):\n"
        "                    if c:\n"
        "                        total += mpmath.iv.mpf(c) * cos[e]\n"
        "                positive, negative = bool(total > 0), bool(total < 0)\n"
        "            finally:\n"
        "                mpmath.iv.prec = old\n"
    )
    assert _mpmath_uses(ast.parse(old)) == [("_interval_sign", line)
                                            for line in (2, 6, 7, 10, 13, 16)]
    assert _mpmath_uses(ast.parse("from mpmath import iv\n")) == [("", 1)]


#: numpy and builtin names of floating-point types
FLOAT_NAMES = {"float", "float16", "float32", "float64", "float128", "double",
               "longdouble", "floating", "complex64", "complex128", "complexfloating"}


def _float_uses(tree):
    """(scope, line) of every float or complex literal and every name or
    attribute of a floating-point type (see ``_scoped``)."""
    return _scoped(tree, lambda node: (isinstance(node, ast.Constant)
                                       and isinstance(node.value, (float, complex)))
                   or (isinstance(node, ast.Name) and node.id in FLOAT_NAMES)
                   or (isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES))


def test_floats_only_guess():
    # every sign is an integer sum against the cosine table; floating point
    # in cyclotomic.py only guesses a Krein tensor that is then certified
    # exactly (the power basis at zeta_n and the rounded product)
    tree = ast.parse((SRC / "cyclotomic.py").read_text())
    guesses = {"_zeta_powers", "CycMatrix.rational_guess"}
    uses = _float_uses(tree)
    found = [f"cyclotomic.py:{line} in {scope or 'module'}"
             for scope, line in uses if scope not in guesses]
    assert not found, found
    assert {scope for scope, _ in uses} == guesses


def test_float_guard_catches_the_former_filter():
    old = (
        "def _filtered_signs(n: int, c: np.ndarray) -> np.ndarray:\n"
        "    phi, u = c.shape[1], 2.0**-53\n"
        "    gamma = phi * u / (1 - phi * u)\n"
        "    f = c.astype(np.float64)\n"
        "    est = f @ _cos_floats(n)\n"
        "    bound = 2 * (2.0**-52 + 2.0**-53 + gamma) * np.abs(f).sum(axis=1)\n"
        "    return np.where(np.abs(est) > bound, np.sign(est), 0).astype(np.int64)\n"
    )
    assert sorted({line for _, line in _float_uses(ast.parse(old))}) == [2, 4, 6]
    assert {scope for scope, _ in _float_uses(ast.parse(old))} == {"_filtered_signs"}


def _name_uses(tree, name):
    """Line numbers of every name, attribute or import of `name`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == name)
                  or (isinstance(node, ast.Attribute) and node.attr == name)
                  or (isinstance(node, ast.alias) and node.name == name))


def _verify_scheme_uses(tree):
    """Line numbers of every name, attribute or import of verify_scheme."""
    return _name_uses(tree, "verify_scheme")


def test_fusions_are_not_reverified_from_the_grid():
    # a fused scheme is derived from the parent's intersection tensor
    # (fusion._fused_scheme), whose conditions hold exactly when the fused
    # grid passes verify_scheme
    assert _verify_scheme_uses(ast.parse((SRC / "fusion.py").read_text())) == []


def test_verify_scheme_guard_catches_the_former_fusion():
    # fuse_by_relation_partition as it was before the fused tensor
    old = (
        "from .scheme import (\n"
        "    EigenData,\n"
        "    verify_scheme,\n"
        ")\n"
        "def fuse_by_relation_partition(scheme, eigen, partition):\n"
        "    fused_rel = np.array(class_map, dtype=np.int64)[scheme.relation]\n"
        "    try:\n"
        "        fused_scheme = verify_scheme(fused_rel)\n"
        "    except NotAScheme as exc:\n"
        "        raise InternalAssertion(f'fused relation failed verification: {exc}') from exc\n"
        "    return scheme_module.verify_scheme(fused_rel)\n"
    )
    assert _verify_scheme_uses(ast.parse(old)) == [3, 8, 11]


def test_fused_eigendata_is_not_reattached():
    # the fused eigendata is read off the verified parent
    # (fusion._fused_eigen), whose two checks with the parent's identities
    # imply every identity attach_eigendata checks
    assert _name_uses(ast.parse((SRC / "fusion.py").read_text()), "attach_eigendata") == []


def test_attach_eigendata_guard_catches_the_former_fusion():
    # fuse_by_relation_partition as it was before the fused eigendata was
    # read off the parent
    old = (
        "from .scheme import EigenData, SchemeData, attach_eigendata, validate_indices\n"
        "def fuse_by_relation_partition(scheme, eigen, partition):\n"
        "    try:\n"
        "        fused_eigen = attach_eigendata(fused_scheme, q_f)\n"
        "    except Exception as exc:\n"
        "        raise InternalAssertion(f'fused eigendata rejected: {exc}') from exc\n"
        "    return scheme_module.attach_eigendata(fused_scheme, q_f)\n"
    )
    assert _name_uses(ast.parse(old), "attach_eigendata") == [1, 4, 7]


def _unit_sweeps(tree, function):
    """(line, units) of every `.column_positions(...)` call in `function`
    outside an `if` block that raises, with the source of its units
    argument ("(1,)" when it takes the default)."""
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    failing = set()
    for node in ast.walk(body):
        if isinstance(node, ast.If) and any(isinstance(n, ast.Raise)
                                            for stmt in node.body for n in ast.walk(stmt)):
            failing |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
    found = []
    for call in ast.walk(body):
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "column_positions" and id(call) not in failing):
            units = [kw.value for kw in call.keywords if kw.arg == "units"] + call.args[1:]
            found.append((call.lineno, ast.unparse(units[0]) if units else "(1,)"))
    return sorted(found)


def test_sigma_images_come_from_the_generators():
    # sigma_permutations forms the images of Q under the generators of the
    # fixing group (fusion._generator_permutations, which orbit_merge shares)
    # and closes their permutations; the whole group is swept only in the
    # branch that reports a failing unit
    tree = ast.parse((SRC / "fusion.py").read_text())
    sweeps = _unit_sweeps(tree, "_generator_permutations")
    assert sweeps and {units for _, units in sweeps} == {"subfield.generators"}, sweeps


def test_sigma_guard_catches_the_former_sweep():
    # sigma_permutations as it was before the generators
    old = (
        "def sigma_permutations(eigen, subfield):\n"
        "    found = set()\n"
        "    for k, perm in zip(subfield.group, eigen.Q.column_positions(eigen.Q, subfield.group)):\n"
        "        if -1 in perm:\n"
        "            raise NotPermutation(f'zeta -> zeta^{k} does not map E_j')\n"
        "        found.add(tuple(perm))\n"
        "    return tuple(sorted(found))\n"
    )
    assert _unit_sweeps(ast.parse(old), "sigma_permutations") == [(3, "subfield.group")]
    # the sweep inside the failure branch is not counted
    new = (
        "def sigma_permutations(eigen, subfield):\n"
        "    gens = eigen.Q.column_positions(eigen.Q, units=subfield.generators)\n"
        "    if any(-1 in perm for perm in gens):\n"
        "        for k, perm in zip(subfield.group, eigen.Q.column_positions(eigen.Q, subfield.group)):\n"
        "            raise NotPermutation(f'zeta -> zeta^{k}')\n"
    )
    assert _unit_sweeps(ast.parse(new), "sigma_permutations") == [(2, "subfield.generators")]


def _dual_map_lines(text):
    """Line numbers of every line that names dual_map."""
    return [n for n, line in enumerate(text.splitlines(), 1) if "dual_map" in line]


def _attach_column_searches(tree):
    """Line numbers of every `.column_positions` inside attach_eigendata."""
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "attach_eigendata")
    return _name_uses(body, "column_positions")


def test_no_dual_map_and_no_column_search_in_attach():
    # each E_j of a commutative scheme is Hermitian, so attach_eigendata
    # checks Q[i'][j] = conj(Q[i][j]) entry by entry; no column search and
    # no dual map, which was the identity on every verified scheme
    found = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
             for n in _dual_map_lines(path.read_text())]
    assert not found, found
    assert _attach_column_searches(ast.parse((SRC / "scheme.py").read_text())) == []


def test_attach_guard_catches_the_former_dual_map():
    # the last step of attach_eigendata as it was before the Hermitian check
    old = (
        "def attach_eigendata(scheme, Q):\n"
        "    (dual,) = Q.column_positions(Q.select(rows=scheme.transpose_map), [-1])\n"
        "    if -1 in dual:\n"
        "        raise BadEigenbasis('dual_map', f'adjoint of E_{dual.index(-1)} not in the basis')\n"
        "    return EigenData(scheme=scheme, Q=Q, dual_map=tuple(dual))\n"
    )
    assert _attach_column_searches(ast.parse(old)) == [2]
    assert _dual_map_lines(old) == [4, 5]


#: top-level definitions that no library module, ``delsarte.__all__`` or
#: demo names, each kept for its reason
KEPT_UNREFERENCED = {
    "generate_data": "regenerates the JSON catalog from the builders",
    "load_entry": "reads and re-verifies a catalog entry; the tests and the benchmark use it",
    "dump_design": "writes the design format that parse_design_file reads",
    "cyclotomic_to_json": "the README's standalone-value format",
    "cyclotomic_from_json": "the README's standalone-value format",
}

DEMOS = SRC.parent.parent / "demos"


def _referenced(nodes):
    """Every name the nodes refer to: names, attributes and imported names."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name)
    return found


def _unreferenced_definitions(sources, exported, demos):
    """module.name of each top-level def or class in ``sources`` (module
    name -> text) that no module names outside its own definition, that is
    not exported, that no demo in ``demos`` (texts) names and that is not
    kept on purpose."""
    nodes = [(module, node) for module, text in sources.items() for node in ast.parse(text).body]
    names = [_referenced([node]) for _, node in nodes]
    # counts[name]: the top-level statements that name it, each once
    counts = collections.Counter(name for found in names for name in found)
    demo_names = _referenced(ast.parse(text) for text in demos)
    out = []
    for (module, node), found in zip(nodes, names):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        named_elsewhere = counts[node.name] > (node.name in found)
        if not (named_elsewhere or node.name in exported or node.name in demo_names
                or node.name in KEPT_UNREFERENCED):
            out.append(f"{module}.{node.name}")
    return out


def _library_sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _demo_sources():
    return [path.read_text() for path in sorted(DEMOS.glob("*.py"))]


def test_library_defines_only_what_it_runs():
    # test oracles live in the tests' reference modules, not in src/
    found = _unreferenced_definitions(_library_sources(), set(delsarte.__all__),
                                      _demo_sources())
    assert not found, found


def test_unreferenced_guard_catches_the_former_oracle():
    # scheme.count_intersection as it was, a brute-force count only tests called
    sources = _library_sources()
    sources["scheme"] += (
        "\n\ndef count_intersection(scheme, i, j, a, b):\n"
        "    rel = scheme.relation\n"
        "    return int(np.count_nonzero((rel[a, :] == i) & (rel[:, b] == j)))\n"
    )
    assert _unreferenced_definitions(sources, set(delsarte.__all__), _demo_sources()) == \
        ["scheme.count_intersection"]


PROGRAM_DIRS = [SRC.parent.parent / name for name in ("src", "demos", "perfbench")]


def _program_sources():
    """The texts of every program file: the library, the demos and the
    benchmark, without the benchmark's tests."""
    return [path.read_text() for root in PROGRAM_DIRS for path in sorted(root.rglob("*.py"))
            if "tests" not in path.relative_to(root).parts]


def _callables(sources):
    """(module.qualname, the name a call uses, definition, leading
    parameters a call does not pass) of every top-level function and every
    method in ``sources``; ``__init__`` is called by its class name."""
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node.name, node, 0
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
                        called = node.name if fn.name == "__init__" else fn.name
                        yield f"{module}.{node.name}.{fn.name}", called, fn, 0 if static else 1


def _defaulted(fn, skip):
    """(name, position in a call or None for keyword-only) of each
    parameter of ``fn`` that has a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(p.arg, k - skip) for k, p in enumerate(positional) if k >= first]
            + [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _sets(call, name, position):
    """Whether ``call`` may set the parameter: by keyword or ``**``, by
    position, or through a ``*`` argument at or before its position."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and any(
        k == position or isinstance(arg, ast.Starred)
        for k, arg in enumerate(call.args[:position + 1]))


def _unset_defaults(sources, program):
    """module.qualname(parameter) of each defaulted parameter of a library
    callable that some program call names, yet no such call sets."""
    calls = collections.defaultdict(list)
    for text in program:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)
    return [f"{qual}({param})"
            for qual, called, fn, skip in _callables(sources) if calls[called]
            for param, position in _defaulted(fn, skip)
            if not any(_sets(call, param, position) for call in calls[called])]


def test_every_default_is_set_by_some_program_call():
    # a parameter that only the tests set is an option the package does not
    # have; a function that no program call names is public API and exempt
    assert _unset_defaults(_library_sources(), _program_sources()) == []


def test_default_guard_catches_the_former_character_row():
    # verify_representation as it was, comparing the traces with a row that
    # only the tests passed
    sources = _library_sources()
    new = "def verify_representation(group: GroupTable, rho: Representation) -> CycMatrix:\n"
    assert new in sources["groups"]
    sources["groups"] = sources["groups"].replace(new, (
        "def verify_representation(\n"
        "    group: GroupTable, rho: Representation, character_row=None\n"
        ") -> CycMatrix:\n"))
    assert _unset_defaults(sources, _program_sources()) == \
        ["groups.verify_representation(character_row)"]
    # a call through *args may set it; so may one by keyword
    calls = ["verify_representation(*args)", "verify_representation(g, rho, character_row=r)"]
    for call in calls:
        assert _unset_defaults(sources, _program_sources() + [call]) == []
