"""The stacked scheme check against the triple loop (tests/scheme_reference.py).

``verify_scheme`` forms A_i A_j for all j >= i as one stack and compares it
with one gather of p[i, j, rel]; the reference forms one product per (i, j)
and one masked gather per class k.  On every grid both must agree: the same
``NotAScheme`` axiom and witness on a corrupted grid, the same intersection
tensor, transpose map and valencies on a scheme.  The grids are the catalog
schemes, the group schemes of Z_n and Dic_n, and the thin scheme of Dic_3
(every element its own class, so A_i A_j != A_j A_i), each under seeded
corruptions.
"""

import numpy as np
import pytest
from scheme_reference import reference_verify_scheme

from delsarte.catalog import CATALOG, load_entry
from delsarte.errors import NotAScheme
from delsarte.groups import conj_class_scheme, cyclic_group, dicyclic_group
from delsarte.scheme import verify_scheme


def _outcome(check, grid):
    try:
        scheme = check(grid)
    except NotAScheme as err:
        return err.axiom, err.witness
    return "scheme", scheme.intersection.tolist(), scheme.transpose_map, scheme.valencies


def _thin_dic3():
    group = dicyclic_group(3)[0]
    return group.mult[np.asarray(group.inverse)]  # (g, h) in R_{g^-1 h}


def _grids():
    out = {name: load_entry(name).scheme.relation for name in CATALOG}
    for n in (5, 6, 8):
        out[f"Z{n}"] = conj_class_scheme(cyclic_group(n)[0])[0].relation
    for n in (3, 5):
        out[f"Dic{n}"] = conj_class_scheme(dicyclic_group(n)[0])[0].relation
    out["thin Dic3"] = _thin_dic3()
    return out


GRIDS = _grids()


def _swap_cells(grid, rng):
    (x, y), (u, v) = rng.integers(len(grid), size=(2, 2))
    grid[x, y], grid[u, v] = grid[u, v], grid[x, y]


def _swap_symmetric_cells(grid, rng):
    # also swap the transposed cells, so axioms i and ii fail less often
    (x, y), (u, v) = rng.integers(len(grid), size=(2, 2))
    if len({x, y, u, v}) < 4:
        return
    grid[x, y], grid[u, v] = grid[u, v], grid[x, y]
    grid[y, x], grid[v, u] = grid[v, u], grid[y, x]


def _transpose_block(grid, rng):
    size = int(rng.integers(2, len(grid)))
    r, c = rng.integers(len(grid) - size + 1, size=2)
    grid[r:r + size, c:c + size] = grid[r:r + size, c:c + size].T.copy()


def _relabel_class(grid, rng):
    # class k becomes class k' in one row, or everywhere (a merge of two
    # classes, renumbered so that the labels stay 0..d-1)
    d = int(grid.max())
    k, k2 = rng.choice(np.arange(1, d + 1), size=2, replace=False)
    if rng.integers(2):
        row = grid[rng.integers(len(grid))]
        row[row == k] = k2
    else:
        grid[grid == k] = k2
        grid[grid > k] -= 1


CORRUPTIONS = (_swap_cells, _swap_symmetric_cells, _transpose_block, _relabel_class)


def test_schemes_give_the_reference_tensor():
    for name, grid in GRIDS.items():
        expected = _outcome(reference_verify_scheme, grid)
        assert _outcome(verify_scheme, grid) == expected, name
        # a relabelling of the nonzero classes is a scheme again
        d = int(grid.max())
        perm = np.concatenate([[0], 1 + np.random.default_rng(d).permutation(d)])
        relabelled = perm[grid]
        assert _outcome(verify_scheme, relabelled) == _outcome(reference_verify_scheme, relabelled)


def test_the_thin_scheme_fails_commutativity_like_the_reference():
    grid = GRIDS["thin Dic3"]
    with pytest.raises(NotAScheme) as err:
        verify_scheme(grid)
    assert err.value.axiom == "iv"
    assert _outcome(verify_scheme, grid) == _outcome(reference_verify_scheme, grid)


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_corrupted_grids_give_the_reference_witness(corrupt):
    rng = np.random.default_rng(2024)
    seen = {}
    for name, base in GRIDS.items():
        for _ in range(30):
            grid = base.copy()
            corrupt(grid, rng)
            got = _outcome(verify_scheme, grid)
            assert got == _outcome(reference_verify_scheme, grid), (name, got)
            seen[got[0]] = seen.get(got[0], 0) + 1
    # the corruptions reach the product axioms, not only the cheap ones
    assert seen.get("iii", 0) + seen.get("iv", 0) > 0, seen


def test_products_past_the_float64_bound_are_refused(monkeypatch):
    # the stacks run in float64, exact while every partial sum is at most
    # |X| < 2^53; a larger grid is a domain error, not a silent rounding
    from delsarte import scheme

    grid = GRIDS["Z5"]
    assert verify_scheme(grid).size == 5
    monkeypatch.setattr(scheme, "FLOAT64_EXACT", 5)
    with pytest.raises(NotAScheme) as err:
        verify_scheme(grid)
    assert err.value.axiom == "shape"
