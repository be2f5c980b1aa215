"""A scheme passed beside eigendata must be the scheme they were attached to.

x8 and y8 share |X| = 8, d = 4 and conductor 4, so every entry point would
run on the cross pairs (y8's relations with x8's Q) and mix the two; each
refuses them with a ValidationError.  A scheme equal to the attached one,
such as the same file parsed again, is accepted and gives the same answers
(x8 for the scheme functions, z12 for ``rational_class_fusion``, which
needs a group scheme).
"""

import pytest

from delsarte import fileio
from delsarte.catalog import build_x8, build_y8, build_z12, data_dir
from delsarte.cyclotomic import SubfieldSpec
from delsarte.designs import design_report, enumerate_T_designs, is_T_design
from delsarte.errors import ValidationError
from delsarte.fusion import common_fusion, fuse_by_relation_partition, galois_fusion
from delsarte.groups import abelian_group, rational_class_fusion

X8, Y8 = build_x8(), build_y8()
# the relation partition of x8's rational fusion, and the trivial one
PARTITION = ((0,), (1,), (2, 3), (4,))
TRIVIAL = ((0,), (1, 2, 3, 4))


def _z4_z2(scheme, eigen):
    group, classes, _ = abelian_group(4, 2)
    return rational_class_fusion(group, classes, scheme, eigen)


ENTRIES = {
    "design_report": lambda s, e: design_report(s, e, [0, 1]),
    "design_report_T": lambda s, e: design_report(s, e, [0, 1, 2, 3]),
    "is_T_design": lambda s, e: is_T_design(s, e, [0, 1], [1]),
    "enumerate_T_designs": lambda s, e: enumerate_T_designs(s, e, [1], 1, 3),
    "fuse_by_relation_partition": lambda s, e: fuse_by_relation_partition(s, e, PARTITION),
    "galois_fusion": lambda s, e: galois_fusion(s, e, SubfieldSpec.rationals(4)),
    "common_fusion": lambda s, e: common_fusion(s, e, PARTITION, TRIVIAL),
    "rational_class_fusion": _z4_z2,
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("pair", ["y8-x8", "x8-y8"])
def test_a_scheme_with_another_schemes_eigendata_is_refused(entry, pair):
    scheme, eigen = (Y8[0], X8[1]) if pair == "y8-x8" else (X8[0], Y8[1])
    with pytest.raises(ValidationError, match="another scheme"):
        ENTRIES[entry](scheme, eigen)


def _outcome(entry, scheme, eigen):
    out = ENTRIES[entry](scheme, eigen)
    if hasattr(out, "partition"):
        return out.partition, out.eigen.Q
    if hasattr(out, "a"):
        return out.a, out.dual, out.T
    return out


@pytest.mark.parametrize("entry", sorted(set(ENTRIES) - {"rational_class_fusion"}))
def test_an_equal_scheme_parsed_from_its_file_is_accepted(entry):
    scheme, eigen = X8
    parsed = fileio.parse_scheme_file((data_dir() / "x8.scheme.json").read_text())
    assert parsed is not scheme and parsed == scheme
    assert _outcome(entry, parsed, eigen) == _outcome(entry, scheme, eigen)


def test_an_equal_group_scheme_is_accepted_by_rational_class_fusion():
    bundle = build_z12()
    parsed = fileio.parse_scheme_file((data_dir() / "z12.scheme.json").read_text())
    assert parsed is not bundle.scheme and parsed == bundle.scheme
    got = rational_class_fusion(bundle.group, bundle.classes, parsed, bundle.eigen)
    expected = rational_class_fusion(bundle.group, bundle.classes, bundle.scheme, bundle.eigen)
    assert got[0] == expected[0] and got[1].partition == expected[1].partition
