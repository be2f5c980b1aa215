"""The inner distribution as one Fraction double loop: the tests' reference
for ``designs.inner_distribution``.

This is the library's former weighted loop, on a plain list of weights:
it sums w_x w_y into the class of every ordered pair of the support and
divides by sum w_x^2.  The library's integer contraction must give the same
distribution on every weighted subset.
"""

from __future__ import annotations

from fractions import Fraction


def reference_inner_distribution(scheme, weights) -> tuple[Fraction, ...]:
    """a_i = x^T A_i x / x^T x for rational weights x on the vertex set."""
    weights = [Fraction(v) for v in weights]
    support = [x for x, v in enumerate(weights) if v]
    num = [Fraction(0)] * scheme.classes
    for x in support:
        wx = weights[x]
        for y in support:
            num[scheme.relation[x, y]] += wx * weights[y]
    denom = sum(weights[x] ** 2 for x in support)
    return tuple(v / denom for v in num)
