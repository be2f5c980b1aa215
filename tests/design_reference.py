"""The inner distribution as one Fraction double loop, and index lists as
Fraction weights: the tests' references for ``designs``.

``reference_inner_distribution`` is the library's former weighted loop, on
a plain list of weights: it sums w_x w_y into the class of every ordered
pair of the support and divides by sum w_x^2.  The library's integer
contraction must give the same distribution on every weighted subset.
``reference_weights`` is the former ``WeightedSubset.from_indices``: the
design functions must read an index list as these weights, with the same
errors.
"""

from __future__ import annotations

from fractions import Fraction

from delsarte.errors import ValidationError, ZeroVector


def reference_weights(size: int, indices) -> list[Fraction]:
    """Weight 1 on every listed vertex (a repeat counts once), 0 elsewhere."""
    w = [Fraction(0)] * size
    for i in indices:
        if not 0 <= i < size:
            raise ValidationError(f"vertex index {i} outside 0..{size - 1}")
        w[i] = Fraction(1)
    if not any(w):
        raise ZeroVector("weighted subset is identically zero")
    return w


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
