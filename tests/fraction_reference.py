"""Cyclotomic arithmetic on Fraction coordinates: the tests' reference.

A value is a conductor n with Fraction coordinates on the power basis
1, zeta_n, ..., zeta_n^(phi(n)-1).  Products convolve the coordinates and
reduce them by long division by Phi_n; Galois images permute exponents and
embeddings spread them.  None of this touches the library's integer
kernel: it reads a library value through ``conductor`` and ``terms()``
only, and takes Phi_n from ``cyclotomic_polynomial``, which
tests/test_cyclotomic.py checks against x^n - 1 = prod_{d | n} Phi_d.
"""

from __future__ import annotations

import math
from fractions import Fraction

from delsarte.cyclotomic import CycMatrix, Cyclotomic, cyclotomic_polynomial


def _remainder(vec, n: int) -> tuple[Fraction, ...]:
    """vec (ascending coefficients) modulo the monic Phi_n."""
    poly = cyclotomic_polynomial(n)
    deg = len(poly) - 1
    vec = list(vec) + [Fraction(0)] * max(0, deg - len(vec))
    for top in range(len(vec) - 1, deg - 1, -1):
        c = vec[top]
        if c:
            for t, p in enumerate(poly):
                vec[top - deg + t] -= c * p
    return tuple(vec[:deg])


class Ref:
    """sum_e coeffs[e] zeta_n^e with Fraction coordinates, reduced mod Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, vec):
        self.n = n
        self.coeffs = _remainder([Fraction(c) for c in vec], n)

    @classmethod
    def of(cls, x) -> "Ref":
        """A library Cyclotomic, an int or a Fraction."""
        if not isinstance(x, Cyclotomic):
            return cls(1, [x])
        vec = [Fraction(0)] * x.conductor
        for e, c in x.terms():
            vec[e] += c
        return cls(x.conductor, vec)

    @classmethod
    def from_terms(cls, n: int, terms) -> "Ref":
        vec = [Fraction(0)] * n
        for e, c in terms:
            vec[e % n] += Fraction(c)
        return cls(n, vec)

    def cyclotomic(self) -> Cyclotomic:
        return Cyclotomic.from_terms(self.n, enumerate(self.coeffs))

    def embed(self, m: int) -> "Ref":
        if m == self.n:
            return self
        step = m // self.n
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        vec = [Fraction(0)] * m
        for e, c in enumerate(self.coeffs):
            vec[e * step] += c
        return Ref(m, vec)

    def _pair(self, other):
        other = other if isinstance(other, Ref) else Ref.of(other)
        m = math.lcm(self.n, other.n)
        return self.embed(m), other.embed(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return Ref(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Ref(a.n, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        a, b = self._pair(other)
        conv = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        ys = [(j, y) for j, y in enumerate(b.coeffs) if y]
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in ys:
                    conv[i + j] += x * y
        return Ref(a.n, conv)

    __rmul__ = __mul__

    def galois(self, k: int) -> "Ref":
        if math.gcd(k, self.n) != 1:
            raise ValueError(f"{k} is not a unit modulo {self.n}")
        vec = [Fraction(0)] * self.n
        for e, c in enumerate(self.coeffs):
            vec[e * k % self.n] += c
        return Ref(self.n, vec)

    def conjugate(self) -> "Ref":
        return self.galois(-1)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, (Ref, Cyclotomic, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def __repr__(self):
        return f"Ref({self.n}, {list(map(str, self.coeffs))})"


def ref_sum(values) -> Ref:
    total = Ref(1, [0])
    for v in values:
        total = total + v
    return total


def ref_rows(m: CycMatrix) -> list[list[Ref]]:
    return [[Ref.of(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def ref_matrix(rows) -> CycMatrix:
    """The library matrix with the given reference entries."""
    return CycMatrix([[r.cyclotomic() for r in row] for row in rows])
