"""Library-independent output checks and canonical digests.

Exact values over Q(zeta_N) are checked by mapping them into a prime field:
for a prime p = 1 (mod N) and an element w of order N in F_p, the map
zeta_N -> w is a ring homomorphism from Z[1/D][zeta_N] onto F_p whenever p
does not divide D.  Every identity the library claims (PQ = |X| I, the Krein
formula, b = aQ, ...) therefore also holds for the residues, and the
residues are computed here from the coefficients alone, with plain integer
arithmetic.  A wrong value passes only if p divides the norm of the error;
zero tests use two 61/62-bit primes to make that negligible.

The same residues give representation-independent digests: two exact
values are equal iff (with overwhelming probability) their residues are.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from fractions import Fraction
from functools import lru_cache

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


class ModField:
    """Evaluation of Q(zeta_N) elements in F_p with zeta_N -> w."""

    def __init__(self, N: int, bits: int):
        self.N = N
        p = ((1 << bits) // N + 1) * N + 1
        while not _is_prime(p):
            p += N
        self.p = p
        factors = _prime_factors(N)
        g = 2
        while True:
            w = pow(g, (p - 1) // N, p)
            if all(pow(w, N // q, p) != 1 for q in factors):
                break
            g += 1
        self.powers = [pow(w, e, p) for e in range(N)]

    def rat(self, q) -> int:
        q = Fraction(q)
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def of(self, x, k: int = 1) -> int:
        """Residue of sigma_k(x), where sigma_k: zeta -> zeta^k."""
        if isinstance(x, (int, Fraction)):
            return self.rat(x)
        m = x.conductor
        if self.N % m:
            raise ValueError(f"conductor {m} does not divide {self.N}")
        step = self.N // m * k
        p, N, powers = self.p, self.N, self.powers
        total = 0
        for e, c in x.terms():
            total += c.numerator * pow(c.denominator, -1, p) * powers[e * step % N]
        return total % p

    def matrix(self, m, k: int = 1) -> list[list[int]]:
        return [[self.of(m[i, j], k) for j in range(m.cols)] for i in range(m.rows)]

    def matmul(self, a, b) -> list[list[int]]:
        p = self.p
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]

    def scalar_identity(self, n: int, s) -> list[list[int]]:
        v = self.rat(s)
        return [[v if i == j else 0 for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def field(N: int, which: int = 0) -> ModField:
    """The evaluation map for conductor N; ``which`` picks one of two primes."""
    return ModField(N, 61 + which)


# ---------------------------------------------------------------------------
# Independent group computations (multiplication table only)
# ---------------------------------------------------------------------------

def conjugacy_classes(mult) -> list[tuple[int, ...]]:
    """Classes ordered by smallest member, as sets {x^-1 g x}."""
    n = len(mult)
    inv = [row.index(0) for row in mult]
    seen = [False] * n
    out = []
    for g in range(n):
        if seen[g]:
            continue
        cls = sorted({mult[mult[inv[x]][g]][x] for x in range(n)})
        for h in cls:
            seen[h] = True
        out.append(tuple(cls))
    return out


def rational_classes(mult, classes) -> tuple[tuple[int, ...], ...]:
    """Cells of class indices closed under g -> g^m, gcd(m, ord g) = 1."""
    class_of = {g: c for c, cls in enumerate(classes) for g in cls}
    pairs = []
    for c, cls in enumerate(classes):
        g = cls[0]
        powers = [0, g]
        while powers[-1] != 0:
            powers.append(mult[powers[-1]][g])
        order = len(powers) - 1
        pairs += [(c, class_of[powers[m]]) for m in range(1, order) if math.gcd(m, order) == 1]
    return cells_from_pairs(len(classes), pairs)


def canonical_cells(cells) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(c)) for c in cells), key=lambda c: c[0]))


def cells_from_pairs(size: int, pairs) -> tuple[tuple[int, ...], ...]:
    """The finest partition of range(size) in which each pair shares a cell."""
    label = list(range(size))
    for a, b in pairs:
        la, lb = label[a], label[b]
        if la != lb:
            label = [la if v == lb else v for v in label]
    cells: dict[int, list[int]] = {}
    for i, v in enumerate(label):
        cells.setdefault(v, []).append(i)
    return canonical_cells(cells.values())


def partition_join(p1, p2, size: int) -> tuple[tuple[int, ...], ...]:
    return cells_from_pairs(size, [(cell[0], i) for cells in (p1, p2)
                                   for cell in cells for i in cell[1:]])


# ---------------------------------------------------------------------------
# Galois orbits and fusion criteria from residues
# ---------------------------------------------------------------------------

class EigenResidues:
    """Residues of Q under every sigma_k, for orbit and fusion checks."""

    def __init__(self, Q, conductor: int):
        self.N = conductor
        self.F = field(conductor)
        self.size = Q.rows
        self.units = [k for k in range(1, conductor + 1) if math.gcd(k, conductor) == 1]
        self.Q = {k: self.F.matrix(Q, k) for k in self.units}
        cols = {tuple(r[j] for r in self.Q[1]): j for j in range(self.size)}
        self.perm = {
            k: tuple(cols[tuple(r[j] for r in self.Q[k])] for j in range(self.size))
            for k in self.units
        }

    def orbits(self, gens) -> tuple[tuple[int, ...], ...]:
        """Orbits of the subgroup generated by ``gens`` on the idempotents."""
        perms = [self.perm[g % self.N or self.N] for g in gens]
        return cells_from_pairs(self.size, [(j, pj) for perm in perms
                                            for j, pj in enumerate(perm)])

    def rational_orbits(self):
        return self.orbits(self.units)

    def qbar(self, orbits) -> list[list[int]]:
        p = self.F.p
        return [[sum(row[j] for j in orb) % p for orb in orbits] for row in self.Q[1]]

    def row_classes(self, orbits) -> tuple[tuple[int, ...], ...]:
        seen: dict[tuple, list[int]] = {}
        for i, row in enumerate(self.qbar(orbits)):
            seen.setdefault(tuple(row), []).append(i)
        return canonical_cells(seen.values())


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def canonical(t):
    """A storage-independent form: numpy and Python integers, booleans and
    rationals map to the same value when they are equal, and lists, tuples
    and arrays to tuples."""
    if isinstance(t, (bool, np.bool_)):
        return bool(t)
    if isinstance(t, numbers.Integral):
        return int(t)
    if isinstance(t, numbers.Rational):
        q = Fraction(int(t.numerator), int(t.denominator))
        return q.numerator if q.denominator == 1 else q
    if t is None or isinstance(t, str):
        return t
    if isinstance(t, dict):
        return tuple(sorted((k, canonical(v)) for k, v in t.items()))
    if isinstance(t, np.ndarray):
        return canonical(t.tolist())
    if isinstance(t, (list, tuple)):
        return tuple(canonical(x) for x in t)
    raise TypeError(f"no canonical form for {type(t).__name__}")


def digest(*tokens) -> str:
    """Short SHA-256 of the canonical form of ints, rationals, strings, residues."""
    h = hashlib.sha256()
    for t in tokens:
        h.update(repr(canonical(t)).encode())
        h.update(b"|")
    return h.hexdigest()[:16]
