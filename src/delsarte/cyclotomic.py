"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored by its conductor n together with its coordinates on the
power basis 1, zeta_n, ..., zeta_n^(phi(n)-1), reduced modulo the n-th
cyclotomic polynomial.  Coefficients are ``fractions.Fraction``, so every
operation is exact.  Two elements are equal iff they agree after embedding
into the lcm of their conductors; mixed-conductor arithmetic embeds
automatically.

Real elements (fixed by complex conjugation) additionally support exact sign
determination: an exact zero test first, then adaptive-precision interval
evaluation of the real embedding via ``mpmath.iv``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from .errors import ConductorMismatch, InternalAssertion, NotAUnit, SingularMatrix

Rational = Fraction

#: Largest tolerated field degree phi(n); guards against runaway lcm growth.
PHI_LIMIT = 10_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Elementary number theory
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def units_mod(n: int) -> tuple[int, ...]:
    """All residues coprime to n, i.e. the unit group of Z/nZ."""
    if n == 1:
        return (0,)
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, leading term 1."""
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact division.
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_div_exact(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        if c:
            for t, dc in enumerate(den):
                num[k + t] -= c * dc
    if any(num):
        raise InternalAssertion("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^j reduced on the power basis, as integer rows, for 0 <= j < 2n."""
    phi = euler_phi(n)
    head = cyclotomic_polynomial(n)[:phi]
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(2 * n):
        rows.append(tuple(cur))
        lead = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if lead:
            for t in range(phi):
                cur[t] -= lead * head[t]
    return tuple(rows)


def _reduce(n: int, vec) -> tuple[Fraction, ...]:
    """Reduce a dense coefficient vector (length <= 2n) modulo Phi_n."""
    phi = euler_phi(n)
    out = [_ZERO] * phi
    for j in range(min(phi, len(vec))):
        if vec[j]:
            out[j] += vec[j]
    if len(vec) > phi:
        pows = _power_table(n)
        for j in range(phi, len(vec)):
            c = vec[j]
            if c:
                row = pows[j]
                for t in range(phi):
                    if row[t]:
                        out[t] += c * row[t]
    return tuple(out)


def _check_degree(n: int) -> None:
    if euler_phi(n) > PHI_LIMIT:
        raise ConductorMismatch(
            f"conductor {n} has degree {euler_phi(n)} > {PHI_LIMIT}"
        )


# ---------------------------------------------------------------------------
# Field elements
# ---------------------------------------------------------------------------

class Cyclotomic:
    """An exact element of Q(zeta_n) in canonical power-basis form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs, _canonical=False):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        _check_degree(conductor)
        self.conductor = conductor
        if _canonical:
            self.coeffs = coeffs
        else:
            self.coeffs = _reduce(conductor, [Fraction(c) for c in coeffs])

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyclotomic":
        """The root of unity zeta_n^k."""
        _check_degree(n)
        if n == 1:
            return cls.from_rational(1, 1)
        vec = [_ZERO] * (k % n + 1)
        vec[k % n] = _ONE
        return cls(n, vec)

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "Cyclotomic":
        q = Fraction(value)
        phi = euler_phi(conductor)
        return cls(conductor, (q,) + (_ZERO,) * (phi - 1), _canonical=True)

    @classmethod
    def from_terms(cls, conductor: int, terms) -> "Cyclotomic":
        """Canonical form of sum(c * zeta^e) for (exponent, coefficient) pairs."""
        _check_degree(conductor)
        vec = [_ZERO] * conductor
        for exponent, coeff in terms:
            vec[exponent % conductor] += Fraction(coeff)
        return cls(conductor, vec)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def terms(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs, ascending exponents."""
        return [(e, c) for e, c in enumerate(self.coeffs) if c]

    def embed(self, m: int) -> "Cyclotomic":
        """The same value viewed in Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ConductorMismatch(f"{n} does not divide {m}")
        _check_degree(m)
        step = m // n
        vec = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for e, c in enumerate(self.coeffs):
            if c:
                vec[e * step] = c
        return Cyclotomic(m, vec)

    def _pair(self, other):
        other = _coerce(other, self.conductor)
        if other is NotImplemented:
            return None, None
        if self.conductor == other.conductor:
            return self, other
        m = math.lcm(self.conductor, other.conductor)
        return self.embed(m), other.embed(m)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic(
            a.conductor,
            tuple(x + y for x, y in zip(a.coeffs, b.coeffs)),
            _canonical=True,
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(
            self.conductor, tuple(-c for c in self.coeffs), _canonical=True
        )

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic(
            a.conductor,
            tuple(x - y for x, y in zip(a.coeffs, b.coeffs)),
            _canonical=True,
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Cyclotomic.from_rational(0, self.conductor)
            q = Fraction(other)
            return Cyclotomic(
                self.conductor, tuple(c * q for c in self.coeffs), _canonical=True
            )
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        n = a.conductor
        xs, ys = a.coeffs, b.coeffs
        conv = [_ZERO] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys):
                    if y:
                        conv[i + j] += x * y
        return Cyclotomic(n, _reduce(n, conv), _canonical=True)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.coeffs[0], self.conductor)
        n = self.conductor
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        # Extended Euclid: find s with s * self == gcd (a nonzero constant).
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if len(_poly_trim(r0)) != 1:
            raise InternalAssertion("cyclotomic polynomial not coprime")
        g = r0[0]
        return Cyclotomic(n, [c / g for c in s0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return self * (1 / q)
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.from_rational(1, self.conductor)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- Galois action ------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Image under the automorphism zeta_n -> zeta_n^k; gcd(k, n) must be 1."""
        n = self.conductor
        if n == 1:
            return self
        if math.gcd(k, n) != 1:
            raise NotAUnit(f"{k} is not a unit modulo {n}")
        k %= n
        if k == 1:
            return self
        vec = [_ZERO] * n
        for e, c in enumerate(self.coeffs):
            if c:
                vec[(e * k) % n] += c
        return Cyclotomic(n, vec)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate, i.e. the automorphism zeta -> zeta^(-1)."""
        if self.conductor <= 2:
            return self
        return self.galois(self.conductor - 1)

    def is_real(self) -> bool:
        return self == self.conjugate()

    # -- comparisons / rendering --------------------------------------------

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # equality crosses conductors; use CycMatrix keys instead

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self!s})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
                continue
            z = f"z{self.conductor}" if e == 1 else f"z{self.conductor}^{e}"
            if c == 1:
                parts.append(z)
            elif c == -1:
                parts.append(f"-{z}")
            else:
                parts.append(f"{c}*{z}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _coerce(value, conductor):
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.from_rational(value, 1)
    return NotImplemented


# Plain-polynomial helpers over Fraction, ascending coefficients.

def _poly_trim(p):
    k = len(p)
    while k > 0 and not p[k - 1]:
        k -= 1
    return p[:k]


def _poly_sub(a, b):
    out = [_ZERO] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    q = [_ZERO] * (len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] * inv_lead
        q[k] = c
        if c:
            for t, bc in enumerate(b):
                a[k + t] -= c * bc
    return _poly_trim(q), _poly_trim(a)


# ---------------------------------------------------------------------------
# Exact sign of real values
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cos_table(n: int, prec: int):
    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        two_pi = 2 * mpmath.iv.pi
        return tuple(mpmath.iv.cos(two_pi * j / n) for j in range(n))
    finally:
        mpmath.iv.prec = old


def exact_sign(x: Cyclotomic) -> int:
    """Sign (-1, 0, +1) of a real cyclotomic value, decided exactly.

    Zero is detected by exact arithmetic; otherwise the real embedding
    zeta_n -> exp(2*pi*i/n) is evaluated with interval arithmetic, doubling
    the working precision until the interval excludes zero.
    """
    if not x.is_real():
        raise ValueError(f"{x} is not real; sign undefined")
    if x.is_zero():
        return 0
    if x.is_rational():
        return 1 if x.coeffs[0] > 0 else -1
    n = x.conductor
    prec = 64
    while prec <= 1 << 20:
        cos = _cos_table(n, prec)
        old = mpmath.iv.prec
        mpmath.iv.prec = prec
        try:
            total = mpmath.iv.mpf(0)
            for e, c in x.terms():
                total += (mpmath.iv.mpf(c.numerator) / c.denominator) * cos[e]
        finally:
            mpmath.iv.prec = old
        if total > 0:
            return 1
        if total < 0:
            return -1
        prec *= 2
    raise ArithmeticError(f"sign of {x} undecided at precision {prec}")


# ---------------------------------------------------------------------------
# Subfields of Q(zeta_n), encoded by fixing subgroups of (Z/nZ)^x
# ---------------------------------------------------------------------------

class SubfieldSpec:
    """A subfield K of Q(zeta_n) given by the subgroup of (Z/nZ)^x fixing it.

    The named constructors cover the cases used throughout: ``rationals``
    (the full unit group fixes exactly Q), ``real`` (the subgroup generated
    by -1 and any extras), and ``splitting_field`` (trivial group, K is
    the whole cyclotomic field).
    """

    __slots__ = ("conductor", "generators", "group")

    def __init__(self, conductor: int, generators):
        _check_degree(conductor)
        gens = []
        for g in generators:
            g %= conductor
            if conductor > 1 and math.gcd(g, conductor) != 1:
                raise NotAUnit(f"{g} is not a unit modulo {conductor}")
            gens.append(g if conductor > 1 else 0)
        self.conductor = conductor
        self.generators = tuple(sorted(set(gens)) or [1 % conductor])
        self.group = _closure(conductor, self.generators)

    @classmethod
    def rationals(cls, conductor: int) -> "SubfieldSpec":
        return cls(conductor, units_mod(conductor))

    @classmethod
    def real(cls, conductor: int, extra=()) -> "SubfieldSpec":
        return cls(conductor, (conductor - 1, *extra))

    @classmethod
    def splitting_field(cls, conductor: int) -> "SubfieldSpec":
        return cls(conductor, (1,))

    def __repr__(self):
        return f"SubfieldSpec(n={self.conductor}, fixing={list(self.group)})"

    def __eq__(self, other):
        if not isinstance(other, SubfieldSpec):
            return NotImplemented
        return (self.conductor, self.group) == (other.conductor, other.group)

    def __hash__(self):
        return hash((self.conductor, self.group))


def _closure(n: int, gens) -> tuple[int, ...]:
    if n == 1:
        return (0,)
    group = {1}
    frontier = [1]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = (a * g) % n
            if b not in group:
                group.add(b)
                frontier.append(b)
    return tuple(sorted(group))


def subfield_membership(x: Cyclotomic, spec: SubfieldSpec) -> bool:
    """True iff x is fixed by every generator of the fixing group of K."""
    if spec.conductor % x.conductor:
        raise ConductorMismatch(
            f"value of conductor {x.conductor} does not embed in "
            f"Q(zeta_{spec.conductor})"
        )
    y = x.embed(spec.conductor)
    return all(y.galois(g) == y for g in spec.generators)


def fixed_field_conductor(n: int, fixed_by) -> int:
    """Smallest m | n with the field fixed by the given units inside Q(zeta_m).

    ``fixed_by`` is the set of units of Z/nZ acting trivially; the answer is
    the least divisor m of n whose kernel {k = 1 mod m} lies in that set.
    """
    fixed = set(fixed_by)
    for m in divisors(n):
        if all(k in fixed for k in units_mod(n) if k % m == 1 % m):
            return m
    return n


# ---------------------------------------------------------------------------
# Dense exact matrices
# ---------------------------------------------------------------------------

class CycMatrix:
    """Dense matrix over a cyclotomic field, all entries at one conductor."""

    __slots__ = ("rows", "cols", "conductor", "entries")

    def __init__(self, entries, conductor=None):
        grid = []
        n = conductor or 1
        for row in entries:
            out = []
            for v in row:
                if not isinstance(v, Cyclotomic):
                    v = Cyclotomic.from_rational(Fraction(v), 1)
                out.append(v)
                n = math.lcm(n, v.conductor)
            grid.append(out)
        _check_degree(n)
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0
        if any(len(r) != self.cols for r in grid):
            raise ValueError("ragged matrix")
        self.conductor = n
        self.entries = tuple(tuple(v.embed(n) for v in row) for row in grid)

    @classmethod
    def identity(cls, n: int) -> "CycMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def row_key(self, i):
        """Hashable exact key for row equality tests (shared conductor)."""
        return tuple(v.coeffs for v in self.entries[i])

    def col_key(self, j):
        return tuple(r[j].coeffs for r in self.entries)

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return CycMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "CycMatrix":
        return CycMatrix([[v * c for v in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        zero = Cyclotomic.from_rational(0, 1)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if a.is_zero():
                        continue
                    b = other.entries[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return CycMatrix(out)

    __rmul__ = scale

    def schur(self, other) -> "CycMatrix":
        """Entrywise (Schur) product."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return CycMatrix(
            [
                [self.entries[i][j] * other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def transpose(self) -> "CycMatrix":
        return CycMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def adjoint(self) -> "CycMatrix":
        """Hermitian adjoint (conjugate transpose)."""
        return CycMatrix(
            [
                [self.entries[i][j].conjugate() for i in range(self.rows)]
                for j in range(self.cols)
            ]
        )

    def is_hermitian(self) -> bool:
        return self == self.adjoint()

    def inverse(self) -> "CycMatrix":
        """Exact inverse by Gaussian elimination; raises SingularMatrix."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        m = self.rows
        one = Cyclotomic.from_rational(1, self.conductor)
        zero = Cyclotomic.from_rational(0, self.conductor)
        a = [list(row) for row in self.entries]
        b = [[one if i == j else zero for j in range(m)] for i in range(m)]
        for col in range(m):
            pivot = next(
                (r for r in range(col, m) if not a[r][col].is_zero()), None
            )
            if pivot is None:
                raise SingularMatrix(f"rank-deficient at column {col}")
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
            inv = a[col][col].inverse()
            a[col] = [v * inv for v in a[col]]
            b[col] = [v * inv for v in b[col]]
            for r in range(m):
                if r != col and not a[r][col].is_zero():
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    b[r] = [x - f * y for x, y in zip(b[r], b[col])]
        return CycMatrix(b)

    def galois(self, k: int) -> "CycMatrix":
        return CycMatrix([[v.galois(k) for v in row] for row in self.entries])

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.entries
        )
        return f"CycMatrix[{self.rows}x{self.cols}]({body})"
