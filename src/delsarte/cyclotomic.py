"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored by its conductor n together with its coordinates on the
power basis 1, zeta_n, ..., zeta_n^(phi(n)-1), reduced modulo the n-th
cyclotomic polynomial.  Coefficients are ``fractions.Fraction``, so every
operation is exact.  Two elements are equal iff they agree after embedding
into the lcm of their conductors; mixed-conductor arithmetic embeds
automatically.

Matrices (``CycMatrix``) have one integer form: a numerator array of shape
(rows, cols, phi(n)) over one positive common denominator, in lowest terms.
Every matrix-shaped identity in the package runs on it.  A product
convolves the coefficient slices over the power basis and reduces once
against rows phi..2phi-2 of the power table; a Galois automorphism or an
embedding is one integer phi x phi (or phi(n) x phi(m)) matrix read off the
same table.  Before each operation a cheap bound on every partial sum is
computed from the largest entries (for a product, max|A| max|B| times the
inner dimension, phi and the reduction factor); int64 is used only when it
is below 2^62, and Python integers (``dtype=object``) otherwise, so
overflow can never wrap silently.  ``Cyclotomic`` entries are built only
when read.

Real elements (fixed by complex conjugation) additionally support exact sign
determination: an exact zero test first, then adaptive-precision interval
evaluation of the real embedding via ``mpmath.iv``, under a lock because the
working precision ``mpmath.iv.prec`` is global to the process.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

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

#: mpmath.iv.prec is global to the process; every change of it, and every
#: evaluation at the changed precision, happens under this lock
_IV_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _cos_table(n: int, prec: int):
    """cos(2 pi j / n) as intervals; called under _IV_LOCK with iv.prec == prec."""
    two_pi = 2 * mpmath.iv.pi
    return tuple(mpmath.iv.cos(two_pi * j / n) for j in range(n))


def _interval_sign(n: int, coeffs) -> int:
    """Sign of the nonzero real value sum_e c_e zeta_n^e (rational c_e).

    The real embedding zeta_n -> exp(2 pi i / n) is evaluated with interval
    arithmetic, doubling the working precision until the interval excludes
    zero.  The value must be real and nonzero, or this never terminates
    below the precision cap.
    """
    prec = 64
    while prec <= 1 << 20:
        with _IV_LOCK:
            old = mpmath.iv.prec
            mpmath.iv.prec = prec
            try:
                cos = _cos_table(n, prec)
                total = mpmath.iv.mpf(0)
                for e, c in enumerate(coeffs):
                    if c:
                        total += (mpmath.iv.mpf(c.numerator) / c.denominator) * cos[e]
                positive, negative = bool(total > 0), bool(total < 0)
            finally:
                mpmath.iv.prec = old
        if positive:
            return 1
        if negative:
            return -1
        prec *= 2
    raise ArithmeticError(f"sign undecided at precision {prec} (conductor {n})")


def exact_sign(x: Cyclotomic) -> int:
    """Sign (-1, 0, +1) of a real cyclotomic value, decided exactly.

    Zero and rational values are decided by exact arithmetic; otherwise the
    real embedding is evaluated with interval arithmetic (``_interval_sign``),
    which holds a lock while it changes the global ``mpmath.iv.prec``.
    """
    if not x.is_real():
        raise ValueError(f"{x} is not real; sign undefined")
    if x.is_zero():
        return 0
    if x.is_rational():
        return 1 if x.coeffs[0] > 0 else -1
    return _interval_sign(x.conductor, x.coeffs)


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
# Dense exact matrices: one integer form
# ---------------------------------------------------------------------------

#: int64 is used only when an a-priori bound on every partial sum is below this
INT64_BOUND = 1 << 62


def _maxabs(a: np.ndarray) -> int:
    """Largest absolute entry of an integer array, as a Python int."""
    if not a.size:
        return 0
    return max(int(a.max()), -int(a.min()))


def _dtype(bound: int):
    """int64 when every intermediate is at most ``bound`` < 2^62, else Python ints."""
    return np.int64 if bound < INT64_BOUND else object


def _int_array(values) -> np.ndarray:
    """An integer array from nested Python ints: int64 if they fit, else objects."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _fit(a: np.ndarray) -> np.ndarray:
    """Python-int results that fit go back to int64."""
    if a.dtype == object and _maxabs(a) < INT64_BOUND:
        return a.astype(np.int64)
    return a


def bounded_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for integer (or boolean) arrays, exactly: every partial sum is at
    most max|x| max|y| times the inner dimension, so int64 is used only when
    that bound is below 2^62 and Python ints otherwise."""
    dtype = _dtype(_maxabs(x) * _maxabs(y) * x.shape[-1])
    return _fit(x.astype(dtype, copy=False) @ y.astype(dtype, copy=False))


def rational_lift(rows) -> tuple[np.ndarray, int]:
    """Integer numerators and the least positive common denominator of a
    rational matrix (nested rows of ints/Fractions, or an integer array)."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "i":
        return rows, 1
    rows = [[v if type(v) is Fraction else Fraction(v) for v in row] for row in rows]
    den = math.lcm(*{v.denominator for row in rows for v in row})
    if den == 1:
        return _int_array([[v.numerator for v in row] for row in rows]), 1
    return _int_array([[v.numerator * (den // v.denominator) for v in row] for row in rows]), den


def _basis_map(n: int, exponents) -> tuple[np.ndarray, int]:
    """Integer matrix whose row e is zeta_n^(exponents[e]) on the power basis,
    with its largest column sum of absolute values (so |v @ t| <= max|v| * it)."""
    pows = _power_table(n)
    rows = [pows[e] for e in exponents]
    t = _int_array(rows).reshape(len(rows), euler_phi(n))
    t.setflags(write=False)
    return t, _maxabs(np.abs(t).sum(axis=0)) if t.size else 0


@lru_cache(maxsize=None)
def _reduction(n: int) -> tuple[np.ndarray, int]:
    """Rows phi..2phi-2 of the power table, which reduce a product of two
    reduced vectors, and the bound factor of the whole reduction."""
    phi = euler_phi(n)
    t, factor = _basis_map(n, range(phi, 2 * phi - 1))
    return t, 1 + factor


@lru_cache(maxsize=256)
def _galois_matrix(n: int, k: int) -> tuple[np.ndarray, int]:
    """sigma_k: zeta_n -> zeta_n^k on the power basis, phi x phi; row e is
    the power-table row (e k) mod n.  The cache is bounded because a sweep
    over every unit k would otherwise keep phi^3 integers per conductor."""
    return _basis_map(n, [(e * k) % n for e in range(euler_phi(n))])


@lru_cache(maxsize=None)
def _embedding(n: int, m: int) -> tuple[np.ndarray, int]:
    """Q(zeta_n) -> Q(zeta_m) on the power bases, phi(n) x phi(m), for n | m."""
    step = m // n
    return _basis_map(m, [e * step for e in range(euler_phi(n))])


def _matmul(x, b):
    """sum_k x[i, k] b[k, j, :] for an integer slice x (r x k)."""
    k, c, phi = b.shape
    return (x @ b.reshape(k, c * phi)).reshape(x.shape[0], c, phi)


def _entrywise(x, b):
    return x[..., None] * b


def _convolve(n: int, a: np.ndarray, b: np.ndarray, product, inner: int) -> np.ndarray:
    """Reduced power-basis coefficients of a bilinear product of cyclotomic arrays.

    ``product(x, b)`` applies the product to one coefficient slice
    x = a[..., s] and sums at most ``inner`` terms per entry.  The slices are
    convolved over the power basis and the result is reduced once against
    rows phi..2phi-2 of ``_power_table(n)``.  Every partial sum is at most
    max|a| max|b| inner phi times the reduction factor, so int64 is used
    only when that bound is below 2^62 and Python ints otherwise.
    """
    phi = euler_phi(n)
    red, factor = _reduction(n)
    dtype = _dtype(_maxabs(a) * _maxabs(b) * inner * phi * factor)
    a = a.astype(dtype, copy=False)
    b = np.ascontiguousarray(b, dtype=dtype)
    first = product(a[..., 0], b)
    conv = np.zeros(first.shape[:-1] + (2 * phi - 1,), dtype=dtype)
    conv[..., :phi] = first
    for s in range(1, phi):
        x = a[..., s]
        if x.any():
            conv[..., s:s + phi] += product(x, b)
    return conv[..., :phi] + conv[..., phi:] @ red.astype(dtype, copy=False)


class CycMatrix:
    """Dense matrix over a cyclotomic field, all entries at one conductor.

    The matrix is held in one integer form: a numerator array of shape
    (rows, cols, phi(n)) on the power basis over one positive common
    denominator, in lowest terms, so equal matrices have equal forms.
    Products, sums, Galois images and comparisons run on that array (see
    ``_convolve`` for the overflow rule); ``entries`` and ``[i, j]`` build
    ``Cyclotomic`` values only when first read, and cache them.
    """

    __slots__ = ("rows", "cols", "conductor", "_num", "_den", "_cells")

    def __init__(self, entries, conductor=None):
        grid = [list(row) for row in entries]
        rows = len(grid)
        cols = len(grid[0]) if grid else 0
        if any(len(r) != cols for r in grid):
            raise ValueError("ragged matrix")
        n = conductor or 1
        for row in grid:
            for v in row:
                if isinstance(v, Cyclotomic):
                    n = math.lcm(n, v.conductor)
        _check_degree(n)
        coeffs = []
        for row in grid:
            for v in row:
                if not isinstance(v, Cyclotomic):
                    coeffs.append((Fraction(v),))
                elif v.conductor == n or v.is_rational():
                    coeffs.append(v.coeffs)
                else:
                    coeffs.append(v.embed(n).coeffs)
        phi = euler_phi(n)
        num, den = rational_lift(c + (_ZERO,) * (phi - len(c)) for c in coeffs)
        self._set(n, num.reshape(rows, cols, phi), den)

    @classmethod
    def _from_array(cls, n: int, num: np.ndarray, den: int = 1) -> "CycMatrix":
        self = object.__new__(cls)
        self._set(n, num, den)
        return self

    def _set(self, n, num, den):
        if den != 1:
            top = int(np.gcd.reduce(num, axis=None))
            if not top:
                den = 1  # a zero matrix; dividing by den itself may not fit int64
            elif (g := math.gcd(den, top)) > 1:
                num, den = num // g, den // g
        num = _fit(num)
        num.setflags(write=False)
        self.conductor = n
        self.rows, self.cols = num.shape[0], num.shape[1]
        self._num, self._den, self._cells = num, den, None

    @classmethod
    def identity(cls, n: int) -> "CycMatrix":
        return cls._from_array(1, np.eye(n, dtype=np.int64)[:, :, None])

    @classmethod
    def diagonal(cls, values) -> "CycMatrix":
        """The square matrix with the given rational diagonal."""
        return cls([[v if i == j else 0 for j in range(len(values))]
                    for i, v in enumerate(values)])

    # -- entries, built on first read -----------------------------------------

    def __getitem__(self, key):
        i, j = key
        if self._cells is None:
            self._cells = [[None] * self.cols for _ in range(self.rows)]
        cell = self._cells[i][j]
        if cell is None:
            den = self._den
            coeffs = tuple(
                Fraction(c, den) if c else _ZERO for c in self._num[i, j].tolist()
            )
            cell = self._cells[i][j] = Cyclotomic(self.conductor, coeffs, _canonical=True)
        return cell

    @property
    def entries(self):
        return tuple(self.row(i) for i in range(self.rows))

    def row(self, i):
        return tuple(self[i, j] for j in range(self.cols))

    def col(self, j):
        return tuple(self[i, j] for i in range(self.rows))

    def row_key(self, i):
        """Hashable exact key for row equality tests (shared conductor)."""
        return self._key(self._num[i])

    def col_key(self, j):
        return self._key(self._num[:, j])

    def _key(self, part):
        top = int(np.gcd.reduce(part, axis=None))
        if not top:
            return 1, (0,) * part.size
        g = math.gcd(self._den, top)
        return self._den // g, tuple((part // g).ravel().tolist())

    def zero_mask(self) -> np.ndarray:
        """Boolean (rows, cols) array, True exactly where the entry is zero."""
        return ~(self._num != 0).any(axis=-1)

    def signs(self) -> np.ndarray:
        """Exact signs (-1, 0, +1) of the entries, which must all be real.

        Zero and rational entries are decided by the sign of their integer
        numerator (the denominator is positive); only irrational entries go
        to interval evaluation.
        """
        if self.conjugate() != self:
            raise ValueError("matrix has a non-real entry; sign undefined")
        head = self._num[..., 0]
        out = (head > 0).astype(np.int64) - (head < 0).astype(np.int64)
        for i, j in np.argwhere((self._num[..., 1:] != 0).any(axis=-1)):
            out[i, j] = _interval_sign(self.conductor, self._num[i, j].tolist())
        return out

    # -- comparison and arithmetic on the integer form -----------------------

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        a, b = self._common(other)
        return a._den == b._den and np.array_equal(a._num, b._num)

    __hash__ = None

    def _common(self, other):
        if self.conductor == other.conductor:
            return self, other
        m = math.lcm(self.conductor, other.conductor)
        return self.embed(m), other.embed(m)

    def _apply(self, table, factor, m) -> "CycMatrix":
        """Coefficients mapped through an integer basis map into Q(zeta_m)."""
        dtype = _dtype(_maxabs(self._num) * factor)
        num = self._num.astype(dtype, copy=False) @ table.astype(dtype, copy=False)
        return CycMatrix._from_array(m, num, self._den)

    def embed(self, m: int) -> "CycMatrix":
        """The same matrix viewed over Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ConductorMismatch(f"{n} does not divide {m}")
        _check_degree(m)
        return self._apply(*_embedding(n, m), m)

    def __add__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        a, b = self._common(other)
        den = math.lcm(a._den, b._den)
        fa, fb = den // a._den, den // b._den
        dtype = _dtype((_maxabs(a._num) + 1) * fa + (_maxabs(b._num) + 1) * fb)
        num = a._num.astype(dtype, copy=False) * fa + b._num.astype(dtype, copy=False) * fb
        return CycMatrix._from_array(a.conductor, num, den)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "CycMatrix":
        if isinstance(c, Cyclotomic):
            return self._entrywise(CycMatrix([[c]]))
        q = Fraction(c)
        dtype = _dtype((_maxabs(self._num) + 1) * abs(q.numerator))
        num = self._num.astype(dtype, copy=False) * q.numerator
        return CycMatrix._from_array(self.conductor, num, self._den * q.denominator)

    def annihilator(self, cols, bound: int) -> np.ndarray:
        """Integer block of self[:, cols] for exact zero tests of combinations.

        For an integer matrix V (k x rows) with |V| <= bound, V @ block is
        the numerator array of V self[:, cols], flattened to
        (k, len(cols) * phi), over self's positive denominator; so a
        combination vanishes exactly where its row of V @ block does.  The
        block is int64 when bound * max|block| * rows < 2^62 and Python ints
        otherwise, so the product never wraps.
        """
        part = self._num if cols is None else self._num[:, np.asarray(cols, dtype=np.intp)]
        block = part.reshape(self.rows, part.shape[1] * part.shape[2])
        return block.astype(_dtype((bound + 1) * _maxabs(block) * self.rows), copy=False)

    def left_rational(self, vectors, cols=None) -> "CycMatrix":
        """V self[:, cols] for a rational matrix V (k x rows), one integer product."""
        ints, den = rational_lift(vectors)
        block = self.annihilator(cols, _maxabs(ints))
        num = ints.astype(block.dtype, copy=False) @ block
        phi = self._num.shape[2]
        shape = (ints.shape[0], block.shape[1] // phi, phi)
        return CycMatrix._from_array(self.conductor, num.reshape(shape), den * self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # a rational factor needs no convolution
        if self.conductor == 1:
            return other.left_rational(self._num[..., 0]).scale(Fraction(1, self._den))
        if other.conductor == 1:
            return (other.transpose() * self.transpose()).transpose()
        a, b = self._common(other)
        num = _convolve(a.conductor, a._num, b._num, _matmul, a.cols)
        return CycMatrix._from_array(a.conductor, num, a._den * b._den)

    __rmul__ = scale

    def schur(self, other) -> "CycMatrix":
        """Entrywise (Schur) product."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return self._entrywise(other)

    def _entrywise(self, other) -> "CycMatrix":
        # other may be 1 x 1, which broadcasts
        a, b = self._common(other)
        num = _convolve(a.conductor, a._num, b._num, _entrywise, 1)
        return CycMatrix._from_array(a.conductor, num, a._den * b._den)

    def select(self, rows=None, cols=None) -> "CycMatrix":
        """The submatrix on the given row and column indices (repeats allowed)."""
        num = self._num
        if rows is not None:
            num = num[np.asarray(rows, dtype=np.intp)]
        if cols is not None:
            num = num[:, np.asarray(cols, dtype=np.intp)]
        return CycMatrix._from_array(self.conductor, num, self._den)

    def transpose(self) -> "CycMatrix":
        return CycMatrix._from_array(self.conductor, self._num.transpose(1, 0, 2), self._den)

    def reshape(self, rows: int, cols: int) -> "CycMatrix":
        """The same entries in row-major order, as a rows x cols matrix."""
        num = self._num.reshape(rows, cols, self._num.shape[2])
        return CycMatrix._from_array(self.conductor, num, self._den)

    def galois(self, k: int) -> "CycMatrix":
        """Entrywise image under zeta_n -> zeta_n^k; gcd(k, n) must be 1."""
        n = self.conductor
        if n == 1:
            return self
        if math.gcd(k, n) != 1:
            raise NotAUnit(f"{k} is not a unit modulo {n}")
        k %= n
        if k == 1:
            return self
        return self._apply(*_galois_matrix(n, k), n)

    def conjugate(self) -> "CycMatrix":
        """Entrywise complex conjugate, the automorphism zeta -> zeta^(-1)."""
        return self if self.conductor <= 2 else self.galois(-1)

    def adjoint(self) -> "CycMatrix":
        """Hermitian adjoint (conjugate transpose)."""
        return self.conjugate().transpose()

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

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self.entries
        )
        return f"CycMatrix[{self.rows}x{self.cols}]({body})"
