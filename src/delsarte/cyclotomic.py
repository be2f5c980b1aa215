"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Every value has one integer form: integer numerators on the power basis
1, zeta_n, ..., zeta_n^(phi(n)-1), reduced modulo the n-th cyclotomic
polynomial, over one positive denominator, in lowest terms.  A matrix
(``CycMatrix``) holds a numerator array of shape (rows, cols, phi(n)) over
one common denominator; a scalar (``Cyclotomic``) is one cell of that form,
and its operations run the same array functions on its numerator vector.
Two values are equal iff they agree after embedding into the lcm of their
conductors; mixed-conductor arithmetic embeds automatically.

A product convolves the coefficient slices over the power basis and reduces
once against rows phi..2phi-2 of the power table (``_convolve``); a Galois
automorphism, an embedding or a list of (exponent, coefficient) terms is one
integer matrix gathered from the same table by ``_basis_map``, its only
reader, and applied by one ``bounded_matmul``; the images of a matrix under
a list of automorphisms are one such product per automorphism, made one at a
time (none for the identity), which keep the matrix's denominator; an integer
combination of rows (``left_lifted``) and its exact zero test
(``left_zero_mask``) are one ``bounded_matmul`` too; a rational scaling of
rows and columns is one broadcast multiply of the numerators
(``scale_lines``); columns are compared on numerators by
``column_positions`` and rows by ``line_labels`` only.  So every exact
product runs in ``bounded_matmul`` or ``_convolve``, under one rule: a cheap
bound on every partial sum is computed from the largest entries, each taken
as at least 1 (max|A| max|B| times the inner dimension, and for a
convolution also phi and the reduction factor); int64 is used only when it
is below 2^62, and Python integers (``dtype=object``) otherwise, so
overflow can never wrap silently.  The largest entries are scanned once: a
``CycMatrix`` keeps the largest absolute value of its numerators
(``_bound``, found on first need), every basis table of a conductor shares
one bound (``_table_bound``), and the kernel routines take the bounds their
callers hold.
A scalar inverse goes through the norm: x^(-1) = prod_{k != 1} sigma_k(x) /
N(x), where N(x) = prod_k sigma_k(x) is rational.  The ``Cyclotomic``
entries of a matrix are built, all at once, when one is first read.

Exact literals enter and leave on the same form: ``from_ratios`` builds a
matrix from (exponent, numerator, denominator) triples, and ``lowest_terms``
reads each entry's nonzero coefficients back as such triples, in lowest
terms from one ``np.gcd`` over the numerators; ``texts`` and
``Cyclotomic.__str__`` print from them.  Neither builds a ``Fraction``.

Real values additionally support exact sign determination: an exact zero
test first, then a float64 estimate of the real embedding that is accepted
only where it clears a proven error bound, and otherwise adaptive-precision
interval evaluation via ``mpmath.iv``, under a lock because the working
precision ``mpmath.iv.prec`` is global to the process.  ``mpmath`` is
imported with the first irrational sign, not with this module.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConductorMismatch, InternalAssertion, NotAUnit, SingularMatrix

#: Largest tolerated field degree phi(n); guards against runaway lcm growth.
PHI_LIMIT = 10_000


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
def _power_table(n: int) -> np.ndarray:
    """zeta_n^j reduced on the power basis, row j for 0 <= j < n, as one
    read-only integer array (n x phi); zeta_n^n = 1, so row j % n serves
    every exponent j."""
    phi = euler_phi(n)
    head = cyclotomic_polynomial(n)[:phi]
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(n):
        rows.append(cur)
        lead = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if lead:
            for t in range(phi):
                cur[t] -= lead * head[t]
    table = _int_array(rows)
    table.setflags(write=False)
    return table


def _check_conductor(n: int) -> None:
    if n < 1:
        raise ValueError("conductor must be >= 1")
    if euler_phi(n) > PHI_LIMIT:
        raise ConductorMismatch(
            f"conductor {n} has degree {euler_phi(n)} > {PHI_LIMIT}"
        )


# ---------------------------------------------------------------------------
# Field elements
# ---------------------------------------------------------------------------

class Cyclotomic:
    """An exact element of Q(zeta_n): one cell of the integer form.

    The value is sum_e _num[e] zeta_n^e / _den on the power basis, with
    integer numerators and a positive denominator in lowest terms, so equal
    values of one conductor have equal fields.  Arithmetic, Galois images
    and embeddings run the array kernel below (``_sum``, ``_scaled``,
    ``_convolve``, ``bounded_matmul``) on the numerators as a vector.
    """

    __slots__ = ("conductor", "_num", "_den")

    def __init__(self, conductor, coeffs):
        """sum_e coeffs[e] zeta_n^e, for rational coefficients of any length."""
        cell = Cyclotomic.from_terms(conductor, enumerate(coeffs))
        self.conductor, self._num, self._den = cell.conductor, cell._num, cell._den

    @classmethod
    def _cell(cls, n: int, num, den: int) -> "Cyclotomic":
        """sum_e num[e] zeta_n^e / den, for a sequence of integer numerators
        already reduced on the power basis and den > 0, put in lowest terms."""
        num = tuple(num)
        if den != 1 and (g := math.gcd(den, *num)) > 1:
            num, den = tuple(c // g for c in num), den // g
        self = object.__new__(cls)
        self.conductor, self._num, self._den = n, num, den
        return self

    def _pair(self, other):
        """self and other embedded into Q(zeta_n), n the lcm of their
        conductors, both in canonical form there; None for an operand that
        is not a number."""
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, self.conductor)
        elif not isinstance(other, Cyclotomic):
            return None
        n = math.lcm(self.conductor, other.conductor)
        return self.embed(n), other.embed(n)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyclotomic":
        """The root of unity zeta_n^k."""
        return cls.from_terms(n, [(k, 1)])

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "Cyclotomic":
        _check_conductor(conductor)
        q = Fraction(value)
        pad = (0,) * (euler_phi(conductor) - 1)
        return cls._cell(conductor, (int(q.numerator),) + pad, int(q.denominator))

    @classmethod
    def from_terms(cls, conductor: int, terms) -> "Cyclotomic":
        """Canonical form of sum(c * zeta^e) for (exponent, coefficient) pairs."""
        return CycMatrix.from_terms(conductor, [[terms]])[0, 0]

    def lowest_terms(self) -> list[tuple[int, int, int]]:
        """Nonzero coefficients as (exponent, numerator, denominator) triples
        in lowest terms, ascending exponents, as ``CycMatrix.lowest_terms``
        gives them; one cell's few numerators are Python ints already."""
        den = self._den
        return [(e, c // (g := math.gcd(c, den)), den // g) for e, c in enumerate(self._num) if c]

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coordinates on the power basis, as Fractions."""
        return tuple(Fraction(c, self._den) for c in self._num)

    def terms(self) -> list[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs, ascending exponents."""
        den = self._den
        return [(e, Fraction(c, den)) for e, c in enumerate(self._num) if c]

    def embed(self, m: int) -> "Cyclotomic":
        """The same value viewed in Q(zeta_m); requires conductor | m."""
        table = _embedding(self.conductor, m)
        if table is None:
            return self
        num = bounded_matmul(_int_array(self._num), table, None, _table_bound(m))
        return Cyclotomic._cell(m, num.tolist(), self._den)

    # -- arithmetic on the numerator vectors ---------------------------------

    def __add__(self, other):
        if (pair := self._pair(other)) is None:
            return NotImplemented
        x, y = pair
        num, den = _sum(_int_array(x._num), x._den, _int_array(y._num), y._den)
        return Cyclotomic._cell(x.conductor, num.tolist(), den)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Cyclotomic)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)  # NotImplemented where __add__ gives it

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            num = _scaled(_int_array(self._num), q.numerator)
            return Cyclotomic._cell(self.conductor, num.tolist(), self._den * q.denominator)
        if (pair := self._pair(other)) is None:
            return NotImplemented
        x, y = pair
        num = _convolve(x.conductor, _int_array(x._num), _int_array(y._num), _entrywise, 1)
        return Cyclotomic._cell(x.conductor, num.tolist(), x._den * y._den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse through the norm; raises ZeroDivisionError
        on zero.

        With c = prod_{k != 1} sigma_k(x) over the units k mod n, x c is the
        norm N(x), a nonzero rational, and x^(-1) = c / N(x).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        cofactor = Cyclotomic.from_rational(1, self.conductor)
        if not self.is_rational():
            for k in units_mod(self.conductor)[1:]:
                cofactor = cofactor * self.galois(k)
        norm = self * cofactor
        if not norm.is_rational():
            raise InternalAssertion(f"norm of {self} is not rational")
        return cofactor * (1 / norm.as_rational())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction, Cyclotomic)):
            return NotImplemented
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
        table = _galois_matrix(self.conductor, k)
        if table is None:
            return self
        num = bounded_matmul(_int_array(self._num), table, None, _table_bound(self.conductor))
        return Cyclotomic._cell(self.conductor, num.tolist(), self._den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate, i.e. the automorphism zeta -> zeta^(-1)."""
        return self.galois(-1)

    # -- comparisons / rendering --------------------------------------------

    def __eq__(self, other):
        if (pair := self._pair(other)) is None:
            return NotImplemented
        x, y = pair
        return x._num == y._num and x._den == y._den

    __hash__ = None  # equality crosses conductors

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self!s})"

    def __str__(self):
        return _text(self.conductor, self.lowest_terms())


# ---------------------------------------------------------------------------
# Exact sign of real values
# ---------------------------------------------------------------------------

#: mpmath.iv.prec is global to the process; every change of it, and every
#: evaluation at the changed precision, happens under this lock
_IV_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _cos_table(n: int, prec: int):
    """cos(2 pi j / n) as intervals; called under _IV_LOCK with iv.prec == prec."""
    import mpmath

    two_pi = 2 * mpmath.iv.pi
    return tuple(mpmath.iv.cos(two_pi * j / n) for j in range(n))


@lru_cache(maxsize=None)
def _cos_floats(n: int) -> np.ndarray:
    """t_e = cos(2 pi e / n) for e < phi(n) as float64, each within 2^-52
    of the true value: the midpoint of the cached 64-bit interval, rounded
    once, its distance from both endpoints checked exactly."""
    import mpmath

    with _IV_LOCK:
        old = mpmath.iv.prec
        mpmath.iv.prec = 64
        try:
            table = _cos_table(n, 64)[:euler_phi(n)]
        finally:
            mpmath.iv.prec = old
    ends = [[(-1) ** s * Fraction(m) * Fraction(2) ** e for s, m, e, _ in x._mpi_]
            for x in table]
    t = np.array([float((lo + hi) / 2) for lo, hi in ends])
    if any(max(abs(Fraction(v) - lo), abs(Fraction(v) - hi)) > Fraction(1, 2**52)
           for v, (lo, hi) in zip(t.tolist(), ends)):
        raise InternalAssertion(f"cosine table at conductor {n} is too coarse")
    t.setflags(write=False)
    return t


def _filtered_signs(n: int, c: np.ndarray) -> np.ndarray:
    """Signs (-1 or +1) of the real values x_k = sum_e c[k, e] zeta_n^e for
    an int64 array c (k x phi) of nonzero real values, and 0 where float64
    cannot settle the sign.

    x_k = sum_e c_e cos(2 pi e / n), since x_k is real.  With f_e = fl(c_e),
    t_e within 2^-52 of cos(2 pi e / n) (``_cos_floats``) and est the float64
    product f @ t, the error splits into three terms: |c_e - f_e| <= u |f_e|
    for rounding to nearest (u = 2^-53; Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., eq. (2.5)), the table error 2^-52 |f_e|,
    and gamma_phi sum_e |f_e t_e| for the dot product in any summation
    order, FMA or not (Higham, section 3.1, eq. (3.5)), where
    gamma_phi = phi u / (1 - phi u) and |t_e| <= 1 + 2^-52.  So
    |x - est| <= (2^-53 + 2^-52 + gamma_phi (1 + 2^-52)) sum_e |f_e|, which
    is below half of B = 2 (2^-52 + 2^-53 + gamma_phi) sum_e |f_e|; the
    factor 2 also covers the rounding in computing B itself, since every
    nonzero |f_e| >= 1 and nothing underflows.  Where |est| > B, x has the
    sign of est; the other entries are left at 0 for ``_interval_sign``.
    """
    phi, u = c.shape[1], 2.0**-53
    gamma = phi * u / (1 - phi * u)
    f = c.astype(np.float64)
    est = f @ _cos_floats(n)
    bound = 2 * (2.0**-52 + 2.0**-53 + gamma) * np.abs(f).sum(axis=1)
    return np.where(np.abs(est) > bound, np.sign(est), 0).astype(np.int64)


def _interval_sign(n: int, num) -> int:
    """Sign of the nonzero real value sum_e num[e] zeta_n^e for integer
    numerators (a positive common denominator does not change the sign).

    The real embedding zeta_n -> exp(2 pi i / n) is evaluated with interval
    arithmetic, doubling the working precision until the interval excludes
    zero.  The value must be real and nonzero, or this never terminates
    below the precision cap.
    """
    import mpmath

    prec = 64
    while prec <= 1 << 20:
        with _IV_LOCK:
            old = mpmath.iv.prec
            mpmath.iv.prec = prec
            try:
                cos = _cos_table(n, prec)
                total = mpmath.iv.mpf(0)
                for e, c in enumerate(num):
                    if c:
                        total += mpmath.iv.mpf(c) * cos[e]
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
    """Sign (-1, 0, +1) of a real cyclotomic value, decided exactly by
    ``CycMatrix.signs`` on the value as a 1 x 1 matrix."""
    return int(CycMatrix([[x]]).signs()[0, 0])


# ---------------------------------------------------------------------------
# Subfields of Q(zeta_n), encoded by fixing subgroups of (Z/nZ)^x
# ---------------------------------------------------------------------------

class SubfieldSpec:
    """A subfield K of Q(zeta_n) given by the subgroup of (Z/nZ)^x fixing it.

    The named constructors cover the cases used throughout: ``rationals``
    (the full unit group fixes exactly Q), ``real`` (the subgroup generated
    by -1), and ``splitting_field`` (trivial group, K is
    the whole cyclotomic field).
    """

    __slots__ = ("conductor", "generators", "group")

    def __init__(self, conductor: int, generators):
        _check_conductor(conductor)
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
        """Q, fixed by all of (Z/nZ)^x: generated greedily by the units not
        yet in the closure of the ones before, each of which at least
        doubles it, so there are at most log2 phi(n) + 1 generators."""
        _check_conductor(conductor)
        gens, group = [], set(_closure(conductor, ()))
        for k in units_mod(conductor):
            if k not in group:
                gens.append(k)
                group = set(_closure(conductor, gens))
        return cls(conductor, gens)

    @classmethod
    def real(cls, conductor: int) -> "SubfieldSpec":
        return cls(conductor, (conductor - 1,))

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
    """True iff x is fixed by every generator of the fixing group of K;
    raises ConductorMismatch unless x embeds into Q(zeta_n) of K."""
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


def _known(bound, a: np.ndarray) -> int:
    """The bound a caller holds for max|a|, or a scan of a when it holds none."""
    return _maxabs(a) if bound is None else bound


def bounded_matmul(x: np.ndarray, y: np.ndarray, bx=None, by=None) -> np.ndarray:
    """x @ y for integer (or boolean) arrays, with numpy's broadcasting,
    exactly: every partial sum is at most max|x| max|y| times the inner
    dimension, so int64 is used only when that bound is below 2^62 and
    Python ints otherwise.  Each max is taken as at least 1, so both factors
    fit the chosen dtype even when the other one is zero.  ``bx`` and ``by``
    are bounds on max|x| and max|y| that the caller already holds; an
    operand without one is scanned."""
    dtype = _dtype(max(_known(bx, x), 1) * max(_known(by, y), 1) * x.shape[-1])
    return _fit(x.astype(dtype, copy=False) @ y.astype(dtype, copy=False))


def rational_lift(rows) -> tuple[np.ndarray, int]:
    """Integer numerators and the least positive common denominator of a
    rational matrix: nested rows of ints and Fractions, or an array of them
    (a signed integer or boolean array is its own lift).  The numerators are
    int64 only below 2^62 and Python ints otherwise, as in every kernel
    result, so a value has one form however it was built."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "bi":
        ints, den = rows.astype(np.int64, copy=False), 1
    else:
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        rows = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
                for row in rows]
        den = math.lcm(*{v.denominator for row in rows for v in row})
        ints = _int_array([[v.numerator * (den // v.denominator) for v in row] for row in rows])
    if ints.dtype != object and _maxabs(ints) >= INT64_BOUND:
        ints = ints.astype(object)
    return ints, den


def _basis_map(n: int, exponents) -> np.ndarray:
    """Read-only integer matrix whose row e is zeta_n^(exponents[e]) on the
    power basis: one gather from the power table, for any integer exponents."""
    t = _power_table(n)[np.asarray(exponents, dtype=np.intp) % n]
    t.setflags(write=False)
    return t


@lru_cache(maxsize=None)
def _table_bound(n: int) -> int:
    """A bound on the entries of every basis table at conductor n: each is a
    gather of power-table rows, so the largest entry of the whole table (the
    gather of all n rows) bounds them all."""
    return _maxabs(_basis_map(n, range(n)))


@lru_cache(maxsize=None)
def _reduction(n: int) -> tuple[np.ndarray, int]:
    """Rows phi..2phi-2 of the power table, which reduce a product of two
    reduced vectors, and the bound factor of the whole reduction: 1 plus the
    largest column sum of their absolute values."""
    phi = euler_phi(n)
    t = _basis_map(n, range(phi, 2 * phi - 1))
    return t, 1 + (_maxabs(np.abs(t).sum(axis=0)) if t.size else 0)


@lru_cache(maxsize=256)
def _galois_matrix(n: int, k: int):
    """sigma_k: zeta_n -> zeta_n^k on the power basis, phi x phi (row e is
    the power-table row (e k) mod n), or None where sigma_k is the identity;
    raises NotAUnit unless gcd(k, n) = 1.  The cache is bounded because a
    sweep over every unit k would otherwise keep phi^3 integers per conductor."""
    if n == 1 or k % n == 1:
        return None
    if math.gcd(k, n) != 1:
        raise NotAUnit(f"{k} is not a unit modulo {n}")
    return _basis_map(n, np.arange(euler_phi(n)) * (k % n))


@lru_cache(maxsize=None)
def _embedding(n: int, m: int):
    """Q(zeta_n) -> Q(zeta_m) on the power bases, phi(n) x phi(m), or None
    for m == n; raises ConductorMismatch unless n | m."""
    if m == n:
        return None
    if m % n:
        raise ConductorMismatch(f"{n} does not divide {m}")
    _check_conductor(m)
    return _basis_map(m, np.arange(euler_phi(n)) * (m // n))


def _keys(lines: np.ndarray) -> list:
    """Hashable keys of the rows of a 2-d integer array, equal exactly when
    the rows are, whatever the dtype: the int64 bytes of a row that fits,
    the tuple of its Python ints otherwise."""
    if lines.dtype != object:
        return [line.tobytes() for line in np.ascontiguousarray(lines, dtype=np.int64)]
    return [fit.tobytes() if (fit := _fit(line)).dtype != object else tuple(line.tolist())
            for line in lines]


def _zeros(num: np.ndarray) -> np.ndarray:
    """True exactly where the numerators along the last axis all vanish."""
    return (num == 0).all(axis=-1)


def _sum(a: np.ndarray, da: int, b: np.ndarray, db: int, ba=None, bb=None,
         sign: int = 1) -> tuple[np.ndarray, int]:
    """a / da + sign b / db (sign is 1 or -1) for numerator arrays, as
    numerators over the lcm; ``ba`` and ``bb`` bound max|a| and max|b|
    where the caller holds them."""
    den = math.lcm(da, db)
    fa, fb = den // da, den // db
    dtype = _dtype((_known(ba, a) + 1) * fa + (_known(bb, b) + 1) * fb)
    return a.astype(dtype, copy=False) * fa + b.astype(dtype, copy=False) * (sign * fb), den


def _scaled(num: np.ndarray, c: int, bound=None) -> np.ndarray:
    """c num for an integer c; ``bound`` bounds max|num| where it is held.
    |c| is taken as at least 1, so num fits the chosen dtype even for c = 0."""
    return num.astype(_dtype((_known(bound, num) + 1) * max(abs(c), 1)), copy=False) * c


def _matmul(x, b):
    """sum_k x[i, k] b[k, j, :] for an integer slice x (r x k)."""
    k, c, phi = b.shape
    return (x @ b.reshape(k, c * phi)).reshape(x.shape[0], c, phi)


def _entrywise(x, b):
    return x[..., None] * b


def _convolve(n: int, a: np.ndarray, b: np.ndarray, product, inner: int,
              ba=None, bb=None) -> np.ndarray:
    """Reduced power-basis coefficients of a bilinear product of cyclotomic arrays.

    ``product(x, b)`` applies the product to one coefficient slice
    x = a[..., s] and sums at most ``inner`` terms per entry.  The nonzero
    slices are convolved over the power basis and the result is reduced once
    against rows phi..2phi-2 of ``_power_table(n)``.  Every partial sum is at
    most max|a| max|b| inner phi times the reduction factor, so int64 is used
    only when that bound, each max taken as at least 1 so that both factors
    fit, is below 2^62 and Python ints otherwise; ``ba`` and ``bb`` bound
    max|a| and max|b| where the caller holds them.
    """
    phi = euler_phi(n)
    red, factor = _reduction(n)
    dtype = _dtype(max(_known(ba, a), 1) * max(_known(bb, b), 1) * inner * phi * factor)
    a = a.astype(dtype, copy=False)
    b = np.ascontiguousarray(b, dtype=dtype)
    s0, *rest = np.flatnonzero(a.reshape(-1, phi).any(axis=0)).tolist() or [0]
    first = product(a[..., s0], b)
    conv = np.zeros(first.shape[:-1] + (2 * phi - 1,), dtype=dtype)
    conv[..., s0:s0 + phi] = first
    for s in rest:
        conv[..., s:s + phi] += product(a[..., s], b)
    return conv[..., :phi] + conv[..., phi:] @ red.astype(dtype, copy=False)


def _ratio(c) -> tuple[int, int]:
    """Numerator and positive denominator of a rational: an int or a
    Fraction as it is, anything else through Fraction."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator, c.denominator


def _line_factor(values, size: int, shape) -> tuple[np.ndarray, int]:
    """A rational vector of the given size as integers over its least
    common denominator, reshaped to broadcast along one axis of a numerator
    array; None is the factor 1."""
    if values is None:
        return np.ones((1, 1, 1), dtype=np.int64), 1
    ints, den = rational_lift([list(values)])
    if ints.shape[1] != size:
        raise ValueError("shape mismatch")
    return ints.reshape(shape), den


def _lowest_terms(num: np.ndarray, den: int) -> list[list[tuple[int, int, int]]]:
    """For each row of a 2-d numerator array over the denominator den > 0,
    its nonzero coefficients as (exponent, numerator, denominator) triples,
    ascending exponents, each in lowest terms by one np.gcd over the nonzero
    numerators (Python ints where den or a numerator does not fit int64)."""
    out = [[] for _ in range(num.shape[0])]
    cells, exps = np.nonzero(num)
    top = num[cells, exps]
    if den == 1:
        bottom = np.ones_like(top)
    else:
        if den >= INT64_BOUND:
            top = top.astype(object)
        g = np.gcd(top, den)
        top, bottom = top // g, den // g
    for c, e, p, q in zip(cells.tolist(), exps.tolist(), top.tolist(), bottom.tolist()):
        out[c].append((e, p, q))
    return out


def ratio_text(p: int, q: int) -> str:
    """ "p/q", or "p" when q == 1."""
    return str(p) if q == 1 else f"{p}/{q}"


def _text(n: int, terms) -> str:
    """sum p/q z_n^e as text, from its lowest-terms triples: "0" when there
    are none, a unit coefficient left out, and a negative term subtracted."""
    parts = []
    for e, p, q in terms:
        c = ratio_text(p, q)
        if e == 0:
            parts.append(c)
            continue
        z = f"z{n}" if e == 1 else f"z{n}^{e}"
        parts.append(z if c == "1" else f"-{z}" if c == "-1" else f"{c}*{z}")
    if not parts:
        return "0"
    return parts[0] + "".join(
        f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:]
    )


def _shape(grid) -> tuple[int, int]:
    rows, cols = len(grid), len(grid[0]) if grid else 0
    if any(len(r) != cols for r in grid):
        raise ValueError("ragged matrix")
    return rows, cols


class CycMatrix:
    """Dense matrix over a cyclotomic field, all entries at one conductor.

    The matrix is held in one integer form: a numerator array of shape
    (rows, cols, phi(n)) on the power basis over one positive common
    denominator, in lowest terms, so equal matrices have equal forms.
    Products, sums, Galois images and comparisons run on that array (see
    ``bounded_matmul`` and ``_convolve`` for the overflow rule), each
    operand under the largest absolute value of its numerators, which the
    matrix finds on first need and keeps (``_bound``); the first read of
    ``entries`` or ``[i, j]`` builds every cell as a ``Cyclotomic`` from one
    ``tolist()``, and caches them.
    """

    __slots__ = ("rows", "cols", "conductor", "_num", "_den", "_cells", "_max")

    def __init__(self, entries, conductor=None):
        """The matrix of a rational array, or of rows of int, Fraction and
        Cyclotomic entries, over the lcm of ``conductor`` and the entries'
        conductors.  An array is lifted by one ``rational_lift``, rows by one
        ``from_ratios``: a rational entry is one triple, and a Cyclotomic
        entry gives one triple per nonzero numerator over its denominator."""
        if isinstance(entries, np.ndarray):
            ints, den = rational_lift(entries)
            form = CycMatrix._from_array(1, ints[..., None], den).embed(conductor or 1)
        else:
            grid = [list(row) for row in entries]
            n = math.lcm(conductor or 1, *(v.conductor for row in grid for v in row
                                          if isinstance(v, Cyclotomic)))
            form = CycMatrix.from_ratios(n, [
                [[(e * (n // v.conductor), c, v._den) for e, c in enumerate(v._num) if c]
                 if isinstance(v, Cyclotomic) else [(0, *_ratio(v))] for v in row]
                for row in grid])
        self._set(form.conductor, form._num, form._den, form._max)

    @classmethod
    def from_terms(cls, n: int, grid) -> "CycMatrix":
        """The matrix over Q(zeta_n) whose (i, j) entry is sum(c * zeta_n^e)
        over the (exponent, rational coefficient) pairs of grid[i][j]: each
        coefficient is read as its numerator and denominator, and the
        triples go to ``from_ratios``."""
        return cls.from_ratios(n, [[[(e, *_ratio(c)) for e, c in cell] for cell in row]
                                   for row in grid])

    @classmethod
    def from_ratios(cls, n: int, grid) -> "CycMatrix":
        """The matrix over Q(zeta_n) whose (i, j) entry is sum(p/q * zeta_n^e)
        over the (exponent, numerator, denominator) triples of grid[i][j],
        for integers p, any exponents and positive denominators q, reduced
        or not.

        The numerators are lifted to integers over the lcm of the
        denominators and reduced on the power basis by one product with the
        basis map of the exponents that occur; ``_set`` returns the result
        to lowest terms, so equal values give equal forms however they were
        written.
        """
        _check_conductor(n)
        cells = [[list(cell) for cell in row] for row in grid]
        rows, cols = _shape(cells)
        flat = [cell for row in cells for cell in row]
        den = math.lcm(*{q for cell in flat for _, _, q in cell})
        exponents = sorted({e % n for cell in flat for e, _, _ in cell})
        column = {e: t for t, e in enumerate(exponents)}
        lifted = [[0] * len(exponents) for _ in flat]
        for out, cell in zip(lifted, flat):
            for e, p, q in cell:
                out[column[e % n]] += p * (den // q)
        table = _basis_map(n, exponents)
        num = bounded_matmul(_int_array(lifted).reshape(len(flat), len(exponents)), table,
                             None, _table_bound(n))
        return cls._from_array(n, num.reshape(rows, cols, euler_phi(n)), den)

    @classmethod
    def _from_array(cls, n: int, num: np.ndarray, den: int = 1, top=None) -> "CycMatrix":
        self = object.__new__(cls)
        self._set(n, num, den, top)
        return self

    def _set(self, n, num, den, top=None):
        """Keep num / den in lowest terms; ``top``, where given, is max|num|
        exactly, and is kept as the bound (divided by the common factor)."""
        if den != 1:
            common = int(np.gcd.reduce(num, axis=None))
            if not common:
                den = 1  # a zero matrix; dividing by den itself may not fit int64
            elif (g := math.gcd(den, common)) > 1:
                num, den = num // g, den // g
                if top is not None:
                    top //= g
        if num.dtype == object:
            # Python-int results that fit go back to int64
            if top is None:
                top = _maxabs(num)
            if top < INT64_BOUND:
                num = num.astype(np.int64)
        num.setflags(write=False)
        self.conductor = n
        self.rows, self.cols = num.shape[0], num.shape[1]
        self._num, self._den, self._cells, self._max = num, den, None, top

    @property
    def _bound(self) -> int:
        """max |numerator|, scanned on first need and kept: every kernel
        product and sum bounds this matrix by it."""
        if self._max is None:
            self._max = _maxabs(self._num)
        return self._max

    @classmethod
    def identity(cls, n: int) -> "CycMatrix":
        return cls(np.eye(n, dtype=np.int64))

    def scale_lines(self, rows=None, cols=None) -> "CycMatrix":
        """diag(rows) self diag(cols) for rational vectors (None leaves that
        side alone), as one broadcast multiply of the numerator array.

        Each vector is lifted once to integers over its least common
        denominator.  The product is int64 while max|num| max|r| max|c| (each
        taken as at least 1) is below 2^62 and Python ints otherwise; the
        denominators multiply, and ``_set`` returns the result to lowest
        terms.
        """
        r, dr = _line_factor(rows, self.rows, (-1, 1, 1))
        c, dc = _line_factor(cols, self.cols, (1, -1, 1))
        # every factor's entries are below the bound too, so each cast fits
        dtype = _dtype(max(self._bound, 1) * max(_maxabs(r), 1) * max(_maxabs(c), 1))
        num = (self._num.astype(dtype, copy=False) * r.astype(dtype, copy=False)
               * c.astype(dtype, copy=False))
        return CycMatrix._from_array(self.conductor, num, self._den * dr * dc)

    # -- entries, built together on the first read -----------------------------

    @property
    def entries(self):
        if self._cells is None:
            n, den = self.conductor, self._den
            self._cells = tuple(tuple(Cyclotomic._cell(n, c, den) for c in row)
                                for row in self._num.tolist())
        return self._cells

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def lowest_terms(self) -> list[list[list[tuple[int, int, int]]]]:
        """Rows of entries, each the list of its nonzero coefficients as
        (exponent, numerator, denominator) triples in lowest terms,
        ascending exponents; no cell is built."""
        terms, c = _lowest_terms(self._num.reshape(-1, self._num.shape[2]), self._den), self.cols
        return [terms[i * c:(i + 1) * c] for i in range(self.rows)]

    def texts(self) -> list[list[str]]:
        """Rows of the entries as text, each as ``str`` of its cell prints it."""
        return [[_text(self.conductor, cell) for cell in row] for row in self.lowest_terms()]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(row[j] for row in self.entries)

    @staticmethod
    def _lines(num: np.ndarray, axis: int) -> np.ndarray:
        """A numerator array (..., rows, cols, phi) as (..., lines, numerators)."""
        if axis:
            num = np.swapaxes(num, -3, -2)
        return num.reshape(num.shape[:-2] + (-1,))

    def _galois_lines(self, units, axis: int):
        """The images sigma_k(self) for the units k, in order, one at a time,
        each laid out (lines, numerators) as in ``_lines`` over self's
        denominator, which sigma_k keeps: it maps the integer span of the
        power basis onto itself.  An image is one ``bounded_matmul`` with the
        cached table of sigma_k; the identity is the numerators themselves."""
        n = self.conductor
        for k in units:
            table = _galois_matrix(n, k % n)
            image = self._num if table is None else bounded_matmul(
                self._num, table, self._bound, _table_bound(n))
            yield self._lines(image, axis)

    def column_positions(self, other, units=(1,)) -> list[list[int]]:
        """For each unit k in order, the index among self's columns of each
        column of sigma_k(other): -1 where no column of self equals it, and
        the last copy where self repeats it.

        The conductors meet at their lcm and the denominators at theirs.  The
        images come one unit at a time (``_galois_lines``) and keep other's
        denominator, so numerators are compared exactly, each side rescaled
        only where its denominator differs from the lcm.
        """
        a, b = self._common(other)
        den = math.lcm(a._den, b._den)
        own = self._lines(a._num, 1)
        if den != a._den:
            own = _scaled(own, den // a._den, a._bound)
        where = {key: j for j, key in enumerate(_keys(own))}
        out = []
        for lines in b._galois_lines(units, 1):
            if den != b._den:
                lines = _scaled(lines, den // b._den)
            out.append([where.get(key, -1) for key in _keys(lines)])
        return out

    def line_labels(self) -> list[int]:
        """First-occurrence labels of the rows: a row gets the number of
        distinct rows before its first copy, so equal rows share one label."""
        first: dict = {}
        return [first.setdefault(key, len(first))
                for key in _keys(self._lines(self._num, 0))]

    def galois_moved(self, units) -> np.ndarray:
        """Boolean (len(units), rows, cols) array, True exactly where sigma_k
        moves the entry, for each unit k in order."""
        return np.stack([(image.reshape(self._num.shape) != self._num).any(axis=-1)
                         for image in self._galois_lines(units, 0)])

    def zero_mask(self) -> np.ndarray:
        """Boolean (rows, cols) array, True exactly where the entry is zero."""
        return _zeros(self._num)

    def rational_part(self) -> tuple[np.ndarray, int, np.ndarray]:
        """Integer numerators (rows, cols) of the rational parts of the
        entries over the common denominator, and the boolean (rows, cols)
        mask of the irrational entries."""
        return self._num[..., 0], self._den, (self._num[..., 1:] != 0).any(axis=-1)

    def signs(self) -> np.ndarray:
        """Exact signs (-1, 0, +1) of the entries, which must all be real.

        Zero and rational entries are decided by the sign of their integer
        numerator (the denominator is positive), with no Galois work.  The
        irrational entries must be fixed by complex conjugation, one Galois
        image; their signs come from a float64 estimate with a proven error
        bound where it settles them (``_filtered_signs``, on the entries
        whose own numerators are below 2^62 in absolute value, whatever the
        dtype of the whole matrix), and from interval evaluation otherwise.
        """
        head = self._num[..., 0]
        out = (head > 0).astype(np.int64) - (head < 0).astype(np.int64)
        irrational = np.argwhere(self.rational_part()[2])  # (i, j), row-major
        if not len(irrational):
            return out
        rows, cols = irrational.T
        part = self._num[rows, cols]
        if CycMatrix._from_array(self.conductor, part[:, None]).galois_moved([-1]).any():
            raise ValueError("matrix has a non-real entry; sign undefined")
        found = np.zeros(len(part), dtype=np.int64)
        small = (np.abs(part) < INT64_BOUND).all(axis=1)
        if small.any():
            found[small] = _filtered_signs(self.conductor, part[small].astype(np.int64))
        for k in np.flatnonzero(found == 0).tolist():
            found[k] = _interval_sign(self.conductor, part[k].tolist())
        out[rows, cols] = found
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

    def embed(self, m: int) -> "CycMatrix":
        """The same matrix viewed over Q(zeta_m); requires conductor | m."""
        table = _embedding(self.conductor, m)
        if table is None:
            return self
        num = bounded_matmul(self._num, table, self._bound, _table_bound(m))
        return CycMatrix._from_array(m, num, self._den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign other, one ``_sum`` of the numerators."""
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        a, b = self._common(other)
        return CycMatrix._from_array(
            a.conductor, *_sum(a._num, a._den, b._num, b._den, a._bound, b._bound, sign))

    def scale(self, c) -> "CycMatrix":
        if isinstance(c, Cyclotomic):
            return self._entrywise(CycMatrix([[c]]))
        q = Fraction(c)
        top = self._bound
        num = _scaled(self._num, q.numerator, top)
        return CycMatrix._from_array(self.conductor, num, self._den * q.denominator,
                                     top * abs(q.numerator))

    def _left_product(self, ints: np.ndarray, cols, bound=None) -> np.ndarray:
        """Numerators (k, len(cols), phi) of V self[:, cols] over self's
        denominator, for an integer matrix V (k x rows) with max|V| at most
        ``bound`` where that is held: one ``bounded_matmul`` with the
        numerator block of those columns, under self's bound."""
        part = self._num if cols is None else self._num[:, np.asarray(cols, dtype=np.intp)]
        block = part.reshape(self.rows, part.shape[1] * part.shape[2])
        prod = bounded_matmul(ints, block, bound, self._bound)
        return prod.reshape((ints.shape[0],) + part.shape[1:])

    def left_rational(self, vectors, cols=None) -> "CycMatrix":
        """V self[:, cols] for a rational matrix V (k x rows), one integer product."""
        return self.left_lifted(*rational_lift(vectors), cols)

    def left_lifted(self, ints: np.ndarray, den: int, cols=None) -> "CycMatrix":
        """V self[:, cols] for V = ints / den, an integer matrix (k x rows)
        over a positive denominator, one integer product."""
        return CycMatrix._from_array(self.conductor, self._left_product(ints, cols),
                                     den * self._den)

    def left_zero_mask(self, ints: np.ndarray, cols=None) -> np.ndarray:
        """The ``zero_mask`` of V self[:, cols] for an integer matrix V
        (k x rows), from the same product as ``left_lifted`` but with no
        matrix built: an entry of a combination is zero exactly where its
        numerators are, whatever the (positive) denominators."""
        return _zeros(self._left_product(ints, cols))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # a rational factor needs no convolution
        if self.conductor == 1:
            num = other._left_product(self._num[..., 0], None, self._bound)
            return CycMatrix._from_array(other.conductor, num, self._den * other._den)
        if other.conductor == 1:
            return (other.transpose() * self.transpose()).transpose()
        a, b = self._common(other)
        num = _convolve(a.conductor, a._num, b._num, _matmul, a.cols, a._bound, b._bound)
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
        num = _convolve(a.conductor, a._num, b._num, _entrywise, 1, a._bound, b._bound)
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
        num = self._num.transpose(1, 0, 2)
        return CycMatrix._from_array(self.conductor, num, self._den, self._max)

    def reshape(self, rows: int, cols: int) -> "CycMatrix":
        """The same entries in row-major order, as a rows x cols matrix."""
        num = self._num.reshape(rows, cols, self._num.shape[2])
        return CycMatrix._from_array(self.conductor, num, self._den, self._max)

    def galois(self, k: int) -> "CycMatrix":
        """Entrywise image under zeta_n -> zeta_n^k; gcd(k, n) must be 1."""
        table = _galois_matrix(self.conductor, k)
        if table is None:
            return self
        num = bounded_matmul(self._num, table, self._bound, _table_bound(self.conductor))
        return CycMatrix._from_array(self.conductor, num, self._den)

    def conjugate(self) -> "CycMatrix":
        """Entrywise complex conjugate, the automorphism zeta -> zeta^(-1)."""
        return self.galois(-1)

    def adjoint(self) -> "CycMatrix":
        """Hermitian adjoint (conjugate transpose)."""
        return self.conjugate().transpose()

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
        body = "; ".join(" ".join(row) for row in self.texts())
        return f"CycMatrix[{self.rows}x{self.cols}]({body})"
