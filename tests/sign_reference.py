"""Interval-arithmetic sign of a real cyclotomic value, the reference for
the library's fixed-point sign (``cyclotomic._interval_sign``).

This is the evaluator the library used before its integer cosine tables:
the real embedding zeta_n -> exp(2 pi i / n) is summed term by term in
``mpmath.iv`` interval arithmetic, doubling the working precision until
the interval excludes zero.  ``mpmath.iv.prec`` is global to the process,
so every change of it, and every evaluation at the changed precision,
happens under the library's lock.
"""

from functools import lru_cache

import mpmath

from delsarte import cyclotomic


@lru_cache(maxsize=None)
def _cos_table(n: int, prec: int):
    """cos(2 pi j / n) as intervals; called under the lock with iv.prec == prec."""
    two_pi = 2 * mpmath.iv.pi
    return tuple(mpmath.iv.cos(two_pi * j / n) for j in range(n))


def reference_sign(n: int, num) -> int:
    """Sign of the nonzero real value sum_e num[e] zeta_n^e for integer
    numerators, by interval evaluation at doubling precision."""
    prec = 64
    while prec <= 1 << 20:
        with cyclotomic._IV_LOCK:
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
