"""Exception hierarchy shared across the package.

Every domain error raised by the library derives from :class:`DelsarteError`,
so callers (notably the CLI) can distinguish bad mathematical input from
programming errors.
"""

from __future__ import annotations


class DelsarteError(Exception):
    """Base class for all domain errors raised by this package."""


class ConductorMismatch(DelsarteError):
    """A cyclotomic value does not embed into the requested field."""


class NotAUnit(DelsarteError):
    """An exponent is not coprime to the conductor, so no Galois map exists."""


class SingularMatrix(DelsarteError):
    """Matrix inversion was requested for a rank-deficient matrix."""


class NotAScheme(DelsarteError):
    """A relation partition violates one of the four scheme axioms."""

    def __init__(self, axiom, witness, message=""):
        self.axiom = axiom
        self.witness = witness
        detail = message or f"fails at {witness!r}"
        super().__init__(f"axiom ({axiom}): {detail}")


class BadEigenbasis(DelsarteError):
    """Supplied eigenmatrix data violates a structural identity."""

    def __init__(self, invariant, detail=""):
        self.invariant = invariant
        msg = f"eigendata rejected: {invariant}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class KreinViolation(DelsarteError):
    """A Krein parameter is negative or not real (corrupted input)."""

    def __init__(self, i, j, k, reason):
        self.indices = (i, j, k)
        super().__init__(f"Krein parameter q[{i}][{j}][{k}] {reason}")


class NotPermutation(DelsarteError):
    """A field automorphism does not permute the primitive idempotents."""


class NotAFusion(DelsarteError):
    """A class partition fails the merged-eigenmatrix row-count criterion."""

    def __init__(self, distinct_rows, cells):
        self.distinct_rows = distinct_rows
        self.cells = cells
        super().__init__(
            f"merged eigenmatrix has {distinct_rows} distinct rows "
            f"but the partition has {cells} cells"
        )


class NotClosed(DelsarteError):
    """The subfield-rational idempotents do not span a fusion scheme."""

    def __init__(self, distinct_rows, orbits):
        self.distinct_rows = distinct_rows
        self.orbits = orbits
        super().__init__(
            f"no fusion over this subfield: {distinct_rows} distinct merged "
            f"rows for {orbits} orbits"
        )


class UnsupportedFamily(DelsarteError):
    """Requested built-in group parameters are outside the supported range."""


class NotEigen(DelsarteError):
    """A representation column fails the common-eigenvector identity."""

    def __init__(self, class_index, detail=""):
        self.class_index = class_index
        super().__init__(
            f"eigenvector identity fails for class {class_index}"
            + (f": {detail}" if detail else "")
        )


class ZeroVector(DelsarteError):
    """A weighted subset was identically zero."""


class OrbitClosureViolation(DelsarteError):
    """An annihilated set was not a union of Galois orbits (bad input)."""


class IncompatibleT(DelsarteError):
    """A design transfer was requested for eigenspaces that do not match."""


class TooLarge(DelsarteError):
    """An exhaustive enumeration exceeds the supported size."""


class IrrationalData(DelsarteError):
    """An LP was posed over a matrix with non-rational entries."""


class InternalAssertion(DelsarteError):
    """A conclusion guaranteed by theory failed; signals a library bug."""


class ParseError(DelsarteError):
    """A data file could not be parsed."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        where = f"line {line}: " if line else ""
        super().__init__(where + reason)


class ValidationError(DelsarteError, ValueError):
    """Parsed data or an index set failed validation (an index out of
    range, a table that is not a group, ...)."""
