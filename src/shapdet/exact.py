"""Exact scalar and matrix arithmetic.

Scalars are plain ``int``, ``fractions.Fraction`` or :class:`CycNumber`
(an element of Q(zeta_3)).  Rationals embed into Q(zeta_3), so the three
kinds mix freely inside matrix entries and polynomial coefficients.
No floating point anywhere.

All values are immutable, all operations referentially transparent, so
everything in this module is safe to call from concurrent code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Union

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "CycNumber"]


class InternalCheckError(RuntimeError):
    """An internally derived value failed a consistency assertion.

    Raised when a quantity that is provably integral (or provably equal to
    a table constant) comes out otherwise; it signals a transcription or
    recursion bug, not bad user input.
    """


def _power(x, e: int, one):
    """x^e for an int e >= 0, by square-and-multiply from one."""
    while e:
        if e & 1:
            one = one * x
        x, e = x * x, e >> 1
    return one


class CycNumber:
    """Element ``a + b*zeta_3`` of the cyclotomic field Q(zeta_3).

    Products are reduced with zeta^2 = -1 - zeta.  The roots of unity of
    orders 1 and 2 are rational, and roots._zeta_powers uses the ints 1 and
    -1 for them.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def zeta(cls) -> "CycNumber":
        """The distinguished primitive cube root of unity zeta_3."""
        return cls(0, 1)

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNumber(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNumber(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 z)(a2 + b2 z) with z^2 = -1 - z
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return CycNumber(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        if not self:
            raise ZeroDivisionError("division by zero in Q(zeta_3)")
        # 1/(a + b z) = (a + b z^2) / N(a + b z) with N = a^2 - a b + b^2
        n = self.a * self.a - self.a * self.b + self.b * self.b
        return CycNumber((self.a - self.b) / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _power(self, n, CycNumber(1))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, CycNumber):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __str__(self):  # a+b*z3, with a = 0 and b = +-1 written short
        if not self.b:
            return str(self.a)
        tail = {1: "z3", -1: "-z3"}.get(self.b, "%s*z3" % self.b)
        head = str(self.a) if self.a else ""
        return head + ("+" if head and tail[0] != "-" else "") + tail

    def __repr__(self):
        return "CycNumber(%s, %s)" % (self.a, self.b)


def as_integer(x: Scalar) -> int:
    """Convert an exact scalar known to be a rational integer, or raise.

    Raising :class:`InternalCheckError` here is deliberate: callers use this
    to assert integrality of derived quantities.
    """
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        raise InternalCheckError("expected an integer, got %s" % (x,))
    if isinstance(x, CycNumber):
        if x.b:
            raise InternalCheckError("expected an integer, got %s" % (x,))
        return as_integer(x.a)
    raise InternalCheckError("expected an integer, got %r" % (x,))


def _field_div(x, y):
    """Exact division valid for any mix of int/Fraction/CycNumber; an int
    when y divides an int x."""
    if isinstance(x, int) and isinstance(y, int):
        q, rem = divmod(x, y)
        return Fraction(x, y) if rem else q
    return x / y


def _exact_div(x, y):
    """Division that is known to be exact (Bareiss pivots)."""
    if isinstance(x, int) and isinstance(y, int):
        q, rem = divmod(x, y)
        if rem:
            raise InternalCheckError("inexact division %s / %s" % (x, y))
        return q
    return x / y


class ExactMatrix:
    """Dense rectangular matrix over exact scalars."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        data = [list(r) for r in rows]
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows in matrix")
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

    def is_symmetric(self) -> bool:
        return self.rows == [list(col) for col in zip(*self.rows)]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        out: List[List[Scalar]] = []
        for i in range(self.nrows):
            acc: List[Scalar] = [0] * other.ncols
            for t, x in enumerate(self.rows[i]):
                if not x:
                    continue
                brow = other.rows[t]
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + x * y
            out.append(acc)
        return ExactMatrix(out)

    def __repr__(self):
        return "ExactMatrix(%r)" % (self.rows,)


def det_exact(m: ExactMatrix) -> Scalar:
    """Exact determinant by Bareiss's fraction-free elimination on a copy.

    If every entry is an int, it never leaves the integers, with every
    division checked for a zero remainder; else the divisions are field
    divisions.  Row pivoting only; the value is independent of pivot
    choice.  A row whose multiplier a_ik is 0 only scales by pivot / prev,
    so it waits until it is needed and then catches up in one exact
    division: the skipped factors telescope to a ratio of two pivots.  Over
    ints, a_ij = a_kj = 0 is skipped and, where a_kj = 0 alone, a_ij pivot
    is divided by prev, still checked.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square %dx%d matrix"
                         % (m.nrows, m.ncols))
    a = [row[:] for row in m.rows]
    ints = all(type(x) is int for row in a for x in row)
    n, div = len(a), _exact_div if ints else _field_div
    sign = 1
    prevs: List[Scalar] = [1]  # prevs[k]: the divisor of step k
    since = [0] * n  # row i holds its entries as of step since[i]

    def catch_up(i, k):  # row i from step since[i] to step k
        if since[i] < k:
            p, q = prevs[k], prevs[since[i]]
            a[i][k:] = [div(x * p, q) if x else 0 for x in a[i][k:]]
            since[i] = k

    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:  # lazy scaling leaves zero and nonzero apart
                    a[k], a[i] = a[i], a[k]
                    since[k], since[i] = since[i], since[k]
                    sign = -sign
                    break
            else:
                return 0
        catch_up(k, k)
        row_k = a[k]
        pivot, prev = row_k[k], prevs[k]
        for i in range(k + 1, n):
            row_i = a[i]
            if not row_i[k]:
                continue
            catch_up(i, k)
            aik = row_i[k]
            if ints:  # _exact_div inlined: the hot loop of every int det
                for j in range(k + 1, n):
                    x, y = row_i[j], row_k[j]
                    if not (x or y):  # a zero pair stays zero
                        continue
                    q, rem = divmod(x * pivot - aik * y if y else x * pivot,
                                    prev)
                    if rem:
                        raise InternalCheckError("inexact division by %s" % prev)
                    row_i[j] = q
            else:
                for j in range(k + 1, n):
                    row_i[j] = div(row_i[j] * pivot - aik * row_k[j], prev)
            row_i[k] = 0
            since[i] = k + 1
        prevs.append(pivot)
    catch_up(n - 1, n - 1)
    val = a[n - 1][n - 1]
    return val if sign == 1 else -val


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse via Gauss-Jordan; raises ZeroDivisionError if singular."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square %dx%d matrix"
                         % (m.nrows, m.ncols))
    n = m.nrows
    aug = [m.rows[i][:] + [1 if i == j else 0 for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        if pv != 1:
            aug[col] = [_field_div(x, pv) for x in aug[col]]
        prow = aug[col]
        for i in range(n):
            f = aug[i][col]
            if i == col or not f:
                continue
            row = aug[i]
            for j in range(col, 2 * n):
                if prow[j]:
                    row[j] = row[j] - f * prow[j]
    return ExactMatrix([row[n:] for row in aug])
