"""Truncated exact power series and the paper's generating functions.

All coefficients are exact ints (or Fractions when a division is forced).
Binary operations insist on equal truncation degrees so coefficient
provenance stays auditable; nothing is ever silently re-truncated.
"""

from __future__ import annotations

from typing import Tuple

from .roots import AffineType, parse_type


class TruncSeries:
    """Power series in q truncated (inclusively) at a fixed max degree."""

    __slots__ = ("max_degree", "coeffs")

    def __init__(self, max_degree: int, coeffs=None):
        if max_degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self.max_degree = max_degree
        coeffs = [0] * (max_degree + 1) if coeffs is None else list(coeffs)
        if len(coeffs) != max_degree + 1:
            raise ValueError("coefficient list has wrong length")
        self.coeffs = coeffs

    @classmethod
    def one(cls, max_degree: int) -> "TruncSeries":
        return cls(max_degree, [1] + [0] * max_degree)

    def _check(self, other: "TruncSeries"):
        if self.max_degree != other.max_degree:
            raise ValueError("truncation degree mismatch: %d vs %d"
                             % (self.max_degree, other.max_degree))

    def __getitem__(self, d: int):
        return self.coeffs[d]

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return (self.max_degree == other.max_degree
                    and self.coeffs == other.coeffs)
        return NotImplemented

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.max_degree,
                           [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.max_degree,
                           [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        D = self.max_degree
        out = [0] * (D + 1)
        for i, x in enumerate(self.coeffs):
            if not x:
                continue
            for j in range(D + 1 - i):
                y = other.coeffs[j]
                if y:
                    out[i + j] += x * y
        return TruncSeries(D, out)

    def power(self, e: int) -> "TruncSeries":
        if e < 0:
            raise ValueError("series exponent must be >= 0")
        result = TruncSeries.one(self.max_degree)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def substitute(self, r: int) -> "TruncSeries":
        """q -> q^r: the degree-d coefficient moves to degree r*d."""
        if r < 1:
            raise ValueError("substitution power must be >= 1")
        out = [0] * (self.max_degree + 1)
        out[::r] = self.coeffs[:self.max_degree // r + 1]
        return TruncSeries(self.max_degree, out)

    def __repr__(self):
        return "TruncSeries(%d, %r)" % (self.max_degree, self.coeffs)


def _euler_product(D: int, colors) -> TruncSeries:
    """prod_n (1 - q^n)^-colors(n), each factor divided out in place."""
    c = [1] + [0] * D
    for n in range(1, D + 1):
        for _ in range(colors(n)):
            for j in range(n, D + 1):
                c[j] += c[j - n]
    return TruncSeries(D, c)


def partition_series(D: int) -> TruncSeries:
    """P(q) = prod_n (1 - q^n)^-1: number of partitions."""
    return _euler_product(D, lambda n: 1)


def divisor_series(D: int) -> TruncSeries:
    """T(q): number of divisors, by sieve."""
    tau = [0] * (D + 1)
    for i in range(1, D + 1):
        for j in range(i, D + 1, i):
            tau[j] += 1
    return TruncSeries(D, tau)


def dimension_series(t: AffineType, D: int) -> TruncSeries:
    """P(q)^k P(q^r)^(ell-k): graded dimension of the polynomial algebra,
    prod_n (1 - q^n)^-|I(n)| with |I(n)| = k + (ell - k) [r | n]."""
    return _euler_product(D, lambda n: t.k + (t.ell - t.k) * (n % t.r == 0))


def ab_series(t: AffineType, D: int) -> Tuple[TruncSeries, TruncSeries]:
    """The exponent generating functions a(q) and b(q) of the given type."""
    T = divisor_series(D)
    dim = dimension_series(t, D)
    Tr = T.substitute(t.r)
    return Tr * dim, (T - Tr) * dim


def cartan_family(p: int, spin: bool = False) -> Tuple[AffineType, int]:
    """The type and the ab_series position (0: a, 1: b) whose series is
    N(q) for weight-d p-blocks: a(q) of A_{p-1}^(1), or for spin blocks
    b(q) of A_{p-1}^(2).  The p checks are explicit: for even p,
    parse_type would accept A_{p-1}^(2) as the wrong family A_{2l-1}^(2).
    """
    if spin:
        if p < 3 or p % 2 == 0:
            raise ValueError("spin requires odd p >= 3")
        return parse_type("A%d^2" % (p - 1)), 1
    if p < 2:
        raise ValueError("p must be >= 2")
    return parse_type("A%d^1" % (p - 1)), 0


def cartan_series(p: int, D: int, spin: bool = False) -> TruncSeries:
    """N(q): Cartan exponents of weight-d blocks, T(q) P(q)^(p-1), or for
    spin superblocks (T(q) - T(q^2)) P(q)^((p-1)/2)."""
    t, which = cartan_family(p, spin)
    return ab_series(t, D)[which]
