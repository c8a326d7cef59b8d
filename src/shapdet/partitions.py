"""Partitions, determinant exponents and colored-monomial basis labels.

A partition is a tuple of weakly decreasing positive ints.  A colored
partition is a tuple of (part, color) pairs with parts weakly decreasing
and colors weakly increasing within runs of equal parts, each color i
satisfying d_i | part; these label all three bases of the polynomial
algebra at a given degree, in one global order shared with the gram
module (partition enumeration order, then color-tuple lexicographic).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb
from typing import Dict, Tuple

from .exact import InternalCheckError
from .roots import AffineType, index_set

Partition = Tuple[int, ...]
ColoredPartition = Tuple[Tuple[int, int], ...]


def _gen_runs(d: int):
    """The partitions of d, lazily and in reverse lexicographic order, as
    multiplicity runs ((n, m), ...) with n descending.  Knuth's Algorithm P
    in multiplicity form: each step needs no recursion."""
    if d < 0:
        raise ValueError("cannot partition a negative integer")
    if d == 0:
        yield ()
        return
    runs = [(d, 1)]
    while True:
        yield tuple(runs)
        ones = runs.pop()[1] if runs[-1][0] == 1 else 0
        if not runs:
            return
        n, m = runs.pop()
        if m > 1:
            runs.append((n, m - 1))
        q, rest = divmod(n + ones, n - 1)
        runs.append((n - 1, q))
        if rest:
            runs.append((rest, 1))


@lru_cache(maxsize=None)
def enumerate_partitions(d: int) -> Tuple[Partition, ...]:
    """All partitions of d in reverse lexicographic order, (d) first."""
    return tuple(tuple(n for n, m in runs for _ in range(m))
                 for runs in _gen_runs(d))


def multiplicities(lam: Partition) -> Dict[int, int]:
    """Gather equal parts: (3, 1, 1) -> {3: 1, 1: 2}."""
    return dict(Counter(lam))


def _runs(lam: Partition):
    """Multiplicity runs of a partition in part-descending order."""
    return tuple(sorted(multiplicities(lam).items(), reverse=True))


def exponents(t: AffineType, lam: Partition) -> Tuple[int, int]:
    """The determinant exponents (a_lam, b_lam) for one partition."""
    return _run_exponents(t, _runs(lam))


def _run_exponents(t: AffineType, runs) -> Tuple[int, int]:
    """exponents() of the partition with multiplicity runs ``runs``.

    a_lam multiplies binomial coefficients over all part sizes by the sum
    of r_i / ell over part sizes divisible by r; b_lam uses the sum of
    r_i / k over the remaining part sizes.  Both are provably integers,
    which is asserted rather than rounded.  An empty sum gives 0, which
    also settles the k = 0 case of the untwisted types where no part size
    ever lands in the b-branch.
    """
    prod, s_div, s_ndiv = 1, 0, 0
    for n, m in runs:
        if n % t.r == 0:
            prod *= comb(t.ell + m - 1, m)
            s_div += m
        else:
            prod *= comb(t.k + m - 1, m)
            s_ndiv += m
    a, b = prod * s_div, prod * s_ndiv  # a_lam * ell and b_lam * k
    if a % t.ell or b and b % t.k:
        raise InternalCheckError("%s_lam is not integral for %s, %s"
                                 % ("a" if a % t.ell else "b", t, runs))
    return a // t.ell, b and b // t.k


def exponent_totals(t: AffineType, d: int) -> Tuple[int, int]:
    """(a(d), b(d)): the exponent sums over all partitions of d, which
    are generated lazily and not cached, so that none of them stays alive."""
    a = b = 0
    for runs in _gen_runs(d):
        al, bl = _run_exponents(t, runs)
        a += al
        b += bl
    return a, b


def enumerate_basis(t: AffineType, d: int) -> Tuple[ColoredPartition, ...]:
    """All colored partitions of degree d in the global basis order, afresh.

    For each partition (reverse-lex order, so the part shapes never
    increase) the colorings run through the product, over part-size runs
    in descending part order, of weakly increasing color tuples drawn from
    I(part); the leftmost (largest) run varies slowest.
    """
    out = []
    for runs in _gen_runs(d):
        colorings = [combinations_with_replacement(index_set(t, n), m)
                     for n, m in runs]
        out.extend(tuple((n, c) for (n, _), cs in zip(runs, choice) for c in cs)
                   for choice in product(*colorings))
    return tuple(out)
