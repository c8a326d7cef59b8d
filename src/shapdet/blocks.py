"""Symmetric-group block explorer: p-cores, block enumeration and Cartan
determinants of weight-d blocks (plain and spin).

The Cartan determinants are the paper's corollary of its Shapovalov
determinant: a weight-d p-block has Cartan determinant p^N(d) with N(d) =
a(d) of A_{p-1}^(1), and a spin block of the double cover has N(d) = b(d)
of A_{p-1}^(2) (p odd).  Both are read from the exponent sums and series
of those types; p need not be prime (Hecke algebras).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .exact import InternalCheckError
from .partitions import Partition, enumerate_partitions, exponent_totals
from .series import ab_series, cartan_family


def p_core(lam: Partition, p: int) -> Tuple[Partition, int]:
    """The p-core and p-weight of a partition, by abacus bead sliding.

    Uses a beta-set of fixed length max(#parts, |lam|); on each runner the
    beads drop to the lowest free positions, which removes all rim p-hooks
    at once.  The result is independent of removal order (classical), and
    the randomized single-step slides in the tests confirm it.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    n = sum(lam)
    length = max(len(lam), n)
    if length == 0:
        return (), 0
    padded = list(lam) + [0] * (length - len(lam))
    beta = [padded[i] + (length - 1 - i) for i in range(length)]
    new_beta = []
    for c in range(p):
        beads = sum(1 for b in beta if b % p == c)
        new_beta.extend(c + p * j for j in range(beads))
    new_beta.sort(reverse=True)
    parts = [new_beta[i] - (length - 1 - i) for i in range(length)]
    core = tuple(x for x in parts if x > 0)
    removed = n - sum(core)
    if removed % p:
        raise InternalCheckError("bead sliding removed a non-multiple of p")
    return core, removed // p


@dataclass(frozen=True)
class BlockRecord:
    """One p-block of S_n: its core, weight and Cartan determinant."""

    n: int
    p: int
    core: Partition
    weight: int
    member_count: int
    cartan_exponent: int
    cartan_det: int


def cartan_exponent(p: int, d: int, spin: bool = False) -> int:
    """N(d): the Cartan matrix of a weight-d block has determinant p^N(d).

    Reads a(d) of A_{p-1}^(1), or b(d) of A_{p-1}^(2) for spin, from the
    exponent sums and cross-checks it against the coefficient of q^d in
    the matching generating function.
    """
    t, which = cartan_family(p, spin)
    total = exponent_totals(t, d)[which]
    if total != ab_series(t, d)[which][d]:
        raise InternalCheckError(
            "closed-form Cartan exponent disagrees with the series at "
            "p=%d d=%d spin=%s" % (p, d, spin))
    return total


def enumerate_blocks(n: int, p: int) -> List[BlockRecord]:
    """Group the partitions of n into p-blocks, one record per p-core.

    Records appear in order of first appearance of their core among the
    partitions of n (reverse-lex), so the output is deterministic no
    matter how the grouping is scheduled.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    groups: dict = {}  # core: [weight, count], in order of first appearance
    for lam in enumerate_partitions(n):
        core, weight = p_core(lam, p)
        if core not in groups:
            groups[core] = [weight, 0]
        elif groups[core][0] != weight:
            raise InternalCheckError("same core, different weights")
        groups[core][1] += 1
    out = []
    for core, (weight, count) in groups.items():
        exponent = cartan_exponent(p, weight)
        out.append(BlockRecord(n, p, core, weight, count, exponent,
                               p ** exponent))
    return out
