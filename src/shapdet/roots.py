"""Affine ADE type tables, finite root data and the twisted pairing matrices.

Each supported affine family carries its table constants (ell, k, alpha,
beta, a0) plus the finite Dynkin diagram of X_N in the numbering used for
its orbit-representative set I, the diagram automorphism mu of order r,
and the derived node data d_i = r / |mu-orbit of node i|.

The matrices A^(n) pair an orbit representative against the zeta_r-twisted
orbit sum of another; their determinants are always alpha (r | n) or
beta (r does not divide n), which the test suite checks exhaustively.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Dict, Tuple

from .exact import (CycNumber, ExactMatrix, InternalCheckError, _field_div,
                    as_integer, det_exact)

#: The built-in verification roster (one size per family plus extremes).
ROSTER = ("A1^1", "A2^1", "A4^1", "D4^1", "E6^1",
          "A5^2", "A2^2", "A4^2", "D3^2", "D5^2", "E6^2", "D4^3")


@dataclass(frozen=True)
class AffineType:
    """Parsed affine family symbol with its table constants."""

    family: str          # 'A', 'D' or 'E'
    N: int               # rank of the finite system X_N
    r: int               # order of the twist
    ell: int
    k: int
    alpha: int
    beta: int
    a0: int              # 2 exactly for A_{2l}^(2)
    epsilon: int         # omitted node of {0, ..., ell}
    I: Tuple[int, ...]   # orbit-representative node labels, ascending

    @property
    def name(self) -> str:
        return "%s%d^%d" % (self.family, self.N, self.r)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FiniteRootData:
    """Cartan data of X_N in the paper's numbering plus the twist mu."""

    nodes: Tuple[int, ...]              # node labels, ascending
    gram: ExactMatrix                   # (alpha_i' | alpha_j')', indexed like nodes
    mu: Dict[int, int]                  # diagram automorphism of order r
    orbits: Tuple[Tuple[int, ...], ...]
    d: Dict[int, int]                   # node -> d_i in {1, r}
    c: Dict[int, int]                   # node -> c_i in {1, 2}


_TYPE_RE = re.compile(r"^\s*([ADE])\s*(\d+)\s*\^\s*(\d+)\s*$", re.IGNORECASE)


def parse_type(s: str) -> AffineType:
    """Parse a type string like "A5^1", "A4^2", "D5^2", "E6^2" or "D4^3".

    Raises ValueError for syntax errors and for (family, N, r) outside the
    admitted ranges of the eight affine ADE families.
    """
    m = _TYPE_RE.match(s)
    if not m:
        raise ValueError("cannot parse affine type %r (expected e.g. 'A5^2')" % (s,))
    family = m.group(1).upper()
    N = int(m.group(2))
    r = int(m.group(3))

    def bad():
        raise ValueError("unsupported affine type %s%d^%d" % (family, N, r))

    a0 = 1
    epsilon = 0
    if r == 1:
        if family == "A" and N >= 1:
            ell, k, alpha, beta = N, 0, N + 1, 1
        elif family == "D" and N >= 4:
            ell, k, alpha, beta = N, 0, 4, 1
        elif family == "E" and N in (6, 7, 8):
            ell, k, alpha, beta = N, 0, 9 - N, 1
        else:
            bad()
    elif r == 2:
        if family == "A" and N % 2 == 1 and N >= 5:
            ell = (N + 1) // 2
            k, alpha, beta = ell - 1, 2, ell
        elif family == "A" and N % 2 == 0 and N >= 2:
            ell = N // 2
            k, alpha, beta = ell, 1, 2 * ell + 1
            a0 = 2
            epsilon = ell
        elif family == "D" and N >= 3:
            ell = N - 1
            k, alpha, beta = 1, 2, 2
        elif family == "E" and N == 6:
            ell, k, alpha, beta = 4, 2, 1, 3
        else:
            bad()
    elif r == 3:
        if family == "D" and N == 4:
            ell, k, alpha, beta = 2, 1, 1, 2
        else:
            bad()
    else:
        bad()
    I = tuple(i for i in range(ell + 1) if i != epsilon)
    return AffineType(family, N, r, ell, k, alpha, beta, a0, epsilon, I)


def _chain_edges(labels):
    return [(labels[t], labels[t + 1]) for t in range(len(labels) - 1)]


def _diagram(t: AffineType):
    """Node labels, edge list and mu for X_N in the paper's numbering."""
    family, N, r, ell = t.family, t.N, t.r, t.ell
    if r == 1:
        if family == "A":
            nodes = list(range(1, N + 1))
            edges = _chain_edges(nodes)
        elif family == "D":
            nodes = list(range(1, N + 1))
            edges = _chain_edges(nodes[:N - 2]) + [(N - 2, N - 1), (N - 2, N)]
        else:  # E6/E7/E8, Kac numbering: chain 1-3-4-...-N with 2 hung on 4
            nodes = list(range(1, N + 1))
            edges = _chain_edges([1] + list(range(3, N + 1))) + [(2, 4)]
        mu = {i: i for i in nodes}
    elif family == "A" and N % 2 == 1:  # A_{2l-1}^(2)
        nodes = list(range(1, N + 1))
        edges = _chain_edges(nodes)
        mu = {i: N + 1 - i for i in nodes}
    elif family == "A":  # A_{2l}^(2), paper numbering
        chain = list(range(ell - 1, -1, -1)) + list(range(ell + 1, 2 * ell + 1))
        nodes = sorted(chain)
        edges = _chain_edges(chain)
        mu = {}
        for j in range(ell):
            mu[j] = ell + 1 + j
            mu[ell + 1 + j] = j
    elif family == "D" and r == 2:  # D_{l+1}^(2); fork nodes ell, ell+1 on ell-1
        # For N = 3 the general rule degenerates to the paper-admitted D3
        # diagram: central node 1, fork nodes 2 and 3.
        nodes = list(range(1, N + 1))
        edges = _chain_edges(nodes[:N - 2]) + [(N - 2, N - 1), (N - 2, N)]
        mu = {i: i for i in nodes}
        mu[N - 1], mu[N] = N, N - 1
    elif family == "E":  # E6^(2), paper numbering: 1-2-3-5-6 chain, 4 on 3
        nodes = list(range(1, 7))
        edges = _chain_edges([1, 2, 3, 5, 6]) + [(3, 4)]
        mu = {1: 6, 6: 1, 2: 5, 5: 2, 3: 3, 4: 4}
    else:  # D4^(3): node 2 central, mu cycles the outer nodes
        nodes = [1, 2, 3, 4]
        edges = [(1, 2), (3, 2), (4, 2)]
        mu = {1: 3, 3: 4, 4: 1, 2: 2}
    return tuple(nodes), edges, mu


def _orbits(nodes, mu):
    orbits = []
    for i in nodes:  # each orbit once, from its least node
        orbit, j = [i], mu[i]
        while j != i:
            orbit.append(j)
            j = mu[j]
        if i == min(orbit):
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


@lru_cache(maxsize=None)
def finite_root_data(t: AffineType) -> FiniteRootData:
    """Build and validate the finite root data of X_N for the given type."""
    nodes, edges, mu = _diagram(t)
    adj = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    pos = {i: p for p, i in enumerate(nodes)}
    n = len(nodes)
    gram = ExactMatrix([[2 if i == j else (-1 if (i, j) in adj else 0)
                         for j in nodes] for i in nodes])
    orbits = _orbits(nodes, mu)
    d = {i: t.r // len(orbit) for orbit in orbits for i in orbit}
    c = {i: 2 if (t.a0 == 2 and i == 0) else 1 for i in nodes}
    data = FiniteRootData(nodes, gram, mu, orbits, d, c)

    # Transcription self-checks; failures mean the tables above are wrong.
    if len(nodes) != t.N:
        raise InternalCheckError("%s: expected %d nodes, built %d" % (t, t.N, n))
    for i in nodes:
        for j in nodes:
            if gram.rows[pos[mu[i]]][pos[mu[j]]] != gram.rows[pos[i]][pos[j]]:
                raise InternalCheckError("%s: mu is not a gram isometry" % (t,))
    order = lcm(*map(len, orbits))
    if order != t.r:
        raise InternalCheckError("%s: mu has order %d, expected %d" % (t, order, t.r))
    if any(d[i] not in (1, t.r) for i in nodes):
        raise InternalCheckError("%s: d_i outside {1, r}" % (t,))
    if as_integer(det_exact(gram)) != t.alpha * t.beta ** (t.r - 1):
        raise InternalCheckError("%s: det gram != alpha * beta^(r-1)" % (t,))
    if t.r > 1 and sum(1 for i in t.I if d[i] == 1) != t.k:
        raise InternalCheckError("%s: #{i in I : d_i = 1} != k" % (t,))
    if set(t.I) - set(nodes):
        raise InternalCheckError("%s: I contains unknown nodes" % (t,))
    return data


def index_set(t: AffineType, n: int) -> Tuple[int, ...]:
    """I(n) = {i in I : d_i | n}, ascending."""
    d = finite_root_data(t).d
    return tuple(i for i in t.I if n % d[i] == 0)


def _zeta_powers(t: AffineType):
    # zeta_r = omega^{a0}; every omega exponent in a^(n)_{ij} is a multiple
    # of a0, so powers of zeta_r are all we ever need.
    if t.r == 1:
        return [1]
    if t.r == 2:
        return [1, -1]
    z = CycNumber.zeta()
    return [CycNumber(1), z, z * z]


def a_matrix(t: AffineType, n: int,
             gram: ExactMatrix | None = None) -> ExactMatrix:
    """The matrix A^(n) over I(n) = index_set(t, n), with entries
    (1/d_i) (alpha_i' | sum_k zeta^{nk} mu^k(alpha_j'))'.

    ``gram`` replaces the Cartan form (alpha_i' | alpha_j')', indexed like
    the nodes of X_N; the type alone fixes mu, d_i and I(n).  An entry that
    is an integer in value is an int, whatever the twist; any other (only a
    replaced gram gives one) stays a CycNumber for r = 3, else a Fraction.
    Every built-in A^(n) is integral.  This is the only builder of A^(n);
    FormEngine caches its nonzero rows per n.
    """
    if n < 1:
        raise ValueError("A^(n) needs n >= 1")
    data = finite_root_data(t)
    g = (data.gram if gram is None else gram).rows
    pos = {i: p for p, i in enumerate(data.nodes)}
    idx = index_set(t, n)
    zp = _zeta_powers(t)
    mu_pow = [{i: i for i in data.nodes}]
    for _ in range(t.r - 1):
        mu_pow.append({i: data.mu[mu_pow[-1][i]] for i in data.nodes})
    rows = []
    for i in idx:
        row = []
        for j in idx:
            total = 0
            for kk in range(t.r):
                v = g[pos[i]][pos[mu_pow[kk][j]]]
                if v:
                    total = total + zp[(n * kk) % t.r] * v
            total = _field_div(total, data.d[i])
            try:
                total = as_integer(total)
            except InternalCheckError:
                pass  # not an integer in value: the field value stays
            row.append(total)
        rows.append(row)
    return ExactMatrix(rows)


def det_a_expected(t: AffineType, n: int) -> int:
    """The value det A^(n) must take: alpha if r | n, else beta.

    n = 0 is read through the periodicity A^(0) = A^(r), which r divides.
    """
    return t.alpha if n % t.r == 0 else t.beta


def det_a(t: AffineType, n: int) -> int:
    """det A^(n), asserted to equal det_a_expected(t, n)."""
    if n < 0:
        raise ValueError("A^(n) index must be >= 0")
    value = as_integer(det_exact(a_matrix(t, n if n >= 1 else t.r)))
    expected = det_a_expected(t, n)
    if value != expected:
        raise InternalCheckError(
            "det A^(%d) for %s is %d, expected %d" % (n, t, value, expected))
    return value
