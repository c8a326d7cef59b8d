"""The polynomial algebra in the y-generators and its two contravariant forms.

Monomials are colored partitions (shared with the partitions module), so
one global basis order serves the x-, y- and z-bases alike.  The S-form
is evaluated by the operator recursion

    (y_n^(i) * rest, f) = (d_i / n) * sum_j c_{ij} (rest, df/dy_n^(j))

with c = A^(n).  The K-form is the same recursion with c = the identity,
so it is diagonal on the y-monomials: (y, y)_K = prod_f m_f! / w(y) over
the distinct factors f of y, each m_f times in y.  The z-generators use
the column-normalized coefficients a^(n)_{ij} d_i / d_j, i.e.
D A^(n) D^-1, which leaves every block determinant unchanged; with
those, (y_c, f)_S = (z_c, f)_K holds on the nose and the Gram matrix of
the S-form factors exactly as M = P Q P^-1 N through the transition
matrices to the y-basis: row a of P (of Q) is the y-expansion of the x-
(z-) monomial basis[a], so enumerate_basis alone owns the order.

Both forms pair y_n^(i) only with y_n^(j), so the y-Gram matrices and Q are
block-diagonal by the part-size shape lambda, each block the Kronecker
product of pure blocks on the runs n^m, which FormEngine builds as level
tables of sparse rows {column: entry}: pure_s of S'(y, z) = (y, z) w(y),
w(y) = prod n / d_i over the factors of y (ints wherever A^(n) is, as for
every built-in type), and pure_q, the one source of Q.  The x-expansions are
int coefficients over prod (n / d_i)!, which only the printing paths read,
as the basis: verify checks phi integral once per FormEngine on the rows of
A^(1..r), takes its runs and their exponents from dimension_series, and
certifies the rest on the pure runs alone, each once per FormEngine, det S'
by elimination on primitive rows (_pure_det).  The all-pairs memo recursion,
the transport sum over phi, the walks over the x-generators for phi and over
the basis for the runs, the x-rows for P, the z-expansions by poly_mul
products, the walk over the lambda-blocks, Bareiss on the full M (det_exact)
and P Q P^-1 N are the tests' oracles (tests/oracles.py).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from math import factorial, gcd, prod
from typing import Dict, List, Optional, Tuple

from .exact import (ExactMatrix, InternalCheckError, _exact_div, _field_div,
                    as_integer, det_exact)
from .partitions import (ColoredPartition, enumerate_basis,
                         multiplicities, _gen_runs, _runs)
from .roots import AffineType, a_matrix, finite_root_data, index_set
from .series import ab_series, dimension_series

Monomial = ColoredPartition
BPolynomial = Dict[Monomial, object]


def poly_mul(p1: BPolynomial, p2: BPolynomial) -> BPolynomial:
    """p1 p2, keeping any term that cancels (none in the positive x-rows)."""
    out: BPolynomial = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            # Canonical unless m2 starts before m1 ends in the order (-n, i).
            key = m1 + m2
            if m1 and m2 and (m2[0][0], -m2[0][1]) > (m1[-1][0], -m1[-1][1]):
                key = tuple(sorted(key, key=lambda f: (-f[0], f[1])))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _x_generator(t: AffineType, n: int, i: int) -> Tuple[BPolynomial, int]:
    """({y: int}, m!) with m = n / d_i, built afresh: x_n^(i) is the sum over
    partitions (1^k1 2^k2 ...) of m of prod_j (y_{j d_i}^(i))^{k_j} / k_j!,
    and each m! / prod_j k_j! is an int."""
    di = finite_root_data(t).d[i]
    if n % di:
        raise ValueError("color %d requires parts divisible by %d" % (i, di))
    m = n // di
    return {sum((((k * di, i),) * r for k, r in runs), ()): factorial(m)
            // prod(factorial(r) for _, r in runs)
            for runs in _gen_runs(m)}, factorial(m)


def _x_rows(t: AffineType, monos):
    """Yield (coefficients, scale) for each monomial of monos, in order: its
    x_in_y expansion as int coefficients over scale, the product of its
    generators in order, each built once per call.  Only the printing paths
    read the x-rows (x_in_y, transition_matrices, gram_matrices)."""
    gens = {f: _x_generator(t, *f) for f in {f for m in monos for f in m}}
    for mono in monos:
        poly, scale = {(): 1}, 1
        for f in mono:
            poly, scale = poly_mul(poly, gens[f][0]), scale * gens[f][1]
        yield poly, scale


def x_in_y(t: AffineType, item) -> BPolynomial:
    """The y-expansion, with Fraction coefficients, of a single
    x-generator (n, i) or a whole colored partition."""
    item = (item,) if item and isinstance(item[0], int) else tuple(item)
    (poly, scale), = _x_rows(t, [item])
    return {y: Fraction(c, scale) for y, c in poly.items()}


class FormEngine:
    """The A^(n) row tables, the S-form level tables and the run facts of
    one type, each built once, so one engine serves every degree.

    pure_s (the pure blocks of S', kept) and pure_q (of Q, streamed) walk
    one row table per part size n, the nonzero entries of A^(n) from
    roots.a_matrix, level by level in sparse rows (_level); phi_integral is
    the verdict of _phi_integral on those of n <= r, and run certifies runs.
    ``gram`` may replace the Cartan form that A^(n) is built from (the
    CLI's --root-data hook); d_i, mu and I(n) always come from the type."""

    def __init__(self, t: AffineType, gram: Optional[ExactMatrix] = None):
        self.type, self.gram, self._facts = t, gram, {}
        self._d = finite_root_data(t).d
        self._rows: Dict[int, Dict[int, Tuple[Tuple[int, object], ...]]] = {}
        self._levels: Dict[int, list] = {}  # n: [(index, S' rows, up)]
        self.phi_integral = _phi_integral(self)

    def _a_rows(self, n: int) -> Dict[int, Tuple[Tuple[int, object], ...]]:
        """{i: ((j, a^(n)_ij), ...)}: the nonzero entries of A^(n) by row,
        keyed by I(n) ascending."""
        if n not in self._rows:
            idx, am = index_set(self.type, n), a_matrix(self.type, n, self.gram)
            self._rows[n] = {i: tuple((j, v) for j, v in zip(idx, row) if v)
                             for i, row in zip(idx, am.rows)}
        return self._rows[n]

    def pure_s(self, n: int, m: int):
        """({y: row}, S'_(n^m)): the pure block of the run n^m, sparse rows
        on the weakly increasing color tuples y of I(n), in basis order.
        Level k of n is built once from level k - 1 by the S-recursion
        (_level), S'(y, z) = sum_j a_ij mult_j(z) S'(y[1:], z - e_j), and
        keeps its column map up[c][j] = (column, mult_j) of c + e_j."""
        levels = self._levels.setdefault(n, [({(): 0}, [{0: 1}], None)])
        rows = self._a_rows(n)
        while len(levels) <= m:
            index, prev, _ = levels[-1]
            at = {tuple((n, c) for c in cs): r for r, cs in enumerate(
                combinations_with_replacement(rows, len(levels)))}
            up = [{j: (at[tuple(sorted(c + ((n, j),)))], c.count((n, j)) + 1)
                   for j in rows} for c in index]
            levels.append((at, [*_level(index, prev, at, up, rows, True)], up))
        return levels[m][:2]

    def pure_q(self, n: int, m: int):
        """Q_(n^m), sparse as pure_s, on its index and column maps, built
        bottom-up (_level) and kept by no one: level m is yielded row by row.
        Row y of level k is row y[1:] of level k - 1 times z_(y[0]), where
        z_n^(i) is sum_j a^(n)_ij (d_i / d_j) y_n^(j) (D A^(n) D^-1)."""
        self.pure_s(n, m)  # the index and column map of every level up to m
        levels, d, table = self._levels[n], self._d, [{0: 1}]
        z = {i: [(j, _field_div(v * d[i], d[j])) for j, v in row]
             for i, row in self._a_rows(n).items()}
        for (index, _, _), (at, _, up) in zip(levels[:m], levels[1:m + 1]):
            table = _level(index, list(table), at, up, z, False)
        return table

    def run(self, n: int, m: int):
        """(bad, M, N) of the run n^m, once, on the rows of S' and of pure_q
        as they stream, with no H = S' W, transpose or dense row built: bad
        is the first (y, z) in row-major order with H[y][z] = S'[y][z] w(z)
        != w(y) Q[y][z] K'(z, z) or, if z < y, != H[z][y], else None; M and
        N are _factored _pure_det(S') / W and prod K'(y, y) / W, W = prod w(y)
        over the block, and M is None unless H is symmetric."""
        if (n, m) not in self._facts:
            at, S = self.pure_s(n, m)
            ws, ks = [self.weight(y) for y in at], [_k_prime(y) for y in at]
            ys, bad = list(at), None  # asym: (r, c < r) with H[r][c] off
            asym = {(max(r, c), min(r, c)) for r, row in enumerate(S) for c, v
                    in row.items() if v * ws[c] != S[c].get(r, 0) * ws[r]}
            for r, (s_row, q_row) in enumerate(zip(S, self.pure_q(n, m))):
                off, wr = [c for a, c in asym if a == r], ws[r]
                if off or len(q_row) != len(s_row) or any(  # no zeros stored
                        s_row.get(c, 0) * ws[c] != wr * q * ks[c]
                        for c, q in q_row.items()):
                    bad = ys[r], ys[min(off + [c for c in s_row.keys() | q_row
                                               if s_row.get(c, 0) * ws[c] !=
                                               wr * q_row.get(c, 0) * ks[c]])]
                    break
            # the primes of w, K' and, on the type's form, of det S'
            top = max(n * m, self.type.alpha, self.type.beta)
            det = None if asym else _pure_det(S)
            self._facts[n, m] = (bad, None if det is None else _factored(
                [det], top, ws), _factored(ks, top, ws))
        return self._facts[n, m]

    def weight(self, mono: Monomial) -> int:
        """w(mono) = prod n / d_i over the factors (n, i) of mono."""
        return prod(n // self._d[i] for n, i in mono)


def _level(index, prev, at, up, gens, derive: bool):
    """Yield the sparse rows of level at from the level below, (index, prev):
    T(y, z) = sum_j g_ij f_j(z) T(y[1:], z - e_j) over the nonzero g_ij of
    gens[i], i the color of y[0], from each stored c = z - e_j of row y[1:]
    to up[c][j] = (z's column, mult_j(z)); f_j = mult_j if derive, else 1."""
    for y in at:
        out, g_row = {}, gens[y[0][1]]
        for c, v in prev[index[y[1:]]].items():
            u = up[c]
            for j, g in g_row:
                col, f = u[j]
                out[col] = out.get(col, 0) + g * (f * v if derive else v)
        yield {c: v for c, v in out.items() if v}


def _kron_row(engine: FormEngine, y: Monomial, table) -> list:
    """[(z, v)]: the nonzero entries of row y of the Kronecker product over
    the runs n^m of y, largest part slowest as in the basis order, of the
    sparse pure blocks table(n, m) on pure_s's index (of S' or of Q)."""
    out = [((), 1)]
    for n, run in groupby(y, key=lambda f: f[0]):
        at = engine.pure_s(n, len(run := tuple(run)))[0]
        row = table(n, len(run))[at[run]]
        out = [(z + u, v * row[c]) for z, v in out for u, c in at.items()
               if c in row]
    return out


def transition_matrices(t: AffineType, d: int,
                        engine: Optional[FormEngine] = None
                        ) -> Tuple[ExactMatrix, ExactMatrix]:
    """The x-to-y matrix P and the block-diagonal z-to-y matrix Q at degree d.

    Row a of P is x_in_y(basis[a]) and row a of Q is the z-expansion of
    basis[a], the Kronecker product of its runs' rows of engine.pure_q, both
    in the global basis order.  ``engine`` supplies the z-coefficients (and
    any replaced gram); a fresh one on the built-in gram by default.
    """
    engine, basis = engine or FormEngine(t), enumerate_basis(t, d)
    index = {mono: pos for pos, mono in enumerate(basis)}
    P, Q = ([[0] * len(basis) for _ in basis] for _ in "PQ")
    q_table = lru_cache(maxsize=None)(lambda n, m: [*engine.pure_q(n, m)])
    for a, (x, scale) in enumerate(_x_rows(t, basis)):
        for target, coeff in x.items():
            P[a][index[target]] = Fraction(coeff, scale)
        for target, coeff in _kron_row(engine, basis[a], q_table):
            Q[a][index[target]] = coeff
    return ExactMatrix(P), ExactMatrix(Q)


def _k_prime(y: Monomial) -> int:
    """K'(y, y) = prod_f m_f! over the distinct factors f of y, each m_f times
    in y: the diagonal of K'_y = W K_y, which is 0 off it."""
    return prod(map(factorial, multiplicities(y).values()))


def gram_matrices(t: AffineType, d: int, engine: Optional[FormEngine] = None
                  ) -> Tuple[ExactMatrix, ExactMatrix]:
    """Gram matrices (M, N) of the S- and K-forms on the x-basis at degree d,
    dense, row a being its mirrored column a and then its entries b >= a:
    row a of P G_y (of P K_y) is contracted first, then paired with every
    x_b, b >= a.  ``engine`` is as for transition_matrices.  A non-integer
    entry raises InternalCheckError at once, since it can only come from a
    recursion or root-data bug.
    """
    engine, basis = engine or FormEngine(t), enumerate_basis(t, d)
    w = {y: engine.weight(y) for y in basis}
    k_values = {y: _k_prime(y) for y in basis}
    # Contract over the integers, as M = (P W^-1) S'_y P^T and N likewise:
    # row b of P is the int vector p_rows[b] over scale[b], and w(y)
    # divides every coefficient of y in it.
    p_rows, scale = zip(*_x_rows(t, basis))
    g_rows = {y: _kron_row(engine, y, lambda n, m: engine.pure_s(n, m)[1])
              for y in basis}  # y: its nonzero S'(y, z) (verify's proof)
    columns: Dict[Monomial, List[Tuple[int, int]]] = {}  # P by column
    for b, p_row in enumerate(p_rows):
        for z, cb in p_row.items():
            columns.setdefault(z, []).append((b, cb))
    size, M, N = len(basis), [], []
    for a in range(size):
        hs: BPolynomial = {}  # row a of P G_y, times scale[a]
        hk: BPolynomial = {}  # row a of P K_y, times scale[a]
        for y, ca in p_rows[a].items():
            ca = _exact_div(ca, w[y])
            for z, v in g_rows[y]:
                hs[z] = hs.get(z, 0) + ca * v
            hk[y] = ca * k_values[y]
        s_row = [0] * size  # row a of P G_y P^T, columns b >= a
        k_row = [0] * size  # row a of P K_y P^T, columns b >= a
        for h_row, out in ((hs, s_row), (hk, k_row)):
            for z, h in h_row.items():
                col = columns[z]  # ascending in b: start at the first b >= a
                for b, cb in col[bisect_left(col, (a,)):]:
                    out[b] = out[b] + h * cb
        for b in range(a, size):
            if s_row[b] or k_row[b]:
                den = scale[a] * scale[b]
                try:
                    s_row[b] = as_integer(_field_div(s_row[b], den))
                    k_row[b] = as_integer(_field_div(k_row[b], den))
                except InternalCheckError as exc:
                    raise InternalCheckError(
                        "non-integer Gram entry at %s degree %d (%s, %s): %s"
                        % (t, d, basis[a], basis[b], exc)) from exc
        M.append([row[a] for row in M] + s_row[a:])
        N.append([row[a] for row in N] + k_row[a:])
    return ExactMatrix(M), ExactMatrix(N)


def _phi_integral(engine: FormEngine) -> bool:
    """Whether every phi_ij(n) is an int, by a test on A^(1..r) alone that is
    sufficient, not exact.  phi_ij = exp(sum_k a_k s^k / k) with a_k = d_i
    a^(k)_ij, or 0 unless i, j in I(k) (verify), and a_k has period r in k:
    where a_k = a_1 for every k that r does not divide, phi_ij = (1 - s)^-a_1
    (1 - s^r)^-((a_r - a_1) / r), with int coefficients when a_1 and
    (a_r - a_1) / r are ints."""
    t, d = engine.type, engine._d
    for i, j in product(t.I, repeat=2):
        a = [d[i] * dict(engine._a_rows(k).get(i, ())).get(j, 0)
             for k in range(1, t.r + 1)]
        if any(type(v) is not int for v in a) or a[:-1] != a[:1] * (
                t.r - 1) or (a[-1] - a[0]) % t.r:
            return False
    return True


def _factored(values, top: int, over=()) -> Counter:
    """{base: power} with prod(values) / prod(over) = prod base^power: each
    int other than 0 rid of the divisors 2..top in turn, so of each prime up
    to top, and its rest a base; anything else a base as it is."""
    out, tally = Counter(), Counter(values)
    tally.subtract(over)
    for v, e in tally.items():
        for p in range(2, top + 1) if type(v) is int and v else ():
            while v % p == 0:
                v, out[p] = v // p, out[p] + e
        out[v] += e
    return out


def _pure_det(S):
    """det S of the sparse rows S, as pure_s keeps them; on an int S by
    fraction-free elimination on primitive rows, one dict copy per row: at
    pivot a_kk, each row i with a_ik != 0 becomes (u row_i - v row_k) / c,
    g = gcd(a_kk, a_ik) signed so that u = a_kk / g > 0, v = a_ik / g and c
    the new row's content, so det S = sign prod a_kk prod c / prod u, a
    checked division.  Bareiss (det_exact) carries leading minors, 332 and
    956 bits on E6 (1^4) and (1^5), where no primitive row exceeds 15 and
    19 bits: the rational LU of S'_(n^m) has symmetric powers of A^(n)'s
    small LU factors for factors, sparser than S' (E8 (1^6): 38 760 nonzeros
    in the pivot rows, 212 738 in S').  Bareiss is faster on a dense M, and
    det_exact takes a non-int S (only a replaced gram gives one)."""
    if not all(type(v) is int for row in S for v in row.values()):
        return det_exact(ExactMatrix([[row.get(j, 0) for j in range(len(S))]
                                      for row in S]))
    sign, num, den = 1, 1, 1
    rows = [dict(row) for row in S]
    for k in range(len(S)):
        i = next((i for i, row in enumerate(rows) if row.get(k)), None)
        if i is None:  # a zero column
            return 0
        sign *= (-1) ** i  # row i moves up past i rows
        top = {j: y for j, y in rows.pop(i).items() if y}  # drop cancelled
        p = top.pop(k)
        num *= p
        for row in rows:
            a = row.pop(k, 0)
            if a:
                g = gcd(p, a) if p > 0 else -gcd(p, a)
                u, v = p // g, a // g
                if u > 1:  # in place: a new dict per row costs 10-25 %
                    for j in row:
                        row[j] *= u
                for j, y in top.items():
                    row[j] = row.get(j, 0) - v * y
                c = gcd(*row.values())
                if c > 1:  # else the row is primitive as it stands
                    for j in row:
                        row[j] //= c
                num, den = num * c, den * u
    return _exact_div(sign * num, den)


def _basis_runs(t: AffineType, d: int, dims: List[int]) -> dict:
    """{n^m: (e_(n^m), lambda)} over the runs of the degree-d basis, in the
    order they first occur along it, from the coefficients dims of
    dimension_series(t, d): e_(n^m) = [q^(d - nm)] dims (1 - q^n)^|I(n)|,
    the sum of dim lambda / dim n^m over the lambdas holding n^m, and lambda
    the first of them, n^m merged with the reverse-lexicographically first
    partition of d - nm with no part n, (d - nm) or (n - 1, 1), as every
    part size has a color (I(n) holds those with d_i = 1)."""
    runs = {}
    for n in range(d, 0, -1):  # runs sharing a lambda stay in part order
        e = dims[d::-n]  # e[m] = [q^(d - nm)], times (1 - q^n) in place
        for _ in index_set(t, n):
            for m in range(len(e) - 1):
                e[m] -= e[m + 1]
        for m in (m for m in range(1, len(e)) if e[m]):
            s = d - n * m
            rest = (n - 1, 1) if s == n else (s,) * (s > 0)
            runs[n, m] = e[m], tuple(sorted((n,) * m + rest, reverse=True))
    return dict(sorted(runs.items(), key=lambda r: r[1][1], reverse=True))


@dataclass
class GramReport:
    """Everything the degree-d verification produced, plus the verdicts; it
    keeps no basis, M, N, P or Q, which only the printing paths build."""

    type: AffineType
    d: int
    basis_size: int
    predicted_a: int
    predicted_b: int
    predicted_det: int
    det_M: Optional[int] = None
    det_N: Optional[int] = None
    identity_ok: bool = False
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        t, a, b = self.type, self.predicted_a, self.predicted_b
        return {"type": t.name, "d": self.d, "basis_size": self.basis_size,
                "predicted": {"a": a, "b": b, "alpha": t.alpha, "beta": t.beta,
                              "determinant": self.predicted_det,
                              "factored": "%d^%d * %d^%d" % (t.alpha, a,
                                                             t.beta, b)},
                "det_M": self.det_M, "det_N": self.det_N,
                "identity_ok": self.identity_ok, "pass": self.ok,
                "failures": list(self.failures)}


def verify(t: AffineType, d: int,
           engine: Optional[FormEngine] = None) -> GramReport:
    """Run the full degree-d verification and report every check's outcome.

    P is unitriangular when (a) every generator x_n^(i), n <= d, is y_n^(i)
    plus terms of at least two parts, all of color i, divisible by d_i and
    summing to n.  (a) holds as x_n^(i) is [s^n] of exp(sum_k y_(k d_i)^(i)
    s^(k d_i)): y_n^(i) comes from the exponent alone, and every other term
    has two or more factors; it is a property of _x_generator, which only
    the printing paths call.  A term of x_lambda = prod_k x_(n_k)^(i_k)
    picks one term per factor: the leading ones give y_lambda with
    coefficient 1, any other pick splits a part and so strictly refines
    lambda's shape.  So P is unitriangular along any linear extension of
    refinement, det P = 1 and M = P Q P^-1 N holds in every order.  (b),
    that the part shapes never increase along enumerate_basis, makes the
    printing paths' P upper unitriangular; verify reads no basis and does
    not need it.  dim, the runs n^m and their e_run come from
    dimension_series (_basis_runs), and a(d), b(d) from ab_series.

    M and N are integral once every phi_ij(n) = (x_n^(i), x_n^(j))_S is an
    int, as _phi_integral finds once per FormEngine (its phi_integral), with
    no degree, from the closed form of that exp series on A^(1..r) alone.
    The x-basis is group-like, and for any A^(n), symmetric or not, the
    adjoint of multiplication by y_n^(i) is the derivation (d_i / n) sum_j
    a^(n)_ij d/dy_n^(j).  Moving the left factors across one at a time
    makes every entry of M a transportation sum,
    (x_(n_1)^(i_1) ... x_(n_k)^(i_k), x_(m_1)^(j_1) ... x_(m_l)^(j_l)) =
    sum_C prod_(p,q) phi_(i_p j_q)(c_pq) over the non-negative integer
    matrices C with row sums n_p and column sums m_q, phi(0) = 1.  N is the
    same sum with the identity for A^(n), whose phi^K_ij(n) = [i = j]
    [d_i | n] are ints, so N needs no check.  The test is sufficient, not
    exact: where it fails (only on a replaced gram), gram_matrices contracts
    M and N, to pass or name the first non-integer entry.  This certifies
    the Z-form, not the theorem.  M mirrors the
    upper triangle of P G_y P^T and N = P K_y P^T, so M = P Q P^-1 N,
    det M = det G_y and det N = det K_y when G_y = Q K_y = G_y^T, i.e.
    when H = S'_y W equals W Q K'_y and is symmetric.  w and K' are
    products over the runs n^m of lambda, and a z-generator of part size n
    expands only in the y_n^(j), so H_lambda and (W Q K')_lambda are the
    Kronecker products of their runs' (FormEngine.run).  Hence
    det M = prod (det S'_run / W_run)^e_run, det N = prod (K'_run /
    W_run)^e_run, e_run = sum of dim lambda / dim run over the lambdas
    holding the run, each ratio tallied in primes once per run.  A failing
    run fails each lambda whose other runs have H != 0.  The witness is the
    first failing run in the order the runs first occur along the basis, at
    its first failing (y, z), in the first lambda holding it, the other runs
    at their first monomials.  No basis, lambda-block or dense M, N, P or Q
    is built; failed checks are recorded in the report, not raised.
    ``engine``, a fresh FormEngine by default, serves the rows of A^(n),
    the phi verdict, the runs and their pure blocks of S' and Q (pure_s,
    pure_q), and keeps all but Q for the next degree.
    """
    dims, (a_d, b_d) = dimension_series(t, d), (s[d] for s in ab_series(t, d))
    predicted = t.alpha ** a_d * t.beta ** b_d
    report = GramReport(t, d, dims[d], a_d, b_d, predicted)
    engine = engine or FormEngine(t)
    try:
        if not engine.phi_integral:
            gram_matrices(t, d, engine)
    except InternalCheckError as exc:
        report.failures.append(str(exc))
        return report
    tally, doubt, bad = (Counter(), Counter()), False, None
    for run, (e, lam) in _basis_runs(t, d, dims.coeffs).items():
        wit, m, k = engine.run(*run)
        doubt, bad = doubt or m is None, bad or wit and (run, wit, lam)
        for c, v in zip(tally, (m or {}, k)):  # det M, det N: {base: power}
            for base, x in v.items():
                c[base] += e * x
    det_m, det_n = (_field_div(prod(b ** x for b, x in c.items() if x > 0),
                               prod(b ** -x for b, x in c.items() if x < 0))
                    for c in tally)
    try:  # a non-integer det N leaves a certified det M standing
        report.det_M = None if doubt else as_integer(det_m)
        report.det_N = as_integer(det_n)
    except InternalCheckError as exc:
        report.failures.append("det M, det N certificate: %s" % exc)
    if report.det_N not in (None, 1):
        report.failures.append("det N = %d, expected 1" % report.det_N)
    report.identity_ok = bad is None
    if bad:  # the first failing run, in the first lambda holding it
        run, wit, lam = bad
        y, z = (sum((b if r == run else next(iter(engine.pure_s(*r)[0]))
                     for r in _runs(lam)), ()) for b in wit)
        report.failures.append("M != P Q P^-1 N: G_y = Q K_y = G_y^T fails "
                               "at (%s, %s) in lambda-block %s" % (y, z, lam))
    if doubt:
        report.failures.append("det M not certified: G_y is not symmetric, "
                               "so M != P G_y P^T")
    if report.det_M not in (None, predicted):
        report.failures.append("det M = %d, predicted %d (= %d^%d * %d^%d)"
                               % (report.det_M, predicted, t.alpha, a_d,
                                  t.beta, b_d))
    return report
