"""Reference constructions the tests compare the package against.

gram.FormEngine keeps its level tables as sparse rows {column: entry} with
no zero stored; dense lays such rows out as the dense lists the oracles
and the tests compare, and sparse is its inverse.
gram.transition_matrices builds Q row by row from FormEngine.pure_q's level
tables; z_in_y expands each z-monomial by poly_mul products instead, and
tiled_q builds Q independently, from dense D A^(n) D^-1 matrices, as
block-diagonal tiles Q_lambda = kron of Sym^m blocks in partition order.
FormOracle evaluates the S- and K-forms on any pair of y-monomials by the
all-pairs memo recursion, with its own rows of A^(n) from roots.a_matrix;
gram.FormEngine runs the S-recursion on the pure blocks only, as level
tables, and takes the K-diagonal in closed form.  phi gives the S-form on
two single x-generators as the coefficients of an exponential series in
the entries of A^(n), degree by degree, with no recursion, and
phi_closed_form as the closed form (1 - s)^-a_1 (1 - s^r)^-((a_r - a_1) /
r) of that series, from which gram._phi_integral decides once per type,
on FormEngine's rows of A^(1..r), that every phi is an int; phi_walk pairs
the two x-generators term by term through the pure blocks instead, and
checks each generator for (a) of gram.verify before reading it.
transport_gram builds M and N from the phi pairings alone, with no P and
no G_y.  bilinear extends the
oracle's monomial-pair forms to polynomials, which the brute-force Gram
assembly and the hand-value tests pair term by term.  p_witness expands
every x-row to find P's first entry off the unit upper triangle, which
P's unitriangularity along refinement rules out, (a) being a property of
gram._x_generator.  run_walk groups the basis by part shape for the runs
n^m, their first lambdas and their sums of dim lambda, and checks the
shape order (b) on the way, where gram.verify reads the runs off
dimension_series and reads no basis.  lambda_blocks runs
the S-recursion on every pair of a lambda-block, which
kron_lambda_blocks builds as Kronecker products of pure blocks instead,
and lambda_certificate walks every lambda-block and every z-expansion of
the basis to check G_y = Q K_y = G_y^T and take det M and det N, where
gram.verify reads the pure runs alone; lambda_walk_report words its
outcome as gram.verify's report did when it walked the lambda-blocks.
identity is the n x n identity ExactMatrix.  coloring_series counts the
colored partitions with their parts marked by divisibility, whose marker
derivatives the series tests compare with ab_series.  FockSpace computes
the LLT canonical basis, whose values at v = 1 are the decomposition
matrices of the Hecke algebras that the block tests compare with
blocks.cartan_exponent and with the Gram engine.  restricted_p_strict,
residue_content, spin_defect and p_bar_core sort the spin simples of the
double covers of S_n into blocks, for the basis sizes of A_(p-1)^(2).
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, product
from math import factorial, prod
from typing import Dict, List, Tuple

from shapdet import gram
from shapdet.exact import (ExactMatrix, InternalCheckError, _exact_div,
                           _field_div, as_integer)
from shapdet.partitions import (_gen_runs, _runs, enumerate_basis,
                                enumerate_partitions)
from shapdet.roots import AffineType, a_matrix, finite_root_data, index_set
from shapdet.series import TruncSeries

Monomial = Tuple[int, int]  # (t-exponent, u-exponent)


def dense(rows) -> list:
    """The square dense lists of the sparse rows {column: entry} of a
    FormEngine level table (pure_s, pure_q), 0 where no entry is stored."""
    rows = list(rows)
    return [[row.get(c, 0) for c in range(len(rows))] for row in rows]


def sparse(rows) -> list:
    """The sparse rows {column: entry}, with no zero stored, of dense rows."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def identity(n: int) -> ExactMatrix:
    return ExactMatrix([[1 if i == j else 0 for j in range(n)]
                        for i in range(n)])


def sym_power(m: ExactMatrix, k: int) -> ExactMatrix:
    """Matrix of the induced map on degree-k monomials v_{j1}...v_{jk}.

    Basis: weakly increasing index tuples in lexicographic order.  Row I,
    column J holds the coefficient of the monomial J in the image of the
    monomial I under the substitution v_i -> sum_j m[i][j] v_j.  This is
    the same convention in which a product of z-generators expands into
    y-monomials, so these blocks are directly comparable with Q.
    """
    if m.nrows != m.ncols:
        raise ValueError("symmetric power of a non-square matrix")
    if k < 0:
        raise ValueError("symmetric power exponent must be >= 0")
    n = m.nrows
    basis = list(combinations_with_replacement(range(n), k))
    index = {mono: pos for pos, mono in enumerate(basis)}
    out = []
    for mono in basis:
        # Expand prod_t (sum_j m[mono_t][j] v_j), collapsing to sorted tuples.
        acc = {(): 1}
        for t in mono:
            row = m.rows[t]
            nxt: dict = {}
            for partial, coeff in acc.items():
                for j in range(n):
                    v = row[j]
                    if not v:
                        continue
                    key = tuple(sorted(partial + (j,)))
                    cur = nxt.get(key)
                    nxt[key] = coeff * v if cur is None else cur + coeff * v
            acc = nxt
        line = [0] * len(basis)
        for key, coeff in acc.items():
            line[index[key]] = coeff
        out.append(line)
    return ExactMatrix(out)


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product with row/column index (i_a * b.nrows + i_b)."""
    out = []
    for ia in range(a.nrows):
        for ib in range(b.nrows):
            row = []
            arow = a.rows[ia]
            brow = b.rows[ib]
            for ja in range(a.ncols):
                x = arow[ja]
                if x:
                    row.extend(x * y for y in brow)
                else:
                    row.extend([0] * b.ncols)
            out.append(row)
    return ExactMatrix(out)


def z_in_y(engine, mono) -> dict:
    """{y: coefficient}: the y-expansion of the z-monomial mono, one
    gram.poly_mul product per factor, where z_n^(i) is
    sum_j a^(n)_ij (d_i / d_j) y_n^(j), read from the engine's rows of
    A^(n); FormEngine.pure_q builds the same rows as sparse level tables."""
    poly, d = {(): 1}, engine._d
    for n, i in mono:
        poly = gram.poly_mul(poly, {((n, j),): _field_div(v * d[i], d[j])
                                    for j, v in engine._a_rows(n)[i]})
    return poly


def z_block(engine, n: int) -> ExactMatrix:
    """The column-normalized pairing matrix D A^(n) D^-1 over I(n), built
    densely from roots.a_matrix on the engine's type and gram."""
    t, idx = engine.type, index_set(engine.type, n)
    am, d = a_matrix(t, n, engine.gram), finite_root_data(t).d
    return ExactMatrix([[v * Fraction(d[i], d[j]) if v and d[i] != d[j] else v
                         for j, v in zip(idx, row)]
                        for i, row in zip(idx, am.rows)])


def q_block(engine, lam) -> ExactMatrix:
    """Q_lambda: the kron (largest part leftmost) of Sym^m(z_block(n));
    the empty partition gives the 1x1 identity."""
    block = None
    for n, m in _runs(lam):
        factor = sym_power(z_block(engine, n), m)
        block = factor if block is None else kron(block, factor)
    return ExactMatrix([[1]]) if block is None else block


def tiled_q(engine, d: int) -> ExactMatrix:
    """Q at degree d with the blocks Q_lambda tiled down the diagonal in
    partition order, which the basis order is expected to match."""
    size = len(enumerate_basis(engine.type, d))
    rows = [[0] * size for _ in range(size)]
    offset = 0
    for lam in enumerate_partitions(d):
        block = q_block(engine, lam)
        for bi in range(block.nrows):
            rows[offset + bi][offset:offset + block.ncols] = block.rows[bi]
        offset += block.nrows
    assert offset == size, "Q blocks do not tile the basis"
    return ExactMatrix(rows)


class FormOracle:
    """The S- and K-forms of one type on every pair of y-monomials by the
    memo recursion

        (y_n^(i) * rest, f) = (d_i / n) * sum_j c_{ij} (rest, df/dy_n^(j))

    with c = A^(n) for S, its nonzero entries read from roots.a_matrix,
    and c = the identity for K.  The memo tables hold
    S'(left, right) = (left, right) w(left) and K' alike, with
    w(left) = prod n / d_i, so the recursion drops the factor d_i / n;
    form_s_mono and form_k_mono divide w(left) out.  The memo is grow-only
    with idempotent inserts, so any evaluation order gives bit-identical
    results.  ``gram`` may replace the Cartan form that A^(n) is built
    from, as for FormEngine; d_i and I(n) always come from the type.
    """

    def __init__(self, t: AffineType, gram=None):
        self.type, self.gram = t, gram
        self._rows: dict = {}
        self._memo_s: dict = {}
        self._memo_k: dict = {}

    def _tables(self, n: int):
        """(S rows, K rows) of part size n: {i: ((j, c_ij), ...)} over the
        nonzero entries of A^(n) and of the identity."""
        tables = self._rows.get(n)
        if tables is None:
            idx = index_set(self.type, n)
            am = a_matrix(self.type, n, self.gram)
            s_rows = {i: tuple((j, v) for j, v in zip(idx, row) if v)
                      for i, row in zip(idx, am.rows)}
            tables = self._rows[n] = (s_rows, {i: ((i, 1),) for i in s_rows})
        return tables

    def weight(self, mono) -> int:
        """w(mono) = prod n / d_i over the factors (n, i) of mono."""
        d = finite_root_data(self.type).d
        return prod(n // d[i] for n, i in mono)

    def weighted_k(self, left, right):
        """K'(left, right) = (left, right)_K w(left)."""
        return self._weighted(1, self._memo_k, left, right)

    def form_s_mono(self, left, right):
        """(left, right)_S = S'(left, right) / w(left), exact."""
        return _field_div(self._weighted(0, self._memo_s, left, right),
                          self.weight(left))

    def form_k_mono(self, left, right):
        """(left, right)_K = K'(left, right) / w(left), exact."""
        return _field_div(self.weighted_k(left, right), self.weight(left))

    def _weighted(self, which, memo, left, right):
        """S'(left, right) = sum_j c_ij mult S'(rest, right less one (n, j)),
        memoized in ``memo``, with c the table ``which`` of _tables (0 for
        S, 1 for K).  A pair of different part shapes reaches an empty side
        or an unmatched factor: 0."""
        if not left:
            return 1 if not right else 0
        key = (left, right)
        hit = memo.get(key)
        if hit is not None:
            return hit
        n, i = left[0]
        rest = left[1:]
        total = 0
        for j, aij in self._tables(n)[which][i]:
            mult = right.count((n, j))
            if mult:
                at = right.index((n, j))
                child = self._weighted(which, memo, rest,
                                       right[:at] + right[at + 1:])
                if child:
                    total = total + aij * (mult * child)
        memo[key] = total
        return total


def phi(t: AffineType, i: int, j: int, D: int, gram=None) -> list:
    """[phi_ij(0), ..., phi_ij(D)], the coefficients of
    phi_ij = exp(sum_m (d_i / m) a^(m)_ij s^m) up to s^D, the sum over the
    m with d_i | m and d_j | m and a^(m)_ij read from roots.a_matrix on
    ``gram``.  Since x_n^(i) is the coefficient of s^n in
    exp(sum_{d_i | m} y_m^(i) s^m) and the S-form pairs y_m^(i) with
    y_m^(j) to (d_i / m) a^(m)_ij, phi_ij(n) = (x_n^(i), x_n^(j))_S."""
    d = finite_root_data(t).d
    g = [0] * (D + 1)  # the exponent
    for m in range(1, D + 1):
        idx = index_set(t, m)
        if i in idx and j in idx:
            a = a_matrix(t, m, gram).rows[idx.index(i)][idx.index(j)]
            g[m] = _field_div(a * d[i], m)
    f = [1] + [0] * D  # exp(g), by n f_n = sum_k k g_k f_(n-k)
    for n in range(1, D + 1):
        f[n] = _field_div(sum((k * g[k] * f[n - k] for k in range(1, n + 1)),
                              0), n)
    return f


def phi_closed_form(t: AffineType, i: int, j: int, D: int, gram=None):
    """[phi_ij(0), ..., phi_ij(D)] as the coefficients of (1 - s)^-a_1
    (1 - s^r)^-c, c = (a_r - a_1) / r, with a_k = d_i a^(k)_ij (0 unless
    i, j in I(k)) read from roots.a_matrix on ``gram``; None unless a_k =
    a_1 for every k < r.  The exponent sum_k a_k s^k / k of phi's exp
    series has period r in its a_k, so it is then a_1 sum_k s^k / k +
    (a_r - a_1) sum_m s^(rm) / (rm) = -a_1 log(1 - s) - c log(1 - s^r).
    [s^n] (1 - s)^-x = x (x + 1) ... (x + n - 1) / n! for any x in the
    field, so this holds for Fraction and Q(zeta_3) values too."""
    d, a = finite_root_data(t).d, []
    for k in range(1, t.r + 1):
        idx = index_set(t, k)
        a.append(a_matrix(t, k, gram).rows[idx.index(i)][idx.index(j)] * d[i]
                 if i in idx and j in idx else 0)
    if any(v != a[0] for v in a[:-1]):
        return None

    def rising(x, n):  # [s^n] (1 - s)^-x
        return _field_div(prod((x + k for k in range(n)), start=1),
                          factorial(n))

    c = _field_div(a[-1] - a[0], t.r)
    return [sum((rising(a[0], n - t.r * m) * rising(c, m)
                 for m in range(n // t.r + 1)), 0) for n in range(D + 1)]


def phi_walk(engine, d: int) -> dict:
    """{(n, i, j): phi_ij(n) = (x_n^(i), x_n^(j))_S} for n <= d, i, j in I(n),
    the values whose integrality gram._phi_integral decides from their
    closed form (phi_closed_form), with no degree, here from the
    x-generators term by term: each x_n^(i) that gram._x_generator builds
    is read once and checked for (a) of gram.verify first, else
    InternalCheckError names the fault in P.  Its terms y come from the
    runs (k, r) of the partitions of n / d_i, so w(y) = prod k^r, and y
    pairs only with the color-j y' of its shape, to S'(y, y') / w(y) = prod
    over the runs of S'_(K^r)[(K, i)^r][(K, j)^r] (K = k d_i, each read
    once, from engine.pure_s) over w(y)."""
    t, entry, out = engine.type, {}, {}  # entry: (K, r, i, j): S' entry
    for n in range(1, d + 1):
        gens = {}  # i: ({runs of y: (c_y / w(y), c_y)}, m!)
        for i in index_set(t, n):
            (x, scale), di = gram._x_generator(t, n, i), engine._d[i]
            rest, lead = dict(x), ((n, i),)  # rest: x less what (a) allows
            found = [(runs, rest.pop(sum((((k * di, i),) * r
                                         for k, r in runs), ()), 0))
                     for runs in _gen_runs(n // di)]  # (n / d_i) first: lead
            for y, c in [(lead, found[0][1]), *rest.items()]:
                if c != scale if y == lead else c:
                    raise InternalCheckError(
                        "P is not upper unitriangular: x_%d^(%d) holds %s "
                        "with coefficient %s" % (n, i, y, Fraction(c, scale)))
            gens[i] = {tuple((k * di, r) for k, r in runs): (
                _exact_div(c, prod(k ** r for k, r in runs)), c)
                for runs, c in found if c}, scale
        for (i, (xi, si)), (j, (xj, sj)) in product(gens.items(), repeat=2):
            total = 0
            for runs in xi.keys() & xj.keys():  # y and y' of one part shape
                v = xi[runs][0] * xj[runs][1]
                for k, r in runs:
                    if (k, r, i, j) not in entry:
                        at, S = engine.pure_s(k, r)
                        entry[k, r, i, j] = S[at[((k, i),) * r]].get(
                            at[((k, j),) * r], 0)
                    v = v * entry[k, r, i, j]
                total = total + v
            out[n, i, j] = _field_div(total, si * sj)
    return out


def _splits(n: int, caps):
    """Every tuple c with sum n and 0 <= c[q] <= caps[q], c[0] slowest."""
    if not caps:
        if n == 0:
            yield ()
        return
    for c in range(min(n, caps[0]) + 1):
        for rest in _splits(n - c, caps[1:]):
            yield (c,) + rest


def transport_gram(t: AffineType, d: int, gram=None):
    """(M, N) on the x-basis at degree d from the one-generator pairings
    alone: the upper triangle, mirrored as gram.gram_matrices does, of
    (x_(n_1)^(i_1) ... x_(n_k)^(i_k), x_(m_1)^(j_1) ... x_(m_l)^(j_l)) =
    sum_C prod_(p,q) phi_(i_p j_q)(c_pq), C over the non-negative integer
    matrices with row sums n_p and column sums m_q, phi(0) = 1.  Since the
    x-generators are group-like, the adjoint of multiplication by
    x_(n_1)^(i_1) spreads its degree over the right factors: the sum is a
    recursion on the first left factor, whose row of C is split over the
    right factors' remaining parts, memoized on (rest, remaining parts).
    phi is the exp series of phi() on ``gram`` for M and on the identity
    gram for N.  No P, no G_y and no Fraction outside phi."""
    basis = enumerate_basis(t, d)
    size, out = len(basis), []
    for g in (gram, identity(t.N)):
        table = {(i, j): phi(t, i, j, d, g) for i in t.I for j in t.I}

        @lru_cache(maxsize=None)
        def transport(left, right):
            if not left:
                return int(not any(m for m, _ in right))
            (n, i), rest, total = left[0], left[1:], 0
            for split in _splits(n, [m for m, _ in right]):
                v = prod(table[i, j][c] for c, (_, j) in zip(split, right))
                if v:
                    total = total + v * transport(rest, tuple(
                        (m - c, j) for c, (m, j) in zip(split, right)))
            return total

        rows = [[0] * size for _ in range(size)]
        for a in range(size):
            for b in range(a, size):
                rows[a][b] = rows[b][a] = transport(basis[a], basis[b])
        out.append(ExactMatrix(rows))
    return tuple(out)


def bilinear(form_mono, f, g):
    """Extend a monomial-pair form bilinearly; a monomial stands for
    {mono: 1}."""
    f = f if isinstance(f, dict) else {f: 1}
    g = g if isinstance(g, dict) else {g: 1}
    total = 0
    for mf, cf in f.items():
        for mg, cg in g.items():
            v = form_mono(mf, mg)
            if v:
                total = total + cf * cg * v
    return total


def p_witness(t: AffineType, basis):
    """The first (a, b) in row-major order with b <= a and P[a][b] != [a = b]
    for the x-to-y matrix P on basis, from every x-row that gram._x_rows
    expands (a missing diagonal term is P[a][a] = 0), or None.  A term
    outside basis counts as b = -1: P is then not square on basis."""
    index = {y: a for a, y in enumerate(basis)}
    off = []
    for a, (x, scale) in enumerate(gram._x_rows(t, basis)):
        bad = [index.get(z, -1) for z, c in x.items() if c]
        bad = [b for b in bad if b < a]
        bad += [a] if x.get(basis[a], 0) != scale else []
        off += [(a, min(bad))] if bad else []
    return min(off, default=None)


def run_walk(t: AffineType, d: int):
    """{n^m: (sum of dim lambda, lambda)} over the runs n^m of the degree-d
    basis, in the order they first occur along enumerate_basis(t, d), with
    the sum over the lambdas holding n^m and lambda the first of them, by
    grouping the basis by part shape, as gram.verify did before it read the
    runs off dimension_series (gram._basis_runs).  On the way it checks (b):
    the part shapes never increase along the basis."""
    runs, a = {}, 0
    for shape, ys in groupby(tuple(n for n, _ in y)
                             for y in enumerate_basis(t, d)):
        if a and shape > prev:
            raise InternalCheckError("P is not upper unitriangular: basis"
                                     "[%d] has shape %s after %s"
                                     % (a, shape, prev))
        dim = len(list(ys))
        for run in _runs(shape):
            runs.setdefault(run, [0, shape])[0] += dim
        a, prev = a + dim, shape
    return {run: tuple(v) for run, v in runs.items()}


def lambda_blocks(oracle, basis):
    """[(ys, G_lambda)]: the monomials ys of each part-size shape lambda in
    basis order, and the S-form on all their pairs by the FormOracle's
    recursion."""
    members: dict = {}
    for y in basis:
        members.setdefault(tuple(n for n, _ in y), []).append(y)
    return [(ys, [[oracle.form_s_mono(y, z) for z in ys] for y in ys])
            for ys in members.values()]


def kron_lambda_blocks(engine, basis):
    """Yield (ys, S'_lambda) for each part shape lambda of the basis, in basis
    order: its monomials ys, which enumerate_basis lists contiguously, and
    the block of S'_y = W G_y on them.  Since w(y) = prod_n w(y_n), the block
    is the Kronecker product of the pure blocks S'_(n^m) of the runs n^m of
    lambda (FormEngine.pure_s), S'_lambda[y][z] = prod_n S'_(n^m)[y_n][z_n],
    with the largest part slowest as in the basis order."""
    for shape, ys in groupby(basis, key=lambda y: tuple(n for n, _ in y)):
        kron_rows = [[1]]  # the empty shape: G_() = [[1]]
        for run in _runs(shape):
            pure = dense(engine.pure_s(*run)[1])
            kron_rows = [[u * v if u and v else 0 for u in want for v in row]
                         for want in kron_rows for row in pure]
        yield list(ys), kron_rows


def lambda_certificate(engine, blocks, index):
    """(witness, det M, det N, doubt) from one pass over the lambda-blocks
    (ys, S'_lambda) in basis order, as kron_lambda_blocks yields them, valid
    when P is unitriangular; engine gives w and the pure blocks, z_in_y
    gives row y of Q, and index[y] is y's basis position.  It works on
    H = S'_y W = W G_y W, which is symmetric iff G_y is; and G_y = Q K_y iff
    H[y][z] = w(y) Q[y][z] K'(z, z).  The witness is the first (a, c) in
    basis order where H[a][c] differs from w(a) Q[a][c] K'(c, c) or, if
    c < a, from H[c][a], visiting only the block entries and the terms of
    Q's rows up to the first failing row.  A symmetric G_y gives
    det M = prod_lambda det S'_lambda / prod_y w(y), where
    det S'_lambda = prod_n det(S'_(n^m))^(dim S'_lambda / dim S'_(n^m)) over
    the runs n^m of lambda, by gram._pure_det once per pure block; else
    doubt says why and det M is None.  det N = prod_y K'(y, y) / prod_y w(y).
    Neither det is checked to be an integer."""
    dets = {}  # run n^m: (det S'_(n^m), dim S'_(n^m))
    witness, doubt, tally = None, None, {k: Counter() for k in "MNw"}
    for ys, s in blocks:
        cols = [index[z] for z in ys]
        at = {z: c for c, z in enumerate(ys)}
        ws, ks = [engine.weight(z) for z in ys], [gram._k_prime(z) for z in ys]
        h = [[v * wz for v, wz in zip(row, ws)] for row in s]  # H = S'_y W
        for r, h_row in enumerate([] if witness else h):  # rows in basis order
            qk_row, bad = [0] * len(ys), []  # row r of W Q K'_y in the block
            for z, q in z_in_y(engine, ys[r]).items():
                c = at.get(z)
                if c is not None:
                    qk_row[c] = ws[r] * q * ks[c]
                elif q:  # Q[a][c] != 0 outside the block
                    bad.append(index[z])
            bad += [c for c, v, u in zip(cols, h_row, qk_row) if v != u]
            bad += [cols[c] for c in range(r) if h_row[c] != h[c][r]]
            if bad:
                witness = cols[r], min(bad)
                break
        tally["N"].update(ks)
        tally["w"].update(ws)
        if doubt is None and h != [list(col) for col in zip(*h)]:
            doubt = "G_y is not symmetric, so M != P G_y P^T"
        for run in () if doubt else _runs(tuple(n for n, _ in ys[0])):
            if run not in dets:
                rows, S = engine.pure_s(*run)
                dets[run] = gram._pure_det(S), len(rows)
            tally["M"][dets[run][0]] += len(ys) // dets[run][1]
    det_m, det_n, w_all = (prod(v ** e for v, e in tally[k].items())
                           for k in "MNw")
    return (witness, None if doubt else _field_div(det_m, w_all),
            _field_div(det_n, w_all), doubt)


def lambda_walk_report(engine, report):
    """(det_M, det_N, identity_ok, failures) that gram.verify reported, in
    its words and order, past its P and phi checks, when it walked every
    lambda-block of the basis (lambda_certificate)."""
    t = report.type
    basis = enumerate_basis(t, report.d)
    witness, det_m, det_n, doubt = lambda_certificate(
        engine, kron_lambda_blocks(engine, basis),
        {y: a for a, y in enumerate(basis)})
    failures, det_M, det_N = [], None, None
    try:
        det_M = None if doubt else as_integer(det_m)
        det_N = as_integer(det_n)
    except InternalCheckError as exc:
        failures.append("det M, det N certificate: %s" % exc)
    if det_N not in (None, 1):
        failures.append("det N = %d, expected 1" % det_N)
    if witness is not None:
        y, z = (basis[a] for a in witness)
        failures.append("M != P Q P^-1 N: G_y = Q K_y = G_y^T fails at "
                        "(%s, %s) in lambda-block %s"
                        % (y, z, tuple(n for n, _ in y)))
    if doubt:
        failures.append("det M not certified: %s" % doubt)
    if det_M not in (None, report.predicted_det):
        failures.append("det M = %d, predicted %d (= %d^%d * %d^%d)"
                        % (det_M, report.predicted_det, t.alpha,
                           report.predicted_a, t.beta, report.predicted_b))
    return det_M, det_N, witness is None, failures


def residue_content(lam, p: int) -> tuple:
    """(c_0, ..., c_l): the boxes of lam of each spin residue for
    p = 2l + 1.  Along every row the residues run 0, 1, ..., l, ..., 1, 0
    and then again, with period p (Brundan-Kleshchev)."""
    out = [0] * ((p + 1) // 2)
    for row in lam:
        for c in range(row):
            out[min(c % p, p - 1 - c % p)] += 1
    return tuple(out)


def restricted_p_strict(n: int, p: int, swapped: bool = False) -> list:
    """The restricted p-strict partitions of n: a part repeats only if p
    divides it, and lam_k - lam_(k+1) < p where p | lam_k, <= p elsewhere,
    with lam_(h+1) = 0.  ``swapped`` exchanges the two inequalities."""
    def restricted(lam, k):
        gap = lam[k] - (lam[k + 1] if k + 1 < len(lam) else 0)
        if (lam[k] % p == 0) != swapped:
            return gap < p
        return gap <= p

    return [lam for lam in enumerate_partitions(n)
            if all(lam[k] % p == 0 or lam[k] not in lam[k + 1:k + 2]
                   for k in range(len(lam)))
            and all(restricted(lam, k) for k in range(len(lam)))]


def spin_form(p: int) -> List[List[int]]:
    """The symmetrized Cartan matrix (alpha_i | alpha_j) of A_(p-1)^(2) on
    the residues 0..l: 1 at node 0, which carries Lambda_0, 4 at node l and
    2 between, -1 on the edges but -2 on (l - 1, l).  Its radical is
    delta = 2 alpha_0 + ... + 2 alpha_(l-1) + alpha_l, the content of a
    p-bar, and (Lambda_0 | alpha_i) = [i = 0] / 2, so (Lambda_0 | delta) = 1."""
    ell = (p - 1) // 2
    form = [[0] * (ell + 1) for _ in range(ell + 1)]
    for i in range(ell + 1):
        form[i][i] = 1 if i == 0 else 4 if i == ell else 2
    for i in range(ell):
        form[i][i + 1] = form[i + 1][i] = -2 if i == ell - 1 else -1
    return form


def spin_defect(gamma, p: int) -> int:
    """w = ((Lambda_0 | gamma) - (gamma | gamma) / 2) / (Lambda_0 | delta)
    for the residue content gamma, in spin_form."""
    form = spin_form(p)
    twice = gamma[0] - sum(gi * form[i][j] * gj for i, gi in enumerate(gamma)
                           for j, gj in enumerate(gamma))
    assert twice % 2 == 0 and twice >= 0, (gamma, p)
    return twice // 2


def p_bar_core(lam, p: int) -> tuple:
    """The p-bar core of a strict partition: remove p-bars while any is
    left, by taking p off a part when the difference is not already a part
    (0 is none), or by removing two parts that sum to p."""
    parts = set(lam)
    while True:
        x = next((x for x in sorted(parts)
                  if x >= p and x - p not in parts or p - x in parts), None)
        if x is None:
            return tuple(sorted(parts, reverse=True))
        parts -= {x, p - x} if p - x in parts else {x}
        parts |= {x - p} if x > p else set()


class TwoVarSeries:
    """Series in q with polynomial coefficients in the two markers t, u.

    Coefficient d is a sparse map (t-exponent, u-exponent) -> int.  The
    marker degrees are bounded by the q degree (one marker per part), so
    no second truncation knob is needed.
    """

    __slots__ = ("max_degree", "coeffs")

    def __init__(self, max_degree: int, coeffs=None):
        self.max_degree = max_degree
        self.coeffs: List[Dict[Monomial, int]] = (
            [dict() for _ in range(max_degree + 1)] if coeffs is None else coeffs)

    @classmethod
    def one(cls, max_degree: int) -> "TwoVarSeries":
        s = cls(max_degree)
        s.coeffs[0][(0, 0)] = 1
        return s

    def __mul__(self, other: "TwoVarSeries") -> "TwoVarSeries":
        if self.max_degree != other.max_degree:
            raise ValueError("truncation degree mismatch")
        D = self.max_degree
        out = TwoVarSeries(D)
        for i, poly_a in enumerate(self.coeffs):
            if not poly_a:
                continue
            for j in range(D + 1 - i):
                poly_b = other.coeffs[j]
                if not poly_b:
                    continue
                target = out.coeffs[i + j]
                for (ta, ua), ca in poly_a.items():
                    for (tb, ub), cb in poly_b.items():
                        key = (ta + tb, ua + ub)
                        target[key] = target.get(key, 0) + ca * cb
        return out

    def at_ones(self) -> TruncSeries:
        """Substitute t = u = 1."""
        return TruncSeries(self.max_degree,
                           [sum(poly.values()) for poly in self.coeffs])

    def marker_derivative(self, which: str) -> TruncSeries:
        """d/dt or d/du followed by t = u = 1."""
        if which not in ("t", "u"):
            raise ValueError("marker must be 't' or 'u'")
        pos = 0 if which == "t" else 1
        return TruncSeries(self.max_degree,
                           [sum(c * key[pos] for key, c in poly.items())
                            for poly in self.coeffs])

    def coefficient(self, d: int, te: int, ue: int) -> int:
        return self.coeffs[d].get((te, ue), 0)


def _geometric(D: int, step: int, marker: int) -> TwoVarSeries:
    """1 / (1 - q^step * marker) with marker = t (0) or u (1)."""
    s = TwoVarSeries(D)
    j = 0
    while j * step <= D:
        key = (j, 0) if marker == 0 else (0, j)
        s.coeffs[j * step][key] = 1
        j += 1
    return s


def coloring_series(t: AffineType, D: int) -> TwoVarSeries:
    """G(q, t, u): colorings of partitions with marked part counts.

    The coefficient of q^d t^h u^i counts partitions of d having h parts
    divisible by r, each colored with one of ell colors, and i parts not
    divisible by r, each colored with one of k colors.
    """
    G = TwoVarSeries.one(D)
    for n in range(1, D + 1):
        if n * t.r <= D:
            factor = _geometric(D, n * t.r, 0)
            for _ in range(t.ell):
                G = G * factor
        if t.k:
            factor = _geometric(D, n, 1)
            numer = TwoVarSeries.one(D)
            if n * t.r <= D:
                numer.coeffs[n * t.r][(0, 1)] = -1
            for _ in range(t.k):
                G = G * factor * numer
    return G


Laurent = Dict[int, int]  # exponent of v -> coefficient


def _laurent_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: x for k, x in out.items() if x}


def _laurent_div(a: Laurent, b: Laurent) -> Laurent:
    """The exact quotient a / b; b has leading coefficient 1."""
    a, q = dict(a), {}
    top, lowest = max(b), min(a) - min(b)
    while a:
        k = max(a) - top
        assert k >= lowest, "inexact Laurent division"
        q[k] = c = a[k + top]
        for j, y in b.items():
            a[k + j] = a.get(k + j, 0) - c * y
            if not a[k + j]:
                del a[k + j]
    return q


def _add_term(vec: dict, lam, poly: Laurent) -> None:
    total = dict(vec.get(lam, {}))
    for k, x in poly.items():
        total[k] = total.get(k, 0) + x
    total = {k: x for k, x in total.items() if x}
    if total:
        vec[lam] = total
    else:
        vec.pop(lam, None)


class FockSpace:
    """The level-1 Fock space of U_v(sl_e^) and its canonical basis, by the
    Lascoux-Leclerc-Thibon algorithm (Comm. Math. Phys. 181, 1996).

    A vector is {partition: Laurent polynomial in v}.  The node (r, c) is
    0-indexed and has residue (c - r) mod e.  f_i adds an addable i-node
    gamma of lam with weight v^N, N = #addable - #removable i-nodes of lam
    beyond gamma, where `beyond` says which side counts (larger content).
    For an e-regular mu, A(mu) applies f_i^(k) = f_i^k / [k]! along James's
    ladders `ladder(r, c)` = r + (e-1)c in increasing order, each with
    residue -ladder mod e and k its number of nodes in mu; the
    bar-invariant subtraction then leaves G(mu) = sum_lam d_lam,mu(v) lam.
    By Ariki's theorem d_lam,mu(1) is the decomposition matrix of the Hecke
    algebra of S_n at a primitive e-th root of unity.
    """

    def __init__(self, e: int):
        self.e = e

    def ladder(self, r: int, c: int) -> int:
        return r + (self.e - 1) * c

    def beyond(self, content: int, gamma: int) -> bool:
        return content > gamma

    def f(self, vec: dict, i: int) -> dict:
        out: dict = {}
        for lam, poly in vec.items():
            rows = list(lam) + [0]
            add = [(r, c - r) for r, c in enumerate(rows)
                   if (r == 0 or rows[r - 1] > c) and (c - r) % self.e == i]
            rem = [c - 1 - r for r, c in enumerate(lam)
                   if rows[r + 1] < c and (c - 1 - r) % self.e == i]
            for r, gamma in add:
                n = (sum(self.beyond(x, gamma) for _, x in add)
                     - sum(self.beyond(x, gamma) for x in rem))
                mu = tuple(rows[:r]) + (rows[r] + 1,) + tuple(lam[r + 1:])
                _add_term(out, mu, {k + n: x for k, x in poly.items()})
        return out

    def f_divided(self, vec: dict, i: int, k: int) -> dict:
        factorial: Laurent = {0: 1}
        for j in range(1, k + 1):
            factorial = _laurent_mul(
                factorial, {j - 1 - 2 * m: 1 for m in range(j)})
            vec = self.f(vec, i)
        return {lam: _laurent_div(p, factorial) for lam, p in vec.items()}

    def canonical_basis(self, n: int) -> Dict[tuple, dict]:
        """{mu: G(mu)} for the e-regular partitions mu of n."""
        G: Dict[tuple, dict] = {}
        regular = sorted(mu for mu in enumerate_partitions(n)
                         if all(m < self.e for _, m in _runs(mu)))
        for mu in regular:  # increasing lex order: every G(lam < mu) is known
            ladders: Dict[int, int] = {}
            for r, row in enumerate(mu):
                for c in range(row):
                    ell = self.ladder(r, c)
                    ladders[ell] = ladders.get(ell, 0) + 1
            vec: dict = {(): {0: 1}}
            for ell in sorted(ladders):
                vec = self.f_divided(vec, -ell % self.e, ladders[ell])
            assert vec.get(mu) == {0: 1} and max(vec) == mu, \
                "A(%s) is not unitriangular" % (mu,)
            while True:
                bad = [lam for lam, p in vec.items() if lam != mu and min(p) <= 0]
                if not bad:
                    break
                lam = max(bad)
                assert lam in G, "no canonical basis vector for %s" % (lam,)
                a = vec[lam]
                alpha = {k: -x for k, x in a.items() if k <= 0}
                alpha.update({-k: -x for k, x in a.items() if k < 0})
                for nu, p in G[lam].items():
                    _add_term(vec, nu, _laurent_mul(alpha, p))
            G[mu] = vec
        return G
