"""Reference constructions the tests compare the package against.

gram.transition_matrices builds Q row by row from the z-expansions.
tiled_q builds it independently, from dense D A^(n) D^-1 matrices, as
block-diagonal tiles Q_lambda = kron of Sym^m blocks in partition order.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from shapdet.exact import ExactMatrix
from shapdet.partitions import _runs, enumerate_basis, enumerate_partitions
from shapdet.roots import a_matrix


def sym_power(m: ExactMatrix, k: int) -> ExactMatrix:
    """Matrix of the induced map on degree-k monomials v_{j1}...v_{jk}.

    Basis: weakly increasing index tuples in lexicographic order.  Row I,
    column J holds the coefficient of the monomial J in the image of the
    monomial I under the substitution v_i -> sum_j m[i][j] v_j.  This is
    the same convention in which a product of z-generators expands into
    y-monomials, so these blocks are directly comparable with Q.
    """
    if not m.is_square:
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


def z_block(engine, n: int) -> ExactMatrix:
    """The column-normalized pairing matrix D A^(n) D^-1 over I(n), built
    densely from roots.a_matrix on the engine's type and root data."""
    am, d = a_matrix(engine.type, n, engine.data), engine.data.d
    return ExactMatrix([[v * Fraction(d[i], d[j]) if v and d[i] != d[j] else v
                         for j, v in zip(am.index_set, row)]
                        for i, row in zip(am.index_set, am.matrix.rows)])


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
