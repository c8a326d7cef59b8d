import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from shapdet import exact
from shapdet.exact import (CycNumber, ExactMatrix, InternalCheckError,
                           as_integer, det_exact, invert)

from oracles import identity, kron, sym_power

z3 = CycNumber.zeta()


def cofactor_det(rows):
    """Independent oracle: determinant by recursive cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        x = rows[0][j]
        if not x:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = x * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def random_cyc(rng):
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return CycNumber(a, b)


def cyc_numbers():
    q = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    return st.builds(CycNumber, q, q)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.tuples(cyc_numbers(), cyc_numbers(), cyc_numbers()),
       st.fractions(min_value=-6, max_value=6, max_denominator=5))
def test_cyc_number_field_laws(xyz, q):
    # The D4^3 form values are Q(zeta_3) numbers; the S-recursion adds and
    # multiplies them in any order and divides by ints and Fractions.
    x, y, z = xyz
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x == x * 1 and x - x == 0 and x - y == x + (-y)
    assert x * q == q * x == x * CycNumber(q)
    assert CycNumber.zeta() ** 3 == 1
    if y:
        assert y * y.inverse() == 1 and (x / y) * y == x
        assert x / y == x * (1 / y)
    if q:
        assert (x / q) * q == x
    if not x.b:  # equal values hash alike
        assert x == x.a and hash(x) == hash(x.a)


def test_zeta3_reduction():
    assert z3 * z3 == CycNumber(-1, -1)
    assert z3 ** 3 == 1
    assert (1 + z3) + (-z3) == 1


def test_cyc_division():
    assert z3 / z3 == 1
    assert 1 / z3 == z3 * z3  # zeta^-1 = zeta^2
    x = CycNumber(Fraction(2, 3), Fraction(-1, 2))
    assert x / x == 1
    with pytest.raises(ZeroDivisionError):
        x / CycNumber(0)


def test_cyc_order_mismatch():
    # Only Q(zeta_3) is built: the roots of unity of orders 1 and 2 are
    # rational, and roots._zeta_powers uses the ints 1 and -1 for them.  A
    # rational CycNumber equals its rational value, and no other.
    assert CycNumber(5) == 5 and CycNumber(5) != CycNumber(5, 1)


def test_cyc_field_axioms_randomized():
    rng = random.Random(12345)
    for _ in range(200):
        x, y, z = (random_cyc(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == 1


def test_cyc_rational_interop():
    assert Fraction(1, 2) * z3 == CycNumber(0, Fraction(1, 2))
    assert 2 - z3 == CycNumber(2, -1)
    assert 3 / CycNumber(1, 1) == CycNumber(0, -3)


def test_as_integer():
    assert as_integer(7) == 7
    assert as_integer(Fraction(14, 2)) == 7
    assert as_integer(CycNumber(7)) == 7
    with pytest.raises(InternalCheckError):
        as_integer(Fraction(1, 2))
    with pytest.raises(InternalCheckError):
        as_integer(z3)


def test_det_examples():
    assert det_exact(ExactMatrix([[2]])) == 2
    assert det_exact(ExactMatrix([[3, 4], [4, 8]])) == 8
    diag = ExactMatrix([[1 + z3, 0], [0, -z3]])
    assert det_exact(diag) == (1 + z3) * (-z3)
    with pytest.raises(ValueError):
        det_exact(ExactMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_cofactor_oracle():
    rng = random.Random(777)
    for _ in range(80):
        n = rng.randint(1, 4)
        kind = rng.choice(("int", "frac", "cyc"))
        if kind == "int":
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        elif kind == "frac":
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(n)]
        else:
            rows = [[random_cyc(rng) for _ in range(n)] for _ in range(n)]
        assert det_exact(ExactMatrix(rows)) == cofactor_det(rows)


def gauss_det(rows):
    """Independent oracle: Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


SMALL_INTS = st.integers(-6, 6)
SMALL_FRACS = st.builds(Fraction, SMALL_INTS, st.integers(1, 4))
HYPOTHESIS = settings(max_examples=60, deadline=None, derandomize=True,
                      database=None)


@st.composite
def square_matrices(draw, entries):
    n = draw(st.integers(1, 6))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


@HYPOTHESIS
@given(st.one_of(square_matrices(SMALL_INTS), square_matrices(SMALL_FRACS),
                 square_matrices(st.one_of(SMALL_INTS, SMALL_FRACS)),
                 square_matrices(st.integers(-1, 1))))
@example([[2, 3, -1], [1, -3, 0], [1, Fraction(3, 2), 0]])
def test_det_matches_gauss_oracle(rows):
    # Int, Fraction and mixed entries; the {-1, 0, 1} matrices hit singular
    # matrices and zero pivots often.  In a mixed matrix an int-typed value
    # need not be divisible by the previous pivot (-9 by 2 in the example).
    det = det_exact(ExactMatrix(rows))
    assert det == gauss_det(rows)
    if all(type(x) is int for row in rows for x in row):
        assert type(det) is int


@st.composite
def sparse_int_matrices(draw):
    """Square int matrices with at most a fifth of their entries nonzero: a
    scaled permutation matrix, which keeps many of them invertible, plus
    scattered entries.  The leading columns of the leading rows are zeroed,
    so the first pivots have to come from row swaps."""
    n = draw(st.integers(5, 14))
    nonzero = st.integers(-9, 9).filter(bool)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(draw(st.permutations(range(n)))):
        rows[i][j] = draw(nonzero)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(cell, max_size=n * n // 5 - n)):
        rows[i][j] = draw(nonzero)
    lead = draw(st.integers(1, n // 2))
    for row in rows[:lead]:
        row[:lead] = [0] * lead
    return rows


@HYPOTHESIS
@given(sparse_int_matrices())
def test_det_of_sparse_int_matrices_matches_gauss_oracle(rows):
    # Most Bareiss multipliers a_ik are 0 here, the rows that det_exact
    # only rescales.
    n = len(rows)
    assert sum(map(bool, sum(rows, []))) <= n * n / 5
    det = det_exact(ExactMatrix(rows))
    assert type(det) is int and det == gauss_det(rows)


def test_int_det_checks_every_division(monkeypatch):
    # Bareiss divides a_ij pivot - a_ik a_kj by the previous pivot, or
    # a_ij pivot alone where a_kj = 0, and skips j where both are 0; with
    # divmod reporting a remainder, either division raises.
    monkeypatch.setattr(exact, "divmod", lambda x, y: (x // y, 1),
                        raising=False)
    for rows in ([[1, 1], [1, 1]], [[1, 0], [1, 1]]):
        with pytest.raises(InternalCheckError, match="inexact division by 1"):
            det_exact(ExactMatrix(rows))
    assert det_exact(ExactMatrix([[1, 0], [1, 0]])) == 0  # no division


@st.composite
def congruent_block_diagonal(draw):
    """(U, B, blocks): U upper unitriangular, B block-diagonal up to a
    simultaneous permutation (index i lies in block label[i]), as G_y is
    by the part-size shape in basis order."""
    n = draw(st.integers(1, 7))
    label = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    entry = st.one_of(SMALL_INTS, SMALL_FRACS)
    B = [[draw(entry) if label[i] == label[j] else 0 for j in range(n)]
         for i in range(n)]
    U = [[1 if i == j else draw(entry) if j > i else 0 for j in range(n)]
         for i in range(n)]
    blocks = [[[B[i][j] for j in range(n) if label[j] == lam]
               for i in range(n) if label[i] == lam] for lam in set(label)]
    return U, B, blocks


@HYPOTHESIS
@given(congruent_block_diagonal())
def test_congruence_by_unitriangular_keeps_block_determinants(case):
    # det(U B U^T) = prod_lambda det B_lambda: the identity behind verify's
    # determinant certificate.
    U, B, blocks = case
    Ut = [list(col) for col in zip(*U)]
    full = ExactMatrix(U) @ ExactMatrix(B) @ ExactMatrix(Ut)
    want = Fraction(1)
    for block in blocks:
        want *= det_exact(ExactMatrix(block))
    assert det_exact(full) == want == gauss_det(full.rows)


def test_det_zero_pivot_path():
    m = ExactMatrix([[0, 1, 2], [1, 0, 3], [4, 5, 0]])
    assert det_exact(m) == cofactor_det(m.rows)
    assert det_exact(ExactMatrix([[0, 0], [0, 0]])) == 0


def test_sym_power_basics():
    a = Fraction(2, 3)
    assert sym_power(ExactMatrix([[a]]), 3) == ExactMatrix([[a ** 3]])
    assert sym_power(identity(2), 2) == identity(3)
    m = ExactMatrix([[1, 2], [3, 4]])
    assert sym_power(m, 1) == m
    assert sym_power(m, 0) == ExactMatrix([[1]])


def test_sym_power_explicit_2x2():
    # v0 -> a v0 + b v1, v1 -> c v0 + d v1 on basis v0^2, v0 v1, v1^2
    a, b, c, d = 2, 3, 5, 7
    m = ExactMatrix([[a, b], [c, d]])
    s = sym_power(m, 2)
    assert s == ExactMatrix([
        [a * a, 2 * a * b, b * b],
        [a * c, a * d + b * c, b * d],
        [c * c, 2 * c * d, d * d],
    ])


def test_sym_power_det_identity():
    rng = random.Random(424242)
    from math import comb
    for _ in range(120):
        n = rng.randint(1, 3)
        k = rng.randint(0, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix(rows)
        assert det_exact(sym_power(m, k)) == det_exact(m) ** comb(n + k - 1, n)


def test_kron_basics():
    b = ExactMatrix([[1, 2], [3, 4]])
    blockdiag = kron(identity(2), b)
    assert blockdiag == ExactMatrix([[1, 2, 0, 0], [3, 4, 0, 0],
                                     [0, 0, 1, 2], [0, 0, 3, 4]])
    assert kron(ExactMatrix([[2]]), ExactMatrix([[3]])) == ExactMatrix([[6]])


def test_kron_det_identity():
    rng = random.Random(31337)
    for _ in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a = ExactMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        b = ExactMatrix([[rng.randint(-4, 4) for _ in range(m)] for _ in range(m)])
        assert det_exact(kron(a, b)) == det_exact(a) ** m * det_exact(b) ** n


def test_invert():
    assert invert(identity(4)) == identity(4)
    assert invert(ExactMatrix([[1, 1], [0, 1]])) == ExactMatrix([[1, -1], [0, 1]])
    rng = random.Random(999)
    count = 0
    while count < 30:
        n = rng.randint(1, 4)
        m = ExactMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if not det_exact(m):
            continue
        assert m @ invert(m) == identity(n)
        count += 1
    with pytest.raises(ZeroDivisionError):
        invert(ExactMatrix([[1, 2], [2, 4]]))


def test_invert_cyclotomic():
    m = ExactMatrix([[1 + z3, 1], [0, z3]])
    assert m @ invert(m) == identity(2)


def test_matmul_shapes():
    a = ExactMatrix([[1, 2, 3]])
    b = ExactMatrix([[1], [1], [1]])
    assert a @ b == ExactMatrix([[6]])
    with pytest.raises(ValueError):
        b @ b
