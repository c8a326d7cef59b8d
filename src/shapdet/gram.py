"""The polynomial algebra in the y-generators and its two contravariant forms.

Monomials are colored partitions (shared with the partitions module), so
one global basis order serves the x-, y- and z-bases alike.  Both forms
are evaluated by one operator recursion

    (y_n^(i) * rest, f) = (d_i / n) * sum_j c_{ij} (rest, df/dy_n^(j))

with c = A^(n) for the S-form and c = the identity for the K-form.  The
z-generators use the column-normalized coefficients a^(n)_{ij} d_i / d_j,
i.e. D A^(n) D^-1, which leaves every block determinant unchanged; with
those, (y_c, f)_S = (z_c, f)_K holds on the nose and the Gram matrix of
the S-form factors exactly as M = P Q P^-1 N through the transition
matrices to the y-basis: row a of P (of Q) is the y-expansion of the x-
(z-) monomial basis[a], so enumerate_basis alone owns the order.  A
FormEngine builds A^(n) once per n through roots.a_matrix and derives all
of these views from it as sparse rows; verify shares one engine.

Both forms pair y_n^(i) only with y_n^(j): on y-monomials they vanish
unless the part sizes agree, so the y-Gram matrices are block-diagonal
by the part-size shape lambda (the Heisenberg grading).  gram_matrices
evaluates the recursion only inside those blocks and assembles
M = P G_y P^T and N = P K_y P^T from the x-expansions.  P is upper
unitriangular, so verify certifies det M = prod_lambda det G_lambda and
det N = prod_y K_y(y, y) from the same values and checks M = P Q P^-1 N
as G_y = Q K_y; the full-matrix Bareiss determinants and the dense
P Q P^-1 N are left to the tests, as the oracles.

Form values are memoized on canonical monomial pairs.  The memo is a
grow-only dict with idempotent inserts: entries may be computed in any
order (or concurrently) with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exact import (CycNumber, ExactMatrix, InternalCheckError, _field_div,
                    as_integer, det_exact)
from .partitions import (ColoredPartition, enumerate_basis,
                         enumerate_partitions, exponent_totals, _runs)
from .roots import AffineType, FiniteRootData, a_matrix, finite_root_data

Monomial = ColoredPartition
BPolynomial = Dict[Monomial, object]


def _mono_sorted(factors) -> Monomial:
    return tuple(sorted(factors, key=lambda f: (-f[0], f[1])))


def poly_mul(p1: BPolynomial, p2: BPolynomial) -> BPolynomial:
    out: BPolynomial = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            # Canonical unless m2 starts before m1 ends in the order (-n, i).
            key = m1 + m2
            if m1 and m2 and (m2[0][0], -m2[0][1]) > (m1[-1][0], -m1[-1][1]):
                key = _mono_sorted(key)
            c = c1 * c2
            cur = out.get(key)
            val = c if cur is None else cur + c
            if val:
                out[key] = val
            elif cur is not None:
                del out[key]
    return out


@lru_cache(maxsize=None)
def _x_generator(t: AffineType, n: int, i: int) -> Tuple[Tuple[Monomial, Fraction], ...]:
    """Expansion of the generator x_n^(i) in y-monomials.

    x_n^(i) = sum over partitions (1^k1 2^k2 ...) of n/d_i of the monomial
    prod_j (y_{j d_i}^(i))^{k_j} with coefficient prod_j 1/k_j!.
    """
    di = finite_root_data(t).d[i]
    if n % di:
        raise ValueError("color %d requires parts divisible by %d" % (i, di))
    out = []
    for lam in enumerate_partitions(n // di):
        coeff = Fraction(1)
        factors = []
        for j, kj in _runs(lam):
            coeff /= factorial(kj)
            factors.extend([(j * di, i)] * kj)
        out.append((_mono_sorted(factors), coeff))
    return tuple(out)


def x_in_y(t: AffineType, item) -> BPolynomial:
    """Expand a single x-generator (n, i) or a whole colored partition.

    Returns the y-monomial expansion with exact rational coefficients.
    """
    if item and isinstance(item[0], int):
        item = (item,)
    poly: BPolynomial = {(): Fraction(1)}
    for n, i in item:
        poly = poly_mul(poly, dict(_x_generator(t, n, i)))
    return poly


class _Pairing(NamedTuple):
    """The views of A^(n) that the forms and the z-basis use."""

    s_rows: Dict[int, Tuple[Tuple[int, object], ...]]  # nonzero a^(n)_{ij}
    k_rows: Dict[int, Tuple[Tuple[int, object], ...]]  # the identity
    z_rows: Dict[int, Tuple[Tuple[int, object], ...]]  # a^(n)_{ij} d_i / d_j


class FormEngine:
    """Evaluates the S- and K-forms for one type with shared memo tables.

    Both forms run one recursion over a row table per part size n: the
    nonzero entries of A^(n) for S, the identity for K; the z-expansions
    (the rows of Q) use those of D A^(n) D^-1.  All three sparse row tables
    are derived from roots.a_matrix once per n and cached on the engine.

    ``data`` may override the built-in root data (used by the CLI fixture
    hook); ``memoize=False`` recomputes every pair from scratch, which the
    tests use to confirm the memo is observationally pure.
    """

    def __init__(self, t: AffineType, data: Optional[FiniteRootData] = None,
                 memoize: bool = True):
        self.type = t
        self.data = data if data is not None else finite_root_data(t)
        self.memoize = memoize
        self._pairings: Dict[int, _Pairing] = {}
        self._memo_s: Dict[Tuple[Monomial, Monomial], object] = {}
        self._memo_k: Dict[Tuple[Monomial, Monomial], object] = {}

    def _pairing(self, n: int) -> _Pairing:
        pairing = self._pairings.get(n)
        if pairing is None:
            am = a_matrix(self.type, n, self.data)
            d = self.data.d
            s_rows = {i: tuple((j, v) for j, v in zip(am.index_set, row) if v)
                      for i, row in zip(am.index_set, am.matrix.rows)}
            z_rows = {i: tuple((j, v * Fraction(d[i], d[j]) if d[i] != d[j]
                                else v) for j, v in row)
                      for i, row in s_rows.items()}
            pairing = _Pairing(s_rows, {i: ((i, 1),) for i in am.index_set},
                               z_rows)
            self._pairings[n] = pairing
        return pairing

    # -- the monomial-pair recursion ---------------------------------------

    def form_s_mono(self, left: Monomial, right: Monomial):
        return self._form_mono("s_rows", self._memo_s, left, right)

    def form_k_mono(self, left: Monomial, right: Monomial):
        return self._form_mono("k_rows", self._memo_k, left, right)

    def _form_mono(self, rows, memo, left: Monomial, right: Monomial):
        """(left, right) for the form whose row table is the _Pairing
        field ``rows``, memoized in ``memo``.

        A pair of different part shapes always reaches an empty side or a
        factor of left with no partner in right, so it evaluates to 0.
        """
        if not left:
            return 1 if not right else 0
        key = (left, right)
        if self.memoize:
            hit = memo.get(key)
            if hit is not None:
                return hit
        n, i = left[0]
        rest = left[1:]
        total = 0
        for j, aij in getattr(self._pairing(n), rows)[i]:
            mult, reduced = _remove_one(right, (n, j))
            if mult:
                child = self._form_mono(rows, memo, rest, reduced)
                if child:
                    total = total + aij * (mult * child)
        value = total * Fraction(self.data.d[i], n) if total else 0
        if self.memoize:
            memo[key] = value
        return value

    def z_in_y(self, mono: Monomial) -> BPolynomial:
        """Expansion of a z-monomial in the y-basis."""
        poly: BPolynomial = {(): 1}
        for n, i in mono:
            poly = poly_mul(poly, {((n, j),): v
                                   for j, v in self._pairing(n).z_rows[i]})
        return poly


def _remove_one(mono: Monomial, factor):
    """Multiplicity of factor in mono and mono with one copy removed."""
    try:
        pos = mono.index(factor)
    except ValueError:
        return 0, None
    m = 1
    q = pos + 1
    while q < len(mono) and mono[q] == factor:
        m += 1
        q += 1
    return m, mono[:pos] + mono[pos + 1:]


def _denominator(x) -> int:
    # Q(zeta_3) values keep their CycNumber arithmetic, which is exact
    # with or without a cleared denominator.
    return 1 if isinstance(x, CycNumber) else x.denominator


def _integral(x):
    """An integral rational as an int; Q(zeta_3) values unchanged."""
    return x.numerator if isinstance(x, Fraction) else x


def transition_matrices(t: AffineType, d: int,
                        engine: Optional[FormEngine] = None
                        ) -> Tuple[ExactMatrix, ExactMatrix]:
    """The x-to-y matrix P and the block-diagonal z-to-y matrix Q at degree d.

    Row a of P is x_in_y(basis[a]) and row a of Q is engine.z_in_y(basis[a]),
    each written into the columns of its target y-monomials; rows and
    columns both follow the global basis order.  ``engine`` supplies the
    z-coefficients (and with them any overriding root data); a fresh
    engine on the built-in data is used when it is omitted.
    """
    if engine is None:
        engine = FormEngine(t)
    basis = enumerate_basis(t, d)
    index = {mono: pos for pos, mono in enumerate(basis)}
    P = [[0] * len(basis) for _ in basis]
    Q = [[0] * len(basis) for _ in basis]
    for a, mono in enumerate(basis):
        for rows, expansion in ((P, x_in_y(t, mono)), (Q, engine.z_in_y(mono))):
            for target, coeff in expansion.items():
                rows[a][index[target]] = coeff
    return ExactMatrix(P), ExactMatrix(Q)


def _y_gram(engine: FormEngine, basis):
    """([(ys, G_lambda)], {y: (y, y)_K}): the lambda-blocks ys of the basis,
    in basis order, with their blocks of G_y, and the diagonal of K_y.  The
    recursion evaluates each pair once."""
    members: Dict[Tuple[int, ...], List[Monomial]] = {}
    for y in basis:
        members.setdefault(tuple(n for n, _ in y), []).append(y)
    return ([(ys, [[engine.form_s_mono(y, z) for z in ys] for y in ys])
             for ys in members.values()],
            {y: engine.form_k_mono(y, y) for y in basis})


def gram_matrices(t: AffineType, d: int,
                  data: Optional[FiniteRootData] = None,
                  engine: Optional[FormEngine] = None
                  ) -> Tuple[ExactMatrix, ExactMatrix]:
    """Gram matrices (M, N) of the S- and K-forms on the x-basis at degree d.

    Both forms pair y_n^(i) only with y_n^(j), so on y-monomials they vanish
    unless the part-size shapes lambda agree: the y-Gram matrix G_y of the
    S-form is block-diagonal by lambda and K_y is diagonal.  The recursion
    evaluates G_y only inside the lambda-blocks and K_y only on its
    diagonal (_y_gram); M = P G_y P^T and N = P K_y P^T are then contracted
    against the x-expansions (the rows of P), row a of P G_y first, then
    its pairing with every x_b, b >= a.  The contraction clears
    denominators and runs on integers; each entry is divided back exactly
    before its integrality check.

    M is asserted to have integer entries and be symmetric; N to have
    integer entries.  Violations raise InternalCheckError since they can
    only come from a recursion or root-data bug.
    """
    return _gram(t, d, engine or FormEngine(t, data))[:2]


def _gram(t: AffineType, d: int, engine: FormEngine):
    """gram_matrices' M and N, and the _y_gram values they came from."""
    basis = enumerate_basis(t, d)
    blocks, k_values = y_gram = _y_gram(engine, basis)
    expansions = [x_in_y(t, mono) for mono in basis]
    # Contract over the integers: row b of P is an integer vector over
    # scale[b], and the form values are integral over den_s and den_k.
    den_s = lcm(*(_denominator(v) for _, g in blocks for row in g for v in row))
    den_k = lcm(*(_denominator(v) for v in k_values.values()))
    g_rows = {y: [(z, _integral(v * den_s)) for z, v in zip(ys, row) if v]
              for ys, g in blocks for y, row in zip(ys, g)}  # nonzero (y, z)_S
    k_diag = {y: _integral(v * den_k) for y, v in k_values.items()}
    scale = [lcm(*(c.denominator for c in x.values())) for x in expansions]
    p_rows = [{z: _integral(c * scale[b]) for z, c in x.items()}
              for b, x in enumerate(expansions)]
    columns: Dict[Monomial, List[Tuple[int, int]]] = {}  # P by column
    for b, p_row in enumerate(p_rows):
        for z, cb in p_row.items():
            columns.setdefault(z, []).append((b, cb))
    size = len(basis)
    M = [[0] * size for _ in range(size)]
    N = [[0] * size for _ in range(size)]
    for a in range(size):
        hs: BPolynomial = {}  # row a of P G_y
        for y, ca in p_rows[a].items():
            for z, v in g_rows[y]:
                hs[z] = hs.get(z, 0) + ca * v
        hk = {y: ca * k_diag[y] for y, ca in p_rows[a].items()}
        s_row = [0] * size  # row a of P G_y P^T, columns b >= a
        k_row = [0] * size  # row a of P K_y P^T, columns b >= a
        for h_row, out in ((hs, s_row), (hk, k_row)):
            for z, h in h_row.items():
                for b, cb in columns[z]:
                    if b >= a:
                        out[b] = out[b] + h * cb
        for b in range(a, size):
            den = scale[a] * scale[b]
            try:
                M[a][b] = M[b][a] = as_integer(_field_div(s_row[b], den * den_s))
                N[a][b] = N[b][a] = as_integer(_field_div(k_row[b], den * den_k))
            except InternalCheckError as exc:
                raise InternalCheckError(
                    "non-integer Gram entry at %s degree %d (%s, %s): %s"
                    % (t, d, basis[a], basis[b], exc)) from exc
    return ExactMatrix(M), ExactMatrix(N), y_gram


def _certificate(y_gram, Q: ExactMatrix, basis):
    """(witness, det M, det N) from one pass over the lambda-blocks, valid
    when P is unitriangular.  M mirrors the upper triangle of P G_y P^T and
    N = P K_y P^T, so M = P Q P^-1 N holds when G_y = Q K_y = G_y^T (with
    Q = 0 outside the blocks) and fails when only G_y = Q K_y holds.  The
    witness is the first (a, c) in basis order where G_y[a][c] differs from
    Q[a][c] K_y(c, c) or, if c < a, from G_y[c][a].  det M = prod_lambda
    det G_lambda (blocks cleared of their own denominators) and
    det N = prod_y K_y(y, y) are not yet checked to be integers."""
    blocks, k_values = y_gram
    index = {y: a for a, y in enumerate(basis)}
    found = []
    det_m = 1
    for ys, g in blocks:
        cols = [index[z] for z in ys]
        for r, (a, g_row) in enumerate(zip(cols, g)):  # rows in basis order
            g_at = dict(zip(cols, g_row))
            bad = [c for c, q in enumerate(Q.rows[a]) if (q or g_at.get(c))
                   and g_at.get(c, 0) != q * k_values[basis[c]]]
            bad += [cols[s] for s in range(r) if g_row[s] != g[s][r]]
            if bad:
                found.append((a, min(bad)))
                break
        den = lcm(*(_denominator(v) for row in g for v in row))
        cleared = ExactMatrix([[_integral(v * den) for v in row] for row in g])
        det_m = det_m * _field_div(det_exact(cleared), den ** len(g))
    return min(found, default=None), det_m, prod(k_values.values())


@dataclass
class GramReport:
    """Everything the degree-d verification produced, plus the verdicts."""

    type: AffineType
    d: int
    basis: Tuple[Monomial, ...]
    predicted_a: int
    predicted_b: int
    predicted_det: int
    M: Optional[ExactMatrix] = None
    N: Optional[ExactMatrix] = None
    P_mat: Optional[ExactMatrix] = None
    Q_mat: Optional[ExactMatrix] = None
    det_M: Optional[int] = None
    det_N: Optional[int] = None
    identity_ok: bool = False
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        out = {
            "type": self.type.name,
            "d": self.d,
            "basis_size": len(self.basis),
            "predicted": {
                "a": self.predicted_a,
                "b": self.predicted_b,
                "alpha": self.type.alpha,
                "beta": self.type.beta,
                "determinant": self.predicted_det,
                "factored": "%d^%d * %d^%d" % (self.type.alpha, self.predicted_a,
                                               self.type.beta, self.predicted_b),
            },
            "det_M": self.det_M,
            "det_N": self.det_N,
            "identity_ok": self.identity_ok,
            "pass": self.ok,
            "failures": list(self.failures),
        }
        return out


def verify(t: AffineType, d: int,
           data: Optional[FiniteRootData] = None) -> GramReport:
    """Run the full degree-d verification and report every check's outcome.

    Once P is checked to be upper unitriangular, one pass over the
    lambda-blocks of G_y and the diagonal of K_y certifies det M and det N
    and checks M = P Q P^-1 N as G_y = Q K_y = G_y^T.  Failed checks (wrong
    determinant, the identity with its witness entry, non-integer Gram
    entries, a non-unitriangular P) are recorded in the report rather than
    raised, so a corrupted fixture yields a clean failing report.  The Gram
    and transition matrices share one FormEngine, so each A^(n) is built once.
    """
    a_d, b_d = exponent_totals(t, d)
    predicted = t.alpha ** a_d * t.beta ** b_d
    report = GramReport(t, d, enumerate_basis(t, d), a_d, b_d, predicted)
    engine = FormEngine(t, data)
    try:
        M, N, y_gram = _gram(t, d, engine)
    except InternalCheckError as exc:
        report.failures.append(str(exc))
        return report
    report.M, report.N = M, N
    P, Q = transition_matrices(t, d, engine)
    report.P_mat, report.Q_mat = P, Q

    if not M.is_symmetric():
        report.failures.append("M is not symmetric")
    off = next(((a, b) for a, row in enumerate(P.rows) for b in range(a + 1)
                if row[b] != int(a == b)), None)
    if off is not None:
        # The certificate and G_y = Q K_y both rest on a unitriangular P.
        a, b = off
        report.failures.append(
            "P is not upper unitriangular: P[%d][%d] = %s at (%s, %s)"
            % (a, b, P.rows[a][b], report.basis[a], report.basis[b]))
    else:
        witness, det_m, det_n = _certificate(y_gram, Q, report.basis)
        try:
            report.det_M, report.det_N = as_integer(det_m), as_integer(det_n)
        except InternalCheckError as exc:
            report.failures.append("det M, det N certificate: %s" % exc)
        if report.det_N not in (None, 1):
            report.failures.append("det N = %d, expected 1" % report.det_N)
        report.identity_ok = witness is None
        if witness is not None:
            y, z = (report.basis[a] for a in witness)
            report.failures.append(
                "M != P Q P^-1 N: G_y = Q K_y = G_y^T fails at (%s, %s) in "
                "lambda-block %s" % (y, z, tuple(n for n, _ in y)))
    if report.det_M not in (None, predicted):
        report.failures.append("det M = %d, predicted %d (= %d^%d * %d^%d)"
                               % (report.det_M, predicted, t.alpha, a_d,
                                  t.beta, b_d))
    return report
