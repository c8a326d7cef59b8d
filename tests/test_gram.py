import json
import os
import random
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from shapdet.cli import ROSTER_DEGREES
from shapdet import exact, gram
from shapdet.exact import (CycNumber, ExactMatrix, InternalCheckError,
                           as_integer, det_exact, invert)
from shapdet.gram import (FormEngine, gram_matrices, transition_matrices,
                          verify, x_in_y)
from shapdet.partitions import enumerate_basis, enumerate_partitions, exponents
from shapdet.roots import ROSTER, FiniteRootData, finite_root_data, parse_type

from oracles import bilinear, q_block, tiled_q

A1 = parse_type("A1^1")
ALL_TYPES = [parse_type(name) for name in ROSTER]


def y1(n, i=1):
    return ((n, i),)


# ---------------------------------------------------------------------------
# x-in-y expansion, with an exp-series oracle
# ---------------------------------------------------------------------------

def test_x_generator_examples():
    assert x_in_y(A1, (1, 1)) == {((1, 1),): 1}
    assert x_in_y(A1, (2, 1)) == {((2, 1),): 1, ((1, 1), (1, 1)): Fraction(1, 2)}
    t = parse_type("D4^3")
    assert x_in_y(t, (3, 2)) == {((3, 2),): 1}  # n / d_i = 1
    with pytest.raises(ValueError):
        x_in_y(t, (2, 2))  # color 2 needs parts divisible by 3


def exp_oracle(n):
    """Coefficient of z^n in exp(sum_j y_j z^j) as {exponent tuple: coeff},
    computed through the exponential series itself."""
    # polynomials in y_1..y_n with z-truncation: list indexed by z-degree
    one = [{(0,) * n: Fraction(1)}] + [dict() for _ in range(n)]
    s = [dict() for _ in range(n + 1)]
    for j in range(1, n + 1):
        e = [0] * n
        e[j - 1] = 1
        s[j][tuple(e)] = Fraction(1)

    def mul(p, q):
        out = [dict() for _ in range(n + 1)]
        for dp, terms_p in enumerate(p):
            for dq, terms_q in enumerate(q):
                if dp + dq > n:
                    continue
                for ep, cp in terms_p.items():
                    for eq, cq in terms_q.items():
                        key = tuple(a + b for a, b in zip(ep, eq))
                        bucket = out[dp + dq]
                        bucket[key] = bucket.get(key, 0) + cp * cq
        return out

    total = list(one)
    power = list(one)
    for m in range(1, n + 1):
        power = mul(power, s)
        inv = Fraction(1, factorial(m))
        for d in range(n + 1):
            for key, c in power[d].items():
                total[d][key] = total[d].get(key, 0) + c * inv
    return {k: c for k, c in total[n].items() if c}


def test_x_generator_matches_exp_series():
    for n in range(1, 7):
        want = exp_oracle(n)
        got = {}
        for mono, coeff in x_in_y(A1, (n, 1)).items():
            e = [0] * n
            for part, color in mono:
                e[part - 1] += 1
            got[tuple(e)] = coeff
        assert got == want


def test_x_monomial_products_collect():
    poly = x_in_y(A1, ((2, 1), (1, 1)))
    assert poly == {((2, 1), (1, 1)): 1,
                    ((1, 1), (1, 1), (1, 1)): Fraction(1, 2)}
    cube = x_in_y(A1, ((1, 1), (1, 1), (1, 1)))
    assert cube == {((1, 1), (1, 1), (1, 1)): 1}


# ---------------------------------------------------------------------------
# the forms
# ---------------------------------------------------------------------------

def test_form_s_hand_values():
    form_s = partial(bilinear, FormEngine(A1).form_s_mono)
    assert form_s(y1(1), y1(1)) == 2
    assert form_s(y1(2), y1(2)) == 1
    sq = ((1, 1), (1, 1))
    assert form_s(sq, sq) == 8
    assert form_s(y1(2), sq) == 0


def test_form_k_hand_values():
    form_k = partial(bilinear, FormEngine(A1).form_k_mono)
    assert form_k(y1(1), y1(1)) == 1
    assert form_k(y1(2), y1(2)) == Fraction(1, 2)
    sq = ((1, 1), (1, 1))
    assert form_k(sq, sq) == 2
    assert form_k(y1(2), sq) == 0


def test_form_k_scaled_periods():
    t = parse_type("D4^3")
    e = FormEngine(t)
    assert e.form_k_mono(((3, 2),), ((3, 2),)) == 1       # d_i/n = 3/3
    assert e.form_k_mono(((3, 1),), ((3, 1),)) == Fraction(1, 3)
    assert e.form_k_mono(((3, 1),), ((3, 2),)) == 0


def test_degree_orthogonality():
    for t in ALL_TYPES[:6]:
        e = FormEngine(t)
        for d1 in range(4):
            for d2 in range(4):
                if d1 == d2:
                    continue
                for f in enumerate_basis(t, d1)[:4]:
                    for g in enumerate_basis(t, d2)[:4]:
                        assert e.form_s_mono(f, g) == 0
                        assert e.form_k_mono(f, g) == 0


def test_forms_bilinear_over_polynomials():
    e = FormEngine(A1)
    f = {y1(2): Fraction(2), ((1, 1), (1, 1)): Fraction(1, 3)}
    g = {y1(2): 1}
    # (y2,y2)=1, cross term orthogonal
    assert bilinear(e.form_s_mono, f, g) == 2 * 1
    assert bilinear(e.form_k_mono, f, g) == 2 * Fraction(1, 2)


def test_memoized_and_plain_engines_agree():
    rng = random.Random(2024)
    for name in ("A5^2", "D4^3", "E6^2"):
        t = parse_type(name)
        fast = FormEngine(t)
        slow = FormEngine(t, memoize=False)
        pool = [m for d in range(5) for m in enumerate_basis(t, d)]
        for _ in range(60):
            f = rng.choice(pool)
            g = rng.choice(pool)
            assert fast.form_s_mono(f, g) == slow.form_s_mono(f, g)
            assert fast.form_k_mono(f, g) == slow.form_k_mono(f, g)


def test_forms_vanish_across_shapes():
    # The shape-blocked Gram assembly evaluates only same-shape pairs; both
    # forms must vanish on every pair of monomials with different shapes.
    for t in ALL_TYPES:
        e = FormEngine(t)
        for d in range(5):
            basis = enumerate_basis(t, d)
            for f in basis:
                shape = sorted(n for n, _ in f)
                for g in basis:
                    if sorted(n for n, _ in g) != shape:
                        assert e.form_s_mono(f, g) == 0
                        assert e.form_k_mono(f, g) == 0


def test_lemma_f2_small():
    for name in ("A1^1", "A2^2", "A5^2", "D4^3"):
        t = parse_type(name)
        e = FormEngine(t)
        for d in range(4):
            basis = enumerate_basis(t, d)
            for left in basis:
                z = e.z_in_y(left)
                for f in basis:
                    assert e.form_s_mono(left, f) == \
                        bilinear(e.form_k_mono, z, f)


# ---------------------------------------------------------------------------
# transition matrices, Gram matrices, verification
# ---------------------------------------------------------------------------

def test_transition_a1_degree2():
    P, Q = transition_matrices(A1, 2)
    assert P == ExactMatrix([[1, Fraction(1, 2)], [0, 1]])
    assert Q == ExactMatrix([[2, 0], [0, 4]])


def test_p_is_unitriangular():
    # Expansion terms refine the partition, and refinements come strictly
    # later in the basis order, so P is upper unitriangular on the nose.
    for t in ALL_TYPES:
        for d in range(5):
            P, _ = transition_matrices(t, d)
            for i, row in enumerate(P.rows):
                assert row[i] == 1
                assert all(not x for x in row[:i])
            if P.nrows <= 40:
                assert det_exact(P) == 1


def test_q_lambda_determinants():
    for t in ALL_TYPES:
        e = FormEngine(t)
        for d in range(1, 5):
            for lam in enumerate_partitions(d):
                a_l, b_l = exponents(t, lam)
                assert det_exact(q_block(e, lam)) == t.alpha ** a_l * t.beta ** b_l


def _same_q(t, d, engine):
    """Q from transition_matrices equals the tiled Sym^m / kron oracle bit
    for bit: in value and in the printed form of every entry."""
    _, Q = transition_matrices(t, d, engine)
    want = tiled_q(engine, d)
    assert Q == want
    assert [[str(x) for x in row] for row in Q.rows] == \
        [[str(x) for x in row] for row in want.rows]
    return Q


def test_q_matches_tiled_oracle_at_roster_degrees():
    for name, dmax in ROSTER_DEGREES.items():
        t = parse_type(name)
        for d in range(dmax + 1):
            _same_q(t, d, FormEngine(t))


def test_q_matches_tiled_oracle_on_corrupted_d4_3():
    # The -1/2 gram of the corrupted-data test, and an integer gram whose
    # z-coefficients leave Q: Q(zeta_3) entries with a genuine zeta_3 part.
    t = parse_type("D4^3")
    base = finite_root_data(t)
    genuine = 0
    for gram in ([[2, -1, Fraction(-1, 2), 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                  [0, -1, 0, 2]],
                 [[2, -1, -1, 0], [-1, 2, -1, -1], [-1, -1, 2, 0],
                  [0, -1, 0, 2]]):
        bad = FiniteRootData(base.nodes, ExactMatrix(gram), base.mu,
                             base.orbits, base.d, base.c)
        for d in range(6):
            Q = _same_q(t, d, FormEngine(t, bad))
            genuine += any(isinstance(x, CycNumber) and x.b
                           for row in Q.rows for x in row)
    assert genuine == 10  # d = 1..5 for both grams


def _brute_gram(t, d, data=None):
    """Reference assembly: every (x_a, x_b), a <= b, paired term by term."""
    engine = FormEngine(t, data)
    basis = enumerate_basis(t, d)
    expansions = [x_in_y(t, mono) for mono in basis]
    size = len(basis)
    M = [[0] * size for _ in range(size)]
    N = [[0] * size for _ in range(size)]
    for a in range(size):
        fa = expansions[a]
        for b in range(a, size):
            fb = expansions[b]
            s_val = bilinear(engine.form_s_mono, fa, fb)
            k_val = 0
            for mono, ca in fa.items():  # K is diagonal on monomials
                cb = fb.get(mono)
                if cb is not None:
                    k_val = k_val + ca * cb * engine.form_k_mono(mono, mono)
            try:
                M[a][b] = M[b][a] = as_integer(s_val)
                N[a][b] = N[b][a] = as_integer(k_val)
            except InternalCheckError as exc:
                raise InternalCheckError(
                    "non-integer Gram entry at %s degree %d (%s, %s): %s"
                    % (t, d, basis[a], basis[b], exc)) from exc
    return ExactMatrix(M), ExactMatrix(N)


def _outcome(assemble, t, d, data=None):
    try:
        M, N = assemble(t, d, data)
    except InternalCheckError as exc:
        return str(exc)
    assert all(type(x) is int for m in (M, N) for row in m.rows for x in row)
    return M.rows, N.rows


def test_gram_matches_brute_force_at_roster_degrees():
    for name, dmax in ROSTER_DEGREES.items():
        t = parse_type(name)
        for d in range(dmax + 1):
            assert _outcome(gram_matrices, t, d) == _outcome(_brute_gram, t, d)


# Non-integer and non-symmetric grams, the last one on a twisted type whose
# form values lie in Q(zeta_3).
HALF = Fraction(-1, 2)
CORRUPTED_GRAMS = [("A1^1", [[Fraction(5, 2)]]),
                   ("A2^1", [[2, HALF], [-1, 2]]),
                   ("A2^1", [[2, -1], [HALF, 2]]),
                   ("A2^1", [[2, -1], [-1, 3]]),
                   ("A2^1", [[2, -1], [-2, 2]]),
                   ("D4^3", [[2, -1, HALF, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                             [0, -1, 0, 2]])]


def _corrupted(name, gram):
    """The type and its built-in root data with gram in place of its own."""
    t = parse_type(name)
    base = finite_root_data(t)
    return t, FiniteRootData(base.nodes, ExactMatrix(gram), base.mu,
                             base.orbits, base.d, base.c)


def test_gram_matches_brute_force_on_corrupted_data():
    # Both assemblies must stop at the same first non-integer entry with the
    # same message, or agree exactly.
    failures = 0
    for name, gram in CORRUPTED_GRAMS:
        t, bad = _corrupted(name, gram)
        for d in range(1, 5):
            got = _outcome(gram_matrices, t, d, bad)
            assert got == _outcome(_brute_gram, t, d, bad)
            failures += isinstance(got, str)
    assert failures == 15  # the failure path is really exercised


def test_gram_a1_degree2():
    M, N = gram_matrices(A1, 2)
    assert M == ExactMatrix([[3, 4], [4, 8]])
    assert N == ExactMatrix([[1, 1], [1, 2]])
    assert det_exact(M) == 8
    assert det_exact(N) == 1


def test_gram_degree_zero():
    for t in ALL_TYPES[:4]:
        M, N = gram_matrices(t, 0)
        assert M == ExactMatrix([[1]])
        assert N == ExactMatrix([[1]])


def test_verify_examples():
    rep = verify(A1, 2)
    assert rep.ok and rep.det_M == 8 and rep.predicted_det == 8
    assert rep.identity_ok and rep.det_N == 1

    rep = verify(parse_type("A2^2"), 1)
    assert rep.ok and rep.det_M == 3  # beta^{b(1)} = 3

    t = parse_type("D4^3")
    for d in range(4):
        rep = verify(t, d)
        assert rep.ok
        assert rep.det_M == 2 ** rep.predicted_b  # alpha = 1 here


def test_verify_builds_each_a_matrix_once(monkeypatch):
    built = []
    a_matrix = gram.a_matrix

    def counting(t, n, data=None):
        built.append(n)
        return a_matrix(t, n, data)

    monkeypatch.setattr(gram, "a_matrix", counting)
    assert verify(parse_type("E6^1"), 3).ok
    assert sorted(built) == [1, 2, 3]


def _agrees_with_oracles(report):
    """verify's lambda-block certificate against its oracles: the dense
    M == P Q P^-1 N and, where that holds, the Bareiss determinants of the
    full M and N."""
    P, Q = report.P_mat, report.Q_mat
    assert report.identity_ok == (report.M == P @ Q @ invert(P) @ report.N)
    if report.identity_ok:  # then M = P G_y P^T, as the certificate needs
        assert report.det_M == as_integer(det_exact(report.M))
        assert report.det_N == as_integer(det_exact(report.N))


def test_certificate_matches_full_bareiss_at_roster_degrees():
    for name, dmax in ROSTER_DEGREES.items():
        t = parse_type(name)
        for d in range(dmax + 1):
            rep = verify(t, d)
            assert rep.ok
            _agrees_with_oracles(rep)


def test_certificate_matches_full_bareiss_on_corrupted_fixture():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "shapbench",
                        "fixtures", "corrupt-a2.json")
    with open(path) as fh:
        t, bad = _corrupted("A2^1", json.load(fh)["gram"])
    for d in range(1, 5):
        rep = verify(t, d, bad)
        assert not rep.ok and rep.det_M != rep.predicted_det
        assert rep.identity_ok
        _agrees_with_oracles(rep)


def test_identity_matches_dense_oracle_on_corrupted_grams():
    # The asymmetric grams give an asymmetric G_y = Q K_y, which the mirrored
    # M cannot match; the symmetric [[2, -1], [-1, 3]] keeps the identity.
    held = []
    for name, gram in CORRUPTED_GRAMS:
        t, bad = _corrupted(name, gram)
        for d in range(1, 5):
            rep = verify(t, d, bad)
            if rep.M is None:  # a non-integer Gram entry stopped verify
                assert not rep.identity_ok
                assert rep.failures[0].startswith("non-integer Gram entry")
            else:
                _agrees_with_oracles(rep)
                held.append(rep.identity_ok)
    assert held == [False] + [True] * 4 + [False] * 4


def test_identity_matches_dense_oracle_under_z_row_mutation(monkeypatch):
    # Scaling the z rows by (d_j / d_i)^2 turns D A^(n) D^-1 into the
    # similar D^-1 A^(n) D: det Q_lambda and M stay, and only the identity
    # can fail, wherever colors with different d_i pair.
    pairing = FormEngine._pairing

    def mutated(self, n):
        views, d = pairing(self, n), self.data.d
        return views._replace(z_rows={
            i: tuple((j, v * Fraction(d[j], d[i]) ** 2) for j, v in row)
            for i, row in views.z_rows.items()})

    monkeypatch.setattr(FormEngine, "_pairing", mutated)
    failing = []
    for t in ALL_TYPES:
        for d in range(1, 4):
            rep = verify(t, d)
            _agrees_with_oracles(rep)
            assert rep.det_M == rep.predicted_det
            if not rep.identity_ok:
                failing.append((t.name, d))
                assert len(rep.failures) == 1
    assert failing == [(name, d) for name in ("A5^2", "D3^2", "D5^2", "E6^2")
                       for d in (2, 3)] + [("D4^3", 3)]
    assert rep.failures == ["M != P Q P^-1 N: G_y = Q K_y = G_y^T fails at "
                            "(((3, 1),), ((3, 2),)) in lambda-block (3,)"]


@lru_cache(maxsize=None)
def _certificate_case():
    """y_gram, Q and the basis of E6^2 at degree 3: 14 monomials in
    lambda-blocks of 2, 8 and 4, with fractional entries in Q."""
    t = parse_type("E6^2")
    engine = FormEngine(t)
    y_gram = gram._gram(t, 3, engine)[2]
    return y_gram, transition_matrices(t, 3, engine)[1], enumerate_basis(t, 3)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_certificate_names_first_perturbed_entry(data):
    (blocks, k_values), Q, basis = _certificate_case()
    assert gram._certificate((blocks, k_values), Q, basis)[0] is None
    index = {y: a for a, y in enumerate(basis)}
    where = {y: (b, r) for b, (ys, _) in enumerate(blocks)
             for r, y in enumerate(ys)}
    in_g = st.sampled_from([(index[y], index[z], "G") for ys, _ in blocks
                            for y in ys for z in ys])
    size = len(basis)
    in_q = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1),
                     st.just("Q"))
    spots = data.draw(st.lists(st.one_of(in_g, in_q), min_size=1, max_size=3,
                               unique_by=lambda spot: spot[:2]))
    g_blocks = [(ys, [row[:] for row in g]) for ys, g in blocks]
    q_rows = [row[:] for row in Q.rows]
    for a, c, target in spots:
        delta = data.draw(st.sampled_from([1, -1, 3, Fraction(1, 2)]))
        if target == "G":
            (b, r), (_, s) = where[basis[a]], where[basis[c]]
            g_blocks[b][1][r][s] += delta
        else:
            q_rows[a][c] += delta
    witness = gram._certificate((g_blocks, k_values), ExactMatrix(q_rows),
                                basis)[0]
    assert witness == min(spot[:2] for spot in spots)


def test_verify_runs_no_dense_inverse_or_product(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(exact, "invert", counting("invert", exact.invert))
    # and under the name gram would hold, had it imported invert
    monkeypatch.setattr(gram, "invert", exact.invert, raising=False)
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        counting("@", ExactMatrix.__matmul__))
    rep = verify(parse_type("E6^1"), 3)
    assert rep.ok and rep.identity_ok and calls == []
    exact.invert(rep.P_mat) @ rep.Q_mat  # the wrappers do count
    assert calls == ["invert", "@"]


@pytest.mark.parametrize("name", ["E7^1", "E8^1"])
def test_verify_e7_e8_up_to_degree_3(name):
    # Beyond ROSTER, whose envelopes the goldens pin.
    t = parse_type(name)
    for d in range(4):
        rep = verify(t, d)
        assert rep.ok and rep.identity_ok and rep.det_M == rep.predicted_det


def test_verify_takes_determinants_of_lambda_blocks_only(monkeypatch):
    t = parse_type("E6^1")
    sizes = []

    def counting(m):
        sizes.append(m.nrows)
        return det_exact(m)

    monkeypatch.setattr(gram, "det_exact", counting)
    assert verify(t, 3).ok
    basis = enumerate_basis(t, 3)
    shapes = [tuple(n for n, _ in y) for y in basis]
    largest = max(shapes.count(shape) for shape in shapes)
    assert largest == 56 < len(basis)
    assert max(sizes) == largest


@pytest.mark.parametrize("a, b", [(2, 2), (3, 0)])
def test_verify_names_a_non_unitriangular_p(monkeypatch, a, b):
    # Row a of P becomes 2 x_a, or x_a + x_0: M stays integral, and with
    # row a doubled even M = P Q P^-1 N holds while det M is 4x the value a
    # certificate that trusted P would report.
    basis = enumerate_basis(A1, 4)
    x_in_y = gram.x_in_y

    def broken(t, mono):
        poly = x_in_y(t, mono)
        if mono == basis[a]:
            extra = x_in_y(t, basis[b])
            poly = {m: poly.get(m, 0) + extra.get(m, 0)
                    for m in {**poly, **extra}}
        return poly

    monkeypatch.setattr(gram, "x_in_y", broken)
    rep = verify(A1, 4)
    assert not rep.ok and rep.det_M is None and not rep.identity_ok
    assert rep.failures == ["P is not upper unitriangular: P[%d][%d] = %s at "
                            "(%s, %s)" % (a, b, 2 if a == b else 1,
                                          basis[a], basis[b])]
    if a == b:
        P, Q = rep.P_mat, rep.Q_mat
        assert rep.M == P @ Q @ invert(P) @ rep.N
        assert det_exact(rep.M) == 4 * rep.predicted_det


def test_verify_catches_corrupted_gram():
    t = parse_type("A1^1")
    base = finite_root_data(t)
    bad = FiniteRootData(base.nodes, ExactMatrix([[3]]), base.mu,
                         base.orbits, base.d, base.c)
    rep = verify(t, 2, bad)
    assert not rep.ok
    assert any("det M" in f or "Gram entry" in f for f in rep.failures)


def test_report_payload():
    rep = verify(A1, 2)
    payload = rep.to_dict()
    assert payload["pass"] is True
    assert payload["det_M"] == payload["predicted"]["determinant"] == 8
    assert payload["basis_size"] == 2
