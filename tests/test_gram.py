import gc
import json
import os
import random
import tracemalloc
import weakref
from fractions import Fraction
from collections import Counter
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product
from math import comb, factorial, gcd, prod
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from shapdet.cli import ROSTER_DEGREES
from shapdet import exact, gram, partitions
from shapdet.exact import (CycNumber, ExactMatrix, InternalCheckError,
                           as_integer, det_exact, invert)
from shapdet.gram import (FormEngine, gram_matrices, transition_matrices,
                          verify, x_in_y)
from shapdet.partitions import (_runs, enumerate_basis, enumerate_partitions,
                                exponent_totals, exponents)
from shapdet.roots import ROSTER, finite_root_data, index_set, parse_type
from shapdet.series import ab_series, dimension_series

import oracles
from oracles import (FormOracle, bilinear, identity, kron_lambda_blocks,
                     lambda_blocks, lambda_certificate, lambda_walk_report,
                     p_witness, phi, phi_walk, q_block, run_walk, tiled_q,
                     transport_gram, z_in_y)

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


def _shuffled_bases():
    """(t, basis, a shuffled copy) at every roster type's top degree and at
    D4^3 d=8, where the monomials have up to 8 factors."""
    rng = random.Random(18)
    for name, d in [*ROSTER_DEGREES.items(), ("D4^3", 8)]:
        t = parse_type(name)
        basis = enumerate_basis(t, d)
        yield t, basis, rng.sample(basis, len(basis))


def test_x_rows_come_back_in_the_input_order():
    # One row per monomial, in the order given, each equal to the
    # monomial's own expansion (x_in_y).
    for t, basis, shuffled in _shuffled_bases():
        rows = list(gram._x_rows(t, shuffled))
        assert len(rows) == len(shuffled)
        for mono, (x, scale) in zip(shuffled, rows):
            assert {y: Fraction(c, scale) for y, c in x.items()} == x_in_y(
                t, mono)


def test_x_rows_build_each_generator_once(monkeypatch):
    # One _x_rows call builds each distinct generator of its monomials
    # once, however many monomials share it.
    calls = []
    x_generator = gram._x_generator

    def counting(t, n, i):
        calls.append((n, i))
        return x_generator(t, n, i)

    monkeypatch.setattr(gram, "_x_generator", counting)
    for t, basis, shuffled in _shuffled_bases():
        calls.clear()
        assert len(list(gram._x_rows(t, shuffled))) == len(basis)
        assert sorted(calls) == sorted({f for mono in basis for f in mono})


# ---------------------------------------------------------------------------
# the forms
# ---------------------------------------------------------------------------

def test_form_s_hand_values():
    form_s = partial(bilinear, FormOracle(A1).form_s_mono)
    assert form_s(y1(1), y1(1)) == 2
    assert form_s(y1(2), y1(2)) == 1
    sq = ((1, 1), (1, 1))
    assert form_s(sq, sq) == 8
    assert form_s(y1(2), sq) == 0


def test_form_k_hand_values():
    form_k = partial(bilinear, FormOracle(A1).form_k_mono)
    assert form_k(y1(1), y1(1)) == 1
    assert form_k(y1(2), y1(2)) == Fraction(1, 2)
    sq = ((1, 1), (1, 1))
    assert form_k(sq, sq) == 2
    assert form_k(y1(2), sq) == 0


def test_form_k_scaled_periods():
    t = parse_type("D4^3")
    e = FormOracle(t)
    assert e.form_k_mono(((3, 2),), ((3, 2),)) == 1       # d_i/n = 3/3
    assert e.form_k_mono(((3, 1),), ((3, 1),)) == Fraction(1, 3)
    assert e.form_k_mono(((3, 1),), ((3, 2),)) == 0


def test_degree_orthogonality():
    for t in ALL_TYPES[:6]:
        e = FormOracle(t)
        for d1 in range(4):
            for d2 in range(4):
                if d1 == d2:
                    continue
                for f in enumerate_basis(t, d1)[:4]:
                    for g in enumerate_basis(t, d2)[:4]:
                        assert e.form_s_mono(f, g) == 0
                        assert e.form_k_mono(f, g) == 0


def test_forms_bilinear_over_polynomials():
    e = FormOracle(A1)
    f = {y1(2): Fraction(2), ((1, 1), (1, 1)): Fraction(1, 3)}
    g = {y1(2): 1}
    # (y2,y2)=1, cross term orthogonal
    assert bilinear(e.form_s_mono, f, g) == 2 * 1
    assert bilinear(e.form_k_mono, f, g) == 2 * Fraction(1, 2)


def _phi_matches_oracle(t, D, fixture=None):
    """verify's phi_ij(n) (gram._phi) and the oracle series phi both equal
    (x_n^(i), x_n^(j))_S of the FormOracle, paired term by term over
    x_in_y, for every i, j in I(n) and 1 <= n <= D, where gram._phi has its
    keys; the series is 0 at every other n <= D.  Returns the number of
    pairings compared."""
    oracle, compared = FormOracle(t, fixture), 0
    got = gram._phi(FormEngine(t, fixture), D)
    for i, j in product(t.I, repeat=2):
        series = phi(t, i, j, D, fixture)
        for n in range(1, D + 1):
            idx = index_set(t, n)
            if i in idx and j in idx:
                assert got[n, i, j] == series[n] == bilinear(
                    oracle.form_s_mono, x_in_y(t, (n, i)),
                    x_in_y(t, (n, j))), (t, n, i, j)
                compared += 1
            else:
                assert not series[n], (t, n, i, j)
    assert compared == len(got)
    return compared


def test_phi_series_matches_the_memo_recursion():
    # The roster types, and the D4^3 gram with Q(zeta_3) values, the
    # asymmetric A2^1 gram and the D3^2 gram with A^(2)[1][2] = -3/2.
    assert sum(_phi_matches_oracle(t, 6) for t in ALL_TYPES) == 645
    fixtures = [_corrupted(name, gram_) for name, gram_ in [
        ("D4^3", D4_3_ZETA3_GRAM), ("A2^1", [[2, -1], [-2, 2]]),
        ("D3^2", [[2, -2, -1], [-1, 2, 0], [-1, 0, 2]])]]
    assert sum(_phi_matches_oracle(t, 6, bad) for t, bad in fixtures) == 51


def test_phi_k_series_is_the_identity():
    # With c = the identity, which roots.a_matrix builds from the identity
    # gram, phi^K_ij(n) = [i = j][d_i | n] for n >= 1: the single
    # x-generators are orthonormal for the K-form.
    for t in ALL_TYPES:
        d, oracle = finite_root_data(t).d, FormOracle(t)
        for i, j in product(t.I, repeat=2):
            want = [int(i == j and n % d[i] == 0) for n in range(1, 7)]
            assert phi(t, i, j, 6, identity(t.N))[1:] == want
            for n in range(1, 7):
                if n % d[i] == 0 and n % d[j] == 0:
                    assert bilinear(oracle.form_k_mono, x_in_y(t, (n, i)),
                                    x_in_y(t, (n, j))) == want[n - 1]


class _Forgetful(dict):
    """A memo table that stores nothing, so every pair is recomputed."""

    def __setitem__(self, key, value):
        pass


def test_memoized_and_plain_engines_agree():
    rng = random.Random(2024)
    for name in ("A5^2", "D4^3", "E6^2"):
        t = parse_type(name)
        fast = FormOracle(t)
        slow = FormOracle(t)
        slow._memo_s, slow._memo_k = _Forgetful(), _Forgetful()
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
        e = FormOracle(t)
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
        e, oracle = FormEngine(t), FormOracle(t)
        for d in range(4):
            basis = enumerate_basis(t, d)
            for left in basis:
                z = z_in_y(e, left)
                for f in basis:
                    assert oracle.form_s_mono(left, f) == \
                        bilinear(oracle.form_k_mono, z, f)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_form_s_is_symmetric(data):
    # The oracle's memo holds S'(f, g) = (f, g) w(f), weighted on the left
    # only, so S' itself is not symmetric where w(f) != w(g), and
    # form_s_mono divides w(f) out again.  On the twisted types colors of
    # one part size carry different d_i, so w(f) != w(g) inside a block.
    t = parse_type(data.draw(st.sampled_from(["E6^1", "A5^2", "E6^2",
                                              "D4^3"])))
    basis = enumerate_basis(t, data.draw(st.integers(1, 4)))
    f = data.draw(st.sampled_from(basis))
    block = [g for g in basis if [n for n, _ in g] == [n for n, _ in f]]
    g = data.draw(st.one_of(st.sampled_from(basis), st.sampled_from(block)))
    oracle = FormOracle(t)
    assert oracle.form_s_mono(f, g) == oracle.form_s_mono(g, f)


def test_integer_pipeline_stays_integral(monkeypatch):
    # Where A^(n) is integral, which roots.a_matrix makes every built-in
    # type, every phi value that certifies M and N integral, every
    # level-table value, the bases and powers of every run's tallies of
    # det S' / W and prod K' / W, every pure block, K'-diagonal value and
    # weight that verify reads, and every coefficient and scale of the
    # x-generators, which verify does not read, as the generator walk (the
    # oracle phi_walk, which checks them for P) reads them on the same
    # case, is an int.
    seen = []  # per case: engine, phi, {kind: values handed over}, generators
    _phi, x_generator, k_prime = gram._phi, gram._x_generator, gram._k_prime
    pure_s, weight, run = FormEngine.pure_s, FormEngine.weight, FormEngine.run

    def recording_phi(engine, d):
        seen[-1][0] = engine
        seen[-1][1] = _phi(engine, d)
        return seen[-1][1]

    def recording_run(self, n, m):
        assert self is seen[-1][0]  # phi read the engine the runs use
        bad, dm, dn = run(self, n, m)
        assert bad is None
        seen[-1][2]["runs"] += [*dm, *dm.values(), *dn, *dn.values()]
        return bad, dm, dn

    def recording_pure_s(self, n, m):
        rows, S = pure_s(self, n, m)
        seen[-1][2]["pure"] += [v for row in S for v in row]
        return rows, S

    def recording_k_prime(y):
        seen[-1][2]["k"].append(k_prime(y))
        return seen[-1][2]["k"][-1]

    def recording_weight(self, y):
        seen[-1][2]["w"].append(weight(self, y))
        return seen[-1][2]["w"][-1]

    def recording_x_generator(t, n, i):
        x, scale = x_generator(t, n, i)
        seen[-1][3].append((x, scale))
        return x, scale

    monkeypatch.setattr(gram, "_phi", recording_phi)
    monkeypatch.setattr(FormEngine, "run", recording_run)
    monkeypatch.setattr(FormEngine, "pure_s", recording_pure_s)
    monkeypatch.setattr(gram, "_k_prime", recording_k_prime)
    monkeypatch.setattr(FormEngine, "weight", recording_weight)
    monkeypatch.setattr(gram, "_x_generator", recording_x_generator)
    cases = (("E6^1", 4, 1000, 144), ("A1^1", 12, 300, 12),
             ("D4^3", 4, 20, 7), ("E6^2", 4, 100, 40))  # floors for counts
    for name, d, _, _ in cases:
        seen.append([None, None, {"runs": [], "pure": [], "k": [], "w": []},
                     []])
        assert verify(parse_type(name), d).ok
        assert not seen[-1][3]  # verify reads no x-generator
        walk = phi_walk(FormEngine(parse_type(name)), d)
        assert walk == seen[-1][1] and seen[-1][3]
    for (engine, phis, handed, gens), case in zip(seen, cases):
        assert all(handed.values())
        handed = [v for kind in handed.values() for v in kind]
        values = [*(v for levels in engine._levels.values()
                    for _, table in levels for row in table for v in row),
                  *(c for x, scale in gens for c in (*x.values(), scale))]
        assert len(handed) > 20 and len(values) > case[2]
        assert len(phis) >= case[3]
        assert all(type(v) is int for v in handed + values)
        assert all(type(v) is int for v in phis.values())
        assert engine._levels  # verify's S'-values come from them


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


# An integer D4^3 gram whose form values have a genuine zeta_3 part.
D4_3_ZETA3_GRAM = [[2, -1, -1, 0], [-1, 2, -1, -1], [-1, -1, 2, 0],
                   [0, -1, 0, 2]]


def test_q_matches_tiled_oracle_on_corrupted_d4_3():
    # The -1/2 gram of the corrupted-data test, and an integer gram whose
    # z-coefficients leave Q: Q(zeta_3) entries with a genuine zeta_3 part.
    t = parse_type("D4^3")
    genuine = 0
    for gram in ([[2, -1, Fraction(-1, 2), 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                  [0, -1, 0, 2]], D4_3_ZETA3_GRAM):
        bad = ExactMatrix(gram)
        for d in range(6):
            Q = _same_q(t, d, FormEngine(t, bad))
            genuine += any(isinstance(x, CycNumber) and x.b
                           for row in Q.rows for x in row)
    assert genuine == 10  # d = 1..5 for both grams


def _pure_q_matches_z_expansions(engine, degrees):
    """FormEngine.pure_q equals the z_in_y oracle on every run n^m of the
    bases of these degrees, in value and in the printed form of every
    entry, and the oracle has no term off the run's block.  Returns the
    number of rows compared."""
    rows, runs = 0, {run for d in degrees
                     for y in enumerate_basis(engine.type, d)
                     for run in _runs(tuple(n for n, _ in y))}
    for run in runs:
        at = engine.pure_s(*run)[0]
        for y, row in zip(at, engine.pure_q(*run)):
            terms = z_in_y(engine, y)
            assert terms.keys() <= at.keys()
            want = [terms.get(z, 0) for z in at]
            assert row == want and list(map(str, row)) == list(map(str, want))
            rows += 1
    return rows


def test_pure_q_matches_the_z_expansions():
    # At every roster run, at E6^1 d=5 and E7^1 d=4 (the (1^5) and (1^4)
    # blocks, 252 and 210 rows), and on the corrupted grams and the zeta_3
    # gram, with their Fraction and Q(zeta_3) entries.
    rows = 0
    for name, dmax in ROSTER_DEGREES.items():
        rows += _pure_q_matches_z_expansions(FormEngine(parse_type(name)),
                                             range(dmax + 1))
    for name, d in (("E6^1", 5), ("E7^1", 4)):
        rows += _pure_q_matches_z_expansions(FormEngine(parse_type(name)), [d])
    for name, gram_ in CORRUPTED_GRAMS + [("D4^3", D4_3_ZETA3_GRAM)]:
        t, bad = _corrupted(name, gram_)
        rows += _pure_q_matches_z_expansions(FormEngine(t, bad), range(5))
    assert rows > 1000


def test_verify_keeps_no_q_table(monkeypatch):
    # run builds each run's Q with pure_q and drops it once the run's facts
    # are cached: after verify returns, no table it was handed is alive, and
    # no row of one is held by the engine's tables and caches.
    pure_q, tables, rows = FormEngine.pure_q, [], []

    class Table(list):  # a list that a weak reference can follow
        pass

    def tracked(self, n, m):
        table = Table(pure_q(self, n, m))
        tables.append(weakref.ref(table))
        rows.extend(table)
        return table

    monkeypatch.setattr(FormEngine, "pure_q", tracked)
    engine = FormEngine(parse_type("E6^1"))
    assert verify(engine.type, 5, engine).ok
    gc.collect()
    assert len(tables) == len(engine._facts) == 9 and len(rows) == 380
    assert all(ref() is None for ref in tables)
    held, todo = set(), list(vars(engine).values())
    while todo:  # every dict, list and tuple the engine reaches
        obj = todo.pop()
        if isinstance(obj, (dict, list, tuple)) and id(obj) not in held:
            held.add(id(obj))
            todo.extend([*obj.keys(), *obj.values()] if isinstance(obj, dict)
                        else obj)
    assert len(held) > 1000 and not held & {id(row) for row in rows}


def _brute_gram(t, d, fixture=None):
    """Reference assembly: every (x_a, x_b), a <= b, paired term by term."""
    oracle = FormOracle(t, fixture)
    basis = enumerate_basis(t, d)
    expansions = [x_in_y(t, mono) for mono in basis]
    size = len(basis)
    M = [[0] * size for _ in range(size)]
    N = [[0] * size for _ in range(size)]
    for a in range(size):
        fa = expansions[a]
        for b in range(a, size):
            fb = expansions[b]
            s_val = bilinear(oracle.form_s_mono, fa, fb)
            k_val = 0
            for mono, ca in fa.items():  # K is diagonal on monomials
                cb = fb.get(mono)
                if cb is not None:
                    k_val = k_val + ca * cb * oracle.form_k_mono(mono, mono)
            try:
                M[a][b] = M[b][a] = as_integer(s_val)
                N[a][b] = N[b][a] = as_integer(k_val)
            except InternalCheckError as exc:
                raise InternalCheckError(
                    "non-integer Gram entry at %s degree %d (%s, %s): %s"
                    % (t, d, basis[a], basis[b], exc)) from exc
    return ExactMatrix(M), ExactMatrix(N)


def _fast_gram(t, d, fixture=None):
    """gram_matrices through an engine on the gram ``fixture``."""
    return gram_matrices(t, d, FormEngine(t, fixture))


def _outcome(assemble, t, d, fixture=None):
    try:
        M, N = assemble(t, d, fixture)
    except InternalCheckError as exc:
        return str(exc)
    assert all(type(x) is int for m in (M, N) for row in m.rows for x in row)
    return M.rows, N.rows


def test_gram_matches_brute_force_at_roster_degrees():
    for name, dmax in ROSTER_DEGREES.items():
        t = parse_type(name)
        for d in range(dmax + 1):
            assert _outcome(_fast_gram, t, d) == _outcome(_brute_gram, t, d)


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
    """The type and gram as the ExactMatrix that replaces its Cartan form."""
    return parse_type(name), ExactMatrix(gram)


def test_gram_matches_brute_force_on_corrupted_data():
    # Both assemblies must stop at the same first non-integer entry with the
    # same message, or agree exactly.
    failures = 0
    for name, gram in CORRUPTED_GRAMS:
        t, bad = _corrupted(name, gram)
        for d in range(1, 5):
            got = _outcome(_fast_gram, t, d, bad)
            assert got == _outcome(_brute_gram, t, d, bad)
            failures += isinstance(got, str)
    assert failures == 15  # the failure path is really exercised


def test_transport_oracle_matches_gram_matrices_at_roster_degrees():
    # M and N from the exp-series phi alone, with no P and no G_y.
    cases = 0
    for name, dmax in ROSTER_DEGREES.items():
        t = parse_type(name)
        for d in range(dmax + 1):
            assert transport_gram(t, d) == gram_matrices(t, d), (name, d)
            cases += 1
    assert cases == 61


def test_verify_phi_matches_the_exp_series():
    # verify's phi, from FormEngine's rows of A^(n), against the oracle's exp
    # series in the entries of roots.a_matrix, on every ordered pair of I(n).
    fixtures = [(parse_type(name), None, dmax)
                for name, dmax in ROSTER_DEGREES.items()]
    fixtures += [(*_corrupted(name, gram_), 4) for name, gram_ in
                 CORRUPTED_GRAMS + [("D4^3", D4_3_ZETA3_GRAM)]]
    compared = 0
    for t, fixture, d in fixtures:
        got = gram._phi(FormEngine(t, fixture), d)
        series = {(i, j): phi(t, i, j, d, fixture) for i in t.I for j in t.I}
        assert got == {(n, i, j): series[i, j][n] for n in range(1, d + 1)
                       for i in index_set(t, n) for j in index_set(t, n)}
        compared += len(got)
    assert compared == 447


def test_phi_matches_the_generator_walk():
    # verify's phi against the oracle walk over the x-generators and the
    # pure blocks, key by key and type included, zeros too: at every roster
    # degree, at E7^1 and E8^1 d=6, at A2^2 and D4^3 d=30, and on the
    # corrupted grams and the zeta_3 gram, with their Fraction and Q(zeta_3)
    # values.
    cases = [(parse_type(name), None, d) for name, dmax in
             ROSTER_DEGREES.items() for d in range(dmax + 1)]
    cases += [(parse_type(name), None, d) for name, d in
              (("E7^1", 6), ("E8^1", 6), ("A2^2", 30), ("D4^3", 30))]
    cases += [(*_corrupted(name, gram_), d) for name, gram_ in
              CORRUPTED_GRAMS + [("D4^3", D4_3_ZETA3_GRAM)] for d in range(5)]
    compared, kinds = 0, Counter()
    for t, fixture, d in cases:
        got = gram._phi(FormEngine(t, fixture), d)
        want = phi_walk(FormEngine(t, fixture), d)
        assert got == want and {k: type(v) for k, v in got.items()} == {
            k: type(v) for k, v in want.items()}, (t, d)
        compared += len(got)
        kinds.update(type(v).__name__ for v in got.values())
    assert compared == 1756
    assert kinds == {"int": 1706, "Fraction": 30, "CycNumber": 20}


def test_x_generators_are_unitriangular():
    # (a) of verify, on _x_generator alone, for every type at n <= 12: the
    # lead term y_n^(i) has the scale as its coefficient, and every other
    # term has at least two parts, all of color i, divisible by d_i and
    # summing to n.
    checked = 0
    for t in ALL_TYPES + [parse_type("E7^1"), parse_type("E8^1")]:
        d = finite_root_data(t).d
        for n in range(1, 13):
            for i in index_set(t, n):
                x, scale = gram._x_generator(t, n, i)
                assert x.pop(((n, i),)) == scale
                assert all(len(y) >= 2 and sum(k for k, _ in y) == n and
                           all(c == i and k % d[i] == 0 for k, c in y)
                           for y in x), (t, n, i)
                checked += len(x)
    assert checked == 11046


def _integral(v):
    try:
        as_integer(v)
    except InternalCheckError:
        return False
    return True


def test_transport_oracle_on_corrupted_grams():
    # Where gram_matrices raises, some phi_ij(n) with n <= d is not an
    # integer (the premise of verify's phi check), and the oracle's first
    # non-integer entry, row by row over b >= a, is the one it names.
    raised = passed = 0
    for name, gram_ in CORRUPTED_GRAMS + [
            ("D4^3", D4_3_ZETA3_GRAM),
            ("D3^2", [[2, -2, -1], [-1, 2, 0], [-1, 0, 2]])]:
        t, bad = _corrupted(name, gram_)
        for d in range(1, 5):
            M, N = transport_gram(t, d, bad)
            assert N == gram_matrices(t, d)[1]  # N does not see the gram
            try:
                want = gram_matrices(t, d, FormEngine(t, bad))
            except InternalCheckError as exc:
                raised += 1
                assert not all(_integral(v) for i in t.I for j in t.I
                               for v in phi(t, i, j, d, bad)), (name, d)
                basis = enumerate_basis(t, d)
                a, b = min((a, b) for a in range(len(basis))
                           for b in range(a, len(basis))
                           if not _integral(M.rows[a][b]))
                assert str(exc) == (
                    "non-integer Gram entry at %s degree %d (%s, %s): "
                    "expected an integer, got %s"
                    % (name, d, basis[a], basis[b], M.rows[a][b]))
            else:
                assert (M, N) == want, (name, d)
                # a non-integral phi need not make M non-integral
                passed += not all(_integral(v) for i in t.I for j in t.I
                                  for v in phi(t, i, j, d, bad))
    # 15 of CORRUPTED_GRAMS, the zeta_3 gram at d = 1..4, D3^2 at d = 2, 4
    assert raised == 21
    assert passed == 2  # A2^1 with a^(1)_21 = -1/2 at d = 1, D3^2 at d = 3


def test_verify_skips_the_contraction_when_phi_is_integral(monkeypatch):
    def failing(*args):
        raise AssertionError("verify ran the Gram contraction")

    monkeypatch.setattr(gram, "gram_matrices", failing)
    cases = [(name, d) for name, dmax in ROSTER_DEGREES.items()
             for d in range(dmax + 1)]
    assert len(cases) == 61
    for name, d in cases + [("E6^1", 4), ("A1^1", 12)]:
        rep = verify(parse_type(name), d)
        assert rep.ok and rep.identity_ok and rep.det_M == rep.predicted_det


@pytest.mark.parametrize("name, gram, d, value", [
    # an int contraction with a remainder, on M's diagonal and off it
    ("A1^1", [[Fraction(5, 2)]], 2, "(((2, 1),), ((2, 1),)): expected an "
     "integer, got 35/8"),
    ("A2^1", [[2, HALF], [-1, 2]], 3, "(((3, 1),), ((3, 2),)): expected an "
     "integer, got -1/16"),
    # a CycNumber contraction
    ("D4^3", CORRUPTED_GRAMS[-1][1], 2, "(((2, 1),), ((2, 1),)): expected an "
     "integer, got 25/8-7/8*z3"),
    # A^(2)[1][2] = (g(1,2) + g(1,3)) / d_1 = -3/2 on the fixed node, d_1 = 2
    ("D3^2", [[2, -2, -1], [-1, 2, 0], [-1, 0, 2]], 2, "(((2, 1),), ((2, 2),)):"
     " expected an integer, got -3/2")])
def test_non_integer_gram_entry_failure_text(monkeypatch, name, gram, d,
                                             value):
    # A non-integral phi sends verify to the contraction, once, which
    # names the first non-integer entry.
    t, bad = _corrupted(name, gram)
    contracted = []

    def counting(*args):
        contracted.append(args)
        return gram_matrices(*args)

    monkeypatch.setattr("shapdet.gram.gram_matrices", counting)
    rep = verify(t, d, FormEngine(t, bad))
    assert len(contracted) == 1
    assert not rep.identity_ok and rep.det_M is None
    assert rep.failures == ["non-integer Gram entry at %s degree %d %s"
                            % (name, d, value)]
    with pytest.raises(InternalCheckError) as exc:  # the dense M, N too
        gram_matrices(t, d, FormEngine(t, bad))
    assert rep.failures == [str(exc.value)]


def test_non_integer_k_value_failure_text(monkeypatch):
    # An integral M with a planted (y, y)_K = 1/2, where w(((1, 1),)) = 1.
    # phi^K_ij(n) = [i = j][d_i | n] certifies N integral without reading
    # K', so verify meets the 1/2 in the det N certificate and in
    # G_y = Q K_y, and the contraction names it as N's entry.
    # det M = 2 is certified from the pure blocks all the same.
    k_prime = gram._k_prime

    def planted(y):
        return Fraction(1, 2) if y == ((1, 1),) else k_prime(y)

    monkeypatch.setattr(gram, "_k_prime", planted)
    rep = verify(A1, 1)
    assert rep.det_N is None and rep.det_M == 2 and not rep.identity_ok
    assert rep.failures == [
        "det M, det N certificate: expected an integer, got 1/2",
        "M != P Q P^-1 N: G_y = Q K_y = G_y^T fails at (((1, 1),), "
        "((1, 1),)) in lambda-block (1,)"]
    with pytest.raises(InternalCheckError) as exc:
        gram_matrices(A1, 1)
    assert str(exc.value) == ("non-integer Gram entry at A1^1 degree 1 "
                              "(((1, 1),), ((1, 1),)): expected an integer, "
                              "got 1/2")


def test_det_n_other_than_1_failure_text(monkeypatch):
    # A planted (y, y)_K = 2 on ((1, 1),) at A1^1 d=1, where w = 1: det N
    # comes out an integer but not 1, and G_y = Q K_y fails at that entry.
    # det M = 2 is certified from the pure blocks all the same.
    k_prime = gram._k_prime

    def planted(y):
        return 2 if y == ((1, 1),) else k_prime(y)

    monkeypatch.setattr(gram, "_k_prime", planted)
    rep = verify(A1, 1)
    assert rep.det_N == 2 and rep.det_M == 2 and not rep.identity_ok
    assert rep.failures == [
        "det N = 2, expected 1",
        "M != P Q P^-1 N: G_y = Q K_y = G_y^T fails at (((1, 1),), "
        "((1, 1),)) in lambda-block (1,)"]


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

    def counting(t, n, gram=None):
        built.append(n)
        return a_matrix(t, n, gram)

    monkeypatch.setattr(gram, "a_matrix", counting)
    assert verify(parse_type("E6^1"), 3).ok
    assert sorted(built) == [1, 2, 3]


def _agrees_with_oracles(report, fixture=None):
    """verify's lambda-block certificate against its oracles: the dense
    M == P Q P^-1 N and, where that holds, the Bareiss determinants of the
    full M and N.  fixture is the gram verify ran on."""
    engine = FormEngine(report.type, fixture)
    M, N = gram_matrices(report.type, report.d, engine)
    P, Q = transition_matrices(report.type, report.d, engine)
    assert report.identity_ok == (M == P @ Q @ invert(P) @ N)
    if report.identity_ok:  # then M = P G_y P^T, as the certificate needs
        assert report.det_M == as_integer(det_exact(M))
        assert report.det_N == as_integer(det_exact(N))


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
        rep = verify(t, d, FormEngine(t, bad))
        assert not rep.ok and rep.det_M != rep.predicted_det
        assert rep.identity_ok
        _agrees_with_oracles(rep, bad)


def test_identity_matches_dense_oracle_on_corrupted_grams():
    # The asymmetric grams give an asymmetric G_y = Q K_y, which the mirrored
    # M cannot match; the symmetric [[2, -1], [-1, 3]] keeps the identity.
    held = []
    for name, gram in CORRUPTED_GRAMS:
        t, bad = _corrupted(name, gram)
        for d in range(1, 5):
            rep = verify(t, d, FormEngine(t, bad))
            try:
                _agrees_with_oracles(rep, bad)
            except InternalCheckError as exc:  # a non-integer Gram entry
                assert not rep.identity_ok and rep.failures == [str(exc)]
                assert rep.failures[0].startswith("non-integer Gram entry")
            else:
                held.append(rep.identity_ok)
    assert held == [False] + [True] * 4 + [False] * 4


def _mutate_z_rows(monkeypatch):
    """Scale the z rows by (d_j / d_i)^2, in FormEngine.pure_q and in the
    z_in_y oracle alike.  Per monomial the scale of the term y of z is
    (w(z) / w(y))^2, as w = prod n / d_i."""
    pure_q, z_oracle = FormEngine.pure_q, oracles.z_in_y

    def mutated_q(self, n, m):
        ys = list(self.pure_s(n, m)[0])
        return [[v * Fraction(self.weight(z), self.weight(y)) ** 2
                 for y, v in zip(ys, row)]
                for z, row in zip(ys, pure_q(self, n, m))]

    def mutated_z(engine, mono):
        return {y: v * Fraction(engine.weight(mono), engine.weight(y)) ** 2
                for y, v in z_oracle(engine, mono).items()}

    monkeypatch.setattr(FormEngine, "pure_q", mutated_q)
    monkeypatch.setattr(oracles, "z_in_y", mutated_z)


def test_identity_matches_dense_oracle_under_z_row_mutation(monkeypatch):
    # Scaling the z rows by (d_j / d_i)^2 turns D A^(n) D^-1 into the
    # similar D^-1 A^(n) D: det Q_lambda and M stay, and only the identity
    # can fail, wherever colors with different d_i pair.
    _mutate_z_rows(monkeypatch)
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


def _matches_lambda_walk(report, fixture=None):
    """verify's run certificate against the lambda-walk oracle on a fresh
    engine: the same det M, det N, identity verdict and failure texts
    (witness and doubt included), where verify got past P and phi.  Returns
    whether it compared, and the report's failures."""
    if report.failures[:1] and report.failures[0].startswith(
            ("non-integer Gram entry", "P is not upper unitriangular")):
        return False, report.failures
    assert (report.det_M, report.det_N, report.identity_ok,
            report.failures) == lambda_walk_report(
                FormEngine(report.type, fixture), report)
    return True, report.failures


def test_run_certificate_matches_the_lambda_walk_oracle(monkeypatch):
    # At every roster degree, and on the corrupted grams and the zeta_3
    # gram at d <= 4: 19 of those 35 cases stop at a non-integer phi, and
    # the rest agree with the walk.  With phi skipped, all 35 reach the
    # certificate, with its Fraction and Q(zeta_3) values, and agree.
    # kinds counts the failures of each kind (or "none" for a case).
    for name, dmax in ROSTER_DEGREES.items():
        for d in range(dmax + 1):
            assert _matches_lambda_walk(verify(parse_type(name), d)) == (
                True, [])
    kinds = Counter()  # (phi skipped, failure kind): cases
    for skip in (False, True):
        if skip:
            monkeypatch.setattr(gram, "_phi", lambda engine, d: {})
        for name, gram_ in CORRUPTED_GRAMS + [("D4^3", D4_3_ZETA3_GRAM)]:
            t, bad = _corrupted(name, gram_)
            for d in range(5):
                done, failures = _matches_lambda_walk(
                    verify(t, d, FormEngine(t, bad)), bad)
                kinds.update((skip, " ".join(f.split()[:3]) if done else
                              "stopped") for f in failures or ["none"])
    assert kinds == {
        (False, "stopped"): 19, (False, "none"): 7, (False, "M != P"): 5,
        (False, "det M not"): 5, (False, "det M ="): 4, (True, "none"): 7,
        (True, "M != P"): 12, (True, "det M not"): 12,
        (True, "det M, det"): 10, (True, "det M ="): 6}


def test_run_certificate_matches_the_lambda_walk_under_z_row_mutation(
        monkeypatch):
    # The mutation of test_identity_matches_dense_oracle_under_z_row_mutation
    # fails the identity at 9 of these cases, each named as the walk names
    # it.
    _mutate_z_rows(monkeypatch)
    failing = 0
    for t in ALL_TYPES:
        for d in range(5 if t.name in ROSTER_DEGREES else 4):
            done, failures = _matches_lambda_walk(verify(t, d))
            assert done
            failing += bool(failures)
    assert failing == 14


def test_a_shared_engine_reports_as_fresh_ones():
    # One FormEngine per type for all its degrees, as gram --roster holds
    # it, gives each degree the report of a fresh engine; on the corrupted
    # grams also with the degrees in reverse.
    for name, dmax in ROSTER_DEGREES.items():
        t = parse_type(name)
        shared = FormEngine(t)
        for d in range(dmax + 1):
            assert verify(t, d, shared).to_dict() == verify(t, d).to_dict()
    for name, gram_ in CORRUPTED_GRAMS + [("D4^3", D4_3_ZETA3_GRAM)]:
        t, bad = _corrupted(name, gram_)
        for degrees in (range(5), range(4, -1, -1)):
            shared = FormEngine(t, bad)
            for d in degrees:
                assert verify(t, d, shared).to_dict() == verify(
                    t, d, FormEngine(t, bad)).to_dict()


def test_verify_reads_only_the_pure_runs(monkeypatch):
    # On one engine per type over the roster degrees, verify builds Q on the
    # pure runs alone (pure_q), each once, certifies each run once and
    # builds no dense P, Q, M or N: no lambda-block either, as its rows of Q
    # would be products over several part sizes.
    expanded, certified = [], []
    pure_q, run = FormEngine.pure_q, FormEngine.run

    def recording_q(self, n, m):
        expanded.append((self.type.name, n, m))
        return pure_q(self, n, m)

    def recording_run(self, n, m):
        certified.append((self.type.name, n, m))
        return run(self, n, m)

    def failing(*args):
        raise AssertionError("verify built a dense matrix")

    monkeypatch.setattr(FormEngine, "pure_q", recording_q)
    monkeypatch.setattr(FormEngine, "run", recording_run)
    for name in ("gram_matrices", "transition_matrices"):
        monkeypatch.setattr(gram, name, failing)
    runs, basis_sizes = set(), 0
    for name, dmax in ROSTER_DEGREES.items():
        t = parse_type(name)
        engine = FormEngine(t)
        for d in range(dmax + 1):
            rep = verify(t, d, engine)
            assert rep.ok
            basis_sizes += rep.basis_size
            runs |= {(name, *run) for y in enumerate_basis(t, d)
                     for run in _runs(tuple(n for n, _ in y))}
    assert len(expanded) == len(set(expanded)) == len(runs)
    assert set(expanded) == set(certified) == runs
    assert sum(len(FormEngine(parse_type(name)).pure_s(n, m)[0])
               for name, n, m in runs) < basis_sizes  # the rows of Q built


@lru_cache(maxsize=None)
def _run_case():
    """E6^2 at degree 5 (66 monomials): its part shapes and its 9 runs,
    each in the order it first occurs along the basis, and each run's pure
    block and rows of Q.  The runs 1^1, 2^1 and 3^1 lie in two lambdas
    each, Q has fractional entries and the weights are 1, 2 and 4."""
    t = parse_type("E6^2")
    engine, basis = FormEngine(t), enumerate_basis(t, 5)
    shapes = list(dict.fromkeys(tuple(n for n, _ in y) for y in basis))
    runs = list(dict.fromkeys(run for shape in shapes for run in _runs(shape)))
    return t, shapes, runs, {run: engine.pure_s(*run) for run in runs}, {
        run: engine.pure_q(*run) for run in runs}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_certificate_names_first_perturbed_entry(data):
    # Entries of the runs' pure blocks S' and Q, which phi does not read,
    # perturbed at distinct spots.  verify names the first run, in
    # the order the runs first occur along the basis, with a perturbed spot;
    # at its first row with one, the first perturbed column; in the first
    # lambda holding the run, the other runs at their first monomials.  A
    # term of Q off the block, which the z-expansions could hold, has no
    # place in pure_q's table.
    t, shapes, runs, pure, q_tables = _run_case()
    blocks = {run: [row[:] for row in S] for run, (_, S) in pure.items()}
    qs = {run: [row[:] for row in Q] for run, Q in q_tables.items()}
    failing = {}  # run: {(r, c): column monomial}
    for _ in range(data.draw(st.integers(1, 3))):
        run = data.draw(st.sampled_from(runs))
        ys = list(pure[run][0])
        r, c = (data.draw(st.integers(0, len(ys) - 1)) for _ in "rc")
        target = data.draw(st.sampled_from(["S", "Q"]))
        if (r, c) in failing.get(run, {}):
            continue  # one perturbation per spot, so that none cancels
        delta = data.draw(st.sampled_from([1, -1, 3, Fraction(1, 2)]))
        (blocks if target == "S" else qs)[run][r][c] += delta
        failing.setdefault(run, {})[r, c] = ys[c]
    engine = FormEngine(t)
    engine.pure_s = lambda n, m: (pure[n, m][0], blocks[n, m])
    engine.pure_q = lambda n, m: qs[n, m]
    rep = verify(t, 5, engine)
    run = next(run for run in runs if run in failing)
    ys = list(pure[run][0])
    r, c = min(failing[run])
    shape = next(shape for shape in shapes if run in _runs(shape))
    y, z = (sum((mono if other == run else next(iter(pure[other][0]))
                 for other in _runs(shape)), ())
            for mono in (ys[r], failing[run][r, c]))
    assert not rep.identity_ok
    assert ("M != P Q P^-1 N: G_y = Q K_y = G_y^T fails at (%s, %s) in "
            "lambda-block %s" % (y, z, shape)) in rep.failures


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
    P, Q = transition_matrices(parse_type("E6^1"), 3)
    exact.invert(P) @ Q  # the wrappers do count
    assert calls == ["invert", "@"]


def test_verify_builds_no_dense_transition_matrices(monkeypatch):
    def failing(*args):
        raise AssertionError("verify built a dense P or Q")

    monkeypatch.setattr(gram, "transition_matrices", failing)
    rep = verify(parse_type("E6^1"), 3)
    assert rep.ok and rep.identity_ok and rep.det_M == rep.predicted_det


def test_verify_keeps_no_dense_gram_matrix():
    # M and N of E6^1 d=4 (dim 315) would take about 1.6 MB as dense lists;
    # verify builds neither, as phi certifies them integral.
    t = parse_type("E6^1")
    tracemalloc.start()
    try:
        rep = verify(t, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.basis_size == 315
    assert peak < 3 * 2 ** 20  # 4.3-4.5 MB when verify kept M and N


def test_transition_matrices_walk_the_x_rows_in_bounded_memory():
    # D4^3 d=16 (dim 493): dense P and Q with their Fraction entries peak at
    # 8.7-9.4 MB here, each x-row dropped once P holds it; a memo of every
    # prefix's expansion took 17.6 MB.
    t = parse_type("D4^3")
    transition_matrices(t, 2)  # the root data's caches, outside the peak
    tracemalloc.start()
    try:
        P, _ = transition_matrices(t, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.nrows == 493
    assert peak < 13 * 2 ** 20


@pytest.mark.parametrize("name", ["E7^1", "E8^1"])
def test_verify_e7_e8_up_to_degree_3(name):
    # Beyond ROSTER, whose envelopes the goldens pin.
    t = parse_type(name)
    for d in range(4):
        rep = verify(t, d)
        assert rep.ok and rep.identity_ok and rep.det_M == rep.predicted_det


def test_verify_d4_3_beyond_the_roster():
    # D4^3 runs on ints, so degrees past the roster's d <= 4 are cheap.
    t = parse_type("D4^3")
    for d in range(8, 11):
        rep = verify(t, d)
        assert rep.ok and rep.identity_ok and rep.det_M == rep.predicted_det


def test_verify_takes_determinants_of_lambda_blocks_only(monkeypatch):
    t = parse_type("E6^1")
    sizes, bareiss = [], gram._bareiss

    def counting(a, ints):
        sizes.append(len(a))
        return bareiss(a, ints)

    monkeypatch.setattr(gram, "_bareiss", counting)
    assert verify(t, 3).ok
    basis = enumerate_basis(t, 3)
    shapes = [tuple(n for n, _ in y) for y in basis]
    largest = max(shapes.count(shape) for shape in shapes)
    assert largest == 56 < len(basis)
    assert max(sizes) == largest


def test_verify_takes_bareiss_on_pure_blocks_only(monkeypatch):
    # E6^1 d=4 has two 126-row lambda-blocks: the pure (1^4), and
    # (2, 1, 1) = (2) x (1^2), which reaches Bareiss only as its factors.
    # Bareiss gets each int pure block S' = W G that kron_lambda_blocks
    # builds its blocks from, with the gcd r_i of each row divided out; no
    # column of the row-reduced (1^4) block has content left.
    t = parse_type("E6^1")
    passed, bareiss = [], gram._bareiss

    def recording(a, ints):
        passed.append(ExactMatrix(a))  # a copy: Bareiss overwrites a
        return bareiss(a, ints)

    monkeypatch.setattr(gram, "_bareiss", recording)
    assert verify(t, 4).ok
    blocks = {tuple(n for n, _ in ys[0]): ExactMatrix(g) for ys, g in
              kron_lambda_blocks(FormEngine(t), enumerate_basis(t, 4))}
    assert sorted(m.nrows for m in passed) == [6, 6, 6, 6, 21, 21, 126]
    pure = blocks[(1, 1, 1, 1)].rows
    r = [gcd(*row) for row in pure]
    content_free = ExactMatrix([[v // g for v in row]
                                for row, g in zip(pure, r)])
    assert all(gcd(*col) == 1 for col in zip(*content_free.rows))
    assert content_free != blocks[(1, 1, 1, 1)]
    assert [m for m in passed if m.nrows == 126] == [content_free]
    assert prod(r) * det_exact(content_free) == det_exact(
        blocks[(1, 1, 1, 1)])
    assert blocks[(1, 1, 1, 1)] != blocks[(2, 1, 1)]
    mixed = [shape for shape in blocks if len(set(shape)) > 1]
    assert len(mixed) == 2
    assert not any(m == blocks[shape] for m in passed for shape in mixed)


def _runs_of(t, dmax):
    """The runs n^m of every lambda of t at degrees d <= dmax."""
    return sorted({run for d in range(dmax + 1) for y in enumerate_basis(t, d)
                   for run in _runs(tuple(n for n, _ in y))})


def _pure_blocks_match_memo(t, dmax, fixture=None):
    """FormEngine.pure_s(n, m) equals the memo recursion's form values
    (y, z)_S times w(y) on the colorings y, z of every run n^m up to dmax,
    in basis order.  At every degree d <= dmax, the certificate's
    K'-diagonal prod_f m_f! (_k_prime) equals the recursion's K'(y, y), and
    its K' is 0 off the diagonal inside each lambda-block the walk yields.
    Returns the pure blocks."""
    engine, oracle = FormEngine(t, fixture), FormOracle(t, fixture)
    blocks = []
    for n, m in _runs_of(t, dmax):
        ys = [y for y in enumerate_basis(t, n * m) if {k for k, _ in y} == {n}]
        rows, S = engine.pure_s(n, m)
        assert rows == {y: r for r, y in enumerate(ys)}
        assert S == [[oracle.form_s_mono(y, z) * oracle.weight(y) for z in ys]
                     for y in ys]
        blocks.append(S)
    for d in range(dmax + 1):
        basis = enumerate_basis(t, d)
        lam_blocks = kron_lambda_blocks(engine, basis)
        assert {y: gram._k_prime(y) for y in basis} == {
            y: oracle.weighted_k(y, y) for y in basis}
        assert all(oracle.weighted_k(y, z) == 0 for ys, _ in lam_blocks
                   for y in ys for z in ys if y != z)
    return blocks


def test_pure_blocks_match_the_memo_recursion():
    for name, dmax in [*ROSTER_DEGREES.items(), ("E6^1", 4), ("E7^1", 4)]:
        _pure_blocks_match_memo(parse_type(name), dmax)
    # A^(2)[1][2] = (g(1,2) + g(1,3)) / d_1 = -3/2, and a gram with
    # Q(zeta_3) values
    for name, gram_ in [("D3^2", [[2, -2, -1], [-1, 2, 0], [-1, 0, 2]]),
                        ("D4^3", D4_3_ZETA3_GRAM)]:
        t, bad = _corrupted(name, gram_)
        blocks = _pure_blocks_match_memo(t, 4, bad)
        assert any(type(v) is not int for S in blocks for row in S
                   for v in row)


def test_content_free_det_matches_full_bareiss_at_roster_degrees():
    for name, dmax in ROSTER_DEGREES.items():
        engine = FormEngine(parse_type(name))
        for n, m in _runs_of(engine.type, dmax):
            S = engine.pure_s(n, m)[1]
            assert gram._pure_det(S) == det_exact(ExactMatrix(S))


def _blocks_match_oracles(t, d, fixture=None):
    """The walk's product-built lambda-blocks S'_lambda at degree d equal the
    all-pairs recursion's form values G_lambda times w(y) entry for entry,
    and the certificate's det of each block, from the block's pure blocks
    only, equals the field Bareiss of the whole G_lambda, or is None where
    G_lambda is not symmetric.  Returns the counts of blocks with several
    part sizes and of asymmetric ones."""
    engine = FormEngine(t, fixture)
    basis = enumerate_basis(t, d)
    blocks = list(kron_lambda_blocks(engine, basis))
    oracle = FormOracle(t, fixture)
    forms = lambda_blocks(oracle, basis)
    w = {y: engine.weight(y) for y in basis}
    assert w == {y: oracle.weight(y) for y in basis}
    assert blocks == [(ys, [[v * w[y] for v in row]
                            for y, row in zip(ys, g)]) for ys, g in forms]
    index = {y: a for a, y in enumerate(basis)}
    mixed = asymmetric = 0
    for (ys, s), (_, g) in zip(blocks, forms):
        runs = _runs(tuple(n for n, _ in ys[0]))
        det = lambda_certificate(engine, [(ys, s)], index)[1]
        if g == [list(col) for col in zip(*g)]:
            assert det == det_exact(ExactMatrix(g))
        else:
            assert det is None
            asymmetric += 1
        mixed += len(runs) > 1
    return mixed, asymmetric


def test_block_determinants_match_full_bareiss_at_roster_degrees():
    # The walk builds every lambda-block from its pure blocks, an assumption
    # verify cannot check on its own: the all-pairs recursion checks it.
    mixed = 0
    for name, dmax in ROSTER_DEGREES.items():
        t = parse_type(name)
        for d in range(dmax + 1):
            counts = _blocks_match_oracles(t, d)
            assert counts[1] == 0
            mixed += counts[0]
    assert mixed > 40
    # The corrupted grams, asymmetric and non-integer ones included, and
    # the integer D4^3 gram with Q(zeta_3) values.
    asymmetric = 0
    for name, gram_ in CORRUPTED_GRAMS + [("D4^3", D4_3_ZETA3_GRAM)]:
        t, bad = _corrupted(name, gram_)
        for d in range(1, 5):
            asymmetric += _blocks_match_oracles(t, d, bad)[1]
    assert asymmetric == 33  # 11 for each asymmetric A2^1 gram


@st.composite
def kron_blocks(draw):
    """(ys, g, factors): g is the Kronecker product of two or three random
    symmetric pure blocks factors = [(members, G)] of part sizes 3 > 2 > 1,
    on the product monomials ys in a random order."""
    entry = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    factors = []
    for n in sorted(draw(st.sets(st.sampled_from([1, 2, 3]), min_size=2)),
                    reverse=True):
        m = draw(st.integers(1, 2))
        colors = range(draw(st.integers(1, 3 if m == 1 else 2)))
        members = [tuple((n, c) for c in cs)
                   for cs in combinations_with_replacement(colors, m)]
        G = [[0] * len(members) for _ in members]
        for r in range(len(members)):
            for s in range(r, len(members)):
                G[r][s] = G[s][r] = draw(entry)
        factors.append((members, G))
    cells = draw(st.permutations(list(product(
        *(range(len(members)) for members, _ in factors)))))
    ys = [sum((members[p] for (members, _), p in zip(factors, cell)), ())
          for cell in cells]
    g = [[prod(G[p][q] for (_, G), p, q in zip(factors, cy, cz))
          for cz in cells] for cy in cells]
    return ys, g, factors


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kron_blocks())
def test_certificate_det_of_a_permuted_product(case):
    # det G_lambda = prod_n det(G_(n^m))^(dim G_lambda / dim G_(n^m)) in any
    # order of the block's monomials; with Q = G_y and K_y = 1 the identity
    # holds, so the certificate has neither witness nor doubt.  It is handed
    # the weighted S' = W G and, through _k_prime, K' = W, with w(y) = prod n
    # as if every color had d_i = 1.
    ys, g, factors = case

    def weight(y):
        return prod(n for n, _ in y)

    def weighted(monos, G):
        return [[weight(y) * v for v in row] for y, row in zip(monos, G)]

    pure = {(members[0][0][0], len(members[0])):
            ({y: r for r, y in enumerate(members)}, weighted(members, G))
            for members, G in factors}
    z_rows = [{z: v for z, v in zip(ys, row) if v} for row in g]
    index = {y: a for a, y in enumerate(ys)}
    engine = SimpleNamespace(pure_s=lambda n, m: pure[n, m], weight=weight)
    with mock.patch.object(gram, "_k_prime", weight), mock.patch.object(
            oracles, "z_in_y", lambda engine, y: z_rows[index[y]]):
        assert lambda_certificate(engine, [(ys, weighted(ys, g))], index) == (
            None, det_exact(ExactMatrix(g)), 1, None)


def test_verify_names_a_wrong_pure_block_entry(monkeypatch):
    # A planted S'(y_1, y_1) + 1, which is (y_1, y_1)_S + 1 as
    # w(((1, 1),)) = 1, enters G_y only through the pure block G_(1) that
    # pure_s(1, 1) hands over and the mixed block (2, 1) built from it,
    # since the level table builds (1^3) from its own level 1; the
    # z-expansions, which do not use the S-recursion, name the wrong entry.
    pure_s = FormEngine.pure_s

    def planted(self, n, m):
        rows, S = pure_s(self, n, m)
        return rows, [[S[0][0] + 1]] if (n, m) == (1, 1) else S

    monkeypatch.setattr(FormEngine, "pure_s", planted)
    rep = verify(A1, 3)
    assert not rep.identity_ok and rep.det_N == 1
    # G_(2, 1) = G_(2) (G_(1) + 1) = 3/2 of itself, and det M with it
    y = ((2, 1), (1, 1))
    assert rep.failures == [
        "M != P Q P^-1 N: G_y = Q K_y = G_y^T fails at (%s, %s) in "
        "lambda-block (2, 1)" % (y, y),
        "det M = 96, predicted 64 (= 2^6 * 1^0)"]


@pytest.mark.parametrize("d, det_m", [(1, 3), (2, -744)])
def test_asymmetric_g_y_leaves_det_m_uncertified(d, det_m):
    # M mirrors the upper triangle of P G_y P^T, so with G_y != G_y^T the
    # product of the lambda-block dets (2 and 16 here) is not det M.
    t, bad = _corrupted("A2^1", [[2, -1], [-2, 2]])
    rep = verify(t, d, FormEngine(t, bad))
    assert not rep.ok and not rep.identity_ok and rep.det_M is None
    assert rep.det_N == 1 and len(rep.failures) == 2
    assert rep.failures[0].startswith("M != P Q P^-1 N")
    assert rep.failures[1] == ("det M not certified: G_y is not symmetric, "
                               "so M != P G_y P^T")
    assert det_exact(gram_matrices(t, d, FormEngine(t, bad))[0]) == det_m


def test_p_certificate_agrees_with_the_x_row_walk():
    # P is unitriangular along refinement, (a) being a property of the
    # generators; the brute force expands every x-row and finds no entry
    # off the unit upper triangle of the basis order either.
    cases = [*((name, d) for name, dmax in ROSTER_DEGREES.items()
               for d in range(dmax + 1)),
             *((name, d) for name in ("D4^3", "A2^2") for d in range(13))]
    for name, d in cases:
        t = parse_type(name)
        assert p_witness(t, enumerate_basis(t, d)) is None, (name, d)
        rep = verify(t, d)
        assert rep.ok and rep.identity_ok, (name, d)


def _planted(n0, i0, y, c):
    """gram._x_generator with the term y of x_n0^(i0) set to c (dropped if
    None); each call builds a fresh dict, so the fault stays in the call."""
    x_generator = gram._x_generator

    def planted(t, n, i):
        x, scale = x_generator(t, n, i)
        if (n, i) == (n0, i0):
            x.pop(y, None)
            x.update({} if c is None else {y: c})
        return x, scale
    return planted


@pytest.mark.parametrize("name, n, i, y, c, value, witness", [
    ("A1^1", 2, 1, ((2, 1),), 3, "3/2", (2, 2)),        # x_2 = 3/2 y_2 + ...
    ("A1^1", 2, 1, ((2, 1),), 4, "2", (2, 2)),          # x_2 = 2 y_2 + ...
    ("A1^1", 2, 1, ((2, 1),), None, "0", (2, 2)),       # no y_2 in x_2
    ("A2^1", 2, 2, ((2, 1),), 2, "1", (7, 6)),          # own shape (2)
    ("A2^1", 2, 1, ((1, 2), (1, 2)), 2, "1", None),     # another color
], ids=["leading", "doubled", "missing", "own-shape", "other-color"])
def test_verify_names_a_non_unitriangular_p(monkeypatch, name, n, i, y, c,
                                            value, witness):
    # A planted generator fault is named as a fault in P by the generator
    # walk (phi_walk), which checks (a) of verify on each generator before
    # reading it, as verify did when it read them.  verify reads no
    # generator: (a) is a property of _x_generator, which the fault breaks,
    # so verify passes on the true exp series.  The x-rows show all but the
    # last in P; a term of another color has a refined shape and sits above
    # the diagonal, so only the walk's check sees it.
    t = parse_type(name)
    monkeypatch.setattr(gram, "_x_generator", _planted(n, i, y, c))
    with pytest.raises(InternalCheckError) as exc:
        phi_walk(FormEngine(t), 4)
    assert str(exc.value) == ("P is not upper unitriangular: x_%d^(%d) holds "
                              "%s with coefficient %s" % (n, i, y, value))
    assert verify(t, 4).ok
    assert p_witness(t, enumerate_basis(t, 4)) == witness
    if c == 4:
        # M from these x-rows has a non-integer entry: phi's integrality
        # argument needs generators that satisfy (a).
        with pytest.raises(InternalCheckError, match="non-integer Gram entry"):
            gram_matrices(t, 4)


@pytest.mark.parametrize("name, d", [("A2^2", 12), ("D4^3", 12), ("E6^2", 4)])
def test_verify_reads_each_x_generator_once(monkeypatch, name, d):
    # verify reads no generator, and the printing paths, which do, build
    # each x_n^(i) once per call: one build per n <= d, i in I(n), for all
    # the x-rows of P.
    calls = []
    x_generator = gram._x_generator

    def counting(t, n, i):
        calls.append((n, i))
        return x_generator(t, n, i)

    monkeypatch.setattr(gram, "_x_generator", counting)
    t = parse_type(name)
    assert verify(t, d).ok and not calls
    transition_matrices(t, d)
    assert sorted(calls) == sorted((n, i) for n in range(1, d + 1)
                                   for i in index_set(t, n))


def test_verify_reads_no_x_generator(monkeypatch):
    # phi comes from the exp series on the rows of A^(n): with every
    # x-generator build failing, verify passes at every roster degree.
    def failing(*args):
        raise AssertionError("verify built an x-generator")

    monkeypatch.setattr(gram, "_x_generator", failing)
    cases = [(name, d) for name, dmax in ROSTER_DEGREES.items()
             for d in range(dmax + 1)]
    for name, d in cases:
        rep = verify(parse_type(name), d)
        assert rep.ok and rep.det_M == rep.predicted_det, (name, d)
    with pytest.raises(AssertionError, match="x-generator"):
        gram_matrices(A1, 2)  # the printing paths still read them


def test_verify_keeps_no_x_generator():
    # Nothing of the generators outlives verify: with a process-wide cache
    # of them, verify(A2^2, 24) left about 7 MB allocated, against 1.0 MB
    # without.
    t = parse_type("A2^2")
    tracemalloc.start()
    try:
        rep = verify(t, 24)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.basis_size == 1575
    assert kept < 2 * 2 ** 20


def test_verify_names_a_basis_out_of_shape_order(monkeypatch):
    # (b), the shape order, is a property of enumerate_basis, which the
    # printing paths rely on: it holds at every roster degree.  verify
    # reads no basis, as P is unitriangular along any linear extension of
    # refinement, so the run walk (run_walk) checks (b) as verify did and
    # names (1^4) moved to the front: x_(4) holds y_(1^4), now above it.
    for name, dmax in ROSTER_DEGREES.items():
        for d in range(dmax + 1):
            run_walk(parse_type(name), d)
    basis = enumerate_basis(A1, 4)
    shuffled = basis[-1:] + basis[:-1]
    for module in (oracles, gram):
        monkeypatch.setattr(module, "enumerate_basis", lambda t, d: shuffled)
    with pytest.raises(InternalCheckError) as exc:
        run_walk(A1, 4)
    assert str(exc.value) == ("P is not upper unitriangular: basis[1] has "
                              "shape (4,) after (1, 1, 1, 1)")
    assert p_witness(A1, shuffled) == (1, 0)
    assert verify(A1, 4).ok


def test_basis_runs_match_the_run_walk():
    # verify's runs in their order along the basis, their exponents e_run
    # and first lambdas, read off dimension_series, and a(d), b(d) from
    # ab_series, are the walk's over the basis and its partitions.
    cases = [*((name, d) for name, dmax in ROSTER_DEGREES.items()
               for d in range(dmax + 1)),
             ("A2^2", 40), ("D4^3", 30), ("E6^1", 7)]
    for name, d in cases:
        t = parse_type(name)
        dims = dimension_series(t, d)
        runs, walk = gram._basis_runs(t, d, dims.coeffs), run_walk(t, d)
        assert list(runs) == list(walk), (name, d)
        assert {(n, m): (e * comb(len(index_set(t, n)) + m - 1, m), lam)
                for (n, m), (e, lam) in runs.items()} == walk, (name, d)
        assert (dims[d], *(s[d] for s in ab_series(t, d))) == (
            len(enumerate_basis(t, d)), *exponent_totals(t, d)), (name, d)


def test_verify_builds_no_basis(monkeypatch):
    # With the basis and the partition walks failing, verify gives the same
    # report at every roster degree, on one engine per type.
    cases = [(name, d) for name, dmax in ROSTER_DEGREES.items()
             for d in range(dmax + 1)]
    want = [verify(parse_type(name), d).to_dict() for name, d in cases]

    def failing(*args):
        raise AssertionError("verify walked the basis or the partitions")

    for name in ("enumerate_basis", "exponent_totals", "_gen_runs"):
        for module in (gram, partitions):
            monkeypatch.setattr(module, name, failing, raising=False)
    engine = None
    for (name, d), payload in zip(cases, want):
        t = parse_type(name)
        engine = engine if engine and engine.type == t else FormEngine(t)
        assert verify(t, d, engine).to_dict() == payload, (name, d)
    with pytest.raises(AssertionError, match="basis or the partitions"):
        transition_matrices(A1, 2)  # the printing paths still walk them


def test_verify_holds_no_basis():
    # verify(D4^3, 30) (dim 18 968) peaked at 14.2 MB and kept 14.0 MB when
    # it built the basis tuple, 12.0 MB of it, which enumerate_basis cached;
    # reading its runs off dimension_series, it peaks at 0.35 MB.
    t = parse_type("D4^3")
    tracemalloc.start()
    try:
        rep = verify(t, 30)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.basis_size == 18968
    assert peak < 4 * 2 ** 20 and kept < 2 ** 20


def test_verify_catches_corrupted_gram():
    t = parse_type("A1^1")
    rep = verify(t, 2, FormEngine(t, ExactMatrix([[3]])))
    assert not rep.ok
    assert any("det M" in f or "Gram entry" in f for f in rep.failures)


def test_report_payload():
    rep = verify(A1, 2)
    payload = rep.to_dict()
    assert payload["pass"] is True
    assert payload["det_M"] == payload["predicted"]["determinant"] == 8
    assert payload["basis_size"] == 2
