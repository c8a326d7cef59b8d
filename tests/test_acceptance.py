"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every comparison is exact; the only tolerances are
the stated runtime budgets, which are asserted where the criterion pins
one down.
"""

import json
import random
import time
from math import comb

import pytest

from shapdet.blocks import cartan_exponent, enumerate_blocks, p_core
from shapdet.cli import ROSTER_DEGREES, main
from shapdet.exact import ExactMatrix, det_exact, invert
from shapdet.gram import FormEngine, gram_matrices, transition_matrices, x_in_y
from shapdet.partitions import (enumerate_basis, enumerate_partitions,
                                exponent_totals, exponents)
from shapdet.roots import ROSTER, det_a, parse_type
from shapdet.series import (ab_series, cartan_series, dimension_series,
                            partition_series)

from oracles import FormOracle, kron, sym_power, z_block, z_in_y

ALL_TYPES = [parse_type(name) for name in ROSTER]


def report(num, ok, detail):
    print("ACCEPTANCE %-2d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


@pytest.fixture(scope="module")
def roster_runs():
    """One full verification per (type, degree) of the criterion-2 roster.

    M and N come solely from the form recursions; P, Q, the inverse and
    the products form the independent matrix pipeline.  The time spent in
    the recursion pipeline is accounted separately for the budget check.
    """
    runs = []
    gram_seconds = 0.0
    for name, dmax in ROSTER_DEGREES.items():
        t = parse_type(name)
        for d in range(dmax + 1):
            engine = FormEngine(t)
            t0 = time.monotonic()
            M, N = gram_matrices(t, d, engine=engine)
            det_M = det_exact(M)
            gram_seconds += time.monotonic() - t0
            P, Q = transition_matrices(t, d)
            rhs = P @ Q @ invert(P) @ N
            a_d, b_d = exponent_totals(t, d)
            runs.append({
                "name": name, "d": d,
                "det_M": det_M, "det_N": det_exact(N),
                "predicted": t.alpha ** a_d * t.beta ** b_d,
                "identity_ok": M == rhs,
                "symmetric": M.is_symmetric(),
            })
    return runs, gram_seconds


def test_criterion_01_det_a_table():
    t0 = time.monotonic()
    ok = True
    for t in ALL_TYPES:
        for n in range(1, 7):
            expected = t.alpha if n % t.r == 0 else t.beta
            ok = ok and det_a(t, n) == expected
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 1.0,
           "det A^(n) = alpha/beta for 12 types, n = 1..6 (%.3fs)" % elapsed)


def test_criterion_02_main_theorem_brute_force(roster_runs):
    runs, gram_seconds = roster_runs
    bad = [r for r in runs if r["det_M"] != r["predicted"] or not r["symmetric"]]
    ok = not bad and gram_seconds < 60.0
    report(2, ok, "det M = alpha^a(d) beta^b(d) on %d (type, d) cases, "
                  "form-recursion time %.2fs" % (len(runs), gram_seconds))


def test_criterion_03_factorization_identity(roster_runs):
    runs, _ = roster_runs
    bad = [r for r in runs
           if not r["identity_ok"] or r["det_N"] != 1]
    report(3, not bad,
           "M = P Q P^-1 N entrywise and det N = 1 on %d cases" % len(runs))


def test_criterion_04_block_determinants():
    checked = 0
    ok = True
    for t in ALL_TYPES:
        engine = FormEngine(t)
        for d in range(6):
            for lam in enumerate_partitions(d):
                if not lam:
                    continue
                block = None
                for n in sorted(set(lam), reverse=True):
                    m = sum(1 for p in lam if p == n)
                    factor = sym_power(z_block(engine, n), m)
                    block = factor if block is None else kron(block, factor)
                a_l, b_l = exponents(t, lam)
                ok = ok and det_exact(block) == t.alpha ** a_l * t.beta ** b_l
                checked += 1
    report(4, ok, "det Q_lambda = alpha^a beta^b for %d blocks, "
                  "|lambda| <= 5, 12 types" % checked)


def test_criterion_05_generating_functions():
    t0 = time.monotonic()
    ok = True
    for t in ALL_TYPES:
        aq, bq = ab_series(t, 25)
        for d in range(26):
            ok = ok and exponent_totals(t, d) == (aq[d], bq[d])
    elapsed = time.monotonic() - t0
    report(5, ok and elapsed < 1.0,
           "sum over partitions = series coefficient, d <= 25, "
           "12 types (%.3fs)" % elapsed)


def test_criterion_06_cartan_corollary():
    ok = True
    for p in (2, 3, 5, 7):
        nq = cartan_series(p, 15)
        t = parse_type("A%d^1" % (p - 1))
        for d in range(16):
            n_d = cartan_exponent(p, d)
            ok = ok and n_d == nq[d] == exponent_totals(t, d)[0]
    ok = ok and cartan_series(2, 2)[1] == 1 and cartan_series(2, 2)[2] == 3
    ok = ok and enumerate_blocks(4, 2)[0].cartan_det == 8
    report(6, ok, "N(d) closed form = T(q)P(q)^(p-1) = a(d) of A_(p-1)^1, "
                  "p in {2,3,5,7}, d <= 15; S_4 principal block det 8")


def test_criterion_07_spin_corollary():
    ok = True
    for p in (3, 5, 7):
        nq = cartan_series(p, 15, spin=True)
        t = parse_type("A%d^2" % (p - 1))
        for d in range(16):
            n_d = cartan_exponent(p, d, spin=True)
            ok = ok and n_d == nq[d] == exponent_totals(t, d)[1]
    ok = ok and cartan_series(3, 4, spin=True).coeffs == [0, 1, 2, 5, 8]
    report(7, ok, "spin N(d) = (T(q)-T(q^2))P(q)^((p-1)/2) = b(d) of "
                  "A_(2l)^(2), p in {3,5,7}, d <= 15")


def test_criterion_08_block_explorer():
    ok = True
    for n in range(11):
        p_n = len(enumerate_partitions(n))
        for p in (2, 3, 5):
            blocks = enumerate_blocks(n, p)
            ok = ok and sum(b.member_count for b in blocks) == p_n
            per_weight = {}
            for b in blocks:
                per_weight.setdefault(b.weight, set()).add(b.cartan_det)
            ok = ok and all(len(s) == 1 for s in per_weight.values())
    b42 = enumerate_blocks(4, 2)
    ok = ok and len(b42) == 1 and b42[0].weight == 2
    b43 = enumerate_blocks(4, 3)
    ok = ok and [b.weight for b in b43] == [1, 0, 0]
    report(8, ok, "blocks of S_n for n <= 10, p in {2,3,5}: counts, "
                  "uniform determinants, S_4 examples")


def test_criterion_09_property_suites():
    rng = random.Random(20240817)
    cases = 0
    ok = True
    for _ in range(110):  # det(S^m A) = (det A)^C(n+m-1, n)
        n, m = rng.randint(1, 3), rng.randint(0, 4)
        a = ExactMatrix([[rng.randint(-4, 4) for _ in range(n)]
                         for _ in range(n)])
        ok = ok and det_exact(sym_power(a, m)) == det_exact(a) ** comb(n + m - 1, n)
        cases += 1
    for _ in range(110):  # det(A (x) B) = det(A)^m det(B)^n
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = ExactMatrix([[rng.randint(-4, 4) for _ in range(n)]
                         for _ in range(n)])
        b = ExactMatrix([[rng.randint(-4, 4) for _ in range(m)]
                         for _ in range(m)])
        ok = ok and det_exact(kron(a, b)) == det_exact(a) ** m * det_exact(b) ** n
        cases += 1
    matrix_cases = cases

    # degree orthogonality of both forms
    for t in ALL_TYPES:
        oracle = FormOracle(t)
        monos = [m for d in range(5) for m in enumerate_basis(t, d)]
        for _ in range(40):
            f, g = rng.choice(monos), rng.choice(monos)
            if sum(n for n, _ in f) != sum(n for n, _ in g):
                ok = ok and oracle.form_s_mono(f, g) == 0
                ok = ok and oracle.form_k_mono(f, g) == 0

    # Lemma f2 at degree <= 4, exhaustively over basis monomials
    f2_pairs = 0
    for t in ALL_TYPES:
        engine, oracle = FormEngine(t), FormOracle(t)
        for d in range(5):
            basis = enumerate_basis(t, d)
            kdiag = {f: oracle.form_k_mono(f, f) for f in basis}
            for left in basis:
                z = z_in_y(engine, left)
                for f in basis:
                    coeff = z.get(f)
                    rhs = coeff * kdiag[f] if coeff is not None else 0
                    ok = ok and oracle.form_s_mono(left, f) == rhs
                    f2_pairs += 1

    # basis sizes against the dimension series
    for t in ALL_TYPES:
        dims = dimension_series(t, 10)
        for d in range(11):
            ok = ok and len(enumerate_basis(t, d)) == dims[d]

    report(9, ok, "%d randomized matrix identities, degree orthogonality, "
                  "%d Lemma-f2 pairs, basis dimensions" % (matrix_cases, f2_pairs))


def test_criterion_10_cli_contract(tmp_path, capsys):
    roster_code = main(["gram", "--roster", "--check", "-d", "2"])
    fixture = tmp_path / "perturbed.json"
    fixture.write_text(json.dumps({"gram": [[3, -1], [-1, 2]]}))
    corrupted_code = main(["gram", "A2^2", "-d", "2", "--check",
                           "--root-data", str(fixture)])
    capsys.readouterr()  # drop CLI output; the envelope is tested elsewhere
    ok = roster_code == 0 and corrupted_code == 1
    report(10, ok, "roster verification exits 0; perturbed Cartan fixture "
                   "exits 1 (got %d, %d)" % (roster_code, corrupted_code))
