import random
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (FockSpace, p_bar_core, residue_content,
                     restricted_p_strict, spin_defect, spin_form)
from shapdet.blocks import BlockRecord, cartan_exponent, enumerate_blocks, p_core
from shapdet.exact import ExactMatrix, det_exact
from shapdet.gram import verify
from shapdet.partitions import _runs, enumerate_basis, enumerate_partitions
from shapdet.roots import parse_type
from shapdet.series import cartan_series


def hook_lengths(lam):
    cols = [0] * (lam[0] if lam else 0)
    for row in lam:
        for j in range(row):
            cols[j] += 1
    hooks = []
    for i, row in enumerate(lam):
        for j in range(row):
            hooks.append(row - j + cols[j] - i - 1)
    return hooks


def random_order_core(lam, p, rng):
    """Oracle: slide one bead at a time in random order until stuck."""
    n = sum(lam)
    length = max(len(lam), n)
    if length == 0:
        return (), 0
    padded = list(lam) + [0] * (length - len(lam))
    beta = set(padded[i] + (length - 1 - i) for i in range(length))
    moves = 0
    while True:
        movable = [b for b in beta if b >= p and (b - p) not in beta]
        if not movable:
            break
        b = rng.choice(movable)
        beta.remove(b)
        beta.add(b - p)
        moves += 1
    ordered = sorted(beta, reverse=True)
    parts = tuple(x for x in (ordered[i] - (length - 1 - i)
                              for i in range(length)) if x > 0)
    return parts, moves


def test_p_core_examples():
    assert p_core((1,), 2) == ((1,), 0)
    assert p_core((2, 1), 2) == ((2, 1), 0)
    assert p_core((4,), 2) == ((), 2)
    assert p_core((), 5) == ((), 0)
    with pytest.raises(ValueError):
        p_core((3, 1), 1)


def test_p_core_matches_random_order_sliding():
    rng = random.Random(909090)
    for d in range(11):
        for lam in enumerate_partitions(d):
            for p in (2, 3, 5):
                assert p_core(lam, p) == random_order_core(lam, p, rng)


def rim_hook_removals(lam, p):
    """The partitions left by removing one rim hook of length p from lam,
    one for each cell of hook length p, on the diagram itself."""
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0])] if lam else []
    out = []
    for i, row in enumerate(lam):
        for j in range(row):
            leg = cols[j] - i - 1
            if row - j + leg == p:  # arm + leg + 1
                mu = list(lam)
                for r in range(i, i + leg):
                    mu[r] = lam[r + 1] - 1
                mu[i + leg] = j
                out.append(tuple(x for x in mu if x))
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_p_core_does_not_depend_on_hook_removal_order(data):
    # Each step removes a rim hook that hypothesis picks among all of them.
    p = data.draw(st.integers(2, 5))
    lam = data.draw(st.sampled_from(enumerate_partitions(
        data.draw(st.integers(0, 14)))))
    mu, weight = lam, 0
    while True:
        options = rim_hook_removals(mu, p)
        if not options:
            break
        mu = data.draw(st.sampled_from(options))
        assert list(mu) == sorted(mu, reverse=True)
        weight += 1
    assert p_core(lam, p) == (mu, weight)


def test_core_has_no_p_hooks():
    for d in range(11):
        for lam in enumerate_partitions(d):
            for p in (2, 3, 5):
                core, weight = p_core(lam, p)
                assert not any(h % p == 0 for h in hook_lengths(core))
                assert sum(core) + p * weight == d
                assert p_core(core, p) == (core, 0)


def test_core_congruence():
    for n in range(13):
        for lam in enumerate_partitions(n):
            for p in (2, 3, 5):
                core, weight = p_core(lam, p)
                assert sum(core) % p == n % p
                assert weight >= 0


def test_enumerate_blocks_examples():
    blocks = enumerate_blocks(4, 2)
    assert len(blocks) == 1
    b = blocks[0]
    assert b.core == () and b.weight == 2 and b.member_count == 5
    assert b.cartan_exponent == 3 and b.cartan_det == 8

    blocks = enumerate_blocks(3, 3)
    assert len(blocks) == 1
    assert blocks[0].core == () and blocks[0].weight == 1
    assert blocks[0].cartan_det == 3

    blocks = enumerate_blocks(4, 3)
    assert [(b.core, b.weight) for b in blocks] == \
        [((1,), 1), ((3, 1), 0), ((2, 1, 1), 0)]
    assert [b.cartan_det for b in blocks] == [3, 1, 1]


def test_block_member_counts_sum():
    for n in range(11):
        for p in (2, 3, 5):
            blocks = enumerate_blocks(n, p)
            assert sum(b.member_count for b in blocks) == \
                len(enumerate_partitions(n))


def test_equal_weight_blocks_have_equal_determinant():
    for n in range(11):
        for p in (2, 3, 5):
            dets = {}
            for b in enumerate_blocks(n, p):
                dets.setdefault(b.weight, set()).add(b.cartan_det)
            assert all(len(s) == 1 for s in dets.values())


def test_cartan_exponent_examples():
    assert cartan_exponent(2, 2) == 3
    assert cartan_exponent(3, 1, spin=True) == 1
    for p in (2, 3, 7):
        assert cartan_exponent(p, 0) == 0
    assert cartan_exponent(3, 0, spin=True) == 0
    with pytest.raises(ValueError):
        cartan_exponent(1, 3)
    with pytest.raises(ValueError):
        cartan_exponent(4, 3, spin=True)
    with pytest.raises(ValueError):
        cartan_exponent(2, 3, spin=True)
    # A5^2 parses, but it is A_{2l-1}^(2), not the spin family A_{p-1}^(2).
    with pytest.raises(ValueError):
        cartan_exponent(6, 2, spin=True)
    with pytest.raises(ValueError):
        cartan_series(6, 4, spin=True)


def _closed_form_exponent(p, d, spin=False):
    """Oracle: N(d) as the partition sum of prod_m C(c + m, m) * s / (p - 1),
    with c = p - 2 and s = #parts, or, for spin, c = (p - 3)/2 and
    s = 2 * #odd parts."""
    total = 0
    for lam in enumerate_partitions(d):
        if spin:
            s = 2 * sum(m for size, m in _runs(lam) if size % 2 == 1)
            c = (p - 3) // 2
        else:
            s = sum(m for _, m in _runs(lam))
            c = p - 2
        prod = 1
        for _, m in _runs(lam):
            prod *= comb(c + m, m)
        assert prod * s % (p - 1) == 0
        total += prod * s // (p - 1)
    return total


def test_cartan_exponent_matches_series():
    # p = 2..11 includes the non-prime (Hecke) p = 4, 6, 8, 9, 10.
    for p in range(2, 12):
        N = cartan_series(p, 18)
        for d in range(19):
            assert cartan_exponent(p, d) == N[d] == _closed_form_exponent(p, d)
    for p in range(3, 12, 2):
        N = cartan_series(p, 18, spin=True)
        for d in range(19):
            assert (cartan_exponent(p, d, spin=True) == N[d]
                    == _closed_form_exponent(p, d, spin=True))


def test_cartan_exponent_caches_no_partitions():
    # series -p P --max-degree D walks every d <= D; holding the partitions
    # of each d in a cache made its memory grow with p(D).
    enumerate_partitions.cache_clear()
    for d in range(31):
        cartan_exponent(2, d)
    assert enumerate_partitions.cache_info().currsize == 0


def test_nonprime_p_is_allowed():
    # Hecke-algebra case: p need not be prime
    blocks = enumerate_blocks(6, 4)
    assert sum(b.member_count for b in blocks) == len(enumerate_partitions(6))
    assert all(b.cartan_det == 4 ** b.cartan_exponent for b in blocks)


@lru_cache(maxsize=None)
def _det_m(name, w):
    report = verify(parse_type(name), w)
    assert report.ok
    return report.det_M


def test_block_determinants_equal_gram_determinants():
    # The corollaries against the Gram engine rather than the series: det C
    # of a weight-w block is det M_w of A_{p-1}^(1) (alpha = p, beta = 1),
    # and p^N(w) for spin is det M_w of A_{p-1}^(2) (alpha = 1, beta = p).
    blocks = [(p, b) for p in range(2, 6) for n in range(9)
              for b in enumerate_blocks(n, p)]
    assert len(blocks) == 104
    for p, b in blocks:
        assert b.cartan_det == _det_m("A%d^1" % (p - 1), b.weight)
    for p in (3, 5):
        for w in range(6):
            assert (p ** cartan_exponent(p, w, spin=True)
                    == _det_m("A%d^2" % (p - 1), w))


def _check_llt(fock, n):
    """Check the LLT decomposition matrix of S_n at e = fock.e: d_mu,mu = 1,
    d_lam,mu in vN[v] off the diagonal, lam and mu in one e-block, and
    det(D^T D) of every block equal to its cartan_det and, up to weight 4,
    to det M of A_{e-1}^1.  Returns the number of blocks."""
    e = fock.e
    G = fock.canonical_basis(n)
    cores = {mu: p_core(mu, e)[0] for mu in G}
    for mu, column in G.items():
        assert column[mu] == {0: 1}
        for lam, poly in column.items():
            assert p_core(lam, e)[0] == cores[mu]
            assert lam == mu or (min(poly) >= 1
                                 and all(x > 0 for x in poly.values()))
    records = enumerate_blocks(n, e)
    for b in records:
        columns = [G[mu] for mu in G if cores[mu] == b.core]
        D = [[sum(column.get(lam, {}).values()) for column in columns]
             for lam in {lam for column in columns for lam in column}]
        C = [[sum(row[i] * row[j] for row in D) for j in range(len(columns))]
             for i in range(len(columns))]
        det = det_exact(ExactMatrix(C))
        assert det == b.cartan_det
        if b.weight <= 4:
            assert det == _det_m("A%d^1" % (e - 1), b.weight)
    return len(records)


def test_hecke_cartan_determinants_from_the_canonical_basis():
    # Both halves of the Hecke corollary against a brute-force Cartan
    # matrix: e = 4 is not prime.
    assert sum(_check_llt(FockSpace(e), n)
               for e in range(2, 6) for n in range(13)) == 228


class _SteepLadders(FockSpace):
    def ladder(self, r, c):
        return r + self.e * c


class _SmallerContent(FockSpace):
    def beyond(self, content, gamma):
        return content < gamma


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("fock", [_SteepLadders, _SmallerContent])
def test_canonical_basis_oracle_bites(fock, e):
    with pytest.raises(AssertionError):
        for n in range(4):
            _check_llt(fock(e), n)


def _spin_classes(p, n, swapped=False):
    """{residue content: (restricted p-strict, strict partitions of n)}."""
    classes = {}
    for lam in restricted_p_strict(n, p, swapped):
        classes.setdefault(residue_content(lam, p), ([], []))[0].append(lam)
    for lam in enumerate_partitions(n):
        if len(set(lam)) == len(lam):
            classes.setdefault(residue_content(lam, p), ([], []))[1].append(lam)
    return classes


@pytest.mark.parametrize("p", [3, 5, 7])
def test_restricted_p_strict_partitions_count_the_spin_simples(p):
    # The spin simples of one block of the double cover of S_n, labelled by
    # the restricted p-strict partitions of one residue content (Brundan-
    # Kleshchev), are as many as the basis of A_(p-1)^(2) at the defect w;
    # the strict partitions of that content share one p-bar core, of bar
    # weight w (Humphreys).
    t, ell = parse_type("A%d^2" % (p - 1)), (p - 1) // 2
    delta = [2] * ell + [1]
    assert all(sum(f * c for f, c in zip(row, delta)) == 0
               for row in spin_form(p))
    count = 0
    for n in range(21):
        for gamma, (simples, strict) in _spin_classes(p, n).items():
            w = spin_defect(gamma, p)
            assert len(simples) == len(enumerate_basis(t, w)), (n, gamma)
            cores = {p_bar_core(lam, p) for lam in strict}
            assert len(cores) == 1 and n - sum(*cores) == p * w, (n, gamma)
            count += 1
    assert count == {3: 37, 5: 67, 7: 107}[p]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_spin_count_oracle_bites(p):
    # With the two inequalities swapped, the count fails already at w = 1.
    t, n = parse_type("A%d^2" % (p - 1)), p
    counts = {spin_defect(gamma, p): len(simples) for gamma, (simples, _)
              in _spin_classes(p, n, swapped=True).items()}
    assert counts[1] != len(enumerate_basis(t, 1))
