import pytest

from shapdet import partitions
from shapdet.exact import InternalCheckError
from shapdet.partitions import (enumerate_basis, enumerate_partitions,
                                exponent_totals, exponents, multiplicities)
from shapdet.roots import ROSTER, parse_type
from shapdet.series import ab_series, dimension_series

ALL_TYPES = [parse_type(name) for name in ROSTER]


def test_enumeration_counts_and_order():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1),
                                       (1, 1, 1, 1))
    assert len(enumerate_partitions(6)) == 11
    assert len(enumerate_partitions(10)) == 42
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def _recursive_partitions(remaining, maxpart):
    """Oracle: the partitions with parts <= maxpart, largest part first."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, maxpart), 0, -1):
        for rest in _recursive_partitions(remaining - first, first):
            yield (first,) + rest


def test_enumeration_matches_recursive_oracle():
    for d in range(23):
        assert enumerate_partitions(d) == tuple(_recursive_partitions(d, d))


def test_multiplicity_round_trip():
    for d in range(13):
        for lam in enumerate_partitions(d):
            mult = multiplicities(lam)
            assert tuple(n for n in sorted(mult, reverse=True)
                         for _ in range(mult[n])) == lam
    assert multiplicities((3, 1, 1)) == {3: 1, 1: 2}


def test_exponent_examples():
    assert exponents(parse_type("A1^1"), (1,)) == (1, 0)
    t = parse_type("A2^2")
    assert exponents(t, (1,)) == (0, 1)
    assert exponents(t, (1, 1)) == (0, 2)
    for t in ALL_TYPES:
        assert exponents(t, ()) == (0, 0)


def test_exponent_totals_examples():
    assert exponent_totals(parse_type("A1^1"), 2) == (3, 0)
    assert exponent_totals(parse_type("A2^2"), 2) == (1, 2)
    for t in ALL_TYPES:
        assert exponent_totals(t, 0) == (0, 0)
    with pytest.raises(ValueError):
        exponent_totals(parse_type("A1^1"), -1)


def test_untwisted_b_vanishes():
    for t in ALL_TYPES:
        if t.r != 1:
            continue
        for d in range(7):
            for lam in enumerate_partitions(d):
                assert exponents(t, lam)[1] == 0


def test_exponents_nonnegative_integers():
    for t in ALL_TYPES:
        for d in range(9):
            for lam in enumerate_partitions(d):
                a, b = exponents(t, lam)
                assert isinstance(a, int) and isinstance(b, int)
                assert a >= 0 and b >= 0


def test_totals_match_series():
    for t in ALL_TYPES:
        aq, bq = ab_series(t, 12)
        for d in range(13):
            assert exponent_totals(t, d) == (aq[d], bq[d])


def test_basis_examples():
    t = parse_type("A1^1")
    assert enumerate_basis(t, 2) == (((2, 1),), ((1, 1), (1, 1)))
    assert len(enumerate_basis(parse_type("A2^1"), 4)) == 20
    assert enumerate_basis(parse_type("A2^2"), 1) == (((1, 0),),)


def test_basis_colors_respect_periods():
    t = parse_type("D4^3")
    for d in range(6):
        for mono in enumerate_basis(t, d):
            for n, i in mono:
                if i == 2:  # the mu-fixed central node only colors 3-divisible parts
                    assert n % 3 == 0
    # degree 1 and 2 have only the short-period color
    assert enumerate_basis(t, 1) == (((1, 1),),)
    assert enumerate_basis(t, 3)[-1] == ((1, 1), (1, 1), (1, 1))


def test_basis_sizes_match_dimension_series():
    for t in ALL_TYPES:
        dims = dimension_series(t, 10)
        for d in range(11):
            assert len(enumerate_basis(t, d)) == dims[d]


def test_basis_canonical_shape():
    for t in ALL_TYPES:
        for d in range(7):
            seen = set()
            for mono in enumerate_basis(t, d):
                parts = [n for n, _ in mono]
                assert parts == sorted(parts, reverse=True)
                assert sum(parts) == d
                for (n1, c1), (n2, c2) in zip(mono, mono[1:]):
                    if n1 == n2:
                        assert c1 <= c2
                assert mono not in seen
                seen.add(mono)


@pytest.mark.parametrize("name, lam, text", [
    ("A2^1", (1,), "a_lam is not integral for A2^1, ((1, 1),)"),
    ("A5^2", (1,), "b_lam is not integral for A5^2, ((1, 1),)"),
])
def test_exponents_assert_both_halves_integral(monkeypatch, name, lam, text):
    # With every binomial read as 1, a_lam = s / ell and b_lam = s / k
    # over one part: ell = 2 for A2^1 (untwisted, all in the a-half) and
    # k = 2 for A5^2 on a part of size 1 (odd, so in the b-half).
    monkeypatch.setattr(partitions, "comb", lambda n, k: 1)
    with pytest.raises(InternalCheckError) as exc:
        exponents(parse_type(name), lam)
    assert str(exc.value) == text
