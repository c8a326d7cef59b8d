import random

import pytest

from shapdet.partitions import enumerate_partitions
from shapdet.roots import ROSTER, parse_type
from shapdet.series import (TruncSeries, ab_series, cartan_series,
                            dimension_series, divisor_series, partition_series)

from oracles import coloring_series


def brute_divisors(n):
    return sum(1 for i in range(1, n + 1) if n % i == 0)


def test_partition_series_values():
    P = partition_series(6)
    assert P.coeffs == [1, 1, 2, 3, 5, 7, 11]
    # the Euler product vs direct enumeration
    P = partition_series(25)
    for d in range(26):
        assert P[d] == len(enumerate_partitions(d))


def test_dimension_series_is_the_power_product():
    # dimension_series divides out prod_n (1 - q^n)^|I(n)| in place; the
    # paper writes it P(q)^k P(q^r)^(ell-k), by power and substitute.
    D = 30
    P = partition_series(D)
    for name in ROSTER + ("E7^1", "E8^1", "A7^2", "D6^2"):
        t = parse_type(name)
        want = P.power(t.k) * P.substitute(t.r).power(t.ell - t.k)
        assert dimension_series(t, D) == want, name
        assert dimension_series(t, 0) == TruncSeries.one(0)


def test_divisor_series_values():
    T = divisor_series(6)
    assert T.coeffs == [0, 1, 2, 2, 3, 2, 4]
    T = divisor_series(40)
    for d in range(1, 41):
        assert T[d] == brute_divisors(d)


def test_euler_product_inverse():
    D = 18
    P = partition_series(D)
    euler = TruncSeries.one(D)
    for i in range(1, D + 1):
        factor = TruncSeries(D)
        factor.coeffs[0] = 1
        factor.coeffs[i] = -1
        euler = euler * factor
    assert (P * euler) == TruncSeries.one(D)


def test_substitute():
    T = divisor_series(6)
    assert T.substitute(2).coeffs == [0, 0, 1, 0, 2, 0, 2]
    P = partition_series(9)
    assert P.substitute(3).coeffs == [1, 0, 0, 1, 0, 0, 2, 0, 0, 3]


def test_ring_ops():
    rng = random.Random(5150)
    D = 10
    assert partition_series(D).power(0) == TruncSeries.one(D)
    for _ in range(25):
        a = TruncSeries(D, [rng.randint(-4, 4) for _ in range(D + 1)])
        b = TruncSeries(D, [rng.randint(-4, 4) for _ in range(D + 1)])
        c = TruncSeries(D, [rng.randint(-4, 4) for _ in range(D + 1)])
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    with pytest.raises(ValueError):
        partition_series(5) * partition_series(6)
    with pytest.raises(ValueError):
        partition_series(5).power(-1)


def test_ab_series_examples():
    aq, bq = ab_series(parse_type("A1^1"), 4)
    assert aq.coeffs == [0, 1, 3, 6, 12]
    assert bq.coeffs == [0, 0, 0, 0, 0]
    aq, bq = ab_series(parse_type("A2^2"), 4)
    assert bq.coeffs == [0, 1, 2, 5, 8]
    # a(q) = T(q^2) P(q): 1*p(2) + 2*p(0) = 4 at degree 4
    assert aq.coeffs == [0, 0, 1, 1, 4]
    for t in (parse_type("A1^1"), parse_type("D4^3")):
        aq, bq = ab_series(t, 3)
        assert aq[0] == 0 and bq[0] == 0


def test_cartan_series_examples():
    assert cartan_series(2, 4).coeffs == [0, 1, 3, 6, 12]
    assert cartan_series(3, 4, spin=True).coeffs == [0, 1, 2, 5, 8]
    assert cartan_series(3, 1)[1] == 1
    with pytest.raises(ValueError):
        cartan_series(1, 5)
    with pytest.raises(ValueError):
        cartan_series(4, 5, spin=True)


def test_cartan_series_matches_untwisted_a():
    for p in (2, 3, 5, 7):
        want = ab_series(parse_type("A%d^1" % (p - 1)), 20)[0]
        assert cartan_series(p, 20) == want


def test_spin_series_matches_twisted_b():
    for p in (3, 5, 7):
        want = ab_series(parse_type("A%d^2" % (p - 1)), 20)[1]
        assert cartan_series(p, 20, spin=True) == want


def test_coloring_series_counts():
    D = 10
    for name in ("A1^1", "A2^2", "A5^2", "D4^3", "E6^2"):
        t = parse_type(name)
        G = coloring_series(t, D)
        assert G.at_ones() == dimension_series(t, D)


def test_coloring_series_markers():
    G = coloring_series(parse_type("A1^1"), 4)
    assert G.coefficient(2, 1, 0) == 1  # partition (2)
    assert G.coefficient(2, 2, 0) == 1  # partition (1, 1)
    assert G.coefficient(3, 5, 0) == 0


def test_marker_derivatives_reproduce_ab():
    D = 12
    for name in ROSTER:
        t = parse_type(name)
        G = coloring_series(t, D)
        aq, bq = ab_series(t, D)
        da = G.marker_derivative("t")
        assert all(x == t.ell * y for x, y in zip(da.coeffs, aq.coeffs))
        du = G.marker_derivative("u")
        if t.k:
            assert all(x == t.k * y for x, y in zip(du.coeffs, bq.coeffs))
        else:
            assert all(x == 0 for x in du.coeffs)
