from fractions import Fraction
from math import gcd

import pytest

from shapdet import roots
from shapdet.exact import (CycNumber, ExactMatrix, InternalCheckError,
                           as_integer, det_exact)
from shapdet.roots import (ROSTER, a_matrix, det_a, finite_root_data,
                           index_set, parse_type)

ALL_TYPES = [parse_type(name) for name in ROSTER]


def test_parse_table_rows():
    t = parse_type("A4^1")
    assert (t.ell, t.k, t.alpha, t.beta, t.r, t.a0) == (4, 0, 5, 1, 1, 1)
    t = parse_type("A2^2")
    assert (t.ell, t.k, t.alpha, t.beta, t.r, t.a0) == (1, 1, 1, 3, 2, 2)
    assert t.epsilon == 1 and t.I == (0,)
    t = parse_type("D4^3")
    assert (t.ell, t.k, t.alpha, t.beta, t.r, t.a0) == (2, 1, 1, 2, 3, 1)
    t = parse_type("A5^2")
    assert (t.ell, t.k, t.alpha, t.beta) == (3, 2, 2, 3)
    t = parse_type("D5^2")
    assert (t.ell, t.k, t.alpha, t.beta) == (4, 1, 2, 2)
    t = parse_type("E6^2")
    assert (t.ell, t.k, t.alpha, t.beta) == (4, 2, 1, 3)
    t = parse_type("E7^1")
    assert (t.ell, t.alpha, t.beta) == (7, 2, 1)
    assert parse_type("d4^3").name == "D4^3"  # case-insensitive


def test_parse_rejects_out_of_table():
    for bad in ("A3^2", "A1^2", "E9^1", "E5^1", "D3^1", "D2^2", "E7^2",
                "A4^3", "D5^3", "B2^1", "x", "A^1", "A2", "A2^0", "A-1^1"):
        with pytest.raises(ValueError):
            parse_type(bad)


def test_finite_data_a2_2():
    t = parse_type("A2^2")
    data = finite_root_data(t)
    assert data.nodes == (0, 2)
    assert data.mu == {0: 2, 2: 0}
    assert data.gram.rows == [[2, -1], [-1, 2]]
    assert data.d == {0: 1, 2: 1}
    assert data.c[0] == 2 and data.c[2] == 1


def test_finite_data_e6_2():
    t = parse_type("E6^2")
    data = finite_root_data(t)
    assert t.I == (1, 2, 3, 4)
    assert [data.d[i] for i in t.I] == [1, 1, 2, 2]
    assert data.mu == {1: 6, 6: 1, 2: 5, 5: 2, 3: 3, 4: 4}
    # paper numbering: 4 hangs off 3, and 3-5 are joined
    g = data.gram.rows  # nodes 1..6 at positions 0..5
    assert g[2][3] == -1
    assert g[2][4] == -1
    assert g[3][4] == 0


def test_finite_data_d4_3():
    t = parse_type("D4^3")
    data = finite_root_data(t)
    assert t.I == (1, 2)
    assert data.d == {1: 1, 3: 1, 4: 1, 2: 3}
    assert sorted(len(o) for o in data.orbits) == [1, 3]


def test_orbit_structure():
    for t in ALL_TYPES:
        data = finite_root_data(t)
        assert len(data.orbits) == t.ell
        for orbit in data.orbits:
            assert t.r % len(orbit) == 0
        reps = sorted(min(o) for o in data.orbits)
        assert reps == sorted(t.I)


def test_a_matrix_examples():
    t = parse_type("A2^2")
    assert a_matrix(t, 1).rows == [[3]]
    assert a_matrix(t, 2).rows == [[1]]
    t = parse_type("A4^1")
    am = a_matrix(t, 3)
    assert am == finite_root_data(t).gram
    assert as_integer(det_exact(am)) == 5


def test_a_matrix_d4_3():
    t = parse_type("D4^3")
    assert index_set(t, 1) == (1,)
    assert a_matrix(t, 1).rows == [[2]]
    am = a_matrix(t, 3)
    assert index_set(t, 3) == (1, 2)
    assert [[x for x in row] for row in am.rows] == [[2, -3], [-1, 2]]


def test_det_a_examples():
    assert det_a(parse_type("D4^3"), 3) == 1
    assert det_a(parse_type("D4^3"), 1) == 2
    assert det_a(parse_type("D5^2"), 2) == 2
    assert det_a(parse_type("D5^2"), 1) == 2
    assert det_a(parse_type("A2^2"), 0) == 1  # n = 0 reads as r | n


def test_det_a_roster():
    for t in ALL_TYPES:
        for n in range(1, 2 * t.r + 1):
            expected = t.alpha if n % t.r == 0 else t.beta
            assert det_a(t, n) == expected


def test_det_a_flags_corrupted_data(monkeypatch):
    t = parse_type("A1^1")
    monkeypatch.setattr(roots, "a_matrix",
                        lambda t, n, gram=None: ExactMatrix([[3]]))
    with pytest.raises(InternalCheckError):
        det_a(t, 1)


def test_mu_of_wrong_order_is_refused(monkeypatch):
    # Swapping the outer nodes 1 and 3 of D4 is a gram isometry of order 2,
    # not the triality of order 3 that D4^3 needs.
    diagram = roots._diagram

    def swapped(t):
        nodes, edges, _ = diagram(t)
        return nodes, edges, {1: 3, 3: 1, 2: 2, 4: 4}

    monkeypatch.setattr(roots, "_diagram", swapped)
    finite_root_data.cache_clear()
    with pytest.raises(InternalCheckError) as exc:
        finite_root_data(parse_type("D4^3"))
    assert str(exc.value) == "D4^3: mu has order 2, expected 3"


def test_a_matrix_periodicity():
    for t in ALL_TYPES:
        for n in range(1, 3 * t.r + 1):
            rep = n % t.r or t.r
            assert a_matrix(t, n) == a_matrix(t, rep)
            assert index_set(t, n) == index_set(t, rep)


def test_a_matrix_entries_are_ints():
    # Every built-in A^(n) is integral, and a_matrix returns such an entry
    # as an int, also on D4^3 where it is summed in Q(zeta_3).
    for t in ALL_TYPES + [parse_type("E7^1"), parse_type("E8^1")]:
        for n in range(1, 13):
            rows = a_matrix(t, n).rows
            assert all(type(x) is int for row in rows for x in row), (t, n)


def test_a_matrix_keeps_field_entries_of_fixtures():
    # A genuine zeta_3 part stays a CycNumber, a non-integral value a
    # CycNumber for r = 3 and a Fraction else; an integral entry beside
    # them is still an int.
    t = parse_type("D4^3")
    gram = [[2, -1, -1, 0], [-1, 2, -1, -1], [-1, -1, 2, 0], [0, -1, 0, 2]]
    g = ExactMatrix(gram)
    assert a_matrix(t, 1, g).rows == [[CycNumber(2, -1)]]
    assert type(a_matrix(t, 1, g).rows[0][0]) is CycNumber
    assert a_matrix(t, 3, g).rows == [[1, -3], [-1, 2]]
    assert all(type(x) is int
               for row in a_matrix(t, 3, g).rows for x in row)
    # A non-integral entry on a row with d_i = 3 keeps its division by d_i:
    # (g(2,1) + g(2,3) + g(2,4)) / 3 = (-2 - 1 - 1) / 3.
    gram[1][0] = -2
    g = ExactMatrix(gram)
    assert a_matrix(t, 3, g).rows == [
        [1, -3], [CycNumber(Fraction(-4, 3)), 2]]
    t = parse_type("A2^1")
    g = ExactMatrix([[2, Fraction(-1, 2)], [-1, 2]])
    assert [[type(x) for x in row] for row in a_matrix(t, 1, g).rows
            ] == [[int, Fraction], [int, int]]


def test_index_set_sizes():
    for t in ALL_TYPES:
        for n in range(1, 3 * t.r + 1):
            size = len(index_set(t, n))
            assert size == (t.ell if n % t.r == 0 else t.k)


def test_cartan_determinant_identity():
    for t in ALL_TYPES:
        data = finite_root_data(t)
        assert as_integer(det_exact(data.gram)) == t.alpha * t.beta ** (t.r - 1)


def test_k_counts_nodes_with_unit_period():
    for t in ALL_TYPES:
        if t.r == 1:
            continue  # all d_i = 1 = r; the off-period case is vacuous
        data = finite_root_data(t)
        assert sum(1 for i in t.I if data.d[i] == 1) == t.k


# ---------------------------------------------------------------------------
# Independent oracle: recover the affine marks and comarks from the twisted
# pairing, and confirm d_i = c_i * comark_i / mark_i node by node.
# ---------------------------------------------------------------------------

def _highest_root(data):
    """Highest root of the simply-laced finite system, by closure from the
    simple roots (u + alpha_i is a root iff (u | alpha_i) = -1)."""
    nodes = data.nodes
    pos = {i: p for p, i in enumerate(nodes)}
    simples = []
    for i in nodes:
        v = [0] * len(nodes)
        v[pos[i]] = 1
        simples.append(tuple(v))
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for v in frontier:
            for p, i in enumerate(nodes):
                ip = sum(v[q] * data.gram.rows[q][pos[i]] for q in range(len(nodes)))
                if ip == -1:
                    w = list(v)
                    w[p] += 1
                    w = tuple(w)
                    if w not in roots:
                        roots.add(w)
                        new.append(w)
        frontier = new
    return max(roots, key=sum)


def _neg_alpha_epsilon(t, data):
    """-alpha'_epsilon in simple-root coordinates, per type."""
    nodes = data.nodes
    pos = {i: p for p, i in enumerate(nodes)}
    coeffs = {
        ("A", 2): {i: 1 for i in range(1, t.N - 1)},          # A_{2l-1}^(2)
        ("D", 2): {i: 1 for i in range(1, t.ell + 1)},        # D_{l+1}^(2)
        ("E", 2): {1: 1, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1},       # E6^(2)
        ("D", 3): {2: 1, 3: 1, 4: 1},                         # D4^(3)
    }
    if t.r == 1 or (t.family == "A" and t.N % 2 == 0):
        return list(_highest_root(data))
    v = [0] * len(nodes)
    for i, c in coeffs[(t.family, t.r)].items():
        v[pos[i]] = c
    return v


def _null_vector(rows):
    """Primitive positive integer kernel vector of a singular matrix."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    piv_cols = []
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        piv_cols.append(col)
        rank += 1
    assert rank == n - 1, "expected a one-dimensional kernel"
    free = next(c for c in range(n) if c not in piv_cols)
    sol = [Fraction(0)] * n
    sol[free] = Fraction(1)
    for row, col in zip(a, piv_cols):
        sol[col] = -row[free]
    mult = 1
    for x in sol:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    ints = [int(x * mult) for x in sol]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    if any(x < 0 for x in ints):
        ints = [-x for x in ints]
    assert all(x > 0 for x in ints)
    return ints


def _affine_cartan(t):
    """Affine Cartan matrix on I + {epsilon} from the mu-twisted pairing."""
    data = finite_root_data(t)
    nodes = data.nodes
    pos = {i: p for p, i in enumerate(nodes)}

    def pair_mu(u, v):
        # (u | sum_s mu^s v)' for coordinate vectors over the finite diagram
        total = 0
        image = [0] * len(nodes)
        for p, c in enumerate(v):
            if not c:
                continue
            j = nodes[p]
            for _ in range(t.r):
                image[pos[j]] += c
                j = data.mu[j]
        for p, cu in enumerate(u):
            if cu:
                for q, cv in enumerate(image):
                    if cv:
                        total += cu * cv * data.gram.rows[p][q]
        return total

    reps = {}
    for i in t.I:
        v = [0] * len(nodes)
        v[pos[i]] = 1
        reps[i] = v
    neg_eps = _neg_alpha_epsilon(t, data)
    reps[t.epsilon] = [-c for c in neg_eps]

    labels = sorted(reps)  # 0..ell
    gram_bar = {(x, y): pair_mu(reps[x], reps[y]) for x in labels for y in labels}
    cartan = [[Fraction(2 * gram_bar[(x, y)], gram_bar[(x, x)]) for y in labels]
              for x in labels]
    assert all(c.denominator == 1 for row in cartan for c in row)
    return labels, [[int(c) for c in row] for row in cartan]


def test_marks_comarks_reproduce_d_and_a0():
    for t in ALL_TYPES:
        labels, cartan = _affine_cartan(t)
        assert all(cartan[i][i] == 2 for i in range(len(labels)))
        marks = _null_vector(cartan)
        comarks = _null_vector([list(col) for col in zip(*cartan)])
        data = finite_root_data(t)
        by_label = dict(zip(labels, marks))
        by_label_dual = dict(zip(labels, comarks))
        assert by_label[0] == t.a0
        for i in t.I:
            num = data.c[i] * by_label_dual[i]
            assert num % by_label[i] == 0
            assert num // by_label[i] == data.d[i]
