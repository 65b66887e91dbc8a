import random

import pytest

from symprod import lattice
from symprod.lattice import (
    DimensionError,
    all_in_lattice,
    determinant,
    hermite_nonzero,
    hermite_rows,
    lattice_equal,
    lattice_membership,
    rank,
    smith,
    xgcd,
)
from symprod.quotient import ideal_degree_rows, ideal_generators


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def nonzero_rows(m):
    return [row for row in m if any(row)]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def hermite_with_transform(m):
    """Reference row Hermite form that also carries the transform.

    Returns (H, U) with U * m = H and U unimodular, by the same elimination
    as ``hermite_nonzero`` applied to the augmented rows [m | I]; H keeps
    its zero rows, at the bottom.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [row.copy() for row in m]
    u = identity(rows)

    def sub(i, j, q):
        for mat in (h, u):
            mat[i] = [a - q * b for a, b in zip(mat[i], mat[j])]

    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        src = next((i for i in range(pivot_row, rows) if h[i][col]), None)
        if src is None:
            continue
        for mat in (h, u):
            mat[pivot_row], mat[src] = mat[src], mat[pivot_row]
        for i in range(pivot_row + 1, rows):
            if not h[i][col]:
                continue
            a, b = h[pivot_row][col], h[i][col]
            if b % a == 0:
                sub(i, pivot_row, b // a)
            else:
                g, x, y = xgcd(a, b)
                ag, bg = a // g, b // g
                for mat in (h, u):
                    ri, rj = mat[pivot_row], mat[i]
                    mat[pivot_row] = [x * p + y * q for p, q in zip(ri, rj)]
                    mat[i] = [-bg * p + ag * q for p, q in zip(ri, rj)]
        if h[pivot_row][col] < 0:
            for mat in (h, u):
                mat[pivot_row] = [-v for v in mat[pivot_row]]
        p = h[pivot_row][col]
        for j in range(pivot_row):
            q = h[j][col] // p
            if q:
                sub(j, pivot_row, q)
        pivot_row += 1
    return h, u


def smith_reference(m):
    """Reference Smith invariants by dense pivoting on all of m.

    The dense loop ``smith`` ran on every matrix before it read unit
    pivots off the Hermite form; here it runs on m itself, without the
    Hermite step, so it shares no code with ``smith``.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0 or cols == 0:
        return []
    a = [row.copy() for row in m]
    nr, nc = rows, cols
    invariants = []
    top = 0
    while top < nr and top < nc:
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, pi, pj = best
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            for i in range(top + 1, nr):
                while a[i][top]:
                    q = a[i][top] // a[top][top]
                    if q:
                        for k in range(nc):
                            a[i][k] -= q * a[top][k]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
            for j in range(top + 1, nc):
                while a[top][j]:
                    q = a[top][j] // a[top][top]
                    if q:
                        for row in a:
                            row[j] -= q * row[top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
            if all(a[i][top] == 0 for i in range(top + 1, nr)):
                if all(a[top][j] == 0 for j in range(top + 1, nc)):
                    break
        d = abs(a[top][top])
        offender = next(((i, j) for i in range(top + 1, nr)
                         for j in range(top + 1, nc) if a[i][j] % d), None)
        if offender is not None:
            i, _ = offender
            for k in range(nc):
                a[top][k] += a[i][k]
            continue
        invariants.append(d)
        top += 1
    invariants.extend([0] * (min(rows, cols) - len(invariants)))
    return invariants


def random_unimodular(rng, n, steps=12):
    """A product of random row shears and swaps of the n x n identity."""
    u = identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.2:
            u[i], u[j] = u[j], u[i]
        else:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def assert_hermite_shape(h):
    # pivots positive, entries above each pivot reduced into [0, pivot),
    # zero rows at the bottom
    seen_zero = False
    for i, row in enumerate(h):
        piv_col = next((j for j, e in enumerate(row) if e), None)
        if piv_col is None:
            seen_zero = True
            continue
        assert not seen_zero
        assert row[piv_col] > 0
        for above in range(i):
            assert 0 <= h[above][piv_col] < row[piv_col]


def test_xgcd():
    for a, b in [(0, 0), (4, 6), (-4, 6), (12, 0), (0, -7), (35, 21)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hermite_identity():
    assert hermite_nonzero(identity(3)) == identity(3)
    h, u = hermite_with_transform(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hermite_reduces_above_pivot():
    # [[2,1],[0,1]]: subtract the second row once from the first.
    assert hermite_nonzero([[2, 1], [0, 1]]) == [[2, 0], [0, 1]]
    h, u = hermite_with_transform([[2, 1], [0, 1]])
    assert h == [[2, 0], [0, 1]]
    assert mat_mul(u, [[2, 1], [0, 1]]) == h


def test_hermite_zero_matrix():
    assert hermite_nonzero([[0, 0], [0, 0]]) == []
    h, u = hermite_with_transform([[0, 0], [0, 0]])
    assert h == [[0, 0], [0, 0]]
    assert u == identity(2)


def test_hermite_transform_is_unimodular():
    m = [[6, 10, 15], [10, 15, 6], [15, 6, 10]]
    h = hermite_nonzero(m)
    ref_h, u = hermite_with_transform(m)
    assert h == ref_h
    assert mat_mul(u, m) == h
    assert abs(determinant(u)) == 1
    assert_hermite_shape(h)


def _random_matrices(rng):
    yield []
    yield [[]]
    yield [[0] * 5 for _ in range(7)]
    for _ in range(150):
        # small dense matrices with mixed-sign entries
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        yield [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
    for _ in range(150):
        # tall, sparse, 1-2 bit entries, like the ideal rows
        rows, cols = rng.randrange(2, 40), rng.randrange(2, 9)
        m = [[0] * cols for _ in range(rows)]
        for row in m:
            for _ in range(rng.choice((0, 1, 2, 2, 3))):
                row[rng.randrange(cols)] = rng.choice((-2, -1, 1, 2))
        yield m


def test_hermite_matches_transform_reference_random():
    rng = random.Random(31337)
    count = 0
    for m in _random_matrices(rng):
        h = hermite_nonzero(m)
        ref_h, u = hermite_with_transform(m)
        assert h == nonzero_rows(ref_h)
        assert_hermite_shape(h)
        if m and m[0]:
            assert mat_mul(u, m) == ref_h
        count += 1
    assert count == 303


def test_hermite_matches_transform_reference_on_ideal_matrices():
    # the spanning rows `verify` certifies, every degree up to 2n+2
    cases = [(2, 3, "full"), (2, 3, "stable"), (3, 3, "full"), (3, 3, "minimal_odd"),
             (3, 4, "full"), (3, 4, "minimal_even")]
    for g, n, mode in cases:
        gens = ideal_generators(g, n, mode)
        for s in range(2 * n + 3):
            m = ideal_degree_rows(gens, s)
            assert hermite_nonzero(m) == nonzero_rows(hermite_with_transform(m)[0]), \
                (g, n, mode, s)


def _gcd_and_sign_matrices(rng):
    # leading entries that do not divide each other force the gcd step;
    # a pivot column whose rows all lead negative forces the sign flip
    yield [[2, 1], [3, 0]]
    yield [[-3, 1]]
    yield [[0, -2, 4], [0, 0, 0], [0, -2, 4], [0, -3, 5]]
    for _ in range(300):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 7)
        m = [[rng.randrange(-9, 10) if rng.random() < 0.6 else 0 for _ in range(cols)]
             for _ in range(rows)]
        for row in m:
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is not None and rng.random() < 0.5:
                row[lead] = -abs(row[lead])
        m.append(list(rng.choice(m)))
        m.insert(rng.randrange(len(m) + 1), [0] * cols)
        yield m


def test_hermite_matches_transform_reference_gcd_and_sign(monkeypatch):
    calls = []

    def counting_xgcd(a, b):
        calls.append((a, b))
        return xgcd(a, b)

    monkeypatch.setattr(lattice, "xgcd", counting_xgcd)
    rng = random.Random(271828)
    flips = 0
    for m in _gcd_and_sign_matrices(rng):
        h = hermite_nonzero(m)
        ref_h, u = hermite_with_transform(m)
        assert h == nonzero_rows(ref_h), m
        assert_hermite_shape(h)
        assert mat_mul(u, m) == ref_h
        # one negative value down column 0: it stays the pivot until the flip
        flips += len({row[0] for row in m} - {0}) == 1 and min(row[0] for row in m) < 0
    assert len(calls) > 100
    assert flips > 10


def test_hermite_rows_on_sparse_rows():
    # the sparse core behind `hermite_nonzero`: same basis, input untouched,
    # and membership read off the basis agrees with the dense reduction
    rng = random.Random(161803)
    for m in _gcd_and_sign_matrices(rng):
        sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
        before = [dict(row) for row in sparse]
        basis = hermite_rows(sparse)
        assert sparse == before
        assert [[row.get(j, 0) for j in range(len(m[0]))] for row in basis] == hermite_nonzero(m)
        assert [min(row) for row in basis] == sorted({min(row) for row in basis})
        assert all_in_lattice(sparse, basis)
        v = [rng.randrange(-3, 4) for _ in m[0]]
        assert all_in_lattice([dict(enumerate(v))], basis) == lattice_membership(v, m)


def test_hermite_shapes_and_ragged_input():
    assert hermite_nonzero([]) == []
    assert hermite_nonzero([[]]) == []
    assert hermite_nonzero([[], []]) == []
    assert hermite_nonzero([[0, 1], [0, 0], [0, 2]]) == [[0, 1]]
    for ragged in ([[1, 2], [3]], [[1], []], [[], [0]]):
        with pytest.raises(DimensionError):
            hermite_nonzero(ragged)


def test_smith_diag_2_3():
    # gcd/lcm pivoting: diag(2,3) has invariants (1,6)
    assert smith([[2, 0], [0, 3]]) == [1, 6]


def test_smith_identity_and_diagonal():
    assert smith(identity(3)) == [1, 1, 1]
    assert smith([[2, 0], [0, 2]]) == [2, 2]


def test_smith_zero_and_rectangular():
    assert smith([[0, 0, 0], [0, 0, 0]]) == [0, 0]
    assert smith([[2, 4, 4]]) == [2]
    assert smith([]) == []


def test_smith_divisibility_chain_random():
    rng = random.Random(20240817)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        d = smith(m)
        assert len(d) == min(rows, cols)
        for a, b in zip(d, d[1:]):
            assert a >= 0 and b >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_smith_matches_reference_on_unimodular_matrices():
    rng = random.Random(60601)
    for _ in range(40):
        n = rng.randrange(1, 8)
        u = random_unimodular(rng, n)
        assert smith(u) == smith_reference(u) == [1] * n


def test_smith_matches_reference_on_conjugated_diag_2_6_0():
    # non-unit invariants: the Hermite pivots cannot all be 1, so these
    # run the alternating Hermite forms
    rng = random.Random(60602)
    d = [[2, 0, 0], [0, 6, 0], [0, 0, 0]]
    for _ in range(40):
        m = mat_mul(random_unimodular(rng, 3), mat_mul(d, random_unimodular(rng, 3)))
        assert smith(m) == smith_reference(m) == [2, 6, 0]


def test_smith_matches_reference_on_shapes():
    rng = random.Random(60603)
    cases = [[[0] * 4 for _ in range(3)], [[0] * 3 for _ in range(5)], [[0]]]
    for _ in range(120):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        kind = rng.choice(("tall", "wide", "deficient", "sparse"))
        if kind == "tall":
            rows = cols + rng.randrange(1, 5)
        elif kind == "wide":
            cols = rows + rng.randrange(1, 5)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        if kind == "deficient" and rows > 1:
            # one row a combination of two others
            i, j, k = (rng.randrange(rows) for _ in range(3))
            m[i] = [rng.randrange(-2, 3) * a + rng.randrange(-2, 3) * b
                    for a, b in zip(m[j], m[k])]
        elif kind == "sparse":
            m = [[v if rng.random() < 0.25 else 0 for v in row] for row in m]
        cases.append(m)
    # entries up to +-12: about half have a non-unit Hermite pivot, so they
    # run the alternating Hermite forms rather than the unit-pivot exit
    for _ in range(60):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        cases.append([[rng.randrange(-12, 13) for _ in range(cols)] for _ in range(rows)])
    for m in cases:
        assert smith(m) == smith_reference(m), m
    # one invariant 2 in a large unimodular matrix
    u = random_unimodular(rng, 60, steps=80)
    u[0] = [2 * v for v in u[0]]
    assert smith(u) == smith_reference(u) == [1] * 59 + [2]


def test_determinant():
    assert determinant([[1, 0], [1, 1]]) == 1
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([]) == 1
    with pytest.raises(DimensionError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_unimodular_from_smith():
    # square with every Smith invariant 1, as the bridge decides it; the
    # genus-1, n=2 change-of-basis matrix is unimodular
    assert smith([[1, 0], [1, 1]]) == [1, 1]
    assert smith([[2, 0], [0, 1]]) == [1, 2]
    # all invariants 1, but not square
    assert smith([[1, 0, 0], [0, 1, 0]]) == [1, 1]
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        assert all(d == 1 for d in smith(m)) == (abs(determinant(m)) == 1)


def test_membership_basic():
    assert lattice_membership([2, 0], [[1, 0]])
    assert not lattice_membership([1, 0], [[2, 0]])
    assert lattice_membership([0, 0], [])
    assert not lattice_membership([1, 1], [[1, 0]])
    with pytest.raises(DimensionError):
        lattice_membership([1], [[1, 0]])


def test_lattice_equal():
    assert lattice_equal([[1, 1], [0, 2]], [[1, -1], [0, 2]])
    assert not lattice_equal([[2, 0], [0, 2]], [[1, 0], [0, 1]])
    assert lattice_equal([], [[0, 0]])
    with pytest.raises(DimensionError, match="ambient dimensions differ"):
        lattice_equal([[1, 0]], [[1, 0, 0]])


def test_hermite_preserves_row_space_random():
    # membership both ways between the original rows and the Hermite basis
    rng = random.Random(9917)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        basis = hermite_nonzero(m)
        for row in m:
            assert lattice_membership(row, basis)
        for row in basis:
            assert lattice_membership(row, m)
        assert rank(m) == len(basis)


def test_smith_invariant_under_unimodular_ops():
    rng = random.Random(5151)
    for _ in range(20):
        n = rng.randrange(1, 4)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        d = smith(m)
        # random unimodular row and column shears
        left = identity(n)
        right = identity(n)
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randrange(-2, 3)
                for k in range(n):
                    left[i][k] += c * left[j][k]
                    right[k][j] += c * right[k][i]
        assert smith(mat_mul(left, mat_mul(m, right))) == d
