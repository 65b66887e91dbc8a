"""Exact integer matrix algebra: Hermite and Smith normal forms, lattices.

Matrices are plain lists of rows of Python ints, so all arithmetic is
arbitrary precision.  The Hermite form works on sparse {col: value} rows
(`hermite_rows`; `hermite_nonzero` is its dense wrapper): it inserts the
rows one at a time into a table of pivot rows keyed by leading column
(row insertion as in Kannan and Bachem, 1979), then reduces above the
pivots.  It keeps no unimodular transform: the canonical H is its only
output, and every lattice question here is answered from it.  `verify`
at g = n = 6 takes 14 Hermite forms of 68,216 input rows in all, each
row a handful of small entries, and no entry of those forms is wider
than 4 bits, so exact integers need no modular arithmetic at this scale.
The Smith form starts from the Hermite form: when every pivot is 1, as in
every unimodular bridge matrix, the invariants are read off it; otherwise
Hermite forms of the transpose and of the rows alternate until the matrix
is diagonal (Kannan and Bachem again), so the Hermite core is the only
elimination it runs.  The determinant pivots densely; nothing in the
program calls it.
"""

from __future__ import annotations

from collections.abc import Iterable
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd

from .rings import add_terms

Matrix = list[list[int]]
SparseRow = dict[int, int]


class DimensionError(ValueError):
    pass


def _check_rectangular(m: Matrix) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for r in m:
        if len(r) != cols:
            raise DimensionError("ragged matrix")
    return rows, cols


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def hermite_nonzero(m: Matrix) -> Matrix:
    """Nonzero rows of the row Hermite normal form of m: pivots positive,
    entries above each pivot reduced into [0, pivot).  The reduced form is
    unique for a lattice, so these rows are its canonical basis."""
    _, cols = _check_rectangular(m)
    out = []
    for p in hermite_rows({j: row[j] for j in compress(range(cols), row)} for row in m):
        dense = [0] * cols
        for j, v in p.items():
            dense[j] = v
        out.append(dense)
    return out


def hermite_rows(rows: Iterable[SparseRow]) -> list[SparseRow]:
    """Hermite form of sparse {col: value} rows: the canonical basis of
    their lattice, positive pivots and reduced entries above them, in
    increasing pivot column order.  The input rows are left as they are.

    Each row is inserted into a table of pivot rows keyed by leading
    column: a row whose leading column is free takes it; otherwise the
    pivot clears that entry (an exact division, or a unimodular gcd step
    that replaces the pivot) and the row goes on from its next nonzero
    column.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while (col := _reduce(row, pivots)) is not None:
            p = pivots.get(col)
            if p is None:
                pivots[col] = row
                break
            a, b = p[col], row[col]
            g, x, y = xgcd(a, b)
            # (p, row) <- (x*p + y*row, -(b/g)*p + (a/g)*row); the 2x2
            # operation has determinant 1 and clears row's entry
            pivots[col] = add_terms(add_terms({}, p.items(), x), row.items(), y)
            row = add_terms(add_terms({}, p.items(), -(b // g)), row.items(), a // g)
    # Positive pivots, then reduce each row's entries in pivot columns,
    # from the last pivot row up.  Rows below are already reduced and lead
    # at their pivot, so subtracting one changes the row only at and past
    # that pivot's column; a heap takes those columns in increasing order.
    for col, p in pivots.items():
        if p[col] < 0:
            pivots[col] = {j: -v for j, v in p.items()}
    order = sorted(pivots)
    for col in reversed(order):
        p = pivots[col]
        todo = [j for j in p if j > col and j in pivots]
        heapify(todo)
        while todo:
            j = heappop(todo)
            r = pivots[j]
            q = p.get(j, 0) // r[j]
            if q:
                add_terms(p, r.items(), -q)
                for k in r:
                    if k > j and k in pivots:
                        heappush(todo, k)
    return [pivots[col] for col in order]


def _reduce(row: SparseRow, pivots: dict[int, SparseRow]) -> int | None:
    """Subtract pivot multiples from row, in place, while its leading entry
    is a multiple of the pivot in its column.  Returns the leading column
    where that stops, free or holding a non-multiple, or None once row is 0."""
    while row:
        col = min(row)
        p = pivots.get(col)
        if p is None or row[col] % p[col]:
            return col
        add_terms(row, p.items(), -(row[col] // p[col]))
    return None


def all_in_lattice(vectors: Iterable[SparseRow], basis: list[SparseRow]) -> bool:
    """Is every sparse row of vectors in the lattice of a `hermite_rows`
    basis?  One pivot map serves them all; the check stops at the first
    row left nonzero."""
    pivots = {min(p): p for p in basis}
    return all(_reduce({j: x for j, x in v.items() if x}, pivots) is None
               for v in vectors)


def rank(m: Matrix) -> int:
    return len(hermite_nonzero(m))


def smith(m: Matrix) -> list[int]:
    """Smith invariants d_1 | d_2 | ... | d_k, k = min(rows, cols), all >= 0.

    The cokernel of m (rows as relations in Z^cols) has torsion
    (+) Z/d_i over the nonzero d_i > 1.

    Row-reduce first: unimodular row ops preserve the invariants and
    shrink tall relation matrices to at most `cols` rows.  If every pivot
    of the Hermite form is 1, column operations clear each pivot's row to
    its right without touching the rows below, which are zero in the
    pivot's column, so the invariants are rank ones and then zeros.
    Otherwise take Hermite forms of the transpose and of the rows in turn
    (Kannan and Bachem, 1979) until every row holds one entry.  This ends:
    the leading pivot is the gcd of its column, then of its row, so it can
    only shrink, and once it stops shrinking it divides that row and column
    and both clear; the rest is a smaller matrix.  The remaining diagonal
    becomes a divisor chain by (d_i, d_j) -> (gcd, lcm) for i < j.
    """
    rows, cols = _check_rectangular(m)
    if rows == 0 or cols == 0:
        return []
    work = hermite_nonzero(m)
    n_out = min(rows, cols)
    if all(next(filter(None, row)) == 1 for row in work):
        return [1] * len(work) + [0] * (n_out - len(work))
    h = [{j: row[j] for j in compress(range(cols), row)} for row in work]
    while any(len(row) > 1 for row in h):
        by_col: dict[int, SparseRow] = {}
        for i, row in enumerate(h):
            for j, v in row.items():
                by_col.setdefault(j, {})[i] = v
        h = hermite_rows(by_col.values())
    diag = [v for row in h for v in row.values()]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            d = gcd(diag[i], diag[j])
            diag[i], diag[j] = d, diag[i] // d * diag[j]
    return diag + [0] * (n_out - len(diag))


def determinant(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    rows, cols = _check_rectangular(m)
    if rows != cols:
        raise DimensionError("determinant of a non-square matrix")
    if rows == 0:
        return 1
    a = [row.copy() for row in m]
    sign = 1
    prev = 1
    for k in range(rows - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, rows) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, rows):
            for j in range(k + 1, rows):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def lattice_membership(v: list[int], generators: Matrix) -> bool:
    """Is v in the Z-span of the generator rows?"""
    if generators and len(v) != len(generators[0]):
        raise DimensionError("vector length does not match generator width")
    _check_rectangular(generators)
    basis = hermite_rows(dict(enumerate(row)) for row in generators)
    return all_in_lattice([dict(enumerate(v))], basis)


def lattice_equal(a: Matrix, b: Matrix) -> bool:
    """Do two generator lists span the same lattice in Z^cols?"""
    if a and b and len(a[0]) != len(b[0]):
        raise DimensionError("ambient dimensions differ")
    return hermite_nonzero(a) == hermite_nonzero(b)
