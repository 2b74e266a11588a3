"""Exact integer linear algebra: Smith normal form and matrix rank.

Entries are Python ints, so they never overflow.  The matrices come from
two places: the Morse boundaries between critical faces of an order
complex (``order_complex.homology``) and the exponent rows of π1
relators (``pi1.first_betti``, through ``matrix_rank``).  Both are sparse
and nearly all their entries are +-1.  The Morse boundaries are small: the
largest on the benchmark workloads has 47 columns.  So
``smith_invariant_factors`` takes sparse columns, makes one pass over them
in index order that pivots on a unit wherever a column holds one, and
reduces what is left on the same sparse columns by pivoting on an entry of
least absolute value.  This is the sparse-first approach of Dumas,
Heckenbach, Saunders and Welker, "Computing simplicial homology based on
efficient Smith normal form algorithms" (2003).
"""

from __future__ import annotations

from math import gcd


def smith_invariant_factors(columns: list[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of a sparse integer matrix.

    ``columns[j]`` maps row indices to the nonzero entries of column j; the
    columns are not modified.  A pivot that divides every entry of its row
    and column clears its row by column operations and then its column by
    row operations, so the pivot's row and column drop out as one diagonal
    entry.  First one pass over the columns in index order pivots on a +-1
    entry of each column that holds one when the pass reaches it.  After
    that the pivot is an entry of least absolute value; when it fails to
    divide an entry of its column or row, one row or column operation
    replaces that entry by its remainder, which lowers the least absolute
    value, so the elimination ends.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)

    def add(i: int, j: int, w: int) -> None:
        """Entry (i, j) += w, keeping the row index and no zero entries."""
        col = cols[j]
        w += col.get(i, 0)
        if w:
            if i not in col:
                rows[i].add(j)
            col[i] = w
        else:
            del col[i]
            rows[i].discard(j)

    def eliminate(r: int, c: int) -> int:
        """Drop row r and column c, whose entry divides both; return it."""
        pivot = cols.pop(c)
        v = pivot.pop(r)
        for i in pivot:
            rows[i].discard(c)
        for j in rows.pop(r):
            if j != c:
                q = cols[j].pop(r) // v
                for i, x in pivot.items():
                    add(i, j, -q * x)
                if not cols[j]:
                    del cols[j]
        return v

    units, factors = 0, []
    for c in range(len(columns)):
        r = next((i for i, v in cols.get(c, {}).items() if v in (1, -1)), None)
        if r is not None:
            eliminate(r, c)
            units += 1
    while cols:
        _, r, c = min((abs(v), i, j) for j, col in cols.items() for i, v in col.items())
        pivot = cols[c]
        v = pivot[r]
        i = next((i for i, w in pivot.items() if w % v), None)
        j = next((j for j in rows[r] if cols[j][r] % v), None) if i is None else None
        if i is not None:  # row i -= q * row r
            q = pivot[i] // v
            for j in rows[r]:
                add(i, j, -q * cols[j][r])
        elif j is not None:  # column j -= q * column c
            q = cols[j][r] // v
            for i, w in pivot.items():
                add(i, j, -q * w)
        elif eliminate(r, c) in (1, -1):
            units += 1
        else:
            factors.append(abs(v))
    # enforce the divisibility chain d1 | d2 | ... on the factors above 1
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[j] % factors[i]:
                g = gcd(factors[i], factors[j])
                factors[j] = factors[i] * factors[j] // g
                factors[i] = g
    return [1] * units + factors


def matrix_rank(rows: list[dict[int, int]]) -> int:
    """Rank of a sparse integer matrix given by rows, each mapping column
    indices to its nonzero entries.  The rows serve as the sparse columns
    of the transpose, which has the same rank."""
    return len(smith_invariant_factors(rows))
