"""Exact integer linear algebra: Smith normal form and matrix rank.

Entries are Python ints, so they never overflow.  The matrices come from
two places: the Morse boundaries between critical faces of an order
complex (``order_complex.homology``) and the exponent rows of π1
relators (``pi1.first_betti``, through ``matrix_rank``).  Both are sparse
and nearly all their entries are +-1, so ``smith_invariant_factors``
takes sparse columns and eliminates every unit pivot first, shortest
column first.  The few entries left over, none of
them a unit, are reduced on the same sparse columns by pivoting on an
entry of least absolute value.  This is the sparse-first approach of
Dumas, Heckenbach, Saunders and Welker, "Computing simplicial homology
based on efficient Smith normal form algorithms" (2003).
"""

from __future__ import annotations

import heapq
from math import gcd


def smith_invariant_factors(columns: list[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of a sparse integer matrix.

    ``columns[j]`` maps row indices to the nonzero entries of column j; the
    columns are not modified.  A pivot that divides every entry of its row
    and column clears its row by column operations and then its column by
    row operations, so the pivot's row and column drop out as one diagonal
    entry.  While a +-1 entry is left, the shortest column holding one goes
    first, pivoting on its unit whose row has fewest entries: a pivot fills
    in at most (column length - 1) * (row length - 1) entries.  After that
    the pivot is an entry of least absolute value; when it fails to divide
    an entry of its column or row, one row or column operation replaces
    that entry by its remainder, which lowers the least absolute value, so
    the elimination ends.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    units, factors = 0, []
    while cols:
        if heap:
            count, c = heapq.heappop(heap)
            pivot = cols.get(c)
            if pivot is None or len(pivot) != count:
                continue  # stale: the column is gone, or was pushed again when it changed
            r = min(
                (i for i, v in pivot.items() if v in (1, -1)),
                key=lambda i: len(rows[i]),
                default=None,
            )
            if r is None:
                continue  # pushed again if an elimination changes it
        else:  # no unit is left, and every changed column is pushed again
            _, r, c = min((abs(v), i, j) for j, col in cols.items() for i, v in col.items())
            pivot = cols[c]
            v = pivot[r]
            steps = []
            i = next((i for i, w in pivot.items() if w % v), None)
            if i is not None:  # row i -= q * row r
                q = pivot[i] // v
                steps = [(i, j, q * cols[j][r]) for j in rows[r]]
            else:
                j = next((j for j in rows[r] if cols[j][r] % v), None)
                if j is not None:  # column j -= q * column c
                    q = cols[j][r] // v
                    steps = [(i, j, q * w) for i, w in pivot.items()]
            for i, j, w in steps:
                col = cols[j]
                w = col.get(i, 0) - w
                if w:
                    if i not in col:
                        rows[i].add(j)
                    col[i] = w
                else:
                    del col[i]
                    rows[i].discard(j)
                heapq.heappush(heap, (len(col), j))
            if steps:
                continue
        del cols[c]
        v = pivot.pop(r)
        for i in pivot:
            rows[i].discard(c)
        for j in rows.pop(r):
            if j == c:
                continue
            col = cols[j]
            q = col.pop(r) // v
            for i, x in pivot.items():
                w = col.get(i, 0) - q * x
                if w:
                    if i not in col:
                        rows[i].add(j)
                    col[i] = w
                else:
                    del col[i]
                    rows[i].discard(j)
            if col:
                heapq.heappush(heap, (len(col), j))
            else:
                del cols[j]
        if v in (1, -1):
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
