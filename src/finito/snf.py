"""Exact integer linear algebra: Smith normal form and matrix rank.

Entries are Python ints, so they never overflow.  Boundary matrices of
order complexes are sparse and nearly all their entries are +-1, so
``eliminate_unit_pivots`` takes them as sparse columns and eliminates every
unit pivot first; only the block left over goes through dense gcd
elimination (``smith_invariant_factors``, on lists of row lists).  This is
the sparse-first approach of Dumas, Heckenbach, Saunders and Welker,
"Computing simplicial homology based on efficient Smith normal form
algorithms" (2003).
"""

from __future__ import annotations

import heapq


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
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
    return x, y, g


def smith_invariant_factors(matrix: list[list[int]]) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    a = [row[:] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    r = 0
    while r < m and r < n:
        # find a pivot
        pivot = None
        for i in range(r, m):
            for j in range(r, n):
                if a[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        a[r], a[i] = a[i], a[r]
        for row in a:
            row[r], row[j] = row[j], row[r]
        while True:
            # clear column r with row operations; keep the pivot row fixed
            # in the divisible case so progress is monotone
            for i in range(r + 1, m):
                if a[i][r] == 0:
                    continue
                if a[i][r] % a[r][r] == 0:
                    q = a[i][r] // a[r][r]
                    for k in range(r, n):
                        a[i][k] -= q * a[r][k]
                else:
                    x, y, g = xgcd(a[r][r], a[i][r])
                    p, q = a[r][r] // g, a[i][r] // g
                    for k in range(r, n):
                        u, v = a[r][k], a[i][k]
                        a[r][k] = x * u + y * v
                        a[i][k] = -q * u + p * v
            # clear row r with column operations
            for j in range(r + 1, n):
                if a[r][j] == 0:
                    continue
                if a[r][j] % a[r][r] == 0:
                    q = a[r][j] // a[r][r]
                    for row in a:
                        row[j] -= q * row[r]
                else:
                    x, y, g = xgcd(a[r][r], a[r][j])
                    p, q = a[r][r] // g, a[r][j] // g
                    for row in a:
                        u, v = row[r], row[j]
                        row[r] = x * u + y * v
                        row[j] = -q * u + p * v
            if all(a[i][r] == 0 for i in range(r + 1, m)) and all(
                a[r][j] == 0 for j in range(r + 1, n)
            ):
                break
        diag.append(abs(a[r][r]))
        r += 1
    # enforce the divisibility chain d1 | d2 | ...
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = xgcd(diag[i], diag[j])[2]
                diag[j] = diag[i] * diag[j] // g
                diag[i] = g
    return diag


def eliminate_unit_pivots(columns: list[dict[int, int]]) -> tuple[int, list[list[int]]]:
    """Split a sparse integer matrix as I_units + a residual block.

    ``columns[j]`` maps row indices to the nonzero entries of column j; the
    columns are not modified.  Each +-1 entry taken as a pivot clears its
    row by column operations and its column by row operations, so the
    pivot's row and column drop out as one invariant factor 1.  The
    shortest column holding a unit goes first, pivoting on its unit whose
    row has fewest entries: a pivot fills in at most (column length - 1)
    * (row length - 1) entries.  Returns the number of pivots and the
    leftover nonzero rows and columns as a dense row-list matrix with no
    unit entry, so the invariant factors of the input are ``[1] * units``
    followed by those of the residual.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
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
        del cols[c]
        sign = pivot.pop(r)
        for i in pivot:
            rows[i].discard(c)
        for j in rows.pop(r):
            if j == c:
                continue
            col = cols[j]
            q = col.pop(r) * sign
            for i, v in pivot.items():
                w = col.get(i, 0) - q * v
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
        units += 1
    row_index = {i: k for k, i in enumerate(i for i, js in rows.items() if js)}
    residual = [[0] * len(cols) for _ in row_index]
    for k, col in enumerate(cols.values()):
        for i, v in col.items():
            residual[row_index[i]][k] = v
    return units, residual


def matrix_rank(matrix: list[list[int]]) -> int:
    return len(smith_invariant_factors(matrix))
