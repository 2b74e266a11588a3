"""Dense Smith normal form by textbook gcd elimination, an oracle for the
tests: the library reduces sparse columns instead."""


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
