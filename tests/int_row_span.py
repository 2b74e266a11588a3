"""Row-space membership over the integers, an oracle for the tests."""

from dense_snf import xgcd


class IntRowSpan:
    """Mutable row-echelon basis of a sublattice of Z^n.

    Supports adding vectors and exact membership tests; decides whether two
    abelianized words differ by a relator combination.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivot_row: dict[int, list[int]] = {}

    def add(self, vec) -> None:
        vec = list(vec)
        for j in range(self.width):
            if vec[j] == 0:
                continue
            row = self.pivot_row.get(j)
            if row is None:
                self.pivot_row[j] = vec
                return
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, self.width):
                    vec[k] -= q * row[k]
            else:
                x, y, g = xgcd(a, b)
                p, q = a // g, b // g
                for k in range(j, self.width):
                    u, v = row[k], vec[k]
                    row[k] = x * u + y * v
                    vec[k] = -q * u + p * v

    def __contains__(self, vec) -> bool:
        vec = list(vec)
        for j in range(self.width):
            if vec[j] == 0:
                continue
            row = self.pivot_row.get(j)
            if row is None or vec[j] % row[j]:
                return False
            q = vec[j] // row[j]
            for k in range(j, self.width):
                vec[k] -= q * row[k]
        return True
