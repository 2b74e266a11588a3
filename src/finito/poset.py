"""Finite T0 spaces as posets over dense indices 0..n-1.

The order relation is stored as bit-rows: ``up[x]`` is the bitmask of all
``y`` with ``x <= y`` (including ``x`` itself).  Every value is immutable
after construction and every operation is a pure function, so instances can
be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CycleError, EmptyError


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Order-invariant fingerprint: equal codes iff order-isomorphic."""

    code: bytes


@dataclass(frozen=True)
class HasseDiagram:
    """Cover relation (x, y) meaning x is covered by y.

    This is where a cover relation from outside is checked: construction
    rejects points out of range, self-loops, directed cycles and a label
    list of the wrong length, and keeps the topological order it found as
    ``order``.  The edge set is not required to be transitively reduced
    (``FinitePoset.from_covers`` closes over redundant edges and ``hasse``
    re-normalizes).
    """

    n: int
    covers: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise EmptyError("a finite space needs at least one point")
        for x, y in self.covers:
            if not (0 <= x < self.n and 0 <= y < self.n):
                raise IndexError(f"cover ({x}, {y}) out of range for n={self.n}")
            if x == y:
                raise CycleError(f"self-loop at {x}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.n:
                raise ValueError("labels length must equal point count")
        object.__setattr__(self, "order", _toposort(self.n, self.covers))

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)


def _toposort(n: int, covers: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Kahn topological order of the cover digraph; raises CycleError."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for x, y in covers:
        succ[x].append(y)
        indeg[y] += 1
    queue = sorted(x for x in range(n) if indeg[x] == 0)
    order = []
    while queue:
        x = queue.pop()
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if len(order) != n:
        raise CycleError("cover relation contains a directed cycle")
    return tuple(order)


class FinitePoset:
    """A nonempty finite poset, i.e. a finite T0 topological space.

    ``up[x]`` holds ``{y : x <= y}`` as a bitmask; minimal open sets are the
    dual down-sets.  Labels are presentation-only and never affect
    semantics (equality, hashing and canonical forms ignore them).
    """

    def __init__(self, up: Sequence[int], labels: Sequence[str] | None = None):
        up = tuple(up)
        n = len(up)
        if n < 1:
            raise EmptyError("a finite space needs at least one point")
        full = (1 << n) - 1
        for x in range(n):
            row = up[x]
            if row & ~full:
                raise IndexError(f"row {x} has bits outside 0..{n - 1}")
            if not (row >> x) & 1:
                raise ValueError(f"relation is not reflexive at {x}")
        for x in range(n):
            for y in _bits(up[x] & ~(1 << x)):
                if (up[y] >> x) & 1:
                    raise ValueError(f"relation is not antisymmetric on ({x}, {y})")
                if up[y] & ~up[x]:
                    raise ValueError(f"relation is not transitive at ({x}, {y})")
        self.n = n
        self.up = up
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length must equal point count")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _trusted(cls, up: Sequence[int], labels=None) -> "FinitePoset":
        """Skip invariant validation for relations already known valid.

        Serves every order derived from a valid one (induced subposets,
        opposites, suspensions, quotients, closures of checked cover
        relations) and the canonically labelled rows of enumeration.
        """
        self = object.__new__(cls)
        self.n = len(up)
        self.up = tuple(up)
        self.labels = labels
        return self

    @classmethod
    def from_covers(cls, h: HasseDiagram) -> "FinitePoset":
        """Reflexive-transitive closure of a cover relation.

        Redundant (non-reduced) edges are tolerated and closed over.  The
        closure of an acyclic relation is a partial order, so it is not
        checked again.
        """
        up = [1 << x for x in range(h.n)]
        above = [[] for _ in range(h.n)]
        for x, y in h.covers:
            above[x].append(y)
        for x in reversed(h.order):
            for y in above[x]:
                up[x] |= up[y]
        return cls._trusted(up, h.labels)

    @classmethod
    def from_cover_pairs(
        cls,
        n: int,
        pairs: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "FinitePoset":
        return cls.from_covers(HasseDiagram(n, frozenset(pairs), labels))

    @classmethod
    def chain(cls, k: int) -> "FinitePoset":
        """Total order 0 < 1 < ... < k-1."""
        return cls.from_cover_pairs(k, [(i, i + 1) for i in range(k - 1)])

    @classmethod
    def antichain(cls, k: int) -> "FinitePoset":
        return cls.from_cover_pairs(k, [])

    # -- basic order queries ----------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    def comparable(self, x: int, y: int) -> bool:
        return bool(((self.up[x] | self.down[x]) >> y) & 1)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[x] = bitmask of {y : y <= x}."""
        down = [0] * self.n
        for x in range(self.n):
            row = self.up[x]
            for y in _bits(row):
                down[y] |= 1 << x
        return tuple(down)

    def min_open(self, x: int) -> frozenset[int]:
        """Minimal open set U_x = {y : y <= x}, the down-set of x."""
        return frozenset(_bits(self.down[x]))

    def closure(self, x: int) -> frozenset[int]:
        """Closure of {x}: the up-set {y : y >= x}."""
        return frozenset(_bits(self.up[x]))

    def opposite(self) -> "FinitePoset":
        """Same points with the reversed order; an involution."""
        return FinitePoset._trusted(self.down, self.labels)

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """levels[x] = number of points in a longest chain ending at x."""
        order = sorted(range(self.n), key=lambda x: self.down[x].bit_count())
        level = [1] * self.n
        for x in order:
            below = self.down[x] & ~(1 << x)
            if below:
                level[x] = 1 + max(level[y] for y in _bits(below))
        return tuple(level)

    @cached_property
    def height(self) -> int:
        """Number of points in a longest chain."""
        return max(self.levels)

    def maximal_elements(self) -> list[int]:
        return [x for x in range(self.n) if self.up[x] == 1 << x]

    def minimal_elements(self) -> list[int]:
        return [x for x in range(self.n) if self.down[x] == 1 << x]

    def connected_components(self) -> list[list[int]]:
        """Components of the comparability graph, each sorted, in order of
        their smallest element."""
        seen = 0
        parts = []
        for x in range(self.n):
            if (seen >> x) & 1:
                continue
            comp = 1 << x
            frontier = comp
            while frontier:
                grown = comp
                for y in _bits(frontier):
                    grown |= self.up[y] | self.down[y]
                frontier = grown & ~comp
                comp = grown
            seen |= comp
            parts.append(list(_bits(comp)))
        return parts

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    def chains(self) -> Iterator[tuple[int, ...]]:
        """All nonempty chains, each exactly once, as tuples listed in
        increasing order.  Enumeration ascends from each chain's minimum."""
        strict_up = tuple(self.up[x] & ~(1 << x) for x in range(self.n))

        def extend(prefix: list[int]) -> Iterator[tuple[int, ...]]:
            yield tuple(prefix)
            for y in _bits(strict_up[prefix[-1]]):
                prefix.append(y)
                yield from extend(prefix)
                prefix.pop()

        for x in range(self.n):
            yield from extend([x])

    # -- structure transforms ----------------------------------------------

    def subposet(self, keep: Sequence[int]) -> "FinitePoset":
        """Induced order on the given points (kept in the given order).

        ``keep`` must name distinct points of this space: a point out of
        range raises IndexError, a repeated one ValueError.
        """
        if not keep:
            raise EmptyError("a finite space needs at least one point")
        pos = {}
        for i, v in enumerate(keep):
            if not 0 <= v < self.n:
                raise IndexError(f"point {v} out of range for n={self.n}")
            if v in pos:
                raise ValueError(f"point {v} is kept twice")
            pos[v] = i
        up = []
        for v in keep:
            row = 0
            for w in _bits(self.up[v]):
                if w in pos:
                    row |= 1 << pos[w]
            up.append(row)
        labels = tuple(self.label(v) for v in keep) if self.labels else None
        return FinitePoset._trusted(up, labels)

    def relabel(self, perm: Sequence[int]) -> "FinitePoset":
        """Copy with point i of the result being point perm[i] of self."""
        return self.subposet(perm)

    def hasse(self) -> HasseDiagram:
        """Transitive reduction: covers (x, y) with nothing strictly between."""
        return self._hasse

    @cached_property
    def _hasse(self) -> HasseDiagram:
        covers = set()
        for x in range(self.n):
            strict = self.up[x] & ~(1 << x)
            for y in _bits(strict):
                if not strict & (self.down[y] & ~(1 << y)):
                    covers.add((x, y))
        return HasseDiagram(self.n, frozenset(covers), self.labels)

    @cached_property
    def cover_count(self) -> int:
        return len(self.hasse().covers)

    # -- canonical form ----------------------------------------------------

    def canonical_form(self) -> CanonicalForm:
        """Isomorphism-class fingerprint.

        Partition refinement on (level, out/in degree) invariants, then
        backtracking over the remaining cell choices, keeping the
        lexicographically least strict-order encoding.  Labelings are
        always linear extensions (cells are ordered by level), so only the
        strictly-upper-triangular bits are encoded.
        """
        if self._canon is None:
            enc, self._canon_last = _canonical_encoding(self)
            nbytes = (self.n * (self.n - 1) // 2 + 7) // 8
            code = self.n.to_bytes(2, "big") + enc.to_bytes(max(nbytes, 1), "big")
            self._canon = CanonicalForm(code)
        return self._canon

    _canon: CanonicalForm | None = None
    # Point placed last by the labelling that gave ``_canon``: a maximal
    # point with the largest (level, down-set size).  None while unknown.
    _canon_last: int | None = None

    def is_homeomorphic(self, other: "FinitePoset") -> bool:
        """Order isomorphism, i.e. homeomorphism of the T0 spaces."""
        return self.n == other.n and self.canonical_form() == other.canonical_form()

    # -- plumbing -----------------------------------------------------------

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.n == other.n
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.n, self.up))

    def __repr__(self):
        pairs = sorted(self.hasse().covers)
        iso = [x for x in range(self.n) if self.up[x] == self.down[x] == 1 << x]
        parts = [f"{x}<{y}" for x, y in pairs] + [str(x) for x in iso]
        return f"FinitePoset({self.n}; {' '.join(parts)})"


# -- canonical labeling ------------------------------------------------------


def _refine(up, down, cells):
    """Stable partition refinement by related-cell multisets."""
    n = len(up)
    color = [0] * n
    while True:
        for ci, cell in enumerate(cells):
            for v in cell:
                color[v] = ci
        out = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets = {}
            for v in cell:
                above = sorted(color[w] for w in _bits(up[v] & ~(1 << v)))
                below = sorted(color[w] for w in _bits(down[v] & ~(1 << v)))
                buckets.setdefault((tuple(above), tuple(below)), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                changed = True
                for key in sorted(buckets):
                    out.append(buckets[key])
        cells = out
        if not changed:
            return cells


def _twin_cell(up, down, cell):
    """True when all cell members are pairwise interchangeable, i.e. every
    transposition inside the cell is an automorphism."""
    x = cell[0]
    for y in cell[1:]:
        mask = ~((1 << x) | (1 << y))
        if (up[x] >> y) & 1 or (up[y] >> x) & 1:
            return False
        if up[x] & mask != up[y] & mask or down[x] & mask != down[y] & mask:
            return False
    return True


def _canonical_encoding(p: FinitePoset) -> tuple[int, int]:
    """Least encoding over the labellings the search reaches, and the point
    that labelling puts last.

    Initial cells are sorted by (level, |down|, |up|) and ``_refine`` splits
    cells in place, so the last point always comes from the last initial
    cell: a maximal point with the largest (level, |down|).
    """
    up, down, n = p.up, p.down, p.n
    initial = {}
    for v in range(n):
        key = (p.levels[v], down[v].bit_count(), up[v].bit_count())
        initial.setdefault(key, []).append(v)
    cells = _refine(up, down, [initial[k] for k in sorted(initial)])
    best: list = [None, None]

    def encode(order):
        enc = 0
        for i, v in enumerate(order):
            row = up[v]
            for w in order[i + 1 :]:
                enc = (enc << 1) | ((row >> w) & 1)
        return enc

    def search(cells):
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            order = [c[0] for c in cells]
            enc = encode(order)
            if best[0] is None or enc < best[0]:
                best[:] = enc, order[-1]
            return
        if _twin_cell(up, down, cell):
            split = cells[:idx] + [[v] for v in cell] + cells[idx + 1 :]
            search(_refine(up, down, split))
            return
        for v in cell:
            rest = [w for w in cell if w != v]
            split = cells[:idx] + [[v], rest] + cells[idx + 1 :]
            search(_refine(up, down, split))

    search(cells)
    return tuple(best)
