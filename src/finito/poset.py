"""Finite T0 spaces as posets over dense indices 0..n-1.

The order relation is stored as bit-rows: ``up[x]`` is the bitmask of all
``y`` with ``x <= y`` (including ``x`` itself).  The order never changes
after construction; ``down``, ``levels``, ``covers``, ``_cells`` (until
labelled), ``_canon`` and ``_aut`` are filled in once, lazily.  ``down`` is
never transposed from ``up`` where it is known on construction:
``from_cover_pairs`` closes it beside ``up``, and ``opposite``,
``models.nh_suspension`` and ``models._children`` set it themselves.

A cover relation from outside is checked in one place,
``FinitePoset.from_cover_pairs``; ``FinitePoset.covers`` gives the cover
relation (the Hasse diagram) back as sorted pairs, unchecked.  The canonical
code of ``canonical_form`` is plain ``bytes``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import CycleError, EmptyError


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_point(p: "FinitePoset", x: int) -> None:
    """IndexError unless x is a point of p, i.e. in 0..n-1."""
    if not 0 <= x < p.n:
        raise IndexError(f"point {x} out of range for n={p.n}")


def _checked_labels(labels: Sequence[str] | None, n: int) -> tuple[str, ...] | None:
    """The labels as a tuple, one per point and each naming one point;
    ValueError otherwise."""
    if labels is None:
        return None
    labels = tuple(labels)
    if len(labels) != n:
        raise ValueError("labels length must equal point count")
    if len(set(labels)) != n:
        name = next(a for i, a in enumerate(labels) if a in labels[:i])
        raise ValueError(f"label {name!r} names two points")
    return labels


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
        self.labels = _checked_labels(labels, n)

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
    def from_cover_pairs(
        cls,
        n: int,
        pairs: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "FinitePoset":
        """Reflexive-transitive closure of the cover pairs (x, y), x covered
        by y, on points 0..n-1.

        This is where a cover relation from outside is checked: EmptyError
        for n < 1, IndexError for a pair out of range, CycleError for a
        self-loop or a directed cycle, ValueError for a label list of the
        wrong length or with a repeated label.  Redundant (non-reduced)
        pairs are tolerated and closed over.  The closure of an acyclic
        relation is a partial order, so it is not checked again.
        """
        if n < 1:
            raise EmptyError("a finite space needs at least one point")
        pairs = frozenset(pairs)
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise IndexError(f"cover ({x}, {y}) out of range for n={n}")
            if x == y:
                raise CycleError(f"self-loop at {x}")
        labels = _checked_labels(labels, n)
        up = [1 << x for x in range(n)]
        down = list(up)
        above = [[] for _ in range(n)]
        for x, y in pairs:
            above[x].append(y)
        order = _toposort(n, pairs)
        for x in reversed(order):
            for y in above[x]:
                up[x] |= up[y]
        for x in order:
            for y in above[x]:
                down[y] |= down[x]
        p = cls._trusted(up, labels)
        p.down = tuple(down)  # fills the cached property, which has no setter
        return p

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
        q = FinitePoset._trusted(self.down, self.labels)
        q.down = self.up  # fills the cached property, which has no setter
        return q

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
    def _cells(self) -> list[list[int]]:
        """The refined partition that labelling starts from: the cells of
        equal (level, |down|, |up|), in key order, split by ``_refine``.
        Refinement commutes with isomorphism, so every automorphism maps
        each cell onto itself.  Dropped once the poset is labelled."""
        initial = {}
        for v in range(self.n):
            key = (self.levels[v], self.down[v].bit_count(), self.up[v].bit_count())
            initial.setdefault(key, []).append(v)
        return _refine(self.up, self.down, [initial[k] for k in sorted(initial)])

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
        """Copy with point i of the result being point perm[i] of self.

        ``perm`` must be a permutation of 0..n-1: a list of another length
        or with a repeated point raises ValueError, a point out of range
        IndexError."""
        if len(perm) != self.n:
            raise ValueError(f"a relabelling lists {len(perm)} points, but the space has {self.n}")
        return self.subposet(perm)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction, the Hasse diagram: the pairs (x, y) with
        x < y and nothing strictly between, sorted.

        The covers of x are the minimal points of its strict up-set, peeled
        one at a time: descend from any point left to a minimal one, then
        drop everything above it."""
        up, down, covers = self.up, self.down, []
        for x in range(self.n):
            rest, above = up[x] & ~(1 << x), []
            while rest:
                y = (rest & -rest).bit_length() - 1
                while below := down[y] & rest & ~(1 << y):
                    y = (below & -below).bit_length() - 1
                above.append(y)
                rest &= ~up[y]
            covers += ((x, y) for y in sorted(above))
        return tuple(covers)

    # -- canonical form ----------------------------------------------------

    def canonical_form(self) -> bytes:
        """Isomorphism-class fingerprint, the canonical code: equal codes iff
        order-isomorphic.

        Partition refinement on (level, out/in degree) invariants, kept as
        ``_cells``, then backtracking over the remaining cell choices,
        keeping the lexicographically least strict-order encoding.
        Labelings are always linear extensions (cells are ordered by
        level), so only the strictly-upper-triangular bits are encoded.
        The automorphism generators the same search finds are kept as
        ``_aut``.  Enumeration settles most tie children from ``_cells``
        alone and labels only the rest.
        """
        if self._canon is None:
            self._label()
        return self._canon

    def _label(self) -> None:
        """Set ``_canon``, ``_canon_last`` and ``_aut`` from one labelling
        search, so enumeration labels each class at most once."""
        enc, self._canon_last, self._aut = _canonical_encoding(self)
        self.__dict__.pop("_cells", None)  # not held for as long as the class is
        nbytes = (self.n * (self.n - 1) // 2 + 7) // 8
        self._canon = self.n.to_bytes(2, "big") + enc.to_bytes(max(nbytes, 1), "big")

    _canon: bytes | None = None
    # Point placed last by the labelling that gave ``_canon`` (a maximal
    # point with the largest (level, down-set size)) and generators of Aut(p)
    # that it found.  None while unlabelled, as a class accepted by
    # enumeration stays until its code or its children are asked for.
    _canon_last: int | None = None
    _aut: list[tuple[int, ...]] | None = None

    @classmethod
    def _from_code(cls, code: bytes) -> "FinitePoset":
        """The canonically labelled representative that a code of
        ``canonical_form`` encodes, carrying that code."""
        n = int.from_bytes(code[:2], "big")
        enc = int.from_bytes(code[2:], "big")
        rows = [1 << i for i in range(n)]
        bitpos = n * (n - 1) // 2
        for i in range(n):
            for j in range(i + 1, n):
                bitpos -= 1
                if (enc >> bitpos) & 1:
                    rows[i] |= 1 << j
        p = cls._trusted(rows)
        p._canon = code
        return p

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
        iso = [x for x in range(self.n) if self.up[x] == self.down[x] == 1 << x]
        parts = [f"{x}<{y}" for x, y in self.covers] + [str(x) for x in iso]
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


def _canonical_encoding(p: FinitePoset) -> tuple[int, int, list[tuple[int, ...]]]:
    """Least encoding over the labellings the search reaches, the point
    that labelling puts last, and generators of Aut(p), each a tuple g
    mapping point x to g[x].

    The search starts from ``p._cells``, the refined partition that
    enumeration's tie test reads too, and cells are only ever split in
    place, so the last point comes from the last of those cells: a maximal
    point with the largest (level, |down|).  A twin cell is split into
    singletons with no refinement: every point outside it is related to
    all of it or to none, so the partition stays equitable.

    Labellings are linear extensions, so two leaves with equal encodings
    give equal relabelled orders, and the map from the least leaf to each
    other least leaf is an automorphism.  With the transpositions of each
    twin cell met, where the search takes one order instead of branching,
    these generate the whole group: every branch of an individualised cell
    is searched, so each image of the least leaf's choice at a node on its
    path is the choice of some least leaf.
    """
    up, down, n = p.up, p.down, p.n
    best: list = [None, []]  # least encoding, the leaf orders that reach it
    twins = set()

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
                best[:] = enc, [order]
            elif enc == best[0]:
                best[1].append(order)
            return
        if _twin_cell(up, down, cell):
            twins.update(zip(cell, cell[1:]))
            search(cells[:idx] + [[v] for v in cell] + cells[idx + 1 :])
            return
        for v in cell:
            rest = [w for w in cell if w != v]
            split = cells[:idx] + [[v], rest] + cells[idx + 1 :]
            search(_refine(up, down, split))

    search(p._cells)
    enc, (first, *others) = best
    generators = [tuple(y for _, y in sorted(zip(first, order))) for order in others]
    for x, y in twins:
        g = list(range(n))
        g[x], g[y] = y, x
        generators.append(tuple(g))
    return enc, first[-1], generators
