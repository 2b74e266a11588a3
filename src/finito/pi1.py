"""Fundamental groups of finite T0 spaces from their cover digraphs.

A path is a tuple of points (x0, x1, ..., xm), each consecutive pair a
cover edge in either direction; a loop has x0 == xm.  The group is
presented through the edge-path group of the order complex: generators are
the comparability edges outside a spanning tree, relators come from
three-point chains.  Arbitrary loop equivalence is not decided (that is
the word problem); the module exposes rewriting moves, word images and
abelian invariants instead.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict, deque
from dataclasses import dataclass

from .errors import IllFormedMoveError, IllFormedPathError, NotConnectedError
from .poset import FinitePoset, _bits, _check_point
from .snf import matrix_rank


def validate_path(p: FinitePoset, path: tuple[int, ...]) -> None:
    """Raise IllFormedPathError unless path is a nonempty tuple of points
    in which each consecutive pair is a cover edge, in either direction; a
    point out of range raises IndexError."""
    if not isinstance(path, tuple) or not path:
        raise IllFormedPathError("a path is a nonempty tuple of points")
    for x in path:
        _check_point(p, x)
    covers = set(p.covers)
    for a, b in zip(path, path[1:]):
        if (a, b) not in covers and (b, a) not in covers:
            raise IllFormedPathError(f"({a}, {b}) is not a cover edge")


def is_monotonic(p: FinitePoset, path: tuple[int, ...]) -> bool:
    """True iff all steps ascend, or all descend, in the cover digraph."""
    validate_path(p, path)
    ups = [p.leq(a, b) for a, b in zip(path, path[1:])]
    return all(ups) or not any(ups)


def close_move(p: FinitePoset, loop: tuple[int, ...], cut, insert=None) -> tuple[int, ...]:
    """One closeness move between loops.

    With ``insert=(xi2, xi3)``: splice the monotonic pair in at point
    position ``cut``; xi2 must run from ``loop[cut]`` to the start of xi3,
    and xi3 back to ``loop[cut]``.  Without ``insert``: ``cut=(i, j, k)``
    cuts ``loop[i:k+1]`` down to its one point ``loop[i] == loop[k]``,
    where ``loop[i:j+1]`` and ``loop[j:k+1]`` are monotonic.
    """
    validate_path(p, loop)
    if loop[0] != loop[-1]:
        raise IllFormedMoveError("close moves are defined on loops")
    if insert is not None:
        if not isinstance(cut, int) or not 0 <= cut < len(loop):
            raise IllFormedMoveError("cut must be a point position")
        xi2, xi3 = insert
        if not (is_monotonic(p, xi2) and is_monotonic(p, xi3)):
            raise IllFormedMoveError("inserted paths must be monotonic")
        if xi2[0] != loop[cut] or xi2[-1] != xi3[0] or xi3[-1] != loop[cut]:
            raise IllFormedMoveError("inserted pair must close up at the cut point")
        return loop[:cut] + xi2 + xi3[1:] + loop[cut + 1 :]
    i, j, k = cut
    if not 0 <= i <= j <= k < len(loop):
        raise IllFormedMoveError("cut positions out of order")
    if loop[i] != loop[k]:
        raise IllFormedMoveError("deleted segment must return to its start")
    if not is_monotonic(p, loop[i : j + 1]) or not is_monotonic(p, loop[j : k + 1]):
        raise IllFormedMoveError("deleted segment must split into monotonic halves")
    return loop[:i] + loop[k:]


# -- edge-path presentations --------------------------------------------------


@dataclass(frozen=True)
class GroupPresentation:
    """Generators 1..g with relator words of signed letters, freely reduced."""

    generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.generators < 0:
            raise ValueError(f"generator count must be non-negative, got {self.generators}")
        for letter in (l for rel in self.relators for l in rel):
            if letter == 0 or abs(letter) > self.generators:
                raise ValueError(f"letter {letter} out of range")
        reduced = tuple(r for r in map(free_reduce, self.relators) if r)
        object.__setattr__(self, "relators", reduced)


def free_reduce(word) -> tuple[int, ...]:
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word) -> tuple[int, ...]:
    w = list(free_reduce(word))
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def invert_word(word) -> tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))


def spanning_tree(p: FinitePoset, x0: int) -> frozenset[tuple[int, int]]:
    """BFS tree of the comparability graph rooted at x0, smallest index
    first; edges are index-sorted pairs.  A root out of range raises
    IndexError, and a point the walk misses NotConnectedError."""
    _check_point(p, x0)
    seen = 1 << x0
    tree = set()
    queue = deque([x0])
    while queue:
        v = queue.popleft()
        for w in _bits((p.up[v] | p.down[v]) & ~seen):
            seen |= 1 << w
            tree.add((min(v, w), max(v, w)))
            queue.append(w)
    if seen != (1 << p.n) - 1:
        raise NotConnectedError("the space is not connected")
    return frozenset(tree)


def _edge_words(p: FinitePoset, x0: int) -> tuple[dict, int]:
    """Word of each step (a, b) along a comparability edge, and the generator
    count: () on an edge of ``spanning_tree(p, x0)``, else (g,) going up and
    (-g,) going down, g = 1.. over the index-sorted edges outside the tree."""
    tree = spanning_tree(p, x0)
    words = {}
    g = 0
    for a in range(p.n):
        for b in _bits((p.up[a] | p.down[a]) >> (a + 1) << (a + 1)):
            if (a, b) in tree:
                words[a, b] = words[b, a] = ()
            else:
                g += 1
                s = g if p.leq(a, b) else -g
                words[a, b], words[b, a] = (s,), (-s,)
    return words, g


def edge_path_presentation(p: FinitePoset, x0: int) -> GroupPresentation:
    """Edge-path presentation of the fundamental group at x0.

    Generators are comparability edges outside the spanning tree (so for
    height <= 2 the group is free of rank 1 - euler characteristic);
    each three-point chain x < y < z contributes the relator saying the
    two short steps compose to the long one.
    """
    words, generators = _edge_words(p, x0)
    strict_up = [p.up[x] & ~(1 << x) for x in range(p.n)]
    # the three-point chains in the order FinitePoset.chains lists them
    relators = tuple(
        words[x, y] + words[y, z] + words[z, x]
        for x in range(p.n)
        for y in _bits(strict_up[x])
        for z in _bits(strict_up[y])
    )
    # GroupPresentation reduces each word and drops the empty ones
    return GroupPresentation(generators, relators)


def loop_to_word(p: FinitePoset, x0: int, loop: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a loop in ``edge_path_presentation(p, x0)``: tree edges
    vanish, any other edge maps to its generator, signed by direction."""
    words = _edge_words(p, x0)[0]
    validate_path(p, loop)
    if loop[0] != x0 or loop[-1] != x0:
        raise IllFormedPathError(f"not a loop at {x0}")
    return free_reduce(l for step in zip(loop, loop[1:]) for l in words[step])


def tietze_simplify(pres: GroupPresentation) -> GroupPresentation:
    """Eliminate generators defined by short relators.

    A generator occurring exactly once in some relator is rewritten away
    (this covers length-1 and length-2 defining relators); relators are
    freely and cyclically reduced and duplicates and empties dropped.  The
    isomorphism class of the presented group never changes.

    Elimination order, on which the exact output rests: each step takes the
    relator that comes first by (length, word), among those with a
    generator occurring exactly once in them, and eliminates the lowest
    such generator; the surviving generators are numbered 1.. in their
    original order, and the relators are listed by (length, word).
    """
    relators = {cyclic_reduce(r) for r in pres.relators}
    relators.discard(())
    containing = defaultdict(set)  # generator -> live relators it occurs in
    for r in relators:
        for letter in r:
            containing[abs(letter)].add(r)

    def drop(r):
        relators.discard(r)
        for letter in r:
            containing[abs(letter)].discard(r)

    # Generators keep their original numbers until the end; the final
    # renumbering is monotone, so it preserves every (length, word) order
    # and every choice of the lowest generator made here.
    heap = [(len(r), r) for r in relators]
    heapq.heapify(heap)
    eliminated = set()
    while heap:
        rel = heapq.heappop(heap)[1]
        if rel not in relators:
            continue
        counts = Counter(abs(letter) for letter in rel)
        once = [a for a, c in counts.items() if c == 1]
        if not once:
            # stays so until it is rewritten, and is pushed again then
            continue
        a = min(once)
        pos = next(i for i, l in enumerate(rel) if abs(l) == a)
        rot = rel[pos:] + rel[:pos]
        # rot starts with a^s, so a = inverse(rest)^s
        expr = invert_word(rot[1:]) if rot[0] > 0 else rot[1:]
        inverse = invert_word(expr)
        drop(rel)
        eliminated.add(a)
        for r in containing.pop(a, ()):
            drop(r)
            out = []
            for letter in r:
                if letter == a:
                    out.extend(expr)
                elif letter == -a:
                    out.extend(inverse)
                else:
                    out.append(letter)
            w = cyclic_reduce(out)
            if w and w not in relators:
                relators.add(w)
                for letter in w:
                    containing[abs(letter)].add(w)
                heapq.heappush(heap, (len(w), w))
    kept = [v for v in range(1, pres.generators + 1) if v not in eliminated]
    number = {v: i for i, v in enumerate(kept, 1)}
    renumbered = (
        tuple(number[l] if l > 0 else -number[-l] for l in r) for r in relators
    )
    return GroupPresentation(
        len(kept), tuple(sorted(renumbered, key=lambda r: (len(r), r)))
    )


def free_rank(pres: GroupPresentation) -> int | None:
    """Rank when the presentation is visibly free, else None."""
    return pres.generators if not pres.relators else None


def first_betti(p: FinitePoset) -> int:
    """Rank of the abelianized fundamental group (equals homology b1); it
    presents the group at point 0, so a disconnected p raises NotConnectedError."""
    pres = edge_path_presentation(p, 0)
    # each relator's exponent row, as a sparse {generator: exponent} map
    rows = [
        {g: e for g in set(map(abs, rel)) if (e := rel.count(g) - rel.count(-g))}
        for rel in pres.relators
    ]
    return pres.generators - matrix_rank(rows)


def abelianized(word, generators: int) -> list[int]:
    """Exponent vector of a word."""
    vec = [0] * generators
    for letter in word:
        vec[abs(letter) - 1] += 1 if letter > 0 else -1
    return vec


def presentation_text(pres: GroupPresentation) -> str:
    """Conventional <generators | relators> rendering; lowercase letters
    are generators and uppercase their inverses."""

    def name(i):
        return chr(ord("a") + i - 1) if pres.generators <= 26 else f"x{i}"

    def letter(l):
        if pres.generators <= 26:
            c = name(abs(l))
            return c if l > 0 else c.upper()
        return name(abs(l)) if l > 0 else f"{name(abs(l))}^-1"

    gens = ", ".join(name(i) for i in range(1, pres.generators + 1))
    sep = "" if pres.generators <= 26 else " "
    rels = ", ".join(sep.join(letter(l) for l in r) for r in pres.relators)
    return f"< {gens} | {rels} >" if rels else f"< {gens} | >"
