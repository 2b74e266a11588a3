"""Homotopy-theoretic shrinking of finite spaces.

Beat points and cores in the sense of Stong, contractibility and homotopy
equivalence tests, Osaki's open and closed reductions, the basis-like-cover
continuity criterion for a given map, and removal of non-extremal points.
A subspace is a bitmask of the points of the space it lies in; a
FinitePoset is built only for a space handed back to the caller.  The
table of Osaki reductions (``osaki``) is decided from Osaki's hypothesis
alone, as point counts; the quotient spaces are built only for library
callers of ``osaki_open_reduction`` and ``osaki_closed_reduction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import FlattenBlockedError, NotConnectedError, NotContinuousError
from .poset import FinitePoset, _bits, _check_point


@dataclass(frozen=True)
class BeatPointReport:
    """A removable point: ``witness`` is the comparison point from the
    definition (minimum of the strict up-set for kind "up", maximum of the
    strict down-set for kind "down")."""

    element: int
    kind: str
    witness: int


@dataclass(frozen=True)
class ReductionTrace:
    """Removal log of a core computation, in original point indices."""

    removed: tuple[BeatPointReport, ...]
    kept: tuple[int, ...]
    final: FinitePoset

    def retract(self, x: int) -> int:
        """Index in ``final`` of the point the removal log carries x to.

        Each removed point's witness is followed until a kept point is
        reached.  Removing a beat point retracts onto its witness, an order
        preserving map, so this is the composite retraction of the space
        onto its core.  A point out of range raises IndexError.
        """
        n = len(self.kept) + len(self.removed)
        if not 0 <= x < n:
            raise IndexError(f"point {x} out of range for n={n}")
        witness = {r.element: r.witness for r in self.removed}
        while x in witness:
            x = witness[x]
        return self.kept.index(x)


def _beats(p: FinitePoset, alive: int) -> Iterator[BeatPointReport]:
    """Beat points of the subspace of the points in ``alive``, by index,
    each point's "down" report before its "up" one."""
    down, up = p.down, p.up
    for x in _bits(alive):
        below = down[x] & alive & ~(1 << x)
        if below:
            for y in _bits(below):
                if not below & ~down[y]:
                    yield BeatPointReport(x, "down", y)
                    break
        above = up[x] & alive & ~(1 << x)
        if above:
            for y in _bits(above):
                if not above & ~up[y]:
                    yield BeatPointReport(x, "up", y)
                    break


def beat_points(p: FinitePoset) -> list[BeatPointReport]:
    """All beat points; empty iff p is a minimal finite space."""
    return list(_beats(p, (1 << p.n) - 1))


def is_minimal(p: FinitePoset) -> bool:
    """True iff p has no beat point; stops at the first one found."""
    return next(_beats(p, (1 << p.n) - 1), None) is None


def _strip(p: FinitePoset, alive: int) -> tuple[list[BeatPointReport], int]:
    """Remove the first beat point of ``alive`` until none is left."""
    removed = []
    while (rep := next(_beats(p, alive), None)) is not None:
        removed.append(rep)
        alive ^= 1 << rep.element
    return removed, alive


def core(p: FinitePoset) -> ReductionTrace:
    """Strong deformation retract with no beat points.

    Always removes the beat point with the smallest index first, so traces
    are reproducible; the final space is independent of the removal order
    up to homeomorphism.
    """
    removed, alive = _strip(p, (1 << p.n) - 1)
    kept = tuple(_bits(alive))
    return ReductionTrace(tuple(removed), kept, p.subposet(kept))


def _contractible(p: FinitePoset, alive: int) -> bool:
    """True iff the subspace of the points in ``alive`` has a one-point core."""
    return _strip(p, alive)[1].bit_count() == 1


def is_contractible(p: FinitePoset) -> bool:
    """True iff the core is a single point."""
    return _contractible(p, (1 << p.n) - 1)


def is_homotopy_equivalent(p: FinitePoset, q: FinitePoset) -> bool:
    """True iff the cores are homeomorphic."""
    return core(p).final.is_homeomorphic(core(q).final)


def _quotient(p: FinitePoset, mask: int) -> FinitePoset:
    """Collapse the points of ``mask``, a down-set or an up-set, to one
    class point (appended last).  The remaining points keep their induced
    order; the class point lies below those above a point of ``mask`` and
    above those below one, so the result is a partial order without any
    closure or T0 check.
    """
    keep = [x for x in range(p.n) if not (mask >> x) & 1]
    up = list(p.subposet(keep).up) if keep else []
    cls = row = 1 << len(keep)
    for i, y in enumerate(keep):
        if p.up[y] & mask:
            up[i] |= cls
        if p.down[y] & mask:
            row |= 1 << i
    labels = None
    if p.labels:
        collapsed = "{" + ",".join(p.label(x) for x in _bits(mask)) + "}"
        labels = tuple(p.label(x) for x in keep) + (collapsed,)
    return FinitePoset._trusted(up + [row], labels)


def _hypothesis(p: FinitePoset, x: int, sets: tuple[int, ...], memo: dict[int, bool]) -> bool:
    """Osaki's hypothesis at x for ``sets`` = ``p.down`` or ``p.up``, up to
    the first intersection that is not contractible.  A y comparable to x
    is skipped: the intersection then has a largest or a least point.
    Verdicts are kept in ``memo`` by mask, valid for both kinds, as beat
    points are self-dual."""
    others = ((1 << p.n) - 1) & ~(p.down[x] | p.up[x])
    for y in _bits(others):
        inter = sets[x] & sets[y]
        if inter:
            verdict = memo.get(inter)
            if verdict is None:
                verdict = memo[inter] = _contractible(p, inter)
            if not verdict:
                return False
    return True


def osaki(p: FinitePoset) -> list[tuple[int | None, int | None]]:
    """For each point x, the point counts (open, closed) of the reductions
    ``osaki_open_reduction(p, x)`` and ``osaki_closed_reduction(p, x)``,
    None where the hypothesis fails.  No quotient is built: collapsing m
    points leaves n - m + 1.  Each distinct intersection is decided once."""
    memo: dict[int, bool] = {}
    return [tuple(p.n - sets[x].bit_count() + 1 if _hypothesis(p, x, sets, memo) else None
                  for sets in (p.down, p.up))
            for x in range(p.n)]


def _osaki(p: FinitePoset, x: int, sets: tuple[int, ...]) -> FinitePoset | None:
    """The reduction by ``sets[x]``, for ``sets`` = ``p.down`` or ``p.up``."""
    _check_point(p, x)
    return _quotient(p, sets[x]) if _hypothesis(p, x, sets, {}) else None


def osaki_open_reduction(p: FinitePoset, x: int) -> FinitePoset | None:
    """Quotient by the minimal open set of x, when the hypothesis holds:
    every intersection with another minimal open set is empty or has a
    one-point core, a decidable sufficient stand-in for vanishing homotopy
    groups at these sizes; else None.  A point out of range raises IndexError."""
    return _osaki(p, x, p.down)


def osaki_closed_reduction(p: FinitePoset, x: int) -> FinitePoset | None:
    """Quotient by the closure of {x}; dual of the open reduction."""
    return _osaki(p, x, p.up)


@dataclass(frozen=True)
class McCordReport:
    """Per-point check that preimages of minimal open sets are contractible."""

    ok: bool
    entries: tuple[tuple[int, tuple[int, ...], bool], ...]

    def failures(self) -> list[int]:
        return [y for y, _, good in self.entries if not good]


def mccord_check(src: FinitePoset, dst: FinitePoset, mapping) -> McCordReport:
    """Sufficient weak-equivalence criterion for the cover by minimal open sets.

    Raises NotContinuousError if the map is not order preserving.  A False
    verdict only means this particular criterion failed, not that the map
    is no weak equivalence.
    """
    f = list(mapping)
    if len(f) != src.n:
        raise ValueError("mapping must assign every point of the source")
    for v in f:
        if not 0 <= v < dst.n:
            raise IndexError(f"image point {v} out of range")
    for x in range(src.n):
        for y in _bits(src.up[x]):
            if not dst.leq(f[x], f[y]):
                raise NotContinuousError(x, y, f[x], f[y])
    entries = []
    for y in range(dst.n):
        pre = tuple(s for s in range(src.n) if dst.leq(f[s], y))
        good = bool(pre) and _contractible(src, sum(1 << s for s in pre))
        entries.append((y, pre, good))
    return McCordReport(all(e[2] for e in entries), tuple(entries))


def flatten_to_height2(p: FinitePoset, x0: int) -> tuple[FinitePoset, tuple[int, ...]]:
    """Shrink to a connected subspace of height at most two containing x0.

    Removes the non-extremal points one at a time; each removal keeps the
    space connected and can only enlarge the fundamental group.  Minimal
    and maximal points are never removed, so a point has points strictly
    above and below it at every step iff it has them in p, and the points
    kept are the extremal ones.  A non-extremal basepoint would be the
    last non-extremal point left, which raises FlattenBlockedError (pick an
    extremal basepoint).  A basepoint that is not a point raises IndexError.
    """
    _check_point(p, x0)
    if not p.is_connected():
        raise NotConnectedError("flattening requires a connected space")
    inner = {v for v in range(p.n) if p.up[v] != 1 << v and p.down[v] != 1 << v}
    if x0 in inner:
        raise FlattenBlockedError("basepoint is the only non-extremal point left")
    kept = tuple(v for v in range(p.n) if v not in inner)
    return p.subposet(kept), kept
