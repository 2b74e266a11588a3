"""Homotopy-theoretic shrinking of finite spaces.

Beat points and cores in the sense of Stong, contractibility and homotopy
equivalence tests, Osaki's open and closed quotient reductions with their
hypothesis check, the basis-like-cover continuity criterion for a given
map, and removal of non-extremal points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FlattenBlockedError,
    LastPointError,
    NotConnectedError,
    NotContinuousError,
)
from .poset import FinitePoset, _bits


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


def beat_points(p: FinitePoset) -> list[BeatPointReport]:
    """All beat points; empty iff p is a minimal finite space."""
    out = []
    for x in range(p.n):
        down = p.down[x] & ~(1 << x)
        if down:
            for y in _bits(down):
                if not down & ~p.down[y]:
                    out.append(BeatPointReport(x, "down", y))
                    break
        up = p.up[x] & ~(1 << x)
        if up:
            for y in _bits(up):
                if not up & ~p.up[y]:
                    out.append(BeatPointReport(x, "up", y))
                    break
    return out


def core(p: FinitePoset) -> ReductionTrace:
    """Strong deformation retract with no beat points.

    Always removes the beat point with the smallest index first, so traces
    are reproducible; the final space is independent of the removal order
    up to homeomorphism.
    """
    kept = list(range(p.n))
    removed = []
    current = p
    while True:
        reports = beat_points(current)
        if not reports:
            break
        rep = min(reports, key=lambda r: (r.element, r.kind))
        removed.append(
            BeatPointReport(kept[rep.element], rep.kind, kept[rep.witness])
        )
        del kept[rep.element]
        current = p.subposet(kept)
    return ReductionTrace(tuple(removed), tuple(kept), current)


def is_contractible(p: FinitePoset) -> bool:
    """True iff the core is a single point."""
    return core(p).final.n == 1


def is_homotopy_equivalent(p: FinitePoset, q: FinitePoset) -> bool:
    """True iff the cores are homeomorphic."""
    return core(p).final.is_homeomorphic(core(q).final)


def _mask_contractible(p: FinitePoset, mask: int) -> bool:
    if mask == 0:
        return False
    return is_contractible(p.subposet(list(_bits(mask))))


def _quotient(p: FinitePoset, mask: int) -> FinitePoset:
    """Collapse the points of ``mask`` to one class point (appended last).

    ``mask`` must be a down-set.  The remaining points keep their induced
    order, and the class point lies below exactly those whose down-set
    meets ``mask`` and above none of them, so the result is a partial
    order without any closure or T0 check.
    """
    keep = [x for x in range(p.n) if not (mask >> x) & 1]
    up = list(p.subposet(keep).up) if keep else []
    cls = 1 << len(keep)
    for i, x in enumerate(keep):
        if p.down[x] & mask:
            cls |= 1 << i
    labels = None
    if p.labels:
        collapsed = "{" + ",".join(p.label(x) for x in _bits(mask)) + "}"
        labels = tuple(p.label(x) for x in keep) + (collapsed,)
    return FinitePoset._trusted(up + [cls], labels)


def osaki_open_reduction(p: FinitePoset, x: int) -> FinitePoset | None:
    """Quotient by the minimal open set of x, when the hypothesis holds.

    Checks that every intersection with another minimal open set is empty
    or has a one-point core; contractibility is a decidable sufficient
    stand-in for vanishing homotopy groups at these sizes.  Returns None
    when the check fails.
    """
    u = p.down[x]
    for y in range(p.n):
        inter = u & p.down[y]
        if inter and not _mask_contractible(p, inter):
            return None
    return _quotient(p, u)


def osaki_closed_reduction(p: FinitePoset, x: int) -> FinitePoset | None:
    """Quotient by the closure of {x}; dual of the open reduction."""
    q = osaki_open_reduction(p.opposite(), x)
    return q.opposite() if q is not None else None


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
        good = bool(pre) and is_contractible(src.subposet(pre))
        entries.append((y, pre, good))
    return McCordReport(all(e[2] for e in entries), tuple(entries))


def remove_point(p: FinitePoset, x: int) -> FinitePoset:
    """Induced order on the complement of one point."""
    if p.n < 2:
        raise LastPointError("cannot remove the last point")
    return p.subposet([v for v in range(p.n) if v != x])


def flatten_to_height2(p: FinitePoset, x0: int) -> tuple[FinitePoset, tuple[int, ...]]:
    """Shrink to a connected subspace of height at most two containing x0.

    Repeatedly removes the smallest non-extremal point other than the
    basepoint; each removal keeps the space connected and can only enlarge
    the fundamental group.  If the basepoint itself ends up as the only
    non-extremal point the target height is unreachable without dropping
    it, which raises FlattenBlockedError (pick an extremal basepoint).
    """
    if not p.is_connected():
        raise NotConnectedError("flattening requires a connected space")
    kept = list(range(p.n))
    current = p
    while current.height > 2:
        candidates = [
            v
            for v in range(current.n)
            if kept[v] != x0
            and current.up[v] != 1 << v
            and current.down[v] != 1 << v
        ]
        if not candidates:
            raise FlattenBlockedError(
                "basepoint is the only non-extremal point left"
            )
        v = candidates[0]
        del kept[v]
        current = p.subposet(kept)
    return current, tuple(kept)
