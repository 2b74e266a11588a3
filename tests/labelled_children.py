"""Test oracles: the children of a class found by labelling more of them.

``labelled_children`` is the library's ``models._children`` as it was before
children of a new point with the unique largest key were accepted by
automorphism orbit: every child that passes the key test is labelled, and
isomorphic siblings merge by code.  The parent must carry its code
(``parent.canonical_form()``) before it is called.

``orbit_children`` is ``models._children`` as it was before tie children
were settled from their refined partition: every tie child is labelled and
accepted iff its new point is in the Aut(child) orbit of its last point.
It builds the same children in the same order, so the walk's rows can be
compared with it row for row.
"""

from __future__ import annotations

from finito import FinitePoset


def labelled_children(parent: FinitePoset) -> list[FinitePoset]:
    """The classes whose canonical parent is this class, each built once:
    the parent's rows plus a maximal point t above an ideal, with ``down``,
    ``levels`` and the canonical code set.  So from the one-point class on,
    rows are a linear extension, all that listing the ideals needs.  The
    canonical parent of a child is the child less the maximal point of
    largest key (level, |down|) that its labelling puts last.  So a t of
    smaller key than the parent's largest is rejected unlabelled, a larger
    one accepted, and on a tie the child is accepted if its labelling ends
    at t or its canonical parent is this class; isomorphic ones merge here."""
    rows, down, levels, n = parent.up, parent.down, parent.levels, parent.n
    best = max(zip(levels, (d.bit_count() for d in down)))
    # a point may join an ideal once its strict down-set, decided by then, is in
    ideals = [(0, 0)]  # (mask, highest level in it)
    for x in range(n):
        below = down[x] ^ (1 << x)
        ideals += [(m | 1 << x, max(h, levels[x])) for m, h in ideals if not below & ~m]
    top = 1 << n
    seen, accepted = set(), []
    for ideal, high in ideals:
        key = (high + 1, ideal.bit_count() + 1)
        if key < best:
            continue
        child = FinitePoset._trusted(
            [row | top if (ideal >> x) & 1 else row for x, row in enumerate(rows)] + [top])
        child.__dict__["down"] = down + (ideal | top,)
        child.__dict__["levels"] = levels + (key[0],)
        code = child.canonical_form()
        if code in seen:
            continue
        seen.add(code)
        last = child._canon_last
        if key > best or last == n or child.subposet(
            [x for x in range(n + 1) if x != last]
        ).canonical_form() == parent._canon:
            accepted.append(child)
    return accepted


def _orbit(mask: int, generators: list[tuple[int, ...]]) -> set[int]:
    """The orbit of a point set, as masks, under the group the generators
    (each a tuple g taking point x to g[x]) generate."""
    orbit, frontier = {mask}, [mask]
    for m in frontier:
        for g in generators:
            image = sum(1 << y for x, y in enumerate(g) if (m >> x) & 1)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def orbit_children(parent: FinitePoset) -> list[FinitePoset]:
    """The classes whose canonical parent is this class, each built once:
    the parent's rows plus a maximal point t above an ideal, with ``down``
    and ``levels`` set, so rows stay a linear extension, all that listing
    the ideals needs.  A child's canonical parent is the child less the
    point its labelling puts last, a maximal point of largest key (level,
    |down|), or less any point of that point's Aut(child) orbit.

    A t of key below the parent's largest is rejected unlabelled; of the
    others, one ideal per Aut(parent) orbit is tried.  A t of larger key is
    the child's last point, so the child is accepted unlabelled.  On a tie
    the child is labelled once and accepted iff t is in the orbit of its
    last point.  No two accepted children are isomorphic: an isomorphism
    times an automorphism of the second child fixes t, so it restricts to
    an automorphism of the parent joining the two ideals.  The parent is
    labelled unless it already was."""
    rows, down, levels, n = parent.up, parent.down, parent.levels, parent.n
    if parent._aut is None:
        parent._label()
    best = max(zip(levels, (d.bit_count() for d in down)))
    # a point may join an ideal once its strict down-set, decided by then, is in
    ideals = [(0, 0)]  # (mask, highest level in it)
    for x in range(n):
        below = down[x] ^ (1 << x)
        ideals += [(m | 1 << x, max(h, levels[x])) for m, h in ideals if not below & ~m]
    top = 1 << n
    taken, accepted = set(), []  # ideals of the orbits met
    for ideal, high in ideals:
        key = (high + 1, ideal.bit_count() + 1)
        if key < best or ideal in taken:
            continue
        taken |= _orbit(ideal, parent._aut)
        child = FinitePoset._trusted(
            [row | top if (ideal >> x) & 1 else row for x, row in enumerate(rows)] + [top])
        child.__dict__["down"] = down + (ideal | top,)
        child.__dict__["levels"] = levels + (key[0],)
        if key == best:
            child._label()
            if top not in _orbit(1 << child._canon_last, child._aut):
                continue
        accepted.append(child)
    return accepted
