"""Test oracle: the children of a class found by labelling every one.

``labelled_children`` is the library's ``models._children`` as it was before
children of a new point with the unique largest key were accepted by
automorphism orbit: every child that passes the key test is labelled, and
isomorphic siblings merge by code.  The parent must carry its code
(``parent.canonical_form()``) before it is called.
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
