"""Test oracle: Tietze simplification that re-scans every relator per step.

Each step sorts every relator by (length, word), takes the first with a
generator occurring exactly once in it, rewrites every other relator and
renumbers the generators above the eliminated one.  This was the library's
``tietze_simplify`` before it indexed relators by generator and renumbered
once at the end; it shares only the word helpers and ``GroupPresentation``
with the library.
"""

from __future__ import annotations

from finito.pi1 import GroupPresentation, cyclic_reduce, free_reduce, invert_word


def tietze_simplify(pres: GroupPresentation) -> GroupPresentation:
    """Eliminate generators defined by short relators.

    A generator occurring exactly once in some relator is rewritten away
    (this covers length-1 and length-2 defining relators); relators are
    freely and cyclically reduced and duplicates and empties dropped.  The
    isomorphism class of the presented group never changes.
    """
    g = pres.generators
    relators = {cyclic_reduce(r) for r in pres.relators}
    relators.discard(())
    while True:
        target = None
        for rel in sorted(relators, key=lambda r: (len(r), r)):
            once = sorted(
                a
                for a in {abs(l) for l in rel}
                if sum(1 for l in rel if abs(l) == a) == 1
            )
            if once:
                target = (rel, once[0])
                break
        if target is None:
            break
        rel, a = target
        pos = next(i for i, l in enumerate(rel) if abs(l) == a)
        rot = rel[pos:] + rel[:pos]
        # rot starts with a^s, so a = inverse(rest)^s
        expr = invert_word(rot[1:]) if rot[0] > 0 else rot[1:]
        relators.discard(rel)

        def renumber(letter):
            s = 1 if letter > 0 else -1
            v = abs(letter)
            return s * (v - 1) if v > a else s * v

        new_relators = set()
        for r in relators:
            out = []
            for letter in r:
                if abs(letter) == a:
                    out.extend(expr if letter > 0 else invert_word(expr))
                else:
                    out.append(letter)
            w = cyclic_reduce(tuple(renumber(l) for l in free_reduce(out)))
            if w:
                new_relators.add(w)
        relators = new_relators
        g -= 1
    return GroupPresentation(g, tuple(sorted(relators, key=lambda r: (len(r), r))))
