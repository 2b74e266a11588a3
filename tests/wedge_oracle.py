"""Test oracle: minimal wedge models by screening every class of their size.

Each minimal size is enumerated once, and a class of height 2 with c
covers is kept as a model of the n-circle wedge for n = c - size + 1 when
that n is asked for, the size is minimal for it and it passes
``check_wedge_model``.  This was the library's wedge scan before the
height-2 generator replaced it; it shares ``check_wedge_model`` and the
class enumeration with the library, not the generator.
"""

from __future__ import annotations

from finito import FinitePoset, check_wedge_model, enumerate_posets, minimal_wedge_size


def wedge_models_by_enumeration(ns) -> dict[int, list[FinitePoset]]:
    """Models of the n-circle wedge for each n in ns, in enumeration order."""
    sizes = {n: minimal_wedge_size(n) for n in ns}
    found: dict[int, list[FinitePoset]] = {n: [] for n in ns}
    for size in sorted(set(sizes.values())):
        for p in enumerate_posets(size):
            if p.height != 2:
                continue
            n = len(p.covers) - size + 1
            if sizes.get(n) == size and check_wedge_model(p, n).all_satisfied:
                found[n].append(p)
    return found
