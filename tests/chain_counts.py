"""Chains counted by length, an oracle for the tests: the library counts one
number and one signed number per point instead (``_chain_totals``)."""

from __future__ import annotations

from finito import FinitePoset
from finito.poset import _bits


def chain_counts(p: FinitePoset) -> list[int]:
    """Chains of p by length: entry d counts the chains of d + 1 points,
    the d-faces of the order complex.

    Chains are counted, not listed: visiting the points in a linear
    extension, the chains with top y are y alone and each chain with top
    x < y extended by y.
    """
    ending = {}  # ending[y][l]: chains of l+1 points with top y
    for y in sorted(range(p.n), key=lambda x: p.down[x].bit_count()):
        counts = ending[y] = [1] + [0] * (p.levels[y] - 1)
        for x in _bits(p.down[y] & ~(1 << y)):
            for length, c in enumerate(ending[x], 1):
                counts[length] += c
    return [sum(c[d] for c in ending.values() if len(c) > d) for d in range(p.height)]
