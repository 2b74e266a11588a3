"""Test oracle: poset classes by labelling every one-point extension.

The k-point classes are grown from the (k-1)-point ones by adding one
maximal point above every down-set, found by testing all 2^n masks; every
child is canonically labelled and duplicates are removed with a set.  This
was the library's enumerator before canonical augmentation replaced it,
and it shares only ``canonical_form`` with the library.
"""

from __future__ import annotations

from finito import FinitePoset


def ideal_masks(rows: tuple[int, ...]) -> list[int]:
    """All down-closed subsets of the poset, as bitmasks (0 and full included)."""
    n = len(rows)
    strict_down = [0] * n
    for x in range(n):
        for j in range(n):
            if x != j and (rows[j] >> x) & 1:
                strict_down[x] |= 1 << j
    out = []
    for mask in range(1 << n):
        m = mask
        ok = True
        while m:
            low = m & -m
            if strict_down[low.bit_length() - 1] & ~mask:
                ok = False
                break
            m ^= low
        if ok:
            out.append(mask)
    return out


def extensions(rows: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Rows of every one-point maximal extension of a poset."""
    n = len(rows)
    top = 1 << n
    return [
        tuple(row | (top if (ideal >> x) & 1 else 0) for x, row in enumerate(rows))
        + (top,)
        for ideal in ideal_masks(rows)
    ]


def oracle_codes(max_k: int) -> list[tuple[bytes, ...]]:
    """Sorted canonical codes of the k-point classes for k = 1..max_k."""
    level = {FinitePoset((1,)).canonical_form(): (1,)}
    out = [tuple(sorted(level))]
    for _ in range(max_k - 1):
        found = {}
        for rows in level.values():
            for child in extensions(rows):
                code = FinitePoset._trusted(child).canonical_form()
                found.setdefault(code, child)
        level = found
        out.append(tuple(sorted(level)))
    return out
