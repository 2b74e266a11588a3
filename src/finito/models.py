"""Model constructions and exhaustive verification at desk scale.

Builds the standard small models (non-Hausdorff suspensions, sphere
models, complete bipartite models of circle wedges), decides the
minimal-model conditions for wedges of circles, and enumerates all poset
isomorphism classes up to a configurable cap to machine-check the sphere
and wedge theorems on every space the cap reaches.  Reports state their
scope: nothing is claimed beyond the enumerated sizes.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Iterator

from .errors import CapExceededError
from .order_complex import betti_numbers, euler_characteristic
from .poset import CanonicalForm, FinitePoset
from .reduction import beat_points

DEFAULT_MAX_POINTS = 8
HARD_MAX_POINTS = 10
MAX_POINTS_ENV = "FINITO_MAX_POINTS"


def resolve_cap(max_points: int | None = None) -> int:
    """Enumeration cap: explicit argument, else FINITO_MAX_POINTS, else 8.

    A cap that is not a whole number of at least 1 raises ValueError naming
    where it came from.
    """
    source, raw = "--max-points", max_points
    if raw is None:
        source = MAX_POINTS_ENV
        raw = os.environ.get(MAX_POINTS_ENV) or DEFAULT_MAX_POINTS
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{source} must be a whole number of at least 1, got {raw!r}")
    if cap > HARD_MAX_POINTS:
        raise CapExceededError(
            f"cap {cap} exceeds the hard limit of {HARD_MAX_POINTS} points"
        )
    return cap


# -- constructions -------------------------------------------------------------


def nh_suspension(p: FinitePoset) -> FinitePoset:
    """Non-Hausdorff suspension: two new incomparable points above all of p."""
    n = p.n
    two = (1 << n) | (1 << (n + 1))
    up = [row | two for row in p.up] + [1 << n, 1 << (n + 1)]
    return FinitePoset._trusted(up)


def sphere_model(n: int) -> FinitePoset:
    """2n+2 point model of the n-sphere: iterated suspension of two points."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    p = FinitePoset.antichain(2)
    for _ in range(n):
        p = nh_suspension(p)
    return p


def bipartite_model(i: int, j: int) -> FinitePoset:
    """j minimal points all below i maximal points; b1 = (i-1)(j-1)."""
    if i < 1 or j < 1:
        raise ValueError("both sides need at least one point")
    pairs = [(b, j + t) for b in range(j) for t in range(i)]
    return FinitePoset.from_cover_pairs(i + j, pairs)


# -- wedge-of-circles models ----------------------------------------------------


def _ceil_sqrt(n: int) -> int:
    s = isqrt(n)
    return s if s * s == n else s + 1


def minimal_wedge_size(n: int) -> int:
    """Point count of any minimal model of an n-circle wedge.

    Direct minimum of i+j over (i-1)(j-1) >= n, asserted equal to the
    closed form min{2*ceil(sqrt(n)+1), 2*ceil((1+sqrt(1+4n))/2)+1}.
    All square roots are exact integer ceilings, never floats.
    """
    if n < 1:
        raise ValueError("the wedge needs at least one circle")
    direct = min(i + (n + i - 2) // (i - 1) + 1 for i in range(2, n + 2))
    even = 2 * (_ceil_sqrt(n) + 1)
    # odd candidate: smallest k with (2k-1)^2 >= 1+4n gives 2k+1 points
    k = (1 + isqrt(1 + 4 * n)) // 2
    while (2 * k - 1) ** 2 < 1 + 4 * n:
        k += 1
    while k > 1 and (2 * (k - 1) - 1) ** 2 >= 1 + 4 * n:
        k -= 1
    odd = 2 * k + 1
    closed = min(even, odd)
    if direct != closed:
        raise AssertionError(f"size formula mismatch at n={n}: {direct} != {closed}")
    return direct


@dataclass(frozen=True)
class WedgeModelCertificate:
    """Evaluation of the three minimal-model conditions for an n-circle wedge."""

    n: int
    size: int
    edges: int
    height_ok: bool
    size_ok: bool
    edges_ok: bool
    connected: bool
    b1: int

    @property
    def all_satisfied(self) -> bool:
        return self.height_ok and self.size_ok and self.edges_ok


def check_wedge_model(p: FinitePoset, n: int) -> WedgeModelCertificate:
    """Check height = 2, minimal size, and edge count for an n-circle wedge.

    Connectivity and b1 are recorded so callers can confirm that a space
    passing all three conditions really is a connected model with b1 = n
    (a consequence of the conditions, not an extra requirement).
    """
    betti = betti_numbers(p)
    return WedgeModelCertificate(
        n=n,
        size=p.n,
        edges=p.cover_count,
        height_ok=p.height == 2,
        size_ok=p.n == minimal_wedge_size(n),
        edges_ok=p.cover_count == p.n + n - 1,
        connected=p.is_connected(),
        b1=betti[1] if len(betti) > 1 else 0,
    )


# -- exhaustive enumeration -----------------------------------------------------


def _rows_from_code(code: bytes) -> tuple[int, ...]:
    """Rebuild the canonically labeled relation from a fingerprint."""
    n = int.from_bytes(code[:2], "big")
    enc = int.from_bytes(code[2:], "big")
    rows = [1 << i for i in range(n)]
    bitpos = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            bitpos -= 1
            if (enc >> bitpos) & 1:
                rows[i] |= 1 << j
    return tuple(rows)


def _poset_from_code(code: bytes) -> FinitePoset:
    p = FinitePoset._trusted(_rows_from_code(code))
    p._canon = CanonicalForm(code)
    return p


def _ideal_masks(rows: tuple[int, ...]) -> list[int]:
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


def _children_codes(code: bytes) -> set[bytes]:
    """Canonical codes of all one-point maximal extensions of a class."""
    rows = _rows_from_code(code)
    n = len(rows)
    top = 1 << n
    out = set()
    for ideal in _ideal_masks(rows):
        child = tuple(
            row | (top if (ideal >> x) & 1 else 0) for x, row in enumerate(rows)
        ) + (top,)
        out.add(FinitePoset._trusted(child).canonical_form().code)
    return out


def _children_batch(codes) -> set[bytes]:
    out = set()
    for code in codes:
        out |= _children_codes(code)
    return out


_code_cache: dict[int, tuple[bytes, ...]] = {}


def _codes(k: int, workers: int = 1) -> tuple[bytes, ...]:
    """Sorted canonical codes of all k-point classes, grown one maximal
    point at a time; duplicate classes vanish because each class has one
    code, so workers never need to coordinate."""
    if k in _code_cache:
        return _code_cache[k]
    if k == 1:
        result = (FinitePoset((1,)).canonical_form().code,)
    else:
        parents = _codes(k - 1, workers)
        if workers > 1 and len(parents) >= 32:
            ctx = multiprocessing.get_context("fork")
            chunks = [parents[i::workers] for i in range(workers)]
            with ctx.Pool(workers) as pool:
                parts = pool.map(_children_batch, chunks)
            found = set().union(*parts)
        else:
            found = _children_batch(parents)
        result = tuple(sorted(found))
    _code_cache[k] = result
    return result


def enumerate_posets(
    k: int,
    *,
    max_points: int | None = None,
    workers: int = 1,
) -> Iterator[FinitePoset]:
    """One canonically labeled representative per isomorphism class of
    k-point posets, in canonical-form order."""
    if k < 1:
        raise ValueError("k must be positive")
    cap = resolve_cap(max_points)
    if k > cap:
        raise CapExceededError(
            f"k={k} exceeds the enumeration cap of {cap} points"
            f" (raise it explicitly or via {MAX_POINTS_ENV})"
        )
    for code in _codes(k, workers):
        yield _poset_from_code(code)


@dataclass
class EnumerationStats:
    """Class counts for one point count, overall and per filter."""

    k: int
    total: int
    by_filter: dict[str, int] = field(default_factory=dict)


def enumeration_stats(k: int, classes: Iterable[FinitePoset]) -> EnumerationStats:
    """Counts over the k-point classes given, e.g. by ``enumerate_posets(k)``."""
    stats = EnumerationStats(k=k, total=0)
    heights: dict[int, int] = {}
    connected = minimal = 0
    for p in classes:
        stats.total += 1
        heights[p.height] = heights.get(p.height, 0) + 1
        if p.is_connected():
            connected += 1
        if not beat_points(p):
            minimal += 1
    stats.by_filter["connected"] = connected
    stats.by_filter["minimal"] = minimal
    for h in sorted(heights):
        stats.by_filter[f"height={h}"] = heights[h]
    return stats


# -- theorem verification -------------------------------------------------------


@dataclass
class SphereTheoremReport:
    """Exhaustive lower-bound and equality check for minimal finite spaces.

    Scope: every isomorphism class with at most 2*max_height points.  The
    sphere statement itself concerns all spaces with the homotopy groups
    of a sphere; this report checks its combinatorial core on every finite
    space the cap reaches plus the homology of the standard models.
    """

    max_height: int
    points_scanned: int
    classes_scanned: int = 0
    lower_bound_violations: list[FinitePoset] = field(default_factory=list)
    equality_classes: dict[int, list[FinitePoset]] = field(default_factory=dict)
    equality_violations: list[FinitePoset] = field(default_factory=list)

    @property
    def confirmed(self) -> bool:
        heights_ok = all(
            len(self.equality_classes.get(h, [])) == 1
            for h in range(1, self.max_height + 1)
        )
        return (
            not self.lower_bound_violations
            and not self.equality_violations
            and heights_ok
        )


def verify_sphere_theorem(h: int, *, max_points: int | None = None) -> SphereTheoremReport:
    """Check every class with <= 2h points: a beat-point-free non-singleton
    space has at least twice its height many points, and the equality cases
    are exactly the standard sphere models, one class per height."""
    if h < 2:
        raise ValueError("verification starts at height 2")
    report = SphereTheoremReport(max_height=h, points_scanned=2 * h)
    for k in range(1, 2 * h + 1):
        for p in enumerate_posets(k, max_points=max_points):
            report.classes_scanned += 1
            if p.n < 2 or beat_points(p):
                continue
            if p.n < 2 * p.height:
                report.lower_bound_violations.append(p)
            elif p.n == 2 * p.height:
                report.equality_classes.setdefault(p.height, []).append(p)
                if not p.is_homeomorphic(sphere_model(p.height - 1)):
                    report.equality_violations.append(p)
    return report


def enumerate_wedge_minimal_models(
    n: int, *, max_points: int | None = None
) -> list[FinitePoset]:
    """All classes satisfying the three wedge-model conditions for n circles."""
    size = minimal_wedge_size(n)
    cap = resolve_cap(max_points)
    if size > cap:
        raise CapExceededError(
            f"minimal models of an n={n} wedge have {size} points, beyond cap {cap}"
        )
    out = []
    for p in enumerate_posets(size, max_points=max_points):
        # cheap screens first; the certificate recomputes them with b1
        if p.height != 2 or p.cover_count != size + n - 1:
            continue
        if check_wedge_model(p, n).all_satisfied:
            out.append(p)
    return out


def wedge_uniqueness_scan(
    max_n: int, *, max_points: int | None = None
) -> list[tuple[int, int]]:
    """(n, number of minimal-model classes) for n = 1..max_n; the count is
    1 exactly when n is a perfect square."""
    return [
        (n, len(enumerate_wedge_minimal_models(n, max_points=max_points)))
        for n in range(1, max_n + 1)
    ]


def is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n
