"""Model constructions and exhaustive verification at desk scale.

Builds the standard small models (non-Hausdorff suspensions, sphere
models, complete bipartite models of circle wedges), generates every
minimal model of a wedge of circles, and generates depth first, each once,
the poset classes of at most MAX_POINTS = 10 points to machine-check the
sphere theorem on every space of those sizes.  ``verify_sphere_theorem`` and
``verify_wedge_theorem`` decide each theorem and return reports that state
their scope: nothing is claimed beyond the sizes scanned.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations
from math import isqrt
from typing import Iterator, NamedTuple

from .errors import CapExceededError
from .order_complex import poset_homology
from .poset import FinitePoset, _bits, _twin_cell
from .reduction import is_minimal

MAX_POINTS = 10  # the largest class size that enumeration accepts
# verify_wedge_theorem(20) takes 4-6 s in all and n = 21 alone 37-51 s (2
# shared vCPUs): its 12-point models come from 71,997 edge sets, against at
# most 8,176 for any n <= 20.
MAX_WEDGE_N = 20  # the most circles verify_wedge_theorem scans

# OEIS A000112: poset classes with k points, k = 0..MAX_POINTS.
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231, 2567284)


# -- constructions -------------------------------------------------------------


def nh_suspension(p: FinitePoset) -> FinitePoset:
    """Non-Hausdorff suspension: two new incomparable points above all of p."""
    n = p.n
    two = (1 << n) | (1 << (n + 1))
    up = [row | two for row in p.up] + [1 << n, 1 << (n + 1)]
    q = FinitePoset._trusted(up)
    every = (1 << n) - 1
    q.down = p.down + (every | 1 << n, every | 1 << (n + 1))
    return q


def sphere_model(n: int) -> FinitePoset:
    """2n+2 point model of the n-sphere: iterated suspension of two points."""
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
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


def minimal_wedge_size(n: int) -> int:
    """Point count of any minimal model of an n-circle wedge: the least
    i+j with (i-1)(j-1) >= n."""
    if n < 1:
        raise ValueError("the wedge needs at least one circle")
    return min(i + (n + i - 2) // (i - 1) + 1 for i in range(2, n + 2))


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
    betti = poset_homology(p).betti
    return WedgeModelCertificate(
        n=n,
        size=p.n,
        edges=len(p.covers),
        height_ok=p.height == 2,
        size_ok=p.n == minimal_wedge_size(n),
        edges_ok=len(p.covers) == p.n + n - 1,
        connected=p.is_connected(),
        b1=betti[1] if len(betti) > 1 else 0,
    )


# -- exhaustive enumeration -----------------------------------------------------


def _orbit(mask: int, generators: list[tuple[int, ...]]) -> set[int]:
    """The orbit of a point set, as masks, under the group the generators
    (each a tuple g taking point x to g[x]) generate; each image is taken
    through the set's own points, so a point's orbit follows g[x] alone."""
    orbit, frontier = {mask}, [mask]
    for m in frontier:
        for g in generators:
            image = 0
            for x in _bits(m):
                image |= 1 << g[x]
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _accepts_tie(child: FinitePoset) -> bool:
    """Whether the child's new point t, its last, is in the Aut(child)
    orbit of ``_canon_last``, decided from its refined partition where that
    can: the labelling's last point lies in the last cell L, and every
    automorphism maps L onto itself.  So t outside L is rejected, and t in
    L is accepted when L is one point or a twin cell (one orbit, as each
    transposition inside it is an automorphism).  Refinement never splits a
    twin cell, so when the points of t's key already form one, that is L
    and nothing is refined.  Only otherwise is the child labelled and the
    orbit of its last point followed."""
    t, up, down, levels = child.n - 1, child.up, child.down, child.levels
    key = (levels[t], down[t].bit_count())
    if _twin_cell(up, down, [v for v in range(t + 1) if (levels[v], down[v].bit_count()) == key]):
        return True
    last = child._cells[-1]
    if t not in last:
        return False
    if _twin_cell(up, down, last):
        return True
    child._label()
    return 1 << t in _orbit(1 << child._canon_last, child._aut)


def _children(parent: FinitePoset) -> list[FinitePoset]:
    """The classes whose canonical parent is this class, each built once:
    the parent's rows plus a maximal point t above an ideal, with ``down``
    and ``levels`` set, so rows stay a linear extension, all that listing
    the ideals needs.  A child's canonical parent is the child less the
    point its labelling puts last, a maximal point of largest key (level,
    |down|), or less any point of that point's Aut(child) orbit.

    A t of key below the parent's largest is rejected unlabelled; of the
    others, one ideal per Aut(parent) orbit is tried.  A t of larger key is
    the child's last point, so the child is accepted unlabelled.  On a tie
    the child is accepted iff t is in the orbit of its last point, which
    ``_accepts_tie`` settles from the child's refined partition and labels
    the child only for the ties that partition leaves open.  No two
    accepted children are isomorphic: an isomorphism times an automorphism
    of the second child fixes t, so it restricts to an automorphism of the
    parent joining the two ideals.  The parent is labelled unless it
    already was."""
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
        if key == best and not _accepts_tie(child):
            continue
        accepted.append(child)
    return accepted


def _walk(k: int, p: FinitePoset | None = None) -> Iterator[FinitePoset]:
    """Every class with at most k points depth first, from the one-point
    class or only p and those below it, holding just the children of the
    current path.  A k beyond MAX_POINTS raises first, on every entry."""
    if k > MAX_POINTS:
        raise CapExceededError(f"k={k} exceeds the enumeration limit of {MAX_POINTS} points")
    if p is None:
        p = FinitePoset._trusted((1,))
    stack = [p]
    while stack:
        p = stack.pop()
        yield p
        if p.n < k:
            stack += _children(p)


def _top_codes(k: int, p: FinitePoset | None = None) -> list[bytes]:
    return [q.canonical_form() for q in _walk(k, p) if q.n == k]


def _filter_names(p: FinitePoset) -> list[str]:
    """The filters p passes: ``connected``, ``minimal`` and ``height=H``."""
    checks = ("connected", p.is_connected()), ("minimal", is_minimal(p))
    return [name for name, passed in checks if passed] + [f"height={p.height}"]


def _census(k: int, p: FinitePoset | None = None, *,
            want: str | None = None) -> tuple[Counter, list[bytes]]:
    """Filter names of the k-point classes the walk builds from p, counted,
    and the codes of those passing the filter named want, unsorted: of
    every class for "", of none for None; no other class is labelled
    beyond the parents and ties the walk needs."""
    tally, codes = Counter(), []
    for q in _walk(k, p):
        if q.n == k:
            names = _filter_names(q)
            tally.update(names)
            if want == "" or want in names:
                codes.append(q.canonical_form())
    return tally, codes


def _pooled(job, k: int, workers: int) -> list:
    """[job(k)] for one worker.  Several walk in one forked pool, job(k, p)
    for each p of the first size with 32 classes a worker, or k - 1 points."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"workers must be from 1 to {cpus} (the CPU count), got {workers}")
    if workers == 1:
        return [job(k)]
    frontier = [next(_walk(k))]  # the one-point class
    while len(frontier) < 32 * workers and frontier[0].n < k - 1:
        frontier = [c for p in frontier for c in _children(p)]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(partial(job, k), frontier)


def enumerate_posets(k: int, *, workers: int = 1) -> Iterator[FinitePoset]:
    """One canonically labeled representative per isomorphism class of
    k-point posets, in code order, for k from 1 to MAX_POINTS; only their
    codes are sorted and decoded.  Several workers share the walk."""
    for code in sorted(chain.from_iterable(_pooled(_top_codes, k, workers))):
        yield FinitePoset._from_code(code)


@dataclass
class EnumerationStats:
    """Class counts for one point count, overall and per filter."""

    k: int
    total: int
    by_filter: dict[str, int] = field(default_factory=dict)


def enumeration_stats(k: int, *, workers: int = 1) -> EnumerationStats:
    """Counts over the k-point classes the workers walk, none decoded and
    none labelled beyond the parents and ties the walk needs."""
    return _enumeration(k, None, workers)[0]


def _enumeration(k: int, want: str | None, workers: int) -> tuple[EnumerationStats, list[bytes]]:
    """The stats of the k-point classes and, in code order, the codes of
    those passing the filter named want, as ``_census`` takes it, from one
    walk the workers share."""
    tally, codes = Counter(), []
    for part, found in _pooled(partial(_census, want=want), k, workers):
        tally += part
        codes += found
    heights = {f"height={h}": tally[f"height={h}"]
               for h in range(1, k + 1) if f"height={h}" in tally}
    stats = EnumerationStats(k, sum(heights.values()), {
        "connected": tally["connected"], "minimal": tally["minimal"], **heights})
    codes.sort()
    return stats, codes


# -- theorem verification -------------------------------------------------------


@dataclass
class SphereTheoremReport:
    """Exhaustive lower-bound and equality check for minimal finite spaces.

    Scope: every isomorphism class with at most 2*max_height points.  The
    sphere statement itself concerns all spaces with the homotopy groups
    of a sphere; this report checks its combinatorial core on every finite
    space scanned plus the homology of the standard models.  No verdict
    holds unless the classes scanned of each size number as many as OEIS
    A000112 lists, so a walk that loses a class cannot confirm.
    """

    max_height: int
    points_scanned: int
    classes_scanned: int = 0
    classes_per_size: dict[int, int] = field(default_factory=dict)
    lower_bound_violations: list[FinitePoset] = field(default_factory=list)
    equality_classes: dict[int, list[FinitePoset]] = field(default_factory=dict)
    equality_violations: list[FinitePoset] = field(default_factory=list)

    @property
    def counts_confirmed(self) -> bool:
        """The classes scanned of each size 1..points_scanned match A000112."""
        return all(self.classes_per_size.get(k, 0) == A000112[k]
                   for k in range(1, self.points_scanned + 1))

    def height_confirmed(self, h: int) -> bool:
        """Exactly one minimal class of height h has 2h points: the sphere
        model, among class counts that match A000112."""
        classes = self.equality_classes.get(h, [])
        return (self.counts_confirmed and len(classes) == 1
                and classes[0] not in self.equality_violations)

    @property
    def confirmed(self) -> bool:
        return self.counts_confirmed and not self.lower_bound_violations and all(
            self.height_confirmed(h) for h in range(1, self.max_height + 1)
        )


def verify_sphere_theorem(h: int) -> SphereTheoremReport:
    """Check each class with <= 2h points as the depth-first walk builds it,
    decoding none and labelling each at most once, only the parents and tie
    children that enumeration labels (the report lists classes as built): a
    beat-point-free non-singleton space has at least twice its height many
    points, and the equality cases are exactly the sphere models.  The
    classes of each size are counted.  2 <= h <= MAX_POINTS // 2."""
    if h < 2:
        raise ValueError(f"max height must be at least 2, got {h}")
    if 2 * h > MAX_POINTS:
        raise CapExceededError(f"max height {h} needs {2 * h} points, beyond the"
                               f" enumeration limit of {MAX_POINTS} points")
    sizes = dict.fromkeys(range(1, 2 * h + 1), 0)
    report = SphereTheoremReport(max_height=h, points_scanned=2 * h, classes_per_size=sizes)
    for p in _walk(2 * h):
        report.classes_scanned += 1
        sizes[p.n] += 1
        if p.n < 2 or not is_minimal(p):
            continue
        if p.n < 2 * p.height:
            report.lower_bound_violations.append(p)
        elif p.n == 2 * p.height:
            report.equality_classes.setdefault(p.height, []).append(p)
            if not p.is_homeomorphic(sphere_model(p.height - 1)):
                report.equality_violations.append(p)
    return report


def enumerate_wedge_minimal_models(n: int) -> list[FinitePoset]:
    """Every class of the height-2 edge sets that the three wedge-model
    conditions allow for n circles, as canonical representatives in code
    order, the order of enumeration.  Nothing is filtered here:
    ``verify_wedge_theorem`` certifies each class.

    A model has ``minimal_wedge_size(n)`` points, height 2 and size + n - 1
    covers (Barmak & Minian): with j minimal points under i maximal ones it
    is K_{i,j} less (i-1)(j-1) - n edges.  No point is isolated, or the
    other size - 1 points would carry those covers, against the minimality
    of size.  Every such edge set is tried and merged by canonical code.
    """
    size = minimal_wedge_size(n)
    codes = set()
    for j in range(1, size):
        spare = (size - j - 1) * (j - 1) - n
        if spare < 0:
            continue
        tops = (1 << size) - (1 << j)
        edges = [(b, 1 << t) for b in range(j) for t in range(j, size)]
        for missing in combinations(edges, spare):
            rows = [1 << b | tops for b in range(j)] + [1 << t for t in range(j, size)]
            for b, bit in missing:
                rows[b] ^= bit
            codes.add(FinitePoset._trusted(tuple(rows)).canonical_form())
    return list(map(FinitePoset._from_code, sorted(codes)))


class WedgeRow(NamedTuple):
    """One n of a wedge scan: model size, edge count, classes, verdict."""

    n: int
    size: int
    edges: int
    models: int
    square: bool
    unique: bool
    ok: bool


@dataclass
class WedgeTheoremReport:
    """One row per wedge of n circles scanned; every class found that is no model."""

    rows: list[WedgeRow] = field(default_factory=list)
    violators: list[FinitePoset] = field(default_factory=list)

    @property
    def confirmed(self) -> bool:
        return bool(self.rows) and all(r.ok for r in self.rows)


def verify_wedge_theorem(max_n: int) -> WedgeTheoremReport:
    """Certify each class of ``enumerate_wedge_minimal_models(n)`` once, for
    n = 1..max_n (1 <= max_n <= MAX_WEDGE_N).  A class is a violator unless
    its certificate holds, it is connected with b1 = n and its opposite
    class is found too; a row holds with no violator and one class exactly
    when n is a square."""
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    if max_n > MAX_WEDGE_N:
        raise CapExceededError(f"max n {max_n} exceeds the wedge limit of {MAX_WEDGE_N} circles")
    report = WedgeTheoremReport()
    for n in range(1, max_n + 1):
        models = enumerate_wedge_minimal_models(n)
        codes = {p.canonical_form() for p in models}
        bad = [
            p for p in models
            if not (cert := check_wedge_model(p, n)).all_satisfied
            or not cert.connected or cert.b1 != n
            or p.opposite().canonical_form() not in codes
        ]
        report.violators += bad
        size, count, square = minimal_wedge_size(n), len(models), is_square(n)
        ok = not bad and count >= 1 and (count == 1) == square
        report.rows.append(WedgeRow(n, size, size + n - 1, count, square, count == 1, ok))
    return report


def wedge_uniqueness_scan(max_n: int) -> list[tuple[int, int]]:
    """(n, number of minimal-model classes) for n = 1..max_n, read off the
    rows of ``verify_wedge_theorem``; the count is 1 exactly when n is a
    perfect square."""
    return [(r.n, r.models) for r in verify_wedge_theorem(max_n).rows]


def is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n
