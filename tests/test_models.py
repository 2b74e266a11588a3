import itertools
import os
import random
from collections import Counter

import pytest

from extension_oracle import ideal_masks, oracle_codes
from labelled_children import labelled_children, orbit_children
from wedge_oracle import wedge_models_by_enumeration

from finito import (
    CapExceededError,
    FinitePoset,
    beat_points,
    bipartite_model,
    check_wedge_model,
    enumerate_posets,
    enumerate_wedge_minimal_models,
    enumeration_stats,
    euler_characteristic,
    is_contractible,
    minimal_wedge_size,
    nh_suspension,
    poset_homology,
    sphere_model,
    verify_sphere_theorem,
    verify_wedge_theorem,
    wedge_uniqueness_scan,
)
from finito import models, poset
from finito.models import MAX_POINTS, is_square
from finito.poset import _bits, _canonical_encoding, _twin_cell

# OEIS A000112: poset classes with k points, k = 0..10.
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231, 2567284)

# OEIS A000608: connected poset classes with k points, k = 1..10.
A000608 = (1, 1, 3, 10, 44, 238, 1650, 14512, 163341, 2360719)

# Minimal-model classes of the n-circle wedge, n = 1..16.
WEDGE_COUNTS = (1, 2, 3, 1, 2, 2, 5, 3, 1, 8, 2, 2, 12, 5, 3, 1)


def assert_wedge_models_match_oracle(ns):
    found = wedge_models_by_enumeration(ns)
    for n in ns:
        codes = [p.canonical_form() for p in enumerate_wedge_minimal_models(n)]
        assert codes == [p.canonical_form() for p in found[n]]


def labeled_poset_count_oracle(k):
    """Count labeled posets by brute force over antisymmetric relations and
    collect one canonical code per class; independent of the extension
    generator."""
    pairs = list(itertools.combinations(range(k), 2))
    codes = set()
    labeled = 0
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rows = [1 << i for i in range(k)]
        for (i, j), state in zip(pairs, choice):
            if state == 1:
                rows[i] |= 1 << j
            elif state == 2:
                rows[j] |= 1 << i
        ok = True
        for i in range(k):
            m = rows[i] & ~(1 << i)
            while m:
                low = m & -m
                if rows[low.bit_length() - 1] & ~rows[i]:
                    ok = False
                    break
                m ^= low
            if not ok:
                break
        if ok:
            labeled += 1
            codes.add(FinitePoset(rows).canonical_form())
    return labeled, codes


def test_nh_suspension_of_two_points(ss0):
    assert nh_suspension(FinitePoset.antichain(2)).is_homeomorphic(ss0)


def test_nh_suspension_of_point_is_contractible():
    s = nh_suspension(FinitePoset.antichain(1))
    assert s.n == 3
    assert is_contractible(s)  # it has a minimum


def test_nh_suspension_of_three_points(osaki_y):
    s = nh_suspension(FinitePoset.antichain(3))
    assert s.n == 5 and len(s.covers) == 6
    assert s.is_homeomorphic(osaki_y)


def test_sphere_models():
    assert sphere_model(0) == FinitePoset.antichain(2)
    s1 = sphere_model(1)
    assert s1.n == 4 and len(s1.covers) == 4
    s2 = sphere_model(2)
    assert s2.n == 6 and euler_characteristic(s2) == 2
    assert poset_homology(s2).betti == (1, 0, 1)
    for n in range(5):
        s = sphere_model(n)
        assert s.n == 2 * n + 2 and s.height == n + 1
        assert beat_points(s) == []
        assert s.opposite().is_homeomorphic(s)


def test_bipartite_models(wedge5):
    assert bipartite_model(2, 3).is_homeomorphic(wedge5)
    assert bipartite_model(1, 1).is_homeomorphic(FinitePoset.chain(2))
    assert is_contractible(bipartite_model(1, 1))
    b = bipartite_model(2, 4)
    assert b.n == 6 and len(b.covers) == 8
    assert poset_homology(b).betti[1] == 3
    assert bipartite_model(3, 2).is_homeomorphic(bipartite_model(2, 3).opposite())


def test_minimal_wedge_size_examples():
    assert minimal_wedge_size(1) == 4
    assert minimal_wedge_size(3) == 6
    assert minimal_wedge_size(4) == 6
    with pytest.raises(ValueError):
        minimal_wedge_size(0)


def test_minimal_wedge_size_against_grid_search():
    for n in range(1, 13):
        best = min(
            i + j
            for i in range(1, 2 * n + 3)
            for j in range(1, 2 * n + 3)
            if (i - 1) * (j - 1) >= n
        )
        assert minimal_wedge_size(n) == best


def test_check_wedge_model():
    cert = check_wedge_model(bipartite_model(2, 4), 3)
    assert cert.all_satisfied and cert.connected and cert.b1 == 3
    cert = check_wedge_model(bipartite_model(3, 3), 3)
    assert cert.size_ok and cert.height_ok and not cert.edges_ok
    assert cert.b1 == 4
    cert = check_wedge_model(sphere_model(1), 1)
    assert cert.all_satisfied and cert.b1 == 1


def test_enumeration_counts_small():
    assert [sum(1 for _ in enumerate_posets(k)) for k in range(1, 7)] == [
        1, 2, 5, 16, 63, 318,
    ]


def test_enumeration_against_labeled_oracle():
    # A001035 labeled counts and dedup by canonical form, up to 4 points
    expected_labeducts = {1: 1, 2: 3, 3: 19, 4: 219}
    for k in range(1, 5):
        labeled, codes = labeled_poset_count_oracle(k)
        assert labeled == expected_labeducts[k]
        assert codes == {p.canonical_form() for p in enumerate_posets(k)}


def test_enumeration_two_and_three_points():
    two = list(enumerate_posets(2))
    assert len(two) == 2
    forms = {p.canonical_form() for p in two}
    assert forms == {
        FinitePoset.chain(2).canonical_form(),
        FinitePoset.antichain(2).canonical_form(),
    }
    assert sum(1 for _ in enumerate_posets(3)) == 5


def test_enumeration_is_sorted_and_valid():
    codes = [p.canonical_form() for p in enumerate_posets(6)]
    assert codes == sorted(codes)
    for p in enumerate_posets(5):
        FinitePoset(p.up)  # revalidate the trusted representative


def test_enumeration_cap():
    assert MAX_POINTS == 10
    with pytest.raises(CapExceededError, match="k=11 exceeds the enumeration limit of 10"):
        next(enumerate_posets(11))


def test_enumeration_stats():
    stats = enumeration_stats(5)
    assert stats.total == 63
    assert stats.by_filter["connected"] == 44
    assert stats.by_filter["minimal"] == 4
    assert sum(v for k, v in stats.by_filter.items() if k.startswith("height=")) == 63


def listed_census(k):
    """(total, counts per filter) over the decoded classes of
    ``enumerate_posets(k)``, each predicate recomputed from their rows."""
    classes = list(enumerate_posets(k))
    heights = Counter(p.height for p in classes)
    by_filter = {"connected": sum(p.is_connected() for p in classes),
                 "minimal": sum(not beat_points(p) for p in classes)}
    by_filter.update((f"height={h}", heights[h]) for h in sorted(heights))
    return len(classes), by_filter


@pytest.mark.parametrize("workers", (1, 2))
def test_walk_census_matches_the_listed_classes(workers, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    for k in range(1, 8):
        stats = enumeration_stats(k, workers=workers)
        total, by_filter = listed_census(k)
        assert stats.total == total
        assert list(stats.by_filter.items()) == list(by_filter.items())


def test_workers_out_of_range_are_refused():
    """Both entry points to the pool refuse a worker count outside 1 to the
    CPU count before any process starts."""
    cpus = os.cpu_count() or 1
    for workers in (0, cpus + 1):
        message = f"workers must be from 1 to {cpus} \\(the CPU count\\), got {workers}"
        with pytest.raises(ValueError, match=message):
            next(enumerate_posets(3, workers=workers))
        with pytest.raises(ValueError, match=message):
            enumeration_stats(3, workers=workers)


def test_verify_sphere_theorem_h2():
    report = verify_sphere_theorem(2)
    assert report.confirmed
    assert report.classes_per_size == {1: 1, 2: 2, 3: 5, 4: 16}
    assert not report.lower_bound_violations
    assert sorted(report.equality_classes) == [1, 2]
    (only,) = report.equality_classes[2]
    assert only.is_homeomorphic(sphere_model(1))
    with pytest.raises(ValueError):
        verify_sphere_theorem(1)
    with pytest.raises(CapExceededError):
        verify_sphere_theorem(6)


def test_sphere_walk_labels_fewer_classes_than_it_scans(monkeypatch):
    # only parents and tie children are labelled; the other leaves keep no code
    calls = []
    encoding = poset._canonical_encoding
    monkeypatch.setattr(poset, "_canonical_encoding", lambda p: calls.append(p) or encoding(p))
    scanned = []
    walk = models._walk

    def recorded(k, p=None):
        for q in walk(k, p):
            scanned.append(q)
            yield q

    monkeypatch.setattr(models, "_walk", recorded)
    report = verify_sphere_theorem(3)
    assert report.confirmed and report.classes_scanned == len(scanned) == 405
    assert len(calls) < report.classes_scanned
    assert any(p._canon is None for p in scanned)


@pytest.mark.parametrize("h", [3, 4])
def test_sphere_walk_labels_no_poset_twice(monkeypatch, h):
    # the list holds every poset labelled, so no id is reused by a new one
    calls = []
    encoding = poset._canonical_encoding
    monkeypatch.setattr(poset, "_canonical_encoding", lambda p: calls.append(p) or encoding(p))
    assert verify_sphere_theorem(h).confirmed
    assert max(Counter(map(id, calls)).values()) == 1
    # the walk that also labelled each tie child less its last point, and
    # each tie child again as a parent, made 236 and 9,281 calls; the one
    # that labelled every tie child, 181 and 6,734
    assert len(calls) == {3: 108, 4: 2960}[h]


def test_enumeration_labels_each_walked_class_once(monkeypatch):
    # a tie child is labelled only when its refined partition cannot settle
    # it, and at 8 points each one so labelled is a class the walk keeps
    calls, walked = [], []
    encoding, walk = poset._canonical_encoding, models._walk
    monkeypatch.setattr(poset, "_canonical_encoding", lambda p: calls.append(p) or encoding(p))

    def recorded(k, p=None):
        for q in walk(k, p):
            walked.append(q)
            yield q

    monkeypatch.setattr(models, "_walk", recorded)
    assert sum(1 for _ in enumerate_posets(8)) == A000112[8]
    assert len(walked) == sum(A000112[1:9]) == 19449
    assert sorted(map(id, calls)) == sorted(map(id, walked))


def test_sphere_report_fails_a_height_without_its_class():
    report = verify_sphere_theorem(2)
    assert report.height_confirmed(1) and report.height_confirmed(2)
    del report.equality_classes[2]
    assert not report.height_confirmed(2)
    assert not report.confirmed


def test_wedge_minimal_models_small():
    models = enumerate_wedge_minimal_models(1)
    assert len(models) == 1 and models[0].is_homeomorphic(sphere_model(1))
    models = enumerate_wedge_minimal_models(2)
    assert len(models) == 2
    forms = {m.canonical_form() for m in models}
    assert forms == {
        bipartite_model(2, 3).canonical_form(),
        bipartite_model(3, 2).canonical_form(),
    }


def test_wedge_three_models():
    models = enumerate_wedge_minimal_models(3)
    assert len(models) == 3
    for m in models:
        assert m.n == 6 and len(m.covers) == 8
        cert = check_wedge_model(m, 3)
        assert cert.connected and cert.b1 == 3
    forms = {m.canonical_form() for m in models}
    assert {m.opposite().canonical_form() for m in models} == forms


def test_wedge_models_are_minimal_spaces():
    for n in (1, 2, 3, 4):
        for m in enumerate_wedge_minimal_models(n):
            assert beat_points(m) == []


def test_wedge_uniqueness_scan():
    scan = wedge_uniqueness_scan(6)
    assert scan == [(1, 1), (2, 2), (3, 3), (4, 1), (5, 2), (6, 2)]
    for n, count in scan:
        assert (count == 1) == is_square(n)


def test_wedge_report_lists_a_failing_class(monkeypatch):
    real = enumerate_wedge_minimal_models
    # the circle model beside an isolated point: disconnected, 4 covers
    extra = FinitePoset.from_cover_pairs(5, [(0, 2), (0, 3), (1, 2), (1, 3)])
    monkeypatch.setattr(
        models, "enumerate_wedge_minimal_models", lambda n: real(n) + [extra] * (n == 2)
    )
    report = verify_wedge_theorem(3)
    assert not report.confirmed
    assert report.violators == [extra]
    assert [(r.models, r.ok) for r in report.rows] == [(1, True), (3, False), (3, True)]


def test_wedge_report_lists_a_class_whose_opposite_is_missing(monkeypatch):
    real = enumerate_wedge_minimal_models
    monkeypatch.setattr(models, "enumerate_wedge_minimal_models", lambda n: real(n)[:1])
    report = verify_wedge_theorem(2)
    assert report.violators == real(2)[:1]
    assert [r.ok for r in report.rows] == [True, False] and not report.confirmed


def test_wedge_uniqueness_scan_needs_a_wedge(monkeypatch):
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_n"):
            wedge_uniqueness_scan(bad)

    def reached(n):
        raise AssertionError("the refusal comes before any model is generated")

    monkeypatch.setattr(models, "enumerate_wedge_minimal_models", reached)
    for big in (21, 50):
        message = f"^max n {big} exceeds the wedge limit of 20 circles$"
        with pytest.raises(CapExceededError, match=message):
            verify_wedge_theorem(big)


def test_wedge_model_counts_past_the_cap():
    scan = wedge_uniqueness_scan(16)
    assert scan == list(zip(range(1, 17), WEDGE_COUNTS))
    assert [n for n, count in scan if count == 1] == [1, 4, 9, 16]


def test_wedge_generator_matches_enumeration_oracle():
    assert_wedge_models_match_oracle(range(1, 10))


@pytest.mark.slow
def test_wedge_generator_matches_enumeration_oracle_nine_points():
    assert_wedge_models_match_oracle(range(10, 13))


def test_wedge_models_closed_under_opposite_up_to_cap():
    for n in range(1, 17):
        models = enumerate_wedge_minimal_models(n)
        codes = {m.canonical_form() for m in models}
        assert {m.opposite().canonical_form() for m in models} == codes


def test_enumeration_reproducible_fresh_and_parallel(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    serial, again, parallel = (
        [p.canonical_form() for p in enumerate_posets(6, workers=workers)]
        for workers in (1, 1, 2)
    )
    assert serial == again == parallel


def test_class_counts_match_oeis():
    counts = [sum(1 for _ in enumerate_posets(k)) for k in range(1, 9)]
    assert counts == list(A000112[1:9])


@pytest.mark.slow
def test_class_count_nine_points(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    # with two workers the subtrees are split at 6 points, a real depth
    serial, parallel = (
        [p.canonical_form() for p in enumerate_posets(9, workers=workers)]
        for workers in (1, 2)
    )
    assert len(serial) == A000112[9]
    assert serial == parallel


def test_connected_counts_match_oeis():
    counts = [enumeration_stats(k).by_filter["connected"] for k in range(1, 9)]
    assert counts == list(A000608[:8])


@pytest.mark.slow
def test_connected_count_nine_points():
    assert enumeration_stats(9).by_filter["connected"] == A000608[8]


def stream_codes(k):
    """Sorted canonical codes of the classes with 1, ..., k points, size by
    size, from one depth-first pass."""
    codes = [[] for _ in range(k)]
    for p in models._walk(k):
        codes[p.n - 1].append(p.canonical_form())
    return [tuple(sorted(c)) for c in codes]


def test_enumeration_matches_extension_oracle():
    assert oracle_codes(7) == stream_codes(7)


def test_built_classes_carry_their_order():
    # the children of a class are built from its preset down, levels, rows
    # and code, never recomputed
    for p in models._walk(7):
        fresh = FinitePoset._trusted(p.up)
        assert p.down == fresh.down and p.levels == fresh.levels
        assert all(row & ((1 << x) - 1) == 0 for x, row in enumerate(p.up))
        FinitePoset(p.up)
        assert p.canonical_form() == fresh.canonical_form()


def test_canonical_last_point_has_the_largest_key(classes_upto):
    # the cheap rejection of canonical augmentation relies on this
    rng = random.Random(3)
    for p in classes_upto(7):
        perm = list(range(p.n))
        rng.shuffle(perm)
        for q in (FinitePoset._trusted(p.up), p.relabel(perm)):
            _, last, _ = _canonical_encoding(q)
            keys = [(q.levels[x], q.down[x].bit_count()) for x in range(p.n)]
            assert q.up[last] == 1 << last
            assert keys[last] == max(keys)


def brute_force_automorphisms(p):
    """Every permutation g (point x to g[x]) that maps the order onto itself."""
    found = set()
    for g in itertools.permutations(range(p.n)):
        if all(
            sum(1 << g[y] for y in range(p.n) if (p.up[x] >> y) & 1) == p.up[g[x]]
            for x in range(p.n)
        ):
            found.add(g)
    return found


def generated_group(n, generators):
    group = {tuple(range(n))}
    frontier = list(group)
    for a in frontier:
        for g in generators:
            product = tuple(g[a[x]] for x in range(n))
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


def ideal_orbits(ideals, perms):
    """The orbits of the ideals under the group that the permutations generate."""
    orbits = set()
    for m in ideals:
        orbit = [m]
        for a in orbit:
            for g in perms:
                image = sum(1 << g[x] for x in range(len(g)) if (a >> x) & 1)
                if image not in orbit:
                    orbit.append(image)
        orbits.add(frozenset(orbit))
    return orbits


def test_automorphism_generators_match_brute_force(classes_upto):
    rng = random.Random(5)
    for p in classes_upto(6):
        perm = list(range(p.n))
        rng.shuffle(perm)
        for q in (FinitePoset._trusted(p.up), p.relabel(perm)):
            brute = brute_force_automorphisms(q)
            generators = _canonical_encoding(q)[2]
            assert set(generators) <= brute
            assert len(generated_group(q.n, generators)) == len(brute)
            ideals = ideal_masks(q.up)
            assert ideal_orbits(ideals, generators) == ideal_orbits(ideals, brute)


def test_orbit_accepted_children_match_labelled_ones():
    # the multiset of child codes is the same whether children merge by
    # orbit and ties are accepted by the Aut(child) orbit of the last point,
    # or every child is labelled and merged by code and tested by deletion;
    # 8-point children include the pseudo-similar class below
    for parent in models._walk(7):
        accepted = Counter(c.canonical_form() for c in models._children(parent))
        labelled = Counter(c.canonical_form() for c in labelled_children(parent))
        assert accepted == labelled


def relabelled_along_an_extension(p, rng):
    """A copy of p with no labelling, its points put in a random linear
    extension, so its rows stay upper triangular as ``_children`` needs."""
    order, left = [], (1 << p.n) - 1
    while left:
        x = rng.choice([x for x in _bits(left) if not p.down[x] & left & ~(1 << x)])
        order.append(x)
        left &= ~(1 << x)
    return p.relabel(order)


def point_orbit(x, generators):
    orbit = {x}
    while (grown := orbit | {g[y] for g in generators for y in orbit}) != orbit:
        orbit = grown
    return orbit


def test_tie_rule_matches_the_labelling(monkeypatch):
    """Every tie child of every class of at most 7 points, as built and from
    the parent relabelled along a random linear extension: the verdict from
    the refined partition is the labelling's (t in the Aut(child) orbit of
    the point it puts last), and only the fourth branch labels."""
    rng = random.Random(17)
    parents = list(models._walk(7))
    ties, accepts = [], models._accepts_tie

    def recorded(child):
        ties.append((child, accepts(child)))
        return ties[-1][1]

    monkeypatch.setattr(models, "_accepts_tie", recorded)
    for parent in parents:
        models._children(parent)
        models._children(relabelled_along_an_extension(parent, rng))
    branches = Counter()
    for child, verdict in ties:
        t, last = child.n - 1, child._cells[-1]
        branch = ("outside" if t not in last else "alone" if len(last) == 1
                  else "twin" if _twin_cell(child.up, child.down, last) else "search")
        branches[branch] += 1
        assert (child._aut is not None) == (branch == "search")
        _, canon_last, generators = _canonical_encoding(child)
        assert verdict == (t in point_orbit(canon_last, generators))
    assert set(branches) == {"outside", "alone", "twin", "search"}


def test_children_match_the_orbit_oracle_row_for_row():
    # the same children in the same order as when every tie child was labelled
    for parent in models._walk(7):
        assert [c.up for c in models._children(parent)] == [c.up for c in orbit_children(parent)]


@pytest.mark.slow
def test_children_of_eight_points_match_the_orbit_oracle_row_for_row():
    for parent in models._walk(8):
        if parent.n == 8:
            assert ([c.up for c in models._children(parent)]
                    == [c.up for c in orbit_children(parent)])


def test_a_twin_cell_split_needs_no_refinement(classes_upto, monkeypatch):
    """The search splits a twin cell into singletons and does not refine:
    each partition it refines to, with each twin cell it meets there split in
    turn, is left as it is by ``_refine``, on every class of at most 7
    points as built and shuffled."""
    refined, refine = [], poset._refine
    monkeypatch.setattr(poset, "_refine", lambda up, down, cells: refined.append(
        (up, down, refine(up, down, cells))) or refined[-1][2])
    rng = random.Random(19)
    for p in classes_upto(7):
        perm = list(range(p.n))
        rng.shuffle(perm)
        for q in (FinitePoset._trusted(p.up), p.relabel(perm)):
            q.canonical_form()
    met = 0
    for up, down, cells in refined:
        while (idx := next((i for i, c in enumerate(cells) if len(c) > 1), None)) is not None:
            if not _twin_cell(up, down, cells[idx]):
                break
            cells = cells[:idx] + [[v] for v in cells[idx]] + cells[idx + 1:]
            assert refine(up, down, cells) == cells
            met += 1
    assert met > 1000


def test_each_class_has_one_canonical_parent():
    parents = [next(models._walk(1))]
    for level in stream_codes(7)[1:]:
        children = [child for parent in parents for child in models._children(parent)]
        accepted = Counter(child.canonical_form() for child in children)
        assert set(accepted) == set(level)
        assert max(accepted.values()) == 1
        parents = children


def test_pseudo_similar_points_give_one_class():
    # rigid, yet deleting either tie point 6 or 7 leaves the same class: the
    # deletion test accepts both children, the orbit test only one
    p = FinitePoset.from_cover_pairs(
        8, [(0, 3), (1, 4), (1, 6), (2, 5), (2, 7), (3, 6), (4, 7)])
    _, last, generators = _canonical_encoding(p)
    assert generators == [] and len(brute_force_automorphisms(p)) == 1
    keys = [(p.levels[x], p.down[x].bit_count()) for x in range(p.n)]
    assert keys[6] == keys[7] == max(keys) and last in (6, 7)
    less6, less7 = (p.subposet([x for x in range(p.n) if x != t]) for t in (6, 7))
    assert less6.is_homeomorphic(less7)
    built = [q for q in models._walk(8) if q.n == 8
             and sorted(zip(q.levels, map(int.bit_count, q.down))) == sorted(keys)
             and q.is_homeomorphic(p)]
    assert len(built) == 1


def frucht_incidence_poset(last_edge):
    """The 12 vertices of the Frucht graph (LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2])
    below its 18 edges, the edges numbered 12..29 in order with
    ``last_edge`` moved to the end."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = sorted({tuple(sorted((i, (i + s) % 12))) for i in range(12) for s in (1, lcf[i])})
    edges.append(edges.pop(last_edge))
    return FinitePoset.from_cover_pairs(
        30, [(v, 12 + e) for e, edge in enumerate(edges) for v in edge])


def test_a_rigid_last_cell_is_settled_by_the_search():
    """The Frucht graph is cubic with no automorphism but the identity, so
    refinement leaves its 18 edges in one last cell that is no twin cell:
    the tie of each edge as the new point reaches the labelling, and only
    the edge the labelling puts last is accepted."""
    verdicts = []
    for e in range(18):
        child = frucht_incidence_poset(e)
        assert sorted(child._cells[-1]) == list(range(12, 30))
        assert not _twin_cell(child.up, child.down, child._cells[-1])
        verdicts.append(models._accepts_tie(child))
        assert child._aut is not None  # labelled: the search decided
        fresh = frucht_incidence_poset(e)
        fresh._label()
        assert fresh._aut == []
        assert verdicts[-1] == (1 << 29 in models._orbit(1 << fresh._canon_last, fresh._aut))
    assert verdicts.count(True) == 1
