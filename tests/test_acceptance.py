"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to stream
them).  Everything asserted here is either exact combinatorics or an
independently recomputed oracle value; nothing is tuned.
"""

import itertools
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from functools import lru_cache
from math import isqrt

from finito import (
    FinitePoset,
    beat_points,
    core,
    edge_path_presentation,
    enumerate_posets,
    enumerate_wedge_minimal_models,
    euler_characteristic,
    first_betti,
    mccord_check,
    minimal_wedge_size,
    osaki_closed_reduction,
    osaki_open_reduction,
    poset_homology,
    sphere_model,
    verify_sphere_theorem,
    wedge_uniqueness_scan,
)


@contextmanager
def report(num, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def b1_of(p):
    betti = poset_homology(p).betti
    return betti[1] if len(betti) > 1 else 0


@lru_cache(maxsize=None)
def size_census(classes_upto, size):
    """(connected, height, edges, b1-if-height2) per class of one size."""
    rows = []
    for p in classes_upto(size):
        if p.n != size:
            continue
        height2 = p.height == 2
        rows.append(
            (
                p.is_connected(),
                p.height,
                len(p.covers),
                b1_of(p) if height2 else None,
            )
        )
    return rows


def test_criterion_1_sphere_theorem_desk_scale(cli_env):
    with report(1, "sphere lower bound and equality cases for heights 2..4"):
        proc = subprocess.run(
            [sys.executable, "-m", "finito", "verify", "spheres", "--max-h", "4", "--json"],
            capture_output=True,
            text=True,
            timeout=300,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["confirmed"] is True
        assert data["classes_scanned"] == 1 + 2 + 5 + 16 + 63 + 318 + 2045 + 16999
        assert data["lower_bound_violations"] == []
        assert data["equality_violations"] == []
        assert data["equality_classes"] == {"1": 1, "2": 1, "3": 1, "4": 1}

        rep = verify_sphere_theorem(4)
        assert rep.confirmed
        for h in (2, 3, 4):
            (only,) = rep.equality_classes[h]
            assert only.is_homeomorphic(sphere_model(h - 1))


def test_criterion_2_sphere_homology():
    with report(2, "sphere models have sphere homology and Euler numbers"):
        for n in range(1, 5):
            s = sphere_model(n)
            assert poset_homology(s).betti == tuple([1] + [0] * (n - 1) + [1])
            assert euler_characteristic(s) == 1 + (-1) ** n


def closed_form_size(n):
    """Minimal wedge size via the two integer-ceiling candidates."""
    s = isqrt(n)
    ceil_sqrt = s if s * s == n else s + 1
    even = 2 * (ceil_sqrt + 1)
    k = 1
    while (2 * k - 1) ** 2 < 1 + 4 * n:
        k += 1
    odd = 2 * k + 1
    return min(even, odd)


def test_criterion_3_wedge_theorem(classes_upto):
    with report(3, "wedge model size formula (closed form n = 1..1000) and "
                   "characterization, n = 1..12"):
        for n in range(1, 13):
            direct = min(
                i + j
                for i in range(1, 2 * n + 3)
                for j in range(1, 2 * n + 3)
                if (i - 1) * (j - 1) >= n
            )
            assert minimal_wedge_size(n) == direct == closed_form_size(n)
        for n in range(13, 1001):
            assert minimal_wedge_size(n) == closed_form_size(n), n
        # the minimum over i - 1 <= isqrt(n) + 1 needs no loop to n
        assert minimal_wedge_size(10**10) == closed_form_size(10**10)

        for n in range(1, 13):
            size = minimal_wedge_size(n)
            if size > 8:
                continue
            census = size_census(classes_upto, size)
            for connected, height, edges, b1 in census:
                conditions = height == 2 and edges == size + n - 1
                if conditions:
                    assert connected and b1 == n
                if connected and height == 2 and b1 == n:
                    assert conditions


def test_criterion_4_three_models_of_three_circles():
    with report(4, "exactly three 6-point 8-edge models of the 3-circle wedge"):
        models = enumerate_wedge_minimal_models(3)
        assert len(models) == 3
        for m in models:
            assert m.n == 6 and len(m.covers) == 8
        codes = {m.canonical_form() for m in models}
        assert {m.opposite().canonical_form() for m in models} == codes


def test_criterion_5_uniqueness_iff_square():
    counts = dict(wedge_uniqueness_scan(6))
    sizes = {n: minimal_wedge_size(n) for n in range(1, 7)}
    with report(
        5,
        f"model counts for n=1..6 are {[counts[n] for n in range(1, 7)]} "
        "(unique exactly at the squares 1 and 4)",
    ):
        assert sizes == {1: 4, 2: 5, 3: 6, 4: 6, 5: 7, 6: 7}
        for n in range(1, 7):
            unique = counts[n] == 1
            assert unique == (isqrt(n) ** 2 == n), (n, counts[n])
        assert counts[5] > 1 and counts[6] > 1


def test_criterion_6_osaki_counterexample(osaki_x, osaki_y):
    with report(6, "six-point space defeats both quotient reductions yet maps "
                   "weakly equivalently onto the suspension of three points"):
        assert beat_points(osaki_x) == []
        for x in range(osaki_x.n):
            for reduce in (osaki_open_reduction, osaki_closed_reduction):
                q = reduce(osaki_x, x)
                assert q is None or q.n == osaki_x.n, "a reduction shrank X"
        check = mccord_check(osaki_x, osaki_y, [0, 1, 0, 2, 3, 4])
        assert check.ok
        assert euler_characteristic(osaki_x) == euler_characteristic(osaki_y) == -1
        assert b1_of(osaki_x) == b1_of(osaki_y) == 2


def test_criterion_7_euler_invariance(classes_upto):
    with report(7, "chain-sum Euler characteristic is invariant under taking cores, "
                   "all classes with <= 7 points"):
        scanned = 0
        for p in classes_upto(7):
            assert euler_characteristic(p) == euler_characteristic(core(p).final)
            scanned += 1
        assert scanned == 1 + 2 + 5 + 16 + 63 + 318 + 2045


def test_criterion_8_epimorphism_surrogate(classes_upto):
    with report(8, "removing a non-extremal point keeps connectivity and never "
                   "drops b1, all connected classes with <= 7 points"):
        for p in classes_upto(7):
            if p.n < 2 or not p.is_connected():
                continue
            base = b1_of(p)
            for x in range(p.n):
                if p.up[x] == 1 << x or p.down[x] == 1 << x:
                    continue
                q = p.subposet([v for v in range(p.n) if v != x])
                assert q.is_connected()
                assert b1_of(q) >= base


def test_criterion_9_pi1_consistency(classes_upto):
    with report(9, "presentation abelianization agrees with homology b1 "
                   "(<= 6 points), relator-free with 1 - euler generators at height 2"):
        for p in classes_upto(6):
            if not p.is_connected():
                continue
            assert first_betti(p) == b1_of(p)
            if p.height == 2:
                pres = edge_path_presentation(p, 0)
                assert pres.relators == ()
                assert pres.generators == 1 - euler_characteristic(p)


def labeled_brute_force_classes(k):
    """Independent oracle: every labeled partial order on k points, one
    canonical code per isomorphism class."""
    pairs = list(itertools.combinations(range(k), 2))
    codes = set()
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
            codes.add(FinitePoset(rows).canonical_form())
    return codes


def test_criterion_10_enumeration_oracle(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    with report(10, "class counts match the labeled brute force for k <= 5 and "
                    "are reproducible (two runs, serial vs parallel) for k = 6..8"):
        expected = [1, 2, 5, 16, 63]
        for k in range(1, 6):
            oracle = labeled_brute_force_classes(k)
            assert len(oracle) == expected[k - 1]
            assert oracle == {p.canonical_form() for p in enumerate_posets(k)}
        for k in (6, 7, 8):
            first, second, parallel = (
                [p.canonical_form() for p in enumerate_posets(k, workers=workers)]
                for workers in (1, 1, 2)
            )
            assert first == second == parallel
            assert len(first) == {6: 318, 7: 2045, 8: 16999}[k]
