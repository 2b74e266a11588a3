import itertools
import random
from collections import Counter

import pytest

from extension_oracle import oracle_codes

from finito import (
    CapExceededError,
    FinitePoset,
    beat_points,
    betti_numbers,
    bipartite_model,
    check_wedge_model,
    enumerate_posets,
    enumerate_wedge_minimal_models,
    enumeration_stats,
    euler_characteristic,
    is_contractible,
    minimal_wedge_size,
    nh_suspension,
    sphere_model,
    verify_sphere_theorem,
    wedge_uniqueness_scan,
)
from finito import models
from finito.models import is_square, resolve_cap
from finito.poset import _canonical_encoding

# OEIS A000112: poset classes with k points, k = 0..10.
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231, 2567284)


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
            codes.add(FinitePoset(rows).canonical_form().code)
    return labeled, codes


def test_nh_suspension_of_two_points(ss0):
    assert nh_suspension(FinitePoset.antichain(2)).is_homeomorphic(ss0)


def test_nh_suspension_of_point_is_contractible():
    s = nh_suspension(FinitePoset.antichain(1))
    assert s.n == 3
    assert is_contractible(s)  # it has a minimum


def test_nh_suspension_of_three_points(osaki_y):
    s = nh_suspension(FinitePoset.antichain(3))
    assert s.n == 5 and s.cover_count == 6
    assert s.is_homeomorphic(osaki_y)


def test_sphere_models():
    assert sphere_model(0) == FinitePoset.antichain(2)
    s1 = sphere_model(1)
    assert s1.n == 4 and s1.cover_count == 4
    s2 = sphere_model(2)
    assert s2.n == 6 and euler_characteristic(s2) == 2
    assert betti_numbers(s2) == (1, 0, 1)
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
    assert b.n == 6 and b.cover_count == 8
    assert betti_numbers(b)[1] == 3
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
        assert codes == {p.canonical_form().code for p in enumerate_posets(k)}


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
    codes = [p.canonical_form().code for p in enumerate_posets(6)]
    assert codes == sorted(codes)
    for p in enumerate_posets(5):
        FinitePoset(p.up)  # revalidate the trusted representative


def test_enumeration_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        list(enumerate_posets(9))
    with pytest.raises(CapExceededError):
        list(enumerate_posets(11, max_points=11))
    with pytest.raises(CapExceededError):
        resolve_cap(12)
    monkeypatch.setenv("FINITO_MAX_POINTS", "9")
    assert resolve_cap() == 9
    monkeypatch.setenv("FINITO_MAX_POINTS", "11")
    with pytest.raises(CapExceededError):
        resolve_cap()
    for bad in ("abc", "-3", "0"):
        monkeypatch.setenv("FINITO_MAX_POINTS", bad)
        with pytest.raises(ValueError, match="FINITO_MAX_POINTS"):
            resolve_cap()
    with pytest.raises(ValueError, match="--max-points"):
        resolve_cap(0)
    monkeypatch.delenv("FINITO_MAX_POINTS")
    assert resolve_cap() == 8


def test_enumeration_stats():
    stats = enumeration_stats(5, enumerate_posets(5))
    assert stats.total == 63
    assert stats.by_filter["connected"] == 44
    assert stats.by_filter["minimal"] == 4
    assert sum(v for k, v in stats.by_filter.items() if k.startswith("height=")) == 63


def test_verify_sphere_theorem_h2():
    report = verify_sphere_theorem(2)
    assert report.confirmed
    assert not report.lower_bound_violations
    assert sorted(report.equality_classes) == [1, 2]
    (only,) = report.equality_classes[2]
    assert only.is_homeomorphic(sphere_model(1))
    with pytest.raises(ValueError):
        verify_sphere_theorem(1)
    with pytest.raises(CapExceededError):
        verify_sphere_theorem(5)


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
        assert m.n == 6 and m.cover_count == 8
        cert = check_wedge_model(m, 3)
        assert cert.connected and cert.b1 == 3
    forms = {m.canonical_form().code for m in models}
    assert {m.opposite().canonical_form().code for m in models} == forms


def test_wedge_models_are_minimal_spaces():
    for n in (1, 2, 3, 4):
        for m in enumerate_wedge_minimal_models(n):
            assert beat_points(m) == []


def test_wedge_uniqueness_scan():
    scan = wedge_uniqueness_scan(6)
    assert scan == [(1, 1), (2, 2), (3, 3), (4, 1), (5, 2), (6, 2)]
    for n, count in scan:
        assert (count == 1) == is_square(n)


def test_wedge_models_closed_under_opposite_up_to_cap():
    for n in range(1, 10):
        models = enumerate_wedge_minimal_models(n)
        codes = {m.canonical_form().code for m in models}
        assert {m.opposite().canonical_form().code for m in models} == codes


def test_enumeration_reproducible_fresh_and_parallel(fresh_codes):
    serial = fresh_codes(6)
    again = fresh_codes(6)
    parallel = fresh_codes(6, workers=2)
    assert serial == again == parallel


def test_class_counts_match_oeis():
    counts = [sum(1 for _ in enumerate_posets(k)) for k in range(1, 9)]
    assert counts == list(A000112[1:9])


@pytest.mark.slow
def test_class_count_nine_points():
    assert sum(1 for _ in enumerate_posets(9, max_points=9)) == A000112[9]


def test_enumeration_matches_extension_oracle():
    assert oracle_codes(7) == [models._codes(k) for k in range(1, 8)]


def test_canonical_last_point_has_the_largest_key():
    # the cheap rejection of canonical augmentation relies on this
    rng = random.Random(3)
    for k in range(1, 8):
        for p in enumerate_posets(k):
            perm = list(range(k))
            rng.shuffle(perm)
            for q in (FinitePoset._trusted(p.up), p.relabel(perm)):
                _, last = _canonical_encoding(q)
                keys = [(q.levels[x], q.down[x].bit_count()) for x in range(k)]
                assert q.up[last] == 1 << last
                assert keys[last] == max(keys)


def test_each_class_has_one_canonical_parent():
    for k in range(2, 8):
        accepted = Counter(
            child
            for parent in models._codes(k - 1)
            for child in models._children_codes(parent)
        )
        assert set(accepted) == set(models._codes(k))
        assert max(accepted.values()) == 1
