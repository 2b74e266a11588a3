import random

import pytest

from finito import CycleError, EmptyError, FinitePoset
from finito.models import enumerate_posets, nh_suspension


def brute_reduction(p):
    """Transitive reduction straight from the definition."""
    covers = set()
    for x in range(p.n):
        for y in range(p.n):
            if x != y and p.leq(x, y):
                if not any(
                    z != x and z != y and p.leq(x, z) and p.leq(z, y)
                    for z in range(p.n)
                ):
                    covers.add((x, y))
    return covers


def brute_chains(p):
    """Every totally ordered subset, by subset enumeration."""
    out = set()
    for mask in range(1, 1 << p.n):
        elts = [x for x in range(p.n) if (mask >> x) & 1]
        if all(p.comparable(x, y) for x in elts for y in elts):
            out.add(frozenset(elts))
    return out


def test_singleton_from_covers():
    p = FinitePoset.from_cover_pairs(1, [])
    assert p.n == 1 and p.height == 1
    assert p.min_open(0) == {0} and p.closure(0) == {0}


def test_from_covers_paper_example(ex4):
    # open sets are exactly the down-sets listed for the example
    downsets = set()
    for mask in range(1 << 4):
        elts = frozenset(x for x in range(4) if (mask >> x) & 1)
        if all(ex4.min_open(x) <= elts for x in elts):
            downsets.add(elts)
    named = {frozenset(ex4.label(x) for x in s) for s in downsets}
    assert named == {
        frozenset(),
        frozenset("abcd"),
        frozenset("bd"),
        frozenset("c"),
        frozenset("d"),
        frozenset("bcd"),
        frozenset("cd"),
    }


def test_from_covers_suspension(ss0):
    assert ss0.minimal_elements() == [0, 1]
    assert ss0.maximal_elements() == [2, 3]
    assert ss0.leq(0, 2) and ss0.leq(1, 3) and not ss0.comparable(2, 3)


def test_from_covers_rejects_cycles_and_empty():
    """Each check of ``from_cover_pairs``, with its exception and message."""
    cases = [
        ((0, []), EmptyError, "a finite space needs at least one point"),
        ((2, [(0, 2)]), IndexError, "cover (0, 2) out of range for n=2"),
        ((2, [(-1, 0)]), IndexError, "cover (-1, 0) out of range for n=2"),
        ((2, [(1, 1)]), CycleError, "self-loop at 1"),
        ((2, [(0, 1), (1, 0)]), CycleError, "cover relation contains a directed cycle"),
        ((4, [(0, 1), (1, 2), (2, 0), (0, 3)]), CycleError,
         "cover relation contains a directed cycle"),
        ((2, [], ["a"]), ValueError, "labels length must equal point count"),
        ((3, [(0, 1), (2, 1)], ["a", "b", "a"]), ValueError, "label 'a' names two points"),
    ]
    for args, error, message in cases:
        with pytest.raises(error) as info:
            FinitePoset.from_cover_pairs(*args)
        assert type(info.value) is error
        assert str(info.value) == message


def test_constructor_rejects_bad_labels():
    """``FinitePoset(up, labels)`` checks its labels as ``from_cover_pairs``
    does: one per point, each naming one point."""
    chain2 = (0b11, 0b10)
    cases = [
        (["a"], "labels length must equal point count"),
        (["a", "a"], "label 'a' names two points"),
    ]
    for labels, message in cases:
        with pytest.raises(ValueError) as info:
            FinitePoset(chain2, labels)
        assert str(info.value) == message
    assert FinitePoset(chain2, ["a", "b"]).labels == ("a", "b")


def test_from_covers_tolerates_redundant_edges():
    p = FinitePoset.from_cover_pairs(3, [(0, 1), (1, 2), (0, 2)])
    assert p == FinitePoset.chain(3)
    assert p.covers == ((0, 1), (1, 2))


def test_hasse_chain():
    assert FinitePoset.chain(3).covers == ((0, 1), (1, 2))


def test_hasse_matches_brute_reduction(ss0, ex4, classes_upto):
    for p in (ss0, ex4, FinitePoset.chain(4), FinitePoset.antichain(3), *classes_upto(6)):
        assert set(p.covers) == brute_reduction(p)
        assert list(p.covers) == sorted(p.covers)
    assert len(ss0.covers) == 4
    assert FinitePoset.antichain(5).covers == ()


def test_covers_equal_the_cover_test_on_shuffled_classes(classes_upto):
    """``covers`` peels the minimal points of each strict up-set; it equals
    the direct test (y above x, and no point strictly between) on every
    class of at most 7 points, as built and with its points shuffled."""
    rng = random.Random(7)
    for p in classes_upto(7):
        perm = list(range(p.n))
        rng.shuffle(perm)
        for q in (p, p.relabel(perm)):
            strict = [q.up[x] & ~(1 << x) for x in range(q.n)]
            want = tuple(
                (x, y) for x in range(q.n) for y in range(q.n)
                if strict[x] >> y & 1 and not strict[x] & q.down[y] & ~(1 << y)
            )
            assert q.covers == want


def test_down_is_the_transpose_of_up(classes_upto):
    """``from_cover_pairs`` and ``nh_suspension`` set ``down`` beside ``up``;
    it is the transposed relation on every class of at most 7 points, built
    from its covers with its points shuffled, and on its suspension."""
    rng = random.Random(11)
    for p in classes_upto(7):
        perm = list(range(p.n))
        rng.shuffle(perm)
        q = FinitePoset.from_cover_pairs(p.n, p.relabel(perm).covers)
        for r in (q, nh_suspension(q)):
            assert "down" in r.__dict__
            assert r.down == tuple(sum(1 << x for x in range(r.n) if r.up[x] >> y & 1)
                                   for y in range(r.n))


def test_hasse_round_trip_enumerated(classes_upto):
    for p in classes_upto(5):
        q = FinitePoset.from_cover_pairs(p.n, p.covers)
        assert q == p
        assert q.covers == p.covers


def test_min_open_and_closure(ex4, ss0):
    assert ex4.min_open(1) == {1, 3}  # {b, d}
    assert ex4.closure(3) == {3, 1, 0}  # {d, b, a}
    for x in ss0.maximal_elements():
        assert ss0.min_open(x) == {0, 1, x}
    a3 = FinitePoset.antichain(3)
    assert a3.closure(1) == {1}
    with pytest.raises(IndexError):
        ex4.min_open(7)


def test_min_open_closure_duality(classes_upto):
    for p in classes_upto(5):
        op = p.opposite()
        for x in range(p.n):
            assert p.min_open(x) == op.closure(x)


def test_opposite(ss0, wedge5):
    a = FinitePoset.antichain(4)
    assert a.opposite() == a
    assert ss0.opposite().opposite() == ss0
    assert ss0.opposite().is_homeomorphic(ss0)
    s2 = FinitePoset.from_cover_pairs(ss0.n, ss0.covers)
    assert not wedge5.is_homeomorphic(wedge5.opposite())
    assert wedge5.opposite().opposite().is_homeomorphic(wedge5)
    assert s2.opposite().is_homeomorphic(ss0)


def test_height(ss0):
    assert FinitePoset.antichain(4).height == 1
    assert ss0.height == 2
    s2 = FinitePoset.from_cover_pairs(
        6, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (1, 5), (2, 5), (3, 5)]
    )
    # longest chain by brute force
    longest = max(len(c) for c in brute_chains(s2))
    assert s2.height == longest == 3


def test_connected_components(ss0):
    assert len(FinitePoset.antichain(3).connected_components()) == 3
    assert ss0.connected_components() == [[0, 1, 2, 3]]
    two_chains = FinitePoset.from_cover_pairs(4, [(0, 1), (2, 3)])
    assert two_chains.connected_components() == [[0, 1], [2, 3]]


def test_chains(ss0):
    assert list(FinitePoset.antichain(1).chains()) == [(0,)]
    assert len(list(FinitePoset.chain(2).chains())) == 3
    got = list(ss0.chains())
    assert len(got) == 8
    assert len(set(got)) == 8
    assert {frozenset(c) for c in got} == brute_chains(ss0)


def test_chain_count_invariant_under_opposite(classes_upto):
    rng = random.Random(7)
    for p in classes_upto(5):
        assert len(list(p.chains())) == len(list(p.opposite().chains()))
    # plus a bigger random-ish case from a chain stack
    p = FinitePoset.from_cover_pairs(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
    assert {frozenset(c) for c in p.chains()} == brute_chains(p)


def test_canonical_form_relabeling_invariance(ss0, wedge5, ex4):
    rng = random.Random(0)
    for p in (ss0, wedge5, ex4, FinitePoset.chain(5)):
        code = p.canonical_form()
        for _ in range(25):
            perm = list(range(p.n))
            rng.shuffle(perm)
            assert p.relabel(perm).canonical_form() == code


def test_canonical_form_separates_classes(wedge5):
    assert (
        FinitePoset.chain(3).canonical_form()
        != FinitePoset.from_cover_pairs(3, [(1, 0), (2, 0)]).canonical_form()
    )
    assert wedge5.canonical_form() != wedge5.opposite().canonical_form()


def test_canonical_form_is_complete_on_small_classes():
    # distinct enumerated classes never collide
    for k in range(1, 6):
        codes = [p.canonical_form() for p in enumerate_posets(k)]
        assert len(codes) == len(set(codes))


def brute_isomorphic(p, q):
    import itertools

    if p.n != q.n:
        return False
    for perm in itertools.permutations(range(p.n)):
        if all(
            p.leq(x, y) == q.leq(perm[x], perm[y])
            for x in range(p.n)
            for y in range(p.n)
        ):
            return True
    return False


def test_canonical_form_agrees_with_brute_force_isomorphism():
    rng = random.Random(13)
    pool = list(enumerate_posets(4)) + list(enumerate_posets(5))
    for _ in range(60):
        p, q = rng.sample(pool, 2)
        perm = list(range(q.n))
        rng.shuffle(perm)
        q = q.relabel(perm)
        assert (p.canonical_form() == q.canonical_form()) == brute_isomorphic(p, q)


def test_is_homeomorphic(ss0):
    assert ss0.is_homeomorphic(ss0.opposite().opposite())
    assert not ss0.is_homeomorphic(FinitePoset.antichain(4))
    shuffled = ss0.relabel([3, 1, 2, 0])
    assert shuffled.is_homeomorphic(ss0)


def test_height_and_chains_respect_opposite(classes_upto):
    for p in classes_upto(5):
        assert p.height == p.opposite().height


def test_labels_do_not_affect_semantics(ex4):
    bare = FinitePoset(ex4.up)
    assert bare == ex4
    assert bare.canonical_form() == ex4.canonical_form()
    assert ex4.label(0) == "a" and bare.label(0) == "0"


def test_subposet_induced_order():
    c = FinitePoset.chain(3)
    assert c.subposet([0, 2]) == FinitePoset.chain(2)
    p = c.subposet([2, 0])
    assert p.leq(1, 0) and not p.leq(0, 1)
    with pytest.raises(ValueError):
        c.subposet([0, 0])
    with pytest.raises(IndexError):
        c.subposet([5])


def test_relabel_needs_a_permutation():
    c = FinitePoset.chain(3)
    for perm in ([0], [], [0, 1, 2, 0]):
        with pytest.raises(ValueError, match=f"lists {len(perm)} points, but the space has 3"):
            c.relabel(perm)
    with pytest.raises(ValueError):
        c.relabel([0, 0, 1])
    with pytest.raises(IndexError):
        c.relabel([0, 1, 3])
    assert c.relabel([2, 1, 0]) == c.opposite()


def test_derived_orders_pass_the_full_check(classes_upto):
    """Subposets, opposites and suspensions skip validation; rebuilding each
    through the checking constructor must give the same order."""
    for p in classes_upto(6):
        p = FinitePoset(p.up, [f"v{x}" for x in range(p.n)])
        derived = [p.opposite(), nh_suspension(p)]
        if p.n > 1:
            derived += [
                p.subposet([v for v in range(p.n) if v != x]) for x in range(p.n)
            ]
        for q in derived:
            assert FinitePoset(q.up, q.labels) == q
