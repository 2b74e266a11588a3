import random

import pytest

from finito import (
    FinitePoset,
    FlattenBlockedError,
    LastPointError,
    NotConnectedError,
    NotContinuousError,
    beat_points,
    betti_numbers,
    core,
    euler_characteristic,
    flatten_to_height2,
    is_contractible,
    is_homotopy_equivalent,
    mccord_check,
    osaki_closed_reduction,
    osaki_open_reduction,
    remove_point,
)
from finito.models import enumerate_posets
from finito.poset import _bits
from finito.reduction import BeatPointReport, ReductionTrace, _quotient


def b1(p):
    betti = betti_numbers(p)
    return betti[1] if len(betti) > 1 else 0


def test_beat_points_chain():
    reports = beat_points(FinitePoset.chain(2))
    assert {(r.element, r.kind, r.witness) for r in reports} == {
        (0, "up", 1),
        (1, "down", 0),
    }


def test_beat_points_minimal_spaces(ss0, osaki_x, wedge5):
    assert beat_points(ss0) == []
    assert beat_points(osaki_x) == []
    assert beat_points(wedge5) == []


def test_minimal_space_characterization():
    # no beat points iff no pair x != y where comparability with x forces
    # comparability with y; checked exhaustively on small classes
    for k in range(1, 8):
        for p in enumerate_posets(k):
            dominated = any(
                x != y
                and all(
                    p.comparable(z, y) for z in range(p.n) if p.comparable(z, x)
                )
                for x in range(p.n)
                for y in range(p.n)
            )
            assert (not beat_points(p)) == (not dominated), p


def test_core_of_chain_and_paper_example(ex4):
    assert core(FinitePoset.chain(4)).final.n == 1
    trace = core(ex4)
    assert trace.final.n == 1
    assert len(trace.removed) == 3
    assert is_contractible(ex4)


def test_core_of_minimal_space_is_itself(wedge5):
    trace = core(wedge5)
    assert trace.removed == () and trace.final == wedge5


def test_core_trace_replays(ex4, osaki_x):
    for p in (ex4, osaki_x, FinitePoset.chain(5)):
        trace = core(p)
        kept = list(range(p.n))
        current = p
        for rep in trace.removed:
            i = kept.index(rep.element)
            kept.pop(i)
            current = current.subposet([j for j in range(current.n) if j != i])
        assert current == trace.final
        assert tuple(kept) == trace.kept
        assert beat_points(trace.final) == []


def random_order_core(p, rng):
    current = p
    while True:
        reports = beat_points(current)
        if not reports:
            return current
        rep = rng.choice(reports)
        current = current.subposet(
            [x for x in range(current.n) if x != rep.element]
        )


def test_core_independent_of_removal_order():
    # twenty random removal orders per class, up to seven points
    rng = random.Random(42)
    for k in range(1, 8):
        for p in enumerate_posets(k):
            reference = core(p).final
            for _ in range(20):
                assert random_order_core(p, rng).is_homeomorphic(reference)


def test_core_idempotent():
    for k in range(1, 7):
        for p in enumerate_posets(k):
            final = core(p).final
            assert core(final).final.is_homeomorphic(final)


def test_is_contractible(ss0):
    has_max = FinitePoset.from_cover_pairs(4, [(1, 0), (2, 0), (3, 0)])
    assert is_contractible(has_max)
    assert not is_contractible(ss0)
    assert is_contractible(FinitePoset.antichain(1))


def test_is_homotopy_equivalent(ss0, wedge5):
    assert is_homotopy_equivalent(FinitePoset.chain(2), FinitePoset.chain(5))
    assert not is_homotopy_equivalent(ss0, wedge5)
    # glue a beat point on top of one maximal element
    glued = FinitePoset.from_cover_pairs(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
    assert is_homotopy_equivalent(ss0, glued)


def test_euler_invariant_under_core_small():
    for k in range(1, 7):
        for p in enumerate_posets(k):
            assert euler_characteristic(p) == euler_characteristic(core(p).final)


def test_osaki_open_reduction_minimal_point(ss0):
    for x in ss0.minimal_elements():
        q = osaki_open_reduction(ss0, x)
        assert q is not None and q.n == ss0.n and q.is_homeomorphic(ss0)


def test_osaki_open_reduction_four_point_example(ex4):
    # U_b = {b, d}: all intersections empty or contractible, 3-point quotient
    q = osaki_open_reduction(ex4, 1)
    assert q is not None and q.n == 3
    # U_d = {d}: applicable but no shrink
    q = osaki_open_reduction(ex4, 3)
    assert q is not None and q.n == 4
    # closed reduction at the maximum collapses the whole closure? cl(a)={a}
    q = osaki_closed_reduction(ex4, 0)
    assert q is not None and q.n == 4


def test_osaki_counterexample_has_no_shrinking_reduction(osaki_x):
    for x in range(osaki_x.n):
        for reduce in (osaki_open_reduction, osaki_closed_reduction):
            q = reduce(osaki_x, x)
            assert q is None or q.n == osaki_x.n


def test_osaki_quotients_preserve_euler_and_b1():
    for k in range(1, 7):
        for p in enumerate_posets(k):
            for x in range(p.n):
                q = osaki_open_reduction(p, x)
                if q is not None:
                    assert euler_characteristic(q) == euler_characteristic(p)
                    assert b1(q) == b1(p)


def test_osaki_quotients_pass_the_full_check():
    """Quotients skip validation; rebuilding each through the checking
    constructor must give the same order."""
    for k in range(1, 7):
        for p in enumerate_posets(k):
            p = FinitePoset(p.up, [f"v{x}" for x in range(p.n)])
            for x in range(p.n):
                for reduce in (osaki_open_reduction, osaki_closed_reduction):
                    q = reduce(p, x)
                    if q is not None:
                        assert FinitePoset(q.up, q.labels) == q


def test_mccord_identity(ss0):
    report = mccord_check(ss0, ss0, list(range(4)))
    assert report.ok


def test_mccord_paper_map(osaki_x, osaki_y):
    report = mccord_check(osaki_x, osaki_y, [0, 1, 0, 2, 3, 4])
    assert report.ok
    assert report.failures() == []


def test_mccord_constant_map_fails(ss0):
    report = mccord_check(ss0, FinitePoset.antichain(1), [0, 0, 0, 0])
    assert not report.ok
    assert report.failures() == [0]


def test_mccord_discontinuous_raises():
    with pytest.raises(NotContinuousError):
        mccord_check(FinitePoset.chain(2), FinitePoset.antichain(2), [0, 1])


def test_remove_point():
    assert remove_point(FinitePoset.chain(3), 1) == FinitePoset.chain(2)
    smaller = remove_point(FinitePoset.antichain(4), 2)
    assert smaller == FinitePoset.antichain(3)
    with pytest.raises(LastPointError):
        remove_point(FinitePoset.antichain(1), 0)


def test_remove_point_keeps_counterexample_connected(osaki_x):
    assert remove_point(osaki_x, 1).is_connected()


def test_epimorphism_surrogate_small():
    # removing a non-extremal point keeps the space connected and can only
    # increase the first Betti number
    for k in range(2, 7):
        for p in enumerate_posets(k):
            if not p.is_connected():
                continue
            base = b1(p)
            for x in range(p.n):
                if p.up[x] == 1 << x or p.down[x] == 1 << x:
                    continue
                q = remove_point(p, x)
                assert q.is_connected()
                assert b1(q) >= base


def test_flatten_examples():
    h2 = FinitePoset.from_cover_pairs(3, [(1, 0), (2, 0)])
    flat, kept = flatten_to_height2(h2, 0)
    assert flat == h2 and kept == (0, 1, 2)
    flat, kept = flatten_to_height2(FinitePoset.chain(3), 0)
    assert flat.height == 2 and kept == (0, 2)
    with pytest.raises(NotConnectedError):
        flatten_to_height2(FinitePoset.antichain(2), 0)
    with pytest.raises(FlattenBlockedError):
        flatten_to_height2(FinitePoset.chain(3), 1)


def test_flatten_rejects_a_basepoint_out_of_range():
    p = FinitePoset.chain(3)
    for x0 in (-1, p.n):
        with pytest.raises(IndexError, match=f"point {x0} out of range for n=3"):
            flatten_to_height2(p, x0)


def test_flatten_seven_point_height3_classes():
    # every connected 7-point class of height 3 flattens (from a minimal
    # basepoint) to height <= 2 without losing rank
    checked = 0
    for p in enumerate_posets(7):
        if p.height != 3 or not p.is_connected():
            continue
        x0 = p.minimal_elements()[0]
        flat, kept = flatten_to_height2(p, x0)
        assert flat.height <= 2
        assert flat.is_connected()
        assert x0 in kept
        assert b1(flat) >= b1(p)
        checked += 1
    assert checked > 100


# -- reference: one induced FinitePoset per removal step ------------------------


def ref_beat_points(p):
    out = []
    for x in range(p.n):
        down = p.down[x] & ~(1 << x)
        for y in _bits(down):
            if not down & ~p.down[y]:
                out.append(BeatPointReport(x, "down", y))
                break
        up = p.up[x] & ~(1 << x)
        for y in _bits(up):
            if not up & ~p.up[y]:
                out.append(BeatPointReport(x, "up", y))
                break
    return out


def ref_core(p):
    kept = list(range(p.n))
    removed = []
    current = p
    while True:
        reports = ref_beat_points(current)
        if not reports:
            break
        rep = min(reports, key=lambda r: (r.element, r.kind))
        removed.append(BeatPointReport(kept[rep.element], rep.kind, kept[rep.witness]))
        del kept[rep.element]
        current = p.subposet(kept)
    return ReductionTrace(tuple(removed), tuple(kept), current)


def ref_contractible(p, mask):
    return bool(mask) and ref_core(p.subposet(list(_bits(mask)))).final.n == 1


def ref_osaki_open(p, x):
    u = p.down[x]
    for y in range(p.n):
        inter = u & p.down[y]
        if inter and not ref_contractible(p, inter):
            return None
    return _quotient(p, u)


def ref_osaki_closed(p, x):
    q = ref_osaki_open(p.opposite(), x)
    return q.opposite() if q is not None else None


def ref_mccord_entries(src, dst, f):
    entries = []
    for y in range(dst.n):
        pre = tuple(s for s in range(src.n) if dst.leq(f[s], y))
        entries.append((y, pre, ref_contractible(src, sum(1 << s for s in pre))))
    return tuple(entries)


def ref_flatten(p, x0):
    if not p.is_connected():
        raise NotConnectedError("flattening requires a connected space")
    kept = list(range(p.n))
    current = p
    while current.height > 2:
        candidates = [
            v
            for v in range(current.n)
            if kept[v] != x0
            and current.up[v] != 1 << v
            and current.down[v] != 1 << v
        ]
        if not candidates:
            raise FlattenBlockedError("basepoint is the only non-extremal point left")
        del kept[candidates[0]]
        current = p.subposet(kept)
    return current, tuple(kept)


def outcome(fn, *args):
    """A result as comparable data: the order rows and labels of a space,
    or the type of the error raised."""
    try:
        result = fn(*args)
    except (FlattenBlockedError, NotConnectedError) as exc:
        return type(exc)
    if isinstance(result, tuple):
        space, kept = result
        return space.up, space.labels, kept
    return None if result is None else (result.up, result.labels)


def random_monotone_map(p, rng):
    """A random order-preserving self-map of p: points are visited by
    down-set size and each goes to a common upper bound of the images of
    the points below it; after twenty dead ends, the identity."""
    order = sorted(range(p.n), key=lambda x: p.down[x].bit_count())
    for _ in range(20):
        f = [None] * p.n
        for x in order:
            allowed = (1 << p.n) - 1
            for w in _bits(p.down[x] & ~(1 << x)):
                allowed &= p.up[f[w]]
            if not allowed:
                break
            f[x] = rng.choice(list(_bits(allowed)))
        else:
            return f
    return list(range(p.n))


def test_mask_reductions_match_per_step_reference():
    rng = random.Random(5)
    for k in range(1, 8):
        for p in enumerate_posets(k):
            p = FinitePoset(p.up, [f"v{x}" for x in range(p.n)])
            ref = ref_core(p)
            trace = core(p)
            assert (trace.removed, trace.kept) == (ref.removed, ref.kept)
            assert trace.final.up == ref.final.up
            assert beat_points(p) == ref_beat_points(p)
            assert is_contractible(p) == (ref.final.n == 1)
            for x in range(p.n):
                assert outcome(osaki_open_reduction, p, x) == outcome(ref_osaki_open, p, x)
                assert outcome(osaki_closed_reduction, p, x) == outcome(ref_osaki_closed, p, x)
                assert outcome(flatten_to_height2, p, x) == outcome(ref_flatten, p, x)
            for f in (list(range(p.n)), random_monotone_map(p, rng)):
                assert mccord_check(p, p, f).entries == ref_mccord_entries(p, p, f)


def test_core_of_long_chain_and_cone():
    n = 160
    fence = [(x, x + 1) if x % 2 == 0 else (x + 1, x) for x in range(n - 2)]
    apex = [(x, n - 1) for x in range(n - 1) if x % 2 == 1 or x == n - 2]
    for p in (FinitePoset.chain(n), FinitePoset.from_cover_pairs(n, fence + apex)):
        trace = core(p)
        assert len(trace.removed) == n - 1 and trace.final.n == 1
