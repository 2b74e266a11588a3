import random

import pytest

from finito import (
    FinitePoset,
    GroupPresentation,
    IllFormedMoveError,
    IllFormedPathError,
    NotConnectedError,
    close_move,
    edge_path_presentation,
    euler_characteristic,
    first_betti,
    free_rank,
    is_contractible,
    is_monotonic,
    loop_to_word,
    poset_homology,
    presentation_text,
    spanning_tree,
    tietze_simplify,
)
from finito.models import bipartite_model, sphere_model
from finito.pi1 import abelianized, free_reduce
from int_row_span import IntRowSpan
from tietze_oracle import tietze_simplify as rescanning_tietze


def cover_steps(p, x):
    """Points one cover step from x, in either direction."""
    out = []
    for (a, b) in p.covers:
        if a == x:
            out.append(b)
        if b == x:
            out.append(a)
    return out


def random_loop(p, x0, rng, steps=8):
    """Random cover walk from x0, closed off by walking back."""
    walk = [x0]
    for _ in range(rng.randrange(steps)):
        options = cover_steps(p, walk[-1])
        if not options:
            break
        walk.append(rng.choice(options))
        if walk[-1] == x0 and rng.random() < 0.4:
            return tuple(walk)
    return tuple(walk + walk[-2::-1])


def monotonic_detour(p, a, rng, depth=2):
    """A pair of monotonic paths out of a and back; None if a is isolated."""
    goes_up = rng.random() < 0.5
    forward = [a]
    for _ in range(rng.randrange(1, depth + 1)):
        at = forward[-1]
        if goes_up:
            options = [y for (x, y) in p.covers if x == at]
        else:
            options = [x for (x, y) in p.covers if y == at]
        if not options:
            break
        forward.append(rng.choice(options))
    if len(forward) == 1:
        return None
    # walk back monotonically inside the interval between a and at
    at = forward[-1]
    lo, hi = (a, at) if goes_up else (at, a)
    backward = [at]
    while backward[-1] != a:
        cur = backward[-1]
        if goes_up:
            options = [x for (x, y) in p.covers if y == cur and p.leq(lo, x)]
        else:
            options = [y for (x, y) in p.covers if x == cur and p.leq(y, hi)]
        backward.append(rng.choice(options))
    return tuple(forward), tuple(backward)


def find_delete_move(p, loop, rng):
    """A random valid deletion (i, j, k) in the loop, if any exists."""
    length = len(loop) - 1
    options = []
    for i in range(length):
        for k in range(i + 1, length + 1):
            if loop[i] != loop[k]:
                continue
            for j in range(i, k + 1):
                left = loop[i : j + 1]
                right = loop[j : k + 1]
                if is_monotonic(p, left) and is_monotonic(p, right):
                    options.append((i, j, k))
                    break
    return rng.choice(options) if options else None


def test_is_monotonic(ss0):
    assert is_monotonic(ss0, (0,))
    assert is_monotonic(ss0, (0, 2))
    assert is_monotonic(ss0, (2, 0))
    assert not is_monotonic(ss0, (0, 2, 1))
    with pytest.raises(IllFormedPathError):
        is_monotonic(ss0, (2, 3))  # not a cover edge


def test_close_move_insert_and_delete(ss0):
    loop = (0, 2, 1, 3, 0)
    grown = close_move(ss0, loop, 1, insert=((2, 1), (1, 2)))
    assert grown[0] == grown[-1] and len(grown) == 7
    shrunk = close_move(ss0, grown, (1, 2, 3))
    assert shrunk == loop
    # deleting a whole out-and-back loop leaves the empty loop
    out_back = (0, 2, 0)
    empty = close_move(ss0, out_back, (0, 1, 2))
    assert empty == (0,)


def test_close_move_rejects_bad_moves(ss0):
    loop = (0, 2, 0)
    with pytest.raises(IllFormedMoveError):
        close_move(ss0, (0, 2), (0, 1, 1))  # not a loop
    with pytest.raises(IllFormedMoveError):
        # inserted pair does not close up at the cut point
        close_move(ss0, loop, 0, insert=((0, 2), (2, 1)))
    with pytest.raises(IllFormedMoveError):
        # non-monotonic deletion: segment zigzags
        zig = (0, 2, 1, 2, 0)
        close_move(ss0, zig, (0, 1, 4))


def test_paths_are_checked_point_by_point():
    circle = sphere_model(1)
    with pytest.raises(IndexError, match="point 7 out of range for n=4"):
        close_move(circle, (7,), (0, 0, 0))
    with pytest.raises(IndexError, match="point 99 out of range for n=4"):
        is_monotonic(circle, (99,))
    with pytest.raises(IndexError, match="point -1 out of range for n=4"):
        loop_to_word(circle, 0, (0, 2, -1, 2, 0))
    for check in (
        lambda path: is_monotonic(circle, path),
        lambda path: close_move(circle, path, (0, 0, 0)),
        lambda path: loop_to_word(circle, 0, path),
    ):
        for path in ((), [0]):
            with pytest.raises(IllFormedPathError, match="nonempty tuple of points"):
                check(path)


def test_presentation_sphere_circle(ss0):
    pres = edge_path_presentation(ss0, 0)
    assert pres.generators == 1 and pres.relators == ()
    assert free_rank(pres) == 1


def test_presentation_counterexample_rank_two(osaki_x):
    pres = edge_path_presentation(osaki_x, 0)
    assert pres.generators == 2 and pres.relators == ()
    assert first_betti(osaki_x) == 2


def test_presentation_disconnected_raises():
    with pytest.raises(NotConnectedError):
        edge_path_presentation(FinitePoset.antichain(2), 0)
    with pytest.raises(NotConnectedError):
        first_betti(FinitePoset.antichain(2))
    # the walk from 0 misses the point 2 of the other component
    split = FinitePoset.from_cover_pairs(3, [(0, 1)])
    for build in (spanning_tree, lambda p, x0: loop_to_word(p, x0, (x0,))):
        with pytest.raises(NotConnectedError, match="the space is not connected"):
            build(split, 0)


def chain_filter_presentation(p, x0):
    """Reference: one generator per index-sorted comparable pair outside
    the spanning tree, one relator per three-point chain among all chains."""
    tree = spanning_tree(p, x0)
    gens = [
        (i, j)
        for i in range(p.n)
        for j in range(i + 1, p.n)
        if (p.leq(i, j) or p.leq(j, i)) and (i, j) not in tree
    ]
    number = {e: g for g, e in enumerate(gens, 1)}

    def step(a, b):
        pair = (min(a, b), max(a, b))
        if pair in tree:
            return ()
        return (number[pair],) if p.leq(a, b) else (-number[pair],)

    relators = [
        step(x, y) + step(y, z) + step(z, x)
        for x, y, z in (c for c in p.chains() if len(c) == 3)
    ]
    return GroupPresentation(len(gens), tuple(relators))


def test_presentation_matches_chain_filter(classes_upto):
    for p in classes_upto(6):
        if not p.is_connected():
            continue
        for x0 in range(p.n):
            pres = edge_path_presentation(p, x0)
            ref = chain_filter_presentation(p, x0)
            assert pres == ref
            assert presentation_text(pres) == presentation_text(ref)


def test_presentation_of_long_chain():
    # 2^30 - 1 chains, of which 4060 have three points
    pres = edge_path_presentation(FinitePoset.chain(30), 0)
    assert pres.generators == 30 * 29 // 2 - 29
    assert 0 < len(pres.relators) <= 4060


def test_contractible_presentations_trivialize(classes_upto):
    for p in classes_upto(6):
        if not p.is_connected() or not is_contractible(p):
            continue
        simp = tietze_simplify(edge_path_presentation(p, 0))
        assert simp.generators == 0 and simp.relators == ()


def test_height2_presentations_are_free(classes_upto):
    for p in classes_upto(7):
        if p.height != 2 or not p.is_connected():
            continue
        pres = edge_path_presentation(p, 0)
        assert pres.relators == ()
        assert pres.generators == 1 - euler_characteristic(p)


def test_tietze_unit_cases():
    trivial = tietze_simplify(GroupPresentation(1, ((1,),)))
    assert trivial.generators == 0 and trivial.relators == ()
    rank1 = tietze_simplify(GroupPresentation(2, ((1, 2),)))
    assert rank1.generators == 1 and rank1.relators == ()
    z2 = tietze_simplify(GroupPresentation(1, ((1, 1),)))
    assert z2.generators == 1 and z2.relators == ((1, 1),)
    # free generators without relators survive untouched
    free2 = tietze_simplify(GroupPresentation(2, ()))
    assert free2.generators == 2


def test_tietze_matches_rescanning_oracle(classes_upto):
    # edge-path presentations of every connected class with <= 7 points, and
    # seeded random words of 1..6 generators, some of them not free
    presentations = [
        edge_path_presentation(p, 0) for p in classes_upto(7) if p.is_connected()
    ]
    rng = random.Random(8)
    for _ in range(3000):
        g = rng.randint(1, 6)
        relators = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, g) for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(0, 5))
        )
        presentations.append(GroupPresentation(g, relators))
    not_free = 0
    for pres in presentations:
        simp = tietze_simplify(pres)
        assert simp == rescanning_tietze(pres), pres
        not_free += bool(simp.relators)
    assert not_free > 100


def test_tietze_matches_rescanning_oracle_on_layered_presentations():
    """Edge-path presentations of the 4x4, 3x6 and 5x5 layers (W points a
    layer, each above the whole layer below): 81..226 generators and
    256..1,250 relators, where the eliminations rewrite 392..2,140
    relators in all and meet 657..3,406 dropped relators in the index."""
    for width, count in ((4, 4), (3, 6), (5, 5)):
        n = width * count
        pairs = [(x, y) for x in range(n) for y in range(n) if y // width == x // width + 1]
        pres = edge_path_presentation(FinitePoset.from_cover_pairs(n, pairs), 0)
        assert tietze_simplify(pres) == rescanning_tietze(pres), (width, count)


def test_group_presentation_normalizes():
    pres = GroupPresentation(2, ((1, -1), (1, 2, -2, -1)))
    assert pres.relators == ()
    # letters are checked before free reduction, so cancelling ones too
    for relators, letter in ((((2,),), 2), (((3, -3),), 3), (((0, 0),), 0)):
        with pytest.raises(ValueError, match=f"letter {letter} out of range"):
            GroupPresentation(1, relators)


def test_group_presentation_rejects_a_negative_generator_count():
    with pytest.raises(ValueError, match="generator count must be non-negative, got -2"):
        GroupPresentation(-2, ())
    empty = GroupPresentation(0, ())
    assert free_rank(empty) == 0 and presentation_text(empty) == "<  | >"


def test_first_betti_values(wedge5):
    assert first_betti(FinitePoset.chain(4)) == 0
    assert first_betti(wedge5) == 2
    for i in (1, 2, 3):
        for j in (1, 2, 4):
            assert first_betti(bipartite_model(i, j)) == (i - 1) * (j - 1)


def test_first_betti_matches_homology(classes_upto):
    for p in classes_upto(7):
        if not p.is_connected():
            continue
        betti = poset_homology(p).betti
        b1 = betti[1] if len(betti) > 1 else 0
        assert first_betti(p) == b1, p


def test_loop_to_word_four_cycle(ss0):
    loop = (0, 2, 1, 3, 0)
    word = loop_to_word(ss0, 0, loop)
    assert len(word) == 1 and abs(word[0]) == 1
    assert loop_to_word(ss0, 0, (0,)) == ()
    assert loop_to_word(ss0, 0, (0, 2, 0)) == ()
    reversed_word = loop_to_word(ss0, 0, loop[::-1])
    assert reversed_word == tuple(-l for l in reversed(word))


def test_loop_to_word_product_law(ss0, osaki_x):
    rng = random.Random(5)
    for p in (ss0, osaki_x):
        for _ in range(40):
            a = random_loop(p, 0, rng)
            b = random_loop(p, 0, rng)
            assert loop_to_word(p, 0, a + b[1:]) == free_reduce(
                loop_to_word(p, 0, a) + loop_to_word(p, 0, b)
            )


def test_loop_to_word_validates(ss0):
    with pytest.raises(IllFormedPathError):
        loop_to_word(ss0, 0, (0, 2))
    with pytest.raises(IllFormedPathError):
        loop_to_word(ss0, 1, (0,))
    # the tree is built from the basepoint: a tree of another numbering
    # cannot be passed in
    with pytest.raises(TypeError):
        loop_to_word(ss0, 0, (0, 2, 1, 3, 0), frozenset({(0, 99)}))


def test_close_moves_fix_words_exhaustively(classes_upto):
    # insert moves never change the freely reduced word for height <= 2
    # spaces (the group is free), and never change the image in the
    # abelianization of the presented group in general
    rng = random.Random(9)
    for p in classes_upto(6):
        if p.n < 2 or not p.is_connected():
            continue
        x0 = 0
        pres = edge_path_presentation(p, x0)
        relator_span = IntRowSpan(pres.generators)
        for rel in pres.relators:
            relator_span.add(abelianized(rel, pres.generators))
        for _ in range(6):
            loop = random_loop(p, x0, rng)
            word = loop_to_word(p, x0, loop)
            # the word is in the numbering of the presentation
            assert all(0 < abs(l) <= pres.generators for l in word)
            detour = monotonic_detour(p, rng.choice(loop), rng)
            if detour is None:
                continue
            cut = rng.choice([i for i, q in enumerate(loop) if q == detour[0][0]])
            moved = close_move(p, loop, cut, insert=detour)
            variants = [loop_to_word(p, x0, moved)]
            deletion = find_delete_move(p, moved, rng)
            if deletion is not None:
                shrunk = close_move(p, moved, deletion)
                variants.append(loop_to_word(p, x0, shrunk))
            for new_word in variants:
                if p.height <= 2:
                    assert new_word == word
                diff = [
                    a - b
                    for a, b in zip(
                        abelianized(new_word, pres.generators),
                        abelianized(word, pres.generators),
                    )
                ]
                assert diff in relator_span, (p, loop, detour)


def test_spanning_tree_deterministic(osaki_x):
    t1 = spanning_tree(osaki_x, 0)
    t2 = spanning_tree(osaki_x, 0)
    assert t1 == t2
    assert len(t1) == osaki_x.n - 1


def test_presentation_text():
    assert presentation_text(GroupPresentation(2, ())) == "< a, b | >"
    assert (
        presentation_text(GroupPresentation(2, ((1, 2, -1, -2),)))
        == "< a, b | abAB >"
    )


def test_basepoints_out_of_range_raise():
    circle = sphere_model(1)
    assert edge_path_presentation(circle, 0).generators == 1
    for x0 in (-1, circle.n):
        for build in (
            spanning_tree,
            edge_path_presentation,
            lambda p, x0: loop_to_word(p, x0, (0,)),
        ):
            with pytest.raises(IndexError, match=f"point {x0} out of range for n=4"):
                build(circle, x0)
