"""Seeded random cross-checks between independent invariants on posets of
9 to 13 points, past the sizes the exhaustive tests reach."""

import random

from finito import (
    FinitePoset,
    core,
    euler_characteristic,
    first_betti,
    homology,
    order_complex,
    poset_homology,
)


def random_posets(seed, count):
    """Graph orders: each pair i < j an edge with a random density, closed."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(9, 13)
        density = rng.uniform(0.15, 0.5)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        perm = list(range(n))
        rng.shuffle(perm)
        yield FinitePoset.from_cover_pairs(n, pairs), perm


def nonzero_homology(h):
    """(betti, torsion) with the zero groups at the top dropped: a core can
    have a lower dimensional order complex."""
    groups = list(zip(h.betti, h.torsion))
    while groups[-1] == (0, ()):
        groups.pop()
    return groups


def test_random_posets_agree_across_invariants():
    for p, perm in random_posets(seed=20061106, count=300):
        h = homology(order_complex(p))
        assert euler_characteristic(p) == sum((-1) ** d * b for d, b in enumerate(h.betti))
        assert h.betti[0] == len(p.connected_components())
        retract = homology(order_complex(core(p).final))
        assert nonzero_homology(retract) == nonzero_homology(h)
        assert poset_homology(p) == h
        if p.is_connected():
            assert first_betti(p) == (h.betti[1] if len(h.betti) > 1 else 0)
        q = p.relabel(perm)
        assert q.canonical_form() == p.canonical_form()
        assert q.opposite().canonical_form() == p.opposite().canonical_form()
