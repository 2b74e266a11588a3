import importlib
import itertools
import math
import random

import pytest

from finito import (
    CapExceededError,
    FinitePoset,
    HomologySummary,
    SimplicialComplex,
    check_wedge_model,
    core,
    emit,
    euler_characteristic,
    faces_text,
    homology,
    nh_suspension,
    order_complex,
    poset_homology,
    sphere_model,
)
from finito.order_complex import _chain_totals, _morse_matching, boundary_matrix
from finito.snf import matrix_rank, smith_invariant_factors
from dense_snf import smith_invariant_factors as dense_invariant_factors
from dense_snf import xgcd
from chain_counts import chain_counts
from test_differential import random_posets
from test_poset import brute_chains
from int_row_span import IntRowSpan


def sparse_columns(matrix):
    """Columns of a dense row-list matrix as {row: entry} dicts."""
    width = len(matrix[0]) if matrix else 0
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(width)]


def mobius_euler(p):
    """1 + mu(0, 1) in p with a bottom 0 and a top 1 added (P. Hall's
    theorem), mu computed downward from the top: mu(x, 1) = -sum of
    mu(t, 1) over x < t <= 1."""
    mu_to_top = {}
    for x in sorted(range(p.n), key=lambda x: p.up[x].bit_count()):
        above = [t for t in range(p.n) if t != x and p.leq(x, t)]
        mu_to_top[x] = -1 - sum(mu_to_top[t] for t in above)
    mu_bottom_top = -1 - sum(mu_to_top.values())
    return 1 + mu_bottom_top


def test_chain_gives_full_simplex():
    k = order_complex(FinitePoset.chain(4))
    assert k.f_vector == (4, 6, 4, 1)
    assert len(k.faces) == 2**4 - 1


def test_suspension_gives_four_cycle(ss0):
    k = order_complex(ss0)
    assert k.f_vector == (4, 4)
    assert k.dim == 1
    assert {f for f in k.faces if len(f) == 2} == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_wedge_model_gives_k23(wedge5):
    k = order_complex(wedge5)
    assert k.f_vector == (5, 6)
    tops = {0, 1}
    assert all(len(set(f) & tops) == 1 for f in k.faces if len(f) == 2)


def test_complex_equals_complex_of_opposite(classes_upto):
    for p in classes_upto(5):
        assert order_complex(p) == order_complex(p.opposite())


def test_order_complex_passes_the_full_check(classes_upto):
    """Order complexes skip the face checks; rebuilding each through the
    checking constructor must give the same complex."""
    rng = random.Random(6)
    for p in classes_upto(6):
        k_p = order_complex(p)
        rebuilt = SimplicialComplex(p.n, k_p.faces)
        assert rebuilt == k_p and rebuilt.dim == k_p.dim == p.height - 1
        # the face order is canonical: any order and repeats give the same store
        shuffled = [f[::-1] for f in k_p.faces] + list(k_p.faces[: p.n])
        rng.shuffle(shuffled)
        again = SimplicialComplex(p.n, shuffled)
        assert again == k_p and hash(again) == hash(k_p) and again.faces == k_p.faces
        assert again.f_vector == k_p.f_vector


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(0, 1, 2)])  # not downward closed
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(0,), (1,)])  # vertex 2 missing
    with pytest.raises(ValueError, match="at least one face"):
        SimplicialComplex(0, [])
    with pytest.raises(ValueError, match=r"face \(0, 0\) repeats a vertex"):
        SimplicialComplex(1, [(0,), (0, 0)])


def test_euler_characteristic_examples(wedge5):
    assert euler_characteristic(FinitePoset.antichain(1)) == 1
    assert euler_characteristic(sphere_model(1)) == 0
    assert euler_characteristic(sphere_model(2)) == 2
    assert euler_characteristic(wedge5) == -1


def test_euler_matches_mobius_oracle(classes_upto):
    for p in classes_upto(7):
        assert euler_characteristic(p) == mobius_euler(p)
    assert euler_characteristic(FinitePoset.chain(160)) == 1


def test_euler_chain_sum_matches_f_vector(classes_upto):
    for p in classes_upto(6):
        kx = order_complex(p)
        assert chain_counts(p) == list(kx.f_vector)
        alt = sum((-1) ** d * c for d, c in enumerate(kx.f_vector))
        assert euler_characteristic(p) == alt
    # 2^160 - 1 chains, counted by length as binomial coefficients
    assert chain_counts(FinitePoset.chain(160)) == [math.comb(160, d + 1) for d in range(160)]


def test_chain_totals_match_the_counts_by_length(classes_upto):
    """One count and one signed count per point give the chain total and
    the Euler characteristic of the counts by length."""
    posets = list(classes_upto(7)) + [p for p, _ in random_posets(seed=20061106, count=300)]
    for p in posets + [FinitePoset.chain(160), sphere_model(40)]:
        f = chain_counts(p)
        assert _chain_totals(p) == (sum(f), sum((-1) ** d * c for d, c in enumerate(f)))


def brute_faces(p):
    """``brute_chains`` as faces: index-sorted, by length, then in order."""
    return sorted((tuple(sorted(c)) for c in brute_chains(p)), key=lambda f: (len(f), f))


def test_faces_are_the_chains_in_canonical_order(classes_upto):
    """The faces listed level by level are every chain once, in the order
    of ``SimplicialComplex.faces``, as built and shuffled."""
    rng = random.Random(32)
    for p in classes_upto(7):
        perm = list(range(p.n))
        rng.shuffle(perm)
        for q in (p, p.relabel(perm)):
            assert list(order_complex(q).faces) == brute_faces(q)
    check_random_orders(40)


@pytest.mark.slow
def test_faces_are_the_chains_on_every_seeded_random_order():
    check_random_orders(300)


def check_random_orders(count):
    """The first ``count`` seeded random orders of ``test_differential``, as
    built and relabelled: faces against ``brute_chains``, f-vector against
    the counts by length."""
    for p, perm in random_posets(seed=20061106, count=count):
        for q in (p, p.relabel(perm)):
            kx = order_complex(q)
            assert list(kx.faces) == brute_faces(q)
            assert kx.f_vector == tuple(chain_counts(q)) and kx.dim == q.height - 1


def test_f_vector_examples(ss0):
    assert order_complex(FinitePoset.chain(3)).f_vector == (3, 3, 1)
    assert order_complex(ss0).f_vector == (4, 4)
    assert order_complex(FinitePoset.antichain(4)).f_vector == (4,)


def test_homology_full_simplex():
    for k in range(1, 5):
        h = homology(order_complex(FinitePoset.chain(k)))
        assert h.betti == tuple([1] + [0] * (k - 1))
        assert all(t == () for t in h.torsion)


def test_homology_spheres():
    for n in range(1, 9):
        h = homology(order_complex(sphere_model(n)))
        assert h.betti == tuple([1] + [0] * (n - 1) + [1])
        assert all(t == () for t in h.torsion)


def test_homology_wedge(wedge5):
    assert homology(order_complex(wedge5)).betti == (1, 2)


def test_homology_b0_counts_components(classes_upto):
    for p in classes_upto(7):
        h = homology(order_complex(p))
        assert h.betti[0] == len(p.connected_components())
        assert sum(
            (-1) ** d * b for d, b in enumerate(h.betti)
        ) == euler_characteristic(p)


def test_homology_height2_graph_case(classes_upto):
    # connected height-2 spaces: b1 = 1 - euler characteristic, no torsion
    for p in classes_upto(7):
        if p.height != 2 or not p.is_connected():
            continue
        h = homology(order_complex(p))
        b1 = h.betti[1] if len(h.betti) > 1 else 0
        assert b1 == 1 - euler_characteristic(p)
        assert all(t == () for t in h.torsion)


def rp2_faces():
    """Faces of the six-vertex triangulation of the projective plane."""
    triangles = [
        (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
        (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
    ]
    faces = set()
    for f in triangles:
        for r in range(1, 4):
            faces.update(itertools.combinations(f, r))
    return faces


def moore_faces(q):
    """(vertex count, faces) of a Moore space M(Z/q, 1): a disk whose
    3q-gon boundary v_0 v_1 ... wraps q times around the 3-cycle 0-1-2
    (v_i = i mod 3), an inner ring u_0..u_{3q-1} and one centre vertex."""
    m = 3 * q
    u = [3 + i for i in range(m)]
    centre = 3 + m
    triangles = []
    for i in range(m):
        j = (i + 1) % m
        triangles += [(i % 3, j % 3, u[i]), (j % 3, u[i], u[j]), (u[i], u[j], centre)]
    faces = set()
    for f in triangles:
        for r in range(1, 4):
            faces.update(itertools.combinations(sorted(f), r))
    return centre + 1, faces


def face_poset(faces):
    """The faces ordered by inclusion; its order complex subdivides theirs."""
    faces = sorted(faces)
    return FinitePoset([sum(1 << j for j, g in enumerate(faces) if set(f) <= set(g))
                        for f in faces])


def per_degree_homology(kx, invariant_factors=dense_invariant_factors):
    """Homology read off the invariant factors (by default the dense
    oracle's) of every full boundary matrix, each degree on its own."""
    factors = {d: invariant_factors(boundary_matrix(kx, d)) for d in range(1, kx.dim + 1)}
    rank = {d: len(factors.get(d, ())) for d in range(kx.dim + 2)}
    return HomologySummary(
        tuple(kx.f_vector[d] - rank[d] - rank[d + 1] for d in range(kx.dim + 1)),
        tuple(tuple(q for q in factors.get(d + 1, ()) if q > 1) for d in range(kx.dim + 1)),
    )


def moore_complexes(q, suspensions):
    """(complex, degree of its Z/q torsion) for M(Z/q, 1) as given, through
    its face poset, and through each of the given numbers of
    non-Hausdorff suspensions of that face poset."""
    n, faces = moore_faces(q)
    yield SimplicialComplex(n, faces), 1
    p = face_poset(faces)
    yield order_complex(p), 1
    for s in range(1, max(suspensions, default=0) + 1):
        p = nh_suspension(p)
        if s in suspensions:
            yield order_complex(p), 1 + s


# The dense oracle takes 7 s on the twice suspended M(Z/2, 1) and 80 s on
# M(Z/5, 1): Tier-1 checks these suspensions of the Moore face posets, and
# ``slow`` the rest of q = 2..5 with one or two.
MOORE_SUSPENSIONS = {2: (1, 2), 3: (1,), 4: (), 5: ()}
MOORE_SUSPENSIONS_SLOW = {3: (2,), 4: (1, 2), 5: (1, 2)}


def check_moore_spaces(suspensions):
    for q, counts in suspensions.items():
        for kx, degree in moore_complexes(q, counts):
            h = homology(kx)
            assert h == per_degree_homology(kx)
            assert h.betti == (1,) + (0,) * kx.dim
            assert h.torsion == tuple((q,) if d == degree else () for d in range(kx.dim + 1))


def test_homology_matches_the_dense_route_per_degree(classes_upto):
    """Homology on the Morse complex equals the dense oracle run
    on each full boundary matrix: on every class of at most 7 points, on
    RP^2, and on Moore spaces whose Z/q torsion lies in degrees 1 to 3."""
    for p in classes_upto(7):
        kx = order_complex(p)
        assert homology(kx) == per_degree_homology(kx)
    rp2 = SimplicialComplex(6, rp2_faces())
    assert homology(rp2) == per_degree_homology(rp2)
    check_moore_spaces(MOORE_SUSPENSIONS)


@pytest.mark.slow
def test_homology_matches_the_dense_route_on_suspended_moore_spaces():
    check_moore_spaces(MOORE_SUSPENSIONS_SLOW)


def reference_mates(kx):
    """The matching of the ``order_complex`` module docstring, straight from
    its definition in O(n * faces) steps: for v = 0..n-1, each unpaired
    face s of two or more vertices holding v is paired with s - v when that
    face is unpaired.  ``mate[i]`` is the face paired with face i, i itself
    for a critical face; faces are numbered by their place in ``kx.faces``."""
    faces = kx.faces
    position = {f: i for i, f in enumerate(faces)}
    mate = list(range(len(faces)))
    for v in range(kx.n_vertices):
        for s, f in enumerate(faces):
            if len(f) > 1 and v in f and mate[s] == s:
                t = position[tuple(x for x in f if x != v)]
                if mate[t] == t:
                    mate[s], mate[t] = t, s
    return mate


def check_matching(kx):
    """The critical faces per degree of the matching on kx, after checking
    that it is the matching ``reference_mates`` defines, that it pairs each
    face at most once, with a face one vertex larger or smaller, and that it
    is acyclic: with the matched edges of the face diagram (each face above
    its facets) turned upward, a Kahn sort reaches every face."""
    faces = kx.faces
    position = {f: i for i, f in enumerate(faces)}
    index, mate, critical = _morse_matching(kx)
    assert index == position
    assert mate == reference_mates(kx)
    assert [i for cs in critical for i in cs] == [i for i, j in enumerate(mate) if i == j]
    assert len(critical) == len(kx.f_vector)
    assert all(len(faces[i]) == d + 1 for d, cs in enumerate(critical) for i in cs)
    for i, j in enumerate(mate):
        assert mate[j] == i
        small, big = sorted((set(faces[i]), set(faces[j])), key=len)
        assert i == j or (len(big) == len(small) + 1 and small < big)
    below = [[] for _ in faces]  # below[s]: the faces an edge leaves s for
    for s, f in enumerate(faces):
        for t in (position[f[:j] + f[j + 1 :]] for j in range(len(f)) if len(f) > 1):
            if mate[s] == t:
                below[t].append(s)
            else:
                below[s].append(t)
    indegree = [0] * len(faces)
    for ts in below:
        for t in ts:
            indegree[t] += 1
    ready = [s for s, d in enumerate(indegree) if d == 0]
    for s in ready:
        for t in below[s]:
            indegree[t] -= 1
            if not indegree[t]:
                ready.append(t)
    assert len(ready) == len(faces), "the matched face diagram has a cycle"
    return [[faces[i] for i in cs] for cs in critical]


def test_matching_is_acyclic(classes_upto):
    """On every class of at most 6 points and on the 300 seeded random graph
    orders of ``test_differential``, each as built and with its points
    shuffled, on RP^2 and on Moore spaces as given and through face posets."""
    rng = random.Random(28)
    for p in classes_upto(6):
        perm = list(range(p.n))
        rng.shuffle(perm)
        for q in (p, p.relabel(perm)):
            critical = check_matching(order_complex(q))
            assert sum(map(len, critical)) >= sum(homology(order_complex(q)).betti)
    for p, perm in random_posets(seed=20061106, count=300):
        for q in (p, p.relabel(perm)):
            check_matching(order_complex(q))
    check_matching(SimplicialComplex(6, rp2_faces()))
    for q in (2, 3):
        for kx, _ in moore_complexes(q, (1,) if q == 2 else ()):
            check_matching(kx)


def test_sphere_models_leave_two_critical_faces():
    for n in range(1, 7):
        critical = check_matching(order_complex(sphere_model(n)))
        assert list(map(len, critical)) == [1] + [0] * (n - 1) + [1]


def test_layers_are_read_off_the_critical_faces(monkeypatch):
    """6 layers of 6 points, each above the whole layer below: 15,626 of the
    117,648 chains are critical, all in degrees 0 and 5, so no Smith normal
    form is needed."""
    n = 36
    up = [sum(1 << y for y in range(n) if y == x or y // 6 > x // 6) for x in range(n)]
    kx = order_complex(FinitePoset(up))
    assert len(kx.faces) == 117_648
    critical = _morse_matching(kx)[2]
    assert list(map(len, critical)) == [1, 0, 0, 0, 0, 15_625]

    def refuse(columns):
        raise AssertionError("no Smith normal form is needed here")

    monkeypatch.setattr(importlib.import_module("finito.order_complex"),
                        "smith_invariant_factors", refuse)
    h = homology(kx)
    assert h.betti == (1, 0, 0, 0, 0, 15_625) and h.torsion == ((),) * 6


def test_long_gradient_path_needs_no_recursion():
    """A fence of 2,000 lower and 2,000 upper points closed into a circle:
    the critical edge's Morse boundary follows one gradient path through
    nearly all 8,000 faces, far past the recursion limit."""
    m = 2000
    covers = [(j, m + j) for j in range(m)] + [((j + 1) % m, m + j) for j in range(m)]
    kx = order_complex(FinitePoset.from_cover_pairs(2 * m, covers))
    assert len(kx.faces) == 8000
    assert _morse_matching(kx)[2] == [[0], [kx.faces.index((m - 1, 2 * m - 1))]]
    h = homology(kx)
    assert h.betti == (1, 1) and h.torsion == ((), ())


def test_homology_projective_plane_torsion():
    h = homology(SimplicialComplex(6, rp2_faces()))
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def test_poset_homology_equals_full_homology(classes_upto):
    for p in classes_upto(7):
        assert poset_homology(p) == homology(order_complex(p))


def test_poset_homology_refuses_a_core_beyond_the_chain_limit(monkeypatch):
    # the S^2 model is its own core, with 3^3 - 1 = 26 chains
    s2 = sphere_model(2)
    module = importlib.import_module("finito.order_complex")  # the name is the function
    monkeypatch.setattr(module, "MAX_CHAINS", 26)
    assert poset_homology(s2).betti == (1, 0, 1)
    monkeypatch.setattr(module, "MAX_CHAINS", 25)
    with pytest.raises(
        CapExceededError, match="the order complex has 26 chains, beyond the limit of 25"
    ):
        poset_homology(s2)
    # the limit binds the core: a 40-point chain has 2^40 - 1 chains, its core one
    assert poset_homology(FinitePoset.chain(40)).betti == (1,) + (0,) * 39


def test_every_route_to_the_chains_refuses_beyond_the_limit(monkeypatch):
    # each route lists the 26 chains of the S^2 model through _chain_levels
    s2 = sphere_model(2)
    module = importlib.import_module("finito.order_complex")  # the name is the function
    routes = {
        "order_complex": lambda p: order_complex(p).f_vector,
        "homology": lambda p: homology(order_complex(p)).betti,
        "emit faces": lambda p: emit(p, "faces").count("\n"),
        "poset_homology": lambda p: poset_homology(p).betti,
        "check_wedge_model": lambda p: check_wedge_model(p, 1).b1,
    }
    monkeypatch.setattr(module, "MAX_CHAINS", 25)
    for route in routes.values():
        with pytest.raises(
            CapExceededError, match="^the order complex has 26 chains, beyond the limit of 25$"
        ):
            route(s2)
    monkeypatch.setattr(module, "MAX_CHAINS", 26)
    answers = {name: route(s2) for name, route in routes.items()}
    assert answers == {
        "order_complex": (6, 12, 8),
        "homology": (1, 0, 1),
        "emit faces": 26,
        "poset_homology": (1, 0, 1),
        "check_wedge_model": 0,
    }


def test_the_refusal_lists_no_chain(monkeypatch):
    """Beyond the limit every route refuses on the count alone: with the
    listing patched to fail when entered, each still raises the refusal."""
    module = importlib.import_module("finito.order_complex")  # the name is the function

    def listed(p):
        raise AssertionError("a chain was listed")
        yield

    monkeypatch.setattr(module, "_cliques", listed)
    monkeypatch.setattr(module, "MAX_CHAINS", 25)
    s2 = sphere_model(2)  # 26 chains
    for route in (order_complex, poset_homology, lambda p: emit(p, "faces"),
                  lambda p: list(module._chain_levels(p))):
        with pytest.raises(CapExceededError, match="has 26 chains, beyond the limit of 25$"):
            route(s2)
    with pytest.raises(AssertionError, match="a chain was listed"):
        order_complex(sphere_model(1))  # 8 chains: the patched listing is reached


def test_poset_homology_of_projective_plane_face_poset():
    # the order complex of the face poset subdivides the triangulation
    faces = sorted(rp2_faces())
    up = [sum(1 << j for j, g in enumerate(faces) if set(f) <= set(g)) for f in faces]
    h = poset_homology(FinitePoset(up))
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def test_faces_text_golden(ss0):
    assert faces_text(order_complex(ss0)) == (
        "0\n1\n2\n3\n0 2\n0 3\n1 2\n1 3\n"
    )
    # 2 < 1 < 0: each chain ascends against the index order, each face is sorted
    descending = FinitePoset.chain(3).relabel([2, 1, 0])
    assert faces_text(order_complex(descending)) == (
        "0\n1\n2\n0 1\n0 2\n1 2\n0 1 2\n"
    )


def test_xgcd():
    for a, b in [(12, 18), (-5, 7), (0, 4), (3, 0), (-6, -4), (1, 1)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_smith_invariant_factors_known():
    for m, want in [
        ([[2, 4], [6, 8]], [2, 4]),
        ([[1, 0], [0, 0]], [1]),
        ([[0, 0], [0, 0]], []),
        ([[2, 0], [0, 3]], [1, 6]),
        ([[2, 0], [0, 2]], [2, 2]),
    ]:
        assert smith_invariant_factors(sparse_columns(m)) == want == dense_invariant_factors(m)
    # rows of [[1, 2, 3], [2, 4, 6], [1, 1, 1]] as {column: entry} maps
    assert matrix_rank([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {0: 1, 1: 1, 2: 1}]) == 2


def test_sparse_kernel_matches_dense_snf(classes_upto):
    for p in classes_upto(7):
        kx = order_complex(p)
        for d in range(1, kx.dim + 1):
            m = boundary_matrix(kx, d)
            assert smith_invariant_factors(sparse_columns(m)) == dense_invariant_factors(m)


def test_sparse_kernel_on_full_boundaries_with_hundreds_of_columns():
    """The kernel on whole boundary matrices, up to 672 columns (degree 4
    of S^6), gives the homology of the Morse route."""
    def layers(w, count):
        n = w * count
        return FinitePoset([sum(1 << y for y in range(n) if y == x or y // w > x // w)
                            for x in range(n)])

    spaces = [sphere_model(n) for n in range(1, 7)]
    spaces += [layers(3, 3), layers(4, 4), layers(5, 4), face_poset(rp2_faces())]
    widest = 0
    for p in spaces:
        kx = order_complex(p)
        sparse = per_degree_homology(kx, lambda m: smith_invariant_factors(sparse_columns(m)))
        assert sparse == homology(kx)
        widest = max(widest, *kx.f_vector[1:])
    assert widest == 672


def test_boundary_matrix_degrees():
    """Degrees below 1 are refused by name; one above the top gives one
    row per top face and no columns."""
    kx = order_complex(FinitePoset.chain(2))
    for d in (0, -1):
        with pytest.raises(ValueError, match=f"got {d}"):
            boundary_matrix(kx, d)
    assert boundary_matrix(kx, kx.dim + 1) == [[]]


def test_eliminate_unit_pivots_known():
    """Matrices with and without unit pivots, and what the unit
    elimination leaves for the rest of the kernel."""
    for m, want in [
        ([[2, 4], [6, 8]], [2, 4]),  # no unit pivot
        ([[0, 0], [0, 0]], []),
        ([[1, 1], [1, -1]], [1, 2]),  # elimination leaves the entry -2
        ([[1, 1, 0], [1, -1, 2], [0, 2, 4]], [1, 2, 6]),
        ([[3, 0], [0, 1]], [1, 3]),
        # the unit pass finds no unit in column 0; eliminating column 1 makes one
        ([[2, 1], [3, 1]], [1, 1]),
    ]:
        assert smith_invariant_factors(sparse_columns(m)) == want == dense_invariant_factors(m)
    assert smith_invariant_factors([]) == []
    assert smith_invariant_factors([{}, {}]) == []
    columns = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert smith_invariant_factors(columns) == [1, 2]
    assert columns == [{0: 1, 1: 1}, {0: 1, 1: -1}]


def test_smith_divisibility_chain():
    import random

    rng = random.Random(3)
    for _ in range(50):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        d = smith_invariant_factors(sparse_columns(m))
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        assert d == dense_invariant_factors(m)


def test_kernel_matches_dense_oracle_on_random_matrices():
    """Seeded random shapes 0x0..6x6 whose entries are mostly not units,
    so the kernel's least-absolute-value steps do most of the work; more
    than a quarter of the matrices have a factor above 1."""
    import copy
    import random

    rng = random.Random(9)
    entries = (1, -1, 2, -2, 3, 4, -6, 5, 9)
    torsion = 0
    for _ in range(10000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        density = rng.random()
        columns = [
            {i: rng.choice(entries) for i in range(m) if rng.random() < density}
            for _ in range(n)
        ]
        before = copy.deepcopy(columns)
        dense = [[col.get(i, 0) for col in columns] for i in range(m)]
        factors = smith_invariant_factors(columns)
        assert factors == dense_invariant_factors(dense), dense
        assert columns == before
        torsion += any(d > 1 for d in factors)
    assert torsion > 2500


def test_int_row_span():
    span = IntRowSpan(3)
    span.add([2, 0, 0])
    span.add([0, 3, 0])
    assert [2, 3, 0] in span
    assert [1, 0, 0] not in span
    assert [4, -3, 0] in span
    span.add([1, 1, 1])
    assert [1, 1, 1] in span
    assert [0, 0, 1] not in span
    assert [0, 0, 0] in span


def test_euler_invariance_under_homotopy_type(classes_upto):
    # homotopy equivalent spaces share the chain-sum value
    for p in classes_upto(5):
        assert euler_characteristic(p) == euler_characteristic(core(p).final)
    assert poset_homology(sphere_model(2)).betti == (1, 0, 1)
