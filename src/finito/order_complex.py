"""Order complexes of finite posets and their exact integral homology.

The complex of a poset has the nonempty chains as simplices.  Homology is
computed on a discrete Morse complex (Forman, "Morse theory for cell
complexes", Adv. Math. 1998), which has the homology of the complex:

* Matching.  For v = 0, ..., n-1 in turn, a face s holding v, not yet
  paired, is paired with s - v when s - v is a nonempty face not yet
  paired.  A sequence of such element matchings is acyclic for any vertex
  order (Jonsson, "Simplicial Complexes of Graphs", LNM 1928, 2008,
  Lemma 4.1); the faces left unpaired are critical.
* Morse boundary.  For a critical d-face s it is the sum over i of
  (-1)^i phi(s without its i-th vertex), where phi(t) is t for a critical
  t, 0 for a t paired with a smaller face, and -[r:t] times the sum of
  [r:u] phi(u) over the other facets u of r for a t paired with a larger
  face r.  Matched incidences are +-1, so it stays exact over Z.
* Degrees.  The Morse boundary of degree d is built only when degrees d
  and d-1 both have critical faces, and only it reaches the Smith normal
  form; b_d is the number of critical d-faces minus the ranks of the Morse
  boundaries of degrees d and d+1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, count
from operator import eq
from typing import Iterator

from .errors import CapExceededError
from .poset import FinitePoset, _bits
from .reduction import core
from .snf import smith_invariant_factors


@dataclass(frozen=True)
class HomologySummary:
    """Betti numbers b0..b_dim and invariant-factor torsion per degree."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def __str__(self):
        rows = []
        for d, (b, t) in enumerate(zip(self.betti, self.torsion)):
            parts = [f"Z^{b}" if b != 1 else "Z"] if b else []
            parts += [f"Z/{q}" for q in t]
            rows.append(f"H{d} = " + (" + ".join(parts) if parts else "0"))
        return "\n".join(rows)


class SimplicialComplex:
    """Finite abstract simplicial complex on vertices 0..n-1.

    ``faces`` holds each face once as a sorted vertex tuple, ordered by
    dimension and then by vertices; the faces are closed under taking
    nonempty subsets and every vertex occurs as a 0-face.  The order is
    canonical, so equal face sets give equal ``faces``.
    """

    def __init__(self, n_vertices: int, faces):
        faces = {tuple(sorted(f)) for f in faces}
        if not faces:
            raise ValueError("a complex needs at least one face")
        seen = set()
        for f in faces:
            if not f:
                raise ValueError("faces must be nonempty")
            if len(set(f)) < len(f):
                raise ValueError(f"face {f} repeats a vertex")
            seen.update(f)
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                if sub and sub not in faces:
                    raise ValueError(f"face set not closed under subsets at {f}")
        if seen != set(range(n_vertices)):
            raise ValueError("every vertex must appear as a 0-face")
        by_dim = [[] for _ in range(max(map(len, faces)))]
        for f in faces:
            by_dim[len(f) - 1].append(f)
        for fs in by_dim:
            fs.sort()  # each dimension on its own, which needs no sort key per face
        self._store(n_vertices, by_dim)

    @classmethod
    def _trusted(cls, n_vertices: int, by_dim) -> "SimplicialComplex":
        """Skip the checks for faces already known to be distinct, sorted,
        closed under subsets and to cover every vertex, such as the chains
        of a poset that ``_chain_levels`` lists; ``by_dim[d]`` holds the
        d-faces in increasing order."""
        self = object.__new__(cls)
        self._store(n_vertices, by_dim)
        return self

    def _store(self, n_vertices: int, by_dim) -> None:
        """Set ``faces``, ``f_vector`` and ``dim`` from the faces of each
        dimension in increasing order, ``by_dim[d]`` the d-faces; nothing is
        sorted here."""
        self.n_vertices = n_vertices
        self.faces = tuple(chain.from_iterable(by_dim))
        self.f_vector = tuple(map(len, by_dim))
        self.dim = len(by_dim) - 1

    def faces_of_dim(self, d: int) -> list[tuple[int, ...]]:
        if not 0 <= d <= self.dim:
            return []
        start = sum(self.f_vector[:d])
        return list(self.faces[start : start + self.f_vector[d]])

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.n_vertices == other.n_vertices
            and self.faces == other.faces
        )

    def __hash__(self):
        return hash((self.n_vertices, self.faces))

    def __repr__(self):
        return f"SimplicialComplex(n={self.n_vertices}, f={self.f_vector})"


# At 248,831 chains (5 layers of 11 points, each above the whole layer below),
# `finito info` takes 0.6-0.7 s and 69 MB max RSS (Python 3.11, 2 shared
# vCPUs).
MAX_CHAINS = 250_000  # the most chains order_complex lists


def order_complex(p: FinitePoset) -> SimplicialComplex:
    """Complex of the nonempty chains of p, counted first: at most MAX_CHAINS.
    The faces come level by level from ``_chain_levels``, already sorted."""
    return SimplicialComplex._trusted(p.n, list(_chain_levels(p)))


def _chain_levels(p: FinitePoset) -> Iterator[list[tuple[int, ...]]]:
    """The nonempty chains of p as index-sorted tuples, one list per length,
    each in increasing order: the faces of the order complex dimension by
    dimension, in the order of ``SimplicialComplex.faces``.  They are
    counted before any is listed: more than MAX_CHAINS raise
    CapExceededError on the first step."""
    if (chains := _chain_totals(p)[0]) > MAX_CHAINS:
        raise CapExceededError(f"the order complex has {chains:,} chains,"
                               f" beyond the limit of {MAX_CHAINS:,}")
    yield from _cliques(p)


def _cliques(p: FinitePoset) -> Iterator[list[tuple[int, ...]]]:
    """The chains as cliques of the comparability graph, one length at a
    time.  A face f carries the mask of the points above its last index
    comparable to all of f, and grows by each of them, y, in increasing
    order, its mask cut to the points above y comparable to y; so the next
    length comes out in increasing order too."""
    above = [(up | down) & -(2 << x) for x, (up, down) in enumerate(zip(p.up, p.down))]
    faces, masks = [(x,) for x in range(p.n)], above
    while faces:
        yield faces
        longer, longer_masks = [], []
        add_face, add_mask = longer.append, longer_masks.append
        for f, c in zip(faces, masks):
            while c:
                low = c & -c
                y = low.bit_length() - 1
                add_face(f + (y,))
                add_mask(c & above[y])
                c ^= low
        faces, masks = longer, longer_masks


def _chain_totals(p: FinitePoset) -> tuple[int, int]:
    """The number of nonempty chains of p and their sum of (-1)^(#C+1),
    the Euler characteristic, counted without listing a chain.  Visiting
    the points in a linear extension, the chains with top y are y alone and
    each chain with top x < y extended by y, so over x < y,
    t(y) = 1 + sum of t(x) counts them and s(y) = 1 - sum of s(x) their
    signs."""
    down = p.down
    t, s = [0] * p.n, [0] * p.n
    for y in sorted(range(p.n), key=lambda x: down[x].bit_count()):
        ty = sy = 1
        for x in _bits(down[y] & ~(1 << y)):
            ty += t[x]
            sy -= s[x]
        t[y], s[y] = ty, sy
    return sum(t), sum(s)


def euler_characteristic(p: FinitePoset) -> int:
    """Alternating chain sum: each nonempty chain C contributes (-1)^(#C+1),
    counted per point by ``_chain_totals`` without listing a chain."""
    return _chain_totals(p)[1]


def boundary_matrix(k: SimplicialComplex, d: int) -> list[list[int]]:
    """Integer matrix of the boundary map C_d -> C_{d-1} (d >= 1); rows and
    columns follow ``faces_of_dim``."""
    if d < 1:
        raise ValueError(f"boundary degree must be at least 1, got {d}")
    rows = {f: i for i, f in enumerate(k.faces_of_dim(d - 1))}
    columns = k.faces_of_dim(d)
    mat = [[0] * len(columns) for _ in rows]
    for j, face in enumerate(columns):
        for i in range(len(face)):
            mat[rows[face[:i] + face[i + 1 :]]][j] = -1 if i & 1 else 1
    return mat


def homology(k: SimplicialComplex) -> HomologySummary:
    """Integral simplicial homology: exact Betti numbers and torsion.

    Computed on the Morse complex of the matching ``_morse_matching``
    (Jonsson 2008), which has the homology of k (Forman 1998).  With c_d
    critical d-faces and M_d the Morse boundary of degree d (the module
    docstring gives it, through phi), b_d = c_d - rank M_d - rank M_{d+1},
    and the torsion in degree d is the invariant factors of M_{d+1} above
    1.  M_d is built only when degrees d and d-1 both have critical faces;
    otherwise it is zero.
    """
    index, mate, critical = _morse_matching(k)
    factors = {
        d: smith_invariant_factors(
            _morse_columns(k.faces, index, mate, critical[d], critical[d - 1]))
        for d in range(1, k.dim + 1) if critical[d] and critical[d - 1]
    }
    ranks = {d: len(factors.get(d, [])) for d in range(k.dim + 2)}
    betti = tuple(len(critical[d]) - ranks[d] - ranks[d + 1] for d in range(k.dim + 1))
    torsion = tuple(
        tuple(q for q in factors.get(d + 1, []) if q > 1) for d in range(k.dim + 1)
    )
    return HomologySummary(betti, torsion)


def _morse_matching(k: SimplicialComplex):
    """The matching of the module docstring on the faces of k, numbered by
    their place in ``k.faces``.

    Step v visits only faces that hold v.  Each face of two or more
    vertices first waits at its least vertex; at step v a waiting face s
    not yet paired is paired with s - v when that face is free, and
    otherwise moves on to its next vertex.  The pairs (s, s - v) of one
    step are disjoint, so the order of the visits within a step does not
    matter.  Returns ``(index, mate, critical)``: the number of each face,
    ``mate[i]`` the face paired with face i (i itself when i is critical;
    faces are numbered by dimension, so a partner below i has a smaller
    number) and ``critical[d]`` the critical d-faces in increasing order.
    """
    faces, n, f_vector = k.faces, k.n_vertices, k.f_vector
    index = dict(zip(faces, range(len(faces))))
    mate = list(index.values())  # mate[i] = i, on index's own int objects: no copy per face
    waiting = [[] for _ in range(n)]
    for s in mate[n:]:  # the first n faces are the vertices
        waiting[faces[s][0]].append(s)
    for v in range(n):
        for s in waiting[v]:
            if mate[s] == s:
                f = faces[s]
                i = f.index(v)
                t = index[f[:i] + f[i + 1 :]]
                if mate[t] == t:
                    mate[s], mate[t] = t, s
                elif i + 1 < len(f):
                    waiting[f[i + 1]].append(s)
    free = list(compress(range(len(faces)), map(eq, mate, count())))
    critical, start = [], 0
    for size in f_vector:
        start += size
        critical.append(free[: bisect_left(free, start)])
        del free[: len(critical[-1])]
    return index, mate, critical


def _morse_columns(faces, index, mate, cells, rows) -> list[dict[int, int]]:
    """Morse boundary of the critical faces ``cells`` as sparse columns
    {row: entry} over the critical faces ``rows`` one dimension down, a
    face's row being its place in ``rows``; phi is kept for every face it
    is found for."""
    phi = {t: {r: 1} for r, t in enumerate(rows)}
    columns = []
    for s in cells:
        f, terms = faces[s], []
        for j in range(len(f)):
            t = index[f[:j] + f[j + 1 :]]
            if mate[t] >= t:  # phi is 0 on a face paired with a smaller one
                terms.append((-1 if j & 1 else 1, phi.get(t) or _flow(t, faces, index, mate, phi)))
        columns.append(_signed_sum(terms))
    return columns


def _flow(t0: int, faces, index, mate, phi) -> dict[int, int]:
    """phi(t0) for a face t0 paired with a larger face, stored in ``phi``
    with phi of every face the gradient paths from t0 pass through.

    The paths are followed with an explicit stack, as one can be far
    longer than the recursion limit.  Where phi(t) is phi(u) for one other
    facet u, the value is shared, not copied, so a long path copies no
    chain."""
    stack = [t0]
    while stack:
        t = stack[-1]
        if t in phi:
            stack.pop()
            continue
        r = faces[mate[t]]
        at = r.index(sum(r) - sum(faces[t]))  # the vertex of r that t lacks
        ready, terms = True, []
        for j in range(len(r)):
            if j == at or mate[u := index[r[:j] + r[j + 1 :]]] < u:
                continue
            if (chain := phi.get(u)) is None:
                stack.append(u)
                ready = False
            elif chain:  # -[r:t] [r:u] = -(-1)^(at + j)
                terms.append((1 if (j - at) & 1 else -1, chain))
        if ready:
            stack.pop()
            shared = len(terms) == 1 and terms[0][0] == 1  # phi values never change
            phi[t] = terms[0][1] if shared else _signed_sum(terms)
    return phi[t0]


def _signed_sum(terms) -> dict[int, int]:
    """The sum of sign * chain over the (sign, chain) pairs, as a chain
    {row: coefficient} with no zero coefficient."""
    total = {}
    for sign, chain in terms:
        for i, c in chain.items():
            if c := total.get(i, 0) + sign * c:
                total[i] = c
            else:
                del total[i]
    return total


def poset_homology(p: FinitePoset) -> HomologySummary:
    """Homology of the order complex of p, in degrees 0..height-1.

    It is computed on the complex of the core, which is homotopy
    equivalent and often far smaller (an n-point chain has 2^n - 1 chains,
    its core one point); the degrees above the core's dimension are zero.
    A core beyond the chain limit of ``order_complex`` is refused there.
    """
    h = homology(order_complex(core(p).final))
    pad = p.height - len(h.betti)
    return HomologySummary(h.betti + (0,) * pad, h.torsion + ((),) * pad)


def faces_text(k: SimplicialComplex) -> str:
    """Plain export: one face per line, space-separated vertex indices."""
    return _face_lines(k.faces)


def _face_lines(faces) -> str:
    """The lines of ``faces_text`` for a nonempty run of faces."""
    return "\n".join(" ".join(str(v) for v in f) for f in faces) + "\n"
