"""Order complexes of finite posets and their exact integral homology.

The complex of a poset has the nonempty chains as simplices.  Homology is
computed from the integer boundary maps, built as sparse columns of +-1
entries and reduced to Smith normal form on those columns, unit pivots
first, so Betti numbers and torsion coefficients are exact.  The maps are
reduced from the top degree down, and a face that a unit pivot one degree
up has paired is left out of the map below it ("clearing", Chen and
Kerber, "Persistent homology computation with a twist", EuroCG 2011).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        self._store(n_vertices, faces)

    @classmethod
    def _trusted(cls, n_vertices: int, faces) -> "SimplicialComplex":
        """Skip the checks for distinct sorted faces already known to be
        closed under subsets and to cover every vertex, such as the chains
        of a poset."""
        self = object.__new__(cls)
        self._store(n_vertices, faces)
        return self

    def _store(self, n_vertices: int, faces) -> None:
        """Set ``faces`` from distinct sorted faces in any order, with
        ``f_vector`` and ``dim`` beside it; each dimension is sorted on its
        own, which needs no sort key per face."""
        by_dim = []
        for f in faces:
            while len(by_dim) < len(f):
                by_dim.append([])
            by_dim[len(f) - 1].append(f)
        for fs in by_dim:
            fs.sort()
        self.n_vertices = n_vertices
        self.faces = tuple(f for fs in by_dim for f in fs)
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
# `finito info` takes 6.0-7.4 s and 384-388 MB max RSS (Python 3.11, 2 shared
# vCPUs).
MAX_CHAINS = 250_000  # the most chains order_complex lists


def order_complex(p: FinitePoset) -> SimplicialComplex:
    """Complex of the nonempty chains of p, counted first: at most MAX_CHAINS."""
    if (chains := sum(_chain_counts(p))) > MAX_CHAINS:
        raise CapExceededError(f"the order complex has {chains:,} chains,"
                               f" beyond the limit of {MAX_CHAINS:,}")
    # chains ascend in the order of p, faces in index order
    return SimplicialComplex._trusted(p.n, (tuple(sorted(c)) for c in p.chains()))


def _chain_counts(p: FinitePoset) -> list[int]:
    """Chains of p by length: entry d counts the chains of d + 1 points,
    the d-faces of the order complex.

    Chains are counted, not listed: visiting the points in a linear
    extension, the chains with top y are y alone and each chain with top
    x < y extended by y.
    """
    ending = {}  # ending[y][l]: chains of l+1 points with top y
    for y in sorted(range(p.n), key=lambda x: p.down[x].bit_count()):
        counts = ending[y] = [1] + [0] * (p.levels[y] - 1)
        for x in _bits(p.down[y] & ~(1 << y)):
            for length, c in enumerate(ending[x], 1):
                counts[length] += c
    return [sum(c[d] for c in ending.values() if len(c) > d) for d in range(p.height)]


def euler_characteristic(p: FinitePoset) -> int:
    """Alternating chain sum: each nonempty chain C contributes (-1)^(#C+1),
    from the chain counts by length."""
    return sum((-1) ** d * c for d, c in enumerate(_chain_counts(p)))


def _boundary_columns(k: SimplicialComplex, d: int, skip=()) -> list[dict[int, int]]:
    """Boundary map C_d -> C_{d-1} as sparse columns {row: +-1}, one per
    d-face whose index is not in ``skip``; rows and columns follow
    ``faces_of_dim``, the columns with the skipped faces left out."""
    rows = {f: i for i, f in enumerate(k.faces_of_dim(d - 1))}
    return [
        {rows[face[:i] + face[i + 1 :]]: -1 if i & 1 else 1 for i in range(len(face))}
        for j, face in enumerate(k.faces_of_dim(d))
        if j not in skip
    ]


def boundary_matrix(k: SimplicialComplex, d: int) -> list[list[int]]:
    """Integer matrix of the boundary map C_d -> C_{d-1} (d >= 1)."""
    columns = _boundary_columns(k, d)
    mat = [[0] * len(columns) for _ in k.faces_of_dim(d - 1)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            mat[i][j] = v
    return mat


def homology(k: SimplicialComplex) -> HomologySummary:
    """Integral simplicial homology: exact Betti numbers and torsion.

    The boundary maps are reduced for d = dim, ..., 1.  The reduction of
    d_{d+1} reports the d-faces that its unit pivots eliminated before any
    row operation, and d_d is built without their columns (clearing, Chen
    and Kerber 2011).  The invariant factors of d_d do not change: those
    pivot columns are chains c_1, c_2, ... whose boundaries, read in the
    reported rows, form a triangular matrix with +-1 on the diagonal, and
    d_d of each boundary is 0, so d_d of each reported face is an integer
    combination of the columns of the other d-faces.
    """
    dim = k.dim
    factors = {}
    cleared: set[int] = set()
    for d in range(dim, 0, -1):
        paired: set[int] = set()
        factors[d] = smith_invariant_factors(_boundary_columns(k, d, cleared), paired)
        cleared = paired
    ranks = {d: len(factors.get(d, [])) for d in range(dim + 2)}
    betti = tuple(k.f_vector[d] - ranks[d] - ranks[d + 1] for d in range(dim + 1))
    torsion = tuple(
        tuple(q for q in factors.get(d + 1, []) if q > 1) for d in range(dim + 1)
    )
    return HomologySummary(betti, torsion)


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
    return "\n".join(" ".join(str(v) for v in f) for f in k.faces) + "\n"
