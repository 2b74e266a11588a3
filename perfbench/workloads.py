"""Seeded inputs, the timed work and the correctness oracles of each workload.

Inputs are generated here from the seed alone, without calling the program
except to construct the validated ``FinitePoset`` values it is queried on.
Every call into the program goes through a module attribute of ``finito``
(``finito.homology``, ``finito.cli.main``) so that a tracer that rebinds
those attributes sees it.

Each workload has three steps:

* ``generate(seed, size, workdir)`` builds the inputs (part of set-up);
* ``run(inputs)`` does the timed work and returns ``(outputs, item_ms)``;
* ``check(inputs, outputs)`` returns ``[(label, ok), ...]``, one entry per
  checked result.  A failed check never raises.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import finito
import finito.cli

# Poset isomorphism classes on k = 0..8 points (OEIS A000112).
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045, 16999)
# Minimal-model classes of the n-circle wedge, n = 1..9.
WEDGE_COUNTS = (1, 2, 3, 1, 2, 2, 5, 3, 1)

# Faces of the 6-vertex triangulation of the real projective plane.
RP2_TRIANGLES = (
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)

SIZES = {
    "full": {
        "verify8": {"max_height": 4, "max_wedge": 9},
        "homology": {"spheres": (3, 4, 5, 6), "graph_points": (12, 13, 14, 15),
                     "graph_orders": 12},
        "spaces": {"points": range(8, 25), "layers": (2, 3, 4), "repeat": 4,
                   "chains": (60, 110, 160), "cones": (60, 110, 160)},
    },
    "tiny": {
        "verify8": {"max_height": 3, "max_wedge": 4},
        "homology": {"spheres": (1, 2, 3), "graph_points": (8, 9),
                     "graph_orders": 2},
        "spaces": {"points": range(8, 11), "layers": (2, 3), "repeat": 1,
                   "chains": (20,), "cones": (20,)},
    },
}

SPACE_QUERIES = ("info", "core", "pi1", "osaki")


# -- order helpers independent of the program ----------------------------------


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(n: int, pairs) -> list[int]:
    """Up-sets of the order generated by pairs (x, y), x < y as indices."""
    above = [0] * n
    for x, y in pairs:
        above[x] |= 1 << y
    up = [1 << x for x in range(n)]
    for x in reversed(range(n)):
        for y in _bits(above[x]):
            up[x] |= up[y]
    return up


def _components(up: list[int]) -> int:
    n = len(up)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(n):
        for y in _bits(up[x]):
            parent[find(x)] = find(y)
    return len({find(x) for x in range(n)})


def _chain_counts(up: list[int]) -> list[int]:
    """f-vector of the order complex: f[d] chains of d+1 points.  Needs the
    indices to be a linear extension (x <= y implies x <= y as indices)."""
    ending = []  # ending[y][l]: chains of l+1 points with top y
    for y in range(len(up)):
        counts = [1]
        for x in range(y):
            if (up[x] >> y) & 1:
                for length, c in enumerate(ending[x]):
                    if length + 1 == len(counts):
                        counts.append(0)
                    counts[length + 1] += c
        ending.append(counts)
    f = [0] * max(map(len, ending))
    for counts in ending:
        for length, c in enumerate(counts):
            f[length] += c
    return f


def _suspend(up: list[int]) -> list[int]:
    """Non-Hausdorff suspension: two incomparable points above everything."""
    n = len(up)
    two = (1 << n) | (1 << (n + 1))
    return [row | two for row in up] + [1 << n, 1 << (n + 1)]


def _sphere_up(dim: int) -> list[int]:
    """2*dim+2 point sphere model: each pair of points below the next pair."""
    n = 2 * dim + 2
    return [
        (1 << x) | (((1 << n) - 1) & ~((1 << (2 * (x // 2 + 1))) - 1))
        for x in range(n)
    ]


def _face_poset_up(triangles) -> list[int]:
    faces = sorted(
        {s for t in triangles for r in (1, 2, 3) for s in combinations(t, r)},
        key=lambda f: (len(f), f),
    )
    return [
        sum(1 << j for j, g in enumerate(faces) if set(f) <= set(g))
        for f in faces
    ]


def _poset_text(pairs) -> str:
    """Poset file of a connected space: one cover pair per line."""
    return "".join(f"p{x} < p{y}\n" for x, y in pairs)


# -- verify8: exhaustive sphere and wedge verification ---------------------------


def generate_verify8(seed: int, size: dict, workdir: Path) -> dict:
    """The input is fixed by the theorem's scope; the seed changes nothing."""
    return dict(size)


def run_verify8(inputs: dict):
    t0 = time.perf_counter()
    try:
        report = finito.verify_sphere_theorem(inputs["max_height"])
    except Exception as exc:  # recorded as a failed check, never aborts
        report = exc
    t1 = time.perf_counter()
    try:
        rows = finito.wedge_uniqueness_scan(inputs["max_wedge"])
    except Exception as exc:
        rows = exc
    t2 = time.perf_counter()
    return {"report": report, "rows": rows}, [(t1 - t0) * 1e3, (t2 - t1) * 1e3]


def _class_count(k: int):
    try:
        return sum(1 for _ in finito.enumerate_posets(k))
    except Exception as exc:
        return exc


def check_verify8(inputs: dict, outputs: dict) -> list[tuple[str, bool]]:
    """Also counts the classes of each size scanned, outside the timed run."""
    max_k = 2 * inputs["max_height"]
    out = [
        (f"classes with {k} points = {A000112[k]}", _class_count(k) == A000112[k])
        for k in range(1, max_k + 1)
    ]
    report = outputs["report"]
    out.append(("sphere report confirmed", getattr(report, "confirmed", False) is True))
    out.append((
        f"sphere report scanned {sum(A000112[1:max_k + 1])} classes",
        getattr(report, "classes_scanned", None) == sum(A000112[1:max_k + 1]),
    ))
    n = inputs["max_wedge"]
    expected = list(zip(range(1, n + 1), WEDGE_COUNTS[:n]))
    rows = outputs["rows"]
    rows = list(rows) if isinstance(rows, (list, tuple)) else rows
    out.append((f"wedge model counts {WEDGE_COUNTS[:n]}", rows == expected))
    return out


# -- homology: order complexes and Smith normal form -----------------------------


@dataclass
class HomologyItem:
    name: str
    poset: object
    chi: int
    components: int
    betti: tuple | None = None
    torsion: tuple | None = None
    suspends: int | None = None  # index of the item this one suspends


def _homology_item(name, up, **expected) -> HomologyItem:
    f = _chain_counts(up)
    return HomologyItem(
        name=name,
        poset=finito.FinitePoset(up),
        chi=sum((-1) ** d * c for d, c in enumerate(f)),
        components=_components(up),
        **expected,
    )


def _graph_order(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """Random graph order on n points whose order complex has lo..hi chains:
    each pair i < j is an edge with probability 1/3, then closed."""
    while True:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 1 / 3]
        up = _closure(n, pairs)
        if lo <= sum(_chain_counts(up)) <= hi:
            return up


def generate_homology(seed: int, size: dict, workdir: Path) -> list[HomologyItem]:
    rng = random.Random(seed)
    items = []
    for dim in size["spheres"]:
        betti = (1,) + (0,) * (dim - 1) + (1,)
        items.append(_homology_item(
            f"S^{dim}", _sphere_up(dim), betti=betti, torsion=((),) * (dim + 1)
        ))
    items.append(_homology_item(
        "RP2 face poset", _face_poset_up(RP2_TRIANGLES),
        betti=(1, 0, 0), torsion=((), (2,), ()),
    ))
    points = size["graph_points"]
    for i in range(size["graph_orders"]):
        n = points[i % len(points)]
        up = _graph_order(rng, n, 150, 250)
        items.append(_homology_item(f"graph order {i} ({n} points)", up))
        items.append(_homology_item(
            f"suspension of graph order {i}", _suspend(up), suspends=len(items) - 1
        ))
    return items


def run_homology(items: list[HomologyItem]):
    outputs, item_ms = [], []
    for item in items:
        t0 = time.perf_counter()
        try:
            h = finito.homology(finito.order_complex(item.poset))
            out = (tuple(h.betti), tuple(tuple(t) for t in h.torsion),
                   finito.euler_characteristic(item.poset))
        except Exception as exc:
            out = exc
        item_ms.append((time.perf_counter() - t0) * 1e3)
        outputs.append(out)
    return outputs, item_ms


def check_homology(items: list[HomologyItem], outputs: list) -> list[tuple[str, bool]]:
    out = []
    for item, got in zip(items, outputs):
        if not isinstance(got, tuple):
            out.append((f"{item.name}: raised {got!r}", False))
            continue
        betti, torsion, chi = got
        alternating = sum((-1) ** d * b for d, b in enumerate(betti))
        out.append((f"{item.name}: euler = chain count sum", chi == item.chi))
        out.append((f"{item.name}: euler = alternating Betti sum", alternating == item.chi))
        out.append((f"{item.name}: b0 = components", betti[:1] == (item.components,)))
        if item.betti is not None:
            out.append((f"{item.name}: Betti {item.betti}", betti == item.betti))
            out.append((f"{item.name}: torsion {item.torsion}", torsion == item.torsion))
        if item.suspends is not None:
            base = outputs[item.suspends]
            shifted = None
            if isinstance(base, tuple):
                b, t, _ = base
                shifted = ((1, b[0] - 1) + b[1:], ((),) + t)
            out.append((f"{item.name}: homology shifts by one", (betti, torsion) == shifted))
    return out


# -- spaces: one-space-at-a-time queries through the CLI --------------------------


@dataclass
class Space:
    path: str
    points: int
    poset: object = None
    copy: object = None


def _layered_pairs(rng: random.Random, n: int, layers: int) -> list[tuple[int, int]]:
    """Covers of a connected space with the given number of layers: every
    point above the bottom layer covers each point of the layer below with
    probability 0.4, and at least one of them."""
    while True:
        cuts = sorted(rng.sample(range(1, n), layers - 1))
        bounds = list(zip([0] + cuts, cuts + [n]))
        pairs = []
        for (lo, mid), (_, hi) in zip(bounds, bounds[1:]):
            for y in range(mid, hi):
                below = [x for x in range(lo, mid) if rng.random() < 0.4]
                pairs += [(x, y) for x in below or [rng.randrange(lo, mid)]]
        if _components(_closure(n, pairs)) == 1:
            return pairs


def _fence_cone_pairs(n: int) -> list[tuple[int, int]]:
    """Zigzag fence on n-1 points (odd points above their even neighbours)
    with an apex above all of it: contractible, with a long beat-point trace."""
    fence = [(x, x + 1) if x % 2 == 0 else (x + 1, x) for x in range(n - 2)]
    maximal = [x for x in range(n - 1) if x % 2 == 1 or x == n - 2]
    return fence + [(x, n - 1) for x in maximal]


def generate_spaces(seed: int, size: dict, workdir: Path) -> dict:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    spaces = []
    shapes = [(n, h) for n in size["points"] for h in size["layers"]]
    for r in range(size["repeat"]):
        for n, layers in shapes:
            pairs = _layered_pairs(rng, n, layers)
            perm = list(range(n))
            rng.shuffle(perm)
            path = workdir / f"space{len(spaces)}.poset"
            path.write_text(_poset_text(pairs))
            up = _closure(n, pairs)
            moved = [0] * n
            for x, row in enumerate(up):
                moved[perm[x]] = sum(1 << perm[y] for y in _bits(row))
            spaces.append(Space(str(path), n, finito.FinitePoset(up), finito.FinitePoset(moved)))
    big = []
    for kind, sizes in (("chain", size["chains"]), ("cone", size["cones"])):
        for n in sizes:
            pairs = [(x, x + 1) for x in range(n - 1)] if kind == "chain" else _fence_cone_pairs(n)
            path = workdir / f"{kind}{n}.poset"
            path.write_text(_poset_text(pairs))
            big.append(Space(str(path), n))
    return {"spaces": spaces, "big": big}


def _cli(*argv):
    """Run one CLI command in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = finito.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {exc!r}"
    return code, out.getvalue()


def run_spaces(inputs: dict):
    outputs, item_ms = {"spaces": [], "big": []}, []
    for space in inputs["spaces"]:
        t0 = time.perf_counter()
        answers = [_cli(q, "--json", space.path) for q in SPACE_QUERIES]
        try:
            homeomorphic = space.poset.is_homeomorphic(space.copy)
        except Exception as exc:
            homeomorphic = exc
        item_ms.append((time.perf_counter() - t0) * 1e3)
        outputs["spaces"].append((answers, homeomorphic))
    for space in inputs["big"]:
        outputs["big"].append(_cli("core", "--json", space.path))
    return outputs, item_ms


def _json(text: str) -> dict:
    try:
        data = json.loads(text)
    except ValueError:
        return {}
    return data if isinstance(data, dict) else {}


def check_spaces(inputs: dict, outputs: dict) -> list[tuple[str, bool]]:
    out = []
    for i, (space, (answers, homeomorphic)) in enumerate(zip(inputs["spaces"], outputs["spaces"])):
        name = f"space {i} ({space.points} points)"
        for query, (code, _) in zip(SPACE_QUERIES, answers):
            out.append((f"{name}: {query} exit code {code!r} = 0", code == 0))
        info, pi1 = _json(answers[0][1]), _json(answers[2][1])
        out.append((f"{name}: info.points", info.get("points") == space.points))
        out.append((f"{name}: info.b0 = 1", info.get("b0") == 1))
        rank = pi1.get("free_rank", "missing")
        if rank is not None:
            out.append((f"{name}: free pi1 rank {rank} = info.b1", rank == info.get("b1")))
        out.append((f"{name}: relabelled copy homeomorphic", homeomorphic is True))
    for space, (code, text) in zip(inputs["big"], outputs["big"]):
        name = f"{Path(space.path).stem}"
        out.append((f"{name}: core exit code {code!r} = 0", code == 0))
        out.append((f"{name}: core is one point", _json(text).get("core_points") == 1))
    return out


WORKLOADS = {
    "verify8": (generate_verify8, run_verify8, check_verify8),
    "homology": (generate_homology, run_homology, check_homology),
    "spaces": (generate_spaces, run_spaces, check_spaces),
}
