import os
from pathlib import Path

import pytest

import finito
from finito import FinitePoset
from finito.models import _walk

CENSUS_POINTS = 8


@pytest.fixture
def cli_env():
    """Environment for a ``python -m finito`` child process.

    The directory holding the imported package goes first on PYTHONPATH, so
    the child runs the same code as the test, whatever the working
    directory, a relative PYTHONPATH or an installed copy would pick.
    """
    env = dict(os.environ)
    path = [str(Path(finito.__file__).parents[1])]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


@pytest.fixture(scope="session")
def classes_upto():
    """``classes_upto(k)``: one representative per class with at most k
    points (k <= 8), size by size in canonical-code order, the order that
    ``enumerate_posets(1)``, ..., ``enumerate_posets(k)`` give them in.

    The classes come from one depth-first pass over the enumeration to the
    largest k asked for so far, grouped by size, sorted by code, decoded
    and shared by every test of the session.
    """
    levels = []

    def upto(k):
        if not 1 <= k <= CENSUS_POINTS:
            raise ValueError(f"k must be in 1..{CENSUS_POINTS}, got {k}")
        if len(levels) < k:
            codes = [[] for _ in range(k)]
            for p in _walk(k):
                codes[p.n - 1].append(p.canonical_form())
            levels[:] = [tuple(map(FinitePoset._from_code, sorted(c))) for c in codes]
        return [p for level in levels[:k] for p in level]

    return upto


@pytest.fixture
def ex4():
    """Four-point space with covers d<b, b<a, c<a (a maximum)."""
    return FinitePoset.from_cover_pairs(4, [(3, 1), (1, 0), (2, 0)], labels="abcd")


@pytest.fixture
def ss0():
    """Four-point circle model: two minimal points under two maximal ones."""
    return FinitePoset.from_cover_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


@pytest.fixture
def wedge5():
    """Five-point model of a two-circle wedge: three minimal under two maximal."""
    return FinitePoset.from_cover_pairs(
        5, [(2, 0), (3, 0), (4, 0), (2, 1), (3, 1), (4, 1)]
    )


@pytest.fixture
def osaki_x():
    """Six-point space X with c,d < a1; c,d,e < b; d,e < a2."""
    return FinitePoset.from_cover_pairs(
        6,
        [(3, 0), (4, 0), (3, 1), (4, 1), (5, 1), (4, 2), (5, 2)],
        labels=["a1", "b", "a2", "c", "d", "e"],
    )


@pytest.fixture
def osaki_y():
    """Five-point suspension of three discrete points."""
    return FinitePoset.from_cover_pairs(
        5,
        [(2, 0), (3, 0), (4, 0), (2, 1), (3, 1), (4, 1)],
        labels=["a", "b", "c", "d", "e"],
    )
