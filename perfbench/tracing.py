"""Per-layer spans recorded from outside the program.

``install()`` rebinds the public functions of each ``finito`` module, and a
few methods of its classes, to timing wrappers.  A function is rebound at
every module attribute that holds it, so a call resolved through an
importing module (``finito.order_complex.smith_invariant_factors``,
``finito.cli.core``) is seen as well as one through the defining module.
Spans nest on one stack; each records its own time and its self time (its
time minus that of the wrapped calls inside it).  Spans are aggregated as
they close instead of being kept, so a run of 10^5 calls stays small.

A name in ``REQUIRED`` that the program no longer defines is reported as
absent, and the metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("models", "poset", "reduction", "order_complex", "snf", "pi1", "fileio", "cli")

# Public helpers called once per letter or per elimination step: a wrapper
# would cost more than their work and swamp the times of their callers.
UNWRAPPED = {"pi1.free_reduce", "pi1.cyclic_reduce", "pi1.invert_word", "snf.xgcd"}

# Class methods that do a layer's work.  Cheap accessors such as
# ``FinitePoset.leq`` are left out for the reason above.
METHODS = {
    "poset": {
        "FinitePoset": ("__init__", "from_covers", "chains", "canonical_form",
                        "is_homeomorphic", "subposet", "opposite",
                        "connected_components", "hasse"),
    },
    "order_complex": {"SimplicialComplex": ("__init__", "faces_of_dim")},
    "fileio": {"PosetDocument": ("to_poset",)},
}

# Spans whose time counts once when one calls the other.
FAMILY = {
    "reduction.osaki_open_reduction": "reduction.osaki",
    "reduction.osaki_closed_reduction": "reduction.osaki",
}

ENUMERATE = "models.enumerate_posets"
CANONICAL = "poset.FinitePoset.canonical_form"
BOUNDARY = "order_complex.boundary_matrix"
SMITH = "snf.smith_invariant_factors"

REQUIRED = (
    ENUMERATE, "models.verify_sphere_theorem", "models.wedge_uniqueness_scan",
    CANONICAL, "poset.FinitePoset.__init__", "poset.FinitePoset.chains",
    "reduction.beat_points", "reduction.core",
    "reduction.osaki_open_reduction", "reduction.osaki_closed_reduction",
    "order_complex.order_complex", BOUNDARY, "order_complex.homology",
    "order_complex.euler_characteristic", SMITH,
    "pi1.edge_path_presentation", "pi1.tietze_simplify",
    "fileio.parse_poset", "fileio.emit", "cli.main",
)

DEGREES = range(1, 9)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, time of wrapped calls inside]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # outermost spans of a family only
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.open = defaultdict(int)  # open spans per family
        self.counts = defaultdict(int)  # also the per-degree SNF seconds
        self.classes: dict[int, int] = {}  # point count -> classes enumerated
        self.boundary = None  # (last boundary matrix, its degree)
        self.wrapped: set[str] = set()
        self.hook_errors: set[str] = set()

    def enter(self, name: str) -> None:
        self.open[FAMILY.get(name, name)] += 1
        if name == CANONICAL and self.open[ENUMERATE]:
            self.counts["canonical_in_enumeration"] += 1
        self.stack.append([name, perf_counter(), 0.0])

    def leave(self) -> float:
        end = perf_counter()
        name, start, inner = self.stack.pop()
        dt = end - start
        family = FAMILY.get(name, name)
        self.open[family] -= 1
        if not self.open[family]:
            self.total[family] += dt
        self.calls[name] += 1
        self.self_time[name] += dt - inner
        self.layer_self[name.split(".", 1)[0]] += dt - inner
        if self.stack:
            self.stack[-1][2] += dt
        return dt

    def hook(self, name, args, result, dt) -> None:
        handler = HOOKS.get(name)
        if handler is None:
            return
        try:
            handler(self, args, result, dt)
        except (AttributeError, TypeError, IndexError, KeyError, ValueError):
            self.hook_errors.add(name)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name: str):
        self.wrapped.add(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.leave()
            self.hook(name, args, result, dt)
            return result

        return timed

    def _wrap_generator(self, fn, name: str):
        """Times each step of the iteration, not the consumer's work between."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            gen = fn(*args, **kwargs)
            produced = 0
            try:
                while True:
                    self.enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.leave()
                    produced += 1
                    yield item
            finally:
                gen.close()
                self.hook(name, args, produced, 0.0)

        return timed

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        total, calls, counts = self.total, self.calls, self.counts
        classes = sum(self.classes.values())
        in_enum = counts["canonical_in_enumeration"]
        out = {
            "models.enumerate_s": total[ENUMERATE],
            "models.classes": classes,
            "models.verify_s": total["models.verify_sphere_theorem"],
            "models.wedge_s": total["models.wedge_uniqueness_scan"],
            "poset.canonical_calls": calls[CANONICAL],
            "poset.canonical_s": total[CANONICAL],
            "poset.useful_ratio": classes / in_enum if in_enum else 0.0,
            "poset.validate_calls": calls["poset.FinitePoset.__init__"],
            "poset.validate_s": total["poset.FinitePoset.__init__"],
            "poset.chains_s": total["poset.FinitePoset.chains"],
            "reduction.beat_points_calls": calls["reduction.beat_points"],
            "reduction.beat_points_s": total["reduction.beat_points"],
            "reduction.core_calls": calls["reduction.core"],
            "reduction.core_s": total["reduction.core"],
            "reduction.core_removed": counts["core_removed"],
            "reduction.osaki_s": total["reduction.osaki"],
            "order_complex.build_s": total["order_complex.order_complex"],
            "order_complex.faces": counts["faces"],
            "order_complex.boundary_s": total[BOUNDARY],
            "order_complex.homology_s": self.self_time["order_complex.homology"],
            "order_complex.euler_s": total["order_complex.euler_characteristic"],
            "snf.calls": calls[SMITH],
            "snf.s": total[SMITH],
            "snf.cells": counts["snf_cells"],
            "snf.max_rows": counts["snf_max_rows"],
            "snf.max_cols": counts["snf_max_cols"],
        }
        for d in DEGREES:
            out[f"snf.s.d{d}"] = counts[f"snf_s_d{d}"]
            out[f"snf.rows.d{d}"] = counts[f"snf_rows_d{d}"]
            out[f"snf.cols.d{d}"] = counts[f"snf_cols_d{d}"]
        out.update({
            "pi1.presentation_s": total["pi1.edge_path_presentation"],
            "pi1.generators": counts["pi1_generators"],
            "pi1.relators": counts["pi1_relators"],
            "pi1.tietze_s": total["pi1.tietze_simplify"],
            "pi1.tietze_eliminated": counts["tietze_eliminated"],
            "fileio.parse_calls": calls["fileio.parse_poset"],
            "fileio.parse_s": total["fileio.parse_poset"],
            "fileio.emit_s": total["fileio.emit"],
            "cli.self_s": self.layer_self["cli"],
        })
        return out

    def absent(self) -> list[str]:
        return [name for name in REQUIRED if name not in self.wrapped]


# -- hooks: counts read off arguments and results -------------------------------


def _enumerated(tracer, args, produced, dt):
    k = args[0]
    tracer.classes[k] = max(tracer.classes.get(k, 0), produced)


def _faces(tracer, args, result, dt):
    tracer.counts["faces"] += len(result.faces)


def _boundary(tracer, args, result, dt):
    tracer.boundary = (result, args[1])


def _smith(tracer, args, result, dt):
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    counts = tracer.counts
    counts["snf_cells"] += rows * cols
    counts["snf_max_rows"] = max(counts["snf_max_rows"], rows)
    counts["snf_max_cols"] = max(counts["snf_max_cols"], cols)
    if tracer.boundary is not None and tracer.boundary[0] is matrix:
        d = tracer.boundary[1]
        counts[f"snf_s_d{d}"] += dt
        counts[f"snf_rows_d{d}"] = max(counts[f"snf_rows_d{d}"], rows)
        counts[f"snf_cols_d{d}"] = max(counts[f"snf_cols_d{d}"], cols)
        tracer.boundary = None


def _core(tracer, args, result, dt):
    tracer.counts["core_removed"] += len(result.removed)


def _presentation(tracer, args, result, dt):
    tracer.counts["pi1_generators"] += result.generators
    tracer.counts["pi1_relators"] += len(result.relators)


def _tietze(tracer, args, result, dt):
    tracer.counts["tietze_eliminated"] += args[0].generators - result.generators


HOOKS = {
    ENUMERATE: _enumerated,
    "order_complex.order_complex": _faces,
    BOUNDARY: _boundary,
    SMITH: _smith,
    "reduction.core": _core,
    "pi1.edge_path_presentation": _presentation,
    "pi1.tietze_simplify": _tietze,
}


# -- installation ---------------------------------------------------------------


def _rebind_everywhere(original, wrapper) -> None:
    for modname, module in list(sys.modules.items()):
        if modname != "finito" and not modname.startswith("finito."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap every layer of the imported ``finito`` package; returns the tracer."""
    tracer = Tracer()
    for layer in LAYERS:
        # The package re-exports the function ``order_complex`` under the
        # module's own name, so modules are looked up in sys.modules.
        module = sys.modules.get(f"finito.{layer}")
        if module is None:
            continue
        for attr, value in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED
                    or not isinstance(value, types.FunctionType)
                    or value.__module__ != module.__name__):
                continue
            _rebind_everywhere(value, tracer.wrap(value, name))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = vars(module).get(cls_name)
            if cls is None:
                continue
            for attr in methods:
                raw = vars(cls).get(attr)
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name)))
                elif isinstance(raw, types.FunctionType):
                    setattr(cls, attr, tracer.wrap(raw, name))
    return tracer
