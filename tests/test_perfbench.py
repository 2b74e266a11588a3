"""The per-layer tracer in ``perfbench/`` finds every function it needs.

The tracer rebinds functions by name from outside the program, and a name
it cannot find only makes its metrics read 0.  So a refactor that renames
or moves one of them would blind the benchmark without failing it; this
test fails instead.  It reads ``perfbench/tracing.py`` and changes nothing.
"""

import importlib
import importlib.util
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_required_name_resolves_where_the_tracer_wraps_it():
    tracing = load_tracing()
    assert tracing.REQUIRED
    for name in tracing.REQUIRED:
        layer, *path = name.split(".")
        assert layer in tracing.LAYERS, name
        module = importlib.import_module(f"finito.{layer}")
        if len(path) == 1:
            # a public function defined in the module itself
            value = vars(module).get(path[0])
            assert isinstance(value, types.FunctionType), name
            assert value.__module__ == module.__name__, name
            assert not path[0].startswith("_") and name not in tracing.UNWRAPPED, name
        else:
            # a method listed for its class
            cls_name, attr = path
            assert attr in tracing.METHODS[layer][cls_name], name
            cls = vars(module)[cls_name]
            raw = vars(cls).get(attr)
            assert isinstance(raw, (types.FunctionType, classmethod)), name


def test_names_the_self_check_binds_resolve():
    """``selfcheck.check_tracing`` reads these functions where their callers
    bind them and expects the tracer to have wrapped them there, so each
    must be the public function of the module that defines it."""
    for where, name, home in (
        ("cli", "core", "reduction"),
        ("pi1", "matrix_rank", "snf"),
        ("order_complex", "smith_invariant_factors", "snf"),
    ):
        value = getattr(importlib.import_module(f"finito.{where}"), name)
        assert value is vars(importlib.import_module(f"finito.{home}"))[name], name
        assert isinstance(value, types.FunctionType) and not name.startswith("_")
