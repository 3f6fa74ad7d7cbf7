"""The campaign benchmark's tracer still finds what it wraps.

``perfbench/tracing.py`` patches ``repro`` functions by name, at the
module namespace their callers resolve them in, and binds the engine's
``shots``/``workers``/``chunk_size`` arguments to size the pool.  A
rename in ``src/`` would otherwise surface only in the slower traced
self-test; this checks the names without installing any wrapper.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize(
    "module_name, path", sorted({(module, path) for _, module, path, _ in TARGETS})
)
def test_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # Methods are looked up in the class's own namespace, as install() does.
    namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
    assert attr in namespace, f"{module_name}.{path}"


def test_engine_count_keeps_the_pool_arguments():
    from repro.sim import engine

    parameters = inspect.signature(engine.count_logical_errors).parameters
    assert {"shots", "workers", "chunk_size"} <= set(parameters)
