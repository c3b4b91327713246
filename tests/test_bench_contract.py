"""The benchmark's trace mode wraps functions under the names their callers bind.

``bench/tracing.py`` lists those names in ``TRACED`` and ``COUNTED``.  A
refactor that moves, renames or deletes one breaks the traced benchmark
without failing any other test, so this module loads that file (without
writing anything next to it) and checks every entry.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("table", ["TRACED", "COUNTED"])
def test_every_wrapped_name_resolves_to_a_callable(tracing, table):
    entries = [(owner, name) for owner, names in getattr(tracing, table).items() for name in names]
    assert entries
    unresolved = [
        f"{owner.__name__}.{name}" for owner, name in entries if not callable(getattr(owner, name, None))
    ]
    assert not unresolved, f"bench/tracing.py {table} names no callable at: {unresolved}"
    # the tracer names each span after the wrapped function's module and qualname
    for owner, name in entries:
        assert tracing.span_name(getattr(owner, name))
