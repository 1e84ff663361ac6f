"""Pluggable relational engine backends.

The join-tree algorithms (Yannakakis, the full reducer, acyclic counting,
free-connex preprocessing) are written against a small relation duck
interface; this package selects which concrete representation they run
on:

* ``tuple``    — Python tuples in hash-indexed dicts (the default, exact
  seed behaviour);
* ``columnar`` — dictionary-encoded numpy int64 columns with vectorized
  sort-grouped kernels (typically >= 3x faster on 100k-tuple acyclic
  joins; see ``benchmarks/test_bench_engines.py``);
* ``parallel`` — the columnar kernels fanned out over a spawn-based
  worker pool with shared-memory code columns (hash-sharded semijoins,
  counting and order-preserving block enumeration; serial fallback
  below a tuple-count threshold — see :mod:`repro.engine.parallel`).

Only ``tuple`` is built at import.  ``columnar`` and ``parallel`` (and
numpy with them) load the first time a query selects them by name, so a
process that never asks for them never imports them.  The numpy-backed
names this package re-exports (``BlockIterator``, the parallel helpers,
...) resolve on first attribute access the same way.

Selection, in decreasing precedence:

1. an explicit ``engine=`` argument to the algorithm entry points
   (an :class:`Engine`, or a backend name);
2. :func:`set_engine` / the :func:`use_engine` context manager;
3. the ``REPRO_ENGINE`` environment variable;
4. the default, ``tuple``.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.engine.base import ColumnarEngine, Engine, TupleEngine

DEFAULT_ENGINE = "tuple"
ENV_VAR = "REPRO_ENGINE"

_REGISTRY: Dict[str, Engine] = {}
_SELECTED: Optional[str] = None


def _parallel_engine() -> Engine:
    from repro.engine.parallel import ParallelEngine

    return ParallelEngine()


#: backends built (and registered) the first time they are named
_LAZY: Dict[str, Callable[[], Engine]] = {
    "columnar": ColumnarEngine,
    "parallel": _parallel_engine,
}


def register_engine(engine: Engine, replace: bool = False) -> Engine:
    """Register a backend under ``engine.name``."""
    if engine.name in _REGISTRY and not replace:
        raise ValueError(f"engine {engine.name!r} is already registered")
    _REGISTRY[engine.name] = engine
    return engine


def available_engines() -> List[str]:
    """Names of all registered backends, built or not."""
    return sorted(set(_REGISTRY) | set(_LAZY))


def _lookup(name: str) -> Engine:
    engine = _REGISTRY.get(name)
    if engine is None:
        factory = _LAZY.get(name)
        if factory is None:
            raise ValueError(
                f"unknown engine {name!r}; available: {available_engines()}")
        engine = _REGISTRY.setdefault(name, factory())
    return engine


def get_engine(name: Optional[str] = None) -> Engine:
    """The engine named ``name``, or the currently selected one.

    With no explicit selection the ``REPRO_ENGINE`` environment variable
    is consulted on every call, so tests and subprocesses can flip the
    backend without touching code.
    """
    if name is None:
        name = _SELECTED or os.environ.get(ENV_VAR) or DEFAULT_ENGINE
    return _lookup(name)


def set_engine(name: Optional[str]) -> None:
    """Select the process-wide default backend (None resets to env/default)."""
    if name is not None:
        _lookup(name)
    global _SELECTED
    _SELECTED = name


@contextmanager
def use_engine(name: str) -> Iterator[Engine]:
    """Temporarily select a backend."""
    global _SELECTED
    previous = _SELECTED
    set_engine(name)
    try:
        yield _REGISTRY[name]
    finally:
        _SELECTED = previous


def resolve_engine(engine: Union[Engine, str, None]) -> Engine:
    """Normalise an ``engine=`` argument: Engine instance, name, or None
    (= current selection)."""
    if isinstance(engine, Engine):
        return engine
    return get_engine(engine)


register_engine(TupleEngine())

#: numpy-backed re-exports, imported from their module on first access
_LAZY_NAMES = {
    "BLOCK_ENV_VAR": "repro.engine.enumerate",
    "DEFAULT_BLOCK_SIZE": "repro.engine.enumerate",
    "BlockIterator": "repro.engine.enumerate",
    "batchable": "repro.engine.enumerate",
    "block_enumerate": "repro.engine.enumerate",
    "resolve_block_size": "repro.engine.enumerate",
    "DEFAULT_PARALLEL_THRESHOLD": "repro.engine.parallel",
    "THRESHOLD_ENV_VAR": "repro.engine.parallel",
    "WORKERS_ENV_VAR": "repro.engine.parallel",
    "ParallelBlockIterator": "repro.engine.parallel",
    "ParallelEngine": "repro.engine.parallel",
    "default_threshold": "repro.engine.parallel",
    "default_workers": "repro.engine.parallel",
    "pool_stats": "repro.engine.parallel",
    "set_default_workers": "repro.engine.parallel",
    "shutdown_pools": "repro.engine.parallel",
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "Engine",
    "TupleEngine",
    "ColumnarEngine",
    "register_engine",
    "available_engines",
    "get_engine",
    "set_engine",
    "use_engine",
    "resolve_engine",
    "DEFAULT_ENGINE",
    "ENV_VAR",
    *_LAZY_NAMES,
]
