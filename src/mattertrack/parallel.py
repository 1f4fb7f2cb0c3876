"""An order-preserving map that no module of the package calls.

Every Gibbs step is one vectorized kernel on the calling thread, so nothing
here runs when the package computes.  ``parallel_map`` stays only because
the benchmark tracer (``bench/tracer.py``) imports it and counts its items;
the change that drops that counter from the benchmark deletes this module.
"""
from __future__ import annotations


def parallel_map(fn, items) -> list:
    """Map ``fn`` over ``items``, preserving order."""
    return [fn(x) for x in items]
