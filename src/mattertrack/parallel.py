"""Thread-count control for within-step parallelism (no longer used).

The Gibbs steps are single vectorized kernels and do not call
``parallel_map``, so the thread count set here changes nothing the package
computes.  The module stays for code that still imports it: the benchmark
tracer counts ``parallel_map`` items, and the CLI tests reset the count.

Workers only evaluate deterministic numpy expressions over disjoint component
slices; results are reassembled in index order, so output is bitwise identical
for any thread count.  Random draws never happen inside worker code.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_num_threads = 1


def set_num_threads(n: int) -> None:
    global _num_threads
    _num_threads = max(1, int(n))


def get_num_threads() -> int:
    return _num_threads


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items``, preserving order."""
    if _num_threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=_num_threads) as pool:
        return list(pool.map(fn, items))
