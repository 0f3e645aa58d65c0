"""Superstep executors: how per-server work is fanned out on the host.

The simulated cluster is N logical servers; the paper's MPE runs each
physical server's tile loop on its own machine with OpenMP workers
underneath.  Our single-host reproduction executes those N per-server
loops either sequentially (:class:`SerialExecutor`, the seed behaviour)
or on real OS threads (:class:`ParallelExecutor`): the hot kernels are
numpy gathers / ``reduceat`` reductions / codec passes that release the
GIL, so threads genuinely overlap.

The contract that keeps this safe and bit-reproducible:

* the mapped function touches only *its own* server's state (counters,
  cache, disk, vertex store) plus read-only shared structures (tile
  assignments, the superstep's parent-derived tile schedules);
* anything cross-server (``Channel`` broadcasts, mailbox drains,
  convergence accounting) is staged in the returned value and applied
  *after* the join, in server-id order — identical to serial order;
* ``map`` returns results in input order, so aggregation downstream is
  order-deterministic regardless of thread scheduling.

Because per-server floating point work is unchanged and aggregation
order is fixed, results are bitwise identical to serial execution —
``tests/test_runtime_executor.py`` pins this for PageRank / SSSP / WCC,
values and counters both.  Modeled time comes from metered volumes, so
it is independent of how many host threads happen to run the loop.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor as _PoolImpl
from typing import Any, Callable, Sequence

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "default_num_threads",
]


def default_num_threads() -> int:
    """Worker-thread default: one per core, capped (diminishing returns
    past the simulated-server count anyway)."""
    return min(32, os.cpu_count() or 1)


class Executor:
    """Maps a function over per-server work items, preserving order."""

    name = "abstract"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every item; results in input order.

        Exceptions raised by ``fn`` propagate to the caller (for the
        parallel executor: the first one in input order).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Single-thread reference executor (the seed execution order)."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        return [fn(item) for item in items]


class ParallelExecutor(Executor):
    """Thread-pool executor over a persistent pool.

    One pool lives for the executor's lifetime (one ``MPE.run``), so
    per-superstep overhead is a submit+join, not thread creation.
    """

    name = "parallel"

    def __init__(self, num_threads: int | None = None) -> None:
        if num_threads is not None and num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.num_threads = num_threads or default_num_threads()
        self._pool: _PoolImpl | None = _PoolImpl(
            max_workers=self.num_threads, thread_name_prefix="repro-superstep"
        )

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        if self._pool is None:
            raise RuntimeError("executor is closed")
        if len(items) <= 1:
            return [fn(item) for item in items]
        futures = [self._pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        state = "closed" if self._pool is None else f"threads={self.num_threads}"
        return f"ParallelExecutor({state})"


_EXECUTORS = {
    "serial": SerialExecutor,
    "parallel": ParallelExecutor,
}


def make_executor(name: str, num_threads: int | None = None) -> Executor:
    """Build an executor by registry name
    (``"serial"`` / ``"parallel"`` / ``"process"``).

    For ``"process"`` the ``num_threads`` argument is the worker-process
    count; the pool is returned unstarted (the engine forks it once its
    shared state is built — see :class:`repro.runtime.process.ProcessExecutor`).
    """
    if name == "process":
        from repro.runtime.process import ProcessExecutor

        return ProcessExecutor(num_threads)
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; expected one of "
            f"{sorted([*_EXECUTORS, 'process'])}"
        ) from None
    if cls is ParallelExecutor:
        return ParallelExecutor(num_threads)
    if num_threads not in (None, 1):
        raise ValueError("num_threads only applies to the parallel executor")
    return cls()
