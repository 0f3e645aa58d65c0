"""Peak resident memory of a job, parent process plus pool workers.

The parent's peak is its ``VmHWM`` after the job, with the high-water
mark reset on entry through ``/proc/self/clear_refs`` so the input graph
generated before the job counts but earlier jobs' peaks do not.

Process-executor workers are forked, so they start out sharing the
parent's resident pages.  A worker's own contribution is its ``VmHWM``
at pool shutdown minus the parent's ``VmRSS`` at the fork; the job's
figure adds the largest such per-run sum to the parent's peak.
"""

from __future__ import annotations

import multiprocessing

from repro.runtime.process import ProcessExecutor

__all__ = ["PeakTracker", "status_kb"]


def status_kb(field: str, pid: int | str = "self") -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _reset_peak() -> None:
    # "5" resets the peak RSS of the calling process (proc(5)).
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


class PeakTracker:
    """Context manager measuring one job's peak RSS in MiB."""

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._workers_kb = 0
        self._fork_rss_kb = 0
        self._saved = None

    def __enter__(self) -> "PeakTracker":
        start, close = ProcessExecutor.start, ProcessExecutor.close
        self._saved = (start, close)
        tracker = self

        def start_wrapper(executor, *args, **kwargs):
            tracker._fork_rss_kb = status_kb("VmRSS")
            return start(executor, *args, **kwargs)

        def close_wrapper(executor):
            # The pool's workers are this process's only children.
            extra = sum(
                max(0, status_kb("VmHWM", proc.pid) - tracker._fork_rss_kb)
                for proc in multiprocessing.active_children()
            )
            tracker._workers_kb = max(tracker._workers_kb, extra)
            return close(executor)

        ProcessExecutor.start = start_wrapper
        ProcessExecutor.close = close_wrapper
        _reset_peak()
        return self

    def __exit__(self, *exc) -> None:
        ProcessExecutor.start, ProcessExecutor.close = self._saved
        self.peak_mb = (status_kb("VmHWM") + self._workers_kb) / 1024.0
