"""Process environment of the benchmark: thread pinning, source path and
the environment record printed with every run.

Nothing here imports numpy at module level, so :func:`pin_threads` can run
before the first numpy import.
"""

from __future__ import annotations

import gc
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class MissingSourceError(RuntimeError):
    pass


def pin_threads() -> None:
    """Pin every BLAS pool to one thread; call before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins were set")
    os.environ.update(PINNED)


def add_source_path() -> None:
    """Make ``src/breakboot`` of this checkout importable, and only it."""
    if not (SRC / "breakboot" / "__init__.py").is_file():
        raise MissingSourceError(f"no breakboot sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported_from_source() -> None:
    import breakboot

    if Path(breakboot.__file__).resolve().parent != SRC / "breakboot":
        raise MissingSourceError(f"breakboot imported from {breakboot.__file__}")


def child_pids() -> list[int]:
    """Process ids of this process's live children (Linux /proc)."""
    pids: list[int] = []
    for path in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        pids += [int(p) for p in path.read_text().split()]
    return pids


def stop_children() -> list[int]:
    """Stop every process this one started and wait until each has ended.

    ``run_cell(threads>1)`` joins its pool workers, but the first spawned
    pool also starts multiprocessing's resource tracker, which would
    outlive the run.  It is stopped the way multiprocessing stops it
    (close its pipe, wait for it) once the pool's semaphores have been
    finalised, so that no later finaliser starts it again.  Any other
    child still alive is killed and reaped; their pids are returned.
    """
    gc.collect()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return left


def _blas_name() -> str:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return str(deps.get("blas", {}).get("name", "unknown"))


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "pinned": {k: os.environ.get(k) for k in PINNED},
        "machine": platform.machine(),
    }
