"""Deterministic process-pool map: the repo's one fan-out primitive.

Every fan-out in the repo maps independent items — dataset sequences,
frame ranges of frame-parallel systems, tuning grid points — each a pure
function of its inputs, sharing no state beyond the content-addressed
cache (whose atomic writes already make concurrent writers safe).
:func:`parallel_map` fans such items out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles results
**in input order** whatever order the workers finish in, so a parallel
map returns exactly the serial map's list.  Progress callbacks fire in
*as-completed* order — that is the whole point of watching a parallel
run.

Fail fast: the first failing item raises :class:`ParallelMapError`
naming its label, chained ``from`` the worker's exception, and cancels
everything still pending.  Ctrl-C (or ``SystemExit``) abandons the pool
without waiting for stragglers.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence


class ParallelMapError(RuntimeError):
    """One item of a :func:`parallel_map` failed.

    ``label`` names the item; ``__cause__`` is the exception it raised.
    """

    def __init__(self, label: str, cause: BaseException):
        super().__init__(f"{label!r} failed: {cause}")
        self.label = label


def effective_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int], num_items: int) -> int:
    """The worker-process count a ``workers`` request resolves to.

    ``None`` or ``1`` mean serial; ``0`` means one per available core;
    explicit counts are clamped to the number of items (an idle worker
    is pure spawn cost).
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = effective_cpu_count()
    return max(1, min(workers, num_items))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    workers: Optional[int] = 1,
    on_progress: Optional[Callable[[int, int, str], None]] = None,
    labels: Optional[Sequence[str]] = None,
) -> List[Any]:
    """``[fn(item) for item in items]``, optionally across processes.

    Results always come back in input order.  ``on_progress(done,
    total, label)`` fires once per finished item — in input order when
    serial, in completion order when parallel.  A failing item raises
    :class:`ParallelMapError` from its exception.  ``fn`` and every item
    must be picklable when ``workers`` resolves past 1.
    """
    total = len(items)
    names = list(labels) if labels is not None else [str(i) for i in range(total)]
    if labels is not None and len(names) != total:
        raise ValueError(
            f"labels/items length mismatch: {len(names)} != {total}"
        )
    workers = resolve_workers(workers, total)
    if workers <= 1 or total <= 1:
        out = []
        for i, item in enumerate(items):
            try:
                out.append(fn(item))
            except Exception as exc:
                raise ParallelMapError(names[i], exc) from exc
            if on_progress is not None:
                on_progress(i + 1, total, names[i])
        return out

    # Imported at call time so ``wait`` can be wrapped on the package.
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

    pool = ProcessPoolExecutor(max_workers=workers)
    abandoned = False
    try:
        futures = [pool.submit(fn, item) for item in items]
        index = {f: i for i, f in enumerate(futures)}
        pending = set(futures)
        done_count = 0
        while pending:
            finished, pending = wait(pending, return_when=FIRST_EXCEPTION)
            for future in finished:
                exc = future.exception()
                if exc is not None:
                    for f in pending:
                        f.cancel()
                    raise ParallelMapError(names[index[future]], exc) from exc
                done_count += 1
                if on_progress is not None:
                    on_progress(done_count, total, names[index[future]])
        return [f.result() for f in futures]
    except (KeyboardInterrupt, SystemExit):
        abandoned = True
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        if not abandoned:
            pool.shutdown(wait=True, cancel_futures=True)
