"""Sequence-level execution engines: serial and process-parallel.

A dataset run is embarrassingly parallel across sequences — the simulated
detector's determinism contract makes every frame a pure function of
``(model, seed, sequence, frame)``, so executing sequences on worker
processes yields byte-identical results to the serial loop.  Workers are
seeded deterministically per sequence by construction: each one builds a
fresh system from the same :class:`~repro.core.config.SystemConfig`
(or from a pickled copy of the system), whose seed is part of the config.
Systems without cross-frame feedback are also parallel *within* a
sequence: any frame range is a pure function of ``(config, sequence,
range)``, so :class:`ParallelExecutor` splits frames when sequences alone
would leave workers idle (see :func:`plan_shards`).

``run_on_dataset(..., workers=N)`` (see :mod:`repro.core.pipeline`) picks
the executor via :func:`make_executor`.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

from repro.core.results import SequenceResult
from repro.datasets.types import Sequence
from repro.utils.parmap import ParallelMapError, effective_cpu_count, parallel_map

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SystemConfig
    from repro.core.systems import DetectionSystem

SystemLike = Union["DetectionSystem", "SystemConfig"]

#: Progress callback shape shared across the library:
#: ``callback(done, total, sequence_name)``.
ProgressFn = Callable[[int, int, str], None]

#: One item of a parallel dataset run: frames ``[start, stop)`` of a sequence.
Shard = Tuple[Sequence, int, int]


class SequenceExecutionError(ParallelMapError):
    """A worker failed while processing one sequence.

    Carries the sequence name so a many-hour parallel run that dies
    reports *which* shard killed it, not just a bare traceback;
    ``__cause__`` is the worker's exception.
    """

    def __init__(self, sequence_name: str, cause: BaseException):
        super().__init__(sequence_name, cause)
        self.sequence_name = sequence_name


def _count_mapped(executor: str, sequences: List[Sequence]) -> None:
    """Per-run executor counters (one registry touch per map_sequences).

    Deliberately not per-frame: executor throughput is the hot path, so
    the always-on accounting is two counter bumps per *call*.  Per-frame
    and per-stage signals are opt-in via
    :meth:`repro.engine.stages.StagePipeline.instrument`.
    """
    from repro.obs.registry import default_registry

    registry = default_registry()
    registry.counter(
        "executor_sequences_total", "sequences mapped, by executor class",
        labels=("executor",),
    ).inc(len(sequences), labels=(executor,))
    registry.counter(
        "executor_frames_total", "frames mapped, by executor class",
        labels=("executor",),
    ).inc(sum(s.num_frames for s in sequences), labels=(executor,))


def _is_config(target: SystemLike) -> bool:
    from repro.core.config import SystemConfig

    return isinstance(target, SystemConfig)


def config_is_frame_parallel(config: "SystemConfig") -> bool:
    """Whether ``config``'s registered kind declares independent frames."""
    from repro.api.registry import SYSTEMS

    return bool(getattr(SYSTEMS.get(config.kind), "frame_parallel", False))


def run_frame_range(
    target: SystemLike, sequence: Sequence, start: int, stop: int
) -> SequenceResult:
    """Process frames ``[start, stop)`` of one sequence.

    For frame-parallel systems (no cross-frame feedback) any range is a
    pure function of ``(config, sequence, range)`` and splicing adjacent
    ranges back together is byte-identical to the serial frame loop.
    Causal systems (tracker feedback) may only run *prefixes* — a range
    starting past frame 0 would need tracker state it never saw, so it is
    rejected rather than silently computed wrong.
    """
    from repro.core.config import build_system

    if not (0 <= start < stop <= sequence.num_frames):
        raise ValueError(
            f"frame range [{start}, {stop}) is invalid for sequence "
            f"{sequence.name!r} with {sequence.num_frames} frames"
        )
    if _is_config(target):
        independent = config_is_frame_parallel(target)
        label = f"system kind {target.kind!r}"
        target = build_system(target)
    else:
        # Live instances declare independence themselves (default False:
        # unknown systems are assumed causal rather than computed wrong).
        independent = bool(getattr(target, "frame_parallel", False))
        label = f"system {type(target).__name__}"
    if start > 0 and not independent:
        raise ValueError(
            f"{label} has cross-frame feedback; "
            "only prefix ranges (start=0) are causally valid"
        )
    pipeline = target.build_pipeline()
    pipeline.begin_sequence(sequence)
    result = SequenceResult(sequence_name=sequence.name)
    for frame in range(start, stop):
        result.frames.append(pipeline.run_frame(sequence, frame))
    return result


def split_frame_ranges(
    num_frames: int, chunks: int
) -> List[Tuple[int, int]]:
    """Split ``range(num_frames)`` into ``chunks`` contiguous ranges.

    Near-equal sizes (the first ``num_frames % chunks`` ranges get one
    extra frame); never returns an empty range.
    """
    if num_frames <= 0:
        return []
    chunks = max(1, min(int(chunks), num_frames))
    base, extra = divmod(num_frames, chunks)
    ranges = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def plan_shards(
    target: SystemLike, sequences: List[Sequence], workers: int
) -> List[Shard]:
    """The ``(sequence, start, stop)`` items a parallel run maps, in order.

    One whole-sequence item per sequence, unless sequences alone would
    leave workers idle *and* frames may be split: the target is a
    :class:`~repro.core.config.SystemConfig` whose registered kind
    declares ``frame_parallel`` (live instances and tracker kinds stay
    whole), and there are fewer sequences than workers.  Each sequence
    then splits into ``workers // len(sequences)`` contiguous ranges —
    rounding down, so equal-length sequences never need a second round
    of shards (2 sequences on 3 workers stay whole).
    """
    chunks = 1
    if (
        0 < len(sequences) < workers
        and _is_config(target)
        and config_is_frame_parallel(target)
    ):
        chunks = workers // len(sequences)
    # A frameless sequence is still one (empty) whole-sequence item.
    return [
        (sequence, start, stop)
        for sequence in sequences
        for start, stop in split_frame_ranges(sequence.num_frames, chunks) or [(0, 0)]
    ]


def _run_shard(target: SystemLike, shard: Shard) -> SequenceResult:
    """Worker entry point: one whole sequence, or one frame range of it."""
    sequence, start, stop = shard
    if start > 0 or stop < sequence.num_frames:
        return run_frame_range(target, sequence, start, stop)
    if _is_config(target):
        from repro.core.config import build_system

        target = build_system(target)
    else:
        target.reset()
    return target.process_sequence(sequence)


class SerialExecutor:
    """Process sequences one after another in the calling process."""

    workers = 1

    def map_sequences(
        self,
        target: SystemLike,
        sequences: List[Sequence],
        *,
        on_progress: Optional[ProgressFn] = None,
    ) -> List[SequenceResult]:
        if _is_config(target):
            from repro.core.config import build_system

            target = build_system(target)
        results = []
        for sequence in sequences:
            target.reset()
            results.append(target.process_sequence(sequence))
            if on_progress is not None:
                on_progress(len(results), len(sequences), sequence.name)
        _count_mapped("serial", sequences)
        return results


class ParallelExecutor:
    """Fan a dataset run out through :func:`~repro.utils.parmap.parallel_map`.

    The items are :func:`plan_shards`' ``(sequence, frame range)``
    shards; results come back in plan order and are spliced back per
    sequence, so a parallel run's
    :class:`~repro.core.results.SystemRunResult` is indistinguishable
    from a serial one.  Prefer passing a :class:`SystemConfig` — workers
    then rebuild the system from the declarative description instead of
    pickling detector caches across the process boundary, and
    frame-parallel kinds may split within sequences.  ``on_progress``
    fires once per finished sequence, split or not.

    Parameters
    ----------
    workers:
        Worker process count (must be >= 1; 1 runs in this process).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map_sequences(
        self,
        target: SystemLike,
        sequences: List[Sequence],
        *,
        on_progress: Optional[ProgressFn] = None,
    ) -> List[SequenceResult]:
        if not sequences:
            return []
        if not _is_config(target):
            # Workers reset the system before use anyway; resetting here
            # avoids pickling populated detector caches once per shard.
            target.reset()
        shards = plan_shards(target, sequences, self.workers)
        shards_left = Counter(sequence.name for sequence, _, _ in shards)
        done = 0

        def progress(_done: int, _total: int, name: str) -> None:
            nonlocal done
            shards_left[name] -= 1
            if shards_left[name] == 0:
                done += 1
                if on_progress is not None:
                    on_progress(done, len(sequences), name)

        try:
            parts = parallel_map(
                partial(_run_shard, target),
                shards,
                workers=self.workers,
                on_progress=progress,
                labels=[sequence.name for sequence, _, _ in shards],
            )
        except ParallelMapError as exc:
            raise SequenceExecutionError(exc.label, exc.__cause__) from exc.__cause__
        results: List[SequenceResult] = []
        for (_, start, _), part in zip(shards, parts):
            if start == 0:
                results.append(part)
            else:
                results[-1].frames.extend(part.frames)
        _count_mapped("parallel", sequences)
        return results


SequenceExecutor = Union[SerialExecutor, ParallelExecutor]


def make_executor(workers: Optional[int]) -> SequenceExecutor:
    """Pick the executor for a requested worker count.

    ``None`` or ``1`` → serial; ``0`` → one worker per available CPU;
    ``N >= 2`` → a process pool of ``N`` workers.
    """
    if workers is None or workers == 1:
        return SerialExecutor()
    if workers == 0:
        workers = effective_cpu_count()
        if workers == 1:
            return SerialExecutor()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return ParallelExecutor(workers)


# --------------------------------------------------------------------- #
# Executor registration
# --------------------------------------------------------------------- #

from repro.api.registry import register_executor  # noqa: E402


@register_executor("auto")
def _auto_executor(workers: Optional[int]) -> SequenceExecutor:
    """``workers``-driven choice: 1/None = serial, 0 = per CPU, N = pool."""
    return make_executor(workers)


@register_executor("serial")
def _serial_executor(workers: Optional[int]) -> SequenceExecutor:
    if workers not in (None, 0, 1):
        raise ValueError(f"the serial executor is single-worker, got workers={workers}")
    return SerialExecutor()
