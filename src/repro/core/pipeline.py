"""Dataset-level pipeline: run a system over every sequence."""

from __future__ import annotations

from typing import Optional, Union

import repro.engine.scheduler as engine_scheduler
from repro.core.config import SystemConfig, build_system
from repro.core.results import SystemRunResult
from repro.core.systems import DetectionSystem
from repro.datasets.types import Dataset
from repro.simdet.detector import DrawMemo


def run_on_dataset(
    system: Union[DetectionSystem, SystemConfig],
    dataset: Dataset,
    *,
    max_sequences: Optional[int] = None,
    workers: Optional[int] = 1,
    executor: Optional["engine_scheduler.SequenceExecutor"] = None,
    on_progress: Optional["engine_scheduler.ProgressFn"] = None,
    draws: Optional[DrawMemo] = None,
) -> SystemRunResult:
    """Process every sequence of ``dataset`` with ``system``.

    Parameters
    ----------
    system:
        A runnable system or a :class:`SystemConfig` to build one from.
    dataset:
        The sequences to process.
    max_sequences:
        Optional cap for quick runs.
    workers:
        Sequence-level parallelism: ``1`` (default) runs serially in this
        process, ``N >= 2`` fans sequences out to ``N`` worker processes,
        ``0`` uses one worker per available CPU.  Results are identical to
        the serial run regardless of the worker count.
    executor:
        Explicit :class:`~repro.engine.scheduler.SerialExecutor` /
        :class:`~repro.engine.scheduler.ParallelExecutor` /
        :class:`~repro.cluster.coordinator.MultiHostExecutor`; overrides
        ``workers``.
    on_progress:
        Optional ``callback(done, total, sequence_name)`` fired as each
        sequence finishes (completion order under parallel executors).
    draws:
        Optional :class:`~repro.simdet.detector.DrawMemo` the system's
        detectors share full-frame draws through for this run, so runs
        of several systems on one dataset sample each draw once.  Used
        only when the system runs in this process (a serial executor);
        draws never cross a process boundary.

    Returns
    -------
    :class:`SystemRunResult` holding per-frame detections + op accounts,
    ready for :func:`repro.metrics.evaluate_dataset`.
    """
    if executor is None:
        executor = engine_scheduler.make_executor(workers)
    if isinstance(system, SystemConfig) and isinstance(
        executor, engine_scheduler.SerialExecutor
    ):
        # Build once here rather than letting the serial executor build a
        # second throwaway instance after the name lookup below.
        system = build_system(system)
    name = system.name if isinstance(system, DetectionSystem) else build_system(system).name
    result = SystemRunResult(system_name=name)
    sequences = dataset.sequences
    if max_sequences is not None:
        sequences = sequences[:max_sequences]
    detectors = ()
    if draws is not None and isinstance(system, DetectionSystem) and isinstance(
        executor, engine_scheduler.SerialExecutor
    ):
        detectors = system._detectors()
    for detector in detectors:
        detector.draws = draws
    try:
        if on_progress is None:
            # Keep the bare call so executors predating the progress protocol
            # (third-party map_sequences implementations) keep working.
            seq_results = executor.map_sequences(system, sequences)
        else:
            seq_results = executor.map_sequences(system, sequences, on_progress=on_progress)
    finally:
        for detector in detectors:
            detector.draws = None
    for sequence, seq_result in zip(sequences, seq_results):
        result.sequences[sequence.name] = seq_result
    return result
