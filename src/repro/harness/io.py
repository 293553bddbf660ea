"""Experiment result serialization (JSON) for logging, caching and shipping.

Two formats live here:

* ``repro-experiment/1`` — the compact human-oriented summary written by
  :func:`save_experiment` (mean ops, metrics; optionally every frame's
  detections as plain JSON lists).
* ``repro-experiment-full/2`` — the *lossless* round trip used by the
  result cache (:mod:`repro.api.cache`) and the cluster envelopes
  (:mod:`repro.cluster.protocol`): :func:`experiment_from_dict` rebuilds
  an :class:`~repro.harness.experiment.ExperimentResult` bit-identical to
  the original.

The full format stores a run's frame lists as one table: the columns a
:class:`~repro.core.results.FrameResultBuffer` holds in memory
(:meth:`~repro.core.results.FrameResultBuffer.to_columns`), sequence
after sequence, beside each sequence's frame count.  Every class
evaluation's pooled scores, TP flags and
:class:`~repro.metrics.delay.TrackDelays` table are columns.
:func:`encode_columns` writes each column as its little-endian bytes,
base64'd inside the JSON entry, so every float survives bit for bit (NaN
scores and ``-inf`` miss markers included) and a load parses no numbers:
:func:`decode_columns` hands back read-only arrays over the decoded
bytes; each loaded sequence is a ``FrameResultBuffer`` view of them and
each class's tracks a ``TrackDelays`` table, with no per-frame or
per-track objects built.  A column whose base64 is cut short, whose
bytes do not fill whole rows, or whose length disagrees with its table
raises :class:`ValueError`, which every store reads as a miss.  The
compute-trace store (:mod:`repro.serve.trace`) uses the same codec.
"""

from __future__ import annotations

import binascii
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.core.config import config_from_dict, config_to_dict
from repro.core.results import FrameResult, FrameResultBuffer, OpsAccount, SequenceResult, SystemRunResult
from repro.harness.experiment import ExperimentResult
from repro.metrics.delay import TrackDelays
from repro.metrics.evaluate import ClassEvaluation, EvaluationResult

FULL_FORMAT = "repro-experiment-full/2"

#: Every stored column: its little-endian dtype and row width (0: scalars).
#: A frame list's are :meth:`FrameResultBuffer.to_columns`; an evaluation
#: adds ``tp`` and its track columns; a compute trace ``invocations`` and
#: its streams' ``rows``.
COLUMN_TYPES: Dict[str, Tuple[str, int]] = {
    **dict.fromkeys(
        ("frame", "num_regions", "offsets", "labels", "track_ids", "track_offsets",
         "track_frames", "invocations", "rows"),
        ("<i8", 0),
    ),
    **dict.fromkeys(("coverage", "scores", "matched_scores"), ("<f8", 0)),
    **dict.fromkeys(("has_timing", "has_track_ids", "tp", "ever_cared"), ("|b1", 0)),
    "ops": ("<f8", 4),
    "timing": ("<f8", 3),
    "boxes": ("<f8", 4),
}

#: An evaluation's :class:`TrackDelays` columns, in field order.
_TRACK_COLUMNS = ("track_offsets", "track_frames", "matched_scores", "ever_cared")

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "encode_columns",
    "decode_columns",
    "frames_to_dict",
    "frames_from_dict",
    "sequence_result_to_dict",
    "sequence_result_from_dict",
    "run_to_dict",
    "run_from_dict",
    "evaluation_to_dict",
    "evaluation_from_dict",
    "experiment_to_dict",
    "experiment_from_dict",
    "save_experiment",
    "load_experiment_summary",
]


def encode_columns(columns: Mapping[str, Any]) -> Dict[str, str]:
    """Each column's little-endian bytes, base64'd (its :data:`COLUMN_TYPES`)."""
    return {
        name: binascii.b2a_base64(
            np.ascontiguousarray(column, dtype=COLUMN_TYPES[name][0]).tobytes(), newline=False
        ).decode("ascii")
        for name, column in columns.items()
    }


def decode_columns(data: Mapping[str, str]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_columns`: read-only arrays over the bytes.

    Raises :class:`ValueError` for a column whose base64 is cut short or
    whose bytes do not fill whole rows (``KeyError`` for an unknown
    column name).
    """
    out = {}
    for name, text in data.items():
        dtype, width = COLUMN_TYPES[name]
        column = np.frombuffer(binascii.a2b_base64(text), dtype=dtype)
        out[name] = column.reshape(-1, width) if width else column
    return out


def frames_to_dict(frame_lists: Sequence[Sequence[FrameResult]]) -> Dict[str, str]:
    """Frame lists as one table: their :class:`FrameResultBuffer` columns
    end to end (:meth:`FrameResultBuffer.concat`), encoded."""
    return encode_columns(FrameResultBuffer.concat(frame_lists).to_columns())


def frames_from_dict(data: Mapping[str, str], counts: Sequence[int]) -> List[FrameResultBuffer]:
    """Inverse of :func:`frames_to_dict`, given each list's frame count:
    read-only buffers over the decoded columns."""
    return FrameResultBuffer.from_columns(decode_columns(data)).split(counts)


def _ops_dict(ops: OpsAccount) -> Dict[str, float]:
    return {
        "proposal": ops.proposal,
        "refinement": ops.refinement,
        "refinement_from_tracker": ops.refinement_from_tracker,
        "refinement_from_proposal": ops.refinement_from_proposal,
    }


def _frame_summary(frame: FrameResult) -> Dict[str, Any]:
    """One frame of :func:`save_experiment`'s human-readable lists
    (written only; the library never reads them back)."""
    out = {
        "frame": frame.frame,
        "boxes": frame.detections.boxes.tolist(),
        "scores": frame.detections.scores.tolist(),
        "labels": frame.detections.labels.tolist(),
        "ops": _ops_dict(frame.ops),
        "num_regions": frame.num_regions,
        "coverage": frame.coverage_fraction,
    }
    if frame.track_ids is not None:
        out["track_ids"] = np.asarray(frame.track_ids, dtype=np.int64).tolist()
    if frame.timing is not None:
        out["timing"] = {
            "gpu_seconds": frame.timing.gpu_seconds,
            "cpu_seconds": frame.timing.cpu_seconds,
            "num_launches": frame.timing.num_launches,
        }
    return out


def sequence_result_to_dict(seq: SequenceResult) -> Dict[str, Any]:
    """Lossless standalone :class:`SequenceResult` payload.

    The unit the cluster protocol ships between hosts (one sequence's
    frames is one work shard — see :mod:`repro.cluster.protocol`).
    """
    return {
        "sequence_name": seq.sequence_name,
        "num_frames": seq.num_frames,
        "frames": frames_to_dict([seq.frames]),
    }


def sequence_result_from_dict(data: Dict[str, Any]) -> SequenceResult:
    """Inverse of :func:`sequence_result_to_dict` (bit-identical)."""
    (frames,) = frames_from_dict(data["frames"], [data["num_frames"]])
    return SequenceResult(sequence_name=data["sequence_name"], frames=frames)


def run_to_dict(run: SystemRunResult, *, include_detections: bool = True) -> Dict:
    """Serialize a :class:`SystemRunResult`: its summary, plus every
    sequence's frames as one table of encoded columns (in sequence order)
    when ``include_detections`` (then lossless)."""
    ops = run.mean_ops()
    out: Dict = {
        "system_name": run.system_name,
        "mean_ops": {**_ops_dict(ops), "total": ops.total},
        "mean_regions_per_frame": run.mean_regions_per_frame(),
        "mean_coverage": run.mean_coverage(),
        "sequences": {},
    }
    mean_timing = run.mean_timing()
    if mean_timing is not None:
        # Derived summary (rebuilt from per-frame records on load).
        out["mean_timing"] = {
            "gpu_seconds": mean_timing.gpu_seconds,
            "cpu_seconds": mean_timing.cpu_seconds,
            "total_seconds": mean_timing.total_seconds,
            "num_launches": mean_timing.num_launches,
        }
    for name, seq in run.sequences.items():
        out["sequences"][name] = {"num_frames": seq.num_frames}
    if include_detections:
        out["frames"] = frames_to_dict([seq.frames for seq in run.sequences.values()])
    return out


def run_from_dict(data: Dict) -> SystemRunResult:
    """Inverse of :func:`run_to_dict` (requires stored detections)."""
    if "frames" not in data:
        raise ValueError(
            "the run was saved without detections; "
            "a full round trip needs include_detections=True"
        )
    counts = [entry["num_frames"] for entry in data["sequences"].values()]
    buffers = frames_from_dict(data["frames"], counts)
    return SystemRunResult(
        system_name=data["system_name"],
        sequences={
            name: SequenceResult(name, frames)
            for name, frames in zip(data["sequences"], buffers)
        },
    )


def evaluation_to_dict(evaluation: EvaluationResult) -> Dict:
    """Serialize an :class:`EvaluationResult` losslessly: per class, its
    pooled scores and TP flags plus its :class:`TrackDelays` table's
    columns."""
    per_class = []
    for ce in evaluation.per_class:
        t = ce.tracks
        columns = {
            "scores": ce.scores,
            "tp": ce.tp,
            **dict(zip(_TRACK_COLUMNS, (t.offsets, t.frames, t.matched_scores, t.ever_cared))),
        }
        per_class.append(
            {"label": ce.label, "name": ce.name, "num_gt": ce.num_gt,
             "columns": encode_columns(columns)}
        )
    return {"difficulty": evaluation.difficulty, "per_class": per_class}


def evaluation_from_dict(data: Dict) -> EvaluationResult:
    """Inverse of :func:`evaluation_to_dict`: each class's tracks are a
    :class:`TrackDelays` table over the decoded read-only columns."""
    per_class: List[ClassEvaluation] = []
    for entry in data["per_class"]:
        columns = decode_columns(entry["columns"])
        if len(columns["scores"]) != len(columns["tp"]):
            raise ValueError("inconsistent evaluation columns")
        tracks = TrackDelays(*(columns[name] for name in _TRACK_COLUMNS))
        per_class.append(ClassEvaluation(
            entry["label"], entry["name"], columns["scores"], columns["tp"], entry["num_gt"], tracks
        ))
    return EvaluationResult(difficulty=data["difficulty"], per_class=per_class)


def experiment_to_dict(result: ExperimentResult) -> Dict:
    """Lossless ``repro-experiment-full/2`` payload for the result cache."""
    return {
        "format": FULL_FORMAT,
        "config": config_to_dict(result.config),
        "label": result.label,
        "run": run_to_dict(result.run, include_detections=True),
        "evaluations": {
            name: evaluation_to_dict(ev) for name, ev in result.evaluations.items()
        },
    }


def experiment_from_dict(data: Dict) -> ExperimentResult:
    """Rebuild a bit-identical :class:`ExperimentResult` from its payload."""
    if data.get("format") != FULL_FORMAT:
        raise ValueError(
            f"unsupported experiment format: {data.get('format')!r}, "
            f"expected {FULL_FORMAT!r}"
        )
    return ExperimentResult(
        config=config_from_dict(data["config"]),
        run=run_from_dict(data["run"]),
        evaluations={
            name: evaluation_from_dict(ev)
            for name, ev in data["evaluations"].items()
        },
    )


def save_experiment(
    result: ExperimentResult,
    path: Union[str, Path],
    *,
    include_detections: bool = False,
    beta: float = 0.8,
) -> None:
    """Write an experiment's configuration and metrics as JSON.

    Parameters
    ----------
    result:
        The finished experiment.
    path:
        Destination file.
    include_detections:
        Also store every frame's detections (large; enables full replay of
        the metrics without re-running the systems).
    beta:
        Precision level for the recorded delay metric.
    """
    run = run_to_dict(result.run, include_detections=False)
    if include_detections:
        for name, seq in result.run.sequences.items():
            run["sequences"][name]["frames"] = [_frame_summary(f) for f in seq.frames]
    payload: Dict = {
        "format": "repro-experiment/1",
        "config": config_to_dict(result.config),
        "label": result.label,
        "run": run,
        "metrics": {},
    }
    for name, evaluation in result.evaluations.items():
        metrics = {
            "mAP_r40": evaluation.mean_ap("r40"),
            "mAP_voc11": evaluation.mean_ap("voc11"),
            "per_class_ap": {
                ce.name: ce.ap() for ce in evaluation.per_class
            },
        }
        try:
            metrics[f"mD@{beta}"] = evaluation.mean_delay(beta)
            metrics[f"exit_mD@{beta}"] = evaluation.mean_exit_delay(beta)
        except ValueError:
            pass
        payload["metrics"][name] = metrics

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)


def load_experiment_summary(path: Union[str, Path]) -> Dict:
    """Load a saved experiment's JSON payload (plain dict).

    Raises :class:`ValueError` on unknown format versions.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "repro-experiment/1":
        raise ValueError(
            f"unsupported experiment format: {payload.get('format')!r}"
        )
    return payload
