"""Experiment result serialization (JSON) for logging and post-hoc analysis.

Two formats live here:

* ``repro-experiment/1`` — the compact human-oriented summary written by
  :func:`save_experiment` (mean ops, metrics; detections optional).
* ``repro-experiment-full/1`` — the *lossless* round trip used by the
  result cache (:mod:`repro.api.cache`): every frame's boxes, scores,
  labels and op account plus the full evaluation state, such that
  :func:`experiment_from_dict` rebuilds an
  :class:`~repro.harness.experiment.ExperimentResult` bit-identical to
  the original (floats survive exactly via JSON's shortest-repr round
  trip, including ``-Infinity`` miss markers in delay records).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from repro.core.config import config_from_dict, config_to_dict
from repro.core.results import (
    FrameResult,
    FrameTiming,
    OpsAccount,
    SequenceResult,
    SystemRunResult,
)
from repro.detections import Detections
from repro.harness.experiment import ExperimentResult
from repro.metrics.delay import TrackDelayRecord
from repro.metrics.evaluate import ClassEvaluation, EvaluationResult

FULL_FORMAT = "repro-experiment-full/1"

__all__ = [
    "config_to_dict",
    "config_from_dict",
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


def _ops_dict(ops: OpsAccount) -> Dict[str, float]:
    return {
        "proposal": ops.proposal,
        "refinement": ops.refinement,
        "refinement_from_tracker": ops.refinement_from_tracker,
        "refinement_from_proposal": ops.refinement_from_proposal,
    }


def _ops_from_dict(data: Dict[str, float]) -> OpsAccount:
    return OpsAccount(
        proposal=data["proposal"],
        refinement=data["refinement"],
        refinement_from_tracker=data["refinement_from_tracker"],
        refinement_from_proposal=data["refinement_from_proposal"],
    )


def _frame_dict(frame: FrameResult) -> Dict[str, Any]:
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
        # Optional key: pre-query-layer payloads stay loadable.
        out["track_ids"] = np.asarray(frame.track_ids, dtype=np.int64).tolist()
    if frame.timing is not None:
        # Optional key keeps pre-cost-layer payloads loadable while the
        # cluster protocol ships timing losslessly between hosts.
        out["timing"] = {
            "gpu_seconds": frame.timing.gpu_seconds,
            "cpu_seconds": frame.timing.cpu_seconds,
            "num_launches": frame.timing.num_launches,
        }
    return out


def _frame_from_dict(data: Dict[str, Any]) -> FrameResult:
    timing = data.get("timing")
    track_ids = data.get("track_ids")
    return FrameResult(
        track_ids=(
            None if track_ids is None else np.asarray(track_ids, dtype=np.int64)
        ),
        frame=data["frame"],
        detections=Detections(
            boxes=np.asarray(data["boxes"], dtype=np.float64).reshape(-1, 4),
            scores=np.asarray(data["scores"], dtype=np.float64),
            labels=np.asarray(data["labels"], dtype=np.int64),
        ),
        ops=_ops_from_dict(data["ops"]),
        num_regions=data["num_regions"],
        coverage_fraction=data["coverage"],
        timing=None if timing is None else FrameTiming(
            gpu_seconds=timing["gpu_seconds"],
            cpu_seconds=timing["cpu_seconds"],
            num_launches=timing["num_launches"],
        ),
    )


def sequence_result_to_dict(seq: SequenceResult) -> Dict[str, Any]:
    """Lossless standalone :class:`SequenceResult` payload.

    The unit the cluster protocol ships between hosts (one sequence's
    frames is one work shard — see :mod:`repro.cluster.protocol`).
    """
    return {
        "sequence_name": seq.sequence_name,
        "frames": [_frame_dict(frame) for frame in seq.frames],
    }


def sequence_result_from_dict(data: Dict[str, Any]) -> SequenceResult:
    """Inverse of :func:`sequence_result_to_dict` (bit-identical)."""
    return SequenceResult(
        sequence_name=data["sequence_name"],
        frames=[_frame_from_dict(f) for f in data["frames"]],
    )


def run_to_dict(run: SystemRunResult, *, include_detections: bool = True) -> Dict:
    """Serialize a :class:`SystemRunResult`; lossless when detections kept."""
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
        entry: Dict = {"num_frames": seq.num_frames}
        if include_detections:
            entry["frames"] = [_frame_dict(frame) for frame in seq.frames]
        out["sequences"][name] = entry
    return out


def run_from_dict(data: Dict) -> SystemRunResult:
    """Inverse of :func:`run_to_dict` (requires stored detections)."""
    run = SystemRunResult(system_name=data["system_name"])
    for name, entry in data["sequences"].items():
        if "frames" not in entry:
            raise ValueError(
                f"sequence {name!r} was saved without detections; "
                "a full round trip needs include_detections=True"
            )
        run.sequences[name] = SequenceResult(
            sequence_name=name,
            frames=[_frame_from_dict(f) for f in entry["frames"]],
        )
    return run


def evaluation_to_dict(evaluation: EvaluationResult) -> Dict:
    """Serialize an :class:`EvaluationResult` losslessly."""
    return {
        "difficulty": evaluation.difficulty,
        "per_class": [
            {
                "label": ce.label,
                "name": ce.name,
                "scores": ce.scores.tolist(),
                "tp": ce.tp.astype(int).tolist(),
                "num_gt": ce.num_gt,
                "tracks": [
                    {
                        "frames": list(t.frames),
                        "matched_scores": list(t.matched_scores),
                        "ever_cared": t.ever_cared,
                    }
                    for t in ce.tracks
                ],
            }
            for ce in evaluation.per_class
        ],
    }


def evaluation_from_dict(data: Dict) -> EvaluationResult:
    """Inverse of :func:`evaluation_to_dict`."""
    per_class: List[ClassEvaluation] = []
    for entry in data["per_class"]:
        per_class.append(
            ClassEvaluation(
                label=entry["label"],
                name=entry["name"],
                scores=np.asarray(entry["scores"], dtype=np.float64),
                tp=np.asarray(entry["tp"], dtype=bool),
                num_gt=entry["num_gt"],
                tracks=[
                    TrackDelayRecord(
                        frames=list(t["frames"]),
                        matched_scores=[float(s) for s in t["matched_scores"]],
                        ever_cared=t["ever_cared"],
                    )
                    for t in entry["tracks"]
                ],
            )
        )
    return EvaluationResult(difficulty=data["difficulty"], per_class=per_class)


def experiment_to_dict(result: ExperimentResult) -> Dict:
    """Lossless ``repro-experiment-full/1`` payload for the result cache."""
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
    payload: Dict = {
        "format": "repro-experiment/1",
        "config": config_to_dict(result.config),
        "label": result.label,
        "run": run_to_dict(result.run, include_detections=include_detections),
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
