"""Task and result envelopes for the distributed execution subsystem.

Two shard granularities travel through the work queue
(:mod:`repro.cluster.queue`):

* **experiment** tasks — a full declarative
  :class:`~repro.api.spec.ExperimentSpec`; the worker routes the finished
  :class:`~repro.harness.experiment.ExperimentResult` through the shared
  content-addressed :class:`~repro.api.cache.ResultCache`, so a revisited
  operating point anywhere in the fleet is served without re-execution.
* **sequence** tasks — one ``(SystemConfig, sequence)`` unit of a dataset
  run.  The sequence ships either as a *reference* (``dataset spec +
  index`` — tiny, rebuilt deterministically on the worker) or *inline*
  (the full ground-truth track set, for ad-hoc datasets the worker cannot
  reconstruct).  Finished :class:`~repro.core.results.SequenceResult`
  payloads are content-addressed in a :class:`SequenceResultStore` under
  the same cache root.

Both envelope kinds serialize the system via
:func:`~repro.core.config.config_to_dict`, so every config field —
including the cost-layer ``device`` that makes workers attach a
:class:`~repro.engine.stages.TimingAccountingStage` — rides along and is
part of the task fingerprint: shards of the same system on different
modeled devices never alias in the shared store, and reassembled results
carry per-frame timing byte-identical to a local serial run.

Every envelope is plain JSON.  Result envelopes always carry the payload
inline *and* the cache fingerprint it was stored under — readers prefer
the shared store (free revisits) and fall back to the inline copy, so a
coordinator and a worker never have to agree on cache topology for a run
to complete.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.api.cache import EntryStore
from repro.api.spec import content_digest
from repro.core.config import SystemConfig, config_from_dict, config_to_dict
from repro.core.results import SequenceResult
from repro.datasets.types import ObjectTrack, Sequence

TASK_FORMAT = "repro-cluster-task/1"
RESULT_FORMAT = "repro-cluster-result/1"

#: Task kinds understood by :func:`repro.cluster.worker.execute_task`.
KIND_EXPERIMENT = "experiment"
KIND_SEQUENCE = "sequence"


# --------------------------------------------------------------------- #
# Ground-truth sequence shipping (inline payloads)
# --------------------------------------------------------------------- #


def gt_sequence_to_dict(sequence: Sequence) -> Dict[str, Any]:
    """Serialize a ground-truth :class:`Sequence` (geometry + tracks)."""
    return {
        "name": sequence.name,
        "width": sequence.width,
        "height": sequence.height,
        "num_frames": sequence.num_frames,
        "fps": sequence.fps,
        "tracks": [
            {
                "track_id": t.track_id,
                "label": t.label,
                "first_frame": t.first_frame,
                "boxes": t.boxes.tolist(),
                "occlusion": t.occlusion.tolist(),
                "truncation": t.truncation.tolist(),
            }
            for t in sequence.tracks
        ],
    }


def gt_sequence_from_dict(data: Dict[str, Any]) -> Sequence:
    """Inverse of :func:`gt_sequence_to_dict` (bit-identical arrays)."""
    return Sequence(
        name=data["name"],
        width=data["width"],
        height=data["height"],
        num_frames=data["num_frames"],
        fps=data["fps"],
        tracks=[
            ObjectTrack(
                track_id=t["track_id"],
                label=t["label"],
                first_frame=t["first_frame"],
                boxes=np.asarray(t["boxes"], dtype=np.float64).reshape(-1, 4),
                occlusion=np.asarray(t["occlusion"], dtype=np.float64),
                truncation=np.asarray(t["truncation"], dtype=np.float64),
            )
            for t in data["tracks"]
        ],
    )


def _gt_sequence_fingerprint(sequence: Sequence) -> str:
    """Content digest of one sequence's ground truth (mirrors
    :func:`repro.api.cache.fingerprint_dataset`, per sequence)."""
    h = hashlib.sha256()
    h.update(
        repr(
            (sequence.name, sequence.width, sequence.height,
             sequence.num_frames, sequence.fps)
        ).encode("utf-8")
    )
    for track in sequence.tracks:
        h.update(repr((track.track_id, track.label, track.first_frame)).encode("utf-8"))
        h.update(track.boxes.tobytes())
        h.update(track.occlusion.tobytes())
        h.update(track.truncation.tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------- #
# Task envelopes
# --------------------------------------------------------------------- #


def experiment_task(
    spec_dict: Dict[str, Any], fingerprint: str, *, use_cache: bool = True
) -> Dict[str, Any]:
    """A task envelope for one full :class:`ExperimentSpec`.

    Takes the spec as a plain dict (``spec.to_dict()``) plus its content
    fingerprint so this module never imports the api layer at call time.
    ``use_cache=False`` orders the executing worker to recompute even
    when its shared store already holds the fingerprint.
    """
    return {
        "format": TASK_FORMAT,
        "kind": KIND_EXPERIMENT,
        "fingerprint": fingerprint,
        "payload": {"spec": spec_dict, "use_cache": use_cache},
    }


def sequence_task(
    config: SystemConfig,
    sequence: Optional[Sequence] = None,
    *,
    dataset: Optional[Dict[str, Any]] = None,
    index: Optional[int] = None,
    frame_range: Optional[Tuple[int, int]] = None,
) -> Dict[str, Any]:
    """A task envelope for one ``(config, sequence)`` shard.

    Pass either a concrete ``sequence`` (shipped inline) or a
    ``dataset``-spec dict plus sequence ``index`` (shipped as a reference
    the worker resolves through the dataset registry).  The fingerprint
    content-addresses the resulting :class:`SequenceResult`: the system
    config plus the sequence's ground-truth content (inline) or its
    ``(dataset, index)`` coordinates (reference).

    ``frame_range=(start, stop)`` narrows the shard to frames
    ``[start, stop)`` — frame-level parallelism for system kinds whose
    frames are independent (the executing worker enforces causal
    validity, see :func:`repro.engine.scheduler.run_frame_range`).  The
    range is part of the fingerprint, so partial- and full-sequence
    results never alias in the shared store; omitting it keeps existing
    fingerprints unchanged.
    """
    if (sequence is None) == (dataset is None or index is None):
        raise ValueError("pass exactly one of sequence= or (dataset=, index=)")
    if sequence is not None:
        seq_key: Any = {"content": _gt_sequence_fingerprint(sequence)}
        payload: Dict[str, Any] = {"inline": gt_sequence_to_dict(sequence)}
    else:
        seq_key = {"dataset": dataset, "index": index}
        payload = {"dataset": dataset, "index": index}
    key = {
        "format": "repro-seqresult-key/1",
        "system": config_to_dict(config),
        "sequence": seq_key,
    }
    envelope_payload = {"system": config_to_dict(config), "sequence": payload}
    if frame_range is not None:
        start, stop = (int(frame_range[0]), int(frame_range[1]))
        if not (0 <= start < stop):
            raise ValueError(
                f"frame_range must satisfy 0 <= start < stop, got {frame_range}"
            )
        key["frame_range"] = [start, stop]
        envelope_payload["frame_range"] = [start, stop]
    return {
        "format": TASK_FORMAT,
        "kind": KIND_SEQUENCE,
        "fingerprint": content_digest(key),
        "payload": envelope_payload,
    }


def resolve_task_sequence(payload: Dict[str, Any]) -> Sequence:
    """The concrete :class:`Sequence` a sequence-task payload names."""
    entry = payload["sequence"]
    if "inline" in entry:
        return gt_sequence_from_dict(entry["inline"])
    from repro.api.session import build_dataset
    from repro.api.spec import DatasetSpec

    dataset = build_dataset(DatasetSpec.from_dict(entry["dataset"]))
    return dataset.sequences[entry["index"]]


def resolve_task_config(payload: Dict[str, Any]) -> SystemConfig:
    return config_from_dict(payload["system"])


def validate_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Check an envelope's format/kind; returns it for chaining."""
    if task.get("format") != TASK_FORMAT:
        raise ValueError(
            f"unsupported task format {task.get('format')!r}, expected {TASK_FORMAT!r}"
        )
    if task.get("kind") not in (KIND_EXPERIMENT, KIND_SEQUENCE):
        raise ValueError(f"unknown task kind {task.get('kind')!r}")
    return task


# --------------------------------------------------------------------- #
# Result envelopes
# --------------------------------------------------------------------- #


def result_envelope(
    kind: str,
    fingerprint: str,
    payload: Dict[str, Any],
    *,
    worker: str,
    cached: bool,
) -> Dict[str, Any]:
    """A finished-task envelope: inline payload + cache coordinates.

    ``cached`` records whether the worker *served* the fingerprint from
    the shared store (no execution happened).
    """
    return {
        "format": RESULT_FORMAT,
        "kind": kind,
        "fingerprint": fingerprint,
        "worker": worker,
        "cached": cached,
        "payload": payload,
    }


class SequenceResultStore(EntryStore):
    """Content-addressed store of serialized :class:`SequenceResult`\\ s.

    The sequence-granularity sibling of
    :class:`~repro.api.cache.ResultCache`, in the same layout
    (:class:`~repro.api.cache.EntryStore`).  Lives under ``<cache
    root>/seq/`` so one shared directory serves both granularities.
    """

    ENTRY_FORMAT = "repro-seqresult-cache/1"

    def load(self, fingerprint: str) -> Optional[SequenceResult]:
        from repro.harness.io import sequence_result_from_dict

        return self._read(fingerprint, "result", sequence_result_from_dict)

    def store(self, fingerprint: str, result: SequenceResult) -> Path:
        from repro.harness.io import sequence_result_to_dict

        return self._write_entry(fingerprint, result=sequence_result_to_dict(result))
