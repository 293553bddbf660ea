"""Object association between consecutive frames (paper §4.1).

An N-to-M matching problem over negative-IoU costs, solved with the
Hungarian algorithm.  Pairs whose IoU does not exceed the threshold ``beta``
are declared non-relevant regardless of the assignment (the paper gates at
``beta = 0``, i.e. any positive overlap is allowed).  Association runs once
per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.boxes.iou import iou_matrix
from repro.hungarian import hungarian


@dataclass
class AssociationResult:
    """Outcome of matching previous-frame tracks to new-frame detections.

    Attributes
    ----------
    matches : (K, 2) int array
        Pairs ``(track_index, detection_index)``.
    unmatched_tracks : int array
        Indices of tracks with no surviving match ("lost objects").
    unmatched_detections : int array
        Indices of detections with no surviving match ("emerging objects").
    """

    matches: np.ndarray
    unmatched_tracks: np.ndarray
    unmatched_detections: np.ndarray


def associate(
    track_boxes: np.ndarray,
    detection_boxes: np.ndarray,
    iou_threshold: float = 0.0,
) -> AssociationResult:
    """Match one class's tracks to detections by maximum-IoU assignment.

    Parameters
    ----------
    track_boxes : (N, 4) array
        Predicted locations of existing tracks.
    detection_boxes : (M, 4) array
        Current-frame detections of the same class.
    iou_threshold:
        ``beta`` — pairs with ``IoU <= beta`` are severed after assignment.

    Notes
    -----
    The cost matrix holds negative IoUs, so the minimum-cost assignment
    maximizes total IoU, exactly as in SORT.
    """
    track_boxes = np.asarray(track_boxes, dtype=np.float64).reshape(-1, 4)
    detection_boxes = np.asarray(detection_boxes, dtype=np.float64).reshape(-1, 4)
    return _assign(iou_matrix(track_boxes, detection_boxes), iou_threshold)


def _assign(ious: np.ndarray, iou_threshold: float) -> AssociationResult:
    """Maximum-IoU assignment over an ``(N, M)`` IoU matrix."""
    rows, cols = hungarian(-ious)
    keep = ious[rows, cols] > iou_threshold
    return _with_unmatched(np.stack([rows[keep], cols[keep]], axis=1), *ious.shape)


def _with_unmatched(matches: np.ndarray, n: int, m: int) -> AssociationResult:
    """``matches`` plus, ascending, every index no pair clears from a mask."""
    lost, emerging = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    lost[matches[:, 0]] = emerging[matches[:, 1]] = False
    return AssociationResult(
        matches.astype(np.int64), np.flatnonzero(lost), np.flatnonzero(emerging)
    )


def associate_per_class(
    track_boxes: np.ndarray,
    track_labels: np.ndarray,
    detection_boxes: np.ndarray,
    detection_labels: np.ndarray,
    iou_threshold: float = 0.0,
) -> AssociationResult:
    """:func:`associate` run independently within every class label.

    Index spaces of the returned result refer to the *full* input arrays.
    """
    track_labels = np.asarray(track_labels, dtype=np.int64).reshape(-1)
    detection_labels = np.asarray(detection_labels, dtype=np.int64).reshape(-1)
    track_boxes = np.asarray(track_boxes, dtype=np.float64).reshape(-1, 4)
    detection_boxes = np.asarray(detection_boxes, dtype=np.float64).reshape(-1, 4)
    if track_boxes.shape[0] != track_labels.shape[0]:
        raise ValueError("track_boxes and track_labels must agree in length")
    if detection_boxes.shape[0] != detection_labels.shape[0]:
        raise ValueError("detection_boxes and detection_labels must agree in length")

    all_matches = [np.zeros((0, 2), dtype=np.int64)]
    # IoU is pairwise, so one matrix serves every class's sub-block.
    ious = iou_matrix(track_boxes, detection_boxes)
    # Only classes on both sides can match; the rest are all unmatched.
    labels = np.intersect1d(track_labels, detection_labels)
    # One stable label-sorted permutation per side; each class's indices are
    # then a contiguous block (in ascending original order, since the sort is
    # stable) instead of a fresh full scan of the label arrays per class.
    t_perm = np.argsort(track_labels, kind="stable")
    d_perm = np.argsort(detection_labels, kind="stable")
    t_sorted = track_labels[t_perm]
    d_sorted = detection_labels[d_perm]
    t_lo = np.searchsorted(t_sorted, labels, side="left")
    t_hi = np.searchsorted(t_sorted, labels, side="right")
    d_lo = np.searchsorted(d_sorted, labels, side="left")
    d_hi = np.searchsorted(d_sorted, labels, side="right")
    for k in range(labels.size):
        t_idx = t_perm[t_lo[k] : t_hi[k]]
        d_idx = d_perm[d_lo[k] : d_hi[k]]
        res = _assign(ious[np.ix_(t_idx, d_idx)], iou_threshold)
        all_matches.append(
            np.stack([t_idx[res.matches[:, 0]], d_idx[res.matches[:, 1]]], axis=1)
        )
    return _with_unmatched(
        np.concatenate(all_matches), track_boxes.shape[0], detection_boxes.shape[0]
    )
