"""Core bounding-box array operations.

All functions are vectorized over ``(N, 4)`` arrays of ``[x1, y1, x2, y2]``
boxes and never mutate their inputs.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, list, tuple]


def empty_boxes() -> np.ndarray:
    """Return an empty ``(0, 4)`` float64 box array."""
    return np.zeros((0, 4), dtype=np.float64)


def as_boxes(boxes: ArrayLike, *, validate: bool = False) -> np.ndarray:
    """Coerce input into an ``(N, 4)`` float64 box array.

    A single box given as a flat length-4 sequence is promoted to ``(1, 4)``.
    With ``validate=True``, degenerate boxes (``x2 <= x1`` or ``y2 <= y1``)
    raise :class:`ValueError`.
    """
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.size == 0:
        return empty_boxes()
    if arr.ndim == 1:
        if arr.shape[0] != 4:
            raise ValueError(f"a single box must have 4 coordinates, got {arr.shape[0]}")
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"boxes must have shape (N, 4), got {arr.shape}")
    if validate and not np.all(is_valid(arr)):
        bad = np.flatnonzero(~is_valid(arr))
        raise ValueError(f"degenerate boxes at indices {bad.tolist()}")
    return arr.copy()


def is_valid(boxes: np.ndarray) -> np.ndarray:
    """Boolean mask of boxes with strictly positive width and height."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    return (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])


def area(boxes: np.ndarray) -> np.ndarray:
    """Areas of boxes; degenerate boxes get area 0."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    w = np.maximum(0.0, boxes[:, 2] - boxes[:, 0])
    h = np.maximum(0.0, boxes[:, 3] - boxes[:, 1])
    return w * h


def width_height(boxes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Widths and heights of boxes (may be negative for degenerate input)."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    return boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]


def box_center_size(boxes: np.ndarray) -> np.ndarray:
    """Convert ``[x1,y1,x2,y2]`` boxes to ``[cx, cy, w, h]``."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    cx = boxes[:, 0] + 0.5 * w
    cy = boxes[:, 1] + 0.5 * h
    return np.stack([cx, cy, w, h], axis=1)


def center_size_to_boxes(cs: np.ndarray) -> np.ndarray:
    """Convert ``[cx, cy, w, h]`` arrays back to ``[x1,y1,x2,y2]`` boxes."""
    cs = np.asarray(cs, dtype=np.float64).reshape(-1, 4)
    half_w = 0.5 * cs[:, 2]
    half_h = 0.5 * cs[:, 3]
    return np.stack(
        [cs[:, 0] - half_w, cs[:, 1] - half_h, cs[:, 0] + half_w, cs[:, 1] + half_h],
        axis=1,
    )


def clip_boxes(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    """Clip boxes to the image rectangle ``[0, width] x [0, height]``."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    return np.clip(boxes, 0.0, np.array([width, height, width, height], dtype=np.float64))


def expand_boxes(boxes: np.ndarray, margin: float) -> np.ndarray:
    """Grow each box by ``margin`` pixels on every side (CaTDet uses 30 px)."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    out = boxes.copy()
    out[:, 0] -= margin
    out[:, 1] -= margin
    out[:, 2] += margin
    out[:, 3] += margin
    return out


def scale_boxes(boxes: np.ndarray, sx: float, sy: float) -> np.ndarray:
    """Scale box coordinates by ``(sx, sy)`` about the origin."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    out = boxes.copy()
    out[:, 0] *= sx
    out[:, 2] *= sx
    out[:, 1] *= sy
    out[:, 3] *= sy
    return out


def union_box(boxes: np.ndarray) -> np.ndarray:
    """Smallest single box enclosing all input boxes.

    Raises :class:`ValueError` on empty input.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if boxes.shape[0] == 0:
        raise ValueError("union_box requires at least one box")
    return np.array(
        [boxes[:, 0].min(), boxes[:, 1].min(), boxes[:, 2].max(), boxes[:, 3].max()]
    )


def intersect_box(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two single boxes; degenerate (zero-area) if disjoint."""
    a = np.asarray(a, dtype=np.float64).reshape(4)
    b = np.asarray(b, dtype=np.float64).reshape(4)
    x1 = max(a[0], b[0])
    y1 = max(a[1], b[1])
    x2 = min(a[2], b[2])
    y2 = min(a[3], b[3])
    return np.array([x1, y1, max(x1, x2), max(y1, y2)])
