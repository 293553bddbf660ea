"""Region-of-interest occupancy masks.

The CaTDet refinement network only computes backbone features over the union
of the proposed regions (paper §4.3: "the regions-of-interest are not
required to be rectangular").  Its operation count therefore scales with the
*union area* of the (margin-expanded) proposal boxes, not their sum.  This
module computes exact union areas via coordinate compression, which is exact
for the box counts involved (tens per frame) and avoids pixel rasterization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.boxes.box import clip_boxes, expand_boxes
from repro.boxes.iou import ioa_matrix


def _union_area(boxes: np.ndarray) -> float:
    """Exact area of the union of boxes via coordinate compression."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    valid = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    boxes = boxes[valid]
    if boxes.shape[0] == 0:
        return 0.0
    xs = np.unique(np.concatenate([boxes[:, 0], boxes[:, 2]]))
    ys = np.unique(np.concatenate([boxes[:, 1], boxes[:, 3]]))
    # Cell (i, j) spans [xs[i], xs[i+1]] x [ys[j], ys[j+1]]; it is covered iff
    # some box contains its lower-left corner strictly inside.
    cx = xs[:-1]
    cy = ys[:-1]
    dx = np.diff(xs)
    dy = np.diff(ys)
    # covered[i, j]: any box with x1 <= cx[i] < x2 and y1 <= cy[j] < y2
    in_x = (boxes[:, None, 0] <= cx[None, :]) & (cx[None, :] < boxes[:, None, 2])  # (B, X)
    in_y = (boxes[:, None, 1] <= cy[None, :]) & (cy[None, :] < boxes[:, None, 3])  # (B, Y)
    covered = in_x.T.astype(np.float64) @ in_y.astype(np.float64) > 0  # exact counts
    return float(np.sum(covered * dx[:, None] * dy[None, :]))


@dataclass
class RegionMask:
    """Union of margin-expanded proposal boxes clipped to the image.

    Parameters
    ----------
    boxes:
        ``(N, 4)`` proposal boxes in image coordinates.
    width, height:
        Image dimensions in pixels.
    margin:
        Pixels of context appended around every proposal before taking the
        union (the paper uses 30).
    """

    boxes: np.ndarray
    width: float
    height: float
    margin: float = 30.0
    _expanded: np.ndarray = field(init=False, repr=False)
    _area: Optional[float] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"image dimensions must be positive, got {self.width}x{self.height}"
            )
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.boxes = boxes
        self._expanded = clip_boxes(expand_boxes(boxes, self.margin), self.width, self.height)

    @property
    def expanded_boxes(self) -> np.ndarray:
        """Margin-expanded, image-clipped boxes forming the mask."""
        return self._expanded

    def union_area(self) -> float:
        """Exact area of the mask in square pixels (computed once)."""
        if self._area is None:
            self._area = _union_area(self._expanded)
        return self._area

    def coverage_fraction(self) -> float:
        """Mask area as a fraction of the full image area, in [0, 1]."""
        return self.union_area() / (self.width * self.height)

    def contains(self, query_boxes: np.ndarray, min_overlap: float = 0.7) -> np.ndarray:
        """Which query boxes are (mostly) inside the mask.

        A query box counts as contained when at least ``min_overlap`` of its
        area is covered by some single expanded region.  This is a slight
        under-approximation of coverage by the union, which is conservative:
        objects straddling two disjoint regions may be reported uncovered.
        """
        query = np.asarray(query_boxes, dtype=np.float64).reshape(-1, 4)
        if query.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        if self._expanded.shape[0] == 0:
            return np.zeros(query.shape[0], dtype=bool)
        ioa = ioa_matrix(query, self._expanded)
        return ioa.max(axis=1) >= min_overlap

    def is_empty(self) -> bool:
        """True when the mask contains no regions."""
        return self._expanded.shape[0] == 0


def boxes_coverage_fraction(
    boxes: np.ndarray,
    width: float,
    height: float,
    margin: float = 0.0,
) -> float:
    """Convenience wrapper: fraction of the image covered by the box union."""
    return RegionMask(boxes, width, height, margin).coverage_fraction()
