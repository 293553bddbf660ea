"""The simulated detector: samples per-frame detections from a profile.

Determinism contract: detections for (model, seed, sequence, frame) are a
pure function of those four values — independent of call order or of which
other frames were queried.  All per-track randomness is derived from keyed
RNG streams (see :class:`repro.utils.rng.RngFactory`) and cached.  Because
full-frame draws are pure, detectors of different systems may share them
through a :class:`DrawMemo`.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.boxes.box import clip_boxes
from repro.boxes.iou import iou_matrix
from repro.boxes.mask import RegionMask
from repro.boxes.nms import class_aware_nms
from repro.detections import Detections
from repro.datasets.types import Sequence
from repro.simdet.profile import DetectorProfile, sigmoid
from repro.utils.rng import RngFactory


@dataclass
class _ClutterSource:
    """A persistent false-positive source (textured background, glare...)."""

    first_frame: int
    last_frame: int
    boxes: np.ndarray  # one per active frame
    label: int
    fire: np.ndarray   # bool per active frame
    score_logits: np.ndarray


class DrawMemo:
    """Bounded, content-keyed memo of full-frame draws shared by detectors.

    A full-frame detection is a pure function of (profile, seed, input
    scale, sequence, frame), so every detector that agrees on all five may
    be served one draw: the points of a Figure-6 sweep re-scan the same
    frames with the same proposal network.  Entries are keyed by content,
    never by detector instance.  The sequence enters by identity, guarded
    by a weakref as in :meth:`SimulatedDetector._claim`, so a different
    ``Sequence`` object under a reused name misses, and a dead sequence's
    draws are dropped when the next new sequence arrives.

    Memoized arrays are read-only, so a downstream in-place write raises
    instead of corrupting a draw that other systems will be served.  Once
    :attr:`MAX_ENTRIES` draws are held the memo stops inserting rather
    than evicting: a sweep is a point-major scan, and an LRU smaller than
    one scan would evict every key just before its reuse.

    A :class:`~repro.api.session.Session` owns one for its lifetime and
    hands it to the systems it builds in-process; it is never
    module-global and never crosses a process boundary.
    """

    #: A stored draw holds ~3.1 KB (traced allocations of 3,840 draws of
    #: the default 8x120-frame KITTI-like dataset; ~2.8 KB on the
    #: 12x4-frame perfbench sweep).  Filling the memo added 25.5 MB of
    #: peak RSS on x86-64 Linux, so the bound keeps it near 25 MB while
    #: holding the draws of eight models over the default dataset.
    MAX_ENTRIES = 8192

    def __init__(self):
        # id(sequence) -> (weakref to it, {(profile, seed, scale, frame): draw})
        self._by_sequence: Dict[int, Tuple[weakref.ref, Dict[tuple, Detections]]] = {}
        self._size = 0
        #: Draws served from the memo, and draws sampled on a miss.
        self.shared = 0
        self.sampled = 0

    def __len__(self) -> int:
        return self._size

    def _entries(self, sequence: Sequence) -> Dict[tuple, Detections]:
        slot = self._by_sequence.get(id(sequence))
        if slot is not None and slot[0]() is sequence:
            return slot[1]
        # A new sequence: drop the draws of sequences that have died
        # first, since the newcomer may reuse one of their ids.
        for key, (ref, stale) in list(self._by_sequence.items()):
            if ref() is None:
                del self._by_sequence[key]
                self._size -= len(stale)
        entries: Dict[tuple, Detections] = {}
        self._by_sequence[id(sequence)] = (weakref.ref(sequence), entries)
        return entries

    def draw(
        self, detector: "SimulatedDetector", sequence: Sequence, frame: int
    ) -> Detections:
        """``detector``'s full-frame draw for ``frame``, shared when memoized."""
        entries = self._entries(sequence)
        key = (detector.profile, detector.seed, detector.input_scale, int(frame))
        draw = entries.get(key)
        if draw is not None:
            self.shared += 1
            return draw
        self.sampled += 1
        draw = detector._sample_full_frame(sequence, frame)
        if self._size < self.MAX_ENTRIES:
            for array in (draw.boxes, draw.scores, draw.labels):
                array.flags.writeable = False
            entries[key] = draw
            self._size += 1
        return draw


class SimulatedDetector:
    """Samples detections for frames of a sequence according to a profile.

    Parameters
    ----------
    profile:
        The model's behavioral statistics.
    seed:
        Experiment-level seed; combined with ``profile.name`` so different
        models see independent randomness on the same data.
    input_scale:
        Image downscale factor applied before the (simulated) network: the
        detector perceives objects ``input_scale`` times smaller.  Used for
        high-resolution datasets processed at reduced resolution
        (CityPersons, §7).
    """

    def __init__(self, profile: DetectorProfile, seed: int = 0, input_scale: float = 1.0):
        if input_scale <= 0:
            raise ValueError(f"input_scale must be positive, got {input_scale}")
        self.profile = profile
        self.seed = int(seed)
        self.input_scale = float(input_scale)
        self._factory = RngFactory(seed)
        self._model_key = profile.name
        # Caches keyed by sequence name.  A sequence's latents are its
        # persistent and temporal noise, one value per frame-table row.
        self._latents: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._label_pool: Dict[str, np.ndarray] = {}
        self._clutter: Dict[str, List[_ClutterSource]] = {}
        # name -> weakref of the sequence object currently owning that
        # name's cache entries, in least-recently-claimed order (see
        # _claim).
        self._owners: "OrderedDict[str, weakref.ref]" = OrderedDict()
        #: Sequences whose latents stay cached at once.  Caches are pure
        #: deterministic values, so eviction never changes results — it
        #: only bounds memory for long-lived detectors serving stream
        #: churn (new sequence names arriving over days).
        self.max_cached_sequences = 64
        #: Detector invocations so far; a batched call counts as **one**
        #: (the quantity serving layers amortize fixed per-call overhead
        #: over — see :mod:`repro.serve`).
        self.invocations = 0
        #: Full-frame draws shared with other detectors (see
        #: :class:`DrawMemo`); ``None`` samples every draw.  Survives
        #: :meth:`reset`: shared draws are not this detector's state.
        self.draws: Optional[DrawMemo] = None

    def reset(self, sequence_name: Optional[str] = None) -> None:
        """Drop cached RNG-derived latents (all, or one sequence's).

        The caches are themselves deterministic functions of
        ``(model, seed, sequence)``, so this restores the detector to the
        exact state of a freshly-constructed instance — back-to-back runs
        on one detector are bit-identical to runs on separate ones.
        ``sequence_name`` restricts the purge to that sequence's entries,
        leaving other concurrently-streamed sequences' caches warm.
        The invocation counter is *not* cleared: it is execution
        accounting, not sampled state, and never affects results.
        """
        for cache in (self._latents, self._label_pool, self._clutter, self._owners):
            if sequence_name is None:
                cache.clear()
            else:
                cache.pop(sequence_name, None)

    def _claim(self, sequence: Sequence) -> None:
        """Guard the name-keyed caches against sequence-name collisions.

        Caches are keyed by ``sequence.name``, but their contents depend
        on the sequence's ground truth.  When a *different* sequence
        object shows up under a name whose caches another object
        populated (live feeds reusing camera ids, ad-hoc test data), the
        stale entries are purged so every sample is derived from the
        claiming sequence.  Interleaved multi-stream use with distinct
        names never triggers a purge, so concurrent streams sharing one
        detector keep their caches warm.

        Also bounds total cache footprint: beyond
        :attr:`max_cached_sequences` distinct names, the
        least-recently-claimed sequence's latents are evicted (a pure
        recompute cost — never a result change).
        """
        owner = self._owners.get(sequence.name)
        if owner is not None:
            if owner() is sequence:
                self._owners.move_to_end(sequence.name)
                return
            self.reset(sequence.name)
        while len(self._owners) >= self.max_cached_sequences:
            stale, _ = self._owners.popitem(last=False)
            self.reset(stale)
        self._owners[sequence.name] = weakref.ref(sequence)

    # ------------------------------------------------------------------ #
    # Latent caches
    # ------------------------------------------------------------------ #

    def _sequence_latents(self, sequence: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """Persistent and temporal latents of every frame-table row, drawn
        from per-track keyed streams (independent of query order)."""
        cached = self._latents.get(sequence.name)
        if cached is None:
            rho = self.profile.temporal_rho
            innov = float(np.sqrt(max(1.0 - rho**2, 1e-12)))
            persistent, temporal = [np.zeros(0)], [np.zeros(0)]
            for track in sequence.tracks:
                key = (self._model_key, sequence.name, track.track_id)
                latent = self._factory.child("persistent", *key).normal()
                persistent.append(np.full(track.length, latent))
                # AR(1) noise, seeded by the stream's first draw.
                draws = self._factory.child("temporal", *key).normal(size=track.length)
                noise = draws[:1].tolist()
                for z in draws[1:].tolist():
                    noise.append(rho * noise[-1] + innov * z)
                temporal.append(np.array(noise, dtype=np.float64))
            source = sequence.frame_table().source
            cached = (np.concatenate(persistent)[source], np.concatenate(temporal)[source])
            self._latents[sequence.name] = cached
        return cached

    def _labels_of(self, sequence: Sequence) -> np.ndarray:
        """The sequence's class labels (``[0]`` when it has no tracks)."""
        pool = self._label_pool.get(sequence.name)
        if pool is None:
            pool = np.array(sorted({t.label for t in sequence.tracks}) or [0], dtype=np.int64)
            self._label_pool[sequence.name] = pool
        return pool

    def _clutter_sources(self, sequence: Sequence) -> List[_ClutterSource]:
        if sequence.name in self._clutter:
            return self._clutter[sequence.name]
        rng = self._factory.child("clutter", self._model_key, sequence.name)
        sources: List[_ClutterSource] = []
        expected = self.profile.clutter_rate * sequence.num_frames / 100.0
        labels = self._labels_of(sequence)
        for _ in range(rng.poisson(expected)):
            first = int(rng.integers(0, sequence.num_frames))
            duration = 3 + int(rng.geometric(1.0 / 12.0))
            last = min(first + duration, sequence.num_frames - 1)
            length = last - first + 1
            w = float(np.exp(rng.normal(3.6, 0.5)))
            h = w * float(np.exp(rng.normal(0.0, 0.4)))
            cx = rng.uniform(0.05, 0.95) * sequence.width
            cy = rng.uniform(0.3, 0.95) * sequence.height
            drift = rng.normal(scale=1.0, size=2)
            px = cx + drift[0] * np.arange(length)
            py = cy + drift[1] * np.arange(length)
            boxes = np.stack([px - w / 2, py - h / 2, px + w / 2, py + h / 2], axis=1)
            boxes = clip_boxes(boxes, sequence.width, sequence.height)
            fire = rng.random(length) < self.profile.clutter_persistence
            score_logits = rng.normal(
                self.profile.fp_score_mean + 0.5, self.profile.fp_score_std, size=length
            )
            sources.append(
                _ClutterSource(
                    first_frame=first,
                    last_frame=last,
                    boxes=boxes,
                    label=int(labels[int(rng.integers(0, len(labels)))]),
                    fire=fire,
                    score_logits=score_logits,
                )
            )
        self._clutter[sequence.name] = sources
        return sources

    # ------------------------------------------------------------------ #
    # Core sampling
    # ------------------------------------------------------------------ #

    def _object_logits(self, sequence: Sequence, frame: int) -> np.ndarray:
        """Full (base + latent) detection logits for the frame's GT objects,
        in the row order of ``sequence.annotations(frame)``."""
        table = sequence.frame_table()
        rows = slice(table.starts[frame], table.starts[frame + 1])
        boxes = table.clipped[rows]
        widths = (boxes[:, 2] - boxes[:, 0]) * self.input_scale
        base = self.profile.base_logit(widths, table.occlusion[rows], table.truncation[rows])
        persistent, temporal = self._sequence_latents(sequence)
        return (
            base
            + self.profile.persistent_weight * persistent[rows]
            + self.profile.temporal_weight * temporal[rows]
        )

    def _jitter_boxes(
        self, boxes: np.ndarray, rng: np.random.Generator, loc_noise: float
    ) -> np.ndarray:
        """Localization noise: center shift + log-size jitter."""
        if boxes.shape[0] == 0 or loc_noise == 0.0:
            return boxes.copy()
        # One draw of every box's x-shift, then y-shift, log-w and log-h noise.
        noise = rng.normal(scale=loc_noise, size=(4, len(boxes))).T
        wh = boxes[:, 2:] - boxes[:, :2]
        centre = boxes[:, :2] + wh / 2 + noise[:, :2] * wh
        wh = wh * np.exp(noise[:, 2:])
        return np.concatenate([centre - wh / 2, centre + wh / 2], axis=1)

    def _tp_scores(self, logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        p = self.profile
        raw = p.score_center + p.score_scale * logits + rng.normal(
            scale=p.score_noise, size=len(logits)
        )
        return sigmoid(raw)

    def _sample_false_positives(
        self,
        sequence: Sequence,
        frame: int,
        rng: np.random.Generator,
        rate: float,
        region: Optional[RegionMask] = None,
    ) -> Detections:
        """Transient false positives, uniform over the image (or the mask)."""
        n = rng.poisson(rate)
        if n == 0:
            return Detections.empty()
        labels_pool = self._labels_of(sequence)
        w = np.exp(rng.normal(3.5, 0.6, size=n))
        h = w * np.exp(rng.normal(0.2, 0.5, size=n))
        if region is not None and region.expanded_boxes.shape[0] > 0:
            anchors = region.expanded_boxes[
                rng.integers(0, region.expanded_boxes.shape[0], size=n)
            ]
            cx = anchors[:, 0] + rng.random(n) * np.maximum(anchors[:, 2] - anchors[:, 0], 1.0)
            cy = anchors[:, 1] + rng.random(n) * np.maximum(anchors[:, 3] - anchors[:, 1], 1.0)
        else:
            cx = rng.uniform(0, sequence.width, size=n)
            cy = rng.uniform(sequence.height * 0.25, sequence.height, size=n)
        boxes = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
        boxes = clip_boxes(boxes, sequence.width, sequence.height)
        valid = (boxes[:, 2] - boxes[:, 0] > 2) & (boxes[:, 3] - boxes[:, 1] > 2)
        boxes = boxes[valid]
        n = boxes.shape[0]
        scores = sigmoid(
            rng.normal(self.profile.fp_score_mean, self.profile.fp_score_std, size=n)
        )
        labels = labels_pool[rng.integers(0, len(labels_pool), size=n)]
        return Detections(boxes, scores, labels)

    def _clutter_detections(self, sequence: Sequence, frame: int) -> Detections:
        fired = [
            (source, frame - source.first_frame)
            for source in self._clutter_sources(sequence)
            if source.first_frame <= frame <= source.last_frame
            and source.fire[frame - source.first_frame]
        ]
        if not fired:
            return Detections.empty()
        return Detections(
            np.stack([source.boxes[t] for source, t in fired]),
            sigmoid(np.array([source.score_logits[t] for source, t in fired])),
            np.array([source.label for source, _ in fired], dtype=np.int64),
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def detect_full_frame(self, sequence: Sequence, frame: int) -> Detections:
        """Full-image detection pass (single-model or proposal network).

        Returns NMS-filtered detections with confidence scores in [0, 1].
        """
        self.invocations += 1
        return self._full_frame_impl(sequence, frame)

    def detect_full_frame_batch(
        self, items: Iterable[Tuple[Sequence, int]]
    ) -> List[Detections]:
        """One *batched* full-frame invocation over several frames.

        The per-frame samples are bit-identical to per-frame
        :meth:`detect_full_frame` calls — the determinism contract keys
        every draw by ``(model, seed, sequence, frame)``, never by batch
        composition — but the whole batch counts as a single detector
        invocation, which is what serving layers amortize fixed per-call
        overhead (kernel launch, weight residency, host round-trip) over.
        """
        items = list(items)
        if not items:
            return []
        self.invocations += 1
        return [self._full_frame_impl(seq, frame) for seq, frame in items]

    def _full_frame_impl(self, sequence: Sequence, frame: int) -> Detections:
        if self.draws is not None:
            return self.draws.draw(self, sequence, frame)
        return self._sample_full_frame(sequence, frame)

    def _sample_full_frame(self, sequence: Sequence, frame: int) -> Detections:
        self._claim(sequence)
        annotations = sequence.annotations(frame)
        logits = self._object_logits(sequence, frame)
        rng = self._factory.child("frame", self._model_key, sequence.name, frame)

        p_detect = self.profile.detection_probability(logits)
        detected = rng.random(len(annotations)) < p_detect

        tp_boxes = self._jitter_boxes(
            annotations.boxes[detected], rng, self.profile.loc_noise
        )
        tp_scores = self._tp_scores(logits[detected], rng)
        tp = Detections(tp_boxes, tp_scores, annotations.labels[detected])

        fp = self._sample_false_positives(sequence, frame, rng, self.profile.fp_rate)
        clutter = self._clutter_detections(sequence, frame)
        return self._merged([tp, fp, clutter], sequence)

    def detect_regions(
        self,
        sequence: Sequence,
        frame: int,
        region: RegionMask,
    ) -> Detections:
        """Region-restricted detection pass (the refinement network).

        Only objects covered by ``region`` can be detected; covered objects
        get the profile's ``refine_boost`` (validation is easier than
        detection) and reduced localization noise.  False positives arise
        from background-region confirmations plus a coverage-scaled
        transient rate.
        """
        self.invocations += 1
        return self._regions_impl(sequence, frame, region)

    def detect_regions_batch(
        self, items: Iterable[Tuple[Sequence, int, RegionMask]]
    ) -> List[Detections]:
        """One batched region-restricted invocation over several frames.

        Same contract as :meth:`detect_full_frame_batch`: per-frame
        results are bit-identical to serial :meth:`detect_regions` calls,
        and the batch costs one detector invocation.
        """
        items = list(items)
        if not items:
            return []
        self.invocations += 1
        return [
            self._regions_impl(seq, frame, region) for seq, frame, region in items
        ]

    def _regions_impl(
        self, sequence: Sequence, frame: int, region: RegionMask
    ) -> Detections:
        self._claim(sequence)
        annotations = sequence.annotations(frame)
        logits = self._object_logits(sequence, frame)
        rng = self._factory.child("refine", self._model_key, sequence.name, frame)

        covered = region.contains(annotations.boxes, min_overlap=0.5)
        boosted = logits + self.profile.refine_boost
        p_detect = self.profile.detection_probability(boosted) * covered

        detected = rng.random(len(annotations)) < p_detect
        loc = self.profile.loc_noise * self.profile.refine_loc_factor
        tp_boxes = self._jitter_boxes(annotations.boxes[detected], rng, loc)
        tp_scores = self._tp_scores(boosted[detected], rng)
        tp = Detections(tp_boxes, tp_scores, annotations.labels[detected])

        # Background proposals occasionally confirmed as objects.
        n_regions = region.boxes.shape[0]
        confirm_parts: List[Detections] = []
        if n_regions and self.profile.fp_confirm_rate > 0:
            # Regions that do not overlap any GT object are background.
            if len(annotations):
                overlap = iou_matrix(region.boxes, annotations.boxes).max(axis=1)
            else:
                overlap = np.zeros(n_regions)
            background = overlap < 0.2
            confirm = background & (rng.random(n_regions) < self.profile.fp_confirm_rate)
            if confirm.any():
                c_boxes = self._jitter_boxes(region.boxes[confirm], rng, loc)
                c_scores = sigmoid(
                    rng.normal(
                        self.profile.fp_score_mean + 0.3,
                        self.profile.fp_score_std,
                        size=int(confirm.sum()),
                    )
                )
                labels_pool = self._labels_of(sequence)
                c_labels = labels_pool[
                    rng.integers(0, len(labels_pool), size=int(confirm.sum()))
                ]
                confirm_parts.append(Detections(c_boxes, c_scores, c_labels))

        fp = self._sample_false_positives(
            sequence,
            frame,
            rng,
            self.profile.fp_rate * region.coverage_fraction() * 0.5,
            region=region,
        )
        return self._merged([tp, fp] + confirm_parts, sequence)

    @staticmethod
    def _merged(parts: List[Detections], sequence: Sequence) -> Detections:
        """Concatenate ``parts``, clip to the image and suppress duplicates."""
        boxes = clip_boxes(np.concatenate([p.boxes for p in parts]), sequence.width, sequence.height)
        scores = np.concatenate([p.scores for p in parts])
        labels = np.concatenate([p.labels for p in parts])
        keep = class_aware_nms(boxes, scores, labels, 0.5)
        return Detections(boxes[keep], scores[keep], labels[keep])
