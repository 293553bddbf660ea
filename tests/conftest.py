"""Shared fixtures: small deterministic datasets and runs."""

import numpy as np
import pytest

from repro.core.results import FrameResult, FrameTiming, OpsAccount
from repro.datasets.citypersons import citypersons_like_dataset
from repro.datasets.kitti import kitti_like_dataset, kitti_world_config
from repro.datasets.synth import generate_sequence
from repro.detections import Detections


@pytest.fixture(scope="session")
def kitti_small():
    """A small KITTI-like dataset shared across tests (2 seqs x 60 frames)."""
    return kitti_like_dataset(num_sequences=2, frames_per_sequence=60)


@pytest.fixture(scope="session")
def kitti_sequence():
    """One KITTI-like sequence."""
    return generate_sequence(kitti_world_config(), 60, name="seq-test", seed=7)


@pytest.fixture(scope="session")
def citypersons_small():
    """A small CityPersons-like dataset (6 snippets)."""
    return citypersons_like_dataset(num_sequences=6)


def _edge_frame(i, n, *, nan=False, track_ids=False, timing=False):
    rng = np.random.default_rng(i)
    xy = rng.uniform(0, 500, size=(n, 2))
    scores = rng.uniform(0, 1, size=n)
    scores[:1] = np.nan if nan else scores[:1]
    return FrameResult(
        frame=i,
        detections=Detections(np.hstack([xy, xy + 10.0]), scores, rng.integers(0, 3, size=n)),
        ops=OpsAccount(1e9 * rng.uniform(), 0.1 + i, 1 / 3, -0.0),
        num_regions=n,
        coverage_fraction=float(rng.uniform()),
        timing=FrameTiming(0.01 * i, 1 / 7, 3.0) if timing else None,
        track_ids=np.arange(n) - 1 if track_ids else None,
    )


@pytest.fixture(scope="session")
def edge_frames():
    """Frames covering every stored-frame corner: no detections, NaN
    scores, track ids absent and present, timing absent and present."""
    return [
        _edge_frame(0, 0),
        _edge_frame(1, 3, nan=True, track_ids=True),
        _edge_frame(2, 0, track_ids=True, timing=True),
        _edge_frame(3, 5, timing=True),
        _edge_frame(4, 2, nan=True),
    ]


def _frame_bytes(frames):
    """Every stored value of every frame, as bytes, in order."""
    out = []
    for f in frames:
        det = f.detections
        ops = (f.ops.proposal, f.ops.refinement, f.ops.refinement_from_tracker,
               f.ops.refinement_from_proposal, f.coverage_fraction)
        out.append((
            f.frame, f.num_regions,
            det.boxes.tobytes(), det.scores.tobytes(), det.labels.tobytes(),
            None if f.track_ids is None else np.asarray(f.track_ids, np.int64).tobytes(),
            np.array(ops).tobytes(),
            None if f.timing is None else np.array(
                [f.timing.gpu_seconds, f.timing.cpu_seconds, f.timing.num_launches]
            ).tobytes(),
        ))
    return out


@pytest.fixture(scope="session")
def frame_bytes():
    """``frame_bytes(frames)``: every value of ``frames`` as bytes, so two
    frame lists compare equal only when every array is byte-equal."""
    return _frame_bytes
