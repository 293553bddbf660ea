"""Open-loop load generation: arrival schedules over dataset sequences.

An *open-loop* generator emits frames on its own clock regardless of how
the server keeps up — the regime under which queueing delay, batching and
shedding actually matter (a closed loop would politely wait and hide all
three).  Arrival patterns are registered by name (the same plugin idiom
as system kinds and dataset families), so scenarios can add their own::

    from repro.serve import register_load_pattern

    @register_load_pattern("bursty")
    def _bursty(spec, stream_index, sequence, rng):
        ...  # -> arrival time in seconds for each served frame

Determinism: every stream derives its own RNG child from
``(seed, pattern, stream index)``, so schedules are reproducible and
adding a stream never perturbs the others' arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import schema
from repro.api.registry import Registry
from repro.datasets.types import Dataset, Sequence
from repro.utils.rng import RngFactory

#: Arrival-pattern name → generator
#: ``(spec, stream_index, sequence, rng) -> array of arrival seconds``
#: (one entry per served frame, non-decreasing).
LOAD_PATTERNS = Registry("load pattern")


def register_load_pattern(name: str, *, override: bool = False):
    """Decorator registering an arrival-pattern generator under ``name``."""

    def _decorate(fn):
        LOAD_PATTERNS.register(name, fn, override=override)
        return fn

    return _decorate


@dataclass(frozen=True)
class LoadSpec(schema.Schema):
    """One open-loop load: how many streams, arriving how, for how long.

    Parameters
    ----------
    pattern:
        A registered arrival pattern (built-ins: ``"poisson"``,
        ``"uniform"``, ``"replay"``).
    num_streams:
        Concurrent camera streams; stream ``i`` replays dataset sequence
        ``i mod len(dataset)`` (so more streams than sequences is fine).
    rate_hz:
        Per-stream frame arrival rate (ignored by ``"replay"``, which
        uses each sequence's native fps).
    rates:
        Optional per-stream rate overrides for *heterogeneous* offered
        load: stream ``i`` arrives at ``rates[i % len(rates)]`` frames/s
        instead of the uniform ``rate_hz``.  A busy intersection camera
        and a quiet parking-lot one are different streams — skewed rates
        are what gives fleet routing something to balance.  Determinism
        is untouched: each stream keeps its own RNG child keyed by
        ``(seed, pattern, stream index)``, so changing one stream's rate
        never perturbs another's arrivals.
    frames_per_stream:
        Frames each stream offers (capped by its sequence length;
        ``None`` = the whole sequence).
    seed:
        Root seed for stochastic patterns.

    ``rates`` is left out of :meth:`to_dict` while unset, so specs
    written before it existed keep their fingerprints (and their cached
    reports).
    """

    pattern: str = schema.field("poisson", "--pattern", "arrival pattern",
                                choices=LOAD_PATTERNS.names, must="be a non-empty string")
    num_streams: int = schema.field(4, "--streams", "concurrent camera streams", must="be >= 1")
    rate_hz: float = schema.field(15.0, "--rate", must="be positive", help=(
        "per-stream arrival rate in frames/s (replay uses the sequence's native fps)"))
    frames_per_stream: Optional[int] = schema.field(
        60, "--frames", "frames offered per stream", must="be >= 1")
    seed: int = schema.field(0, "--load-seed", "arrival-schedule seed (stochastic patterns)")
    rates: Optional[Tuple[float, ...]] = schema.field(
        None, "--rate-per-stream", metavar="R0,R1,...", omit_none=True,
        help="heterogeneous per-stream rates in frames/s "
        "(stream i uses rate i mod len; overrides --rate)")

    def __post_init__(self) -> None:
        if self.rates is not None:
            rates = tuple(float(r) for r in self.rates)
            if not rates:
                raise ValueError("rates must be non-empty when given (or None)")
            if any(r <= 0 for r in rates):
                raise ValueError(f"per-stream rates must be positive, got {rates}")
            object.__setattr__(self, "rates", rates)

    def stream_rate(self, stream_index: int) -> float:
        """Stream ``stream_index``'s arrival rate in frames/s."""
        if self.rates is None:
            return self.rate_hz
        return self.rates[stream_index % len(self.rates)]

    def stream_frames(self, sequence: Sequence) -> int:
        """How many frames one stream over ``sequence`` offers."""
        if self.frames_per_stream is None:
            return sequence.num_frames
        return min(self.frames_per_stream, sequence.num_frames)


@dataclass(frozen=True)
class FrameRequest:
    """One frame of one stream arriving at the server."""

    stream: str
    sequence: Sequence
    frame: int
    arrival: float  # seconds on the load generator's clock


def generate_load(spec: LoadSpec, dataset: Dataset) -> List[FrameRequest]:
    """The arrival schedule ``spec`` describes over ``dataset``.

    Returns requests sorted by ``(arrival, stream index, frame)`` —
    within each stream, frames arrive in causal order by construction
    (arrival times are non-decreasing cumulative sums).
    """
    if not dataset.sequences:
        raise ValueError("the dataset has no sequences to serve")
    pattern = LOAD_PATTERNS.get(spec.pattern)
    factory = RngFactory(spec.seed)
    requests: List[tuple] = []
    for i in range(spec.num_streams):
        sequence = dataset.sequences[i % len(dataset.sequences)]
        frames = spec.stream_frames(sequence)
        rng = factory.child("loadgen", spec.pattern, i)
        arrivals = np.asarray(pattern(spec, i, sequence, rng), dtype=np.float64)
        if arrivals.shape[0] < frames:
            raise ValueError(
                f"pattern {spec.pattern!r} produced {arrivals.shape[0]} arrivals "
                f"for stream {i}, need {frames}"
            )
        stream_id = f"s{i}:{sequence.name}"
        for frame in range(frames):
            requests.append((float(arrivals[frame]), i, frame, stream_id, sequence))
    requests.sort(key=lambda r: (r[0], r[1], r[2]))
    return [
        FrameRequest(stream=stream_id, sequence=sequence, frame=frame, arrival=arrival)
        for arrival, _i, frame, stream_id, sequence in requests
    ]


def schedule_to_dicts(requests: List[FrameRequest]) -> List[Dict[str, Any]]:
    """JSON-safe view of a schedule (sequence by name, no ground truth)."""
    return [
        {
            "stream": r.stream,
            "sequence": r.sequence.name,
            "frame": r.frame,
            "arrival": r.arrival,
        }
        for r in requests
    ]


# --------------------------------------------------------------------- #
# Built-in arrival patterns
# --------------------------------------------------------------------- #


@register_load_pattern("poisson")
def _poisson(spec: LoadSpec, stream_index: int, sequence: Sequence, rng) -> np.ndarray:
    """Memoryless arrivals at the stream's rate (exponential inter-arrivals)."""
    frames = spec.stream_frames(sequence)
    return np.cumsum(rng.exponential(1.0 / spec.stream_rate(stream_index), size=frames))


@register_load_pattern("uniform")
def _uniform(spec: LoadSpec, stream_index: int, sequence: Sequence, rng) -> np.ndarray:
    """Metronome arrivals: exactly the stream's rate in frames per second."""
    frames = spec.stream_frames(sequence)
    return (np.arange(frames, dtype=np.float64) + 1.0) / spec.stream_rate(stream_index)


@register_load_pattern("replay")
def _replay(spec: LoadSpec, stream_index: int, sequence: Sequence, rng) -> np.ndarray:
    """Trace replay: frames at the sequence's native capture timestamps."""
    frames = spec.stream_frames(sequence)
    fps = float(sequence.fps) if sequence.fps else spec.stream_rate(stream_index)
    return np.arange(frames, dtype=np.float64) / fps


#: Two-state MMPP shape: the burst state arrives ``BURSTY_FACTOR`` times
#: faster than the calm state; dwell times are exponential with these
#: means.  Rates are scaled so the *long-run* mean equals ``rate_hz``.
BURSTY_FACTOR = 4.0
BURSTY_CALM_DWELL_S = 4.0
BURSTY_BURST_DWELL_S = 1.0

#: Diurnal shape: one sinusoidal "day" per minute of simulated time (long
#: enough to see both phases inside a short serve run), swinging the
#: instantaneous rate by ±80 % around ``rate_hz``.
DIURNAL_PERIOD_S = 60.0
DIURNAL_AMPLITUDE = 0.8


@register_load_pattern("bursty")
def _bursty(spec: LoadSpec, stream_index: int, sequence: Sequence, rng) -> np.ndarray:
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The stream alternates between a calm and a burst state (exponential
    dwell times); within each state arrivals are Poisson at that state's
    rate.  Camera fleets behave like this — rush hour and quiet night
    are different regimes, not one homogeneous rate — and it is the
    classic stress test for admission control: the long-run offered rate
    equals ``rate_hz``, but bursts transiently exceed it by
    ``BURSTY_FACTOR`` and fill queues that a Poisson load of the same
    mean never would.
    """
    frames = spec.stream_frames(sequence)
    # Stationary occupancy is proportional to dwell time; solve the calm
    # rate so the stationary mean is exactly the stream's rate.
    p_calm = BURSTY_CALM_DWELL_S / (BURSTY_CALM_DWELL_S + BURSTY_BURST_DWELL_S)
    calm_rate = spec.stream_rate(stream_index) / (
        p_calm + (1.0 - p_calm) * BURSTY_FACTOR
    )
    burst_rate = calm_rate * BURSTY_FACTOR
    arrivals = np.empty(frames, dtype=np.float64)
    t = 0.0
    in_burst = rng.random() < (1.0 - p_calm)  # start in the stationary mix
    state_end = t + rng.exponential(
        BURSTY_BURST_DWELL_S if in_burst else BURSTY_CALM_DWELL_S
    )
    emitted = 0
    while emitted < frames:
        gap = rng.exponential(1.0 / (burst_rate if in_burst else calm_rate))
        if t + gap >= state_end:
            # Jump to the state boundary and redraw — valid because the
            # exponential is memoryless.
            t = state_end
            in_burst = not in_burst
            state_end = t + rng.exponential(
                BURSTY_BURST_DWELL_S if in_burst else BURSTY_CALM_DWELL_S
            )
            continue
        t += gap
        arrivals[emitted] = t
        emitted += 1
    return arrivals


@register_load_pattern("diurnal")
def _diurnal(spec: LoadSpec, stream_index: int, sequence: Sequence, rng) -> np.ndarray:
    """Sinusoidal-rate Poisson arrivals (a compressed day/night cycle).

    A non-homogeneous Poisson process with instantaneous rate
    ``rate_hz * (1 + DIURNAL_AMPLITUDE * sin(2*pi*t / DIURNAL_PERIOD_S))``,
    generated by thinning against the peak rate.  Streams are phase-
    aligned (every camera sees the same day), so the fleet-wide load
    swings coherently — the autoscaling scenario ``repro serve --tune``
    provisions for.
    """
    frames = spec.stream_frames(sequence)
    base = spec.stream_rate(stream_index)
    peak = base * (1.0 + DIURNAL_AMPLITUDE)
    arrivals = np.empty(frames, dtype=np.float64)
    t = 0.0
    emitted = 0
    while emitted < frames:
        t += rng.exponential(1.0 / peak)
        rate = base * (
            1.0 + DIURNAL_AMPLITUDE * np.sin(2.0 * np.pi * t / DIURNAL_PERIOD_S)
        )
        if rng.random() * peak <= rate:
            arrivals[emitted] = t
            emitted += 1
    return arrivals
