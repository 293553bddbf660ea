"""Latency accounting: per-stream and fleet SLO statistics.

Every served frame contributes three durations:

* **queue wait** — arrival to batch dispatch (admission + batching delay);
* **compute** — its batch's service time on the engine;
* **latency** — arrival to completion (wait + compute, end to end).

Frames the admission queue sheds never reach the engine; they are
counted separately **by reason** (``shed_oldest`` — displaced from a
full queue in favour of a fresher arrival; ``reject_newest`` — the
arrival itself refused; a shed frame is an SLO *loss*, not a latency
sample).  All durations are seconds on the server's simulated clock, so
the statistics are exact and deterministic; the reporting layer converts
to milliseconds.

Memory is bounded: each accumulator keeps exact per-frame sample lists
only up to ``max_exact_samples`` frames, backed by three fixed-bucket
:class:`~repro.obs.registry.Histogram`\\ s (latency, wait, compute)
that are built lazily from the lists (first read, merge or overflow) and
fed per sample after that.  Below the bound, percentiles are exact (one
``numpy.percentile`` call over all three lists); beyond it the lists are
released and percentiles come from the histograms — within one bucket
width of exact, which the test suite pins.  Means, counts and maxima are
running scalars and stay exact at any scale.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, Histogram

#: The percentiles every latency report carries.
REPORT_PERCENTILES = (50.0, 95.0, 99.0)

#: Exact per-frame samples kept per accumulator before switching to
#: histogram-estimated percentiles (~100 KB of floats per stream).
DEFAULT_MAX_EXACT_SAMPLES = 4096

#: Shed reason recorded when the caller does not name one.
SHED_UNSPECIFIED = "unspecified"


class LatencyStats:
    """Streaming accumulator of one stream's (or the fleet's) samples.

    Parameters
    ----------
    max_exact_samples:
        Served frames beyond this release the exact sample lists and
        switch :meth:`percentile` to the histogram estimate.
    buckets:
        Upper bounds (seconds) of the backing histograms; the default
        layout spans ~1 ms to ~80 s geometrically.
    """

    def __init__(
        self,
        *,
        max_exact_samples: int = DEFAULT_MAX_EXACT_SAMPLES,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if max_exact_samples < 1:
            raise ValueError(
                f"max_exact_samples must be >= 1, got {max_exact_samples}"
            )
        self.max_exact_samples = int(max_exact_samples)
        self.latencies: List[float] = []
        self.waits: List[float] = []
        self.computes: List[float] = []
        self.buckets = buckets
        self._hists: Optional[Tuple[Histogram, Histogram, Histogram]] = None
        self.served = 0
        self.shed = 0
        self.shed_reasons: Dict[str, int] = {}
        self.violations = 0
        self._sum_wait = 0.0
        self._sum_compute = 0.0
        self._max_latency = 0.0

    @property
    def exact(self) -> bool:
        """Whether percentiles still come from exact sample lists."""
        return self.served <= self.max_exact_samples

    def _histograms(self) -> Tuple[Histogram, Histogram, Histogram]:
        """The (latency, wait, compute) histograms, built from the exact
        lists on first use (until then the lists hold every sample)."""
        if self._hists is None:
            names = ("latency_seconds", "wait_seconds", "compute_seconds")
            self._hists = tuple(Histogram(name, buckets=self.buckets) for name in names)
            for hist, samples in zip(self._hists, (self.latencies, self.waits, self.computes)):
                hist.observe_many(samples)
        return self._hists

    hist_latency = property(lambda self: self._histograms()[0])
    hist_wait = property(lambda self: self._histograms()[1])
    hist_compute = property(lambda self: self._histograms()[2])

    def _overflow(self) -> None:
        """Release the exact lists; the histograms carry on alone."""
        self._histograms()
        self.latencies, self.waits, self.computes = [], [], []

    def add(self, wait: float, compute: float, latency: float, *, violated: bool) -> None:
        wait, compute, latency = float(wait), float(compute), float(latency)
        self.served += 1
        self._sum_wait += wait
        self._sum_compute += compute
        if latency > self._max_latency:
            self._max_latency = latency
        if self.exact:
            self.waits.append(wait)
            self.computes.append(compute)
            self.latencies.append(latency)
        elif self.latencies:
            self._overflow()
        if self._hists is not None:
            for hist, value in zip(self._hists, (latency, wait, compute)):
                hist.observe(value)
        if violated:
            self.violations += 1

    def add_shed(self, reason: str = SHED_UNSPECIFIED) -> None:
        self.shed += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def merge(self, other: "LatencyStats") -> None:
        both_exact = (
            len(self.latencies) == self.served
            and len(other.latencies) == other.served
        )
        self.served += other.served
        self.shed += other.shed
        for reason, count in other.shed_reasons.items():
            self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + count
        self.violations += other.violations
        self._sum_wait += other._sum_wait
        self._sum_compute += other._sum_compute
        self._max_latency = max(self._max_latency, other._max_latency)
        for mine, theirs in zip(self._histograms(), other._histograms()):
            mine.merge(theirs)
        if both_exact and self.exact:
            self.latencies.extend(other.latencies)
            self.waits.extend(other.waits)
            self.computes.extend(other.computes)
        else:
            # Either side overflowed (or the union just did): the merged
            # accumulator is histogram-only from here on.
            self._overflow()

    def _percentiles(self, qs: Sequence[float]) -> List[List[float]]:
        """Percentiles ``qs`` of the (latency, wait, compute) samples; while
        exact, one ``numpy.percentile`` call (per row, as one per list)."""
        if self.served == 0:
            return [[0.0] * len(qs)] * 3
        if len(self.latencies) == self.served:
            samples = np.array([self.latencies, self.waits, self.computes])
            return np.percentile(samples, qs, axis=1).T.tolist()
        return [[hist.quantile(q) for q in qs] for hist in self._histograms()]

    def percentile(self, q: float) -> float:
        """The ``q``-th latency percentile in seconds (0 when empty)."""
        return self._percentiles((q,))[0][0]

    def wait_percentile(self, q: float) -> float:
        """The ``q``-th queue-wait percentile in seconds."""
        return self._percentiles((q,))[1][0]

    def compute_percentile(self, q: float) -> float:
        """The ``q``-th compute-time percentile in seconds."""
        return self._percentiles((q,))[2][0]

    def mean_wait(self) -> float:
        return self._sum_wait / self.served if self.served else 0.0

    def mean_compute(self) -> float:
        return self._sum_compute / self.served if self.served else 0.0

    def to_dict(self, *, include_histograms: bool = False) -> Dict[str, Any]:
        """Summary in milliseconds (JSON-safe; raw samples not included).

        ``include_histograms`` additionally embeds the wait/compute/
        latency bucket snapshots — the fleet entry of a
        :class:`~repro.serve.server.ServeReport` carries them so
        downstream consumers (the tuner, dashboards) can re-estimate any
        quantile without the samples.
        """
        out: Dict[str, Any] = {
            "served": self.served,
            "shed": self.shed,
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "violations": self.violations,
            "exact": self.exact,
            "mean_wait_ms": self.mean_wait() * 1e3,
            "mean_compute_ms": self.mean_compute() * 1e3,
            "max_ms": self._max_latency * 1e3,
        }
        latency, wait, compute = self._percentiles(REPORT_PERCENTILES)
        for q, lat_q, wait_q in zip(REPORT_PERCENTILES, latency, wait):
            out[f"p{q:g}_ms"] = lat_q * 1e3
            out[f"wait_p{q:g}_ms"] = wait_q * 1e3
        out["compute_p95_ms"] = compute[REPORT_PERCENTILES.index(95.0)] * 1e3
        if include_histograms:
            out["histograms"] = {
                "latency_seconds": self.hist_latency.snapshot(),
                "wait_seconds": self.hist_wait.snapshot(),
                "compute_seconds": self.hist_compute.snapshot(),
            }
        return out


class SLOAccount:
    """Per-stream + fleet accounting against one latency objective.

    Parameters
    ----------
    slo_seconds:
        The end-to-end latency objective; a served frame whose latency
        exceeds it counts as a violation.  ``None`` disables violation
        counting (latency distributions are still tracked).
    max_exact_samples / buckets:
        Forwarded to every per-stream :class:`LatencyStats`.
    """

    def __init__(
        self,
        slo_seconds: Optional[float] = None,
        *,
        max_exact_samples: int = DEFAULT_MAX_EXACT_SAMPLES,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        if slo_seconds is not None and slo_seconds <= 0:
            raise ValueError(f"slo_seconds must be positive, got {slo_seconds}")
        self.slo_seconds = slo_seconds
        self.max_exact_samples = max_exact_samples
        self.buckets = tuple(buckets)
        self.streams: Dict[str, LatencyStats] = {}

    def _new_stats(self) -> LatencyStats:
        return LatencyStats(
            max_exact_samples=self.max_exact_samples, buckets=self.buckets
        )

    def _stream(self, stream: str) -> LatencyStats:
        stats = self.streams.get(stream)
        if stats is None:
            stats = self.streams[stream] = self._new_stats()
        return stats

    def record(self, stream: str, wait: float, compute: float, latency: float) -> None:
        violated = self.slo_seconds is not None and latency > self.slo_seconds
        self._stream(stream).add(wait, compute, latency, violated=violated)

    def record_shed(self, stream: str, reason: str = SHED_UNSPECIFIED) -> None:
        self._stream(stream).add_shed(reason)

    def fleet(self) -> LatencyStats:
        """All streams' samples merged into one distribution."""
        merged = self._new_stats()
        for stats in self.streams.values():
            merged.merge(stats)
        return merged

    def to_dict(self, fleet: Optional[LatencyStats] = None) -> Dict[str, Any]:
        """The report section; ``fleet`` is :meth:`fleet`, if already merged."""
        fleet = fleet if fleet is not None else self.fleet()
        return {
            "slo_ms": None if self.slo_seconds is None else self.slo_seconds * 1e3,
            "fleet": fleet.to_dict(include_histograms=True),
            "streams": {
                name: stats.to_dict() for name, stats in sorted(self.streams.items())
            },
        }
