"""Dependency-free metrics: counters, gauges, fixed-bucket histograms.

The registry is the one place run-time signals accumulate while a
component (engine, worker, server) is live — everything else in the
observability layer (health snapshots, ``repro status``, sinks) reads
*from* it.  Design constraints, in order:

* **zero-alloc hot path** — ``Counter.inc`` / ``Histogram.observe`` are
  a dict lookup, a bisect into a pre-computed bounds tuple and a few
  float adds under one lock (``observe_many``: one per batch); nothing is
  created or re-checked after a label series has been touched once;
* **thread-safe** — a worker's heartbeat thread, the serving loop and a
  health reporter may all touch one registry concurrently.  Every metric
  of a registry shares the registry's single re-entrant lock, and
  :meth:`MetricsRegistry.snapshot` holds it across the whole walk, so a
  snapshot is internally consistent;
* **plain-dict snapshots** — ``snapshot()`` returns JSON-native types
  only (dicts, lists, str, int, float), so it round-trips through
  ``json.dumps``/``loads`` losslessly and can be embedded verbatim in
  health files, sink records and reports;
* **hermetic tests** — components default to the process-global registry
  (:func:`default_registry`) but accept an injected one, so tests never
  see each other's counts.

Labels are positional tuples of strings, declared once per metric
(``labels=("reason",)``) and passed frozen at call sites
(``drops.inc(labels=("shed_oldest",))``) — no per-call dict building.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

LabelValues = Tuple[str, ...]


def linear_buckets(start: float, width: float, count: int) -> Tuple[float, ...]:
    """``count`` upper bounds: start, start+width, ... (overflow implicit)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return tuple(start + width * i for i in range(count))


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` geometric upper bounds: start, start*factor, ..."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if start <= 0 or factor <= 1:
        raise ValueError(
            f"start must be positive and factor > 1, got {start}, {factor}"
        )
    return tuple(start * factor**i for i in range(count))


#: Default latency layout in seconds: ~1 ms to ~80 s, x1.6 per bucket.
DEFAULT_LATENCY_BUCKETS = exponential_buckets(0.001, 1.6, 25)

#: Default layout for small cardinal quantities (batch sizes, regions).
DEFAULT_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _check_labels(values: Sequence[str], names: Tuple[str, ...], metric: str) -> None:
    if len(values) != len(names):
        raise ValueError(
            f"metric {metric!r} expects {len(names)} label value(s) "
            f"{names}, got {len(values)}: {tuple(values)}"
        )


class Metric:
    """Common shell: a name, a help string, declared label names."""

    kind = "metric"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        lock: Optional[threading.RLock] = None,
    ):
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = lock if lock is not None else threading.RLock()
        self._series: Dict[LabelValues, Any] = {}

    def labels_seen(self) -> List[LabelValues]:
        with self._lock:
            return sorted(self._series)

    def _snapshot_series(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """This metric as plain JSON-native dicts (see module docs)."""
        with self._lock:
            out: Dict[str, Any] = {
                "type": self.kind,
                "help": self.help,
                "labels": list(self.label_names),
                "series": self._snapshot_series(),
            }
            return out


class Counter(Metric):
    """A monotonically increasing sum per label tuple."""

    kind = "counter"

    def inc(self, amount: float = 1, labels: LabelValues = ()) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            if labels not in self._series:
                _check_labels(labels, self.label_names, self.name)
            self._series[labels] = self._series.get(labels, 0) + amount

    def value(self, labels: LabelValues = ()) -> float:
        with self._lock:
            return self._series.get(labels, 0)

    def total(self) -> float:
        """Sum across every label series."""
        with self._lock:
            return sum(self._series.values())

    def _snapshot_series(self) -> List[Dict[str, Any]]:
        return [
            {"labels": list(k), "value": v}
            for k, v in sorted(self._series.items())
        ]


class Gauge(Metric):
    """A point-in-time value per label tuple (set, inc, dec)."""

    kind = "gauge"

    def set(self, value: float, labels: LabelValues = ()) -> None:
        with self._lock:
            if labels not in self._series:
                _check_labels(labels, self.label_names, self.name)
            self._series[labels] = value

    def inc(self, amount: float = 1, labels: LabelValues = ()) -> None:
        _check_labels(labels, self.label_names, self.name)
        with self._lock:
            self._series[labels] = self._series.get(labels, 0) + amount

    def dec(self, amount: float = 1, labels: LabelValues = ()) -> None:
        self.inc(-amount, labels)

    def value(self, labels: LabelValues = ()) -> float:
        with self._lock:
            return self._series.get(labels, 0)

    def _snapshot_series(self) -> List[Dict[str, Any]]:
        return [
            {"labels": list(k), "value": v}
            for k, v in sorted(self._series.items())
        ]


class _HistSeries:
    """One label tuple's accumulation: bucket counts + running moments."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, num_buckets: int):
        self.counts = [0] * num_buckets
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram(Metric):
    """Fixed upper-bound buckets plus an implicit overflow bucket.

    ``bounds`` are strictly increasing *upper* edges; a sample lands in
    the first bucket whose bound is ``>= value`` (overflow past the last
    bound).  Alongside the counts, each series keeps exact ``count``,
    ``sum``, ``min`` and ``max``, so means are exact and quantile
    brackets are clamped to observed extremes.

    Quantiles follow numpy's default ``"linear"`` convention: the
    ``q``-th percentile interpolates between order statistics at
    positions ``floor(p)`` and ``ceil(p)`` where ``p = q/100 * (n-1)``.
    :meth:`quantile` returns a point estimate interpolated inside its
    bucket; :meth:`quantile_bracket` returns hard ``(lo, hi)`` bounds the
    exact ``numpy.percentile`` value provably lies in — the property the
    test suite pins.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        lock: Optional[threading.RLock] = None,
    ):
        super().__init__(name, help, labels, lock=lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.bounds = bounds

    # ------------------------------------------------------------------ #
    # Hot path
    # ------------------------------------------------------------------ #

    def observe(self, value: float, labels: LabelValues = ()) -> None:
        with self._lock:
            series = self._series.get(labels)
            if series is None:
                _check_labels(labels, self.label_names, self.name)
                series = self._series[labels] = _HistSeries(len(self.bounds) + 1)
            series.counts[bisect_left(self.bounds, value)] += 1
            series.count += 1
            series.sum += value
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    def observe_many(self, values: Sequence[float], labels: LabelValues = ()) -> None:
        """``observe`` each value in order (a plain ``+=`` sum, bit-equal)."""
        if not values:
            return
        with self._lock:
            series = self._series.get(labels)
            if series is None:
                _check_labels(labels, self.label_names, self.name)
                series = self._series[labels] = _HistSeries(len(self.bounds) + 1)
            counts, bounds, total = series.counts, self.bounds, series.sum
            for value in values:
                counts[bisect_left(bounds, value)] += 1
                total += value
            series.sum = total
            series.count += len(values)
            series.min = min(series.min, min(values))
            series.max = max(series.max, max(values))

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def count(self, labels: LabelValues = ()) -> int:
        with self._lock:
            series = self._series.get(labels)
            return series.count if series is not None else 0

    def sum(self, labels: LabelValues = ()) -> float:
        with self._lock:
            series = self._series.get(labels)
            return series.sum if series is not None else 0.0

    def mean(self, labels: LabelValues = ()) -> float:
        with self._lock:
            series = self._series.get(labels)
            if series is None or series.count == 0:
                return 0.0
            return series.sum / series.count

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s series into this histogram (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        with other._lock:
            items = [(k, s) for k, s in other._series.items()]
        with self._lock:
            for key, theirs in items:
                mine = self._series.get(key)
                if mine is None:
                    mine = self._series[key] = _HistSeries(len(self.bounds) + 1)
                for i, c in enumerate(theirs.counts):
                    mine.counts[i] += c
                mine.count += theirs.count
                mine.sum += theirs.sum
                mine.min = min(mine.min, theirs.min)
                mine.max = max(mine.max, theirs.max)

    def _bucket_edges(self, index: int, series: _HistSeries) -> Tuple[float, float]:
        """(lower, upper) edges of bucket ``index`` clamped to observations."""
        lo = -math.inf if index == 0 else self.bounds[index - 1]
        hi = math.inf if index >= len(self.bounds) else self.bounds[index]
        return max(lo, series.min), min(hi, series.max)

    def _bucket_of_order_stat(self, series: _HistSeries, rank: int) -> int:
        """Bucket index holding the 0-based order statistic ``rank``."""
        remaining = rank + 1  # 1-based cumulative target
        for i, c in enumerate(series.counts):
            remaining -= c
            if remaining <= 0:
                return i
        return len(series.counts) - 1  # pragma: no cover - counts sum == count

    def quantile(self, q: float, labels: LabelValues = ()) -> float:
        """Point estimate of the ``q``-th percentile (0 when empty)."""
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        with self._lock:
            series = self._series.get(labels)
            if series is None or series.count == 0:
                return 0.0
            if series.count == 1:
                return series.min
            p = q / 100.0 * (series.count - 1)
            index = self._bucket_of_order_stat(series, int(math.floor(p)))
            lo, hi = self._bucket_edges(index, series)
            in_bucket = series.counts[index]
            if in_bucket == 0 or hi <= lo:  # pragma: no cover - defensive
                return lo
            if in_bucket == 1:
                return (lo + hi) / 2.0
            # The bucket's order statistics occupy ranks [before,
            # before + in_bucket - 1]; interpolate linearly across that
            # span so rank `before` maps to the lower edge and the
            # bucket's last rank to the upper edge.
            before = sum(series.counts[:index])
            frac = (p - before) / (in_bucket - 1)
            return lo + (hi - lo) * min(max(frac, 0.0), 1.0)

    def quantile_bracket(
        self, q: float, labels: LabelValues = ()
    ) -> Tuple[float, float]:
        """Hard bounds containing ``numpy.percentile(samples, q)``.

        The exact percentile interpolates between the order statistics at
        ``floor(p)`` and ``ceil(p)``; the bracket spans from the lower
        edge of the bucket holding the first to the upper edge of the
        bucket holding the second, clamped to the observed min/max.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        with self._lock:
            series = self._series.get(labels)
            if series is None or series.count == 0:
                return (0.0, 0.0)
            p = q / 100.0 * (series.count - 1)
            lo_bucket = self._bucket_of_order_stat(series, int(math.floor(p)))
            hi_bucket = self._bucket_of_order_stat(series, int(math.ceil(p)))
            lo, _ = self._bucket_edges(lo_bucket, series)
            _, hi = self._bucket_edges(hi_bucket, series)
            return (lo, hi)

    def _snapshot_series(self) -> List[Dict[str, Any]]:
        out = []
        for key, s in sorted(self._series.items()):
            out.append(
                {
                    "labels": list(key),
                    "count": s.count,
                    "sum": s.sum,
                    "min": s.min if s.count else None,
                    "max": s.max if s.count else None,
                    "counts": list(s.counts),
                }
            )
        return out

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            out = super().snapshot()
            out["buckets"] = list(self.bounds)
            return out


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric
    when the name is already registered — instrumented components can
    therefore share one registry without coordinating creation order —
    but re-registration with a *different* type, label set or bucket
    layout raises: silent shape drift would corrupt every reader.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names}, not {tuple(labels)}"
                    )
                if cls is Histogram and "buckets" in kwargs:
                    bounds = tuple(float(b) for b in kwargs["buckets"])
                    if existing.bounds != bounds:
                        raise ValueError(
                            f"histogram {name!r} already registered with "
                            f"different bucket bounds"
                        )
                return existing
            metric = cls(name, help, labels, lock=self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """Every metric as one JSON-native dict, internally consistent.

        Holds the registry lock across the whole walk, so concurrent
        ``inc``/``observe`` calls can never produce a snapshot where one
        metric reflects a later state than another.
        """
        with self._lock:
            return {name: m.snapshot() for name, m in sorted(self._metrics.items())}


# --------------------------------------------------------------------- #
# The process-global default
# --------------------------------------------------------------------- #

_DEFAULT = MetricsRegistry()
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-global registry components fall back to."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Meant for tests and embedders that want a clean slate — library code
    should accept an injected registry instead of calling this.
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        previous = _DEFAULT
        _DEFAULT = registry
        return previous


def resolve_registry(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """``metrics`` itself, or the process default when ``None``."""
    return metrics if metrics is not None else default_registry()
