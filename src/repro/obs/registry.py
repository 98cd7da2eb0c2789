"""Process-wide metrics instruments and their registry.

Three instrument kinds cover every measurement the routing layers emit:

- :class:`Counter` — a monotonically increasing tally (route counts,
  successes, per-stage switch flips);
- :class:`Gauge` — a last-write-wins level (sizes, configuration);
- :class:`Histogram` — a bucketed distribution with count/sum/min/max
  (wall times, batch sizes).

Instruments live in a :class:`MetricsRegistry` keyed by flat dotted
names (the catalogue is in ``DESIGN.md`` § Observability).  Every
mutation and every snapshot is lock-guarded, so concurrent routing
threads may bump the same counter while another thread serializes a
snapshot.  Pull-style sources (the accel LRU caches, which already
track their own hits/misses) register a *provider* callable instead of
pushing on every access; providers are invoked only at snapshot time.

One registry serves the whole process: the shard executor runs its
shards on threads (:mod:`repro.accel.executor`), so they count into
the same instruments as the dispatching call.

The registry itself is always live — the near-zero-overhead no-op
behaviour of the disabled state is implemented one layer up, in
:mod:`repro.obs` (hot paths check ``obs.enabled()`` before touching
any instrument).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..errors import InvalidParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BOUNDS",
    "POW2_BOUNDS",
]

#: Default histogram bucket upper bounds for wall-clock seconds:
#: geometric 1µs .. 10s (routing a vector takes µs-ms; a huge batch
#: or census can take seconds).
DEFAULT_TIME_BOUNDS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (1.0, 2.5, 5.0)
) + (10.0,)

#: Bucket bounds for cardinalities (batch sizes): powers of two.
POW2_BOUNDS: Tuple[float, ...] = tuple(float(1 << k) for k in range(21))


class Counter:
    """A named, thread-safe, monotonically increasing tally."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise InvalidParameterError(
                f"counter {self.name!r}: increment must be >= 0, "
                f"got {amount}"
            )
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A named, thread-safe, last-write-wins level."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """A named, thread-safe bucketed distribution.

    Buckets are cumulative-style upper bounds (``value <= bound``) plus
    an implicit overflow bucket; ``snapshot()`` additionally reports
    count, sum, min and max so mean latency is recoverable without
    bucket arithmetic.
    """

    __slots__ = ("name", "bounds", "_bucket_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str,
                 bounds: Optional[Sequence[float]] = None):
        bounds = tuple(bounds if bounds is not None
                       else DEFAULT_TIME_BOUNDS)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InvalidParameterError(
                f"histogram {name!r}: bucket bounds must be strictly "
                f"increasing, got {bounds}"
            )
        self.name = name
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +overflow
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # Linear scan: bound lists are short (~20) and observations on
        # the hot path only happen with metrics enabled.
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._bucket_counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> Dict:
        with self._lock:
            if not self._count:
                return {"count": 0, "sum": 0.0}
            buckets = {
                f"le_{bound:g}": n
                for bound, n in zip(self.bounds, self._bucket_counts)
                if n
            }
            overflow = self._bucket_counts[-1]
            if overflow:
                buckets["overflow"] = overflow
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count,
                "buckets": buckets,
            }

    def reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")


class MetricsRegistry:
    """Name -> instrument mapping with lock-guarded lookup, snapshot
    and reset.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first caller fixes the instrument's kind, and asking for the same
    name with a different kind raises — silent kind confusion would
    corrupt the snapshot.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._providers: Dict[str, Callable[[], Dict]] = {}

    def _check_free(self, name: str, want: Dict) -> None:
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            if table is not want and name in table:
                raise InvalidParameterError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_free(name, self._counters)
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_free(name, self._gauges)
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free(name, self._histograms)
                instrument = self._histograms[name] = Histogram(
                    name, bounds
                )
            return instrument

    def register_provider(self, name: str,
                          provider: Callable[[], Dict]) -> None:
        """Attach a pull-style metrics source: ``provider()`` must
        return a JSON-ready dict, merged into every snapshot under
        ``providers[name]``.  Re-registering a name replaces it (module
        reloads in tests)."""
        with self._lock:
            self._providers[name] = provider

    def snapshot(self) -> Dict:
        """A consistent JSON-ready view of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            providers = dict(self._providers)
        snap = {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(histograms.items())},
        }
        if providers:
            snap["providers"] = {
                name: provider()
                for name, provider in sorted(providers.items())
            }
        return snap

    def reset(self) -> None:
        """Zero every instrument (providers are pull-style and keep
        their own state — e.g. ``repro.accel.cache_clear()``)."""
        with self._lock:
            instruments = (list(self._counters.values())
                           + list(self._gauges.values())
                           + list(self._histograms.values()))
        for instrument in instruments:
            instrument.reset()
