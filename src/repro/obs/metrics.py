"""Named counters and histograms for the trigger pipeline.

The paper's claims are quantitative (per-posting overhead, lock
amplification, sparse-vs-dense transition cost), so every layer keeps
counters — but before this module they were scattered dataclasses
(``PostingStats``, ``StorageStats``, ``LockStats``) each with its own
ad-hoc ``snapshot``/``reset``.  A :class:`MetricsRegistry` gives them one
namespace and one read surface:

* **owned metrics** — :meth:`MetricsRegistry.counter` /
  :meth:`MetricsRegistry.histogram` create named instruments on first use;
* **mounted sources** — the existing per-layer stats dataclasses register
  under a prefix (``posting.*``, ``storage.*``, ``locks.*``, ``timers.*``)
  so their fields appear in the same flat snapshot without slowing their
  hot-path ``+= 1`` increments behind attribute indirection; each derives
  its ``snapshot``/``reset`` from :class:`Stats` (or :class:`LockedStats`);
* **snapshot / diff** — :meth:`MetricsRegistry.snapshot` returns a flat
  ``name -> value`` dict and :meth:`MetricsRegistry.diff` subtracts two of
  them, which is what back-to-back benchmarks and per-transaction deltas
  need (cumulative counters made E3/E10 numbers wrong across runs).
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from typing import Iterator, Protocol, runtime_checkable


@runtime_checkable
class StatsSource(Protocol):
    """Anything with ``snapshot() -> dict`` and ``reset()`` can be mounted."""

    def snapshot(self) -> dict: ...

    def reset(self) -> None: ...


class Stats:
    """Base of a per-layer stats dataclass of plain ``int`` fields.

    ``snapshot`` returns the fields as a ``name -> value`` dict (the keys
    a mounted source contributes), ``reset`` zeroes them.  Increments stay
    plain attribute writes on the subclass's fields.
    """

    def snapshot(self) -> dict[str, int]:
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}

    def reset(self) -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)


class LockedStats(Stats):
    """:class:`Stats` whose increments happen under :attr:`_mutex`.

    ``snapshot`` and ``reset`` take the mutex too, so a snapshot never
    sees one counter of a paired increment without the other and a reset
    never loses a racing increment.  A standalone instance (tests) gets
    its own lock; the owning manager replaces it with its own mutex.
    """

    def __post_init__(self) -> None:
        self._mutex = threading.Lock()

    def snapshot(self) -> dict[str, int]:
        with self._mutex:
            return super().snapshot()

    def reset(self) -> None:
        with self._mutex:
            super().reset()


class Counter:
    """A monotonically adjustable named integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """A named distribution: count/total/min/max plus power-of-two buckets.

    ``observe`` files each value into bucket ``ceil(log2(value))`` (values
    ``<= 1`` share bucket 0), enough resolution to tell "one mask per
    posting" from "a cascade of thirty" without storing samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    N_BUCKETS = 32

    def __init__(self, name: str):
        self.name = name
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets = [0] * self.N_BUCKETS

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = 0
        v = value
        while v > 1 and bucket < self.N_BUCKETS - 1:
            v /= 2
            bucket += 1
        self.buckets[bucket] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3g}>"


class MetricsRegistry:
    """One flat namespace over owned instruments and mounted stats sources."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sources: dict[str, StatsSource] = {}

    # -- owned instruments -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called *name*, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        """The histogram called *name*, created on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    # -- mounted sources ---------------------------------------------------------

    def register_source(self, prefix: str, source: StatsSource) -> None:
        """Mount *source* so its fields appear as ``<prefix>.<field>``.

        Re-registering a prefix replaces the previous source (a fresh
        ``TimerService`` on the same database takes over the ``timers``
        namespace).
        """
        self._sources[prefix] = source

    def sources(self) -> dict[str, StatsSource]:
        return dict(self._sources)

    # -- snapshot / diff / reset ---------------------------------------------------

    def snapshot(self) -> dict:
        """A flat ``name -> value`` dict over everything registered."""
        snap: dict = {}
        for prefix, source in self._sources.items():
            for field, value in source.snapshot().items():
                snap[f"{prefix}.{field}"] = value
        for name, counter in self._counters.items():
            snap[name] = counter.value
        for name, histogram in self._histograms.items():
            snap[name] = histogram.snapshot()
        return snap

    @staticmethod
    def diff(before: dict, after: dict) -> dict:
        """``after - before`` per metric (histograms diff count/total/mean)."""
        delta: dict = {}
        for name, value in after.items():
            prev = before.get(name)
            if isinstance(value, dict):
                prev = prev or {}
                count = value.get("count", 0) - prev.get("count", 0)
                total = (value.get("total") or 0) - (prev.get("total") or 0)
                delta[name] = {
                    "count": count,
                    "total": total,
                    "mean": total / count if count else 0.0,
                }
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                delta[name] = value - (prev or 0)
            else:
                delta[name] = value
        return delta

    def delta_since(self, before: dict) -> dict:
        """Convenience: :meth:`diff` of *before* against a fresh snapshot."""
        return self.diff(before, self.snapshot())

    @contextmanager
    def measure(self) -> Iterator[dict]:
        """``with registry.measure() as d:`` — *d* holds the delta at exit."""
        before = self.snapshot()
        delta: dict = {}
        try:
            yield delta
        finally:
            delta.update(self.delta_since(before))

    def reset(self) -> None:
        """Zero every owned instrument and every mounted source."""
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
        for source in self._sources.values():
            source.reset()


def describe(snapshot: dict) -> list[str]:
    """Render a snapshot as sorted ``name = value`` lines (dump tooling)."""
    lines = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):
            inner = ", ".join(
                f"{k}={value[k]:.3g}" if isinstance(value[k], float) else f"{k}={value[k]}"
                for k in ("count", "mean", "min", "max")
                if value.get(k) is not None
            )
            lines.append(f"{name} = {{{inner}}}")
        else:
            lines.append(f"{name} = {value}")
    return lines


@dataclasses.dataclass
class ObsStats(Stats):
    """The observability layer's own counters (mounted as ``obs.*``)."""

    records_emitted: int = 0
    records_dropped: int = 0
    spans_opened: int = 0
