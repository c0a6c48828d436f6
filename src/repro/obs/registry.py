"""Labelled instruments: counters, gauges and histograms.

A :class:`InstrumentRegistry` is the aggregate companion to the event
trace — cheap running totals you can snapshot at any point without
replaying events.  The naming convention follows the de-facto metrics
standard: a family name plus a label set, e.g.::

    registry.counter("actions_total", kind="migrate", policy="rfh").inc()
    registry.histogram("replica_lifetime_epochs").observe(132.0)

Instruments are get-or-create: asking for the same (name, labels) twice
returns the same object, and differing label values create distinct
children under one family.  ``snapshot()`` renders everything to plain
JSON-able dicts; ``reset()`` zeroes state for test isolation.

Attached to an engine, a registry subscribes to its event stream and
:meth:`InstrumentRegistry.on_event` maps each event onto the counter
families and the ``replica_lifetime_epochs`` histogram.  The same
method rebuilds a registry from a trace on disk
(:func:`~repro.obs.analysis.registry_from_events`), so the live and the
offline counters cannot disagree.

Histograms keep every sample by default (exact quantiles; the engine
only feeds low-rate signals such as replica deaths).  For high-rate
instruments, construct the registry with ``histogram_reservoir=N``:
each histogram then holds a fixed-size uniform random sample
(Vitter's algorithm R, deterministically seeded per instrument), so
memory stays bounded on arbitrarily long runs while count/sum/min/max
remain exact and quantiles become estimates — flagged by
``sampled: true`` in the summary.
"""

from __future__ import annotations

import json
import pathlib
import random
import zlib
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .trace import TraceEvent

__all__ = ["Counter", "Gauge", "Histogram", "InstrumentRegistry"]

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: dict[str, str]) -> None:
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


class Gauge:
    """A value that can move both ways (e.g. live replica count)."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: dict[str, str]) -> None:
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Streaming distribution summary (count/sum/min/max + samples).

    Exact mode (default, ``reservoir=None``) keeps every sample so
    snapshots report true quantiles.  Reservoir mode keeps a fixed-size
    uniform sample via Vitter's algorithm R with a deterministic
    per-instrument seed: count, sum, min, max and mean stay exact
    (tracked outside the sample), quantiles become estimates and the
    summary reports ``sampled: true`` once the reservoir has displaced
    anything.
    """

    __slots__ = ("labels", "samples", "_reservoir", "_rng", "_count", "_sum", "_min", "_max")

    def __init__(
        self,
        labels: dict[str, str],
        *,
        reservoir: int | None = None,
        seed: int = 0,
    ) -> None:
        if reservoir is not None and reservoir < 1:
            raise ValueError(f"reservoir size must be >= 1, got {reservoir}")
        self.labels = labels
        self.samples: list[float] = []
        self._reservoir = reservoir
        self._rng = random.Random(seed) if reservoir is not None else None
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if self._count == 0:
            self._min = self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._count += 1
        self._sum += value
        if self._reservoir is None or len(self.samples) < self._reservoir:
            self.samples.append(value)
        else:
            # Algorithm R: the new sample replaces a uniformly-random
            # slot with probability reservoir/count.
            slot = self._rng.randrange(self._count)
            if slot < self._reservoir:
                self.samples[slot] = value

    @property
    def sampled(self) -> bool:
        """True once the reservoir has displaced at least one sample."""
        return self._reservoir is not None and self._count > self._reservoir

    def summary(self) -> dict[str, float | bool]:
        if self._count == 0:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "sampled": False,
            }
        ordered = sorted(self.samples)
        n = len(ordered)

        def pct(q: float) -> float:
            return ordered[min(n - 1, max(0, round(q * (n - 1))))]

        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self._sum / self._count,
            "p50": pct(0.50),
            "p95": pct(0.95),
            "sampled": self.sampled,
        }


class InstrumentRegistry:
    """Families of labelled counters/gauges/histograms.

    ``histogram_reservoir`` switches every histogram to bounded-memory
    reservoir sampling (see :class:`Histogram`); ``seed`` makes the
    reservoirs deterministic — each instrument derives its own stream
    from the registry seed and its (name, labels) identity, so sampling
    is reproducible and independent of creation order.
    """

    #: Engine event kinds a live registry subscribes to.  Not
    #: ``sla_violation``: the engine counts every epoch's misses into
    #: ``sla_miss_total`` itself, as end-of-epoch state, so only an
    #: offline rebuild maps that kind.
    subscribes: tuple[str, ...] = (
        "replica_bootstrap",
        "server_failure",
        "server_recovery",
        "server_join",
        "partition_restore",
        "replicate",
        "migrate",
        "suicide",
        "action_skipped",
        "link_failure",
        "link_recovery",
        "invariant_violation",
    )

    def __init__(
        self, *, histogram_reservoir: int | None = None, seed: int = 0
    ) -> None:
        if histogram_reservoir is not None and histogram_reservoir < 1:
            raise ValueError(
                f"histogram_reservoir must be >= 1, got {histogram_reservoir}"
            )
        self._counters: dict[str, dict[LabelKey, Counter]] = {}
        self._gauges: dict[str, dict[LabelKey, Gauge]] = {}
        self._histograms: dict[str, dict[LabelKey, Histogram]] = {}
        self._histogram_reservoir = histogram_reservoir
        self._seed = seed
        # Birth epoch of every live copy, keyed (policy, partition, server).
        self._births: dict[tuple[str, int | None, int | None], int] = {}

    # -- get-or-create accessors ---------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        family = self._counters.setdefault(name, {})
        key = _label_key(labels)
        inst = family.get(key)
        if inst is None:
            inst = family[key] = Counter({k: v for k, v in key})
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        family = self._gauges.setdefault(name, {})
        key = _label_key(labels)
        inst = family.get(key)
        if inst is None:
            inst = family[key] = Gauge({k: v for k, v in key})
        return inst

    def histogram(self, name: str, **labels: str) -> Histogram:
        family = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        inst = family.get(key)
        if inst is None:
            identity = name + "|" + "|".join(f"{k}={v}" for k, v in key)
            inst = family[key] = Histogram(
                {k: v for k, v in key},
                reservoir=self._histogram_reservoir,
                seed=self._seed ^ zlib.crc32(identity.encode()),
            )
        return inst

    # -- engine events -------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        """Count one engine event: the one event → instrument mapping.

        A copy's birth (bootstrap, restore, replication, migration
        target) is remembered; its death (migration source, suicide,
        failed server) observes the lifetime into
        ``replica_lifetime_epochs``.
        """
        kind, epoch, partition = event.kind, event.epoch, event.partition
        policy = event.policy or "unknown"
        extra: dict[str, Any] = event.extra
        if kind in ("replicate", "migrate", "suicide"):
            self.counter(
                "actions_total", kind=kind, reason=event.reason, policy=policy
            ).inc()
            if kind != "replicate":  # the copy that left
                gone = event.server if kind == "suicide" else extra.get("source")
                self._death(policy, partition, gone, epoch)
            if kind != "suicide":
                self._births[(policy, partition, event.server)] = epoch
        elif kind in ("replica_bootstrap", "partition_restore"):
            if kind == "partition_restore":
                self.counter("partitions_restored_total").inc()
            self._births[(policy, partition, event.server)] = epoch
        elif kind in ("server_failure", "server_recovery", "server_join"):
            self.counter("membership_events_total", kind=kind).inc()
            if kind == "server_failure":
                # Created even when the server held no copy, so a failure
                # always shows up in the snapshot.
                self.histogram("replica_lifetime_epochs", policy=policy)
                for lost in extra.get("partitions", ()):
                    self._death(policy, lost, event.server, epoch)
        elif kind == "action_skipped":
            self.counter(
                "actions_skipped_total",
                kind=str(extra.get("action", "unknown")),
                cause=str(extra.get("cause", "unknown")),
            ).inc()
        elif kind in ("link_failure", "link_recovery"):
            self.counter("wan_link_events_total", kind=kind).inc()
        elif kind == "invariant_violation":
            self.counter("invariant_violations_total", invariant=event.reason).inc()
        elif kind == "sla_violation":
            count = extra.get("count", 1.0)
            self.counter("sla_miss_total", policy=policy).inc(
                float(count if isinstance(count, (int, float)) else 1.0)
            )

    def _death(
        self, policy: str, partition: int | None, server: int | None, epoch: int
    ) -> None:
        born = self._births.pop((policy, partition, server), None)
        if born is not None:
            self.histogram("replica_lifetime_epochs", policy=policy).observe(
                float(epoch - born)
            )

    # -- export --------------------------------------------------------
    def iter_scalars(self) -> Iterator[tuple[str, str, dict[str, str], float]]:
        """Every counter and gauge as ``(kind, name, labels, value)``,
        in deterministic sorted order (the time-series recorder samples
        this once per epoch)."""
        for kind, families in (("counter", self._counters), ("gauge", self._gauges)):
            for name in sorted(families):
                for key in sorted(families[name]):
                    inst = families[name][key]
                    yield kind, name, inst.labels, inst.value

    def snapshot(self) -> dict[str, list[dict[str, object]]]:
        """Everything as plain dicts: ``{counters: [...], gauges: [...],
        histograms: [...]}``, each entry ``{name, labels, ...}``."""

        def rows(families, render):
            out = []
            for name in sorted(families):
                for key in sorted(families[name]):
                    inst = families[name][key]
                    out.append({"name": name, "labels": dict(inst.labels), **render(inst)})
            return out

        return {
            "counters": rows(self._counters, lambda c: {"value": c.value}),
            "gauges": rows(self._gauges, lambda g: {"value": g.value}),
            "histograms": rows(self._histograms, lambda h: h.summary()),
        }

    def to_json(self, path: str | pathlib.Path) -> None:
        """Write :meth:`snapshot` to ``path`` (pretty-printed, newline-terminated)."""
        pathlib.Path(path).write_text(json.dumps(self.snapshot(), indent=1) + "\n")

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._births.clear()
