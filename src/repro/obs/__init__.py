"""Structured observability for the simulation engine.

Four orthogonal instruments, all optional and all off by default so the
reproduction's hot path is untouched unless a user asks to look inside:

* :mod:`repro.obs.trace` — typed, timestamped event records emitted at
  every membership change, lost-partition restore, policy action
  (capturing each action's ``reason``), gated/skipped action and SLA
  violation.  Ring-buffer mode bounds memory on long runs; the JSONL
  sink streams to disk for archival analysis (``jq``-able).
* :mod:`repro.obs.profiler` — per-epoch wall-clock timing of the six
  engine phases (membership → workload → serve → observe → apply →
  record), summarised as mean/p50/p95/total per phase.
* :mod:`repro.obs.registry` — labelled counters, gauges and histograms
  (e.g. ``actions_total{kind=migrate, policy=rfh}``) with JSON snapshot
  export and a ``reset()`` for test isolation.
* :mod:`repro.obs.timeseries` — per-epoch columnar recording of every
  metric/instrument/phase signal into a versioned ``.tsdb.json``
  artifact, plus cross-run regression diffing (``repro diff``) and a
  self-contained offline HTML dashboard (``repro dashboard``).

The tracer, the registry and the time-series recorder subscribe to the
engine's one event stream (:class:`~repro.obs.trace.TraceEvent`, see
:class:`~repro.obs.trace.EventSubscriber`); the profiler is a direct
hot-path timer.  Wire them through :class:`repro.sim.engine.Simulation`::

    sim = Simulation(config, tracer=RingBufferTracer(10_000),
                     profiler=PhaseProfiler(),
                     instruments=InstrumentRegistry(),
                     timeseries=TimeseriesRecorder())

or from the command line::

    python -m repro run --policy rfh --trace-out trace.jsonl --profile \\
        --timeseries-out run.tsdb.json
"""

from .profiler import ENGINE_PHASES, NullProfiler, PhaseProfiler, PhaseStats
from .registry import Counter, Gauge, Histogram, InstrumentRegistry
from .timeseries import TimeseriesRecorder, TsdbArtifact
from .trace import (
    EventSubscriber,
    JsonlTracer,
    RingBufferTracer,
    TraceEvent,
    Tracer,
    TraceReadWarning,
    read_jsonl,
)

__all__ = [
    "ENGINE_PHASES",
    "Counter",
    "EventSubscriber",
    "Gauge",
    "Histogram",
    "InstrumentRegistry",
    "JsonlTracer",
    "NullProfiler",
    "PhaseProfiler",
    "PhaseStats",
    "RingBufferTracer",
    "TimeseriesRecorder",
    "TraceEvent",
    "TraceReadWarning",
    "Tracer",
    "TsdbArtifact",
    "read_jsonl",
]
