"""Instrumentation the benchmark installs around the program's public functions.

Nothing here edits the program: :class:`Hooks` replaces a handful of
public callables (``Simulation.__init__`` / ``.step``, the scenario
builders, ``repro.sweep.worker.run_cell``, the artifact ``save``
methods) with wrappers that record timestamps, and, in a traced unit,
spans plus the engine's own ``profiler=`` / ``work=`` hooks.

Untraced units install only what the end-to-end metrics need: the first
epoch's start (for ``setup_s``), the epoch after which every partition
holds at least r_min replicas (for ``bootstrap_s``) and the epoch count.
That is one wrapper call per epoch, plus a replica-count scan per epoch
until bootstrap ends.

Importing this module loads nothing beyond the standard library, so the
``cli.import`` span a unit records covers every module the program loads.

Each process dumps what it recorded to ``<out_dir>/<pid>.json``; forked
sweep workers inherit the wrappers and dump after every cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import time

#: The engine's six step phases, in order (``repro.obs.profiler``).
PHASES = ("membership", "workload", "serve", "observe", "apply", "record")


def now() -> float:
    """CLOCK_MONOTONIC: comparable between processes on one Linux host."""
    return time.monotonic()


def metrics_digest(metrics) -> str:
    """sha256 over every series of a ``MetricsCollector``."""
    import numpy as np

    h = hashlib.sha256()
    for name in metrics.names():
        h.update(name.encode())
        h.update(np.asarray(metrics.array(name), dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _artifact_classes() -> list:
    """The ``.save()``-bearing artifact classes whose modules are loaded."""
    found = []
    for module, name in (
        ("repro.obs.timeseries.artifact", "TsdbArtifact"),
        ("repro.staticcheck.sanitizer", "FingerprintTrail"),
        ("repro.sweep.artifact", "SweepArtifact"),
    ):
        if module in sys.modules:
            found.append(getattr(sys.modules[module], name))
    return found


class Hooks:
    """Spans, per-simulation timestamps and counters of one process."""

    def __init__(self, out_dir: str | pathlib.Path, *, traced: bool, delay_save: float = 0.0):
        self.out_dir = pathlib.Path(out_dir)
        self.traced = traced
        self.delay_save = delay_save
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._next = 0
        self._sims: list = []
        self._records: dict[int, dict] = {}
        self._constructing = False
        self._setup_start: float | None = None
        self.decide: dict[str, list[float]] = {}  # policy -> [seconds, calls]
        self.actions_proposed = 0
        self.phases = {kind: {p: 0.0 for p in PHASES} for kind in ("bootstrap", "steady")}
        self.trace_queries = 0
        self.work: dict[str, float] = {}
        self.finished: list[dict] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str, start: float | None = None) -> dict:
        span = {
            "id": f"{os.getpid()}:{self._next}",
            "name": name,
            "start": now() if start is None else start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pid": os.getpid(),
        }
        self._next += 1
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = now()
        self._stack.pop()

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span named ``name`` (traced units only)."""
        hooks = self

        def wrapper(*args, **kwargs):
            span = hooks.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                hooks.close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self, kind: str) -> None:
        """Wrap what a unit of ``kind`` ("run", "scale" or "sweep") calls.

        Only modules the unit imports anyway are touched, so an untraced
        unit imports nothing extra.
        """
        from repro.sim.engine import Simulation
        from repro.workload.trace import WorkloadTrace

        classes = [Simulation]
        if kind != "sweep":
            from repro.sim.columnar import ColumnarSimulation

            classes.append(ColumnarSimulation)
        for cls in classes:
            cls.__init__ = self._wrap_init(cls.__dict__["__init__"])
        Simulation.step = self._wrap_step(Simulation.__dict__["step"])
        if kind == "sweep":
            import repro.sweep as sweep
            import repro.sweep.worker as worker

            worker.run_cell = self._wrap_cell(worker.run_cell)
        if self.delay_save:
            self._install_save_delay()
        if not self.traced:
            return

        if kind == "run":
            import repro.cli as cli

            cli.main = self.timed("main", cli.main)
            for name, builder in list(cli._SCENARIOS.items()):
                cli._SCENARIOS[name] = self.timed("workload.trace", builder)
        elif kind == "scale":
            import repro.experiments.scenarios as scenarios

            scenarios.random_query_scenario = self.timed(
                "workload.trace", scenarios.random_query_scenario
            )
        else:
            import repro.cli as cli

            cli.main = self.timed("main", cli.main)
            worker.build_cell_scenario = self.timed("workload.trace", worker.build_cell_scenario)
            sweep.run_sweep = self.timed("sweep.run", sweep.run_sweep)
            worker.to_csv = self.timed("artifact.save", worker.to_csv)
            for cls in _artifact_classes():
                cls.save = self.timed("artifact.save", cls.__dict__["save"])

        record = WorkloadTrace.__dict__["record"].__func__
        hooks = self

        def counted_record(cls, generator, epochs):
            trace = record(cls, generator, epochs)
            hooks.trace_queries += trace.total_queries()
            return trace

        WorkloadTrace.record = classmethod(counted_record)

    def _install_save_delay(self) -> None:
        """Attribution self-check: every artifact ``.save()`` sleeps first.

        A unit that never imported an artifact module cannot call its
        ``save``, so only classes already loaded are wrapped.
        """
        delay = self.delay_save
        for cls in _artifact_classes():
            original = cls.__dict__["save"]

            def slow_save(artifact, path, _original=original):
                time.sleep(delay)
                return _original(artifact, path)

            cls.save = slow_save

    def _wrap_cell(self, run_cell):
        hooks = self

        def wrapper(*args, **kwargs):
            hooks._setup_start = now()
            span = hooks.open("sweep.cell") if hooks.traced else None
            try:
                return run_cell(*args, **kwargs)
            finally:
                if span is not None:
                    hooks.close(span)
                hooks.dump()

        return wrapper

    def _wrap_init(self, init):
        hooks = self

        def wrapper(sim, *args, **kwargs):
            if hooks._constructing:  # ColumnarSimulation -> Simulation.__init__
                return init(sim, *args, **kwargs)
            if hooks.traced:
                from repro.obs.perf import WorkCounters
                from repro.obs.profiler import PhaseProfiler

                if kwargs.get("profiler") is None:
                    kwargs["profiler"] = PhaseProfiler()
                if kwargs.get("work") is None:
                    kwargs["work"] = WorkCounters()
            hooks._constructing = True
            span = hooks.open("sim.construct") if hooks.traced else None
            try:
                init(sim, *args, **kwargs)
            finally:
                hooks._constructing = False
                if span is not None:
                    hooks.close(span)
            hooks._register(sim)

        return wrapper

    def _register(self, sim) -> None:
        self._sims.append(sim)
        self._records[id(sim)] = {
            "policy": sim.policy_name,
            "engine": sim.engine_name,
            "setup_start": self._setup_start,
            "first_epoch": None,
            "bootstrap_end": None,
            "bootstrap_epochs": 0,
            "epochs": 0,
        }
        self._setup_start = None
        if self.traced:
            policy, name, hooks = sim.policy, sim.policy_name, self
            decide = policy.decide
            acc = self.decide.setdefault(name, [0.0, 0])

            def timed_decide(obs):
                span = hooks.open("policy.decide")
                try:
                    actions = decide(obs)
                finally:
                    hooks.close(span)
                acc[0] += span["end"] - span["start"]
                acc[1] += 1
                hooks.actions_proposed += len(actions)
                return actions

            policy.decide = timed_decide

    def _wrap_step(self, step):
        hooks = self

        def wrapper(sim):
            rec = hooks._records[id(sim)]
            booting = rec["bootstrap_end"] is None
            start = now()
            if rec["first_epoch"] is None:
                rec["first_epoch"] = start
            if hooks.traced:
                span = hooks.open("sim.bootstrap" if booting else "sim.steady", start)
                try:
                    result = step(sim)
                finally:
                    hooks.close(span)
                kind = "bootstrap" if booting else "steady"
                for phase, seconds in sim.profiler.latest().items():
                    if phase in hooks.phases[kind]:
                        hooks.phases[kind][phase] += seconds
            else:
                result = step(sim)
            end = now()
            rec["epochs"] += 1
            if booting:
                rec["bootstrap_epochs"] += 1
                if min(sim.replicas.per_partition_counts()) >= sim.rmin:
                    rec["bootstrap_end"] = end
            return result

        return wrapper

    # -- output -----------------------------------------------------------
    def finish_sims(self, digests: bool = False, prefix: int | None = None) -> None:
        """Fold finished simulations into plain records and drop them, so
        the hooks never keep a simulation's memory alive."""
        for sim in self._sims:
            rec = self._records.pop(id(sim))
            if digests:
                rec["digest"] = metrics_digest(sim.metrics)
            if prefix is not None:
                rec["prefix_series"] = {
                    name: sim.metrics.array(name)[:prefix].tolist() for name in sim.metrics.names()
                }
            if sim.work is not None:
                for name, value in sim.work.totals().items():
                    key = "rng_draws" if name.startswith("rng_draws/") else name
                    self.work[key] = self.work.get(key, 0.0) + value
            self.finished.append(rec)
        self._sims.clear()

    def dump(self, extra: dict | None = None) -> None:
        """Write everything this process recorded to ``<out_dir>/<pid>.json``."""
        self.finish_sims()
        pid = os.getpid()
        payload = {
            "pid": pid,
            # a forked worker inherits its parent's spans; keep only its own
            "spans": [span for span in self.spans if span["pid"] == pid],
            "sims": self.finished,
            "work": self.work,
            "decide": self.decide,
            "actions_proposed": self.actions_proposed,
            "phases": self.phases,
            "trace_queries": self.trace_queries,
            **(extra or {}),
        }
        path = self.out_dir / f"{pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
