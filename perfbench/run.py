"""Benchmark of the RFH reproduction: what a user waits for, and where it goes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-table1 --seed 7 --seconds 30 --trace 0

Workloads (one closed-loop client; each unit is a fresh process):

* ``cli-table1`` -- ``repro run --policy rfh --engine columnar --seed S`` at
  Table I defaults, back to back.  Import, serve and observe dominate.
* ``scale-dc100`` -- a 100-DC / 2x10^4-partition columnar run through the
  Python API, starting empty: bootstrap epochs, the Fig. 2 decision
  layer and the workload sampler dominate.  Units cycle through three
  inputs derived from S.
* ``sweep-table1`` -- ``repro sweep`` over 4 policies x {random, failure}
  at 320 epochs, scalar engine, 2 workers, with the sweep's time-series
  and fingerprint observers and per-cell artifacts.  Sweeps alternate
  between two seeds derived from S.

Inputs follow from ``--seed`` alone (``workloads.unit_seed``).

``--trace 0`` prints the end-to-end metrics of untraced units.
``--trace 1`` alternates untraced and traced units and prints the
per-layer metrics: span self times (which add up to the traced unit's
wall time, remainder stated), the engine's phase profiler and work
counters, probes of observer overhead and artifact I/O, and the tracing
overhead.  Either way every unit's output is checked against a
reference outside the timed region, and the last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
KINDS = {"cli-table1": "run", "scale-dc100": "scale", "sweep-table1": "sweep"}
#: Seconds from the start of a run by which units, then reference runs and
#: probes, must have ended; a process still running then is killed and its
#: unit counted as failed, so that a hung program cannot keep the benchmark
#: past its 180 s limit.
UNITS_BY_S = 140
CHECKS_BY_S = 170
#: Reference and probe processes run at most this many at a time (2 cores).
PARALLEL = 2
PHASES = ("membership", "workload", "serve", "observe", "apply", "record")
WORK = ("partitions_scanned", "decisions_evaluated", "replicate_actions", "migrate_actions",
        "evict_actions", "ring_lookups", "graph_hops", "rng_draws")
FORMATS = ("tsdb", "fp", "csv", "cell", "sweep")
#: Span names: the layers whose self times add up to a traced unit's wall time.
LAYERS = ("proc.start", "cli.import", "bench.hooks", "main", "workload.trace", "sim.construct",
          "sim.bootstrap", "sim.steady", "policy.decide", "sweep.run", "sweep.cell",
          "artifact.save", "proc.exit")

END_TO_END = (
    ("wall_s", "s"), ("wall_tail_s", "s"), ("setup_s", "s"), ("epochs_per_s", "1/s"),
    ("cells_per_s", "1/s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("proc.start_s", "s"), ("cli.import_s", "s"), ("cli.import_modules", "count"),
    ("workload.trace_s", "s"), ("workload.queries_per_s", "1/s"), ("sim.construct_s", "s"),
    ("sim.bootstrap_s", "s"), ("sim.bootstrap_epochs", "count"), ("sim.bootstrap_epoch_ms", "ms"),
    ("sim.steady_epoch_ms", "ms"), ("sim.bootstrap_ratio", "ratio"),
    *((f"sim.phase.{p}_ms", "ms") for p in PHASES),
    *((f"sim.phase.{p}.bootstrap_ms", "ms") for p in PHASES),
    *((f"policy.{p}.decide_ms", "ms") for p in workloads.SWEEP_POLICIES),
    ("policy.actions_proposed", "count"), ("sim.actions_applied", "count"),
    ("sim.apply_useful_ratio", "ratio"),
    *((f"work.{name}", "count") for name in WORK),
    ("obs.overhead_frac", "ratio"),
    *((f"artifact.{f}.{m}", u) for f in FORMATS
      for m, u in (("save_s", "s"), ("load_s", "s"), ("bytes", "bytes"))),
    ("sweep.cell_s", "s"), ("sweep.overhead_s", "s"), ("sweep.worker_busy_frac", "ratio"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.remainder_s", "s"),
    *((f"self.{layer}_s", "s") for layer in LAYERS),
)
#: Largest relative difference tolerated between a columnar and a scalar
#: metric value (see ``Bench.compare_series``).
SERIES_RTOL = 1e-12
#: Per-layer counts that must repeat exactly for one seed.
EXACT = ("cli.import_modules", "sim.bootstrap_epochs", "policy.actions_proposed",
         "sim.actions_applied", *(f"work.{name}" for name in WORK))


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def tail(values):
    """The highest order statistic with at least ten samples beyond it
    (the maximum when there are ten samples or fewer) and its label."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n}: 10 samples beyond"


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy}


class Bench:
    """One measured run of one workload: a closed loop of unit processes."""

    def __init__(self, workload: str, seed: int, work: pathlib.Path, *,
                 delay_save: float = 0.0, inject_crash: str | None = None):
        self.workload, self.kind, self.seed = workload, KINDS[workload], seed
        self.work = work
        self.delay_save, self.inject_crash = delay_save, inject_crash
        self.units: list[dict] = []
        self.env = {k: v for k, v in os.environ.items() if k != "REPRO_CHECK_INVARIANTS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(work)
        self.lanes = workloads.SWEEP_WORKERS if self.kind == "sweep" else 1
        self.notes: dict[str, str] = {}
        self.problems: list[str] = []
        self.inexact: list[tuple[int, float]] = []  # last-bit deviations per unit
        self.traced = False
        self.t0 = time.monotonic()

    # -- processes ----------------------------------------------------------
    def remaining(self, by: float) -> float:
        return max(1.0, self.t0 + by - time.monotonic())

    def spawn(self, mode: str, spec: dict, by: float = CHECKS_BY_S):
        """Run ``child.py`` and wait for it; its session is killed when the
        run reaches ``by`` seconds."""
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=self.remaining(by))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        return proc, out, err

    def warm(self) -> None:
        """Compile bytecode and fill the page cache before anything is timed."""
        subprocess.run(
            [sys.executable, "-c", "import repro.cli, repro.sim.columnar, repro.sweep.worker"],
            cwd=ROOT, env=self.env, check=True, timeout=self.remaining(UNITS_BY_S),
        )

    def unit(self, traced: bool) -> dict:
        udir = self.work / f"unit{len(self.units)}"
        udir.mkdir()
        # a traced run keeps to one input so that its exact counts repeat
        seed = workloads.unit_seed(self.kind, self.seed, 0 if self.traced else len(self.units))
        spec = {"kind": self.kind, "out": str(udir), "traced": int(traced),
                "delay": self.delay_save, "seed": seed}
        if self.kind == "sweep":
            spec.update(sweep=str(udir / "sweep"), inject_crash=self.inject_crash)
        start = time.monotonic()
        proc, out, err = self.spawn("unit", spec, UNITS_BY_S)
        end = time.monotonic()
        dumps = {}
        for path in udir.glob("*.json"):
            dumps[int(path.stem)] = json.loads(path.read_text())
        unit = {"traced": traced, "seed": seed, "start": start, "end": end, "wall": end - start,
                "rc": proc.returncode, "stdout": out, "stderr": err, "dir": udir,
                "main": dumps.pop(proc.pid, None), "workers": list(dumps.values())}
        if self.kind == "sweep":
            path = udir / "sweep" / "sweep.sweep.json"
            unit["sweep"] = json.loads(path.read_text()) if path.exists() else None
        self.units.append(unit)
        return unit

    def closed_loop(self, seconds: float, pattern: tuple[bool, ...]) -> None:
        """Run ``pattern`` groups of units back to back while the next group
        is expected to finish within ``seconds``; at least one group."""
        t0 = time.monotonic()
        while True:
            for traced in pattern:
                self.unit(traced)
            group = median([u["wall"] for u in self.units]) * len(pattern)
            if time.monotonic() - t0 + group > seconds:
                return

    def sims(self, unit: dict) -> list[dict]:
        dumps = [unit["main"], *unit["workers"]] if unit["main"] else unit["workers"]
        return [sim for dump in dumps for sim in dump["sims"]]

    # -- correctness ----------------------------------------------------------
    def references(self) -> dict[int, dict]:
        """Reference outputs for every input seed the units used, computed
        after timing, two processes at a time."""
        specs = [{"kind": self.kind, "seed": seed, "out": str(self.work / f"ref-{seed}.json")}
                 for seed in sorted({u["seed"] for u in self.units})]
        running: list = []
        for spec in specs + [None] * len(specs):
            if spec is not None:
                running.append(subprocess.Popen(
                    [sys.executable, str(HERE / "child.py"), "reference", json.dumps(spec)],
                    cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, start_new_session=True,
                ))
            if len(running) == PARALLEL or (spec is None and running):
                proc = running.pop(0)
                try:
                    proc.wait(timeout=self.remaining(CHECKS_BY_S))
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        refs = {}
        for spec in specs:
            path = pathlib.Path(spec["out"])
            if not path.exists():
                raise RuntimeError(f"reference run for {self.workload} seed {spec['seed']} failed")
            refs[spec["seed"]] = json.loads(path.read_text())
        return refs

    def check(self, unit: dict, ref: dict) -> tuple[int, int, int, list[str]]:
        """(attempted, failed, cells completed, problems) for one unit,
        against the reference outputs of its input seed."""
        problems = []
        if self.kind == "sweep":
            cells = workloads.sweep_cells()
            artifact = unit["sweep"]
            if artifact is None:
                return cells, cells, 0, [f"sweep wrote no artifact (exit {unit['rc']})"]
            failed = len(artifact["failures"])
            problems += [f"cell {f['cell_id']} failed [{f['kind']}]" for f in artifact["failures"]]
            ok = 0
            for record in artifact["cells"]:
                expected = ref["fingerprints"].get(record["cell_id"])
                if record["status"] != "ok" or record["fingerprint"] != expected:
                    failed += 1
                    problems.append(f"cell {record['cell_id']}: fingerprint "
                                    f"{record['fingerprint']} != reference {expected}")
                else:
                    ok += 1
            rc = unit["main"]["rc"] if unit["main"] else unit["rc"]
            if rc != 0 and not failed:
                return cells, cells, 0, [f"sweep exited {rc}"]
            return cells, failed, ok, problems
        sims = self.sims(unit)
        if unit["rc"] != 0 or unit["main"] is None or unit["main"]["rc"] != 0 or len(sims) != 1:
            return 1, 1, 0, [f"unit exited {unit['rc']}: {unit['stderr'][-300:]}"]
        first = next(u for u in self.units if u["seed"] == unit["seed"])
        if self.kind == "run":
            if sims[0]["digest"] != ref["digest"]:
                problems.append(f"metric series {sims[0]['digest']} != scalar {ref['digest']}")
            if unit["stdout"] != first["stdout"]:
                problems.append("printed output differs from the first command's")
        else:
            problems += self.compare_series(sims[0]["prefix_series"], ref["prefix_series"])
            if sims[0]["digest"] != self.sims(first)[0]["digest"]:
                problems.append("metric series differ between units of one input")
        return 1, int(bool(problems)), int(not problems), problems

    def compare_series(self, got: dict, want: dict) -> list[str]:
        """Columnar vs scalar metric series, value by value.

        The engines are meant to be bit-identical.  At 100 DCs the
        columnar ``served`` sum can differ from the scalar one in the
        last bit (summation order) while replicas, storage and RNG state
        stay identical, so values are required to agree to
        ``SERIES_RTOL`` and any last-bit difference is reported in the
        notes rather than counted as a failure.
        """
        if sorted(got) != sorted(want):
            return [f"metric series names differ: {sorted(set(got) ^ set(want))}"]
        problems, inexact, worst = [], 0, 0.0
        for name in sorted(want):
            if len(got[name]) != len(want[name]):
                problems.append(f"series {name}: {len(got[name])} epochs, scalar has "
                                f"{len(want[name])}")
                continue
            for epoch, (a, b) in enumerate(zip(got[name], want[name])):
                if a == b:
                    continue
                rel = abs(a - b) / max(abs(a), abs(b))
                inexact, worst = inexact + 1, max(worst, rel)
                if rel > SERIES_RTOL:
                    problems.append(f"series {name} epoch {epoch}: {a!r} != scalar {b!r}")
        if inexact:
            self.inexact.append((inexact, worst))
        return problems

    # -- end-to-end metrics ---------------------------------------------------
    def end_to_end(self, units: list[dict], cells_ok: int) -> dict:
        walls = [u["wall"] for u in units]
        setups, epochs = [], 0
        for u in units:
            for sim in self.sims(u):
                origin = sim["setup_start"] if self.kind == "sweep" else u["start"]
                if sim["first_epoch"] is not None:
                    setups.append(sim["first_epoch"] - origin)
                epochs += sim["epochs"]
        tail_s, tail_label = tail(walls)
        self.notes["wall_tail_s"] = tail_label
        self.notes["setup_s"] = f"median of {len(setups)} set-ups"
        self.notes["peak_rss_mb"] = "median over units of the unit's processes' peak"
        return {
            "wall_s": median(walls), "wall_tail_s": tail_s, "setup_s": median(setups),
            "epochs_per_s": epochs / sum(walls),
            "cells_per_s": cells_ok / sum(walls),
            "peak_rss_mb": median([u["main"]["maxrss_kb"] / 1024 for u in units if u["main"]]),
        }

    # -- per-layer metrics ----------------------------------------------------
    def layer_metrics(self, unit: dict) -> dict:
        """Per-layer values of one traced unit."""
        main = unit["main"]
        dumps = [main, *unit["workers"]]
        spans = [s for d in dumps for s in d["spans"]]
        extra = [
            {"id": "unit", "name": "unit", "start": unit["start"], "end": unit["end"],
             "pid": main["pid"], "parent": None},
            {"id": "start", "name": "proc.start", "start": unit["start"], "end": main["t0"],
             "pid": main["pid"], "parent": "unit"},
            {"id": "exit", "name": "proc.exit", "start": main["end"], "end": unit["end"],
             "pid": main["pid"], "parent": "unit"},
        ]
        for span in spans:
            if span["parent"] is None:
                span["parent"] = "unit"
        spans = extra + spans
        for span in spans:
            span["unit"] = unit["dir"].name
        unit["spans"] = spans
        weight = {s["id"]: 1.0 if s["pid"] == main["pid"] else 1.0 / self.lanes for s in spans}
        self_s = {s["id"]: s["end"] - s["start"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                parent = s["parent"]
                self_s[parent] -= (s["end"] - s["start"]) * weight[s["id"]] / weight[parent]
        by_id = {s["id"]: s for s in spans}
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_incl = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            if s["name"] in layer_self:
                layer_self[s["name"]] += self_s[s["id"]] * weight[s["id"]]
                if by_id.get(s["parent"], {}).get("name") != s["name"]:
                    layer_incl[s["name"]] += (s["end"] - s["start"]) * weight[s["id"]]
        unit["inclusive"] = layer_incl

        def total(name):
            return sum(s["end"] - s["start"] for s in spans if s["name"] == name
                       and by_id.get(s["parent"], {}).get("name") != name)

        def count(name):
            return sum(1 for s in spans if s["name"] == name)

        sims = self.sims(unit)
        work = {name: sum(d["work"].get(name, 0.0) for d in dumps) for name in WORK}
        phases = {k: {p: sum(d["phases"][k][p] for d in dumps) for p in PHASES}
                  for k in ("bootstrap", "steady")}
        decide = {}
        for d in dumps:
            for policy, (seconds, calls) in d["decide"].items():
                acc = decide.setdefault(policy, [0.0, 0])
                acc[0] += seconds
                acc[1] += calls
        boot_epochs = sum(s["bootstrap_epochs"] for s in sims)
        steady_epochs = sum(s["epochs"] for s in sims) - boot_epochs
        boot_ms = 1000 * total("sim.bootstrap") / max(count("sim.bootstrap"), 1)
        steady_ms = 1000 * total("sim.steady") / max(count("sim.steady"), 1)
        proposed = sum(d["actions_proposed"] for d in dumps)
        applied = sum(work[n] for n in ("replicate_actions", "migrate_actions", "evict_actions"))
        trace_s = total("workload.trace")
        cell_spans = [s["end"] - s["start"] for s in spans
                      if s["name"] == ("sweep.cell" if self.kind == "sweep" else "main")]
        out = {
            "proc.start_s": main["t0"] - unit["start"],
            "cli.import_s": total("cli.import"),
            "cli.import_modules": main["modules"],
            "workload.trace_s": trace_s,
            "workload.queries_per_s": sum(d["trace_queries"] for d in dumps) / trace_s,
            "sim.construct_s": total("sim.construct"),
            "sim.bootstrap_s": median([s["bootstrap_end"] - s["first_epoch"] for s in sims
                                       if s["bootstrap_end"] is not None]),
            "sim.bootstrap_epochs": boot_epochs,
            "sim.bootstrap_epoch_ms": boot_ms,
            "sim.steady_epoch_ms": steady_ms,
            "sim.bootstrap_ratio": boot_ms / steady_ms if steady_ms else 0.0,
            "policy.actions_proposed": proposed,
            "sim.actions_applied": applied,
            "sim.apply_useful_ratio": applied / proposed if proposed else 0.0,
            "sweep.cell_s": median(cell_spans),
            "sweep.overhead_s": unit["wall"] - sum(cell_spans) / self.lanes,
            "sweep.worker_busy_frac": sum(cell_spans) / (unit["wall"] * self.lanes),
            "trace.remainder_s": self_s["unit"],
        }
        for p in PHASES:
            out[f"sim.phase.{p}_ms"] = 1000 * phases["steady"][p] / max(steady_epochs, 1)
            out[f"sim.phase.{p}.bootstrap_ms"] = 1000 * phases["bootstrap"][p] / max(boot_epochs, 1)
        for policy in workloads.SWEEP_POLICIES:
            seconds, calls = decide.get(policy, (0.0, 0))
            out[f"policy.{policy}.decide_ms"] = 1000 * seconds / calls if calls else 0.0
        for name in WORK:
            out[f"work.{name}"] = work[name]
        for layer in LAYERS:
            out[f"self.{layer}_s"] = layer_self[layer]
        return out

    def probes(self, untraced_sweep: dict) -> dict:
        """Observer overhead and artifact I/O, measured on the sweep only:
        the other workloads attach no observers and write no artifacts."""
        out = {"obs.overhead_frac": 0.0}
        out.update({f"artifact.{f}.{m}": 0.0 for f in FORMATS for m in ("save_s", "load_s", "bytes")})
        if self.kind != "sweep" or untraced_sweep["sweep"] is None:
            return out
        obs_file = self.work / "probe-obs.json"
        self.spawn("probe-obs", {"out": str(obs_file), "seed": untraced_sweep["seed"]})
        out["obs.overhead_frac"] = json.loads(obs_file.read_text())["overhead_frac"]
        io_file = self.work / "probe-io.json"
        self.spawn("probe-artifacts", {"out": str(io_file), "delay": self.delay_save,
                                       "sweep": str(untraced_sweep["dir"] / "sweep")})
        for fmt, stats in json.loads(io_file.read_text()).items():
            for m in ("save_s", "load_s", "bytes"):
                out[f"artifact.{fmt}.{m}"] = stats[m]
        return out

    # -- the run ----------------------------------------------------------------
    def run(self, seconds: float, traced: bool) -> dict:
        self.traced = traced
        self.warm()
        self.closed_loop(seconds, (False, True) if traced else (False,))
        refs = self.references()
        attempted = failed = cells_ok = 0
        problems = []
        for unit in self.units:
            a, f, ok, why = self.check(unit, refs[unit["seed"]])
            attempted, failed, cells_ok = attempted + a, failed + f, cells_ok + ok
            problems += why
        untraced = [u for u in self.units if not u["traced"]]
        if not traced:
            metrics = self.end_to_end(untraced, cells_ok)
            units = END_TO_END
        else:
            traced_units = [u for u in self.units if u["traced"]]
            per_unit = [self.layer_metrics(u) for u in traced_units]
            metrics = {name: mean([m[name] for m in per_unit]) for name in per_unit[0]}
            for name in EXACT:
                if len({m[name] for m in per_unit}) != 1:
                    problems.append(f"{name} differs between traced units of one input")
            metrics.update(self.probes(untraced[0]))
            metrics["trace.wall_s"] = mean([u["wall"] for u in traced_units])
            metrics["trace.untraced_wall_s"] = mean([u["wall"] for u in untraced])
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
            units = PER_LAYER
            spans = [s for u in traced_units for s in u["spans"]]
            (self.work.parent / f"{self.workload}.spans.json").write_text(json.dumps(spans))
        self.problems = problems
        return {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        }


def report(bench: Bench, args, result: dict) -> None:
    """Every metric by name and unit, then the JSON line (last on stdout)."""
    info = machine()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"machine: cpu={info['cpu']!r} nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']}")
    print(f"closed loop: 1 client, {bench.lanes} worker(s) per unit, "
          f"{len(bench.units)} unit process(es)")
    frac = result["failed"] / result["attempted"]
    print(f"outputs: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {frac:.4f}), correct={result['correct']}")
    for problem in bench.problems[:20]:
        print(f"  problem: {problem}")
    if bench.inexact:
        values, worst = sum(n for n, _ in bench.inexact), max(w for _, w in bench.inexact)
        print(f"  deviation: in {len(bench.inexact)} unit(s) the columnar metric series differ "
              f"from the scalar engine's in the last bits ({values} value(s) of the first "
              f"{workloads.SCALE_REFERENCE_EPOCHS} epochs, max relative difference {worst:.3g})")
    walls = ", ".join(f"{u['wall']:.3f}" for u in bench.units)
    print(f"unit wall times, in order (s): {walls}")
    for name, entry in result["metrics"].items():
        note = bench.notes.get(name, "")
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']:<6} {note}")
    if args.trace:
        layers = {n[5:-2]: e["value"] for n, e in result["metrics"].items() if n.startswith("self.")}
        wall = result["metrics"]["trace.wall_s"]["value"]
        traced = [u for u in bench.units if u["traced"]]
        print(f"self-time accounting of the traced unit (mean of {len(traced)}, "
              f"{wall:.4f} s wall; inclusive = with child layers; worker time / "
              f"{bench.lanes} lane(s)):")
        print(f"  {'layer':<16} {'self s':>10} {'share':>7} {'inclusive s':>12}")
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            incl = mean([u["inclusive"][layer] for u in traced])
            print(f"  {layer:<16} {value:10.4f} {100 * value / wall:6.1f}% {incl:12.4f}")
        remainder = result["metrics"]["trace.remainder_s"]["value"]
        print(f"  {'remainder':<16} {remainder:10.4f} {100 * remainder / wall:6.1f}%")
        total = sum(layers.values()) + remainder
        print(f"  {'sum':<16} {total:10.4f} {100 * total / wall:6.1f}%")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(KINDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-checks of the benchmark itself (perfbench/tests):
    parser.add_argument("--delay-save", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--inject-crash", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work,
                  delay_save=args.delay_save, inject_crash=args.inject_crash)
    try:
        result = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(bench, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
