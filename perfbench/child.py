"""One benchmark process: a workload unit, a reference run, or a probe.

Usage (from ``run.py``, with ``PYTHONPATH`` holding the checkout's ``src``)::

    python perfbench/child.py unit '{"kind": "run", "out": DIR, "seed": 7, ...}'
    python perfbench/child.py reference '{"kind": "scale", "out": FILE, "seed": 7}'
    python perfbench/child.py probe-obs '{"out": FILE, "seed": 7}'
    python perfbench/child.py probe-artifacts '{"out": FILE, "sweep": DIR}'

A unit writes ``<out>/<pid>.json`` per process (see :mod:`hooks`); the
other modes write one JSON object to ``out``.
"""

import time

T0 = time.monotonic()  # before any import: the end of interpreter start-up

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def unit(spec: dict) -> int:
    """One workload unit, as a user would run it, in this fresh process."""
    import resource

    from hooks import Hooks, now

    hooks = Hooks(spec["out"], traced=bool(spec["traced"]), delay_save=spec.get("delay", 0.0))
    span = hooks.open("cli.import")
    import repro.cli

    hooks.close(span)
    modules = len(sys.modules)
    kind, seed = spec["kind"], int(spec["seed"])
    span = hooks.open("bench.hooks")  # may pull imports the unit makes later forward
    hooks.install(kind)
    hooks.close(span)
    rc = 0
    if kind == "scale":
        span = hooks.open("main")
        scale_run(seed)
        hooks.close(span)
    else:
        if kind == "run":
            argv = workloads.run_args(seed)
        else:
            argv = workloads.sweep_args(seed, spec["sweep"], spec.get("inject_crash"))
        try:
            rc = repro.cli.main(argv)
        except SystemExit as exc:  # argparse / usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    end = now()
    maxrss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    hooks.finish_sims(
        digests=kind != "sweep",
        prefix=workloads.SCALE_REFERENCE_EPOCHS if kind == "scale" else None,
    )
    hooks.dump({"t0": T0, "modules": modules, "rc": rc, "end": end, "maxrss_kb": maxrss_kb})
    return 0


def scale_config(seed: int):
    from repro.config import ClusterParameters, SimulationConfig, WorkloadParameters

    return SimulationConfig(
        seed=seed,
        cluster=ClusterParameters(rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1),
        workload=WorkloadParameters(
            queries_per_epoch_mean=workloads.SCALE_QUERIES,
            num_partitions=workloads.SCALE_PARTITIONS,
            zipf_exponent=workloads.SCALE_ZIPF,
        ),
    )


def scale_world(seed: int, epochs: int, engine: str):
    """The scale-dc100 simulation, built through the public API."""
    import repro.experiments.scenarios as scenarios
    from repro.geo import build_synthetic_hierarchy
    from repro.net import build_ring_wan
    from repro.sim import Simulation
    from repro.sim.columnar import ColumnarSimulation

    config = scale_config(seed)
    scenario = scenarios.random_query_scenario(
        config, epochs=epochs, num_datacenters=workloads.SCALE_DATACENTERS
    )
    hierarchy = build_synthetic_hierarchy(workloads.SCALE_DATACENTERS)
    cls = ColumnarSimulation if engine == "columnar" else Simulation
    return cls(
        config, policy="rfh", hierarchy=hierarchy, wan=build_ring_wan(hierarchy),
        workload=scenario.trace,
    )


def scale_run(seed: int) -> None:
    sim = scale_world(seed, workloads.SCALE_EPOCHS, "columnar")
    sim.run(workloads.SCALE_EPOCHS)


def reference(spec: dict) -> dict:
    """Outputs of the scalar reference engine (or, for the sweep, the
    columnar engine, whose chains the differential suite proves equal)."""
    from hooks import metrics_digest

    kind, seed = spec["kind"], int(spec["seed"])
    if kind == "run":
        import repro.cli as cli
        from repro.experiments.runner import run_experiment

        args = cli.build_parser().parse_args(workloads.run_args(seed))
        result = run_experiment(args.policy, cli._scenario(args), engine="scalar")
        return {"digest": metrics_digest(result.metrics)}
    if kind == "scale":
        epochs = workloads.SCALE_REFERENCE_EPOCHS
        sim = scale_world(seed, epochs, "scalar")
        sim.run(epochs)
        return {"prefix_series": {name: sim.metrics.array(name).tolist()
                                  for name in sim.metrics.names()}}
    import repro.cli as cli
    from repro.experiments.runner import run_experiment
    from repro.staticcheck.sanitizer import DeterminismSanitizer
    from repro.sweep.manifest import build_cell_scenario

    args = cli.build_parser().parse_args(workloads.sweep_args(seed, "unused"))
    chains = {}
    for cell in cli._sweep_manifest(args).cells():
        sanitizer = DeterminismSanitizer()
        run_experiment(
            cell.policy, build_cell_scenario(cell), sanitizer=sanitizer, engine="columnar"
        )
        chains[cell.cell_id] = sanitizer.trail().final_chain
    return {"fingerprints": chains}


def probe_obs(spec: dict) -> dict:
    """One sweep cell (rfh, failure scenario) bare and with the sweep's
    observers attached, through ``run_experiment``; alternating order."""
    import statistics

    from repro.experiments.runner import run_experiment
    from repro.obs.timeseries import TimeseriesRecorder
    from repro.staticcheck.sanitizer import DeterminismSanitizer
    from repro.sweep.manifest import SweepCell, SweepScale, build_cell_scenario

    cell = SweepCell(
        policy="rfh", scenario="failure", seed=int(spec["seed"]), scale=SweepScale("paper"),
        engine="scalar", epochs=workloads.SWEEP_EPOCHS,
    )
    times: dict[str, list[float]] = {"bare": [], "observed": []}
    for mode in ("bare", "observed", "observed", "bare"):
        scenario = build_cell_scenario(cell)
        observers = {}
        if mode == "observed":
            observers = {"timeseries": TimeseriesRecorder(stride=1),
                         "sanitizer": DeterminismSanitizer()}
        start = time.monotonic()
        run_experiment(cell.policy, scenario, engine=cell.engine, **observers)
        times[mode].append(time.monotonic() - start)
    bare = statistics.median(times["bare"])
    return {"bare_s": bare, "observed_s": statistics.median(times["observed"]),
            "overhead_frac": statistics.median(times["observed"]) / bare - 1.0}


def probe_artifacts(spec: dict) -> dict:
    """Load and re-save every artifact format one sweep wrote, through
    each format's public loader and saver; sizes are of the files as the
    sweep wrote them."""
    from hooks import Hooks
    from repro.metrics.export import from_csv, to_csv
    from repro.obs.timeseries.artifact import TsdbArtifact
    from repro.staticcheck.sanitizer import FingerprintTrail
    from repro.sweep.artifact import SweepArtifact, _clean
    from repro.sweep.manifest import SweepManifest
    from repro.sweep.worker import load_cell_record

    sweep_dir = pathlib.Path(spec["sweep"])
    scratch = pathlib.Path(spec["out"]).with_suffix(".tmp")
    if spec.get("delay"):
        Hooks(scratch.parent, traced=False, delay_save=spec["delay"])._install_save_delay()
    manifest = SweepManifest.load(sweep_dir / "manifest.json")
    cells = {cell.dirname: cell for cell in manifest.cells()}

    def load_record(path):
        return load_cell_record(cells[path.parent.name], path.parent, manifest.manifest_hash)

    def save_record(record, path):  # run_cell writes cell.json inline, like this
        path.write_text(json.dumps(_clean(record), indent=1, allow_nan=False) + "\n")

    formats = {
        "tsdb": ("run.tsdb.json", TsdbArtifact.load, lambda a, p: a.save(p)),
        "fp": ("run.fp.json", FingerprintTrail.load, lambda a, p: a.save(p)),
        "csv": ("metrics.csv", from_csv, to_csv),
        "cell": ("cell.json", load_record, save_record),
    }
    out = {}
    for fmt, (name, load, save) in formats.items():
        out[fmt] = _time_io(sorted(sweep_dir.glob(f"cells/*/{name}")), load, save, scratch)
    out["sweep"] = _time_io(
        [sweep_dir / "sweep.sweep.json"] * 5, SweepArtifact.load, lambda a, p: a.save(p), scratch
    )
    scratch.unlink(missing_ok=True)
    return out


def _time_io(paths, load, save, scratch) -> dict:
    import statistics

    loads, saves = [], []
    for path in paths:
        start = time.monotonic()
        artifact = load(path)
        loads.append(time.monotonic() - start)
        start = time.monotonic()
        save(artifact, scratch)
        saves.append(time.monotonic() - start)
    return {"files": len(paths), "bytes": sum(p.stat().st_size for p in set(paths)),
            "load_s": statistics.median(loads), "save_s": statistics.median(saves)}


def main() -> int:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if mode == "unit":
        return unit(spec)
    handlers = {"reference": reference, "probe-obs": probe_obs,
                "probe-artifacts": probe_artifacts}
    result = handlers[mode](spec)
    pathlib.Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
