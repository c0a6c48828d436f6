"""Performance observability: profiler, counters, artifact, attribution.

The two load-bearing guarantees under test:

* **Determinism** — two same-seed runs produce bit-identical work
  counters and identical span-tree *shapes* (stack sets and per-stack
  call counts); only the measured seconds may differ.
* **Attribution** — an injected slowdown (a literal ``time.sleep`` in
  one kernel) is named by ``repro perfdiff``, down to the phase and the
  offending stack/function.
"""

import json
import re
import time

import numpy as np
import pytest

from repro.cli import main
from repro.config import SimulationConfig
from repro.experiments.scenarios import random_query_scenario
from repro.obs.perf import (
    PROF_FORMAT,
    PROF_VERSION,
    HotPathProfiler,
    PerfProfile,
    ProfileError,
    TraceProfiler,
    WorkCounters,
    build_profile,
    diff_profiles,
    profile_scenario,
    render_flamegraph,
    render_perfdiff_text,
)
from repro.obs.profiler import ENGINE_PHASES, NullProfiler, PhaseProfiler
from repro.obs.timeseries import TimeseriesRecorder, diff_artifacts
from repro.sim.engine import Simulation
from repro.sim.rng import RngTree

FAST = ["--epochs", "6", "--partitions", "8", "--rate", "60", "--seed", "3"]


def _small_profile(seed: int = 11, epochs: int = 6) -> PerfProfile:
    config = SimulationConfig(seed=seed)
    scenario = random_query_scenario(config, epochs=epochs)
    return profile_scenario("rfh", scenario, allocations=False)


# ----------------------------------------------------------------------
# Work counters
# ----------------------------------------------------------------------
class TestWorkCounters:
    def test_totals_flat_mapping(self):
        work = WorkCounters()
        work.partitions_scanned = 3
        work.rng_draws["workload"] = 7
        totals = work.totals()
        assert totals["partitions_scanned"] == 3.0
        assert totals["rng_draws/workload"] == 7.0
        assert totals["migrate_actions"] == 0.0

    def test_epoch_deltas_are_differences(self):
        work = WorkCounters()
        work.decisions_evaluated = 5
        first = work.epoch_deltas()
        assert first["decisions_evaluated"] == 5.0
        work.decisions_evaluated = 9
        second = work.epoch_deltas()
        assert second["decisions_evaluated"] == 4.0

    def test_reset(self):
        work = WorkCounters()
        work.graph_hops = 10
        work.rng_draws["x"] = 2
        work.epoch_deltas()
        work.reset()
        assert work.graph_hops == 0
        assert work.totals()["graph_hops"] == 0.0
        assert work.epoch_deltas()["graph_hops"] == 0.0


class TestRngDrawCounting:
    def test_counts_method_calls_per_stream(self):
        tree = RngTree(5)
        counts: dict[str, int] = {}
        tree.attach_draw_counter(counts)
        gen = tree.stream("workload")
        gen.random()
        gen.poisson(1.0, size=100)  # one vectorised call = one unit
        tree.stream("failures").integers(0, 10)
        assert counts == {"workload": 2, "failures": 1}

    def test_counting_does_not_perturb_draws(self):
        plain = RngTree(5).stream("workload")
        counted_tree = RngTree(5)
        counted_tree.attach_draw_counter({})
        counted = counted_tree.stream("workload")
        assert float(plain.random()) == float(counted.random())

    def test_stream_states_reads_real_generator(self):
        tree = RngTree(5)
        tree.attach_draw_counter({})
        tree.stream("workload").random()
        reference = RngTree(5)
        reference.stream("workload").random()
        assert tree.stream_states() == reference.stream_states()

    def test_attach_after_streams_exist_raises(self):
        tree = RngTree(5)
        tree.stream("workload")
        with pytest.raises(ValueError, match="before any stream"):
            tree.attach_draw_counter({})


# ----------------------------------------------------------------------
# Base profiler additions (call counts, merge, null spans)
# ----------------------------------------------------------------------
class TestPhaseProfilerAdditions:
    def test_call_counts(self):
        profiler = PhaseProfiler()
        with profiler.phase("serve"):
            pass
        with profiler.phase("serve"):
            pass
        assert profiler.call_counts()["serve"] == 2
        assert profiler.call_counts()["apply"] == 0

    def test_merge_extends_samples_and_registers_new_phases(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        with a.phase("serve"):
            pass
        with b.phase("serve"):
            pass
        with b.phase("warmup"):  # not one of the engine's six
            pass
        a.merge(b)
        assert a.call_counts()["serve"] == 2
        assert a.call_counts()["warmup"] == 1
        assert a.phase_timings()["serve"].count == 2

    def test_span_is_noop_on_base_and_null(self):
        for profiler in (PhaseProfiler(), NullProfiler()):
            with profiler.span("routing"):
                pass  # must not raise or record anything


# ----------------------------------------------------------------------
# HotPathProfiler span trees
# ----------------------------------------------------------------------
class TestHotPathProfiler:
    def test_nested_spans_build_stack_paths(self):
        profiler = HotPathProfiler()
        with profiler.phase("observe"):
            with profiler.span("decision-eval"):
                with profiler.span("threshold-checks"):
                    pass
        stacks = {";".join(n["stack"]) for n in profiler.span_nodes()}
        assert "observe" in stacks
        assert "observe;decision-eval" in stacks
        assert "observe;decision-eval;threshold-checks" in stacks

    def test_self_time_excludes_children(self):
        profiler = HotPathProfiler()
        with profiler.phase("observe"):
            with profiler.span("inner"):
                time.sleep(0.01)
        nodes = {";".join(n["stack"]): n for n in profiler.span_nodes()}
        parent, child = nodes["observe"], nodes["observe;inner"]
        assert child["self_s"] == child["total_s"]
        assert parent["self_s"] == pytest.approx(
            parent["total_s"] - child["total_s"]
        )
        assert child["total_s"] >= 0.01

    def test_merge_accumulates_nodes(self):
        a, b = HotPathProfiler(), HotPathProfiler()
        for profiler in (a, b):
            with profiler.phase("serve"):
                with profiler.span("routing"):
                    pass
        a.merge(b)
        nodes = {";".join(n["stack"]): n for n in a.span_nodes()}
        assert nodes["serve;routing"]["count"] == 2

    def test_reset_clears_nodes(self):
        profiler = HotPathProfiler()
        with profiler.phase("serve"):
            with profiler.span("routing"):
                pass
        profiler.reset()
        assert profiler.span_nodes() == []
        assert profiler.epochs_profiled() == 0


class TestTraceProfiler:
    def test_charges_sleep_to_calling_python_frame(self):
        def hot_spot():
            time.sleep(0.03)

        tracer = TraceProfiler()
        with tracer:
            hot_spot()
        hot = [
            n
            for n in tracer.span_nodes()
            if n["stack"][-1].endswith("hot_spot")
        ]
        assert hot, "hot_spot frame missing from the trace"
        assert float(hot[0]["self_s"]) >= 0.025


# ----------------------------------------------------------------------
# Determinism of counters and span-tree shape
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_same_counters_and_stack_shape(self):
        a = _small_profile(seed=11)
        b = _small_profile(seed=11)
        assert a.counters == b.counters
        assert a.counters  # non-trivial: the run counted something
        assert a.stack_keys() == b.stack_keys()
        counts_a = {";".join(n["stack"]): n["count"] for n in a.nodes}
        counts_b = {";".join(n["stack"]): n["count"] for n in b.nodes}
        assert counts_a == counts_b
        # Collapsed-stack *shape*: same stacks in the same order.
        def shape(p):
            return [line.rsplit(" ", 1)[0] for line in p.collapsed().splitlines()]

        assert shape(a) == shape(b)

    def test_profile_covers_the_kernel_spans(self):
        profile = _small_profile(seed=11)
        stacks = set(profile.stack_keys())
        assert set(ENGINE_PHASES) <= {s.split(";")[0] for s in stacks}
        for expected in (
            "observe;ewma-smoothing",
            "observe;decision-eval",
            "observe;decision-eval;threshold-checks",
            "serve;routing",
            "serve;overflow-recursion",
            "record;storage-accounting",
        ):
            assert expected in stacks

    def test_work_columns_recorded_per_epoch(self):
        recorder = TimeseriesRecorder(stride=1)
        work = WorkCounters()
        sim = Simulation(
            SimulationConfig(seed=5), policy="rfh", timeseries=recorder, work=work
        )
        sim.run(6)
        art = recorder.artifact()
        names = [n for n in art.column_names() if n.startswith("work/")]
        assert "work/decisions_evaluated" in names
        assert "work/partitions_scanned" in names
        # Per-epoch deltas sum back to the lifetime total.
        assert float(np.nansum(art.column("work/decisions_evaluated"))) == float(
            work.decisions_evaluated
        )

    def test_work_columns_are_diff_neutral(self):
        def record(scale: float):
            rec = TimeseriesRecorder(stride=1)
            for epoch in range(4):
                rec.sample(
                    epoch,
                    {"utilization": 0.5, "work/decisions_evaluated": 8.0 * scale},
                )
            return rec.artifact()

        report = diff_artifacts(record(1.0), record(3.0))
        assert report.exit_code() == 0  # more work alone never gates
        row = next(
            c for c in report.columns if c.name == "work/decisions_evaluated"
        )
        assert row.classification != "regressed"


# ----------------------------------------------------------------------
# Artifact round-trip and exporters
# ----------------------------------------------------------------------
class TestArtifact:
    def test_save_load_roundtrip(self, tmp_path):
        profile = _small_profile(seed=3, epochs=4)
        path = tmp_path / "run.prof.json"
        profile.save(path)
        loaded = PerfProfile.load(path)
        assert loaded.to_dict() == profile.to_dict()
        payload = json.loads(path.read_text())
        assert payload["format"] == PROF_FORMAT
        assert payload["version"] == PROF_VERSION

    def test_load_rejects_foreign_and_future_versions(self, tmp_path):
        foreign = tmp_path / "x.json"
        foreign.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ProfileError, match="not a repro-prof"):
            PerfProfile.load(foreign)
        future = tmp_path / "y.json"
        future.write_text(
            json.dumps({"format": PROF_FORMAT, "version": PROF_VERSION + 1})
        )
        with pytest.raises(ProfileError, match="version"):
            PerfProfile.load(future)

    def test_collapsed_format(self):
        profile = _small_profile(seed=3, epochs=4)
        lines = profile.collapsed().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack
            assert int(weight) >= 0

    def test_speedscope_document_is_valid(self):
        profile = _small_profile(seed=3, epochs=4)
        doc = profile.speedscope()
        assert doc["$schema"].endswith("file-format-schema.json")
        prof = doc["profiles"][0]
        assert prof["type"] == "sampled"
        assert len(prof["samples"]) == len(prof["weights"])
        num_frames = len(doc["shared"]["frames"])
        assert all(
            0 <= fid < num_frames for stack in prof["samples"] for fid in stack
        )
        assert prof["endValue"] == pytest.approx(sum(prof["weights"]))

    def test_flamegraph_is_self_contained(self):
        profile = _small_profile(seed=3, epochs=4)
        html = render_flamegraph(profile)
        assert not re.search(r"https?://", html)
        match = re.search(
            r'<script id="profile-data" type="application/json">(.*?)</script>',
            html,
            re.DOTALL,
        )
        assert match, "embedded profile data missing"
        embedded = json.loads(match.group(1))
        assert len(embedded["nodes"]) == len(profile.nodes)


# ----------------------------------------------------------------------
# Attribution: diffing and the injected-slowdown scenario
# ----------------------------------------------------------------------
def _session(slow: bool) -> PerfProfile:
    """One synthetic profiling session; ``slow`` injects a sleep into
    the ewma-smoothing kernel under the observe phase."""
    profiler = HotPathProfiler()
    for _ in range(3):
        with profiler.phase("observe"):
            with profiler.span("ewma-smoothing"):
                if slow:
                    time.sleep(0.02)
    return build_profile(profiler=profiler, meta={"policy": "rfh"})


class TestPerfDiff:
    def test_no_regression_between_identical_sessions(self):
        report = diff_profiles(_session(False), _session(False))
        assert report.exit_code() == 0

    def test_injected_slowdown_is_named(self):
        report = diff_profiles(_session(False), _session(True))
        assert report.exit_code() == 1
        names = [d.name for d in report.regressions()]
        assert "observe;ewma-smoothing" in names  # the offending kernel
        assert "observe" in names  # and its phase
        text = render_perfdiff_text(report)
        assert "REGRESSED" in text
        assert "observe;ewma-smoothing" in text

    def test_counters_neutral_unless_gated(self):
        base = PerfProfile(counters={"graph_hops": 100.0})
        cand = PerfProfile(counters={"graph_hops": 200.0})
        assert diff_profiles(base, cand).exit_code() == 0
        gated = diff_profiles(base, cand, gate_counters=True)
        assert gated.exit_code() == 1
        assert gated.regressions()[0].name == "graph_hops"

    def test_new_stack_compared_against_zero(self):
        base = _session(False)
        cand = build_profile(profiler=HotPathProfiler())
        with_extra = PerfProfile(
            meta={},
            phases=cand.phases,
            nodes=[
                {"stack": ["apply", "new-kernel"], "count": 1,
                 "total_s": 0.5, "self_s": 0.5}
            ],
        )
        report = diff_profiles(base, with_extra)
        assert any(
            d.name == "apply;new-kernel" and d.classification == "regressed"
            for d in report.deltas
        )

    def test_sleep_attributed_in_trace_mode(self):
        def run_once(slow: bool) -> PerfProfile:
            def hot_spot():
                if slow:
                    time.sleep(0.03)

            tracer = TraceProfiler()
            with tracer:
                for _ in range(3):
                    hot_spot()
            return build_profile(tracer=tracer)

        report = diff_profiles(run_once(False), run_once(True))
        assert report.exit_code() == 1
        assert any("hot_spot" in d.name for d in report.regressions())


# ----------------------------------------------------------------------
# CLI: repro profile / repro perfdiff
# ----------------------------------------------------------------------
class TestCli:
    def test_profile_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run.prof.json"
        code = main(["profile", *FAST, "--out", str(out)])
        assert code == 0
        profile = PerfProfile.load(out)
        assert profile.meta["policy"] == "rfh"
        assert profile.counters
        flame = tmp_path / "run.flame.html"
        scope = tmp_path / "run.speedscope.json"
        assert flame.exists() and scope.exists()
        assert not re.search(r"https?://", flame.read_text())
        scope_doc = json.loads(scope.read_text())
        assert scope_doc["profiles"][0]["type"] == "sampled"
        captured = capsys.readouterr().out
        assert "hottest" in captured
        assert "work counters" in captured

    def test_profile_trace_mode(self, tmp_path):
        out = tmp_path / "t.prof.json"
        code = main(
            ["profile", *FAST, "--mode", "trace", "--no-alloc",
             "--out", str(out), "--flamegraph", "", "--speedscope", ""]
        )
        assert code == 0
        profile = PerfProfile.load(out)
        assert profile.meta["mode"] == "trace"
        # Trace mode attributes to real functions, not hand-placed spans.
        assert any("engine.py" in key for key in profile.stack_keys())
        assert not (tmp_path / "t.flame.html").exists()

    def test_perfdiff_cli_names_the_regression(self, tmp_path, capsys):
        base, cand = tmp_path / "a.prof.json", tmp_path / "b.prof.json"
        _session(False).save(base)
        _session(True).save(cand)
        code = main(["perfdiff", str(base), str(cand)])
        assert code == 1
        out = capsys.readouterr().out
        assert "observe;ewma-smoothing" in out
        capsys.readouterr()
        assert main(["perfdiff", str(base), str(base)]) == 0

    def test_perfdiff_json_format(self, tmp_path, capsys):
        base, cand = tmp_path / "a.prof.json", tmp_path / "b.prof.json"
        _session(False).save(base)
        _session(True).save(cand)
        code = main(["perfdiff", str(base), str(cand), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] >= 1

    def test_perfdiff_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["perfdiff", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: cannot read repro-prof artifact")
        assert str(tmp_path / "a") in err and err.count("\n") == 1


# ----------------------------------------------------------------------
# Dashboard work panel
# ----------------------------------------------------------------------
class TestDashboardWorkPanel:
    def _artifact(self, scale: float = 1.0):
        rec = TimeseriesRecorder(stride=1)
        for epoch in range(5):
            rec.sample(
                epoch,
                {
                    "utilization": 0.5,
                    "work/decisions_evaluated": 8.0 * scale,
                    "work/graph_hops": 40.0 * scale,
                },
            )
        return rec.artifact()

    def test_work_panel_rendered(self):
        from repro.obs.timeseries import render_dashboard

        html = render_dashboard(self._artifact())
        assert "Work per epoch" in html
        assert "decisions_evaluated" in html
        assert not re.search(r"https?://", html)

    def test_work_panel_baseline_overlay(self):
        from repro.obs.timeseries import render_dashboard

        html = render_dashboard(self._artifact(2.0), self._artifact(1.0))
        assert "Work per epoch" in html
