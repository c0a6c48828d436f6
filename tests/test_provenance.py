"""The decision-provenance ledger: recorder capture, the ``.prov.json``
artifact, the ledger-vs-metrics lineage check and the shared
artifact-path helpers (``repro.obs.provenance`` / ``repro.obs.paths``)."""

import dataclasses
import json
import math
from collections import Counter

import pytest

from repro.config import SimulationConfig
from repro.errors import ProvenanceError
from repro.experiments.comparison import POLICIES, compare_policies
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import chaos_schedule, random_query_scenario
from repro.obs.paths import derived_path, split_suffix, tagged_path
from repro.obs.provenance import (
    ProvArtifact,
    ProvenanceRecorder,
    diff_provenance,
)
from repro.obs.trace import RingBufferTracer, TraceEvent
from repro.sim import reasons
from repro.sim.actions import Replicate, Suicide


def _scenario(epochs=12, partitions=16):
    config = SimulationConfig()
    config = dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, num_partitions=partitions),
    )
    return random_query_scenario(config, epochs=epochs)


def _recorded_run(epochs=12, policy="rfh", budget=None):
    recorder = (
        ProvenanceRecorder(budget=budget) if budget else ProvenanceRecorder()
    )
    result = run_experiment(policy, _scenario(epochs=epochs), provenance=recorder)
    return recorder, result


def _fate(epoch, action, fate, cause="", target_dc=-1):
    """The engine event that carries ``action``'s fate."""
    kind = type(action).__name__.lower()
    server = action.sid if kind == "suicide" else action.target_sid
    source = getattr(action, "source_sid", -1)
    if fate == "skipped":
        extra = {"action": kind, "cause": cause, "source": source}
        kind = "action_skipped"
    else:
        extra = {"dc": target_dc} if kind == "suicide" else {"source": source, "dc": target_dc}
    return TraceEvent(
        epoch=epoch,
        kind=kind,
        server=server,
        partition=action.partition,
        reason=action.reason,
        extra=extra,
    )


# ----------------------------------------------------------------------
# Recorder unit behaviour
# ----------------------------------------------------------------------
class TestRecorder:
    def test_close_seals_one_action_grow_xor_shrink(self):
        rec = ProvenanceRecorder()
        draft = rec.open(
            epoch=0, partition=3, avg_query=1.0, holder_traffic=2.0,
            unserved=0.0, mean_traffic=1.0, replica_count=1, rmin=2, holder_dc=0,
        )
        draft.branch = "availability"
        actions = [
            Replicate(3, 0, 5, reason=reasons.AVAILABILITY),
            Replicate(3, 0, 9, reason=reasons.TRAFFIC_HUB),
        ]
        rec.close(draft, actions, dc_of=lambda sid: sid // 10)
        (record,) = rec.records
        assert record.action == "replicate"
        assert record.reason == reasons.AVAILABILITY
        assert record.target_sid == 5
        assert record.target_dc == 0

    def test_note_fate_stamps_pending_record(self):
        rec = ProvenanceRecorder()
        draft = rec.open(
            epoch=0, partition=1, avg_query=1.0, holder_traffic=2.0,
            unserved=0.0, mean_traffic=1.0, replica_count=1, rmin=2, holder_dc=0,
        )
        action = Replicate(1, 0, 5, reason=reasons.AVAILABILITY)
        rec.close(draft, [action])
        rec.on_event(_fate(0, action, "applied", target_dc=4))
        (record,) = rec.records
        assert record.fate == "applied"
        assert record.target_dc == 4

    def test_note_fate_synthesizes_for_draftless_policy(self):
        rec = ProvenanceRecorder()
        action = Suicide(7, 42, reason=reasons.COLD_REPLICA)
        rec.on_event(_fate(3, action, "skipped", cause=reasons.SKIP_LAST_COPY))
        (record,) = rec.records
        assert record.partition == 7
        assert record.branch == ""
        assert record.action == "suicide"
        assert record.target_sid == 42
        assert record.fate == "skipped"
        assert record.fate_cause == reasons.SKIP_LAST_COPY

    def test_pending_does_not_leak_across_epochs(self):
        rec = ProvenanceRecorder()
        draft = rec.open(
            epoch=0, partition=1, avg_query=1.0, holder_traffic=2.0,
            unserved=0.0, mean_traffic=1.0, replica_count=1, rmin=2, holder_dc=0,
        )
        action = Replicate(1, 0, 5, reason=reasons.AVAILABILITY)
        rec.close(draft, [action])
        # A fate arriving in a later epoch must not match epoch 0's
        # pending decision; it synthesizes its own record instead.
        rec.on_event(_fate(1, action, "applied", target_dc=0))
        assert len(rec.records) == 2
        assert rec.records[0].fate == "none"
        assert rec.records[1].fate == "applied"

    def test_budget_compaction_drops_oldest_noops_keeps_actions(self):
        rec = ProvenanceRecorder(budget=4)
        for epoch in range(3):
            for partition in range(3):
                draft = rec.open(
                    epoch=epoch, partition=partition, avg_query=1.0,
                    holder_traffic=2.0, unserved=0.0, mean_traffic=1.0,
                    replica_count=2, rmin=2, holder_dc=0,
                )
                actions = (
                    [Replicate(partition, 0, 5, reason=reasons.AVAILABILITY)]
                    if partition == 0
                    else []
                )
                rec.close(draft, actions)
        assert len(rec.records) <= 4
        # Every action-bearing record survived compaction.
        kept_actions = [r for r in rec.records if r.action != "none"]
        assert len(kept_actions) == 3
        assert sum(rec.noop_dropped.values()) == 9 - len(rec.records)
        # Drops are accounted to the epochs whose no-ops were evicted.
        assert min(rec.noop_dropped) == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ProvenanceRecorder(budget=0)


# ----------------------------------------------------------------------
# Artifact round trip
# ----------------------------------------------------------------------
class TestArtifact:
    def test_round_trip_is_exact(self, tmp_path):
        recorder, _ = _recorded_run(epochs=8)
        artifact = recorder.artifact()
        path = tmp_path / "run.prov.json"
        artifact.save(path)
        loaded = ProvArtifact.load(path)
        assert loaded.meta == artifact.meta
        assert loaded.budget == artifact.budget
        assert len(loaded.records) == len(artifact.records)
        # Field-exact equality via the NaN-aware differ (NaN context
        # terms make plain dataclass equality always-false).
        assert diff_provenance(artifact, loaded).exit_code == 0
        # And a second save is byte-identical (deterministic encoder).
        path2 = tmp_path / "again.prov.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_nan_context_terms_survive_json(self, tmp_path):
        rec = ProvenanceRecorder()
        action = Suicide(1, 9, reason=reasons.COLD_REPLICA)
        rec.on_event(_fate(0, action, "applied", target_dc=0))
        path = tmp_path / "nan.prov.json"
        rec.artifact().save(path)
        # The file itself must be strict JSON (no bare NaN tokens).
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-prov"
        (record,) = ProvArtifact.load(path).records
        assert math.isnan(record.avg_query)

    def test_load_rejects_wrong_format_and_version(self, tmp_path):
        recorder, _ = _recorded_run(epochs=4)
        payload = recorder.artifact().to_dict()
        bad_format = dict(payload, format="not-prov")
        p1 = tmp_path / "bad1.prov.json"
        p1.write_text(json.dumps(bad_format))
        with pytest.raises(ProvenanceError):
            ProvArtifact.load(p1)
        bad_version = dict(payload, version=99)
        p2 = tmp_path / "bad2.prov.json"
        p2.write_text(json.dumps(bad_version))
        with pytest.raises(ProvenanceError):
            ProvArtifact.load(p2)

    def test_load_rejects_out_of_range_intern_index(self, tmp_path):
        recorder, _ = _recorded_run(epochs=4)
        payload = recorder.artifact().to_dict()
        payload["decisions"]["branch"][0] = 10_000
        path = tmp_path / "bad3.prov.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ProvenanceError):
            ProvArtifact.load(path)

    def test_missing_file_raises_provenance_error(self, tmp_path):
        with pytest.raises(ProvenanceError):
            ProvArtifact.load(tmp_path / "nope.prov.json")

    def test_partition_accessors(self):
        recorder, _ = _recorded_run(epochs=6)
        artifact = recorder.artifact()
        partitions = artifact.partitions()
        assert partitions
        some = partitions[0]
        rows = artifact.for_partition(some)
        assert rows and all(r.partition == some for r in rows)
        one_epoch = artifact.for_partition(some, epoch=rows[0].epoch)
        assert one_epoch and all(r.epoch == rows[0].epoch for r in one_epoch)


# ----------------------------------------------------------------------
# Engine integration & lineage guarantee
# ----------------------------------------------------------------------
def _assert_ledger_matches_metrics(policy, epochs):
    """Applied ledger records per (epoch, kind) equal the engine's
    replication/migration/suicide counts, and skipped records per epoch
    equal ``skipped_actions``: an oracle that does not pass through the
    event stream the ledger subscribes to."""
    scenario = dataclasses.replace(
        _scenario(epochs=epochs), chaos=chaos_schedule("wan-partition", epochs)
    )
    recorder = ProvenanceRecorder()
    result = run_experiment(policy, scenario, provenance=recorder)
    records = recorder.artifact().records
    applied = Counter((r.epoch, r.action) for r in records if r.fate == "applied")
    skipped = Counter(r.epoch for r in records if r.fate == "skipped")
    series = {
        "replicate": result.series("replication_count"),
        "migrate": result.series("migration_count"),
        "suicide": result.series("suicide_count"),
    }
    for epoch in range(epochs):
        for kind, counts in series.items():
            assert applied[(epoch, kind)] == counts[epoch], (policy, epoch, kind)
        assert skipped[epoch] == result.series("skipped_actions")[epoch], (policy, epoch)
    assert sum(applied.values()) > 0
    return sum(skipped.values())


class TestEngineIntegration:
    def test_every_trace_action_has_a_provenance_record(self):
        assert _assert_ledger_matches_metrics("rfh", epochs=40) > 0

    @pytest.mark.parametrize("policy", [p for p in POLICIES if p != "rfh"])
    def test_baseline_policies_get_synthesized_lineage(self, policy):
        _assert_ledger_matches_metrics(policy, epochs=30)

    def test_recorder_attachment_does_not_change_decisions(self):
        scenario = _scenario(epochs=12)
        bare = run_experiment("rfh", scenario)
        recorded = run_experiment("rfh", scenario, provenance=ProvenanceRecorder())
        for name in ("total_replicas", "migration_count", "unserved"):
            assert list(bare.series(name)) == list(recorded.series(name))

    def test_runner_stamps_identity_meta(self):
        recorder, _ = _recorded_run(epochs=4)
        meta = recorder.artifact().meta
        assert meta["policy"] == "rfh"
        assert meta["scenario"] == "random-query"
        assert meta["epochs"] == 12 or "seed" in meta

    def test_compare_provenance_factory_one_ledger_per_policy(self):
        recorders = {}

        def observers(policy):
            recorders[policy] = ProvenanceRecorder()
            return {"provenance": recorders[policy]}

        compare_policies(_scenario(epochs=6), ("rfh", "random"), observers=observers)
        assert set(recorders) == {"rfh", "random"}
        assert all(r.records for r in recorders.values())

    def test_decision_reason_columns_in_timeseries(self):
        from repro.obs.timeseries import TimeseriesRecorder

        ts = TimeseriesRecorder()
        run_experiment("rfh", _scenario(epochs=15), timeseries=ts)
        art = ts.artifact()
        decision_cols = [
            c for c in art.column_names() if c.startswith("decision/")
        ]
        assert f"decision/{reasons.AVAILABILITY}" in decision_cols
        total = sum(float(art.column(c).sum()) for c in decision_cols)
        assert total > 0

    def test_decision_columns_are_polarity_neutral_in_diff(self):
        from repro.obs.timeseries import polarity_of, tolerance_of

        assert polarity_of(f"decision/{reasons.TRAFFIC_HUB}") == 0
        tol = tolerance_of(f"decision/{reasons.TRAFFIC_HUB}")
        assert tol.rel == 0.25 and tol.abs == 5.0

    def test_dashboard_grows_decision_panel(self):
        from repro.obs.timeseries import TimeseriesRecorder, render_dashboard

        ts = TimeseriesRecorder()
        run_experiment("rfh", _scenario(epochs=10), timeseries=ts)
        html = render_dashboard(ts.artifact())
        assert "Decisions per epoch by reason" in html


# ----------------------------------------------------------------------
# Shared artifact-path helpers
# ----------------------------------------------------------------------
class TestPaths:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("out.tsdb.json", ("out", ".tsdb.json")),
            ("out.prov.json", ("out", ".prov.json")),
            ("dir/run.prof.json", ("dir/run", ".prof.json")),
            ("plain.json", ("plain", ".json")),
            ("noext", ("noext", "")),
            (".json", (".json", "")),
        ],
    )
    def test_split_suffix(self, path, expected):
        assert split_suffix(path) == expected

    def test_tagged_path_inserts_before_compound_suffix(self):
        assert tagged_path("out.tsdb.json", "rfh") == "out.rfh.tsdb.json"
        assert tagged_path("a/b/out.prov.json", "owner") == "a/b/out.owner.prov.json"
        assert tagged_path("noext", "rfh") == "noext.rfh"

    def test_derived_path_swaps_suffix(self):
        assert derived_path("run.prof.json", ".flame.html") == "run.flame.html"
        assert (
            derived_path("run.prof.json", ".speedscope.json")
            == "run.speedscope.json"
        )


# ----------------------------------------------------------------------
# The shared reason vocabulary
# ----------------------------------------------------------------------
class TestReasons:
    def test_action_reasons_are_closed_and_unique(self):
        assert len(set(reasons.ACTION_REASONS)) == len(reasons.ACTION_REASONS)
        assert reasons.TRAFFIC_HUB in reasons.ACTION_REASONS
        assert reasons.MEMBERSHIP_REBALANCE in reasons.ACTION_REASONS

    def test_rootcause_weights_use_shared_constants(self):
        from repro.obs.analysis.rootcause import CAUSE_WEIGHTS

        assert set(CAUSE_WEIGHTS) <= set(reasons.ATTRIBUTION_CAUSES)

    def test_policies_emit_only_known_reasons(self):
        tracer = RingBufferTracer()
        for policy in POLICIES:
            run_experiment(policy, _scenario(epochs=8), tracer=tracer)
        seen = {
            e.reason
            for e in tracer.events()
            if e.kind in ("replicate", "migrate", "suicide")
        }
        assert seen <= set(reasons.ACTION_REASONS) | {""}
