"""``repro explain`` narratives and ``repro provdiff`` decision diffs."""

import dataclasses

import pytest

from repro.cli import main
from repro.config import SimulationConfig
from repro.errors import ProvenanceError
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import random_query_scenario
from repro.obs.provenance import (
    ProvenanceRecorder,
    diff_provenance,
    render_explanation,
)

FAST = ["--epochs", "20", "--partitions", "8", "--rate", "60", "--seed", "3"]


def _config(beta: float | None = None) -> SimulationConfig:
    config = SimulationConfig()
    config = dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, num_partitions=16),
    )
    if beta is not None:
        config = dataclasses.replace(
            config, rfh=dataclasses.replace(config.rfh, beta=beta)
        )
    return config


def _ledger(epochs=20, beta=None):
    recorder = ProvenanceRecorder()
    scenario = random_query_scenario(_config(beta), epochs=epochs)
    run_experiment("rfh", scenario, provenance=recorder)
    return recorder.artifact()


@pytest.fixture(scope="module")
def artifact():
    return _ledger()


# ----------------------------------------------------------------------
# repro explain
# ----------------------------------------------------------------------
class TestExplain:
    def test_rendering_is_byte_stable_across_runs(self, artifact):
        partition = artifact.partitions()[0]
        again = _ledger()
        assert render_explanation(artifact, partition) == render_explanation(
            again, partition
        )

    def test_narrative_names_the_paper_equations(self, artifact):
        # Some partition took a load-branch action in 20 epochs; its
        # narrative must show the actual Eq. 12 comparison with slack.
        texts = [
            render_explanation(artifact, p) for p in artifact.partitions()
        ]
        joined = "\n".join(texts)
        assert "Eq. 14 availability floor" in joined
        assert "Eq. 12 overload (smoothed)" in joined
        assert "β·q̄" in joined
        assert "slack" in joined

    def test_single_epoch_filter(self, artifact):
        partition = artifact.partitions()[0]
        rows = artifact.for_partition(partition)
        epoch = rows[-1].epoch
        text = render_explanation(artifact, partition, epoch=epoch)
        assert f"epoch {epoch}]" in text
        other_epochs = [r.epoch for r in rows if r.epoch != epoch]
        if other_epochs:
            assert f"[epoch {other_epochs[0]}]" not in text

    def test_why_not_section(self, artifact):
        partition = artifact.partitions()[0]
        text = render_explanation(artifact, partition, why_not=0)
        assert "Why not dc 0" in text

    def test_unknown_partition_raises(self, artifact):
        with pytest.raises(ProvenanceError):
            render_explanation(artifact, 10_000)


# ----------------------------------------------------------------------
# repro provdiff
# ----------------------------------------------------------------------
class TestProvDiff:
    def test_same_seed_runs_are_identical(self, artifact):
        report = diff_provenance(artifact, _ledger())
        assert report.identical
        assert report.exit_code == 0
        assert "IDENTICAL" in report.describe()

    def test_beta_perturbation_is_pinpointed_to_the_term(self, artifact):
        perturbed = _ledger(beta=2.5)
        report = diff_provenance(artifact, perturbed)
        assert report.exit_code == 1
        first = report.first
        assert first is not None
        # β only enters through Eq. 12 (and its raw twin / the suicide
        # headroom gate derived from it), so the first divergent term
        # must name a β·q̄ threshold — not a downstream consequence.
        assert "β·q̄" in first.term
        # And the divergence names the earliest affected decision: no
        # aligned pair before (first.epoch, first.partition) differs.
        keyed = {
            (d.epoch, d.partition, d.seq) for d in report.divergences
        }
        assert min(keyed) == (first.epoch, first.partition, first.seq)

    def test_extra_decision_reports_presence_divergence(self, artifact):
        truncated = dataclasses.replace(
            artifact, records=artifact.records[:-1]
        )
        report = diff_provenance(artifact, truncated)
        assert report.exit_code == 1
        assert any(d.term == "decision presence" for d in report.divergences)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCli:
    def test_run_explain_provdiff_pipeline(self, tmp_path, capsys):
        a = tmp_path / "a.prov.json"
        b = tmp_path / "b.prov.json"
        for path in (a, b):
            assert main(["run", *FAST, "--provenance-out", str(path)]) == 0
        assert main(["provdiff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "IDENTICAL" in out
        rc = main(["explain", str(a), "--partition", "0", "--why-not", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Partition 0" in out
        assert "Why not dc 1" in out

    def test_explain_out_file(self, tmp_path, capsys):
        a = tmp_path / "a.prov.json"
        assert main(["run", *FAST, "--provenance-out", str(a)]) == 0
        dest = tmp_path / "narrative.txt"
        assert (
            main(["explain", str(a), "--partition", "0", "--out", str(dest)])
            == 0
        )
        capsys.readouterr()
        assert "Partition 0" in dest.read_text()

    def test_provdiff_gates_on_divergent_seeds(self, tmp_path, capsys):
        a = tmp_path / "a.prov.json"
        b = tmp_path / "b.prov.json"
        assert main(["run", *FAST, "--provenance-out", str(a)]) == 0
        other = [arg if arg != "3" else "4" for arg in FAST]
        assert main(["run", *other, "--provenance-out", str(b)]) == 0
        assert main(["provdiff", str(a), str(b)]) == 1
        assert "FIRST DIVERGENCE" in capsys.readouterr().out

    def test_explain_rejects_missing_artifact(self, tmp_path, capsys):
        missing = tmp_path / "no.prov.json"
        assert main(["explain", str(missing), "--partition", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: cannot read repro-prov artifact")
        assert str(missing) in err and err.count("\n") == 1

    def test_compare_writes_per_policy_ledgers(self, tmp_path, capsys):
        out = tmp_path / "cmp.prov.json"
        assert main(["compare", *FAST, "--provenance-out", str(out)]) == 0
        capsys.readouterr()
        for policy in ("request", "owner", "random", "rfh"):
            assert (tmp_path / f"cmp.{policy}.prov.json").exists()

    def test_run_budget_flag_compacts(self, tmp_path, capsys):
        out = tmp_path / "tiny.prov.json"
        assert (
            main(
                [
                    "run",
                    *FAST,
                    "--provenance-out",
                    str(out),
                    "--provenance-budget",
                    "40",
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "compacted" in stdout
        from repro.obs.provenance import ProvArtifact

        artifact = ProvArtifact.load(out)
        # Action-bearing records are never dropped, so the ledger may
        # exceed the budget only by the action count.
        assert artifact.num_decisions <= max(40, artifact.num_actions)
        assert artifact.noop_dropped_total > 0
