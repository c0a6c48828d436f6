"""The shared artifact codec (:mod:`repro.artifact`) and the CLI's error
boundary.

* every versioned format round-trips byte-identically and rejects
  non-JSON, non-object, foreign and future-version files with its own
  error class and a message naming the path;
* a writer that dies mid-save never leaves a truncated artifact;
* bad input to any artifact-reading command exits 2 with one stderr
  line, never a traceback.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.artifact import clean, read_json, restore, write_json
from repro.cli import main
from repro.errors import (
    ProvenanceError,
    SimulationError,
    SweepError,
    TsdbError,
)
from repro.metrics.export import from_json
from repro.obs.perf import PerfProfile, ProfileError
from repro.obs.provenance import ProvArtifact
from repro.obs.provenance.records import CandidateEval, DecisionRecord, PredicateEval
from repro.obs.timeseries import Marker, TsdbArtifact
from repro.staticcheck.baseline import Baseline, BaselineError
from repro.staticcheck.sanitizer import (
    EpochFingerprint,
    FingerprintError,
    FingerprintTrail,
)
from repro.sweep import SweepArtifact, SweepManifest, SweepScale
from repro.sweep.worker import CELL_ARTIFACTS, run_cell

SRC = Path(__file__).resolve().parents[1] / "src"
TINY = ["--epochs", "4", "--partitions", "8", "--rate", "60", "--seed", "3"]


def _tsdb() -> TsdbArtifact:
    return TsdbArtifact(
        epochs=np.arange(4),
        columns={
            "utilization": np.array([0.5, float("nan"), float("inf"), -0.0]),
            "counter/x": np.array([1.0, 2.0, 3.0, 4.0]),
        },
        markers=(Marker(2, "server_failure", "dc 1", 3),),
        meta={"policy": "rfh", "seed": 3},
        stride=2,
    )


def _prof() -> PerfProfile:
    return PerfProfile(
        meta={"policy": "rfh"},
        phases={"serve": {"count": 2, "total": 0.5, "mean": 0.25, "p50": 0.25, "p95": 0.3}},
        nodes=[{"stack": ["step"], "count": 2, "total_s": 0.5, "self_s": 0.1}],
        counters={"partitions_scanned": 128.0},
        allocations={"phase_bytes": {}, "top_sites": []},
    )


def _prov() -> ProvArtifact:
    record = DecisionRecord(
        epoch=3, partition=5, branch="availability", action="replicate",
        reason="below_rmin", target_sid=7, target_dc=2, source_sid=1,
        fate="applied", fate_cause="", avg_query=float("nan"),
        holder_traffic=12.5, unserved=0.0, mean_traffic=float("inf"),
        replica_count=1, rmin=2, holder_dc=0,
        predicates=(PredicateEval("Eq. 14", "partition 5", 1.0, 2.0, False),),
        candidates=(CandidateEval("target", 2, 7, "chosen", "", 0.1, float("nan")),),
    )
    return ProvArtifact(records=(record,), meta={"seed": 3}, budget=10, noop_dropped={3: 4})


def _fingerprint() -> FingerprintTrail:
    return FingerprintTrail(
        meta={"policy": "rfh"},
        records=[
            EpochFingerprint(
                epoch=0,
                components={"replicas": "00" * 8, "rng": "11" * 8},
                rng_streams={"workload": "22" * 8},
                chain="33" * 8,
            )
        ],
    )


def _sweep() -> SweepArtifact:
    manifest = SweepManifest(
        policies=("rfh",), seeds=(1,), epochs=4, scales=(SweepScale("tiny", 8, 60.0),)
    )
    return SweepArtifact(
        manifest=manifest,
        cells=[{"cell_id": "c", "status": "ok", "summaries": {"x": {"steady": float("nan")}}}],
        groups={"rfh/random/tiny/scalar": {"x": {"mean": 1.0, "ci_low": float("nan")}}},
        meta={"note": "tiny"},
    )


def _baseline() -> Baseline:
    return Baseline(
        [{"path": "m.py", "rule": "REP001", "line": 2, "snippet": "x", "fingerprint": "ab"}]
    )


#: format tag -> (sample factory, loader, error class).
FORMATS = {
    "repro-tsdb": (_tsdb, TsdbArtifact.load, TsdbError),
    "repro-prof": (_prof, PerfProfile.load, ProfileError),
    "repro-prov": (_prov, ProvArtifact.load, ProvenanceError),
    "repro-fingerprint": (_fingerprint, FingerprintTrail.load, FingerprintError),
    "repro-sweep": (_sweep, SweepArtifact.load, SweepError),
    "repro-lint-baseline": (_baseline, Baseline.load, BaselineError),
}


# ----------------------------------------------------------------------
# Codec contract, per format
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestCodecContract:
    def test_save_load_save_is_byte_identical(self, fmt, tmp_path):
        make, load, _ = FORMATS[fmt]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        make().save(first)
        load(first).save(second)
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert (payload["format"], payload["version"]) == (fmt, 1)
        assert list(payload)[:2] == ["format", "version"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    @pytest.mark.parametrize(
        "text, needle",
        [
            ('{"format": "repro-', "invalid JSON"),
            ("[1, 2, 3]", "not a JSON object"),
            ('{"format": "repro-other", "version": 1}', "not a {fmt} artifact"),
            (None, "unsupported {fmt} version 2"),
        ],
        ids=["not-json", "not-object", "wrong-format", "bumped-version"],
    )
    def test_bad_input_raises_the_format_error(self, fmt, text, needle, tmp_path):
        make, load, error = FORMATS[fmt]
        path = tmp_path / "bad.json"
        if text is None:
            payload = make().to_dict()
            payload["version"] = payload["version"] + 1
            text = json.dumps(payload)
        path.write_text(text)
        with pytest.raises(error) as excinfo:
            load(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert needle.format(fmt=fmt) in message
        assert fmt in message

    def test_missing_file_raises_the_format_error(self, fmt, tmp_path):
        _, load, error = FORMATS[fmt]
        missing = tmp_path / "missing.json"
        with pytest.raises(error, match="No such file"):
            load(missing)


def test_clean_restore_round_trip():
    value = {"a": [1.0, float("nan"), {"b": float("-inf")}], "c": 2, "d": "x"}
    cleaned = clean(value)
    assert cleaned == {"a": [1.0, None, {"b": None}], "c": 2, "d": "x"}
    json.dumps(cleaned, allow_nan=False)
    restored = restore(cleaned)
    assert math.isnan(restored["a"][1]) and math.isnan(restored["a"][2]["b"])
    assert restored["c"] == 2 and restored["a"][0] == 1.0
    assert clean(np.float64("nan")) is None


def test_metrics_from_json_rejects_non_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("epochs,1\n")
    with pytest.raises(SimulationError, match="invalid JSON"):
        from_json(path)
    with pytest.raises(SimulationError, match="No such file"):
        from_json(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class _Unencodable:
    """Not JSON-serializable: makes ``json.dumps`` raise partway through."""


class TestAtomicWrite:
    def test_failed_serialization_leaves_previous_file(self, tmp_path):
        path = tmp_path / "run.tsdb.json"
        _tsdb().save(path)
        before = path.read_bytes()
        broken = TsdbArtifact(
            epochs=np.arange(1),
            columns={"x": np.array([1.0])},
            meta={"ok": 1, "zzz": _Unencodable()},
        )
        with pytest.raises(TypeError):
            broken.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.tsdb.json"]

    def test_failed_cell_record_leaves_previous_cell_json(self, tmp_path, monkeypatch):
        import repro.sweep.worker as worker

        manifest = SweepManifest(
            policies=("rfh",), seeds=(1,), epochs=3, scales=(SweepScale("tiny", 8, 60.0),)
        )
        (cell,) = manifest.cells()
        cell_dir = tmp_path / cell.dirname
        run_cell(cell, cell_dir, manifest_hash=manifest.manifest_hash)
        record_path = cell_dir / CELL_ARTIFACTS["record"]
        before = record_path.read_bytes()
        # The record embeds the artifact table; an unencodable entry there
        # makes the serializer fail after most of the record is encoded.
        monkeypatch.setattr(
            worker, "CELL_ARTIFACTS", {**CELL_ARTIFACTS, "zzz": _Unencodable()}
        )
        with pytest.raises(TypeError):
            run_cell(cell, cell_dir, manifest_hash=manifest.manifest_hash)
        assert record_path.read_bytes() == before
        assert not [p.name for p in cell_dir.iterdir() if p.name.endswith(".tmp")]

    def test_writer_killed_mid_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "run.tsdb.json"
        _tsdb().save(path)
        before = path.read_bytes()
        script = textwrap.dedent(
            """
            import sys, time
            import numpy as np
            import repro.artifact as codec
            from repro.obs.timeseries import TsdbArtifact

            class Stalled:
                # Writes half of the document, then hangs until killed.
                def __init__(self, handle):
                    self.handle = handle
                def __enter__(self):
                    return self
                def __exit__(self, *exc):
                    self.handle.close()
                def write(self, text):
                    self.handle.write(text[: len(text) // 2])
                    self.handle.flush()
                    print("stalled", flush=True)
                    time.sleep(120)

            codec.open = lambda *a, **k: Stalled(open(*a, **k))
            n = 20000
            TsdbArtifact(
                epochs=np.arange(n),
                columns={f"c{i}": np.full(n, i + 0.5) for i in range(10)},
            ).save(sys.argv[1])
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "stalled"
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
            proc.communicate(timeout=30)
        assert path.read_bytes() == before
        TsdbArtifact.load(path)
        # Only the writer's hidden temp file can be left behind; it never
        # shadows the artifact, and the next save still succeeds.
        leftovers = [p.name for p in tmp_path.iterdir() if p != path]
        assert all(name.startswith(".run.tsdb.json.") for name in leftovers)
        _tsdb().save(path)
        assert path.read_bytes() == before

    def test_write_json_refuses_non_finite_floats(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"a": 1.0})
        with pytest.raises(ValueError):
            write_json(path, {"a": float("nan")})
        assert read_json(path, SweepError, "record") == {"a": 1.0}
        assert path.read_text() == '{\n "a": 1.0\n}\n'
        write_json(path, {"a": [1, 2]}, compact=True)
        assert path.read_text() == '{"a":[1,2]}\n'


# ----------------------------------------------------------------------
# The CLI error boundary
# ----------------------------------------------------------------------
def _artifacts(tmp_path: Path) -> dict[str, Path]:
    """One valid file per format, as the CLI commands read them."""
    out = {}
    for fmt, (make, _, _) in FORMATS.items():
        out[fmt] = tmp_path / f"good.{fmt}.json"
        make().save(out[fmt])
    return out


def _truncate(path: Path, dest: Path) -> Path:
    data = path.read_bytes()
    dest.write_bytes(data[: min(100, len(data) // 2)])
    return dest


#: command -> (format it reads, argv builder given the artifact path).
COMMANDS = {
    "diff": ("repro-tsdb", lambda good, bad: ["diff", str(good), str(bad)]),
    "explain": ("repro-prov", lambda good, bad: ["explain", str(bad), "--partition", "5"]),
    "provdiff": ("repro-prov", lambda good, bad: ["provdiff", str(bad), str(good)]),
    "perfdiff": ("repro-prof", lambda good, bad: ["perfdiff", str(good), str(bad)]),
    "sweepdiff": ("repro-sweep", lambda good, bad: ["sweepdiff", str(bad), str(good)]),
    "sanitize": (
        "repro-fingerprint",
        lambda good, bad: ["sanitize", *TINY, "--against", str(bad)],
    ),
    "lint": (
        "repro-lint-baseline",
        lambda good, bad: ["lint", str(bad.parent / "m.py"), "--baseline", str(bad)],
    ),
}


def _assert_clean_exit(code: int, err: str, *needles: str) -> None:
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("repro: ")
    for needle in needles:
        assert needle in lines[0]


class TestCliBoundary:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("damage", ["truncated", "wrong-format"])
    def test_bad_artifact_exits_2_with_one_line(self, command, damage, tmp_path, capsys):
        fmt, argv = COMMANDS[command]
        files = _artifacts(tmp_path)
        (tmp_path / "m.py").write_text("x = 1\n")
        if damage == "truncated":
            bad = _truncate(files[fmt], tmp_path / f"cut.{fmt}.json")
            needle = "invalid JSON"
        else:
            other = "repro-tsdb" if fmt != "repro-tsdb" else "repro-prov"
            bad = files[other]
            needle = f"not a {fmt} artifact"
        capsys.readouterr()
        code = main(argv(files[fmt], bad))
        _assert_clean_exit(code, capsys.readouterr().err, str(bad), needle)

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["run", "--epochs", "0"], "epochs must be >= 1"),
            (["run", "--partitions", "-3"], "num_partitions must be >= 1"),
            (["sweep", "--max-workers", "0", "--epochs", "2"], "--max-workers"),
            (["run", *TINY, "--provenance-out", "x", "--provenance-budget", "0"],
             "--provenance-budget"),
            (["analyze", "missing.jsonl"], "no such trace file: missing.jsonl"),
            (["analyze", "empty.jsonl"], "empty.jsonl holds no readable trace events"),
            (["analyze", "empty.jsonl", "--format", "prometheus"],
             "holds no readable trace events"),
        ],
        ids=[
            "epochs-0",
            "partitions-neg",
            "max-workers-0",
            "provenance-budget-0",
            "analyze-missing-trace",
            "analyze-empty-trace",
            "analyze-empty-trace-prometheus",
        ],
    )
    def test_bad_usage_exits_2_with_one_line(self, argv, needle, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.jsonl").write_text("")
        code = main(argv)
        _assert_clean_exit(code, capsys.readouterr().err, needle)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--epochs", "0"],
            ["run", "--partitions", "-3"],
            ["run", *TINY, "--csv", "no/such/dir/x.csv"],
            ["run", *TINY, "--json", "no/such/dir/x.json"],
            ["run", *TINY, "--timeseries-out", "no/such/dir/x.tsdb.json"],
        ],
    )
    def test_process_exit_code_and_stderr(self, argv, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        _assert_clean_exit(proc.returncode, proc.stderr)
