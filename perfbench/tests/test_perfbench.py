"""Self-checks of the benchmark (not part of the program's test suite).

Run from the root of a checkout; takes about five minutes on 2 cores::

    python -m pytest perfbench/tests -q

Each test drives ``perfbench/run.py`` the way the benchmark is run, as a
subprocess, and reads the JSON object on its last line.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = tuple(run.KINDS)
SEED = 5
#: Seconds per artifact ``.save()`` in the attribution self-check.
DELAY_S = 0.5


def bench(workload: str, trace: int, seconds: float = 1, seed: int = SEED, *extra: str,
          cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(res: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in res["metrics"].items()}


@pytest.fixture(scope="module")
def traced() -> dict[str, list[dict]]:
    """Two traced runs of every workload on one seed."""
    return {w: [result(bench(w, 1)) for _ in range(2)] for w in WORKLOADS}


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program():
    bare = HERE / "_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("cli-table1", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_untraced_run_reports_every_end_to_end_metric():
    res = result(bench("cli-table1", 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert [*res["metrics"]] == [name for name, _ in run.END_TO_END]
    assert all(v > 0 for v in values(res).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(traced, workload):
    for res in traced[workload]:
        assert res["correct"] and res["failed"] == 0
        assert [*res["metrics"]] == [name for name, _ in run.PER_LAYER]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_exactly(traced, workload):
    first, second = (values(res) for res in traced[workload])
    exact = [*run.EXACT, *(f"artifact.{f}.bytes" for f in ("tsdb", "fp", "csv"))]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["cli.import_modules"] > 0 and first["work.decisions_evaluated"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_the_traced_wall_time(traced, workload):
    for res in traced[workload]:
        m = values(res)
        layers = sum(v for n, v in m.items() if n.startswith("self."))
        assert layers + m["trace.remainder_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert abs(m["trace.remainder_s"]) < 0.05 * m["trace.wall_s"]


def test_import_is_the_largest_layer_of_a_cli_run(traced):
    m = values(traced["cli-table1"][0])
    selves = {n: v for n, v in m.items() if n.startswith("self.")}
    assert max(selves, key=selves.get) == "self.cli.import_s"


def test_epochs_are_the_largest_layers_at_scale(traced):
    m = values(traced["scale-dc100"][0])
    boot = m["sim.bootstrap_epochs"] * m["sim.bootstrap_epoch_ms"] / 1000
    steady = (run.workloads.SCALE_EPOCHS - m["sim.bootstrap_epochs"]) * m["sim.steady_epoch_ms"] / 1000
    others = [m[n] for n in ("cli.import_s", "workload.trace_s", "sim.construct_s",
                             "proc.start_s", "self.main_s", "self.proc.exit_s")]
    assert min(boot, steady) > max(others)
    assert m["sim.bootstrap_ratio"] > 1


def test_injected_crash_is_counted():
    res = result(bench("sweep-table1", 0, 1, SEED, "--inject-crash", "rfh-failure"))
    assert res["attempted"] == run.workloads.sweep_cells()  # one sweep
    assert res["failed"] == 1
    assert not res["correct"]


def test_save_delay_shows_in_the_sweep_only(traced):
    """Every artifact ``.save()`` sleeps DELAY_S: the sweep's save time and
    throughput move, the workloads that write nothing do not."""
    delay = ("--delay-save", str(DELAY_S))
    sweep = values(result(bench("sweep-table1", 0)))
    slow_sweep = values(result(bench("sweep-table1", 0, 1, SEED, *delay)))
    # 2 saves per cell on 2 workers plus the merged artifact's one save
    cells = run.workloads.sweep_cells()
    predicted = (cells * 2 / run.workloads.SWEEP_WORKERS + 1) * DELAY_S
    assert slow_sweep["wall_s"] - sweep["wall_s"] > 0.5 * predicted
    assert slow_sweep["cells_per_s"] < sweep["cells_per_s"] * (1 - 0.25 * predicted / sweep["wall_s"])

    slow_traced = values(result(bench("sweep-table1", 1, 1, SEED, *delay)))
    base_traced = values(traced["sweep-table1"][0])
    for fmt in ("tsdb", "fp", "sweep"):
        assert slow_traced[f"artifact.{fmt}.save_s"] >= DELAY_S
        assert base_traced[f"artifact.{fmt}.save_s"] < DELAY_S
    assert slow_traced["self.artifact.save_s"] - base_traced["self.artifact.save_s"] > 0.5 * predicted

    for workload, seconds in (("cli-table1", 3), ("scale-dc100", 1)):
        base = values(result(bench(workload, 0, seconds)))
        slow = values(result(bench(workload, 0, seconds, SEED, *delay)))
        assert slow["wall_s"] == pytest.approx(base["wall_s"], rel=0.2)
        assert values(traced[workload][0])["self.artifact.save_s"] == 0
