"""The benchmark's three workloads: what one unit runs, derived from the seed.

Imported by both the driving client (``run.py``, which must stay free of
``repro`` imports so its own memory is not counted as the program's) and
the unit processes (``child.py``).
"""

from __future__ import annotations

#: ``repro run`` at Table I defaults (10 DCs, 64 partitions, lambda=300,
#: 250 epochs, random-query) on the columnar engine.
RUN_ARGS = ("run", "--policy", "rfh", "--engine", "columnar")

#: The large-scale case: 100 DCs with one server each on a ring WAN,
#: Zipf 2.0.  Scaled down from ROADMAP item 2's 10^5 partitions so that a
#: unit takes seconds and several fit in one measured run; at this size
#: it still starts empty and spends two epochs in bootstrap, each ~8x a
#: steady epoch.
SCALE_DATACENTERS = 100
SCALE_PARTITIONS = 20_000
SCALE_QUERIES = 10_000.0
SCALE_ZIPF = 2.0
SCALE_EPOCHS = 22
#: Epochs of a scale unit that the scalar reference engine replays (the
#: whole run costs ~12 s on the scalar engine; the prefix covers
#: bootstrap and the first steady epochs).
SCALE_REFERENCE_EPOCHS = 4

#: ``repro sweep`` over {4 policies} x {random, failure} at 320 epochs
#: (past the epoch-290 mass failure) on the scalar engine, 2 workers.
#: One sweep covers one seed, so that several sweeps fit in a measured
#: run; consecutive sweeps alternate between the run's two seeds.
SWEEP_POLICIES = ("rfh", "random", "owner", "request")
SWEEP_SCENARIOS = ("random", "failure")
SWEEP_EPOCHS = 320
SWEEP_WORKERS = 2

#: Inputs a run cycles through, unit by unit, all derived from its seed.
#: The scale run's peak memory (which pages of the dense trace are
#: touched) and bootstrap work vary with the input, so each run covers
#: three; the Table I command does not, so it repeats one.
INPUTS_PER_RUN = {"run": 1, "scale": 3, "sweep": 2}


def unit_seed(kind: str, seed: int, unit: int) -> int:
    """The input seed of the ``unit``-th unit of a run with ``seed``."""
    inputs = INPUTS_PER_RUN[kind]
    return seed * inputs + unit % inputs


def run_args(seed: int) -> list[str]:
    return [*RUN_ARGS, "--seed", str(seed)]


def sweep_args(seed: int, out: str, inject_crash: str | None = None) -> list[str]:
    args = [
        "sweep",
        "--policies", *SWEEP_POLICIES,
        "--scenarios", *SWEEP_SCENARIOS,
        "--seeds", str(seed),
        "--epochs", str(SWEEP_EPOCHS),
        "--max-workers", str(SWEEP_WORKERS),
        "--out", out,
    ]
    if inject_crash:
        args += ["--inject-crash", inject_crash]
    return args


def sweep_cells() -> int:
    return len(SWEEP_POLICIES) * len(SWEEP_SCENARIOS)
