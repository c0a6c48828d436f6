"""Run all four algorithms on one scenario (the paper's chart layout).

Every figure in Section III overlays the four algorithms on identical
workloads; :func:`compare_policies` reproduces that by replaying one
recorded trace through four fresh simulations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runner import ExperimentResult, run_experiment
from .scenarios import Scenario

__all__ = ["POLICIES", "ComparisonResult", "compare_policies"]

#: The paper's four algorithms, in its legend order.
POLICIES: tuple[str, ...] = ("request", "owner", "random", "rfh")


@dataclass(frozen=True)
class ComparisonResult:
    """All four policies' results on one scenario."""

    scenario: str
    results: dict[str, ExperimentResult]

    def __getitem__(self, policy: str) -> ExperimentResult:
        return self.results[policy]

    def policies(self) -> tuple[str, ...]:
        return tuple(self.results)

    def series_table(self, name: str) -> dict[str, np.ndarray]:
        """One metric series for every policy."""
        return {policy: res.series(name) for policy, res in self.results.items()}

    def steady_table(self, name: str, tail: int = 30) -> dict[str, float]:
        """Steady-state value of one metric for every policy."""
        return {policy: res.steady(name, tail) for policy, res in self.results.items()}

    def total_table(self, name: str) -> dict[str, float]:
        """Whole-run total of one per-epoch metric for every policy."""
        return {
            policy: float(res.series(name).sum())
            for policy, res in self.results.items()
        }

    def ranking(self, name: str, tail: int = 30, descending: bool = True) -> list[str]:
        """Policies ordered by steady-state value of a metric."""
        table = self.steady_table(name, tail)
        return sorted(table, key=lambda p: table[p], reverse=descending)


def compare_policies(
    scenario: Scenario,
    policies: tuple[str, ...] = POLICIES,
    *,
    tracer=None,
    invariants=None,
    observers=None,
    engine: str = "scalar",
) -> ComparisonResult:
    """Run every policy on the scenario's shared trace.

    ``tracer`` is shared across runs (every record carries a ``policy``
    field, so one JSONL file can hold all four algorithms).
    ``observers``, called once per policy with the policy name, returns
    that run's observer keywords for
    :func:`~repro.experiments.runner.run_experiment` (``profiler``,
    ``timeseries``, ``sanitizer``, ``provenance``, ...): phase timings,
    trajectories, fingerprint chains and decision ledgers must not mix
    runs, so each policy gets fresh ones.  They stay reachable through
    ``result[policy].simulation``.  ``engine`` selects the epoch core
    for every run (see :func:`~repro.experiments.runner.run_experiment`).
    """
    results = {
        policy: run_experiment(
            policy,
            scenario,
            tracer=tracer,
            invariants=invariants,
            engine=engine,
            **(observers(policy) if observers is not None else {}),
        )
        for policy in policies
    }
    return ComparisonResult(scenario=scenario.name, results=results)
