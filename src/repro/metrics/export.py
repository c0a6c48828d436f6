"""Metric-series export: CSV and JSON.

Experiments end in a :class:`~repro.metrics.collector.MetricsCollector`;
these helpers dump it for external analysis (spreadsheets, notebooks,
plotting toolchains) with one row per epoch and one column per series,
plus round-tripping JSON for archival.
"""

from __future__ import annotations

import csv
import json
import pathlib

from ..artifact import read_json
from ..errors import SimulationError
from .collector import MetricsCollector

__all__ = ["to_csv", "from_csv", "to_json", "from_json"]


def to_csv(metrics: MetricsCollector, path: str | pathlib.Path) -> None:
    """Write one row per epoch, one column per series (plus ``epoch``)."""
    if metrics.num_epochs == 0:
        raise SimulationError("refusing to export an empty collector")
    names = metrics.names()
    with open(pathlib.Path(path), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("epoch", *names))
        columns = [metrics.series(name).values for name in names]
        for epoch in range(metrics.num_epochs):
            writer.writerow((epoch, *(column[epoch] for column in columns)))


def from_csv(path: str | pathlib.Path) -> MetricsCollector:
    """Rebuild a collector from :func:`to_csv` output."""
    with open(pathlib.Path(path), newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SimulationError(f"{path} is empty, not an exported CSV") from None
        if not header or header[0] != "epoch":
            raise SimulationError(
                f"{path} is not an exported metrics CSV (header {header!r})"
            )
        names = header[1:]
        collector = MetricsCollector()
        for row in reader:
            if len(row) != len(header):
                raise SimulationError(
                    f"{path}: row has {len(row)} cells for {len(header)} columns"
                )
            collector.record_epoch(
                {name: float(cell) for name, cell in zip(names, row[1:])}
            )
    if collector.num_epochs == 0:
        raise SimulationError(f"{path} holds a header but no epochs")
    return collector


def to_json(metrics: MetricsCollector, path: str | pathlib.Path) -> None:
    """Write ``{"epochs": N, "series": {name: [...]}}`` (newline-terminated)."""
    if metrics.num_epochs == 0:
        raise SimulationError("refusing to export an empty collector")
    payload = {"epochs": metrics.num_epochs, "series": metrics.as_dict()}
    pathlib.Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def from_json(path: str | pathlib.Path) -> MetricsCollector:
    """Rebuild a collector from :func:`to_json` output."""
    payload = read_json(path, SimulationError, "metrics export")
    if "series" not in payload or "epochs" not in payload:
        raise SimulationError(f"{path} is not an exported metrics file")
    series: dict[str, list[float]] = payload["series"]
    epochs = int(payload["epochs"])
    for name, values in series.items():
        if len(values) != epochs:
            raise SimulationError(
                f"series {name!r} has {len(values)} values for {epochs} epochs"
            )
    collector = MetricsCollector()
    for epoch in range(epochs):
        collector.record_epoch({name: series[name][epoch] for name in series})
    return collector
