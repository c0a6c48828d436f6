"""Declarative sweep manifests and their deterministic cell expansion.

A :class:`SweepManifest` names a full ``{policy × scenario × seed ×
scale × engine}`` grid plus the run length; :meth:`SweepManifest.cells`
expands it into an ordered tuple of :class:`SweepCell` — the unit of
work a sweep worker executes.  Expansion is deterministic: the cell
order is the nested product in the manifest's listed order, and every
cell carries a content digest over its full configuration, so the same
manifest always produces the same cell list, the same cell directories
and (per the engine's determinism contract) the same artifacts.

Manifests are plain JSON (``SweepManifest.load`` / ``save``) and
CLI-composable (``repro sweep --policies rfh owner --seeds 1 2 3``
builds one in memory); :attr:`SweepManifest.manifest_hash` is the
canonical content address used by ``--resume`` to decide whether an
existing cell directory still belongs to this sweep.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field

from ..artifact import read_json, write_json
from ..config import SimulationConfig, WorkloadParameters
from ..errors import SweepError
from ..experiments.comparison import POLICIES
from ..experiments.runner import ENGINES
from ..experiments.scenarios import (
    Scenario,
    failure_recovery_scenario,
    flash_crowd_scenario,
    random_query_scenario,
)

__all__ = [
    "SCENARIO_BUILDERS",
    "SweepCell",
    "SweepManifest",
    "SweepScale",
    "build_cell_scenario",
]

#: Scenario builders selectable by manifest name (mirrors the CLI's
#: ``--scenario`` choices; every builder takes ``(config, epochs=...)``).
SCENARIO_BUILDERS = {
    "random": random_query_scenario,
    "flash": flash_crowd_scenario,
    "failure": failure_recovery_scenario,
}


def _sha256_hex(payload: str, length: int) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:length]


@dataclass(frozen=True)
class SweepScale:
    """One named point on the scale axis: workload size knobs."""

    name: str
    partitions: int = 64
    rate: float = 300.0

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or " " in self.name:
            raise SweepError(f"scale name must be a bare token, got {self.name!r}")
        if self.partitions < 1:
            raise SweepError(f"scale {self.name!r}: partitions must be >= 1")
        if self.rate <= 0:
            raise SweepError(f"scale {self.name!r}: rate must be positive")

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "partitions": self.partitions, "rate": self.rate}

    @classmethod
    def from_dict(cls, raw: object) -> "SweepScale":
        if not isinstance(raw, dict):
            raise SweepError(f"scale entry must be an object, got {raw!r}")
        try:
            return cls(
                name=str(raw["name"]),
                partitions=int(raw.get("partitions", 64)),
                rate=float(raw.get("rate", 300.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SweepError(f"malformed scale entry {raw!r}: {exc}") from exc


@dataclass(frozen=True)
class SweepCell:
    """One fully-specified experiment: the unit of sweep work.

    ``cell_id`` is human-readable and unique within a manifest;
    ``digest`` content-addresses the full cell configuration (including
    epochs and scale knobs), so a directory named
    ``<cell_id>-<digest>`` can be trusted across manifest edits —
    change any knob and the address changes with it.
    """

    policy: str
    scenario: str
    seed: int
    scale: SweepScale
    engine: str
    epochs: int

    @property
    def cell_id(self) -> str:
        return (
            f"{self.policy}-{self.scenario}-s{self.seed}"
            f"-{self.scale.name}-{self.engine}"
        )

    @property
    def digest(self) -> str:
        return _sha256_hex(
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")), 8
        )

    @property
    def dirname(self) -> str:
        return f"{self.cell_id}-{self.digest}"

    def to_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "scenario": self.scenario,
            "seed": self.seed,
            "scale": self.scale.to_dict(),
            "engine": self.engine,
            "epochs": self.epochs,
        }

    @classmethod
    def from_dict(cls, raw: object) -> "SweepCell":
        if not isinstance(raw, dict):
            raise SweepError(f"cell record must be an object, got {raw!r}")
        try:
            return cls(
                policy=str(raw["policy"]),
                scenario=str(raw["scenario"]),
                seed=int(raw["seed"]),
                scale=SweepScale.from_dict(raw["scale"]),
                engine=str(raw["engine"]),
                epochs=int(raw["epochs"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SweepError(f"malformed cell record {raw!r}: {exc}") from exc

    @property
    def group_key(self) -> str:
        """The cross-seed aggregation group this cell belongs to."""
        return f"{self.policy}/{self.scenario}/{self.scale.name}/{self.engine}"


def build_cell_scenario(cell: SweepCell) -> Scenario:
    """Construct the cell's scenario exactly as a single ``repro run``
    would, so a sweep cell and a sequential invocation of the same
    configuration are bit-identical (same trace, same events, same
    fingerprint chain)."""
    try:
        builder = SCENARIO_BUILDERS[cell.scenario]
    except KeyError:
        raise SweepError(
            f"unknown scenario {cell.scenario!r}; "
            f"choose from {sorted(SCENARIO_BUILDERS)}"
        ) from None
    config = SimulationConfig(
        seed=cell.seed,
        workload=WorkloadParameters(
            queries_per_epoch_mean=cell.scale.rate,
            num_partitions=cell.scale.partitions,
        ),
    )
    return builder(config, epochs=cell.epochs)


@dataclass(frozen=True)
class SweepManifest:
    """The declarative grid a ``repro sweep`` executes."""

    name: str = "sweep"
    policies: tuple[str, ...] = POLICIES
    scenarios: tuple[str, ...] = ("random",)
    seeds: tuple[int, ...] = (42,)
    scales: tuple[SweepScale, ...] = (SweepScale("paper"),)
    engines: tuple[str, ...] = ("scalar",)
    epochs: int = 120
    #: Epochs between accepted time-series samples per cell.
    timeseries_stride: int = 1
    #: Free-form notes carried into the merged artifact.
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis, values in (
            ("policies", self.policies),
            ("scenarios", self.scenarios),
            ("seeds", self.seeds),
            ("scales", self.scales),
            ("engines", self.engines),
        ):
            if not values:
                raise SweepError(f"manifest axis {axis!r} must be non-empty")
            if len(set(values)) != len(values):
                raise SweepError(f"manifest axis {axis!r} holds duplicates")
        for policy in self.policies:
            if policy not in POLICIES:
                raise SweepError(
                    f"unknown policy {policy!r}; choose from {sorted(POLICIES)}"
                )
        for scenario in self.scenarios:
            if scenario not in SCENARIO_BUILDERS:
                raise SweepError(
                    f"unknown scenario {scenario!r}; "
                    f"choose from {sorted(SCENARIO_BUILDERS)}"
                )
        for engine in self.engines:
            if engine not in ENGINES:
                raise SweepError(
                    f"unknown engine {engine!r}; choose from {ENGINES}"
                )
        if len({scale.name for scale in self.scales}) != len(self.scales):
            raise SweepError("scale names must be unique")
        if self.epochs < 1:
            raise SweepError(f"epochs must be >= 1, got {self.epochs}")
        if self.timeseries_stride < 1:
            raise SweepError(
                f"timeseries_stride must be >= 1, got {self.timeseries_stride}"
            )

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def cells(self) -> tuple[SweepCell, ...]:
        """The deterministic cell list: nested product in listed order
        (policy, then scenario, then seed, then scale, then engine)."""
        return tuple(
            SweepCell(
                policy=policy,
                scenario=scenario,
                seed=seed,
                scale=scale,
                engine=engine,
                epochs=self.epochs,
            )
            for policy in self.policies
            for scenario in self.scenarios
            for seed in self.seeds
            for scale in self.scales
            for engine in self.engines
        )

    @property
    def num_cells(self) -> int:
        return (
            len(self.policies)
            * len(self.scenarios)
            * len(self.seeds)
            * len(self.scales)
            * len(self.engines)
        )

    # ------------------------------------------------------------------
    # Content address & serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "policies": list(self.policies),
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds),
            "scales": [scale.to_dict() for scale in self.scales],
            "engines": list(self.engines),
            "epochs": self.epochs,
            "timeseries_stride": self.timeseries_stride,
            "meta": dict(self.meta),
        }

    @property
    def manifest_hash(self) -> str:
        """Canonical content address over everything that affects cell
        outputs (``meta`` is excluded: notes must not invalidate a
        resumable sweep)."""
        payload = self.to_dict()
        payload.pop("meta", None)
        payload.pop("name", None)
        return _sha256_hex(
            json.dumps(payload, sort_keys=True, separators=(",", ":")), 12
        )

    @classmethod
    def from_dict(cls, raw: object) -> "SweepManifest":
        if not isinstance(raw, dict):
            raise SweepError(f"manifest must be a JSON object, got {raw!r}")
        unknown = set(raw) - {
            "name", "policies", "scenarios", "seeds", "scales",
            "engines", "epochs", "timeseries_stride", "meta",
        }
        if unknown:
            raise SweepError(f"unknown manifest key(s): {sorted(unknown)}")
        try:
            scales_raw = raw.get("scales", [SweepScale("paper").to_dict()])
            return cls(
                name=str(raw.get("name", "sweep")),
                policies=tuple(str(p) for p in raw.get("policies", POLICIES)),
                scenarios=tuple(str(s) for s in raw.get("scenarios", ("random",))),
                seeds=tuple(int(s) for s in raw.get("seeds", (42,))),
                scales=tuple(SweepScale.from_dict(s) for s in scales_raw),
                engines=tuple(str(e) for e in raw.get("engines", ("scalar",))),
                epochs=int(raw.get("epochs", 120)),
                timeseries_stride=int(raw.get("timeseries_stride", 1)),
                meta=dict(raw.get("meta", {})),
            )
        except SweepError:
            raise
        except (TypeError, ValueError) as exc:
            raise SweepError(f"malformed manifest: {exc}") from exc

    def save(self, path: str | pathlib.Path) -> None:
        payload = self.to_dict()
        payload["manifest_hash"] = self.manifest_hash
        write_json(path, payload)

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "SweepManifest":
        raw = read_json(path, SweepError, "sweep manifest")
        raw.pop("manifest_hash", None)  # advisory on disk, recomputed
        return cls.from_dict(raw)
