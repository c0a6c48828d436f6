"""The versioned ``repro-prov`` v1 columnar ``.prov.json`` artifact.

One :class:`ProvArtifact` is the on-disk product of a provenance-
recorded run: every :class:`~repro.obs.provenance.records.DecisionRecord`
flattened into three columnar tables (decisions, predicates,
candidates) plus an interned string table, run metadata and the
recorder's compaction ledger.  Like ``.tsdb.json``, the format is plain
JSON (``jq``-able without this library), NaN-safe (non-finite floats
serialize as ``null``) and validated on load — every malformed input
raises :class:`~repro.errors.ProvenanceError`.

Layout::

    {"format": "repro-prov", "version": 1,
     "meta": {...}, "budget": N, "noop_dropped": {"<epoch>": count},
     "strings": ["", "availability", ...],
     "decisions":  {column -> parallel array, strings by table index},
     "predicates": {"decision" -> row index into decisions, ...},
     "candidates": {"decision" -> row index into decisions, ...}}
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from ...artifact import ArtifactFormat, clean, restore
from ...errors import ProvenanceError
from .records import CandidateEval, DecisionRecord, PredicateEval

__all__ = ["PROV_FORMAT", "PROV_VERSION", "ProvArtifact"]

#: Magic format tag; a file without it is not a provenance artifact.
PROV_FORMAT = "repro-prov"
#: Schema version; bumped on any incompatible layout change.
PROV_VERSION = 1

_CODEC = ArtifactFormat(PROV_FORMAT, PROV_VERSION, ProvenanceError, compact=True)

_DECISION_STRINGS = ("branch", "action", "reason", "fate", "fate_cause")
_DECISION_INTS = (
    "epoch",
    "partition",
    "target_sid",
    "target_dc",
    "source_sid",
    "replica_count",
    "rmin",
    "holder_dc",
)
_DECISION_FLOATS = ("avg_query", "holder_traffic", "unserved", "mean_traffic")


class _Interner:
    """Deterministic string table: first occurrence wins the index."""

    def __init__(self) -> None:
        self.strings: list[str] = [""]
        self._index: dict[str, int] = {"": 0}

    def add(self, value: str) -> int:
        idx = self._index.get(value)
        if idx is None:
            idx = len(self.strings)
            self.strings.append(value)
            self._index[value] = idx
        return idx


@dataclass(frozen=True)
class ProvArtifact:
    """One recorded run's decision ledger + metadata."""

    records: tuple[DecisionRecord, ...]
    meta: dict[str, object] = field(default_factory=dict)
    #: Decision budget the recorder ran with.
    budget: int = 0
    #: ``{epoch: count}`` of no-op decisions compacted away.
    noop_dropped: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_decisions(self) -> int:
        return len(self.records)

    @property
    def num_actions(self) -> int:
        return sum(1 for rec in self.records if rec.action != "none")

    @property
    def noop_dropped_total(self) -> int:
        return sum(self.noop_dropped.values())

    def partitions(self) -> tuple[int, ...]:
        return tuple(sorted({rec.partition for rec in self.records}))

    def for_partition(
        self, partition: int, epoch: int | None = None
    ) -> tuple[DecisionRecord, ...]:
        """This partition's records in epoch order (optionally one epoch)."""
        out = [
            rec
            for rec in self.records
            if rec.partition == partition and (epoch is None or rec.epoch == epoch)
        ]
        out.sort(key=lambda rec: rec.epoch)
        return tuple(out)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        interner = _Interner()
        decisions: dict[str, list[object]] = {
            name: [] for name in _DECISION_INTS + _DECISION_STRINGS + _DECISION_FLOATS
        }
        predicates: dict[str, list[object]] = {
            "decision": [],
            "eq": [],
            "subject": [],
            "lhs": [],
            "threshold": [],
            "passed": [],
        }
        candidates: dict[str, list[object]] = {
            "decision": [],
            "role": [],
            "dc": [],
            "sid": [],
            "verdict": [],
            "cause": [],
            "value": [],
            "threshold": [],
        }
        for row, rec in enumerate(self.records):
            for name in _DECISION_INTS:
                decisions[name].append(int(getattr(rec, name)))
            for name in _DECISION_STRINGS:
                decisions[name].append(interner.add(str(getattr(rec, name))))
            for name in _DECISION_FLOATS:
                decisions[name].append(clean(float(getattr(rec, name))))
            for pred in rec.predicates:
                predicates["decision"].append(row)
                predicates["eq"].append(interner.add(pred.eq))
                predicates["subject"].append(interner.add(pred.subject))
                predicates["lhs"].append(clean(float(pred.lhs)))
                predicates["threshold"].append(clean(float(pred.threshold)))
                predicates["passed"].append(1 if pred.passed else 0)
            for cand in rec.candidates:
                candidates["decision"].append(row)
                candidates["role"].append(interner.add(cand.role))
                candidates["dc"].append(int(cand.dc))
                candidates["sid"].append(int(cand.sid))
                candidates["verdict"].append(interner.add(cand.verdict))
                candidates["cause"].append(interner.add(cand.cause))
                candidates["value"].append(clean(float(cand.value)))
                candidates["threshold"].append(clean(float(cand.threshold)))
        return _CODEC.envelope({
            "meta": dict(self.meta),
            "budget": int(self.budget),
            "noop_dropped": {
                str(epoch): int(count)
                for epoch, count in sorted(self.noop_dropped.items())
            },
            "strings": interner.strings,
            "decisions": decisions,
            "predicates": predicates,
            "candidates": candidates,
        })

    @classmethod
    def from_dict(cls, raw: object) -> ProvArtifact:
        raw = _CODEC.check(raw)
        try:
            strings = [str(s) for s in raw["strings"]]

            def intern_of(table: str, column: object) -> list[str]:
                out = []
                for idx in column:  # type: ignore[attr-defined]
                    i = int(idx)
                    if not 0 <= i < len(strings):
                        raise ProvenanceError(
                            f"{table}: string index {i} outside table "
                            f"of {len(strings)}"
                        )
                    out.append(strings[i])
                return out

            decisions = raw["decisions"]
            n = len(decisions["epoch"])
            columns: dict[str, list[object]] = {}
            for name in _DECISION_INTS:
                columns[name] = [int(v) for v in decisions[name]]
            for name in _DECISION_STRINGS:
                columns[name] = list(intern_of(f"decisions.{name}", decisions[name]))
            for name in _DECISION_FLOATS:
                columns[name] = [float(v) for v in restore(decisions[name])]
            for name, values in columns.items():
                if len(values) != n:
                    raise ProvenanceError(
                        f"decisions.{name} has {len(values)} rows, "
                        f"epoch column has {n}"
                    )

            def rows_of(
                table_name: str, table: dict[str, object], spec: dict[str, str]
            ) -> list[dict[str, object]]:
                cols: dict[str, list[object]] = {}
                for name, kind in spec.items():
                    column = table[name]
                    if kind == "int":
                        cols[name] = [int(v) for v in column]  # type: ignore[union-attr]
                    elif kind == "float":
                        cols[name] = [float(v) for v in restore(column)]  # type: ignore[union-attr]
                    else:
                        cols[name] = list(intern_of(f"{table_name}.{name}", column))
                m = len(cols["decision"])
                for name, values in cols.items():
                    if len(values) != m:
                        raise ProvenanceError(
                            f"{table_name}.{name} has {len(values)} rows, "
                            f"decision column has {m}"
                        )
                rows = [
                    {name: cols[name][i] for name in spec} for i in range(m)
                ]
                for r in rows:
                    decision = int(r["decision"])  # type: ignore[arg-type]
                    if not 0 <= decision < n:
                        raise ProvenanceError(
                            f"{table_name}: decision index {decision} outside "
                            f"the {n}-row decision table"
                        )
                return rows

            pred_rows = rows_of(
                "predicates",
                raw["predicates"],
                {
                    "decision": "int",
                    "eq": "str",
                    "subject": "str",
                    "lhs": "float",
                    "threshold": "float",
                    "passed": "int",
                },
            )
            cand_rows = rows_of(
                "candidates",
                raw["candidates"],
                {
                    "decision": "int",
                    "role": "str",
                    "dc": "int",
                    "sid": "int",
                    "verdict": "str",
                    "cause": "str",
                    "value": "float",
                    "threshold": "float",
                },
            )
            preds_by_decision: dict[int, list[PredicateEval]] = {}
            for r in pred_rows:
                preds_by_decision.setdefault(int(r["decision"]), []).append(  # type: ignore[arg-type]
                    PredicateEval(
                        eq=str(r["eq"]),
                        subject=str(r["subject"]),
                        lhs=float(r["lhs"]),  # type: ignore[arg-type]
                        threshold=float(r["threshold"]),  # type: ignore[arg-type]
                        passed=bool(r["passed"]),
                    )
                )
            cands_by_decision: dict[int, list[CandidateEval]] = {}
            for r in cand_rows:
                cands_by_decision.setdefault(int(r["decision"]), []).append(  # type: ignore[arg-type]
                    CandidateEval(
                        role=str(r["role"]),
                        dc=int(r["dc"]),  # type: ignore[arg-type]
                        sid=int(r["sid"]),  # type: ignore[arg-type]
                        verdict=str(r["verdict"]),
                        cause=str(r["cause"]),
                        value=float(r["value"]),  # type: ignore[arg-type]
                        threshold=float(r["threshold"]),  # type: ignore[arg-type]
                    )
                )
            records = tuple(
                DecisionRecord(
                    epoch=columns["epoch"][i],  # type: ignore[arg-type]
                    partition=columns["partition"][i],  # type: ignore[arg-type]
                    branch=columns["branch"][i],  # type: ignore[arg-type]
                    action=columns["action"][i],  # type: ignore[arg-type]
                    reason=columns["reason"][i],  # type: ignore[arg-type]
                    target_sid=columns["target_sid"][i],  # type: ignore[arg-type]
                    target_dc=columns["target_dc"][i],  # type: ignore[arg-type]
                    source_sid=columns["source_sid"][i],  # type: ignore[arg-type]
                    fate=columns["fate"][i],  # type: ignore[arg-type]
                    fate_cause=columns["fate_cause"][i],  # type: ignore[arg-type]
                    avg_query=columns["avg_query"][i],  # type: ignore[arg-type]
                    holder_traffic=columns["holder_traffic"][i],  # type: ignore[arg-type]
                    unserved=columns["unserved"][i],  # type: ignore[arg-type]
                    mean_traffic=columns["mean_traffic"][i],  # type: ignore[arg-type]
                    replica_count=columns["replica_count"][i],  # type: ignore[arg-type]
                    rmin=columns["rmin"][i],  # type: ignore[arg-type]
                    holder_dc=columns["holder_dc"][i],  # type: ignore[arg-type]
                    predicates=tuple(preds_by_decision.get(i, ())),
                    candidates=tuple(cands_by_decision.get(i, ())),
                )
                for i in range(n)
            )
            return cls(
                records=records,
                meta=dict(raw.get("meta", {})),
                budget=int(raw.get("budget", 0)),
                noop_dropped={
                    int(epoch): int(count)
                    for epoch, count in raw.get("noop_dropped", {}).items()
                },
            )
        except ProvenanceError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ProvenanceError(f"malformed {PROV_FORMAT} artifact: {exc}") from exc

    def save(self, path: str | pathlib.Path) -> None:
        """Atomically write the artifact as compact JSON (still ``jq``-able)."""
        _CODEC.save(path, self.to_dict())

    @classmethod
    def load(cls, path: str | pathlib.Path) -> ProvArtifact:
        """Read an artifact back; raises :class:`ProvenanceError` on any
        format problem (including a file that is not JSON at all)."""
        return cls.from_dict(_CODEC.load(path))
