"""Committed baseline of grandfathered lint findings.

The baseline lets the linter gate at zero on *new* findings while a
legacy finding is being worked off: CI fails on anything not in the
file, and regenerating the file is an explicit, reviewable act
(``repro lint --write-baseline``).  For this repository the policy is
stricter still — the committed baseline stays **empty** for
``src/repro`` (see ISSUE 5) — but the mechanism is generic.

Entries match on a line-number-independent fingerprint
(path + rule + stripped source line + occurrence index), so unrelated
edits above a finding do not invalidate the baseline.
"""

from __future__ import annotations

from pathlib import Path

from ..artifact import ArtifactFormat
from ..errors import SimulationError
from .findings import Finding

__all__ = ["Baseline", "BaselineError", "DEFAULT_BASELINE_NAME"]

DEFAULT_BASELINE_NAME = ".repro-lint-baseline.json"

_FORMAT = "repro-lint-baseline"
_VERSION = 1


class BaselineError(SimulationError):
    """The baseline file is malformed."""


_CODEC = ArtifactFormat(_FORMAT, _VERSION, BaselineError)


class Baseline:
    """An immutable set of grandfathered finding fingerprints."""

    def __init__(self, entries: list[dict[str, object]] | None = None) -> None:
        self._entries: list[dict[str, object]] = list(entries or [])
        self._fingerprints = frozenset(
            str(entry.get("fingerprint", "")) for entry in self._entries
        )

    def __len__(self) -> int:
        return len(self._entries)

    def covers(self, finding: Finding) -> bool:
        return finding.fingerprint in self._fingerprints

    @property
    def entries(self) -> list[dict[str, object]]:
        """The grandfathered entries (path/rule/line/snippet/fingerprint)."""
        return list(self._entries)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        """A baseline grandfathering every *active* finding given."""
        entries = [
            {
                "path": f.path,
                "rule": f.rule_id,
                "line": f.line,
                "snippet": f.snippet,
                "fingerprint": f.fingerprint,
            }
            for f in sorted(
                (f for f in findings if f.active),
                key=lambda f: (f.path, f.line, f.col, f.rule_id),
            )
        ]
        return cls(entries)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        payload = _CODEC.load(path)
        findings = payload.get("findings")
        if not isinstance(findings, list) or not all(
            isinstance(entry, dict) for entry in findings
        ):
            raise BaselineError(f"baseline {path}: 'findings' must be a list of objects")
        return cls(findings)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return _CODEC.envelope({"findings": self._entries})

    def save(self, path: str | Path) -> None:
        _CODEC.save(path, self.to_dict())
