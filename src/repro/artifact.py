"""One codec for every JSON artifact the library writes and reads back.

Six versioned formats (``repro-tsdb``, ``repro-prof``, ``repro-prov``,
``repro-fingerprint``, ``repro-sweep``, ``repro-lint-baseline``) plus
the sweep's unversioned ``cell.json`` and ``manifest.json`` share the
decisions made here, so each format module keeps only its schema:

* **Envelope** — ``{"format": NAME, "version": N, **body}``; the body
  keys stay in the order the format module lists them.
* **Strict load** — a file that is missing, is not JSON, is not a JSON
  object, carries another ``format`` or a different ``version`` raises
  the format's own :class:`~repro.errors.ReproError` subclass, with a
  message naming the path and the format.
* **NaN encoding** — JSON has no NaN/Inf: :func:`clean` maps
  non-finite floats to ``null`` and :func:`restore` maps ``null`` back
  to NaN, which every consumer reads as "missing".
* **Atomic write** — the document is serialized in memory, written to a
  temp file in the target's directory and moved into place with
  :func:`os.replace`, so a reader sees the old file or the new one,
  never a truncated one.  There is no fsync: the guarantee is against
  a dying writer, not a dying machine.
* **Layouts** — ``indent=1`` everywhere except the compact
  ``.prov.json``; every file ends in a newline.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import threading
from dataclasses import dataclass

from .errors import ReproError

__all__ = ["ArtifactFormat", "clean", "read_json", "restore", "write_json"]

_NAN = float("nan")
_isfinite = math.isfinite


def clean(value: object) -> object:
    """``value`` with every non-finite float replaced by ``None``
    (recursing through dicts and lists)."""
    if isinstance(value, float):
        return value if _isfinite(value) else None
    if isinstance(value, dict):
        return {k: clean(v) for k, v in value.items()}
    if isinstance(value, list):
        # Plain floats (the bulk of every time-series column) inline.
        return [
            (v if _isfinite(v) else None) if type(v) is float else clean(v)
            for v in value
        ]
    return value


def restore(value: object) -> object:
    """The inverse of :func:`clean`: ``None`` becomes NaN."""
    if value is None:
        return _NAN
    if isinstance(value, dict):
        return {k: restore(v) for k, v in value.items()}
    if isinstance(value, list):
        return [v if type(v) is float else restore(v) for v in value]
    return value


def write_json(
    path: str | pathlib.Path, payload: object, *, compact: bool = False
) -> None:
    """Atomically replace ``path`` with ``payload`` as JSON.

    Serialization finishes before the filesystem is touched, so a
    payload that cannot be encoded (including a stray NaN) leaves the
    previous file byte-identical and no temp file behind.
    """
    if compact:
        text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    else:
        text = json.dumps(payload, indent=1, allow_nan=False)
    path = pathlib.Path(path)
    # A thread writes one file at a time, so (pid, thread) names a
    # writer uniquely and concurrent writers never share a temp file.
    temp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def read_json(
    path: str | pathlib.Path, error: type[ReproError], what: str
) -> dict:
    """The JSON object stored at ``path``; ``error`` on anything else."""
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    try:
        raw = json.loads(data)
    except ValueError as exc:
        raise error(f"cannot read {what} {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise error(
            f"cannot read {what} {path}: top level is a "
            f"{type(raw).__name__}, not a JSON object"
        )
    return raw


@dataclass(frozen=True)
class ArtifactFormat:
    """One versioned envelope: its tag, version, error class and layout."""

    name: str
    version: int
    error: type[ReproError]
    compact: bool = False

    def envelope(self, body: dict) -> dict:
        """``body`` wrapped as ``{"format", "version", **body}``."""
        return {"format": self.name, "version": self.version, **body}

    def check(self, raw: object, source: object = None) -> dict:
        """``raw`` itself when it is this format at this version."""
        where = "" if source is None else f"{source}: "
        if not isinstance(raw, dict):
            raise self.error(
                f"{where}not a {self.name} artifact "
                f"(top level is a {type(raw).__name__}, not a JSON object)"
            )
        if raw.get("format") != self.name:
            raise self.error(
                f"{where}not a {self.name} artifact (format={raw.get('format')!r})"
            )
        if raw.get("version") != self.version:
            raise self.error(
                f"{where}unsupported {self.name} version {raw.get('version')!r} "
                f"(this build reads version {self.version})"
            )
        return raw

    def save(self, path: str | pathlib.Path, document: dict) -> None:
        """Atomically write an already-enveloped ``document``."""
        write_json(path, document, compact=self.compact)

    def load(self, path: str | pathlib.Path) -> dict:
        """Strictly read the enveloped document stored at ``path``."""
        raw = read_json(path, self.error, f"{self.name} artifact")
        return self.check(raw, path)
