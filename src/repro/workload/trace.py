"""Workload trace record / replay.

Fair algorithm comparison (Figs. 3–9 plot all four algorithms on one
chart) requires every algorithm to see the *identical* query sequence.
:class:`WorkloadTrace` records generated batches once and replays them
through the same ``generate(epoch)`` interface, so an engine cannot tell
a trace from a live generator.  Traces round-trip through ``.npz`` files
for persistence.

:meth:`WorkloadTrace.record` streams: it returns at once and one
producer thread samples the batches in epoch order, so sampling overlaps
whatever the caller does next (world construction, bootstrap, the first
epochs).  The producer is the only user of the generator and its
dedicated RNG stream, and it consumes that stream in the same order an
eager loop would, so every batch is the one the eager loop draws.
"""

from __future__ import annotations

import io
import pathlib
import threading
import zipfile

import numpy as np

from ..artifact import write_bytes
from ..errors import WorkloadError
from .generator import QueryGenerator
from .query import QueryBatch

__all__ = ["WorkloadTrace"]

#: How long a waiting consumer sleeps before re-checking that the
#: producer is still alive.
_POLL_S = 0.1
#: How long reaping the producer may take; a producer still inside a
#: draw after that is left to finish on its own (it is a daemon thread).
_JOIN_S = 5.0


class WorkloadTrace:
    """An immutable, replayable sequence of :class:`QueryBatch` objects."""

    def __init__(self, batches: list[QueryBatch]) -> None:
        if not batches:
            raise WorkloadError("a trace needs at least one batch")
        for epoch, batch in enumerate(batches):
            if batch.epoch != epoch:
                raise WorkloadError(
                    f"batch at position {epoch} carries epoch {batch.epoch}"
                )
            if batch.shape != batches[0].shape:
                raise WorkloadError("all batches in a trace must share one shape")
        self._init(list(batches), len(batches), batches[0].shape)

    def _init(self, batches: list[QueryBatch], epochs: int, shape: tuple[int, int]) -> None:
        #: Batches sampled so far, in epoch order (appended by the producer).
        self._batches = batches
        self._epochs = epochs
        self._shape = shape
        self._error: BaseException | None = None
        self._ready = threading.Condition()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def record(cls, generator: QueryGenerator, epochs: int) -> "WorkloadTrace":
        """Capture ``epochs`` epochs of ``generator``, sampled on a producer
        thread; the trace is returned before the first batch exists.

        The trace owns ``generator`` from here on: drawing from it
        elsewhere would interleave with the producer's draws.
        """
        if epochs < 1:
            raise WorkloadError(f"epochs must be >= 1, got {epochs}")
        trace = cls.__new__(cls)
        trace._init([], epochs, (generator.num_partitions, generator.num_origins))
        trace._thread = threading.Thread(
            target=trace._produce, args=(generator,), name="workload-trace", daemon=True
        )
        trace._thread.start()
        return trace

    def _produce(self, generator: QueryGenerator) -> None:
        """Producer thread body: append the batches in epoch order."""
        try:
            for epoch in range(self._epochs):
                if self._stop.is_set():
                    return
                batch = generator.generate(epoch)
                with self._ready:
                    self._batches.append(batch)
                    self._ready.notify_all()
        except BaseException as exc:  # handed to the consumer unchanged
            with self._ready:
                self._error = exc
                self._ready.notify_all()

    def _wait(self, epoch: int) -> QueryBatch:
        """Batch ``epoch`` once the producer has sampled it; reaps the
        producer when the stream is complete or has ended early."""
        batches = self._batches
        if epoch >= len(batches):
            with self._ready:
                while epoch >= len(batches) and self._error is None:
                    thread = self._thread  # another consumer may close()
                    if thread is None or not thread.is_alive():
                        break
                    self._ready.wait(_POLL_S)
        if len(batches) == self._epochs or epoch >= len(batches):
            self.close()
        if epoch >= len(batches):
            if self._error is not None:
                raise self._error
            raise WorkloadError(f"the trace was closed before epoch {epoch} was sampled")
        return batches[epoch]

    def close(self) -> None:
        """Stop sampling and reap the producer thread; idempotent.

        Batches sampled so far stay available; asking for a later one
        raises :class:`~repro.errors.WorkloadError`.
        """
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(_JOIN_S)
        if not thread.is_alive():
            self._thread = None

    # ------------------------------------------------------------------
    # Replay interface (mirrors QueryGenerator)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._epochs

    @property
    def num_partitions(self) -> int:
        return self._shape[0]

    @property
    def num_origins(self) -> int:
        return self._shape[1]

    def generate(self, epoch: int) -> QueryBatch:
        """Return the recorded batch for ``epoch`` (waiting for the
        producer if it has not sampled it yet)."""
        if not 0 <= epoch < self._epochs:
            raise WorkloadError(
                f"trace covers epochs 0..{self._epochs - 1}, asked for {epoch}"
            )
        return self._wait(epoch)

    def batches(self) -> tuple[QueryBatch, ...]:
        """Every batch, once the producer has sampled them all."""
        try:
            self._wait(self._epochs - 1)
        finally:
            # However the wait ends (an interrupt included) the producer
            # is stopped and joined here, not left running.
            self.close()
        return tuple(self._batches)

    def total_queries(self) -> int:
        """Total queries over the whole trace."""
        return sum(batch.total for batch in self.batches())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | pathlib.Path) -> None:
        """Write the trace to ``path`` exactly (``.npz`` layout: one dense
        stacked int64 ``counts`` array), atomically."""
        stacked = np.stack([batch.counts for batch in self.batches()])
        buffer = io.BytesIO()
        np.savez_compressed(buffer, counts=stacked)
        write_bytes(path, buffer.getvalue())

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "WorkloadTrace":
        """Read a trace previously written by :meth:`save`."""
        try:
            data = np.load(pathlib.Path(path))
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise WorkloadError(f"{path} is not a workload trace file")
            with data:
                if "counts" not in data:
                    raise WorkloadError(f"{path} is not a workload trace file")
                stacked = data["counts"]
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise WorkloadError(f"cannot read workload trace {path}: {exc}") from exc
        if stacked.ndim != 3:
            raise WorkloadError(f"trace array must be 3-D, got shape {stacked.shape}")
        return cls([QueryBatch(epoch, stacked[epoch]) for epoch in range(stacked.shape[0])])
