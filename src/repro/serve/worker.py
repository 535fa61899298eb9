"""Worker process main loop for the sharded serving engine.

Each worker owns a full model replica restored from a
:class:`~repro.serve.snapshot.ModelSnapshot` — backbone and FCR engines with
their own :class:`~repro.runtime.kernels.BufferCache` — plus the current
:class:`~repro.serve.snapshot.PrototypeState`.  It pops work items from its
*own* request queue, executes them, and pushes
``(ticket, worker_id, ok, payload)`` tuples onto its *own* result queue —
no channel is shared with any sibling shard, so this worker dying can never
wedge another shard's traffic.

Tensor payloads arrive and leave through the worker's pair of
:class:`~repro.serve.transport.SlotRing` shared-memory rings when the
coordinator enabled them: request batches are consumed as zero-copy views
(the slot is freed once the work item finished), results are written into
the result ring with the control tuple carrying only the slot descriptor.
Payloads that never went through a ring — control frames, oversized
tensors, or a full ring — pass through :func:`unpack_payload` untouched,
which also keeps this loop runnable over plain in-process queues in tests.

Work item kinds:

==================  ========================================  =================
kind                payload                                   result
==================  ========================================  =================
``ping``            ``None``                                  ``None``
``backbone``        images ``(N, C, H, W)``                   ``theta_a``
``embed``           images                                    ``theta_p``
``predict``         ``(images, class_ids | None)``            labels ``int64``
``similarities``    ``(images, class_ids | None)``            ``(sims, ids)``
``set_prototypes``  :class:`PrototypeState`                   acked ``version``
``stats``           ``None``                                  stats ``dict``
``chaos``           settings ``dict``                         applied ``dict``
``shutdown``        ``None``                                  ``None`` (stops)
==================  ========================================  =================

The ``chaos`` item is the scenario harness's worker-side fault hook (see
:mod:`repro.scenarios.chaos`): ``{"slow_s": 0.05}`` makes every subsequent
work item sleep before executing (a slow-but-alive shard), and
``{"exhaust_result_ring": True}`` forces the result ring's ``try_write`` to
report a full ring so replies take the pickle fallback.  Settings merge, an
empty dict resets nothing, explicit keys overwrite — chaos is injected and
healed through the exact same FIFO path real work takes.

Exceptions never kill the loop: they are captured per work item and re-raised
at the caller as :class:`~repro.serve.sharded.RemoteWorkerError`.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..runtime.engine import InferenceEngine
from ..runtime.kernels import (
    cosine_similarities,
    int8_cosine_similarities,
    quantize_unit_rows,
)
from .snapshot import ModelSnapshot, PrototypeState
from .transport import SlotRing, pack_payload, payload_trace, unpack_payload

#: Niceness a placed worker adds to its own.  A shard holds about two
#: queued batches (~40 ms of work at micro-batch 64), so the coordinator that
#: refills it must get a CPU back as soon as it wakes; at equal priority it
#: waited out a worker's time slice, and a garbage collection that had to
#: wait too stalled every shard for 50-65 ms.
_PLACED_NICE_INCREMENT = 10

#: Heartbeat stamp period.  The coordinator's hang detector compares
#: stamps across watchdog ticks, so this only needs to be comfortably
#: faster than any sane ``hang_silence_s``, not precise.
_HEARTBEAT_PERIOD_S = 0.05


class _WorkerState:
    """Model replica plus serving counters inside one worker process."""

    def __init__(self, worker_id: int, snapshot: ModelSnapshot):
        self.worker_id = worker_id
        #: Per-replica instrument registry; scraped into the ``stats`` work
        #: item, so every worker's engine gauges reach the coordinator.
        self.registry = MetricsRegistry()
        self.backbone = InferenceEngine(
            snapshot.backbone.restore(),
            micro_batch=snapshot.micro_batch,
            memory_plan=snapshot.backbone.restore_memory_plan(),
            registry=self.registry, metrics_prefix="engine.backbone")
        self.fcr = InferenceEngine(
            snapshot.fcr.restore(),
            micro_batch=max(snapshot.micro_batch, 512),
            memory_plan=snapshot.fcr.restore_memory_plan(),
            registry=self.registry, metrics_prefix="engine.fcr")
        self.prototypes: PrototypeState = snapshot.prototypes
        self.relu_sharpening = snapshot.relu_sharpening
        self.mode = getattr(snapshot, "mode", "float32")
        self._protos_q = None          # int8 codes, rebuilt per broadcast
        self._requests = self.registry.counter("worker.requests_total")
        #: Active fault-injection settings (the ``chaos`` work item merges
        #: into this); empty in production — one dict lookup per item.
        self.chaos: dict = {}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the replica engines' chunk thread pools (idempotent).

        Restored engines rebuild their pools lazily on the first
        multi-chunk request; without an explicit close those
        ``ThreadPoolExecutor`` threads would only die with the interpreter,
        which a worker that is terminated (rather than exiting its loop)
        never reaches cleanly.
        """
        self.backbone.close()
        self.fcr.close()

    def embed(self, images: np.ndarray) -> np.ndarray:
        return self.fcr.run(self.backbone.run(images))

    def similarities(self, images: np.ndarray,
                     class_ids: Optional[Sequence[int]]
                     ) -> Tuple[np.ndarray, np.ndarray]:
        matrix, ids = self.prototypes.select(class_ids)
        if ids.size == 0:
            raise ValueError("worker has an empty prototype state; broadcast "
                             "prototypes (Server.sync_prototypes) first")
        features = self.embed(images)
        if self.mode == "int8":
            # Same arithmetic as the coordinator's int8 predictor: quantized
            # unit rows, exact integer GEMM, float rescale — so worker and
            # coordinator answers agree bit-for-bit.  The full-matrix codes
            # are quantized once per prototype broadcast (quantization is
            # elementwise, so a restricted selection quantizes its own rows
            # to the identical codes).
            if class_ids is None:
                if self._protos_q is None:
                    self._protos_q = quantize_unit_rows(
                        self.prototypes.matrix_normed)
                codes = self._protos_q
            else:
                codes = quantize_unit_rows(matrix)
            sims = int8_cosine_similarities(features, codes)
        else:
            sims = cosine_similarities(features, matrix)
        return sims, ids

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    def handle(self, kind: str, payload):
        self._requests.inc()
        if kind == "chaos":
            self.chaos.update(dict(payload or {}))
            return dict(self.chaos)
        slow_s = self.chaos.get("slow_s")
        if slow_s:
            time.sleep(float(slow_s))
        if kind == "ping":
            return None
        if kind == "backbone":
            return self.backbone.run(payload)
        if kind == "embed":
            return self.embed(payload)
        if kind == "predict":
            images, class_ids = payload
            sims, ids = self.similarities(images, class_ids)
            return ids[np.argmax(sims, axis=1)]
        if kind == "similarities":
            images, class_ids = payload
            sims, ids = self.similarities(images, class_ids)
            if self.relu_sharpening:
                sims = np.maximum(sims, 0.0)
            return sims, ids
        if kind == "set_prototypes":
            self.prototypes = payload
            self._protos_q = None
            return self.prototypes.version
        if kind == "stats":
            return {
                "worker_id": self.worker_id,
                "requests": self.requests,
                "samples_run": self.backbone.samples_run,
                "batches_run": self.backbone.batches_run,
                "prototype_version": self.prototypes.version,
                "prototype_classes": self.prototypes.num_classes,
                "plan_steps": len(self.backbone.plan),
                "cache_bytes": self.backbone.cache_bytes
                + self.fcr.cache_bytes,
                "arena_slots": self.backbone.arena_slots
                + self.fcr.arena_slots,
                "arena_peak_bytes": self.backbone.arena_peak_bytes
                + self.fcr.arena_peak_bytes,
                "chaos": dict(self.chaos),
                "metrics": self.registry.scrape(),
            }
        raise ValueError(f"unknown work item kind {kind!r}")


def worker_main(worker_id: int, snapshot: ModelSnapshot, request_queue,
                result_queue, request_ring_spec=None,
                result_ring_spec=None, heartbeat=None,
                cpu: Optional[int] = None) -> None:
    """Entry point of a worker process (must stay importable for spawn).

    ``request_ring_spec`` / ``result_ring_spec`` are
    :meth:`~repro.serve.transport.SlotRing.spec` tuples of the
    coordinator-owned shared-memory rings; ``None`` (the default, and what
    the in-process tests pass) runs the loop on pure queue transport.

    ``heartbeat`` is an optional shared unsigned counter this process stamps
    from a dedicated daemon thread — the coordinator's hang detector reads
    it to tell a frozen process (SIGSTOP, swap death) from a busy one.  The
    thread starts *before* the replica restore below, so the stamp proves
    "this process is scheduled and executing", the earliest thing worth
    proving; a separate startup grace covers the restore window before the
    first stamp.  This worker is the value's only writer.

    ``cpu`` places the serving loop, and every thread it starts, once the
    replica is restored: pinned to that one CPU and niced below the
    coordinator (:data:`_PLACED_NICE_INCREMENT`).  Start-up itself runs
    wherever the scheduler puts it, so one busy CPU cannot hold up the
    pool's start.  ``None`` leaves affinity and priority alone.
    """
    if heartbeat is not None:
        def _beat() -> None:
            while True:
                heartbeat.value += 1
                time.sleep(_HEARTBEAT_PERIOD_S)
        threading.Thread(target=_beat, daemon=True,
                         name=f"repro-serve-heartbeat-{worker_id}").start()
    request_ring = SlotRing.attach(request_ring_spec) \
        if request_ring_spec is not None else None
    result_ring = SlotRing.attach(result_ring_spec) \
        if result_ring_spec is not None else None
    state = _WorkerState(worker_id, snapshot)
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
            os.nice(_PLACED_NICE_INCREMENT)
        except OSError:       # CPU gone offline or outside our cgroup
            pass
    # Spans finished in this process buffer in memory and ship back to the
    # coordinator attached to the result control frame — the worker never
    # writes trace files of its own, so one JSONL export stream exists.
    span_buffer = obs_trace.InMemorySpanExporter()
    tracer = obs_trace.Tracer(sample_rate=1.0, exporter=span_buffer,
                              process=f"worker-{worker_id}")
    try:
        while True:
            kind, ticket, packed = request_queue.get()
            if kind == "shutdown":
                # Tear the replica down before acking: once the coordinator
                # sees the ack, no engine thread pool of this worker is left
                # running.
                state.close()
                result_queue.put((ticket, worker_id, True,
                                  pack_payload(None, None)))
                break
            # An incoming trace context means the coordinator sampled this
            # request: its execution here becomes a ``worker.execute`` span
            # (ambient, so the engines nest ``engine.run`` under it).
            trace_ctx = payload_trace(packed)
            span = token = None
            if trace_ctx is not None:
                span = tracer.start_span("worker.execute", ctx=trace_ctx,
                                         attrs={"kind": kind,
                                                "worker": worker_id})
                token = obs_trace.activate(tracer, span)
            payload, held_slots = unpack_payload(request_ring, packed)
            try:
                result = state.handle(kind, payload)
                if kind == "chaos" and result_ring is not None:
                    # Ring-exhaustion chaos lives on the ring object itself
                    # so the transport layer stays oblivious to scenarios.
                    result_ring.fail_writes = bool(
                        state.chaos.get("exhaust_result_ring"))
                tracer.end_span(span)
                trace_out = {"spans": span_buffer.drain()} \
                    if span is not None else None
                # Results ride the result ring when they fit (fall back to
                # an inline pickle frame when the ring is full or the
                # tensor oversized), so the reply path is serialization-free
                # exactly like the request path.
                result_queue.put((ticket, worker_id, True,
                                  pack_payload(result_ring, result,
                                               trace=trace_out)))
            except Exception as exc:  # noqa: BLE001 - forwarded to caller
                message = f"{type(exc).__name__}: {exc}"
                tracer.end_span(span, status="error", error=message)
                trace_out = {"spans": span_buffer.drain()} \
                    if span is not None else None
                result_queue.put((ticket, worker_id, False,
                                  pack_payload(None, message,
                                               trace=trace_out)))
            finally:
                if token is not None:
                    obs_trace.deactivate(token)
                # The batch view has been fully consumed by handle(); give
                # the slot back so the coordinator can write the next batch.
                for slot in held_slots:
                    request_ring.free(slot)
    finally:
        for ring in (request_ring, result_ring):
            if ring is not None:
                ring.close()
