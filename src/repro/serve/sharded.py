"""Multiprocessing worker pool executing micro-batches on model replicas.

:class:`ShardedEngine` owns N worker processes, each holding a model replica
restored from a picklable :class:`~repro.serve.snapshot.ModelSnapshot` (its
own compiled plans, its own buffer caches).  The transport is fully
per-worker: each shard has its own request queue, its own result queue, and
a pair of :class:`~repro.serve.transport.SlotRing` shared-memory rings for
tensor payloads — control queues carry only small pickled frames (tickets,
slot descriptors, error strings), while batch and result tensors cross the
process boundary as zero-copy NumPy views with explicit slot accounting.

Nothing is shared between shards, so no lock exists that a hard-killed
worker (OOM, SIGKILL) could die holding — a dead shard's failure domain is
exactly its own channels.  A liveness watchdog polls the worker processes;
when one dies it fails that shard's pending futures fast with
:class:`RemoteWorkerError`, reclaims the shard's ring slots, and routing
(least-loaded live worker) steers around the corpse — surviving shards keep
answering.

Dead shards are not just routed around: a **supervisor** respawns them.
The watchdog hands a failed shard to a supervisor thread that waits out a
capped exponential backoff (:class:`~repro.serve.backoff.BackoffSchedule`,
jittered so a correlated multi-shard crash does not respawn in lockstep),
re-creates the shard's queues and shared-memory rings from scratch (a
corpse may have died mid-write with its ring slots in arbitrary states),
spawns a fresh process from the same plan snapshot, resyncs it to the
*current* prototype version through the same version-gated path broadcasts
take, and only then rejoins it to least-loaded routing.  A worker that
keeps dying exhausts its crash-loop budget (``max_respawns`` within
``respawn_reset_s`` of uptime) and the shard degrades permanently — the
pre-supervisor behaviour: typed errors at the corpse, survivors serving.

The watchdog also escalates **hangs**: each worker stamps a heartbeat
counter into a shared value from a dedicated thread, so a shard that is
alive by ``is_alive()`` but frozen in practice (SIGSTOP, swap death, a
stuck syscall) is declared failed after ``hang_silence_s`` of heartbeat
silence, SIGKILLed, and handed to the same respawn path.  Hang detection
is opt-in (``hang_silence_s=None`` disables it): the right threshold is
workload-dependent, and a paused-on-purpose shard must not be shot by
default.

Workers default to the ``spawn`` start method: it exercises the snapshot's
picklability end-to-end (``fork`` would silently inherit live state) and
sidesteps fork-after-BLAS hazards.  BLAS threading inside each worker is
pinned to one thread by default so that process-level sharding, not library
threading, owns the parallelism — the saturation benchmark compares worker
counts under identical per-worker settings.  Each worker is also pinned to
one CPU by default (shards dealt round-robin over the CPUs the coordinator
may use): left to itself, the scheduler can keep two busy shards queued on
one CPU while another idles — a task that has just run counts as cache-hot
and is rarely migrated — for a stretch that differs from run to run, and
serving capacity then differs with it.  A pinned worker also runs niced
below the coordinator, so the coordinator never waits behind a worker's
time slice to refill the shards.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue as queue_module
import threading
import time
from concurrent.futures import Future, InvalidStateError
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from .backoff import BackoffSchedule
from .snapshot import ModelSnapshot, PrototypeState
from .transport import (
    DEFAULT_RING_SLOTS,
    DEFAULT_SLOT_BYTES,
    SlotRing,
    pack_payload,
    payload_trace,
    unpack_payload,
)
from .worker import worker_main

DEFAULT_NUM_WORKERS = 2
DEFAULT_TIMEOUT = 120.0
DEFAULT_START_METHOD = "spawn"

#: Default poll interval of the liveness watchdog (overridable per engine via
#: ``watchdog_interval_s``).  Bounds how long a dead shard's pending futures
#: can linger before failing with :class:`RemoteWorkerError` — milliseconds,
#: not the two-minute request timeout.
WATCHDOG_INTERVAL_S = 0.2

#: Default per-worker crash-loop budget: how many times the supervisor
#: respawns a shard (within one ``respawn_reset_s`` uptime window) before
#: giving up into degraded mode.  0 disables respawn entirely.
DEFAULT_MAX_RESPAWNS = 2

#: A worker that stays up this long has its crash-loop attempt counter
#: reset: only *rapid* death cycles count against the budget, a shard that
#: served for a minute and then hit a one-off OOM deserves a fresh budget.
DEFAULT_RESPAWN_RESET_S = 30.0

#: Poll interval of the supervisor thread waiting out respawn backoffs.
_SUPERVISOR_POLL_S = 0.02

#: Heartbeat-silence grace before the first stamp: a spawning worker pays
#: interpreter startup + replica restore before its heartbeat thread runs,
#: which must not read as a hang (the effective threshold is the larger of
#: this and ``hang_silence_s``).
_STARTUP_HEARTBEAT_GRACE_S = 10.0

#: Poll interval of the per-worker collector threads (they must notice
#: ``close()`` even when their worker will never answer again).
_COLLECT_POLL_S = 0.1

#: Environment knobs that cap BLAS/OpenMP threading inside worker processes.
_BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS")


class RemoteWorkerError(RuntimeError):
    """An exception raised inside (or by the death of) a worker process."""


class WorkerDiedError(RemoteWorkerError):
    """The worker *process* backing a request is gone (crash, SIGKILL, torn
    channel) — as opposed to a worker-side exception forwarded through
    :class:`RemoteWorkerError`.  The distinction matters for retries: a dead
    shard's work can be re-dispatched to a survivor, while a genuine
    exception (bad payload) would fail identically anywhere."""


class EngineClosedError(RuntimeError):
    """The engine was closed; raised by new submits and used to fail any
    request still in flight at ``close()`` time, so callers never block on
    a closed pool."""


def _worker_cpus(num_workers: int) -> List[Optional[int]]:
    """The CPU each worker is pinned to: workers dealt round-robin over the
    CPUs this process may run on.  All ``None`` (no pinning) where CPU
    affinity is unsupported or only one CPU is available."""
    if not hasattr(os, "sched_getaffinity"):
        return [None] * num_workers
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return [None] * num_workers
    return [cpus[index % len(cpus)] for index in range(num_workers)]


@contextmanager
def _blas_threads_env(threads: Optional[int]):
    """Temporarily pin BLAS thread env vars so started children inherit them."""
    if threads is None:
        yield
        return
    saved = {name: os.environ.get(name) for name in _BLAS_ENV_VARS}
    os.environ.update({name: str(threads) for name in _BLAS_ENV_VARS})
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class ShardedEngine:
    """A pool of worker processes serving replicas of one model snapshot."""

    def __init__(self, snapshot: ModelSnapshot,
                 num_workers: int = DEFAULT_NUM_WORKERS,
                 start_method: str = DEFAULT_START_METHOD,
                 blas_threads_per_worker: Optional[int] = 1,
                 pin_workers: bool = True,
                 startup_timeout: float = DEFAULT_TIMEOUT,
                 use_shared_memory: bool = True,
                 ring_slots: int = DEFAULT_RING_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 watchdog_interval_s: float = WATCHDOG_INTERVAL_S,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 respawn_backoff: Optional[BackoffSchedule] = None,
                 respawn_reset_s: float = DEFAULT_RESPAWN_RESET_S,
                 hang_silence_s: Optional[float] = None,
                 recovery_listener=None,
                 tracer=None, chaos=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if watchdog_interval_s <= 0:
            raise ValueError("watchdog_interval_s must be positive")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if hang_silence_s is not None and hang_silence_s <= 0:
            raise ValueError("hang_silence_s must be positive (None to "
                             "disable hang detection)")
        self.snapshot = snapshot
        self.micro_batch = snapshot.micro_batch
        self.watchdog_interval_s = watchdog_interval_s
        self.max_respawns = max_respawns
        self.respawn_reset_s = respawn_reset_s
        self.hang_silence_s = hang_silence_s
        #: Backoff waited out between a shard's failure and its respawn.
        self.respawn_backoff = respawn_backoff if respawn_backoff is not None \
            else BackoffSchedule()
        #: Optional callable receiving one dict per recovery lifecycle event
        #: (``worker_failed`` / ``respawn_scheduled`` / ``hang_escalated`` /
        #: ``respawned`` / ``gave_up``) — the server wires its stats
        #: instruments here; exceptions it raises are swallowed.
        self._recovery_listener = recovery_listener
        #: Optional :class:`~repro.obs.trace.Tracer`: the adoption point for
        #: spans shipped back from workers, and the author of the synthetic
        #: ``worker.execute`` spans of requests whose worker died on them.
        self.tracer = tracer
        #: Optional fault-injection hook (see :mod:`repro.scenarios.chaos`):
        #: an object whose ``on_result(worker_index, item)`` may mutate or
        #: replace a result frame before the collector decodes it —
        #: modelling a shard that ships corrupted frames.  ``None`` (the
        #: default) costs one attribute check per result.
        self._chaos = chaos
        context = mp.get_context(start_method)
        # The supervisor re-creates a failed shard from scratch, so the
        # spawn-time configuration must outlive __init__.
        self._context = context
        self._use_shared_memory = use_shared_memory
        self._ring_slots = ring_slots
        self._slot_bytes = slot_bytes
        self._blas_threads = blas_threads_per_worker
        #: CPU each shard is pinned to (``None``: not pinned); a respawned
        #: shard keeps its predecessor's CPU.
        self._worker_cpus = _worker_cpus(num_workers) if pin_workers \
            else [None] * num_workers
        self._startup_timeout = startup_timeout
        self._request_queues = []
        self._result_queues = []
        self._request_rings: List[Optional[SlotRing]] = []
        self._result_rings: List[Optional[SlotRing]] = []
        self._processes = []
        #: Per-worker heartbeat counters (shared values stamped from a
        #: dedicated thread inside each worker; single writer, so no lock).
        self._heartbeats = []
        #: ticket -> (future, worker index); strictly per-worker bookkeeping
        #: so a dead shard's futures can be failed without touching the rest.
        self._pending: Dict[int, Tuple[Future, int]] = {}
        #: ticket -> (trace context, wall start) of traced submits, kept
        #: separate from ``_pending`` so the untraced bookkeeping is
        #: untouched; consumed on resolution or turned into a synthetic
        #: failed span when the ticket's worker dies.
        self._trace_ctx: Dict[int, Tuple[tuple, float]] = {}
        self._inflight = [0] * num_workers
        self._dead = [False] * num_workers
        #: A respawned shard is *resyncing* until it acked the current
        #: prototype version: not dead (targeted submits work — the resync
        #: itself uses them) but excluded from routing and broadcasts, so
        #: no client request can reach a replica with stale prototypes.
        self._resyncing = [False] * num_workers
        #: Shards whose crash-loop budget is exhausted (terminal).
        self._gave_up = [False] * num_workers
        self._respawn_attempts = [0] * num_workers
        self._restarts = [0] * num_workers
        now = time.monotonic()
        self._spawned_at = [now] * num_workers
        #: First-failure timestamp per shard, cleared on successful rejoin —
        #: recovery latency spans detection to serving again, across every
        #: backoff + retry in between.
        self._failed_at: List[Optional[float]] = [None] * num_workers
        #: Last observed heartbeat stamp and when it last changed.
        self._hb_seen: List[Tuple[int, float]] = [(0, now)] * num_workers
        #: worker index -> monotonic due time of its scheduled respawn.
        self._respawn_due: Dict[int, float] = {}
        #: Newest prototype state pushed through :meth:`set_prototypes`; the
        #: supervisor resyncs a respawned shard from it.  Updated under
        #: ``_lock`` *before* the broadcast, so a respawn racing a broadcast
        #: either sees the new state here or is live in time to receive the
        #: broadcast itself (never neither).
        self._latest_prototypes: Optional[PrototypeState] = snapshot.prototypes
        self._lock = threading.Lock()
        self._tickets = itertools.count()
        self._round_robin = itertools.count()
        self._closed = False
        self._stop = threading.Event()
        with _blas_threads_env(blas_threads_per_worker):
            for worker_id in range(num_workers):
                request_ring = SlotRing(ring_slots, slot_bytes) \
                    if use_shared_memory else None
                result_ring = SlotRing(ring_slots, slot_bytes) \
                    if use_shared_memory else None
                (request_queue, result_queue, heartbeat,
                 process) = self._make_worker(worker_id, request_ring,
                                              result_ring)
                self._request_queues.append(request_queue)
                self._result_queues.append(result_queue)
                self._request_rings.append(request_ring)
                self._result_rings.append(result_ring)
                self._heartbeats.append(heartbeat)
                self._processes.append(process)
        self._collectors = []
        for worker_id in range(num_workers):
            self._collectors.append(self._start_collector(worker_id))
        self._watchdog = threading.Thread(target=self._watch,
                                          name="repro-serve-watchdog",
                                          daemon=True)
        self._watchdog.start()
        self._supervisor = threading.Thread(target=self._supervise,
                                            name="repro-serve-supervisor",
                                            daemon=True)
        self._supervisor.start()
        # Block until every worker finished importing + restoring its replica
        # (spawn pays the interpreter startup here, not on the first request).
        # A worker that dies during startup fails its ping fast through the
        # watchdog instead of running out the timeout; a pool that cannot
        # bring up *every* worker is a startup failure, not a degraded pool.
        self.broadcast("ping", timeout=startup_timeout, require_all=True)

    # ------------------------------------------------------------------
    # Worker construction (shared by __init__ and the supervisor)
    # ------------------------------------------------------------------
    def _make_worker(self, worker_id: int, request_ring: Optional[SlotRing],
                     result_ring: Optional[SlotRing]):
        """Spawn one worker process with fresh control queues and heartbeat.

        The caller owns placing the returned channel objects into the
        per-worker tables (append at startup, in-place replace on respawn).
        """
        request_queue = self._context.Queue()
        result_queue = self._context.Queue()
        # 'Q' (unsigned 64-bit) never wraps at ~20 stamps/s; lock-free is
        # safe because the worker's heartbeat thread is the only writer.
        heartbeat = self._context.Value("Q", 0, lock=False)
        process = self._context.Process(
            target=worker_main,
            args=(worker_id, self.snapshot, request_queue, result_queue,
                  request_ring.spec() if request_ring else None,
                  result_ring.spec() if result_ring else None,
                  heartbeat, self._worker_cpus[worker_id]),
            daemon=True, name=f"repro-serve-worker-{worker_id}")
        process.start()
        return request_queue, result_queue, heartbeat, process

    def _start_collector(self, worker_id: int) -> threading.Thread:
        collector = threading.Thread(
            target=self._collect, args=(worker_id,),
            name=f"repro-serve-collector-{worker_id}", daemon=True)
        collector.start()
        return collector

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._processes)

    @property
    def worker_pids(self) -> List[int]:
        """OS pids of the worker processes (the chaos layer's signal
        targets; a dead worker keeps reporting its last pid)."""
        return [process.pid for process in self._processes]

    @property
    def live_workers(self) -> List[int]:
        """Indices of shards that are routable: alive by the watchdog and
        not mid-resync after a respawn (a resyncing replica exists but must
        not answer client traffic until it holds the current prototypes)."""
        with self._lock:
            return [index for index in range(self.num_workers)
                    if not self._dead[index] and not self._resyncing[index]]

    @property
    def restart_counts(self) -> List[int]:
        """Completed supervisor respawns (rejoined and serving) per shard."""
        with self._lock:
            return list(self._restarts)

    @property
    def gave_up_workers(self) -> List[int]:
        """Shards whose crash-loop budget is exhausted — permanently
        degraded; the supervisor will not touch them again."""
        with self._lock:
            return [index for index in range(self.num_workers)
                    if self._gave_up[index]]

    def inflight_per_worker(self) -> List[int]:
        """Outstanding (submitted, unresolved) work items per shard."""
        with self._lock:
            return list(self._inflight)

    def min_live_inflight(self) -> int:
        """Smallest in-flight count among live shards (0 when none live —
        the next dispatch then fails with the watchdog's typed error
        instead of waiting forever for budget that cannot free up)."""
        with self._lock:
            counts = [self._inflight[index]
                      for index in range(self.num_workers)
                      if not self._dead[index] and not self._resyncing[index]]
        return min(counts) if counts else 0

    # ------------------------------------------------------------------
    # Pending-table bookkeeping (all under self._lock)
    # ------------------------------------------------------------------
    def _register_locked(self, future: Future, index: int) -> int:
        ticket = next(self._tickets)
        self._pending[ticket] = (future, index)
        self._inflight[index] += 1
        return ticket

    def _pop_ticket(self, ticket: int) -> Optional[Future]:
        with self._lock:
            entry = self._pending.pop(ticket, None)
            self._trace_ctx.pop(ticket, None)
            if entry is None:
                return None
            future, index = entry
            self._inflight[index] -= 1
        return future

    def _discard_future(self, future: Future) -> None:
        """Drop one future from the pending table by identity (a future
        that will never resolve — e.g. its worker died behind a stats
        deadline — must not linger until ``close()``)."""
        with self._lock:
            for ticket, (pending, index) in list(self._pending.items()):
                if pending is future:
                    del self._pending[ticket]
                    self._trace_ctx.pop(ticket, None)
                    self._inflight[index] -= 1
                    break

    # ------------------------------------------------------------------
    # Collector / watchdog threads
    # ------------------------------------------------------------------
    def _collect(self, index: int) -> None:
        """Drain one worker's result queue into its pending futures.

        Strictly per-worker: a shard that dies mid-write can corrupt or
        silence only its *own* channel; every other collector keeps
        resolving its shard's replies.
        """
        result_queue = self._result_queues[index]
        ring = self._result_rings[index]
        while not self._stop.is_set():
            try:
                item = result_queue.get(timeout=_COLLECT_POLL_S)
            except queue_module.Empty:
                continue
            except (EOFError, OSError, ValueError):
                # Channel torn down under us: engine close, or the
                # supervisor retiring this shard's channels before its
                # replacement (ValueError is what a closed Queue raises).
                break
            if self._chaos is not None:
                # Fault injection: the hook may return a corrupted frame
                # (modelling a shard shipping garbage); a hook that raises
                # is treated as a no-op so the collector never dies to it.
                try:
                    item = self._chaos.on_result(index, item)
                except Exception:  # noqa: BLE001 - chaos must not kill us
                    pass
            try:
                ticket, worker_id, ok, packed = item
            except (TypeError, ValueError):  # truncated frame from a corpse
                continue
            future = self._pop_ticket(ticket)
            if future is None:               # e.g. the shutdown ack
                continue
            # Spans the worker finished for this item ride the result frame;
            # adopt them into the coordinator's export stream so one file
            # holds the whole cross-process trace.
            if self.tracer is not None:
                shipped = payload_trace(packed)
                if isinstance(shipped, dict):
                    self.tracer.adopt(shipped.get("spans", ()))
            # The collector must survive anything a caller did to the future
            # (a cancelled/raced future must not kill the loop and hang every
            # later request on this shard).
            try:
                if ok:
                    # Copy-out + slot free happen here, in one place, so the
                    # caller's future owns plain arrays with no lifetime tie
                    # to the ring.
                    payload, _ = unpack_payload(ring, packed, copy=True)
                    future.set_result(payload)
                else:
                    payload, _ = unpack_payload(ring, packed, copy=True)
                    future.set_exception(
                        RemoteWorkerError(f"worker {worker_id}: {payload}"))
            except InvalidStateError:
                pass
            except Exception as exc:  # noqa: BLE001 - defensive: bad frame
                try:
                    future.set_exception(RemoteWorkerError(
                        f"worker {worker_id}: undecodable result "
                        f"({type(exc).__name__}: {exc})"))
                except InvalidStateError:
                    pass

    def _watch(self) -> None:
        """Liveness watchdog: fail a dead shard's futures fast, reclaim its
        transport slots, escalate heartbeat-silent shards, and hand every
        failure to the supervisor for a backed-off respawn."""
        while not self._stop.wait(self.watchdog_interval_s):
            if self._closed:
                return
            # Snapshot: the supervisor replaces process handles in place.
            for index, process in list(enumerate(self._processes)):
                with self._lock:
                    dead = self._dead[index]
                if dead:
                    continue
                if not process.is_alive():
                    self._fail_worker(
                        index,
                        f"worker {index} process died "
                        f"(exit code {process.exitcode})")
                    continue
                self._check_heartbeat(index, process)

    def _check_heartbeat(self, index: int, process) -> None:
        """Track a shard's heartbeat; with ``hang_silence_s`` set, escalate
        one that is alive by ``is_alive()`` but whose heartbeat stopped
        advancing: SIGKILL it (delivered even to a SIGSTOPped process) and
        fail it into the normal respawn path."""
        heartbeat = self._heartbeats[index]
        if heartbeat is None:  # pragma: no cover - heartbeats always exist
            return
        now = time.monotonic()
        stamp = int(heartbeat.value)
        last_stamp, changed_at = self._hb_seen[index]
        if stamp != last_stamp:
            self._hb_seen[index] = (stamp, now)
            return
        if self.hang_silence_s is None:
            return
        # Before the first stamp the worker is still importing/restoring its
        # replica — give it the startup grace, not the steady-state budget.
        threshold = self.hang_silence_s if stamp else \
            max(self.hang_silence_s, _STARTUP_HEARTBEAT_GRACE_S)
        silence = now - changed_at
        if silence <= threshold:
            return
        self._emit({"event": "hang_escalated", "worker": index,
                    "silence_s": silence})
        try:
            process.kill()
        except Exception:  # noqa: BLE001 - already exiting is fine
            pass
        self._fail_worker(
            index,
            f"worker {index} heartbeat silent for {silence:.2f}s "
            f"(> {threshold:g}s): alive by is_alive() but not making "
            f"progress; escalated with SIGKILL")

    def _emit(self, event: dict) -> None:
        """Deliver one recovery lifecycle event to the listener, which must
        never be able to take down a watchdog/supervisor thread."""
        listener = self._recovery_listener
        if listener is None:
            return
        try:
            listener(dict(event))
        except Exception:  # noqa: BLE001 - listener bugs stay theirs
            pass

    def _fail_worker(self, index: int, reason: str) -> None:
        with self._lock:
            if self._dead[index]:
                return
            self._dead[index] = True
            self._resyncing[index] = False
            if self._failed_at[index] is None:
                # First failure of this outage: recovery latency is measured
                # from here to the successful rejoin, across every backoff
                # and failed retry in between.
                self._failed_at[index] = time.monotonic()
            doomed = [(ticket, future) for ticket, (future, owner)
                      in self._pending.items() if owner == index]
            doomed_traces = []
            for ticket, _ in doomed:
                del self._pending[ticket]
                trace = self._trace_ctx.pop(ticket, None)
                if trace is not None:
                    doomed_traces.append(trace)
            self._inflight[index] = 0
        # A worker that died mid-request can never report its span; close
        # the trace tree anyway with a synthetic ``worker.execute`` marked
        # failed, spanning submit-to-death.
        if self.tracer is not None:
            for ctx, started in doomed_traces:
                self.tracer.record_span(
                    "worker.execute", ctx=ctx, start_s=started,
                    status="failed", error=reason,
                    attrs={"worker": index, "synthetic": True})
        # The dead worker was the only reader of its request ring and the
        # only writer of its result ring: with it gone, both sides' slots
        # are reclaimed wholesale instead of leaking for the engine's life.
        for ring in (self._request_rings[index], self._result_rings[index]):
            if ring is not None:
                ring.reclaim_all()
        error = WorkerDiedError(reason)
        for _, future in doomed:
            try:
                future.set_exception(error)
            except InvalidStateError:
                pass
        self._emit({"event": "worker_failed", "worker": index,
                    "reason": reason})
        self._schedule_respawn(index)

    # ------------------------------------------------------------------
    # Supervisor: backed-off respawn of failed shards
    # ------------------------------------------------------------------
    def _schedule_respawn(self, index: int) -> None:
        """Charge one crash against the shard's budget and either queue a
        backed-off respawn or give the shard up for good."""
        if self._closed or self._stop.is_set():
            return
        with self._lock:
            if self._gave_up[index]:
                return
            now = time.monotonic()
            if now - self._spawned_at[index] > self.respawn_reset_s:
                # The previous incarnation was stably up: this is a fresh
                # outage, not the next lap of a crash loop.
                self._respawn_attempts[index] = 0
            self._respawn_attempts[index] += 1
            attempt = self._respawn_attempts[index]
            if attempt > self.max_respawns:
                self._gave_up[index] = True
                self._failed_at[index] = None
                gave_up = True
                delay = 0.0
            else:
                gave_up = False
                delay = self.respawn_backoff.delay(attempt)
                self._respawn_due[index] = now + delay
        if gave_up:
            self._emit({"event": "gave_up", "worker": index,
                        "attempts": attempt - 1,
                        "max_respawns": self.max_respawns})
        else:
            self._emit({"event": "respawn_scheduled", "worker": index,
                        "attempt": attempt, "delay_s": delay})

    def _supervise(self) -> None:
        """Supervisor thread: run due respawns (serially — respawning is
        rare and a spawn is expensive; one at a time keeps the bookkeeping
        trivially race-free against itself)."""
        while not self._stop.wait(_SUPERVISOR_POLL_S):
            if self._closed:
                return
            now = time.monotonic()
            with self._lock:
                due = [index for index, when in self._respawn_due.items()
                       if when <= now]
                for index in due:
                    del self._respawn_due[index]
            for index in due:
                self._respawn(index)

    def _respawn(self, index: int) -> None:
        """Replace a dead shard: fresh channels, fresh rings, fresh process,
        resynced state — then rejoin it to routing.

        Nothing of the corpse is reused.  Its queues may hold torn frames,
        its rings may have slots claimed by a write that never finished, and
        its kernel mappings pin the old segments; teardown + re-create is
        both simpler and the only defensible correctness story.
        """
        if self._closed or self._stop.is_set():
            return
        with self._lock:
            if self._gave_up[index] or not self._dead[index]:
                return
            attempt = self._respawn_attempts[index]
        old_process = self._processes[index]
        old_process.join(timeout=5.0)
        if old_process.is_alive():  # pragma: no cover - SIGKILL straggler
            old_process.kill()
            old_process.join(timeout=5.0)
        # Closing the old queues pops the shard's collector thread out of
        # its blocking get (OSError) — the new incarnation gets its own.
        for old_queue in (self._request_queues[index],
                          self._result_queues[index]):
            try:
                old_queue.close()
                old_queue.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover - already down
                pass
        old_request_ring = self._request_rings[index]
        old_result_ring = self._result_rings[index]
        request_ring = old_request_ring.renew() \
            if old_request_ring is not None else None
        result_ring = old_result_ring.renew() \
            if old_result_ring is not None else None
        try:
            with _blas_threads_env(self._blas_threads):
                (request_queue, result_queue, heartbeat,
                 process) = self._make_worker(index, request_ring,
                                              result_ring)
        except Exception as exc:  # noqa: BLE001 - spawn itself failed
            self._schedule_respawn(index)
            self._emit({"event": "respawn_failed", "worker": index,
                        "attempt": attempt,
                        "reason": f"{type(exc).__name__}: {exc}"})
            return
        if self._closed:
            # close() raced us past the entry check: the fresh process must
            # not outlive the engine (close() iterated the old handle).
            process.kill()
            process.join(timeout=5.0)
            return
        self._request_queues[index] = request_queue
        self._result_queues[index] = result_queue
        self._request_rings[index] = request_ring
        self._result_rings[index] = result_ring
        self._heartbeats[index] = heartbeat
        self._processes[index] = process
        now = time.monotonic()
        with self._lock:
            self._spawned_at[index] = now
            self._hb_seen[index] = (0, now)
            # Resyncing: targeted submits (the resync itself) work, routing
            # and broadcasts skip the shard until it holds current state.
            self._resyncing[index] = True
            self._dead[index] = False
        self._collectors.append(self._start_collector(index))
        try:
            self.submit("ping", None, worker=index).result(
                timeout=self._startup_timeout)
            self._resync_prototypes(index)
        except Exception as exc:  # noqa: BLE001 - died again during resync
            reason = (f"worker {index} respawn failed during resync "
                      f"({type(exc).__name__}: {exc})")
            with self._lock:
                needs_fail = not self._dead[index]
            if needs_fail:
                try:
                    process.kill()
                except Exception:  # noqa: BLE001
                    pass
                # Re-enters _schedule_respawn: the budget, not recursion
                # depth, bounds how often this can go around.
                self._fail_worker(index, reason)
            return
        with self._lock:
            self._restarts[index] += 1
            failed_at = self._failed_at[index]
            self._failed_at[index] = None
        latency = None if failed_at is None else time.monotonic() - failed_at
        self._emit({"event": "respawned", "worker": index,
                    "attempt": attempt, "recovery_latency_s": latency})

    def _resync_prototypes(self, index: int) -> None:
        """Bring a respawned shard to the *current* prototype version, then
        mark it live.

        The loop closes the respawn/broadcast race: a concurrent
        :meth:`set_prototypes` updates ``_latest_prototypes`` under the lock
        *before* snapshotting the live set.  Either it runs before our
        re-read (we send the newer state ourselves) or after we flipped
        ``_resyncing`` off under the same lock (the broadcast reaches the
        shard directly).  A version acked below the latest re-sends.
        """
        while True:
            with self._lock:
                state = self._latest_prototypes
            if state is None:
                with self._lock:
                    self._resyncing[index] = False
                return
            self.submit("set_prototypes", state, worker=index).result(
                timeout=self._startup_timeout)
            with self._lock:
                if (self._latest_prototypes is None
                        or self._latest_prototypes.version == state.version):
                    self._resyncing[index] = False
                    return

    # ------------------------------------------------------------------
    def submit(self, kind: str, payload=None,
               worker: Optional[int] = None,
               trace_ctx: Optional[tuple] = None) -> Future:
        """Enqueue one work item; returns a future for its result.

        With no explicit ``worker``, the item is routed to the live shard
        with the fewest outstanding items (ties broken round-robin), so a
        dead shard is simply never chosen.  Targeting a dead shard
        explicitly raises :class:`RemoteWorkerError` immediately.

        ``trace_ctx`` — a ``(trace_id, span_id)`` pair of the sampled parent
        span — rides the request's control frame to the worker, whose
        execution spans come back attached to the result frame.  ``None``
        (the overwhelmingly common case) leaves the frame bit-identical to
        the pre-trace format.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        future: Future = Future()
        # Mark the future running immediately: cancel() then always returns
        # False, so the collector's set_result cannot race a cancellation.
        future.set_running_or_notify_cancel()
        with self._lock:
            if worker is not None:
                index = worker
                if self._dead[index]:
                    raise WorkerDiedError(f"worker {index} is dead")
            else:
                live = [i for i in range(self.num_workers)
                        if not self._dead[i] and not self._resyncing[i]]
                if not live:
                    raise RemoteWorkerError("no live workers left in the "
                                            "pool")
                offset = next(self._round_robin)
                index = min(
                    live, key=lambda i: (self._inflight[i],
                                         (i - offset) % self.num_workers))
            ticket = self._register_locked(future, index)
            if trace_ctx is not None:
                self._trace_ctx[ticket] = (tuple(trace_ctx), time.time())
        packed = pack_payload(self._request_rings[index], payload,
                              trace=tuple(trace_ctx)
                              if trace_ctx is not None else None)
        try:
            self._request_queues[index].put((kind, ticket, packed))
        except (OSError, ValueError) as exc:
            if self._pop_ticket(ticket) is not None:
                future.set_exception(WorkerDiedError(
                    f"worker {index}: request channel closed ({exc})"))
            return future
        # The watchdog may have declared the shard dead between routing and
        # the queue put; its sweep can miss a ticket registered after it ran,
        # so re-check and fail the straggler here instead of leaking it.
        with self._lock:
            died = self._dead[index]
        if died and self._pop_ticket(ticket) is not None:
            try:
                future.set_exception(
                    WorkerDiedError(f"worker {index} is dead"))
            except InvalidStateError:
                pass
        return future

    def scatter(self, kind: str, images: np.ndarray,
                timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        """Split ``images`` into micro-batches, spread them over the live
        shards, and reassemble the results in submission order.

        The chunking replicates :meth:`InferenceEngine.run` exactly (same
        ``micro_batch`` boundaries), so per-chunk results are bit-identical
        to the single-process engine's regardless of which shard — or how
        many shards — served each chunk.

        ``timeout`` is one *shared* deadline for the whole batch, not a
        per-chunk budget: the old per-chunk ``future.result(timeout=...)``
        let an N-chunk batch over a wedged shard wait up to N x timeout.
        A chunk whose shard *dies* mid-flight (:class:`WorkerDiedError`,
        never a worker-side exception) is re-dispatched to a surviving
        shard instead of failing the whole batch — results stay
        bit-identical because any shard computes the same chunk bits.
        """
        images = np.asarray(images, dtype=np.float32)
        if images.ndim == 3:
            images = images[None]
        if images.shape[0] == 0:
            raise ValueError("cannot scatter an empty batch")
        deadline = time.monotonic() + timeout
        chunks = [np.ascontiguousarray(images[start:start + self.micro_batch])
                  for start in range(0, images.shape[0], self.micro_batch)]
        futures = [self.submit(kind, chunk) for chunk in chunks]
        outputs: List[Optional[np.ndarray]] = [None] * len(chunks)
        for position, future in enumerate(futures):
            redispatches = 0
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"scatter({kind!r}) exceeded its shared {timeout:g}s "
                        f"deadline with chunk {position}/{len(chunks)} "
                        f"unresolved")
                try:
                    outputs[position] = future.result(timeout=remaining)
                    break
                except WorkerDiedError:
                    # Every retry implies another dead shard, so the retry
                    # count is naturally bounded by the pool size; the
                    # explicit cap guards against a miscounting bug turning
                    # into an infinite loop.
                    redispatches += 1
                    if redispatches > self.num_workers:
                        raise
                    # submit raises RemoteWorkerError("no live workers...")
                    # once the whole pool is gone.
                    future = self.submit(kind, chunks[position])
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs)

    def broadcast(self, kind: str, payload=None,
                  timeout: float = DEFAULT_TIMEOUT,
                  require_all: bool = False) -> Dict[int, object]:
        """Send one work item to every *live* worker under one shared
        deadline; returns ``{shard_index: result}`` for the shards that
        answered.

        A shard that dies between the liveness snapshot and its reply — or
        that never answers within the deadline — is simply omitted from the
        result instead of failing the whole broadcast, so one corpse cannot
        wedge e.g. a prototype sync for every healthy shard.  The mapping
        keys report exactly which shards answered.  Raises
        :class:`RemoteWorkerError` only when *no* shard answered, or on the
        first failure when ``require_all`` is set (startup, where a pool
        missing a worker is a failure, not a degraded pool).
        """
        indices = self.live_workers
        if not indices:
            raise RemoteWorkerError("no live workers left in the pool")
        deadline = time.monotonic() + timeout
        futures: Dict[int, Future] = {}
        failures: Dict[int, str] = {}
        for index in indices:
            try:
                futures[index] = self.submit(kind, payload, worker=index)
            except RemoteWorkerError as exc:   # died since the snapshot
                if require_all:
                    raise
                failures[index] = f"{type(exc).__name__}: {exc}"
        results: Dict[int, object] = {}
        for index, future in futures.items():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                results[index] = future.result(timeout=remaining)
            except (RemoteWorkerError, TimeoutError) as exc:
                if require_all:
                    raise
                # The future is deliberately left pending on a timeout: a
                # slow-but-alive shard still applies the (FIFO-queued) item
                # when it gets there, and the watchdog or close() fails the
                # future if the shard is actually gone.
                failures[index] = f"{type(exc).__name__}: {exc}"
        if not results:
            raise RemoteWorkerError(
                f"broadcast {kind!r} reached no shard: {failures}")
        return results

    def set_prototypes(self, state: PrototypeState,
                       timeout: float = DEFAULT_TIMEOUT) -> Dict[int, int]:
        """Broadcast a prototype state; returns ``{shard: acked version}``
        for every shard that answered (see :meth:`broadcast` — a shard
        dying mid-broadcast is omitted, not fatal, so ``sync_prototypes``
        during a ``learn_class`` storm can never wedge serving).

        Request queues are FIFO per worker, so every answering shard has
        executed all previously enqueued items and every later item sees
        the new prototypes.  Prototype states are control frames: they
        cross as pickle, never through the tensor rings.

        The state is recorded as the pool's latest *before* broadcasting
        (under the engine lock): a shard the supervisor is resyncing right
        now is excluded from the broadcast's live set, and the resync loop
        re-reads the latest state until its acked version matches — so the
        shard rejoins with these prototypes either way.
        """
        with self._lock:
            if (self._latest_prototypes is None
                    or state.version >= self._latest_prototypes.version):
                self._latest_prototypes = state
        return self.broadcast("set_prototypes", state, timeout=timeout)

    def stats(self, timeout: float = DEFAULT_TIMEOUT) -> List[dict]:
        """Per-worker replica statistics, degraded per shard on failure.

        A worker that errors (``RemoteWorkerError``) or never answers (a
        dead or wedged process runs into the deadline) must not abort the
        whole stats collection — operators need the surviving shards'
        counters most exactly when one shard is down.  The failed shard is
        reported as a record carrying ``error`` (and ``alive`` from the
        process handle) instead of its counters.  ``timeout`` is a *shared*
        deadline across all shards, not per shard, so a pool with several
        wedged workers still answers within one budget; shards whose
        process is already gone are flagged immediately, without enqueueing
        work items no consumer will ever pop.

        With the per-worker transport a hard-killed worker can no longer
        wedge the survivors' replies (there is no shared write lock to die
        holding), so healthy shards answer at full fidelity even while a
        sibling is a corpse; the deadline remains the backstop for shards
        that are alive but buried behind a deep work queue.
        """
        deadline = time.monotonic() + timeout
        records: List[Optional[dict]] = [None] * self.num_workers
        futures = {}
        dead = set()
        with self._lock:
            dead = {index for index in range(self.num_workers)
                    if self._dead[index]}
        for index in range(self.num_workers):
            if index in dead or not self._processes[index].is_alive():
                records[index] = {"worker_id": index,
                                  "error": "worker process is not alive",
                                  "alive": False}
            else:
                futures[index] = self.submit("stats", None, worker=index)
        for index, future in futures.items():
            try:
                remaining = max(0.0, deadline - time.monotonic())
                records[index] = future.result(timeout=remaining)
            except Exception as exc:  # noqa: BLE001 - degrade per shard
                records[index] = {
                    "worker_id": index,
                    "error": f"{type(exc).__name__}: {exc}",
                    "alive": self._processes[index].is_alive(),
                }
                # A future that will never resolve (dead worker) must not
                # linger in the pending table until close().
                self._discard_future(future)
        # Coordinator-side recovery annotations: visible on healthy and
        # degraded records alike, so operators can tell "this shard died
        # once and was respawned" from "this shard never blinked" — and the
        # heartbeat age doubles as the hang-detection signal surfaced.
        now = time.monotonic()
        with self._lock:
            recovery = [(self._restarts[i], self._gave_up[i],
                         self._resyncing[i], now - self._hb_seen[i][1])
                        for i in range(self.num_workers)]
        for index, record in enumerate(records):
            if isinstance(record, dict):
                restarts, gave_up, resyncing, hb_age = recovery[index]
                record["restarts"] = restarts
                record["gave_up"] = gave_up
                record["resyncing"] = resyncing
                record["heartbeat_age_s"] = hb_age
        return records

    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Shut down workers and the coordinator threads; idempotent.

        Any request still unresolved once the pool is down — queued behind
        a shutdown, or stranded by a terminated worker — is failed with
        :class:`EngineClosedError`, so no caller ever blocks on a closed
        engine.
        """
        if self._closed:
            return
        self._closed = True
        for index, request_queue in enumerate(self._request_queues):
            with self._lock:
                dead = self._dead[index]
            if dead:
                continue
            try:
                request_queue.put(("shutdown", -1,
                                   pack_payload(None, None)))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._stop.set()
        for collector in self._collectors:
            collector.join(timeout=5.0)
        self._watchdog.join(timeout=5.0)
        with self._lock:
            self._respawn_due.clear()
            pending = [future for future, _ in self._pending.values()]
            self._pending.clear()
            self._trace_ctx.clear()
            self._inflight = [0] * self.num_workers
        error = EngineClosedError("engine closed with requests in flight")
        for future in pending:
            try:
                future.set_exception(error)
            except InvalidStateError:
                pass
        # Joined after the pending sweep: a supervisor blocked mid-resync on
        # a future is released by the sweep, not by a timeout.
        self._supervisor.join(timeout=5.0)
        for q in (*self._request_queues, *self._result_queues):
            q.close()
            q.cancel_join_thread()
        for ring in (*self._request_rings, *self._result_rings):
            if ring is not None:
                ring.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close(timeout=1.0)
        except Exception:
            pass
