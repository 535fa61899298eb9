"""Micro-batched executor for compiled (and optimized) inference plans."""

from __future__ import annotations

import dataclasses
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from ..nn.modules import Module
from ..obs.trace import ambient_span
from .compiler import compile_module
from .kernels import BufferCache
from .optimizer import MemoryPlan, optimize_plan, plan_memory
from .plan import InferencePlan

#: Default micro-batch size; keeps the im2col working set inside the CPU
#: cache for the laptop-profile backbones while amortising per-layer
#: dispatch overhead across the whole batch.
DEFAULT_MICRO_BATCH = 64

#: Cap on the default chunk-execution thread count.  NumPy releases the GIL
#: inside BLAS and ufunc loops, so a handful of threads covers the
#: non-GEMM work; more mostly fights the BLAS library's own threading.
MAX_DEFAULT_THREADS = 4


def default_num_threads() -> int:
    """Worker threads for chunk execution: min(4, usable cores)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    return max(1, min(MAX_DEFAULT_THREADS, cores))


class InferenceEngine:
    """Executes an :class:`InferencePlan` over arbitrarily large inputs.

    Incoming samples are split into micro-batches; each micro-batch flows
    through the flat op plan with a :class:`BufferCache`, so steady-state
    execution reuses the same im2col / arena buffers for every batch of the
    same shape.

    ``optimize=True`` (the default) runs the post-compile passes of
    :mod:`repro.runtime.optimizer` on the plan and executes through the
    liveness-planned arena: the memory plan is derived from the first real
    chunk the engine runs (recording its shapes — no synthetic dry run) and
    reused for every following chunk of the same per-sample shape.

    When several chunks are ready and the plan has no stateful (``opaque``)
    steps, they execute concurrently on a thread pool with one
    :class:`BufferCache` per thread — bit-identical to serial execution
    because chunks are independent and each thread owns its scratch space.
    Intra-process threading composes with :mod:`repro.serve` process
    sharding: workers receive single micro-batches and stay serial.

    Each :class:`BufferCache` is one *execution context*: the engine's own
    ``cache`` (the calling thread's recording and serial chunks) plus one
    per pool thread, so at most :attr:`num_contexts` of them.  Callers must
    not run one engine from several threads at once (``Server`` serialises
    its coordinator engines under a lock).  ``cache_budget`` bounds the
    scratch bytes of the *whole engine*: it is split evenly across
    ``num_contexts``, and each context's cache enforces its share (plus at
    most the one buffer it just handed out).  Arena slot buffers are exempt
    from the budget in every context — each context that runs planned
    chunks holds exactly the memory plan's slots.
    """

    def __init__(self, plan: InferencePlan,
                 micro_batch: int = DEFAULT_MICRO_BATCH,
                 optimize: bool = True,
                 num_threads: Optional[int] = None,
                 cache_budget: Optional[int] = None,
                 memory_plan: Optional[MemoryPlan] = None,
                 registry=None, metrics_prefix: str = "engine",
                 profiler=None):
        if micro_batch < 1:
            raise ValueError("micro_batch must be >= 1")
        self.plan = optimize_plan(plan) if optimize else plan
        self.optimize = optimize
        self.micro_batch = micro_batch
        self.num_threads = num_threads if num_threads is not None \
            else default_num_threads()
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.cache_budget = cache_budget
        self._parallel_ok = all(step.op != "opaque"
                                for step in self.plan.steps)
        self.cache = self._new_cache()
        # A supplied memory plan maps registers of the plan it was recorded
        # against.  If optimization rewrote the plan above (renaming fused
        # registers), or planned execution is off entirely, the spec no
        # longer applies — drop it and let the first run re-record.  The
        # snapshot path restores plans with ``optimized=True``, which
        # ``optimize_plan`` passes through untouched, so worker replicas
        # keep their shipped arena spec.  The arena capacity is raised to
        # this engine's micro-batch: chunks larger than the shipped
        # ``capacity_batch`` would otherwise key one eviction-exempt buffer
        # per distinct batch size per slot.
        if memory_plan is not None and optimize and plan.optimized:
            shipped = getattr(memory_plan, "capacity_batch", 1)
            if shipped < micro_batch:
                memory_plan = dataclasses.replace(memory_plan,
                                                  capacity_batch=micro_batch)
            self.memory_plan: Optional[MemoryPlan] = memory_plan
        else:
            self.memory_plan = None
        self.batches_run = 0
        self.samples_run = 0
        #: Optional :class:`~repro.obs.planprof.PlanProfiler`; ``None`` costs
        #: one comparison per executed step.
        self.profiler = profiler
        self._pool: Optional[ThreadPoolExecutor] = None
        self._tls = threading.local()
        self._caches: List[BufferCache] = [self.cache]
        self._caches_lock = threading.Lock()
        self.metrics_prefix = metrics_prefix
        self._bind_registry(registry)

    def _bind_registry(self, registry) -> None:
        """Register this engine's gauges in ``registry`` (callback-valued).

        Gauges are read lazily at scrape time, so an instrumented engine
        pays nothing per request — the registry only ever calls back into
        the ``cache_bytes`` / ``arena_peak_bytes`` properties when someone
        scrapes it.
        """
        self.registry = registry
        if registry is None:
            return
        prefix = self.metrics_prefix
        registry.gauge(f"{prefix}.samples_run", fn=lambda: self.samples_run)
        registry.gauge(f"{prefix}.batches_run", fn=lambda: self.batches_run)
        # Every context's scratch + arena bytes; the scratch part is bounded
        # by cache_budget engine-wide, the arena part by the memory plan.
        registry.gauge(f"{prefix}.cache_bytes", fn=lambda: self.cache_bytes)
        registry.gauge(f"{prefix}.arena_peak_bytes",
                       fn=lambda: self.arena_peak_bytes)
        registry.gauge(f"{prefix}.arena_slots", fn=lambda: self.arena_slots)
        registry.gauge(f"{prefix}.plan_steps", fn=lambda: len(self.plan))
        # Graph-rewrite statistics of the optimized plan (all zero when the
        # engine runs a raw plan): total rule applications plus the CSE
        # count, the two aggregate health signals of the rewrite pipeline.
        registry.gauge(
            f"{prefix}.opt_rule_applications",
            fn=lambda: sum(getattr(self.plan, "pass_stats", {}).values()))
        registry.gauge(
            f"{prefix}.opt_cse_hits",
            fn=lambda: getattr(self.plan, "pass_stats", {}).get(
                "common_subexpression_elimination", 0))

    @property
    def num_contexts(self) -> int:
        """Most execution contexts (buffer caches) this engine can hold.

        The engine's own cache, plus one per pool thread when chunks can run
        on the pool (more than one thread and no ``opaque`` steps).
        """
        if self.num_threads > 1 and self._parallel_ok:
            return 1 + self.num_threads
        return 1

    def _new_cache(self) -> BufferCache:
        """A context cache holding its even share of ``cache_budget``."""
        if self.cache_budget is None:
            return BufferCache()
        return BufferCache(max_bytes=self.cache_budget // self.num_contexts)

    @classmethod
    def for_module(cls, module: Module,
                   micro_batch: int = DEFAULT_MICRO_BATCH) -> "InferenceEngine":
        """Compile ``module`` and wrap the plan in an engine."""
        return cls(compile_module(module), micro_batch=micro_batch)

    # ------------------------------------------------------------------
    # Thread pools, locks and thread-local caches are runtime-only state:
    # copies (``copy.deepcopy`` of a model holding cached engines) restart
    # with empty caches and a fresh pool.
    def __getstate__(self):
        state = self.__dict__.copy()
        # Telemetry handles (the registry's closures capture ``self``; the
        # profiler holds cross-engine instruments) are process-local too.
        for transient in ("cache", "_pool", "_tls", "_caches",
                          "_caches_lock", "registry", "profiler"):
            state.pop(transient, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.cache = self._new_cache()
        self._pool = None
        self._tls = threading.local()
        self._caches = [self.cache]
        self._caches_lock = threading.Lock()
        self.profiler = None
        self._bind_registry(None)

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> np.ndarray:
        """Run the plan over ``images``, micro-batching as needed.

        When a traced request is ambient (a serving worker activated its
        ``worker.execute`` span around :meth:`handle
        <repro.serve.worker._WorkerState.handle>`), the execution nests an
        ``engine.run`` child span; otherwise the wrapper is one contextvar
        read.
        """
        with ambient_span(f"{self.metrics_prefix}.run",
                          attrs_fn=lambda: {"plan": self.plan.name,
                                            "samples": len(images)}):
            return self._run(images)

    def _run(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float32)
        squeeze = images.ndim == 3
        if squeeze:                       # a single sample without batch dim
            images = images[None]
        total = images.shape[0]
        if total == 0:
            raise ValueError("cannot run the engine on an empty batch")
        chunks = [np.ascontiguousarray(images[start:start + self.micro_batch])
                  for start in range(0, total, self.micro_batch)]
        outputs = []
        if self.optimize and (self.memory_plan is None or
                              not self.memory_plan.matches(chunks[0].shape[1:])):
            # First contact with this input shape: execute the chunk through
            # the classic path while recording output shapes, then plan the
            # arena every later chunk executes in.  A superseded plan's slot
            # buffers are retired from every cache — they can never be
            # requested again under the new plan's slot sizes.
            if self.memory_plan is not None:
                with self._caches_lock:
                    for cache in self._caches:
                        cache.drop_arena()
            record: dict = {}
            outputs.append(self.plan.execute(chunks[0], self.cache,
                                             record=record,
                                             profiler=self.profiler))
            self.batches_run += 1
            self.memory_plan = plan_memory(self.plan, record, chunks[0].shape,
                                           capacity_batch=self.micro_batch)
            chunks = chunks[1:]
        if len(chunks) > 1 and self.num_threads > 1 and self._parallel_ok:
            outputs.extend(self._run_parallel(chunks))
            self.batches_run += len(chunks)
        else:
            for chunk in chunks:
                outputs.append(self._run_chunk(chunk, self.cache))
                self.batches_run += 1
        self.samples_run += total
        out = outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)
        return out[0] if squeeze else out

    __call__ = run

    def _run_chunk(self, chunk: np.ndarray,
                   cache: BufferCache) -> np.ndarray:
        return self.plan.execute(chunk, cache, memory_plan=self.memory_plan,
                                 profiler=self.profiler)

    def _run_pool_chunk(self, chunk: np.ndarray) -> np.ndarray:
        """Run ``chunk`` on a pool thread, in that thread's own context."""
        cache = getattr(self._tls, "cache", None)
        if cache is None:
            cache = self._tls.cache = self._new_cache()
            with self._caches_lock:
                self._caches.append(cache)
        return self._run_chunk(chunk, cache)

    def _run_parallel(self, chunks: List[np.ndarray]) -> List[np.ndarray]:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.num_threads,
                                            thread_name_prefix="repro-engine")
        futures = [self._pool.submit(self._run_pool_chunk, chunk)
                   for chunk in chunks]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        with self._caches_lock:
            for cache in self._caches:
                cache.clear()

    def close(self) -> None:
        """Shut the thread pool down and retire its contexts (idempotent).

        A later parallel run starts a fresh pool whose threads build fresh
        caches, so the retired ones are dropped to keep the engine within
        :attr:`num_contexts`.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        with self._caches_lock:
            self._caches = [self.cache]

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    @property
    def cache_bytes(self) -> int:
        """Scratch plus arena bytes held by every execution context.

        The scratch part stays within ``cache_budget`` plus one buffer of
        slack per context; the arena part is the memory plan's slots, once
        per context that has run planned chunks.
        """
        with self._caches_lock:
            return sum(cache.nbytes for cache in self._caches)

    @property
    def arena_slots(self) -> int:
        return self.memory_plan.num_slots if self.memory_plan is not None else 0

    @property
    def arena_peak_bytes(self) -> int:
        """Total arena footprint at the configured micro-batch (0 until planned).

        Each execution context (the engine's own cache plus one per pool
        thread that has run chunks) materialises its own arena, so the
        total is the planned per-arena peak times the number of registered
        caches — the figure an operator should size memory from.
        """
        if self.memory_plan is None:
            return 0
        with self._caches_lock:
            contexts = len(self._caches)
        return self.memory_plan.peak_bytes(self.micro_batch) * contexts

    @property
    def arena_unplanned_bytes(self) -> int:
        """Per-step fresh-allocation bytes the arena replaces (same contexts)."""
        if self.memory_plan is None:
            return 0
        with self._caches_lock:
            contexts = len(self._caches)
        return self.memory_plan.unplanned_bytes(self.micro_batch) * contexts

    def describe(self) -> str:
        return self.plan.describe(self.memory_plan)
