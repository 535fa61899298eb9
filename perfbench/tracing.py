"""The traced run: every workload with the program's instruments on.

The end-to-end metrics are always measured with tracing off; this run
repeats the chosen workload with predictors profiling and servers sampling
every request, reports ``trace.overhead.*`` (traced minus untraced value),
and runs the other two workloads traced so that every per-layer metric is
measured in every traced run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

#: Op classes a mode's optimized plan has no step of: float32 plans carry
#: no quantize glue, and int8 residual adds are superfused into
#: ``qconv_add``.  Their times read 0 on every run, so they are printed in
#: the op-class table but are not metrics.
EMPTY_OP_CLASSES = {("float32", "quant_glue"), ("int8", "residual_add")}

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {}
for _mode in ("float32", "int8"):
    for _cls in ("depthwise", "pointwise", "dense", "residual_add",
                 "quant_glue", "other"):
        if (_mode, _cls) not in EMPTY_OP_CLASSES:
            PER_LAYER_UNITS[f"runtime.{_mode}.{_cls}_ms"] = "ms"
    PER_LAYER_UNITS[f"runtime.{_mode}.backbone_ms.b1"] = "ms"
    PER_LAYER_UNITS[f"runtime.{_mode}.backbone_ms.b64"] = "ms"
    PER_LAYER_UNITS[f"runtime.{_mode}.plan_steps"] = "count"
    PER_LAYER_UNITS[f"runtime.{_mode}.arena_peak_bytes"] = "bytes"
PER_LAYER_UNITS.update({
    "runtime.compile_ms": "ms",
    "runtime.plan_cache_hits": "count",
    "runtime.plan_cache_misses": "count",
    "runtime.proto_gemm_ms": "ms",
    "runtime.proto_refresh_ms": "ms",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p99": "ms",
    "serve.coalesce_ms.p50": "ms",
    "serve.transport_ms.p50": "ms",
    "serve.worker_exec_ms.p50": "ms",
})
for _rate in (150, 300, 500, 700, 900, 1200):
    PER_LAYER_UNITS[f"serve.batch_size_mean.r{_rate}"] = "samples"
PER_LAYER_UNITS.update({
    "serve.shed_share": "share",
    "serve.max_queue_depth": "count",
    "serve.spawn_s": "s",
    "serve.snapshot_ms": "ms",
    "serve.learn.scatter_ms": "ms",
    "serve.learn.project_ms": "ms",
    "serve.learn.journal_append_ms": "ms",
    "serve.learn.broadcast_ms": "ms",
    "serve.prototype_broadcasts": "per_learn",
})
for _size in (60, 100):
    PER_LAYER_UNITS[f"memory.update_ms.c{_size}"] = "ms"
    PER_LAYER_UNITS[f"memory.prototype_matrix_ms.c{_size}"] = "ms"
PER_LAYER_UNITS.update({
    "trace.overhead.setup_s": "s",
    "trace.overhead.throughput_per_s": "1/s",
    "trace.overhead.cpu_ms_per_op": "ms",
})


def traced_layers(workload: str, seed: int, seconds: float,
                  untraced: Dict[str, float], log, workdir: Path) -> dict:
    """Run every workload traced; return the per-layer metrics."""
    from repro.runtime import default_plan_cache

    from .workloads import WORKLOADS

    cache = default_plan_cache()
    hits, misses = cache.hits, cache.misses
    values: Dict[str, float] = {}
    order = [workload] + [name for name in WORKLOADS if name != workload]
    for name in order:
        outcome = WORKLOADS[name](seed, seconds, True, log, workdir)
        outcome.print(suffix=" (traced)")
        values.update(outcome.layers)
        if name == workload:
            for metric, value in untraced.items():
                values[f"trace.overhead.{metric}"] = \
                    outcome.e2e[metric] - value
    values["runtime.plan_cache_hits"] = cache.hits - hits
    values["runtime.plan_cache_misses"] = cache.misses - misses
    missing = sorted(set(PER_LAYER_UNITS) - set(values))
    if missing:
        raise RuntimeError(f"traced run did not measure {missing}")
    print("== per-layer")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<38} {values[name]:>14.4f} {unit}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
