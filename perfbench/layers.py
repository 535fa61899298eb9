"""Per-layer measurements for the traced run.

Every figure here comes from calls into a layer's public functions made
from the benchmark's own files, or from the program's opt-in instruments:
the :class:`~repro.obs.PlanProfiler` behind ``BatchedPredictor(profile=True)``,
the sampled request spans behind ``Server(trace_sample=1.0)`` and
``Server.stats_dict()``.  Nothing in the program is changed to take them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence

import numpy as np

#: Op classes of the runtime breakdown, in report order.
OP_CLASSES = ("depthwise", "pointwise", "dense", "residual_add",
              "quant_glue", "other")

#: Depthwise share of plan time measured on a 2-core host (warm,
#: ``num_threads=1``, batch 64) when the optimizer was last rebuilt; the
#: traced run prints its own shares beside these.
REFERENCE_DEPTHWISE_SHARE = {"float32": 0.88, "int8": 0.75}

_CONV_OPS = ("conv", "qconv", "qconv_dequant", "qconv_add")
_DENSE_OPS = ("linear", "qlinear")
_GLUE_OPS = ("quantize", "dequantize", "requantize", "qrequantize")
_OTHER_OPS = ("global_pool", "qglobal_pool", "max_pool", "avg_pool",
              "flatten", "act", "bn", "opaque")


def classify_step(step) -> str:
    """Op class of one plan step, from its public ``op``, ``attrs`` and
    weight shape.

    Convolutions split by their grouping and kernel: grouped ones are
    depthwise, ungrouped 1x1 ones pointwise, the rest (the stem) dense.  A
    superfused ``qconv_add`` counts with its projection convolution, which
    does nearly all of its work.  Raises ``ValueError`` for an op this
    table does not know, so a new op cannot slip into ``other`` unseen.
    """
    op = step.op
    if op in _CONV_OPS:
        if int(step.attrs.get("groups", 1) or 1) > 1:
            return "depthwise"
        weight = step.arrays.get("weight")
        if weight is not None and weight.ndim == 4 \
                and weight.shape[2:] == (1, 1):
            return "pointwise"
        return "dense"
    if op in _DENSE_OPS:
        return "dense"
    if op == "add":
        return "residual_add"
    if op in _GLUE_OPS:
        return "quant_glue"
    if op in _OTHER_OPS:
        return "other"
    raise ValueError(f"unclassified plan step op {op!r} ({step.name})")


def class_times_ms(predictor, micro_batch: int = 64) -> Dict[str, float]:
    """Self time per ``micro_batch`` samples of each op class.

    Reads the predictor's :class:`~repro.obs.PlanProfiler`; each step's
    total time is divided by the samples its engine ran.
    """
    engines = {predictor.backbone_engine.plan.name: predictor.backbone_engine,
               predictor.fcr_engine.plan.name: predictor.fcr_engine}
    totals = dict.fromkeys(OP_CLASSES, 0.0)
    for row in predictor.profiler.rows():
        engine = engines[row["plan"]]
        step = engine.plan.steps[row["step"]]
        samples = max(1, engine.samples_run)
        totals[classify_step(step)] += \
            row["total_s"] * 1e3 * micro_batch / samples
    return totals


def op_class_table(times: Dict[str, Dict[str, float]]) -> List[str]:
    """Float32 and int8 op-class times side by side, with shares."""
    modes = list(times)
    lines = ["op class        " + "".join(f"{mode + ' ms':>12} {'share':>6}"
                                         for mode in modes)]
    for cls in OP_CLASSES + ("total",):
        cells = ""
        for mode in modes:
            total = sum(times[mode].values()) or 1.0
            value = total if cls == "total" else times[mode][cls]
            cells += f"{value:>12.3f} {value / total * 100:>5.1f}%"
        lines.append(f"{cls:<16}{cells}")
    reference = ", ".join(f"{mode} {share * 100:.0f}%" for mode, share
                          in REFERENCE_DEPTHWISE_SHARE.items())
    lines.append(f"(recorded depthwise share on a 2-core host, num_threads=1:"
                 f" {reference})")
    return lines


def median_ms(fn: Callable[[], object], repeats: int,
              setup: Callable[[], object] = None) -> float:
    """Median wall time of ``fn`` over ``repeats`` calls (``setup`` runs
    untimed before each)."""
    samples = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1e3)
    return float(np.median(samples))


# ----------------------------------------------------------------------
# repro.runtime
# ----------------------------------------------------------------------
def runtime_engine_layers(predictors: Dict[str, object],
                          images: np.ndarray, repeats: int = 30) -> dict:
    """Backbone ``InferenceEngine.run`` time at batch 1 and 64, plan size
    and planned arena per mode, on warm unprofiled predictors."""
    metrics = {}
    for mode, predictor in predictors.items():
        engine = predictor.backbone_engine
        predictor.predict(images[:64])
        for batch in (1, 64):
            chunk = images[:batch]
            engine.run(chunk)
            metrics[f"runtime.{mode}.backbone_ms.b{batch}"] = median_ms(
                lambda chunk=chunk: engine.run(chunk), repeats)
        metrics[f"runtime.{mode}.plan_steps"] = len(engine.plan)
        metrics[f"runtime.{mode}.arena_peak_bytes"] = \
            predictor.runtime_stats()["arena_peak_bytes"]
    return metrics


def compile_ms(models: Sequence[object], repeats: int = 5) -> float:
    """Cold ``compile_backbone`` + ``optimize_plan`` over the given models
    (one per mode), median of ``repeats``."""
    from repro.runtime import compile_backbone, optimize_plan

    def compile_all():
        for model in models:
            optimize_plan(compile_backbone(model.backbone,
                                           mode=model.config.runtime_mode))
    return median_ms(compile_all, repeats)


def prototype_layers(model, images: np.ndarray, repeats: int = 20) -> dict:
    """Warm prototype GEMM (``predict_features``) and the first call after
    a memory version bump, which also rebuilds the cached matrix."""
    from repro.runtime import BatchedPredictor

    predictor = BatchedPredictor(model)
    theta_p = predictor.embed(images[:64])
    predictor.predict_features(theta_p)
    gemm = median_ms(lambda: predictor.predict_features(theta_p), repeats)
    extra = _probe_features(model.memory.dim)
    next_id = max(model.memory.class_ids) + 1

    def bump():
        model.memory.update_class(next_id, extra)
    refresh = median_ms(lambda: predictor.predict_features(theta_p), repeats,
                        setup=bump)
    return {"runtime.proto_gemm_ms": gemm, "runtime.proto_refresh_ms": refresh}


def _probe_features(dim: int) -> np.ndarray:
    return np.random.default_rng(0).standard_normal(
        (5, dim)).astype(np.float32)


# ----------------------------------------------------------------------
# repro.core.explicit_memory
# ----------------------------------------------------------------------
def memory_layers(dim: int, sizes: Sequence[int] = (60, 100),
                  repeats: int = 200) -> dict:
    """``update_class`` of a new class and ``prototype_matrix`` at each
    memory size."""
    from repro.core.explicit_memory import ExplicitMemory

    metrics = {}
    shots = _probe_features(dim)
    for size in sizes:
        memory = ExplicitMemory(dim=dim)
        for class_id in range(size):
            memory.update_class(class_id, shots)
        metrics[f"memory.update_ms.c{size}"] = median_ms(
            lambda: memory.update_class(size, shots), repeats,
            setup=lambda: memory.remove_class(size))
        metrics[f"memory.prototype_matrix_ms.c{size}"] = median_ms(
            memory.prototype_matrix, repeats)
    return metrics


# ----------------------------------------------------------------------
# repro.serve
# ----------------------------------------------------------------------
def spawn_layers(model, repeats: int = 3) -> dict:
    """``snapshot_model`` on a compiled model, and ``ShardedEngine`` start
    (two spawned workers restored from the snapshot, up to ready)."""
    from repro.serve import ShardedEngine, snapshot_model

    model.runtime_predictor().predict(np.zeros((1, 3, 16, 16), np.float32))
    snapshot_ms = median_ms(lambda: snapshot_model(model), 10)
    snapshot = snapshot_model(model)
    spawn = []
    for _ in range(repeats):
        started = time.perf_counter()
        engine = ShardedEngine(snapshot, num_workers=2)
        spawn.append(time.perf_counter() - started)
        engine.close()
    return {"serve.snapshot_ms": snapshot_ms,
            "serve.spawn_s": float(np.median(spawn))}


def span_layers(spans: List[dict]) -> Dict[str, List[float]]:
    """Per-batch stage times (ms) from one set of request spans.

    A coalesced batch parents its ``batcher.coalesce`` and
    ``shard.dispatch`` spans under the first traced request's
    ``server.submit`` root; the worker's ``worker.execute`` hangs under the
    dispatch span.  Queue wait runs from that request's admission to the
    start of coalescing; transport is dispatch minus worker execution.
    """
    by_id = {span["span_id"]: span for span in spans}
    children: Dict[str, List[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    stages = {"queue_wait": [], "coalesce": [], "transport": [],
              "worker_exec": []}
    for span in spans:
        if span["name"] != "batcher.coalesce":
            continue
        root = by_id.get(span.get("parent_id"))
        dispatch = next((child for child in children.get(span["span_id"], [])
                         if child["name"] == "shard.dispatch"), None)
        if root is None or dispatch is None:
            continue
        execute = next((child for child in children.get(dispatch["span_id"],
                                                         [])
                        if child["name"] == "worker.execute"), None)
        stages["queue_wait"].append((span["start_s"] - root["start_s"]) * 1e3)
        stages["coalesce"].append(span["duration_s"] * 1e3)
        if execute is not None:
            stages["worker_exec"].append(execute["duration_s"] * 1e3)
            stages["transport"].append(
                (dispatch["duration_s"] - execute["duration_s"]) * 1e3)
    return stages
