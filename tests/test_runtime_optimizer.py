"""Plan optimizer conformance: pass-by-pass parity, arena planning, threads.

The optimizer's contract is absolute: every pass — dead-step elimination,
quantize-chain fusion, arena-planned execution, thread-pool chunking — must
reproduce the unoptimized plan's output *bit for bit*.  Float32 plans are
compared optimized-vs-raw on the same machine (same kernels, same BLAS, so
equality is exact); int8 plans are additionally pinned against the committed
golden fixture after each individual pass.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.core import OFSCIL, OFSCILConfig
from repro.models.mobilenetv2 import ConvBNReLU
from repro.runtime import (
    BufferCache,
    InferenceEngine,
    compile_backbone,
    compile_module,
    eliminate_common_subexpressions,
    eliminate_dead_steps,
    fold_identities,
    fuse_quantize_chains,
    optimize_plan,
    superfuse_residual_adds,
)
from repro.runtime import kernels
from repro.runtime.plan import InferencePlan, Step
from repro.serve import snapshot_model

sys.path.insert(0, str(Path(__file__).resolve().parent))
from int8_fixtures import (  # noqa: E402
    BACKBONE,
    RESNET_BACKBONE,
    build_quantized_model,
    load_golden,
)

TINY_BACKBONES = ("mobilenetv2_x4_tiny", "mobilenetv2_tiny", "resnet12_tiny",
                  "resnet20_tiny")

#: Families the int8 optimizer conformance parametrizes over (the committed
#: golden fixtures pin the exact bits per family).
INT8_BACKBONES = (BACKBONE, RESNET_BACKBONE)

#: Engine thread counts the cache, arena and parity suites run under, so the
#: host's core count does not pick which execution path tier-1 covers.
THREAD_COUNTS = (1, 2, 4)


def make_model(backbone: str, seed: int = 0) -> OFSCIL:
    model = OFSCIL.from_registry(backbone, OFSCILConfig(backbone=backbone),
                                 seed=seed)
    model.backbone.eval()
    model.fcr.eval()
    return model


@pytest.fixture(scope="module")
def quantized():
    return build_quantized_model()


@pytest.fixture(scope="module")
def golden():
    return load_golden(BACKBONE)


@pytest.fixture(scope="module", params=INT8_BACKBONES)
def int8_case(request):
    """(quantized model, golden arrays), parametrized over both families."""
    golden = load_golden(request.param)
    model, _ = build_quantized_model(request.param)
    return model, golden


# ---------------------------------------------------------------------------
# Pass-by-pass parity
# ---------------------------------------------------------------------------
class TestFloatParity:
    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    @pytest.mark.parametrize("backbone", TINY_BACKBONES)
    def test_optimized_plan_is_bit_identical(self, backbone, num_threads,
                                             rng):
        model = make_model(backbone)
        plan = compile_backbone(model.backbone)
        images = rng.standard_normal((40, 3, 16, 16)).astype(np.float32)
        raw = InferenceEngine(plan, optimize=False, micro_batch=16,
                              num_threads=1).run(images)
        engine = InferenceEngine(plan, optimize=True, micro_batch=16,
                                 num_threads=num_threads)
        np.testing.assert_array_equal(raw, engine.run(images))
        engine.close()

    @pytest.mark.parametrize(
        "passes", [eliminate_dead_steps, fuse_quantize_chains,
                   fold_identities, eliminate_common_subexpressions,
                   superfuse_residual_adds, optimize_plan])
    def test_each_pass_preserves_float_outputs(self, passes, rng):
        model = make_model("mobilenetv2_x4_tiny")
        plan = compile_backbone(model.backbone)
        images = rng.standard_normal((9, 3, 16, 16)).astype(np.float32)
        raw = InferenceEngine(plan, optimize=False).run(images)
        transformed = InferenceEngine(passes(plan), optimize=False).run(images)
        np.testing.assert_array_equal(raw, transformed)

    def test_float_plan_has_no_quantize_chains_to_fuse(self):
        model = make_model("mobilenetv2_x4_tiny")
        plan = compile_backbone(model.backbone)
        assert fuse_quantize_chains(plan) is plan
        assert eliminate_dead_steps(plan) is plan

    def test_compile_optimize_kwarg(self, quantized, rng):
        model, _ = quantized
        raw = compile_backbone(model.backbone, mode="int8")
        optimized = compile_backbone(model.backbone, mode="int8",
                                     optimize=True)
        assert not raw.optimized and optimized.optimized
        assert len(optimized.steps) < len(raw.steps)
        images = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(
            InferenceEngine(raw, optimize=False).run(images),
            InferenceEngine(optimized, optimize=False).run(images))


class TestPassesSynthetic:
    @staticmethod
    def _conv_step(name, inputs, output, rng, channels=3):
        weight = rng.standard_normal((channels, channels, 1, 1)) \
            .astype(np.float32)
        return Step(op="conv", name=name, inputs=inputs, output=output,
                    arrays={"weight": weight,
                            "bias": np.zeros(channels, dtype=np.float32)},
                    attrs={"stride": 1, "padding": 0, "groups": 1, "act": None})

    def test_dead_steps_are_eliminated(self, rng):
        live = self._conv_step("live", ("x",), "%live", rng)
        dead = self._conv_step("dead", ("x",), "%dead", rng)
        plan = InferencePlan(steps=[live, dead], output_register="%live")
        optimized = eliminate_dead_steps(plan)
        assert [step.name for step in optimized.steps] == ["live"]
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(plan.execute(x), optimized.execute(x))

    def test_dead_opaque_steps_are_kept(self, rng):
        probe = nn.ReLU()
        probe.register_forward_hook(lambda module, out: out)
        live = self._conv_step("live", ("x",), "%live", rng)
        dead = Step(op="opaque", name="probe", inputs=("x",), output="%probe",
                    module=probe)
        plan = InferencePlan(steps=[live, dead], output_register="%live")
        assert len(eliminate_dead_steps(plan).steps) == 2

    def test_dequantize_quantize_chain_fuses_to_qrequantize(self, rng):
        steps = [Step(op="dequantize", name="dq", inputs=("x",), output="%f",
                      attrs={"scale": 0.05}),
                 Step(op="quantize", name="q", inputs=("%f",), output="%q",
                      attrs={"scale": 0.125})]
        plan = InferencePlan(steps=steps, output_register="%q")
        fused = fuse_quantize_chains(plan)
        assert [step.op for step in fused.steps] == ["qrequantize"]
        codes = rng.integers(-127, 128, size=(4, 3, 5, 5)).astype(np.int8)
        np.testing.assert_array_equal(plan.execute(codes),
                                      fused.execute(codes))

    def test_same_scale_requantize_quantize_collapses(self, rng):
        steps = [Step(op="requantize", name="rq", inputs=("x",), output="%r",
                      attrs={"scale": 0.0625}),
                 Step(op="quantize", name="q", inputs=("%r",), output="%q",
                      attrs={"scale": 0.0625})]
        plan = InferencePlan(steps=steps, output_register="%q")
        fused = fuse_quantize_chains(plan)
        assert [step.op for step in fused.steps] == ["quantize"]
        x = (rng.standard_normal((4, 8)) * 4.0).astype(np.float32)
        np.testing.assert_array_equal(plan.execute(x), fused.execute(x))

    def test_multi_use_dequantize_is_not_fused(self, rng):
        # The dequantized register feeds the add AND the plan output: folding
        # it into the add would orphan the second consumer.
        steps = [Step(op="dequantize", name="dq", inputs=("x",), output="%f",
                      attrs={"scale": 0.05}),
                 Step(op="add", name="add", inputs=("%f", "%f"), output="%s",
                      attrs={"act": None})]
        plan = InferencePlan(steps=steps, output_register="%f")
        assert fuse_quantize_chains(plan) is plan


class TestInt8Fusion:
    def test_residual_chains_are_fused(self, int8_case):
        model, _ = int8_case
        raw = compile_backbone(model.backbone, mode="int8")
        optimized = optimize_plan(raw)
        assert optimized.optimized
        assert len(optimized.steps) < len(raw.steps)
        # Residual joins either fused their dequantize/quantize neighbours
        # in place (``add`` with scale attrs) or were superfused with their
        # producing conv into one ``qconv_add`` step.
        fused_adds = [step for step in optimized.steps
                      if (step.op == "add"
                          and ("out_scale" in step.attrs
                               or "in_scale_1" in step.attrs))
                      or step.op == "qconv_add"]
        assert fused_adds, "residual dequantize/quantize chains must fuse"
        assert any(step.op == "qconv_add" for step in optimized.steps), \
            "int8 residual tails must superfuse conv + add + requantize"
        # No single-use dequantize feeding an add survives the fusion pass.
        producers = {step.output: step for step in optimized.steps}
        for step in optimized.steps:
            if step.op != "add":
                continue
            for register in step.inputs:
                feeder = producers.get(register)
                assert feeder is None or feeder.op != "dequantize" or \
                    sum(register in other.inputs
                        for other in optimized.steps) > 1

    def test_optimize_plan_is_idempotent(self, int8_case):
        model, _ = int8_case
        plan = optimize_plan(compile_backbone(model.backbone, mode="int8"))
        assert optimize_plan(plan) is plan

    def test_optimized_step_counts_are_pinned(self, int8_case):
        # The recorded step counts per family: regressions here mean a
        # rewrite rule stopped firing.  CI additionally gates the MobileNetV2
        # count through ``plan_stats --assert-max-steps``.
        model, _ = int8_case
        optimized = optimize_plan(compile_backbone(model.backbone,
                                                   mode="int8"))
        pins = {"mobilenetv2_x4_tiny": 32, "resnet20_tiny": 18}
        pin = pins[model.config.backbone]
        assert len(optimized.steps) <= pin
        assert len(optimized.steps) < 35
        assert optimized.pass_stats.get("qconv_add_superfusion", 0) >= 3

    def test_optimized_plan_records_pass_stats(self, int8_case):
        model, _ = int8_case
        optimized = optimize_plan(compile_backbone(model.backbone,
                                                   mode="int8"))
        stats = optimized.pass_stats
        assert stats["dequantize_into_add"] >= 3
        assert stats["add_quantize_fusion"] >= 3
        assert sum(stats.values()) > 0

    @pytest.mark.parametrize(
        "passes", [eliminate_dead_steps, fuse_quantize_chains,
                   fold_identities, eliminate_common_subexpressions,
                   superfuse_residual_adds, optimize_plan])
    def test_each_pass_reproduces_the_golden_bits(self, passes, int8_case):
        model, golden = int8_case
        plan = passes(compile_backbone(model.backbone, mode="int8"))
        out = InferenceEngine(plan, optimize=False).run(golden["images"])
        np.testing.assert_array_equal(out, golden["theta_a"])

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_arena_and_threads_reproduce_the_golden_bits(self, int8_case,
                                                         num_threads):
        model, golden = int8_case
        plan = compile_backbone(model.backbone, mode="int8")
        engine = InferenceEngine(plan, micro_batch=3, num_threads=num_threads)
        np.testing.assert_array_equal(engine.run(golden["images"]),
                                      golden["theta_a"])
        assert engine.memory_plan is not None
        engine.close()


# ---------------------------------------------------------------------------
# Arena memory planner
# ---------------------------------------------------------------------------
def materialized_memory_plan(plan, images):
    engine = InferenceEngine(plan, micro_batch=images.shape[0])
    engine.run(images)
    return engine.plan, engine.memory_plan


def assert_no_live_aliasing(plan, memory_plan):
    """No slot may host two registers whose live intervals overlap.

    A register is live from the step defining it through the last step
    reading it (or any view of it); the plan output lives forever.  This is
    the safety property the executor relies on when it hands kernels
    ``out=`` views: writing a step's output must never clobber a value some
    later step still reads.
    """
    def root(register):
        while register in memory_plan.alias_of:
            register = memory_plan.alias_of[register]
        return register

    defined = {root(step.output): index
               for index, step in enumerate(plan.steps)
               if step.output not in memory_plan.alias_of}
    last_read = {}
    for register, index in plan.last_use().items():
        register = root(register)
        last_read[register] = max(last_read.get(register, -1), index)
    intervals = {register: (defined[register],
                            last_read.get(register, defined[register]))
                 for register in memory_plan.slot_of}
    registers = sorted(memory_plan.slot_of)
    for i, first in enumerate(registers):
        for second in registers[i + 1:]:
            if memory_plan.slot_of[first] != memory_plan.slot_of[second]:
                continue
            start_a, end_a = intervals[first]
            start_b, end_b = intervals[second]
            assert end_a < start_b or end_b < start_a, (
                f"registers {first} and {second} share slot "
                f"{memory_plan.slot_of[first]} while both live "
                f"({intervals[first]} vs {intervals[second]})")


class TestArenaPlanner:
    @pytest.mark.parametrize("backbone", TINY_BACKBONES)
    def test_planner_never_aliases_live_registers(self, backbone, rng):
        model = make_model(backbone)
        images = rng.standard_normal((6, 3, 16, 16)).astype(np.float32)
        plan, memory_plan = materialized_memory_plan(
            compile_backbone(model.backbone), images)
        assert memory_plan.num_slots >= 2
        assert_no_live_aliasing(plan, memory_plan)

    def test_planner_property_on_random_conv_stacks(self, rng):
        for trial in range(5):
            depth = int(rng.integers(2, 6))
            channels = [3] + [int(rng.integers(2, 9)) for _ in range(depth)]
            layers = [ConvBNReLU(channels[i], channels[i + 1], rng=rng)
                      for i in range(depth)]
            net = nn.Sequential(*layers, nn.GlobalAvgPool2d())
            net.eval()
            images = rng.standard_normal((3, 3, 12, 12)).astype(np.float32)
            plan, memory_plan = materialized_memory_plan(
                compile_module(net), images)
            assert_no_live_aliasing(plan, memory_plan)

    def test_int8_planner_never_aliases_live_registers(self, int8_case):
        model, golden = int8_case
        plan, memory_plan = materialized_memory_plan(
            compile_backbone(model.backbone, mode="int8"),
            golden["images"])
        assert_no_live_aliasing(plan, memory_plan)

    def test_arena_shrinks_peak_memory(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        _, memory_plan = materialized_memory_plan(
            compile_backbone(model.backbone), images)
        peak = memory_plan.peak_bytes(64)
        unplanned = memory_plan.unplanned_bytes(64)
        assert peak < 0.6 * unplanned, (
            f"arena ({peak} B) must cut >= 40% off per-step allocation "
            f"({unplanned} B)")

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_results_survive_arena_reuse_across_chunks(self, num_threads,
                                                       rng):
        # The plan output must never live in the arena: a second run reuses
        # every slot, and the first result has been handed to the caller.
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=4, num_threads=num_threads)
        engine.run(rng.standard_normal((4, 3, 16, 16)).astype(np.float32))
        first_images = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        second_images = rng.standard_normal((12, 3, 16, 16)).astype(np.float32)
        first = engine.run(first_images)          # one planned chunk
        kept = first.copy()
        second = engine.run(second_images)        # pooled when threaded
        np.testing.assert_array_equal(first, kept)
        assert not np.array_equal(first, second[:4])
        engine.close()

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_memory_plan_rebuilds_on_input_shape_change(self, num_threads,
                                                        rng):
        model = make_model("mobilenetv2_x4_tiny")
        plan = compile_backbone(model.backbone)
        engine = InferenceEngine(plan, micro_batch=2, num_threads=num_threads)
        engine.run(rng.standard_normal((8, 3, 16, 16)).astype(np.float32))
        assert engine.memory_plan.input_shape == (3, 16, 16)
        large = rng.standard_normal((8, 3, 20, 20)).astype(np.float32)
        out = engine.run(large)
        assert engine.memory_plan.input_shape == (3, 20, 20)
        reference = InferenceEngine(plan, optimize=False,
                                    micro_batch=4).run(large)
        np.testing.assert_array_equal(out, reference)
        engine.close()

    def test_flatten_output_plan_is_safe(self, rng):
        # A plan ending in a flatten view must not return a view into the
        # arena: its alias root is unmanaged by construction.
        net = nn.Sequential(ConvBNReLU(3, 4, rng=rng), nn.Flatten())
        net.eval()
        engine = InferenceEngine(compile_module(net), micro_batch=2)
        images = rng.standard_normal((6, 3, 6, 6)).astype(np.float32)
        first = engine.run(images[:2])
        kept = first.copy()
        engine.run(images[2:])
        np.testing.assert_array_equal(first, kept)
        memory_plan = engine.memory_plan
        assert memory_plan.alias_of     # the flatten is planned as an alias

    def test_describe_includes_arena_summary(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone))
        engine.run(rng.standard_normal((4, 3, 16, 16)).astype(np.float32))
        description = engine.describe()
        assert "# arena:" in description and "slot 0:" in description
        # Without a memory plan, describe() stays one line per step.
        plan = compile_backbone(model.backbone)
        assert len(plan.describe().splitlines()) == len(plan) + 1


# ---------------------------------------------------------------------------
# Remainder chunks through the arena (slot views are recorded from a full
# micro-batch chunk; every smaller chunk slices the same buffers)
# ---------------------------------------------------------------------------
class TestArenaRemainderChunks:
    @pytest.mark.parametrize("num_threads", THREAD_COUNTS + (3,))
    def test_remainder_chunks_execute_bitwise_through_the_arena(
            self, int8_case, num_threads):
        # N % micro_batch != 0: the final chunk's slot views are prefix
        # slices of buffers whose shapes were recorded from a full chunk —
        # they must be exactly the contiguous layout the kernels' out=
        # paths expect, so the int8 bits cannot move, serial or threaded.
        model, golden = int8_case
        plan = compile_backbone(model.backbone, mode="int8")
        images = np.concatenate([golden["images"], golden["images"]])  # 16
        reference = InferenceEngine(plan, optimize=False,
                                    micro_batch=64).run(images)
        engine = InferenceEngine(plan, micro_batch=5, num_threads=num_threads)
        np.testing.assert_array_equal(engine.run(images), reference)
        assert engine.memory_plan is not None
        engine.close()

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_first_run_smaller_than_micro_batch(self, int8_case, num_threads):
        # The memory plan records shapes from whatever the first real chunk
        # is; a first run below the micro-batch must plan per-sample shapes
        # that later full-size chunks slice correctly.
        model, golden = int8_case
        plan = compile_backbone(model.backbone, mode="int8")
        engine = InferenceEngine(plan, micro_batch=64, num_threads=num_threads)
        engine.run(golden["images"][:3])          # records at batch 3
        assert engine.memory_plan is not None
        assert engine.memory_plan.capacity_batch == 64
        np.testing.assert_array_equal(engine.run(golden["images"]),
                                      golden["theta_a"])
        engine.close()

    def test_oversized_direct_execute_rekeys_the_arena(self, rng):
        # Executing the plan directly (outside the engine, which clamps
        # chunks to its micro-batch) with a batch beyond the arena capacity
        # must neither corrupt results nor accumulate one eviction-exempt
        # buffer per distinct oversize: the arena is rekeyed at the larger
        # capacity.
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=4)
        engine.run(rng.standard_normal((4, 3, 16, 16)).astype(np.float32))
        memory_plan = engine.memory_plan
        # A second cache (standing in for a pool thread's) materialises its
        # arena under the original capacity.
        other_cache = BufferCache()
        small = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        engine.plan.execute(small, other_cache, memory_plan=memory_plan)
        big = rng.standard_normal((9, 3, 16, 16)).astype(np.float32)
        out = engine.plan.execute(big, engine.cache, memory_plan=memory_plan)
        reference = engine.plan.execute(big, BufferCache())
        np.testing.assert_array_equal(out, reference)
        assert memory_plan.capacity_batch == 9
        arena_keys = [key for key in engine.cache._buffers
                      if key[0].startswith(BufferCache.ARENA_PREFIX)]
        assert len(arena_keys) == memory_plan.num_slots
        # The other cache retires its stale-capacity buffers lazily on its
        # next planned execute instead of pinning them forever (arena
        # buffers are exempt from LRU eviction).
        np.testing.assert_array_equal(
            engine.plan.execute(big, other_cache, memory_plan=memory_plan),
            reference)
        other_arena = [key for key in other_cache._buffers
                       if key[0].startswith(BufferCache.ARENA_PREFIX)]
        assert len(other_arena) == memory_plan.num_slots
        other_cache.check_invariants()


# ---------------------------------------------------------------------------
# Thread-pool chunk execution
# ---------------------------------------------------------------------------
class TestThreadedEngine:
    @pytest.mark.parametrize("num_threads", (2, 3, 4))
    def test_threaded_chunks_match_serial_bitwise(self, num_threads, rng):
        model = make_model("mobilenetv2_x4_tiny")
        plan = compile_backbone(model.backbone)
        images = rng.standard_normal((70, 3, 16, 16)).astype(np.float32)
        serial = InferenceEngine(plan, micro_batch=8, num_threads=1)
        threaded = InferenceEngine(plan, micro_batch=8,
                                   num_threads=num_threads)
        np.testing.assert_array_equal(serial.run(images), threaded.run(images))
        assert serial.batches_run == threaded.batches_run == 9
        assert threaded.samples_run == 70
        threaded.close()

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_per_thread_caches_are_registered(self, num_threads, rng):
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=4, num_threads=num_threads)
        engine.run(rng.standard_normal((32, 3, 16, 16)).astype(np.float32))
        assert engine.cache_bytes > 0
        assert 1 <= len(engine._caches) <= engine.num_contexts
        assert engine.num_contexts == (1 if num_threads == 1
                                       else 1 + num_threads)
        engine.close()
        assert engine._caches == [engine.cache]   # pool contexts retired

    def test_opaque_plans_stay_serial_but_correct(self, rng):
        net = nn.Sequential(ConvBNReLU(3, 4, rng=rng), nn.GlobalAvgPool2d())
        net.eval()
        net[0].act.register_forward_hook(lambda module, out: out * 2.0)
        engine = InferenceEngine(compile_module(net), micro_batch=4,
                                 num_threads=4)
        assert not engine._parallel_ok
        images = rng.standard_normal((12, 3, 8, 8)).astype(np.float32)
        reference = InferenceEngine(compile_module(net), optimize=False,
                                    micro_batch=4).run(images)
        np.testing.assert_array_equal(engine.run(images), reference)

    def test_invalid_thread_count_rejected(self):
        model = make_model("mobilenetv2_x4_tiny")
        with pytest.raises(ValueError):
            InferenceEngine(compile_backbone(model.backbone), num_threads=0)

    def test_memory_plan_for_a_rewritten_plan_is_dropped(self, quantized,
                                                         golden):
        # A memory plan recorded against a raw plan maps registers that
        # optimization renames (add -> quantize fusion); accepting it would
        # let the fused add write into a slot whose reservation was computed
        # from the raw plan's liveness.  The engine must drop it and
        # re-record instead of executing through a mismatched arena.
        from repro.runtime import plan_memory
        from repro.runtime.kernels import BufferCache as Cache

        model, _ = quantized
        raw = compile_backbone(model.backbone, mode="int8")
        record = {}
        raw.execute(golden["images"], Cache(), record=record)
        stale = plan_memory(raw, record, golden["images"].shape)
        engine = InferenceEngine(raw, micro_batch=3, memory_plan=stale)
        assert engine.memory_plan is None        # dropped, not trusted
        np.testing.assert_array_equal(engine.run(golden["images"]),
                                      golden["theta_a"])
        assert engine.memory_plan is not stale   # re-recorded on first run


# ---------------------------------------------------------------------------
# LRU-bounded buffer cache
# ---------------------------------------------------------------------------
def arena_keys(cache):
    return [key for key in cache._buffers
            if key[0].startswith(BufferCache.ARENA_PREFIX)]


def track_planned_contexts(engine):
    """Collect (by identity) every cache a planned chunk executes in."""
    planned = {}
    execute = engine.plan.execute

    def tracking(chunk, cache, memory_plan=None, **kwargs):
        if memory_plan is not None:
            planned[id(cache)] = cache
        return execute(chunk, cache, memory_plan=memory_plan, **kwargs)

    engine.plan.execute = tracking
    return planned


def assert_arena_in_every_context(engine, contexts):
    """Every context that ran a planned chunk holds exactly the slots."""
    assert contexts
    for cache in contexts:
        assert len(arena_keys(cache)) == engine.memory_plan.num_slots


def assert_engine_within_budget(engine, budget):
    """The engine-wide scratch bound: ``budget`` over all contexts, arena
    bytes exempt per context, one buffer of slack per context."""
    assert len(engine._caches) <= engine.num_contexts
    exempt = sum(cache._buffers[key].nbytes
                 for cache in engine._caches for key in arena_keys(cache))
    slack = sum(max(cache._buffers.values(), key=lambda b: b.nbytes).nbytes
                for cache in engine._caches if len(cache))
    assert engine.cache_bytes <= budget + exempt + slack


class TestBufferCacheBudget:
    def test_unbounded_by_default(self):
        cache = BufferCache()
        for index in range(8):
            cache.get(f"tag{index}", (1024,), np.float32)
        assert len(cache) == 8

    def test_lru_eviction_past_budget(self):
        cache = BufferCache(max_bytes=3 * 4096)
        for index in range(3):
            cache.get(f"tag{index}", (1024,), np.float32)   # 4 KiB each
        cache.get("tag0", (1024,), np.float32)              # refresh tag0
        cache.get("tag3", (1024,), np.float32)              # evicts tag1 (LRU)
        tags = {key[0] for key in cache._buffers}
        assert tags == {"tag0", "tag2", "tag3"}
        assert cache.nbytes == 3 * 4096
        cache.check_invariants()

    def test_requested_buffer_is_never_evicted(self):
        cache = BufferCache(max_bytes=1024)
        big = cache.get("big", (4096,), np.float32)         # over budget alone
        assert cache.get("big", (4096,), np.float32) is big
        assert len(cache) == 1
        cache.check_invariants()

    def test_nbytes_tracks_clear(self):
        cache = BufferCache(max_bytes=10 * 4096)
        cache.get("a", (1024,), np.float32)
        assert cache.nbytes == 4096
        cache.clear()
        assert cache.nbytes == 0 and len(cache) == 0
        cache.check_invariants()

    def test_byte_accounting_survives_drop_evict_reget_sequences(self):
        # The counters are maintained incrementally; any desync across
        # drop_arena + LRU eviction + same-key re-get sequences would skew
        # the budget and every cache_bytes stat.  check_invariants recomputes
        # both sums from the held buffers after every mutation.
        rng = np.random.default_rng(0)
        for budget in (None, 64, 1024):
            cache = BufferCache(max_bytes=budget)
            for _ in range(2000):
                action = rng.integers(0, 10)
                if action < 7:
                    arena = rng.integers(0, 3) == 0
                    tag = ("arena:" if arena else "") + f"t{rng.integers(0, 6)}"
                    dtype = np.uint8 if rng.integers(0, 2) else np.float32
                    cache.get(tag, (int(rng.integers(1, 64)),), dtype)
                elif action < 9:
                    cache.drop_arena()
                else:
                    cache.clear()
                cache.check_invariants()

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_engine_caches_keep_consistent_accounting(self, num_threads, rng):
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=8, cache_budget=1 << 18,
                                 num_threads=num_threads)
        for batch in (16, 3, 16, 5):
            engine.run(rng.standard_normal((batch, 3, 16, 16))
                       .astype(np.float32))
        for cache in engine._caches:
            cache.check_invariants()
        assert_engine_within_budget(engine, 1 << 18)
        engine.close()

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_engine_budget_bounds_cache(self, num_threads, rng):
        # cache_budget bounds the whole engine: each of its num_contexts
        # caches holds an even share.
        model = make_model("mobilenetv2_x4_tiny")
        budget = 1 << 20
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=16, cache_budget=budget,
                                 num_threads=num_threads)
        engine.run(rng.standard_normal((48, 3, 16, 16)).astype(np.float32))
        assert_engine_within_budget(engine, budget)
        assert all(cache.max_bytes == budget // engine.num_contexts
                   for cache in engine._caches)
        engine.close()

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_arena_buffers_are_never_evicted(self, num_threads, rng):
        # A budget below the arena working set must not make every step's
        # out_view evict the other slots: the budget governs scratch only,
        # so planned execution stays allocation-free and bit-correct in
        # every context.
        model = make_model("mobilenetv2_x4_tiny")
        plan = compile_backbone(model.backbone)
        images = rng.standard_normal((32, 3, 16, 16)).astype(np.float32)
        reference = InferenceEngine(plan, micro_batch=8, num_threads=1)
        expected = reference.run(images)
        tight = InferenceEngine(plan, micro_batch=8, cache_budget=1,
                                num_threads=num_threads)
        planned = track_planned_contexts(tight)
        np.testing.assert_array_equal(tight.run(images), expected)
        assert_arena_in_every_context(tight, planned.values())
        assert_engine_within_budget(tight, 1)
        tight.close()

    def test_arena_bytes_do_not_consume_the_scratch_budget(self, rng):
        # Arena bytes exceeding max_bytes must not evict scratch buffers on
        # every get (the im2col/pad reuse the 4.5x floor depends on).
        cache = BufferCache(max_bytes=4096)
        cache.get("arena:0", (1 << 20,), np.uint8)     # 1 MiB, over budget
        pad = cache.get("pad", (512,), np.float32)     # 2 KiB scratch
        assert cache.get("col", (256,), np.float32) is not None
        assert cache.get("pad", (512,), np.float32) is pad   # not thrashed
        assert cache._scratch_nbytes <= cache.max_bytes

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_varying_chunk_sizes_reuse_one_buffer_per_slot(self, num_threads,
                                                           rng):
        # Dynamic batchers produce many distinct batch sizes; the arena must
        # not retain one buffer per (slot, size) pair in any context.
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=16, num_threads=num_threads)
        planned = track_planned_contexts(engine)
        for batch in (32, 1, 7, 13, 32, 5, 19):
            engine.run(rng.standard_normal((batch, 3, 16, 16))
                       .astype(np.float32))
        assert id(engine.cache) in planned     # the single-chunk runs
        assert_arena_in_every_context(engine, planned.values())
        for cache in planned.values():
            assert sum(cache._buffers[key].nbytes
                       for key in arena_keys(cache)) == \
                engine.memory_plan.peak_bytes(engine.micro_batch)
        engine.close()

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_restored_plan_capacity_is_raised_to_the_micro_batch(
            self, num_threads, rng):
        # A shipped memory plan recorded at a smaller micro-batch must not
        # key one eviction-exempt arena buffer per distinct larger chunk
        # size: the accepting engine raises the capacity to its own
        # micro-batch.
        model = make_model("mobilenetv2_x4_tiny")
        small = InferenceEngine(compile_backbone(model.backbone),
                                micro_batch=8)
        small.run(rng.standard_normal((8, 3, 16, 16)).astype(np.float32))
        assert small.memory_plan.capacity_batch == 8
        big = InferenceEngine(small.plan, micro_batch=32,
                              memory_plan=small.memory_plan,
                              num_threads=num_threads)
        assert big.memory_plan.capacity_batch == 32
        planned = track_planned_contexts(big)
        for batch in (32, 16, 24, 32, 96):
            big.run(rng.standard_normal((batch, 3, 16, 16))
                    .astype(np.float32))
        assert_arena_in_every_context(big, planned.values())
        big.close()

    def test_counters_track_completed_chunks_only(self, rng):
        calls = []

        def failing_hook(module, out):
            calls.append(out)
            if len(calls) >= 2:
                raise RuntimeError("hook blew up")
            return out

        net = nn.Sequential(ConvBNReLU(3, 4, rng=rng), nn.GlobalAvgPool2d())
        net.eval()
        net[0].act.register_forward_hook(failing_hook)
        engine = InferenceEngine(compile_module(net), micro_batch=4)
        images = rng.standard_normal((12, 3, 8, 8)).astype(np.float32)
        with pytest.raises(RuntimeError, match="hook blew up"):
            engine.run(images)
        assert engine.batches_run == 1      # only the completed first chunk
        assert engine.samples_run == 0      # the run never finished

    @pytest.mark.parametrize("num_threads", THREAD_COUNTS)
    def test_replan_retires_the_stale_arena(self, num_threads, rng):
        model = make_model("mobilenetv2_x4_tiny")
        engine = InferenceEngine(compile_backbone(model.backbone),
                                 micro_batch=4, num_threads=num_threads)
        planned = track_planned_contexts(engine)
        engine.run(rng.standard_normal((12, 3, 16, 16)).astype(np.float32))
        stale = {key for cache in engine._caches for key in arena_keys(cache)}
        assert_arena_in_every_context(engine, planned.values())
        planned.clear()
        engine.run(rng.standard_normal((12, 3, 20, 20)).astype(np.float32))
        current = {key for cache in engine._caches
                   for key in arena_keys(cache)}
        assert current and not (stale & current)
        assert_arena_in_every_context(engine, planned.values())
        engine.close()


# ---------------------------------------------------------------------------
# Fused kernels replicate the unfused arithmetic exactly
# ---------------------------------------------------------------------------
class TestFusedKernels:
    def test_fused_add_matches_unfused_chain(self, rng):
        x_codes = rng.integers(-127, 128, (4, 6, 5, 5)).astype(np.int8)
        y = rng.standard_normal((4, 6, 5, 5)).astype(np.float32)
        s_x, s_out = 0.07, 0.11
        expected = kernels.quantize_int8(
            kernels.apply_activation(
                kernels.dequantize_int8(x_codes, s_x) + y, "relu"),
            s_out)
        cache = BufferCache()
        actual = kernels.fused_add(x_codes, y, in_scale_x=s_x, act="relu",
                                   out_scale=s_out, cache=cache)
        np.testing.assert_array_equal(actual, expected)

    def test_fused_add_float_path_matches_plain_add(self, rng):
        x = rng.standard_normal((3, 4, 6, 6)).astype(np.float32)
        y = rng.standard_normal((3, 4, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(kernels.fused_add(x, y), x + y)

    def test_requantize_codes_matches_chain(self, rng):
        codes = rng.integers(-127, 128, (4, 8, 3, 3)).astype(np.int8)
        s_in, s_out = 0.05, 0.125
        expected = kernels.quantize_int8(
            kernels.dequantize_int8(codes, s_in), s_out)
        actual = kernels.requantize_codes(codes, s_in, s_out,
                                          cache=BufferCache())
        np.testing.assert_array_equal(actual, expected)

    def test_depthwise_fast_path_is_exact_for_integers(self, rng):
        channels = 5
        q = rng.integers(-127, 128, (3, channels, 9, 9)).astype(np.int8)
        weight_q = rng.integers(-127, 128,
                                (channels, 1, 3, 3)).astype(np.int8)
        fast = kernels.depthwise_conv(q, weight_q.astype(np.float32),
                                      stride=1, padding=1)
        cols = kernels.im2col_cached(q, 3, 3, 1, 1).astype(np.int64)
        exact = np.einsum("nckl,ck->ncl", cols,
                          weight_q.reshape(channels, 9).astype(np.int64))
        np.testing.assert_array_equal(
            fast.reshape(3, channels, -1).astype(np.int64), exact)

    def test_pad_cached_rezeroes_only_the_stale_halo(self, rng):
        # Two layers with the same padded shape but different (h, padding)
        # splits share one cache buffer; each call must see a zero halo.
        cache = BufferCache()
        small = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        large = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        for x, padding in ((large, 1), (small, 2), (large, 1), (small, 2)):
            cached = kernels.pad_cached(x, padding, cache)
            np.testing.assert_array_equal(cached,
                                          kernels.pad_cached(x, padding, None))
        assert len([key for key in cache._buffers if key[0] == "pad"]) == 1

    def test_pad_cached_mixed_padding_reuse_survives_poisoning(self, rng):
        # Adversarial variant of the halo test: between calls the entire
        # shared buffer is filled with garbage (NaN / sentinel codes), so a
        # single element anywhere in the delta region between the old and
        # new halo that pad_cached fails to rewrite surfaces immediately —
        # for float and int8 layers, square and rectangular maps.
        for dtype, poison in ((np.float32, np.nan), (np.int8, 113)):
            cache = BufferCache()
            for h, w, padding in ((8, 6, 1), (6, 4, 2), (8, 6, 1),
                                  (4, 2, 3), (6, 4, 2)):
                x = (rng.standard_normal((2, 3, h, w)) * 40).astype(dtype)
                padded_shape = (2, 3, h + 2 * padding, w + 2 * padding)
                cache.get("pad", padded_shape, dtype)[...] = poison
                cached = kernels.pad_cached(x, padding, cache)
                np.testing.assert_array_equal(
                    cached, kernels.pad_cached(x, padding, None))
            assert len([key for key in cache._buffers
                        if key[0] == "pad"]) == 1

    def test_int_global_avg_pool_is_exact_integer_accumulation(self, rng):
        q = rng.integers(-127, 128, (4, 6, 7, 5)).astype(np.int8)
        scale = 0.03125
        expected = (q.astype(np.int64).sum(axis=(2, 3))
                    * (scale / 35.0)).astype(np.float32)
        np.testing.assert_array_equal(
            kernels.int_global_avg_pool(q, scale), expected)
        out = np.empty((4, 6), dtype=np.float32)
        kernels.int_global_avg_pool(q, scale, out=out)
        np.testing.assert_array_equal(out, expected)
        # Chunking the batch cannot perturb a bit (per-sample arithmetic).
        np.testing.assert_array_equal(
            np.concatenate([kernels.int_global_avg_pool(q[:1], scale),
                            kernels.int_global_avg_pool(q[1:], scale)]),
            expected)


# ---------------------------------------------------------------------------
# Snapshots carry optimized plans + arena specs
# ---------------------------------------------------------------------------
class TestSnapshotCarriesArena:
    def test_snapshot_preserves_optimization_and_memory_plan(self, rng):
        import pickle

        model = make_model("mobilenetv2_x4_tiny")
        images = rng.standard_normal((20, 3, 16, 16)).astype(np.float32)
        for class_id in range(2):
            model.learn_class(images[class_id * 5:(class_id + 1) * 5],
                              class_id)
        predictor = model.runtime_predictor()
        predictor.predict(images)              # materialise the memory plan
        snapshot = pickle.loads(pickle.dumps(snapshot_model(model)))
        assert snapshot.backbone.optimized
        restored_memory_plan = snapshot.backbone.restore_memory_plan()
        assert restored_memory_plan is not None
        assert restored_memory_plan.num_slots == \
            predictor.backbone_engine.memory_plan.num_slots
        engine = InferenceEngine(snapshot.backbone.restore(),
                                 memory_plan=restored_memory_plan,
                                 micro_batch=snapshot.micro_batch)
        np.testing.assert_array_equal(
            engine.run(images), predictor.extract_backbone_features(images))

    def test_predictor_runtime_stats_surface(self, rng):
        model = make_model("mobilenetv2_x4_tiny")
        predictor = model.runtime_predictor()
        predictor.embed(rng.standard_normal((8, 3, 16, 16)).astype(np.float32))
        stats = predictor.runtime_stats()
        assert stats["cache_bytes"] > 0
        assert stats["arena_slots"] >= 2
        assert stats["arena_peak_bytes"] > 0
        assert stats["arena_peak_bytes"] < stats["arena_unplanned_bytes"]
        assert stats["samples_served"] >= 8
