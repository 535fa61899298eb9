"""Native int8 kernels: the same codes as the NumPy reference, or the fallback.

:mod:`repro.runtime.native` builds ``native.c`` with the system compiler on
the first int8 kernel call.  Its requantization epilogue must equal
:func:`repro.runtime.kernels.requantize_accumulator` byte for byte (rounding
ties half to even included), and its fused depthwise conv must equal the
exact int64 convolution followed by that epilogue.  Without a compiler the
kernels fall back to NumPy, say so once, and report it in
``runtime_stats()``.
"""

import logging
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from int8_fixtures import build_quantized_model, golden_inputs
from repro.core import OFSCIL, OFSCILConfig
from repro.runtime import (
    BatchedPredictor,
    BufferCache,
    ConcurrentRunError,
    InferenceEngine,
    compile_backbone,
    kernels,
    native,
    optimize_plan,
)
from repro.serve import snapshot_model
from test_runtime_depthwise import exact_int_depthwise, poison, valid


@pytest.fixture(scope="module")
def lib():
    library = native.library()
    if library is None:
        pytest.skip(f"native kernels unavailable: {native.status()}")
    return library


#: (qmin, qmax) of a plain int8 layer and of a ReLU6 layer's clamp.
BOUNDS = ((-127, 127), (0, 95))


def numpy_epilogue(acc, bias, multiplier, qmin, qmax):
    return kernels.requantize_accumulator(acc.copy(), bias, multiplier,
                                          qmin, qmax)


def native_epilogue(lib, acc, bias, multiplier, qmin, qmax):
    out = np.full(acc.shape, 77, dtype=np.int8)
    native.requantize(lib, acc, bias, multiplier, qmin, qmax, out)
    return out


# ---------------------------------------------------------------------------
# Requantization epilogue
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 9), spatial=st.integers(1, 40),
       dtype=st.sampled_from((np.float32, np.float64)),
       bounds=st.sampled_from(BOUNDS),
       scale=st.sampled_from(("fine", "half", "saturating")),
       seed=st.integers(0, 2 ** 16))
def test_epilogue_matches_numpy_byte_for_byte(lib, n, c, spatial, dtype,
                                              bounds, scale, seed):
    rng = np.random.default_rng(seed)
    limit = 2 ** 24 if dtype == np.float32 else 2 ** 31 - 1
    acc = rng.integers(-limit + 1, limit, (n, c, spatial)).astype(dtype)
    bias = rng.integers(-2 ** 20, 2 ** 20, c).astype(np.int32)
    if scale == "fine":           # codes spread over the int8 range
        multiplier = rng.uniform(0.5, 2.0, c) * 127.0 / limit
    elif scale == "half":         # x.5 ties wherever acc + bias is odd
        multiplier = np.full(c, 0.5)
    else:                         # nearly every code saturates
        multiplier = rng.uniform(1e-3, 10.0, c)
    qmin, qmax = bounds
    expected = numpy_epilogue(acc, bias, multiplier, qmin, qmax)
    np.testing.assert_array_equal(
        native_epilogue(lib, acc, bias, multiplier, qmin, qmax), expected)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_exact_ties_round_half_to_even(lib, dtype):
    odd = np.arange(-41, 42, 2)
    acc = odd.astype(dtype).reshape(1, 1, -1)
    bias = np.zeros(1, dtype=np.int32)
    multiplier = np.array([0.5])
    out = native_epilogue(lib, acc, bias, multiplier, -127, 127)
    np.testing.assert_array_equal(out.ravel(), np.rint(odd * 0.5))
    assert out.ravel()[odd == 5][0] == 2 and out.ravel()[odd == -3][0] == -2
    np.testing.assert_array_equal(
        out, numpy_epilogue(acc, bias, multiplier, -127, 127))


def test_float32_accumulator_adds_the_bias_in_float32(lib):
    # (2^24 - 1) + (2^17 + 2) = 2^24 + 2^17 + 1 rounds to 2^24 + 2^17 in
    # float32, as NumPy's in-place add does: 64.5 then rounds to 64, where
    # an exact (float64) sum would give 64.5000038 -> 65.
    acc = np.array([[[2.0 ** 24 - 1]]], dtype=np.float32)
    bias = np.array([2 ** 17 + 2], dtype=np.int32)
    multiplier = np.array([2.0 ** -18])
    expected = numpy_epilogue(acc, bias, multiplier, -127, 127)
    assert expected.item() == 64
    np.testing.assert_array_equal(
        native_epilogue(lib, acc, bias, multiplier, -127, 127), expected)


@pytest.mark.parametrize("qmin, qmax", BOUNDS)
def test_saturation_clamps_to_the_bounds(lib, qmin, qmax):
    acc = np.array([[[-1e6, -200.0, -0.4, 0.0, 0.6, 200.0, 1e6]]],
                   dtype=np.float32)
    out = native_epilogue(lib, acc, np.zeros(1, np.int32), np.array([1.0]),
                          qmin, qmax)
    np.testing.assert_array_equal(
        out, numpy_epilogue(acc, np.zeros(1, np.int32), np.array([1.0]),
                            qmin, qmax))
    assert out.min() == qmin and out.max() == qmax


# ---------------------------------------------------------------------------
# Fused depthwise conv
# ---------------------------------------------------------------------------
depthwise_shapes = st.fixed_dictionaries({
    "n": st.integers(1, 4), "c": st.integers(1, 17),
    "h": st.integers(1, 11), "w": st.integers(1, 11),
    "k": st.sampled_from((1, 3, 5)), "stride": st.sampled_from((1, 2)),
    "padding": st.integers(0, 2), "bounds": st.sampled_from(BOUNDS),
    "wide": st.booleans(), "seed": st.integers(0, 2 ** 16)})


@settings(max_examples=120, deadline=None)
@given(depthwise_shapes)
def test_depthwise_matches_exact_convolution_and_numpy_epilogue(lib, shape):
    assume(valid(shape))
    rng = np.random.default_rng(shape["seed"])
    n, c, k = shape["n"], shape["c"], shape["k"]
    q = rng.integers(-127, 128, (n, c, shape["h"], shape["w"])) \
        .astype(np.int8)
    weight_q = rng.integers(-127, 128, (c, 1, k, k)).astype(np.int8)
    bias_q = rng.integers(-5000, 5000, c).astype(np.int32)
    multiplier = rng.uniform(0.2, 2.0, c) * 127.0 / (k * k * 127 * 127)
    bound = kernels.conv_accumulator_bound(weight_q, bias_q)
    # A bound past 2^24 sends the reference (and its bias add) to float64.
    acc_bound = 2 ** 25 if shape["wide"] else bound
    acc_dtype = np.float32 if acc_bound < 2 ** 24 else np.float64
    exact = exact_int_depthwise(q, weight_q, shape["stride"],
                                shape["padding"])
    qmin, qmax = shape["bounds"]
    expected = kernels.requantize_accumulator(
        exact.astype(acc_dtype).reshape(n, c, -1), bias_q, multiplier,
        qmin, qmax).reshape(exact.shape)

    cache = BufferCache()
    for _ in range(2):
        out = np.full(exact.shape, 55, dtype=np.int8)
        result = kernels.fused_qconv(
            q, weight_q, bias_q, multiplier, stride=shape["stride"],
            padding=shape["padding"], groups=c, qmin=qmin, qmax=qmax,
            cache=cache, acc_bound=acc_bound, out=out)
        assert result.base is out or result is out
        np.testing.assert_array_equal(result, expected)
        assert any(key[0] == "ndw" for key in cache._buffers)
        poison(cache)


def test_depthwise_scratch_comes_from_the_buffer_cache(lib):
    # One int32 scratch buffer, held (and budgeted) by the context's cache.
    q = np.ones((2, 4, 6, 6), dtype=np.int8)
    weight_q = np.ones((4, 1, 3, 3), dtype=np.int8)
    cache = BufferCache()
    kernels.fused_qconv(q, weight_q, np.zeros(4, np.int32), np.ones(4),
                        padding=1, groups=4, cache=cache)
    assert len(cache) == 1
    assert cache.nbytes == 4 * lib.depthwise_scratch_size(4, 6, 6, 3, 3, 1, 1)
    cache.check_invariants()


# ---------------------------------------------------------------------------
# Build, load and fallback
# ---------------------------------------------------------------------------
def test_build_is_cached_on_disk_and_reused(lib, tmp_path, monkeypatch):
    monkeypatch.setattr(native, "_cache_dirs", lambda: [tmp_path])
    first = native._build()
    assert first.parent == tmp_path and first.suffix == ".so"
    assert not list(tmp_path.glob("*.partial"))
    stamp = first.stat().st_mtime_ns
    calls = []
    monkeypatch.setattr(native, "_compile",
                        lambda *args: calls.append(args))
    assert native._build() == first
    assert calls == [] and first.stat().st_mtime_ns == stamp


def test_no_compiler_falls_back_to_numpy_and_logs_once(monkeypatch, caplog):
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_outcome", None)
    monkeypatch.setattr(native, "_compiler", lambda: None)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native.library() is None
        assert native.library() is None
    assert native.status().startswith("numpy fallback")
    assert len(caplog.records) == 1
    assert "no C compiler" in caplog.records[0].getMessage()

    model, _ = build_quantized_model()
    predictor = BatchedPredictor(model, mode="int8")
    predictor.predict(golden_inputs()[:4])
    assert predictor.runtime_stats()["native_kernels"].startswith(
        "numpy fallback")


def test_float32_execution_never_asks_for_the_library(monkeypatch):
    def refuse():
        raise AssertionError("a float32 plan asked for native kernels")

    monkeypatch.setattr(native, "library", refuse)
    model = OFSCIL.from_registry("mobilenetv2_x4_tiny",
                                 OFSCILConfig(backbone="mobilenetv2_x4_tiny"),
                                 seed=0)
    BatchedPredictor(model).embed(
        np.zeros((3, 3, 16, 16), dtype=np.float32))


# ---------------------------------------------------------------------------
# Invariants the native kernels rely on
# ---------------------------------------------------------------------------
def test_compiled_int8_fcr_uses_the_stored_accumulator_bound(monkeypatch):
    model, _ = build_quantized_model()
    predictor = BatchedPredictor(model, mode="int8")
    images = golden_inputs()[:8]
    reference = predictor.embed(images)
    assert any(step.op == "qlinear"
               for step in predictor.fcr_engine.plan.steps)

    def rescan(*args, **kwargs):
        raise AssertionError("conv_accumulator_bound called at run time")

    monkeypatch.setattr(kernels, "conv_accumulator_bound", rescan)
    np.testing.assert_array_equal(predictor.embed(images), reference)


def test_second_thread_inside_run_raises():
    model = OFSCIL.from_registry("mobilenetv2_x4_tiny",
                                 OFSCILConfig(backbone="mobilenetv2_x4_tiny"),
                                 seed=0)
    engine = InferenceEngine(compile_backbone(model.backbone), num_threads=1)
    images = np.zeros((2, 3, 16, 16), dtype=np.float32)
    entered, release = threading.Event(), threading.Event()
    run_inside = engine._run

    def held_run(batch):
        entered.set()
        assert release.wait(10)
        return run_inside(batch)

    engine._run = held_run
    results = []
    first = threading.Thread(target=lambda: results.append(engine.run(images)))
    first.start()
    try:
        assert entered.wait(10)
        with pytest.raises(ConcurrentRunError):
            engine.run(images)
    finally:
        release.set()
        first.join(10)
    assert len(results) == 1
    del engine._run
    # The guard is released after a run, and after a run that raised.
    with pytest.raises(ValueError):
        engine.run(np.zeros((0, 3, 16, 16), dtype=np.float32))
    np.testing.assert_array_equal(engine.run(images), results[0])


def test_compiled_weights_are_read_only():
    # Rebinding a parameter still reaches a fresh plan
    # (tests/test_runtime_ir.py::TestPlanCache::test_weight_rebind_invalidates);
    # writing into a plan's copy in place now raises.
    model, _ = build_quantized_model()
    predictor = BatchedPredictor(model, mode="int8")
    predictor.embed(golden_inputs()[:4])
    float_plan = compile_backbone(OFSCIL.from_registry(
        "mobilenetv2_x4_tiny", OFSCILConfig(backbone="mobilenetv2_x4_tiny"),
        seed=0).backbone)
    plans = {"compiled": compile_backbone(model.backbone, mode="int8"),
             "float32": float_plan, "optimized": optimize_plan(float_plan),
             "served": predictor.backbone_engine.plan,
             "restored": snapshot_model(model).backbone.restore()}
    for label, plan in plans.items():
        weighted = [step for step in plan.steps if "weight" in step.arrays]
        assert weighted, label
        for step in weighted:
            with pytest.raises(ValueError, match="read-only"):
                step.arrays["weight"][...] = 0
    # Only the plan's copies are frozen: the model's parameters stay
    # writable.
    assert all(parameter.data.flags.writeable
               for parameter in model.backbone.parameters())
