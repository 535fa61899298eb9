"""Channels-last depthwise kernel: bit-identical to the NCHW per-tap loop.

:func:`repro.runtime.kernels.depthwise_conv` accumulates in an
``(H, W, N, C)`` scratch layout.  Its contract is that every output element
sees the same float32 multiplies and adds, in the same order, as the plain
NCHW loop kept below as the reference — so float32 results must match bit
for bit (compared as ``uint32`` views, which also tells ``-0.0`` from
``0.0``), and int8 accumulations must equal the exact int64 convolution.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import OFSCIL, OFSCILConfig
from repro.runtime import BufferCache, InferenceEngine, compile_backbone
from repro.runtime import kernels


def nchw_per_tap_depthwise(x, weight, stride, padding):
    """The NCHW per-tap multiply-accumulate the kernel must reproduce.

    Tap ``(0, 0)`` is multiplied into the output, then every other tap's
    product is added in row-major order, each on the zero-copy window view
    of the zero-padded input.
    """
    n, c, h, w = x.shape
    kh, kw = weight.shape[2], weight.shape[3]
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                        (padding, padding)))
    view = kernels.sliding_window_view(padded, kh, kw, stride)
    taps = weight.reshape(c, kh, kw)
    out = np.multiply(view[:, :, 0, 0], taps[:, 0, 0].reshape(1, c, 1, 1))
    for i in range(kh):
        for j in range(kw):
            if i or j:
                out += view[:, :, i, j] * taps[:, i, j].reshape(1, c, 1, 1)
    return out


def output_shape(x, weight, stride, padding):
    n, c, h, w = x.shape
    k = weight.shape[2]
    return (n, c, (h + 2 * padding - k) // stride + 1,
            (w + 2 * padding - k) // stride + 1)


def exact_int_depthwise(q, weight_q, stride, padding):
    """Exact int64 im2col depthwise convolution of int8 codes."""
    c, kh, kw = weight_q.shape[0], weight_q.shape[2], weight_q.shape[3]
    cols = kernels.im2col_cached(q, kh, kw, stride, padding).astype(np.int64)
    acc = np.einsum("nckl,ck->ncl", cols,
                    weight_q.reshape(c, kh * kw).astype(np.int64))
    return acc.reshape(output_shape(q, weight_q, stride, padding))


def poison(cache):
    """Overwrite every cached scratch buffer with NaN / a sentinel code."""
    for buffer in cache._buffers.values():
        buffer[...] = np.nan if buffer.dtype.kind == "f" else 113


def run_twice(x, weight, stride, padding, with_out):
    """Two calls through one cache, poisoned in between; both results.

    A halo strip or accumulator element the kernel fails to rewrite on the
    second call then surfaces as NaN.
    """
    cache = BufferCache()
    results = []
    for _ in range(2):
        out = np.full(output_shape(x, weight, stride, padding), np.nan,
                      dtype=weight.dtype) if with_out else None
        result = kernels.depthwise_conv(x, weight, stride=stride,
                                        padding=padding, cache=cache,
                                        out=out)
        if with_out:
            assert result is out
        results.append(result.copy())
        poison(cache)
    return results


shapes = st.fixed_dictionaries({
    "n": st.integers(1, 4), "c": st.integers(1, 17),
    "h": st.integers(1, 11), "w": st.integers(1, 11),
    "k": st.sampled_from((1, 3, 5)), "stride": st.sampled_from((1, 2)),
    "padding": st.integers(0, 2), "with_out": st.booleans(),
    "seed": st.integers(0, 2 ** 16)})


def valid(shape):
    return (shape["h"] + 2 * shape["padding"] >= shape["k"]
            and shape["w"] + 2 * shape["padding"] >= shape["k"])


@settings(max_examples=80, deadline=None)
@given(shapes)
def test_float32_matches_the_nchw_loop_bit_for_bit(shape):
    assume(valid(shape))
    rng = np.random.default_rng(shape["seed"])
    x = rng.standard_normal((shape["n"], shape["c"], shape["h"],
                             shape["w"])).astype(np.float32)
    weight = rng.standard_normal((shape["c"], 1, shape["k"],
                                  shape["k"])).astype(np.float32)
    expected = nchw_per_tap_depthwise(x, weight, shape["stride"],
                                      shape["padding"])
    for result in run_twice(x, weight, shape["stride"], shape["padding"],
                            shape["with_out"]):
        assert result.dtype == np.float32
        assert result.shape == expected.shape
        np.testing.assert_array_equal(result.view(np.uint32),
                                      expected.view(np.uint32))


@settings(max_examples=80, deadline=None)
@given(shapes, st.sampled_from((np.float32, np.float64)))
def test_int8_codes_match_the_exact_integer_convolution(shape, acc_dtype):
    assume(valid(shape))
    rng = np.random.default_rng(shape["seed"])
    q = rng.integers(-127, 128, (shape["n"], shape["c"], shape["h"],
                                 shape["w"])).astype(np.int8)
    weight_q = rng.integers(-127, 128, (shape["c"], 1, shape["k"],
                                        shape["k"])).astype(np.int8)
    expected = exact_int_depthwise(q, weight_q, shape["stride"],
                                   shape["padding"])
    for result in run_twice(q, weight_q.astype(acc_dtype), shape["stride"],
                            shape["padding"], shape["with_out"]):
        assert result.dtype == acc_dtype
        np.testing.assert_array_equal(result.astype(np.int64), expected)


@pytest.mark.parametrize("batch", (1, 7, 64))
def test_float_backbone_features_match_the_nchw_loop(batch, monkeypatch):
    # End to end: a whole MobileNetV2 backbone through the compiled engine
    # gives the same bits as with the NCHW loop swapped in for the kernel.
    model = OFSCIL.from_registry(
        "mobilenetv2_x4_tiny",
        OFSCILConfig(backbone="mobilenetv2_x4_tiny"), seed=0)
    model.backbone.eval()
    plan = compile_backbone(model.backbone)
    images = np.random.default_rng(batch).standard_normal(
        (batch, 3, 16, 16)).astype(np.float32)
    features = InferenceEngine(plan, num_threads=1).run(images)

    def reference(x, weight, stride=1, padding=0, cache=None, out=None):
        out[...] = nchw_per_tap_depthwise(x, weight, stride, padding)
        return out

    monkeypatch.setattr(kernels, "depthwise_conv", reference)
    expected = InferenceEngine(plan, num_threads=1).run(images)
    np.testing.assert_array_equal(features.view(np.uint32),
                                  expected.view(np.uint32))
