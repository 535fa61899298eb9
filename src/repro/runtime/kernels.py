"""Fused inference kernels for the batched runtime.

These kernels operate on raw ``numpy`` arrays — no :class:`~repro.nn.tensor.Tensor`
wrappers, no autograd bookkeeping.  Three ideas keep them fast:

* **stride-tricks im2col with buffer reuse** — the sliding-window view of the
  padded input is materialised into a column buffer that is allocated once
  per (shape, dtype) and reused across calls through :class:`BufferCache`,
  so steady-state batched inference allocates nothing on the conv path;
* **fusion** — batch-norm is folded into the convolution weights at plan
  compile time, and the bias add + activation clip are applied in place on
  the GEMM output, so every conv layer makes a single pass over its output;
* **batched GEMM** — dense and pointwise convolutions are expressed as
  ``matmul`` over the whole micro-batch, hitting BLAS instead of Python
  loops.

Depthwise convolutions skip im2col and GEMM altogether:
:func:`depthwise_conv` multiply-accumulates the taps channels-last, on
``(H, W, N, C)`` scratch copies, so that every ufunc runs an ``N*C``-long
contiguous inner loop even on the 4x4 maps of the deep MobileNetV2 layers.
Each output element sees the same float32 operations in the same order as
an NCHW per-tap loop, so the layout is invisible in the bits.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.conv import conv_output_size

#: Supported fused activations (applied in place on the layer output).
ACTIVATIONS = (None, "relu", "relu6")


def apply_activation(out: np.ndarray, act: Optional[str]) -> np.ndarray:
    """Apply ``act`` to ``out`` in place and return it."""
    if act is None:
        return out
    if act == "relu":
        return np.maximum(out, 0.0, out=out)
    if act == "relu6":
        return np.clip(out, 0.0, 6.0, out=out)
    raise ValueError(f"unknown activation {act!r}; expected one of {ACTIVATIONS}")


class BufferCache:
    """Reusable scratch buffers keyed by (tag, shape, dtype), LRU-bounded.

    The engine keeps one cache per execution context (its own, plus one per
    pool thread) so that consecutive ``run`` calls with the same micro-batch
    shape reuse the same im2col / padding / arena buffers instead of
    reallocating them for every layer of every batch.

    ``max_bytes`` caps the *scratch* buffers of this one cache — an
    :class:`~repro.runtime.engine.InferenceEngine` hands each of its
    contexts an even share of its ``cache_budget``.  Past the cap the
    least-recently-used buffers are dropped (the buffer just requested is
    never evicted, so the cache may exceed the cap by that one buffer).
    Arena slot buffers (``arena:`` tags, see
    :meth:`~repro.runtime.optimizer.MemoryPlan.out_view`) are the memory
    plan's working set — they are exempt from eviction and do not consume
    the budget (evicting them would silently degrade planned execution into
    per-step reallocation, and counting them would let a small budget thrash
    every scratch buffer).  They are bounded instead by the plan itself: one
    fixed-capacity buffer per slot, retired by the engine on replan via
    :meth:`drop_arena`.  Evicted buffers stay alive for as long as callers
    hold views into them — eviction only releases the cache's own reference.
    """

    #: Tag prefix of arena slot buffers: exempt from LRU eviction and from
    #: the ``max_bytes`` scratch budget.
    ARENA_PREFIX = "arena:"

    def __init__(self, max_bytes: Optional[int] = None):
        self._buffers: Dict[Tuple, np.ndarray] = {}
        self._nbytes = 0
        self._scratch_nbytes = 0
        self.max_bytes = max_bytes

    def get(self, tag: str, shape: Tuple[int, ...],
            dtype=np.float32) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype).str)
        arena = tag.startswith(self.ARENA_PREFIX)
        buffer = self._buffers.pop(key, None)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            self._nbytes += buffer.nbytes
            if not arena:
                self._scratch_nbytes += buffer.nbytes
        self._buffers[key] = buffer        # most recently used at the end
        if self.max_bytes is not None \
                and self._scratch_nbytes > self.max_bytes:
            for oldest in list(self._buffers):
                if self._scratch_nbytes <= self.max_bytes:
                    break
                if oldest == key or oldest[0].startswith(self.ARENA_PREFIX):
                    continue
                dropped = self._buffers.pop(oldest)
                self._nbytes -= dropped.nbytes
                self._scratch_nbytes -= dropped.nbytes
        return buffer

    def drop_arena(self) -> None:
        """Release every arena slot buffer (engine calls this on replan)."""
        for key in list(self._buffers):
            if key[0].startswith(self.ARENA_PREFIX):
                self._nbytes -= self._buffers.pop(key).nbytes

    def clear(self) -> None:
        self._buffers.clear()
        self._nbytes = 0
        self._scratch_nbytes = 0

    def check_invariants(self) -> None:
        """Verify the byte counters against the held buffers (tests only).

        ``_nbytes``/``_scratch_nbytes`` are maintained incrementally across
        ``get`` / eviction / :meth:`drop_arena` / :meth:`clear`; any drift
        between the counters and the actual working set would silently skew
        the LRU budget and every ``cache_bytes`` stat, so the LRU tests
        recompute both sums from scratch after each mutation.
        """
        total = sum(buffer.nbytes for buffer in self._buffers.values())
        scratch = sum(buffer.nbytes for key, buffer in self._buffers.items()
                      if not key[0].startswith(self.ARENA_PREFIX))
        if total != self._nbytes or scratch != self._scratch_nbytes:
            raise AssertionError(
                f"BufferCache byte accounting drifted: nbytes counter "
                f"{self._nbytes} vs actual {total}, scratch counter "
                f"{self._scratch_nbytes} vs actual {scratch}")

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        return self._nbytes


def sliding_window_view(x: np.ndarray, kh: int, kw: int,
                        stride: int) -> np.ndarray:
    """Zero-copy ``(N, C, kh, kw, out_h, out_w)`` window view of ``x``.

    ``x`` must already be padded.  The view aliases ``x``; callers copy it
    into a contiguous buffer before feeding a GEMM.
    """
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False)


def _zero_halo(padded: np.ndarray, axis: int, h: int, w: int,
               padding: int) -> None:
    """Zero the ``padding``-wide ring of spatial axes ``axis, axis + 1``.

    ``padded`` holds an ``h x w`` interior at offset ``(padding, padding)``
    of those two axes.  The four strips — rows ``[0, p)`` and
    ``[h+p, h+2p)`` at full width, columns ``[0, p)`` and ``[w+p, w+2p)`` of
    the middle rows — plus the interior the caller writes cover *every*
    element, so no byte from a previous call with a different
    ``(h, padding)`` split of the same buffer survives.
    """
    lead = (slice(None),) * axis
    rows = slice(padding, h + padding)
    padded[lead + (slice(None, padding),)] = 0
    padded[lead + (slice(h + padding, None),)] = 0
    padded[lead + (rows, slice(None, padding))] = 0
    padded[lead + (rows, slice(w + padding, None))] = 0


def pad_cached(x: np.ndarray, padding: int,
               cache: Optional[BufferCache] = None) -> np.ndarray:
    """Zero-pad ``x`` spatially into a cached buffer.

    Only the halo ring is rezeroed on reuse: the interior is fully
    overwritten below, and the ring must be cleared every call because the
    cached buffer may hold a stale halo from a layer with a different
    ``(h, padding)`` split of the same padded shape.  The ring plus the
    interior write every element (see :func:`_zero_halo`; pinned by the
    mixed-padding poisoning test in ``tests/test_runtime_optimizer.py``).
    """
    n, c, h, w = x.shape
    padded_shape = (n, c, h + 2 * padding, w + 2 * padding)
    if cache is not None:
        padded = cache.get("pad", padded_shape, x.dtype)
        _zero_halo(padded, 2, h, w, padding)
    else:
        padded = np.zeros(padded_shape, dtype=x.dtype)
    padded[:, :, padding:padding + h, padding:padding + w] = x
    return padded


def im2col_cached(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
                  cache: Optional[BufferCache] = None) -> np.ndarray:
    """im2col into a cached contiguous buffer of shape (N, C, kh*kw, oh*ow)."""
    n, c, h, w = x.shape
    if padding > 0:
        x = pad_cached(x, padding, cache)
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    view = sliding_window_view(x, kh, kw, stride)
    cols_shape = (n, c, kh, kw, out_h, out_w)
    if cache is not None:
        cols = cache.get("col", cols_shape, x.dtype)
    else:
        cols = np.empty(cols_shape, dtype=x.dtype)
    np.copyto(cols, view)
    return cols.reshape(n, c, kh * kw, out_h * out_w)


def depthwise_conv(x: np.ndarray, weight: np.ndarray, stride: int = 1,
                   padding: int = 0, cache: Optional[BufferCache] = None,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Depthwise 2-D convolution, accumulated channels-last.

    A depthwise kernel uses each column of the ``C*kh*kw`` im2col matrix for
    exactly one output channel, so materialising it is an O(k²) waste.
    Instead the ``kh*kw`` taps are multiply-accumulated over strided windows
    of the input, in three passes:

    1. one transposing copy writes ``x`` into a zero-haloed
       ``(H+2p, W+2p, N, C)`` scratch buffer in the accumulation dtype (for
       int8 codes this single cast is exact);
    2. tap ``(0, 0)`` is multiplied into an ``(out_h, out_w, N, C)``
       accumulator and every other tap is added in row-major order, each on
       an ``[i::s, j::s]`` window.  Batch and channels are the two innermost
       axes and the taps are tiled over the batch to ``(kh*kw, N, C)``, so
       every multiply and add runs contiguous ``N*C``-long inner loops —
       long even for the 4x4 maps and the 8-channel stem of MobileNetV2;
    3. one transposing copy writes the accumulator into the NCHW output.

    Every output element sees the same multiplies and adds in the same order
    as a per-tap loop over NCHW windows, so float32 results do not move a
    bit with the layout; integer accumulations are exact in any order.

    ``weight`` is ``(c, 1, kh, kw)`` *already cast to the accumulation
    dtype*: float32 for the float path, the exact-GEMM dtype for the int8
    path.  Returns ``(n, c, out_h, out_w)`` in the weight dtype (written
    into ``out`` when given).
    """
    n, c, h, w = x.shape
    kh, kw = weight.shape[2], weight.shape[3]
    dtype = weight.dtype
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    padded_shape = (h + 2 * padding, w + 2 * padding, n, c)
    acc_shape = (out_h, out_w, n, c)
    taps_shape = (kh * kw, n, c)
    if cache is not None:
        padded = cache.get("dwpad", padded_shape, dtype)
        _zero_halo(padded, 0, h, w, padding)
        taps = cache.get("dwtaps", taps_shape, dtype)
        acc = cache.get("dwacc", acc_shape, dtype)
        product = cache.get("dwprod", acc_shape, dtype)
    else:
        padded = np.zeros(padded_shape, dtype=dtype)
        taps = np.empty(taps_shape, dtype=dtype)
        acc = np.empty(acc_shape, dtype=dtype)
        product = np.empty(acc_shape, dtype=dtype)
    np.copyto(padded[padding:padding + h, padding:padding + w],
              x.transpose(2, 3, 0, 1))
    np.copyto(taps, weight.reshape(c, kh * kw).T[:, None, :])
    rows = stride * (out_h - 1) + 1
    cols = stride * (out_w - 1) + 1
    np.multiply(padded[:rows:stride, :cols:stride], taps[0], out=acc)
    for tap in range(1, kh * kw):
        i, j = divmod(tap, kw)
        np.multiply(padded[i:i + rows:stride, j:j + cols:stride], taps[tap],
                    out=product)
        acc += product
    if out is None:
        out = np.empty((n, c, out_h, out_w), dtype=dtype)
    np.copyto(out, acc.transpose(2, 3, 0, 1))
    return out


def fused_conv(x: np.ndarray, weight: np.ndarray,
               bias: Optional[np.ndarray] = None, stride: int = 1,
               padding: int = 0, groups: int = 1, act: Optional[str] = None,
               cache: Optional[BufferCache] = None,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Grouped 2-D convolution with the bias add and activation fused in.

    ``weight`` is ``(out_c, in_c // groups, kh, kw)`` — typically the
    BN-folded weight produced by the plan compiler, with ``bias`` holding the
    folded BN shift.  When ``out`` is given (a contiguous float32 array of
    the output shape, e.g. an arena slot view), the GEMM writes straight into
    it and the bias + activation epilogue runs in place — the kernel then
    allocates nothing.
    """
    n, c, h, w = x.shape
    out_c, c_per_group, kh, kw = weight.shape
    if c != c_per_group * groups:
        raise ValueError(
            f"input channels ({c}) incompatible with weight {weight.shape} "
            f"and groups={groups}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    spatial = out_h * out_w

    if out is None:
        out = np.empty((n, out_c, spatial), dtype=np.float32)
    dest = out.reshape(n, out_c, spatial)
    pointwise = (kh == 1 and kw == 1 and stride == 1 and padding == 0
                 and groups == 1)
    depthwise = groups == c and groups == out_c
    if pointwise:
        np.matmul(weight.reshape(out_c, c), x.reshape(n, c, spatial), out=dest)
    elif depthwise:
        depthwise_conv(x, weight, stride=stride, padding=padding, cache=cache,
                       out=dest.reshape(n, out_c, out_h, out_w))
    elif groups == 1:
        cols = im2col_cached(x, kh, kw, stride, padding, cache)
        np.matmul(weight.reshape(out_c, c * kh * kw),
                  cols.reshape(n, c * kh * kw, spatial), out=dest)
    else:
        cols = im2col_cached(x, kh, kw, stride, padding, cache)
        cols_g = cols.reshape(n, groups, c_per_group * kh * kw, spatial)
        weight_g = weight.reshape(groups, out_c // groups,
                                  c_per_group * kh * kw)
        np.einsum("gok,ngkl->ngol", weight_g, cols_g, optimize=True,
                  out=dest.reshape(n, groups, out_c // groups, spatial))
    if bias is not None:
        dest += bias.reshape(1, out_c, 1)
    apply_activation(dest, act)
    return dest.reshape(n, out_c, out_h, out_w)


def fused_linear(x: np.ndarray, weight: np.ndarray,
                 bias: Optional[np.ndarray] = None,
                 act: Optional[str] = None,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """``x @ weight.T + bias`` with the activation fused in (weight (out, in))."""
    if out is None:
        out = np.matmul(x, weight.T)
    else:
        np.matmul(x, weight.T, out=out)
    if bias is not None:
        out += bias
    return apply_activation(out, act)


def batchnorm_inference(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                        act: Optional[str] = None,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Eval-mode batch norm reduced to a per-channel affine map.

    ``scale``/``shift`` are the precomputed ``gamma / sqrt(var + eps)`` and
    ``beta - mean * scale`` vectors; works for both NCHW and (N, C) inputs.
    """
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    if out is None:
        out = x * scale.reshape(shape)
    else:
        np.multiply(x, scale.reshape(shape), out=out)
    out += shift.reshape(shape)
    return apply_activation(out, act)


def global_avg_pool(x: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Global average pooling of NCHW down to (N, C)."""
    return x.mean(axis=(2, 3), out=out)


def max_pool(x: np.ndarray, kernel_size: int, stride: int,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Max pooling over square windows via the zero-copy window view."""
    view = sliding_window_view(x, kernel_size, kernel_size, stride)
    return view.max(axis=(2, 3), out=out)


def avg_pool(x: np.ndarray, kernel_size: int, stride: int,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Average pooling over square windows via the zero-copy window view."""
    view = sliding_window_view(x, kernel_size, kernel_size, stride)
    return view.mean(axis=(2, 3), out=out)


# ---------------------------------------------------------------------------
# Integer (int8) execution kernels
# ---------------------------------------------------------------------------
#: Symmetric signed-int8 code range shared by weights and activations.
INT8_QMIN, INT8_QMAX = -127, 127

#: Largest worst-case |accumulator| for which a float32 GEMM is still exact
#: (every partial sum is an integer below 2**24, the float32 mantissa limit).
_F32_EXACT_LIMIT = 2 ** 24

#: Hard bound the integer path must respect: accumulators are int32 on the
#: target hardware, regardless of the dtype the host GEMM runs in.
INT32_ACC_LIMIT = 2 ** 31 - 1


def quantize_int8(x: np.ndarray, scale: float,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Quantize float values onto the symmetric int8 grid ``scale``.

    Matches the rounding of :func:`repro.quant.fake_quant.quantize`
    (round-half-to-even, clip to ±127) so integer plans reproduce the fake
    quantization of the eager path code-for-code.
    """
    codes = np.clip(np.rint(x / scale), INT8_QMIN, INT8_QMAX)
    if out is None:
        return codes.astype(np.int8)
    np.copyto(out, codes, casting="unsafe")
    return out


def dequantize_int8(q: np.ndarray, scale: float,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Map int8 codes back to float32 values."""
    if out is None:
        return q.astype(np.float32) * np.float32(scale)
    np.multiply(q, np.float32(scale), out=out)
    return out


def requantize_float(x: np.ndarray, scale: float,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Fake-quantize a float tensor in place of a quantize+dequantize pair.

    First-class plan-op replacement for the eager activation fake-quant
    hooks: the output is float32 but every value sits on the int8 grid.
    """
    codes = np.clip(np.rint(x / scale), INT8_QMIN, INT8_QMAX)
    if out is None:
        return (codes * scale).astype(np.float32)
    np.copyto(out, codes * scale, casting="unsafe")
    return out


def requantize_codes(q: np.ndarray, in_scale: float, out_scale: float,
                     cache: Optional[BufferCache] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rescale int8 codes from grid ``in_scale`` onto grid ``out_scale``.

    Fused form of a single-use ``dequantize -> quantize`` chain: the float
    intermediate lives in a scratch buffer instead of a plan register.  The
    arithmetic replicates the chain step for step, so the fusion is
    bit-exact.
    """
    if cache is not None:
        floats = cache.get("rqc", q.shape, np.float32)
        dequantize_int8(q, in_scale, out=floats)
    else:
        floats = dequantize_int8(q, in_scale)
    return quantize_int8(floats, out_scale, out=out)


def fused_add(x: np.ndarray, y: np.ndarray,
              in_scale_x: Optional[float] = None,
              in_scale_y: Optional[float] = None,
              act: Optional[str] = None,
              out_scale: Optional[float] = None,
              cache: Optional[BufferCache] = None,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Residual add with dequantize/quantize neighbours folded in.

    ``in_scale_*`` dequantizes an int8 operand on the fly (exactly
    :func:`dequantize_int8`); ``out_scale`` requantizes the activated sum
    back to int8 codes (exactly :func:`quantize_int8`).  Every folded
    neighbour replays the arithmetic of the standalone plan step, so fusing
    never moves a bit — it only removes full-size intermediate registers.
    """
    if in_scale_x is not None:
        buffer = cache.get("addx", x.shape, np.float32) if cache is not None \
            else None
        x = dequantize_int8(x, in_scale_x, out=buffer)
    if in_scale_y is not None:
        buffer = cache.get("addy", y.shape, np.float32) if cache is not None \
            else None
        y = dequantize_int8(y, in_scale_y, out=buffer)
    if out_scale is None:
        if out is None:
            out = np.empty(x.shape, dtype=np.float32)
        np.add(x, y, out=out)
        return apply_activation(out, act)
    total = cache.get("addsum", x.shape, np.float32) if cache is not None \
        else np.empty(x.shape, dtype=np.float32)
    np.add(x, y, out=total)
    apply_activation(total, act)
    return quantize_int8(total, out_scale, out=out)


def int_global_avg_pool(q: np.ndarray, scale: float,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Global average pooling of int8 codes with exact integer accumulation.

    The spatial sum runs in int64 (exact for any int8 feature map), and only
    the final per-feature mean is mapped back to float through the single
    factor ``scale / (h * w)`` — one deterministic scalar multiply per
    output, independent of chunking, summation order and BLAS backend.
    Returns the dequantized ``(N, C)`` float32 pooled features, i.e. exactly
    what ``dequantize -> global_pool`` produces semantically, computed
    integer-first.
    """
    n, c, h, w = q.shape
    acc = q.sum(axis=(2, 3), dtype=np.int64)
    values = acc * (float(scale) / (h * w))
    if out is None:
        return values.astype(np.float32)
    np.copyto(out, values, casting="unsafe")
    return out


def quantize_weight_per_channel(weight: np.ndarray
                                ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-output-channel symmetric int8 quantization of a weight tensor.

    Returns ``(codes, scales)`` where ``codes`` is int8 with the same shape
    as ``weight`` and ``scales`` is a float64 vector over the leading (output
    channel) axis.  All-zero channels get scale 1.0 so downstream
    requantization multipliers stay finite.
    """
    flat = weight.reshape(weight.shape[0], -1)
    max_abs = np.abs(flat).max(axis=1).astype(np.float64)
    scales = np.where(max_abs > 0.0, max_abs / INT8_QMAX, 1.0)
    shaped = scales.reshape((-1,) + (1,) * (weight.ndim - 1))
    codes = np.clip(np.rint(weight / shaped), INT8_QMIN, INT8_QMAX)
    return codes.astype(np.int8), scales


def conv_accumulator_bound(weight_q: np.ndarray,
                           bias_q: Optional[np.ndarray] = None) -> int:
    """Worst-case |int32 accumulator| of an int8 conv/linear layer.

    Bounds the dot product by ``sum |w_q| * 127`` per output channel (the
    actual quantized weights, not the generic ``K * 127^2`` envelope) plus
    the bias magnitude.
    """
    per_channel = np.abs(weight_q.reshape(weight_q.shape[0], -1)
                         .astype(np.int64)).sum(axis=1) * INT8_QMAX
    if bias_q is not None:
        per_channel = per_channel + np.abs(bias_q.astype(np.int64))
    return int(per_channel.max()) if per_channel.size else 0


def _acc_dtype(bound: int):
    """GEMM dtype that accumulates integer values of magnitude ``bound`` exactly."""
    return np.float32 if bound < _F32_EXACT_LIMIT else np.float64


def _cast_cached(x: np.ndarray, dtype, tag: str,
                 cache: Optional[BufferCache]) -> np.ndarray:
    """Cast ``x`` into a cached buffer of ``dtype`` (exact for int8 sources)."""
    if x.dtype == dtype:
        return x
    if cache is not None:
        out = cache.get(tag, x.shape, dtype)
    else:
        out = np.empty(x.shape, dtype=dtype)
    np.copyto(out, x)
    return out


def int_accumulate_conv(q: np.ndarray, weight_q: np.ndarray, stride: int = 1,
                        padding: int = 0, groups: int = 1,
                        cache: Optional[BufferCache] = None,
                        acc_bound: Optional[int] = None) -> np.ndarray:
    """Exact integer conv accumulation of int8 activations against int8 weights.

    The GEMM runs in float32/float64 (hitting BLAS) but every partial sum is
    an integer below the chosen mantissa limit, so the result is *exactly*
    the int32-accumulate convolution — bit-for-bit identical regardless of
    batch split, BLAS threading or summation order.  Returns the integer
    accumulator as a float array of shape ``(N, out_c, spatial)``.
    """
    n, c, h, w = q.shape
    out_c, c_per_group, kh, kw = weight_q.shape
    if c != c_per_group * groups:
        raise ValueError(
            f"input channels ({c}) incompatible with weight {weight_q.shape} "
            f"and groups={groups}")
    bound = acc_bound if acc_bound is not None \
        else conv_accumulator_bound(weight_q)
    if bound > INT32_ACC_LIMIT:
        raise OverflowError(
            f"int8 conv accumulator bound {bound} exceeds the int32 range; "
            f"the layer cannot run on 32-bit accumulators")
    dtype = _acc_dtype(bound)
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    spatial = out_h * out_w

    pointwise = (kh == 1 and kw == 1 and stride == 1 and padding == 0
                 and groups == 1)
    depthwise = groups == c and groups == out_c
    weight_f = weight_q.astype(dtype)
    if cache is not None:
        acc = cache.get("qacc", (n, out_c, spatial), dtype)
    else:
        acc = np.empty((n, out_c, spatial), dtype=dtype)
    if pointwise:
        x_f = _cast_cached(q.reshape(n, c, spatial), dtype, "qpw", cache)
        np.matmul(weight_f.reshape(out_c, c), x_f, out=acc)
    elif depthwise:
        # No im2col: depthwise_conv casts the codes once into its
        # channels-last scratch.  Every product and partial sum is an exact
        # integer below the mantissa limit, so no bit depends on the order.
        depthwise_conv(q, weight_f, stride=stride, padding=padding,
                       cache=cache, out=acc.reshape(n, out_c, out_h, out_w))
    else:
        cols = im2col_cached(q, kh, kw, stride, padding, cache)
        cols_f = _cast_cached(cols, dtype, "qcol", cache)
        if groups == 1:
            np.matmul(weight_f.reshape(out_c, c * kh * kw),
                      cols_f.reshape(n, c * kh * kw, spatial), out=acc)
        else:
            cols_g = cols_f.reshape(n, groups, c_per_group * kh * kw, spatial)
            weight_g = weight_f.reshape(groups, out_c // groups,
                                        c_per_group * kh * kw)
            np.einsum("gok,ngkl->ngol", weight_g, cols_g, optimize=True,
                      out=acc.reshape(n, groups, out_c // groups, spatial))
    return acc


def fused_qconv(q: np.ndarray, weight_q: np.ndarray, bias_q: np.ndarray,
                multiplier: np.ndarray, stride: int = 1, padding: int = 0,
                groups: int = 1, qmin: int = INT8_QMIN, qmax: int = INT8_QMAX,
                cache: Optional[BufferCache] = None,
                acc_bound: Optional[int] = None,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Int8 conv with the requantization epilogue fused in.

    ``acc = conv_int32(q, weight_q) + bias_q`` followed by the per-channel
    rescale ``clip(round(acc * multiplier), qmin, qmax)`` back to int8, with
    the activation expressed through the clamp bounds (``qmin=0`` for ReLU,
    ``qmax=round(6/scale)`` capped at 127 for ReLU6).
    """
    n = q.shape[0]
    out_c = weight_q.shape[0]
    acc = int_accumulate_conv(q, weight_q, stride=stride, padding=padding,
                              groups=groups, cache=cache, acc_bound=acc_bound)
    acc += bias_q.astype(acc.dtype).reshape(1, out_c, 1)
    # float32 * float64 promotes each product to float64 exactly — no
    # explicit astype copy needed on the hot path.
    scaled = acc * multiplier.reshape(1, out_c, 1)
    np.rint(scaled, out=scaled)
    np.clip(scaled, qmin, qmax, out=scaled)
    kh, kw = weight_q.shape[2], weight_q.shape[3]
    out_h = conv_output_size(q.shape[2], kh, stride, padding)
    out_w = conv_output_size(q.shape[3], kw, stride, padding)
    if out is None:
        codes = scaled.astype(np.int8)
    else:
        codes = out.reshape(n, out_c, out_h * out_w)
        np.copyto(codes, scaled, casting="unsafe")
    return codes.reshape(n, out_c, out_h, out_w)


def fused_qconv_dequant(q: np.ndarray, weight_q: np.ndarray,
                        dequant: np.ndarray, bias: Optional[np.ndarray] = None,
                        stride: int = 1, padding: int = 0, groups: int = 1,
                        act: Optional[str] = None,
                        cache: Optional[BufferCache] = None,
                        acc_bound: Optional[int] = None,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Int8 conv dequantized straight to float32 (no output scale needed).

    Used where the plan has no calibrated output range (e.g. the projection
    convolution feeding a residual add): the int32 accumulator is mapped back
    to float via the per-channel ``dequant = s_in * s_w[c]`` factors and the
    float bias is added on top.
    """
    n = q.shape[0]
    out_c = weight_q.shape[0]
    acc = int_accumulate_conv(q, weight_q, stride=stride, padding=padding,
                              groups=groups, cache=cache, acc_bound=acc_bound)
    kh, kw = weight_q.shape[2], weight_q.shape[3]
    out_h = conv_output_size(q.shape[2], kh, stride, padding)
    out_w = conv_output_size(q.shape[3], kw, stride, padding)
    scaled = acc * dequant.reshape(1, out_c, 1)
    if out is None:
        dest = scaled.astype(np.float32)
    else:
        dest = out.reshape(n, out_c, out_h * out_w)
        np.copyto(dest, scaled, casting="unsafe")
    if bias is not None:
        dest += bias.reshape(1, out_c, 1)
    apply_activation(dest, act)
    return dest.reshape(n, out_c, out_h, out_w)


def fused_qlinear(q: np.ndarray, weight_q: np.ndarray, dequant: np.ndarray,
                  bias: Optional[np.ndarray] = None,
                  act: Optional[str] = None,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Int8 GEMM ``q @ weight_q.T`` with a float rescale at the end.

    ``weight_q`` is ``(out, in)`` int8; ``dequant`` holds the per-output-row
    ``s_in * s_w[row]`` factors.  The accumulation is exact (see
    :func:`int_accumulate_conv`), the output is float32.
    """
    bound = conv_accumulator_bound(weight_q)
    if bound > INT32_ACC_LIMIT:
        raise OverflowError(
            f"int8 linear accumulator bound {bound} exceeds the int32 range")
    dtype = _acc_dtype(bound)
    acc = np.matmul(q.astype(dtype), weight_q.T.astype(dtype))
    scaled = acc * dequant.reshape(1, -1)
    if out is None:
        dest = scaled.astype(np.float32)
    else:
        dest = out
        np.copyto(dest, scaled, casting="unsafe")
    if bias is not None:
        dest += bias
    return apply_activation(dest, act)


def quantize_unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Quantize rows of a unit-norm matrix to int8 at the fixed scale 1/127.

    Row-normalised matrices (features, prototypes) live in ``[-1, 1]``, so a
    static power-free scale of ``1/127`` loses no range; the fixed scale
    keeps the codes independent of batch composition, which is what makes
    int8 prototype matching bitwise reproducible under sharding.
    """
    return np.clip(np.rint(matrix * INT8_QMAX), INT8_QMIN, INT8_QMAX) \
        .astype(np.int8)


def int8_cosine_similarities(features: np.ndarray,
                             prototypes_q: np.ndarray,
                             eps: float = 1e-12) -> np.ndarray:
    """Cosine similarity as an int8 GEMM with a float rescale at the end.

    Features are L2-normalised in float, quantized per element at the fixed
    ``1/127`` scale, multiplied against pre-quantized unit-norm prototypes
    in an exact integer GEMM and rescaled by ``1/127**2``.  Per-sample
    normalisation + elementwise quantization keep every row independent of
    the rest of the batch, so sharded and local execution agree bit-for-bit.
    """
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    features_q = quantize_unit_rows(features / (norms + eps))
    # Worst case |acc| = dim * 127 * 127: exact in float64 up to dim ~ 5e8.
    acc = np.matmul(features_q.astype(np.float64),
                    prototypes_q.T.astype(np.float64))
    return (acc / float(INT8_QMAX) ** 2).astype(np.float32)


def normalize_prototypes(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Row-wise L2 normalisation of a prototype matrix (float32).

    Shared by the predictor's prototype cache and the serving snapshots
    (:mod:`repro.serve`) so every execution path serves bit-identical
    similarity scores from the same normalised matrix.
    """
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return (matrix / (norms + eps)).astype(np.float32)


def cosine_similarities(features: np.ndarray, prototypes_normed: np.ndarray,
                        eps: float = 1e-12) -> np.ndarray:
    """Cosine similarity of raw features against pre-normalised prototypes.

    Normalising the prototype matrix once per memory version (instead of per
    query batch) is what makes whole-session prediction a single GEMM.
    """
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    normed = features / (norms + eps)
    return normed @ prototypes_normed.T
