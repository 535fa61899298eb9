/*
 * Native int8 kernels of the batched runtime (loaded by native.py).
 *
 * Two kernels, both bit-identical to the NumPy reference in kernels.py:
 *
 *   requant_f32 / requant_f64  the requantization epilogue of an int8 conv:
 *       out = clip(rint(double(acc + bias) * multiplier), qmin, qmax)
 *   depthwise_int8             an int8 depthwise conv with exact int32 tap
 *       accumulation, followed by the same epilogue.
 *
 * Why the bits match NumPy:
 *   - acc + bias is added in the accumulator's own type (float or double),
 *     exactly as NumPy adds the cast bias in place;
 *   - the float -> double widening and the double multiply are IEEE
 *     operations; the build passes -ffp-contract=off and no -ffast-math, so
 *     no multiply-add is fused and nothing is reassociated;
 *   - clamping to the integer bounds before rounding gives the same code as
 *     rounding first (rint is monotonic and fixes integers);
 *   - rounding adds and subtracts 1.5 * 2^52: for |v| < 2^51 the sum lands
 *     where one unit is the spacing of doubles, so the hardware's
 *     round-half-to-even picks the integer, as np.rint does.  No libm call.
 */
#include <stdint.h>

#define ROUND_MAGIC 6755399441055744.0 /* 1.5 * 2^52 */

static inline int8_t requant_one(double v, double lo, double hi)
{
    v = v < lo ? lo : v;
    v = v > hi ? hi : v;
    v = (v + ROUND_MAGIC) - ROUND_MAGIC;
    return (int8_t)v;
}

/* acc, out: (n, c, spatial) C-contiguous; bias (c) in the accumulator type;
 * multiplier (c) float64. */
void requant_f32(const float *restrict acc, const float *restrict bias,
                 const double *restrict mult, int8_t *restrict out,
                 int64_t n, int64_t c, int64_t spatial, int32_t qmin,
                 int32_t qmax)
{
    const double lo = qmin, hi = qmax;
    for (int64_t i = 0; i < n; ++i)
        for (int64_t ch = 0; ch < c; ++ch) {
            const float *restrict a = acc + (i * c + ch) * spatial;
            int8_t *restrict o = out + (i * c + ch) * spatial;
            const float b = bias[ch];
            const double m = mult[ch];
            for (int64_t s = 0; s < spatial; ++s) {
                const float sum = a[s] + b;
                o[s] = requant_one((double)sum * m, lo, hi);
            }
        }
}

void requant_f64(const double *restrict acc, const double *restrict bias,
                 const double *restrict mult, int8_t *restrict out,
                 int64_t n, int64_t c, int64_t spatial, int32_t qmin,
                 int32_t qmax)
{
    const double lo = qmin, hi = qmax;
    for (int64_t i = 0; i < n; ++i)
        for (int64_t ch = 0; ch < c; ++ch) {
            const double *restrict a = acc + (i * c + ch) * spatial;
            int8_t *restrict o = out + (i * c + ch) * spatial;
            const double b = bias[ch];
            const double m = mult[ch];
            for (int64_t s = 0; s < spatial; ++s)
                o[s] = requant_one((a[s] + b) * m, lo, hi);
        }
}

/* Size in int32 elements of the scratch depthwise_int8 needs: the
 * zero-haloed channels-last input plane, the taps, the accumulator, and
 * the int8 codes of one sample (as int32s, rounded up). */
int64_t depthwise_scratch_size(int64_t c, int64_t h, int64_t w, int64_t kh,
                               int64_t kw, int64_t stride, int64_t pad)
{
    const int64_t hp = h + 2 * pad, wp = w + 2 * pad;
    const int64_t oh = (hp - kh) / stride + 1, ow = (wp - kw) / stride + 1;
    return hp * wp * c + kh * kw * ow * c + oh * ow * c
        + (oh * ow * c + 3) / 4;
}

/* x: (n, c, h, w) int8; weight: (c, kh, kw) int8; bias (c) int32;
 * multiplier (c) float64; out: (n, c, oh, ow) int8.  acc_f32 selects the
 * accumulator type the NumPy reference adds the bias in (float32 when the
 * layer's accumulator bound is below 2^24, else float64); every tap sum is
 * an exact integer either way.  scratch holds depthwise_scratch_size()
 * int32 elements; nothing in it survives a call.
 *
 * Each sample is accumulated channels-last, (h, w, c), so every
 * multiply-add runs over the c channels of one pixel: contiguous and
 * long enough to vectorize even on the 4x4 maps of the deep layers. */
void depthwise_int8(const int8_t *restrict x, int64_t n, int64_t c,
                    int64_t h, int64_t w, const int8_t *restrict weight,
                    int64_t kh, int64_t kw, int64_t stride, int64_t pad,
                    const int32_t *restrict bias,
                    const double *restrict mult, int32_t acc_f32,
                    int32_t qmin, int32_t qmax, int8_t *restrict out,
                    int32_t *restrict scratch)
{
    const int64_t hp = h + 2 * pad, wp = w + 2 * pad;
    const int64_t oh = (hp - kh) / stride + 1, ow = (wp - kw) / stride + 1;
    const int64_t ntaps = kh * kw, spatial = oh * ow;
    const int64_t run = ow * c;
    int32_t *restrict padded = scratch;
    int32_t *restrict taps = padded + hp * wp * c;
    int32_t *restrict acc = taps + ntaps * run;
    int8_t *restrict codes = (int8_t *)(acc + spatial * c);
    const double lo = qmin, hi = qmax;

    for (int64_t i = 0; i < hp * wp * c; ++i)
        padded[i] = 0;
    /* taps[t][xx][ch] = weight[ch][t], for every output column xx */
    for (int64_t t = 0; t < ntaps; ++t)
        for (int64_t xx = 0; xx < ow; ++xx)
            for (int64_t ch = 0; ch < c; ++ch)
                taps[t * run + xx * c + ch] = weight[ch * ntaps + t];

    for (int64_t sample = 0; sample < n; ++sample) {
        const int8_t *src = x + sample * c * h * w;
        int8_t *dst = out + sample * c * spatial;

        /* The halo stays zero from the loop above: only the interior is
         * rewritten, sample after sample. */
        for (int64_t ch = 0; ch < c; ++ch)
            for (int64_t y = 0; y < h; ++y) {
                int32_t *row = padded + ((y + pad) * wp + pad) * c + ch;
                const int8_t *in = src + (ch * h + y) * w;
                for (int64_t xx = 0; xx < w; ++xx)
                    row[xx * c] = in[xx];
            }

        for (int64_t y = 0; y < oh; ++y) {
            int32_t *a = acc + y * run;
            for (int64_t k = 0; k < run; ++k)
                a[k] = 0;
            for (int64_t i = 0; i < kh; ++i)
                for (int64_t j = 0; j < kw; ++j) {
                    const int32_t *in = padded
                        + ((y * stride + i) * wp + j) * c;
                    const int32_t *tap = taps + (i * kw + j) * run;
                    if (stride == 1)
                        /* one output row is one contiguous input run */
                        for (int64_t k = 0; k < run; ++k)
                            a[k] += tap[k] * in[k];
                    else
                        for (int64_t xx = 0; xx < ow; ++xx)
                            for (int64_t ch = 0; ch < c; ++ch)
                                a[xx * c + ch] += tap[xx * c + ch]
                                    * in[xx * stride * c + ch];
                }
        }

        for (int64_t p = 0; p < spatial; ++p) {
            const int32_t *a = acc + p * c;
            int8_t *o = codes + p * c;
            if (acc_f32)
                for (int64_t ch = 0; ch < c; ++ch)
                    o[ch] = requant_one(
                        (double)((float)a[ch] + (float)bias[ch]) * mult[ch],
                        lo, hi);
            else
                for (int64_t ch = 0; ch < c; ++ch)
                    o[ch] = requant_one(
                        ((double)a[ch] + (double)bias[ch]) * mult[ch],
                        lo, hi);
        }
        for (int64_t ch = 0; ch < c; ++ch)
            for (int64_t p = 0; p < spatial; ++p)
                dst[ch * spatial + p] = codes[p * c + ch];
    }
}
