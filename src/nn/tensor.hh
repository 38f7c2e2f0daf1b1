/**
 * @file
 * Minimal fixed-point tensors for the DNN substrate. Activations
 * are int8 in HWC layout (channel-major per pixel — the layout the
 * CMem consumes, §4.1: "vectors are organized along the channel
 * dimension"); weights are int8 in MRSC layout; accumulators are
 * int32.
 */

#ifndef MAICC_NN_TENSOR_HH
#define MAICC_NN_TENSOR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace maicc
{

/** A 3-D int8 activation tensor, HWC layout. */
struct Tensor3
{
    int H = 0, W = 0, C = 0;
    std::vector<int8_t> data;

    Tensor3() = default;
    Tensor3(int h, int w, int c)
        : H(h), W(w), C(c),
          data(static_cast<size_t>(h) * w * c, 0)
    {
    }

    size_t
    index(int h, int w, int c) const
    {
        maicc_assert(h >= 0 && h < H && w >= 0 && w < W && c >= 0
                     && c < C);
        return (static_cast<size_t>(h) * W + w) * C + c;
    }

    int8_t at(int h, int w, int c) const { return data[index(h, w, c)]; }
    int8_t &at(int h, int w, int c) { return data[index(h, w, c)]; }

    bool operator==(const Tensor3 &o) const = default;

    /** Fill with uniform values in [lo, hi]. */
    void
    randomize(Rng &rng, int lo = -5, int hi = 5)
    {
        for (auto &v : data)
            v = static_cast<int8_t>(rng.range(lo, hi));
    }
};

/** A 4-D int8 weight tensor, MRSC layout (filters of R*S*C). */
struct Weights4
{
    int M = 0, R = 0, S = 0, C = 0;
    std::vector<int8_t> data;

    Weights4() = default;
    Weights4(int m, int r, int s, int c)
        : M(m), R(r), S(s), C(c),
          data(static_cast<size_t>(m) * r * s * c, 0)
    {
    }

    size_t
    index(int m, int r, int s, int c) const
    {
        maicc_assert(m >= 0 && m < M && r >= 0 && r < R && s >= 0
                     && s < S && c >= 0 && c < C);
        return ((static_cast<size_t>(m) * R + r) * S + s) * C + c;
    }

    int8_t
    at(int m, int r, int s, int c) const
    {
        return data[index(m, r, s, c)];
    }

    int8_t &
    at(int m, int r, int s, int c)
    {
        return data[index(m, r, s, c)];
    }

    void
    randomize(Rng &rng, int lo = -3, int hi = 3)
    {
        for (auto &v : data)
            v = static_cast<int8_t>(rng.range(lo, hi));
    }
};

/**
 * Saturating int32 -> int8 requantization used across the repo.
 * Branch-free, so a loop of it over contiguous sums vectorises.
 */
inline int8_t
requantize(int32_t acc, unsigned shift, bool relu)
{
    acc = std::max(acc, relu ? 0 : INT32_MIN) >> shift;
    return static_cast<int8_t>(std::clamp(acc, -128, 127));
}

} // namespace maicc

#endif // MAICC_NN_TENSOR_HH
